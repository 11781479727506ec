package pipeline

import (
	"bufio"
	"bytes"
	"errors"
	"fmt"
	"io"
	"reflect"
	"runtime"
	"strings"
	"testing"
	"testing/iotest"
	"time"

	"repro/internal/dhcp"
	"repro/internal/dnssim"
	"repro/internal/dnswire"
	"repro/internal/etld"
)

var t0 = time.Date(2018, 3, 1, 0, 0, 0, 0, time.UTC)

func in(t time.Time, client, qname string, answers []string, ttl uint32) Input {
	rcode := dnswire.RCodeNoError
	if answers == nil {
		rcode = dnswire.RCodeNXDomain
	}
	return Input{
		Time: t, TxnID: 1, ClientIP: client, QName: qname,
		QType: dnswire.TypeA, RCode: rcode, Answers: answers, TTL: ttl,
	}
}

func TestProcessorAggregatesByE2LD(t *testing.T) {
	p := NewProcessor(Config{Start: t0, Days: 3})
	p.Consume(in(t0, "10.0.0.1", "www.example.com", []string{"1.2.3.4"}, 300))
	p.Consume(in(t0.Add(time.Minute), "10.0.0.2", "mail.example.com", []string{"1.2.3.5"}, 600))
	p.Consume(in(t0.Add(2*time.Minute), "10.0.0.1", "api.example.com", []string{"1.2.3.4"}, 300))

	st := p.Stats()["example.com"]
	if st == nil {
		t.Fatal("no stats for example.com")
	}
	if st.QueryCount != 3 {
		t.Errorf("QueryCount = %d, want 3", st.QueryCount)
	}
	if len(st.Hosts) != 2 {
		t.Errorf("Hosts = %d, want 2", len(st.Hosts))
	}
	if len(st.IPs) != 2 {
		t.Errorf("IPs = %d, want 2", len(st.IPs))
	}
	if len(st.Minutes) != 3 {
		t.Errorf("Minutes = %d, want 3", len(st.Minutes))
	}
	if len(st.FQDNs) != 3 {
		t.Errorf("FQDNs = %d, want 3", len(st.FQDNs))
	}
	if got := st.MeanTTL(); got != 400 {
		t.Errorf("MeanTTL = %v, want 400", got)
	}
	if st.TTLMin != 300 || st.TTLMax != 600 {
		t.Errorf("TTL range [%d,%d], want [300,600]", st.TTLMin, st.TTLMax)
	}
}

func TestProcessorNXDomains(t *testing.T) {
	p := NewProcessor(Config{Start: t0, Days: 1})
	p.Consume(in(t0, "10.0.0.1", "xyz.nxdomain-example.com", nil, 0))
	st := p.Stats()["nxdomain-example.com"]
	if st == nil || st.NXCount != 1 || len(st.IPs) != 0 {
		t.Fatalf("NX aggregation wrong: %+v", st)
	}
	if st.MeanTTL() != 0 {
		t.Errorf("MeanTTL over only-NX domain = %v, want 0", st.MeanTTL())
	}
}

func TestProcessorSkipsBareSuffixes(t *testing.T) {
	p := NewProcessor(Config{Start: t0})
	p.Consume(in(t0, "10.0.0.1", "com", []string{"1.1.1.1"}, 1))
	if p.Skipped() != 1 || p.TotalQueries() != 0 {
		t.Errorf("skipped=%d total=%d, want 1/0", p.Skipped(), p.TotalQueries())
	}
}

func TestProcessorDHCPPinning(t *testing.T) {
	leases := []dhcp.Lease{
		{MAC: "02:00:00:00:00:01", IP: "10.0.0.9", Start: t0, End: t0.Add(12 * time.Hour)},
		{MAC: "02:00:00:00:00:02", IP: "10.0.0.9", Start: t0.Add(12 * time.Hour), End: t0.Add(24 * time.Hour)},
	}
	p := NewProcessor(Config{Start: t0, DHCP: dhcp.NewResolver(leases)})
	// Same IP at two times — two different devices.
	p.Consume(in(t0.Add(time.Hour), "10.0.0.9", "www.pin-example.com", []string{"1.1.1.1"}, 60))
	p.Consume(in(t0.Add(13*time.Hour), "10.0.0.9", "www.pin-example.com", []string{"1.1.1.1"}, 60))
	st := p.Stats()["pin-example.com"]
	if len(st.Hosts) != 2 {
		t.Fatalf("DHCP pinning failed: hosts=%v", st.Hosts)
	}
	if p.DeviceCount() != 2 {
		t.Errorf("DeviceCount = %d, want 2", p.DeviceCount())
	}
}

func TestSeries(t *testing.T) {
	p := NewProcessor(Config{Start: t0, Bucket: time.Hour})
	p.Consume(in(t0.Add(10*time.Minute), "10.0.0.1", "www.a-example.com", []string{"1.1.1.1"}, 60))
	p.Consume(in(t0.Add(20*time.Minute), "10.0.0.1", "www.a-example.com", []string{"1.1.1.1"}, 60))
	p.Consume(in(t0.Add(2*time.Hour), "10.0.0.1", "www.b-example.com", []string{"1.1.1.2"}, 60))
	s := p.Series()
	if len(s) != 3 {
		t.Fatalf("series length %d, want 3 (incl. empty middle bucket)", len(s))
	}
	if s[0].Queries != 2 || s[0].UniqueFQDN != 1 || s[0].UniqueE2LD != 1 {
		t.Errorf("bucket 0 = %+v", s[0])
	}
	if s[1].Queries != 0 {
		t.Errorf("bucket 1 should be empty: %+v", s[1])
	}
	if s[2].Queries != 1 {
		t.Errorf("bucket 2 = %+v", s[2])
	}
}

func TestJoinerMatchesPairs(t *testing.T) {
	j := NewJoiner()
	s := dnssim.NewScenario(dnssim.SmallScenario(5))
	events := 0
	joined := 0
	s.Generate(func(ev dnssim.Event) {
		if events >= 2000 {
			return
		}
		events++
		qb, rb, err := dnssim.Packets(ev)
		if err != nil {
			t.Fatal(err)
		}
		if _, ok, err := j.Offer(ev.Time, ev.ClientIP, DirQuery, qb); err != nil || ok {
			t.Fatalf("query offer: ok=%v err=%v", ok, err)
		}
		in, ok, err := j.Offer(ev.Time.Add(20*time.Millisecond), ev.ClientIP, DirResponse, rb)
		if err != nil {
			t.Fatal(err)
		}
		if !ok {
			return // duplicate txn id for this client overwrote the entry; rare and tolerated
		}
		joined++
		if in.QName != ev.QName || in.RCode != ev.RCode {
			t.Fatalf("joined record mismatch: %+v vs %+v", in, ev)
		}
		if len(in.Answers) != len(ev.Answers) {
			t.Fatalf("answers %v vs %v", in.Answers, ev.Answers)
		}
	})
	if joined < events*9/10 {
		t.Fatalf("joined only %d/%d pairs", joined, events)
	}
	if j.Joined() != joined {
		t.Errorf("Joined() = %d, want %d", j.Joined(), joined)
	}
}

func TestJoinerIgnoresOrphanResponse(t *testing.T) {
	j := NewJoiner()
	resp := &dnswire.Message{
		Header:    dnswire.Header{ID: 9, Response: true},
		Questions: []dnswire.Question{{Name: "x.example.com", Type: dnswire.TypeA, Class: dnswire.ClassIN}},
	}
	b, err := dnswire.Encode(resp)
	if err != nil {
		t.Fatal(err)
	}
	if _, ok, err := j.Offer(t0, "10.0.0.1", DirResponse, b); ok || err != nil {
		t.Fatalf("orphan response: ok=%v err=%v", ok, err)
	}
}

func TestJoinerRejectsGarbage(t *testing.T) {
	j := NewJoiner()
	if _, _, err := j.Offer(t0, "10.0.0.1", DirQuery, []byte{1, 2, 3}); err == nil {
		t.Fatal("garbage packet accepted")
	}
}

func TestTextLogRoundTrip(t *testing.T) {
	inputs := []Input{
		in(t0, "10.0.0.1", "www.example.com", []string{"1.2.3.4", "1.2.3.5"}, 300),
		in(t0.Add(time.Second), "10.0.0.2", "gone.example.org", nil, 0),
	}
	var buf bytes.Buffer
	if err := WriteLog(&buf, inputs); err != nil {
		t.Fatal(err)
	}
	var got []Input
	if err := ReadLog(&buf, func(i Input) { got = append(got, i) }); err != nil {
		t.Fatal(err)
	}
	if len(got) != 2 {
		t.Fatalf("read %d records", len(got))
	}
	for i := range inputs {
		a, b := inputs[i], got[i]
		if !a.Time.Equal(b.Time) || a.ClientIP != b.ClientIP || a.QName != b.QName ||
			a.RCode != b.RCode || a.TTL != b.TTL || len(a.Answers) != len(b.Answers) {
			t.Errorf("record %d mismatch:\n  %+v\n  %+v", i, a, b)
		}
	}
}

func TestReadLogErrors(t *testing.T) {
	for _, bad := range []string{
		"not a log line",
		"2018-03-01T00:00:00Z\tx\t10.0.0.1\twww.a.com\tA\t0\t60\t-",
		"2018-03-01T00:00:00Z\t1\t10.0.0.1\twww.a.com\tBOGUS\t0\t60\t-",
		"2018-03-01T00:00:00Z\t1\t10.0.0.1\twww.a.com\tA\t0\t60\t-\textra",
		"2018-02-30T00:00:00Z\t1\t10.0.0.1\twww.a.com\tA\t0\t60\t-",
		// "-" is the only spelling of "no answers": an empty answer would
		// become an address every such domain shares in the IP view.
		"2018-03-01T00:00:00Z\t1\t10.0.0.1\twww.a.com\tA\t0\t60\t",
		"2018-03-01T00:00:00Z\t1\t10.0.0.1\twww.a.com\tA\t0\t60\t1.2.3.4,,5.6.7.8",
		"2018-03-01T00:00:00Z\t1\t10.0.0.1\twww.a.com\tA\t0\t60\t1.2.3.4,",
		"2018-03-01T00:00:00Z\t1\t10.0.0.1\twww.a.com\tA\t0\t60\t,1.2.3.4",
	} {
		good := "2018-03-01T00:00:00Z\t1\t10.0.0.1\twww.a.com\tA\t0\t60\t1.2.3.4\n"
		emitted := 0
		err := ReadLog(strings.NewReader("# header\n"+good+bad+"\n"), func(Input) { emitted++ })
		if err == nil {
			t.Errorf("ReadLog accepted %q", bad)
		} else if !strings.Contains(err.Error(), "line 3:") {
			t.Errorf("ReadLog(%q) error %q does not name line 3", bad, err)
		}
		if emitted != 1 {
			t.Errorf("ReadLog(%q) emitted %d observations before failing, want 1", bad, emitted)
		}
	}
	// What the block reader adds to a line's own errors: where blocks
	// and lines end, and what r itself reports.
	const goodLine = "2018-03-01T00:00:00Z\t1\t10.0.0.1\twww.a.com\tA\t0\t60\t1.2.3.4"
	long := func(n int) string { // a well-formed line of n bytes
		return strings.Replace(goodLine, "www", strings.Repeat("w", n-len(goodLine)+3), 1)
	}
	pad := func(n int) string { // n bytes of comment, newline included
		return "#" + strings.Repeat("x", n-2) + "\n"
	}
	errBoom := errors.New("boom")
	for _, tc := range []struct {
		name    string
		r       io.Reader
		emitted int
		wantErr string // "" = no error
	}{
		{name: "line of 1 MiB with its newline", emitted: 3,
			r: strings.NewReader(goodLine + "\n" + long(maxLine-1) + "\n" + goodLine + "\n")},
		{name: "line of 1 MiB + 1", emitted: 1, wantErr: "pipeline: line 3: longer than 1048576 bytes",
			r: strings.NewReader("# header\n" + goodLine + "\n" + long(maxLine+1) + "\n" + goodLine + "\n")},
		{name: "last line of 1 MiB without a newline", emitted: 1, wantErr: "pipeline: line 2: longer than 1048576 bytes",
			r: strings.NewReader(goodLine + "\n" + long(maxLine))},
		{name: "line straddling a block boundary", emitted: 3,
			r: strings.NewReader(pad(readBlock-len(goodLine)-10) + goodLine + "\n" + goodLine + "\n" + goodLine + "\n")},
		{name: "newline first in the next block", emitted: 2,
			r: strings.NewReader(pad(readBlock-len(goodLine)) + goodLine + "\n" + goodLine + "\n")},
		{name: "CRLF split by a block boundary", emitted: 2,
			r: strings.NewReader(pad(readBlock-len(goodLine)-1) + goodLine + "\r\n" + goodLine + "\r\n")},
		{name: "bad line straddling a block boundary", emitted: 1, wantErr: "pipeline: line 3: want 8 fields, got 1",
			r: strings.NewReader(pad(readBlock-len(goodLine)-5) + goodLine + "\nnot a log line\n")},
		{name: "last line without a newline", emitted: 2,
			r: strings.NewReader(goodLine + "\n" + goodLine)},
		{name: "bad last line without a newline", emitted: 1, wantErr: "pipeline: line 2: want 8 fields, got 1",
			r: strings.NewReader(goodLine + "\nnot a log line")},
		{name: "CRLF", emitted: 2,
			r: strings.NewReader("# header\r\n\r\n" + goodLine + "\r\n" + goodLine + "\r")},
		{name: "read error mid-block", emitted: 2, wantErr: "pipeline: reading log: boom",
			r: io.MultiReader(strings.NewReader(goodLine+"\n"+goodLine+"\n"+goodLine[:20]), iotest.ErrReader(errBoom))},
		{name: "reader that never progresses", emitted: 1, wantErr: "pipeline: reading log: " + io.ErrNoProgress.Error(),
			r: io.MultiReader(strings.NewReader(goodLine+"\n"), stalledReader{})},
	} {
		emitted := 0
		err := ReadLog(tc.r, func(in Input) {
			emitted++
			// The first and the last field: what a misplaced block edge or a
			// kept '\r' would damage.
			if !in.Time.Equal(t0) || len(in.Answers) != 1 || in.Answers[0] != "1.2.3.4" {
				t.Errorf("%s: emitted %+v", tc.name, in)
			}
		})
		if tc.wantErr == "" && err != nil || tc.wantErr != "" && (err == nil || err.Error() != tc.wantErr) {
			t.Errorf("%s: error %v, want %q", tc.name, err, tc.wantErr)
		}
		if tc.name == "read error mid-block" && !errors.Is(err, errBoom) {
			t.Errorf("%s: error %v does not wrap the reader's", tc.name, err)
		}
		if emitted != tc.emitted {
			t.Errorf("%s: emitted %d observations, want %d", tc.name, emitted, tc.emitted)
		}
	}

	if _, err := ParseLogLine("a\tb\tc"); err == nil || !strings.Contains(err.Error(), "want 8 fields, got 3") {
		t.Errorf("short line: error %v, want the field count", err)
	}
	if _, err := ParseLogLine(strings.Repeat("\t", 9)); err == nil || !strings.Contains(err.Error(), "want 8 fields, got 10") {
		t.Errorf("long line: error %v, want the field count", err)
	}
	// Comments and blank lines are fine.
	if err := ReadLog(strings.NewReader("# header\n\n"), func(Input) {}); err != nil {
		t.Errorf("comment/blank rejected: %v", err)
	}
}

// stalledReader returns no bytes and no error, for ever.
type stalledReader struct{}

func (stalledReader) Read([]byte) (int, error) { return 0, nil }

// WriteLogLine must write what the Fprintf form it replaced wrote.
func TestWriteLogLineMatchesFprintf(t *testing.T) {
	reference := func(in Input) string {
		answers := "-"
		if len(in.Answers) > 0 {
			answers = strings.Join(in.Answers, ",")
		}
		return fmt.Sprintf("%s\t%d\t%s\t%s\t%s\t%d\t%d\t%s\n",
			in.Time.UTC().Format(time.RFC3339Nano), in.TxnID, in.ClientIP,
			in.QName, in.QType, in.RCode, in.TTL, answers)
	}
	inputs := []Input{
		{},
		in(t0, "10.0.0.1", "www.example.com", []string{"1.2.3.4", "1.2.3.5"}, 0),
		in(t0.Add(time.Second), "10.0.0.2", "gone.example.org", nil, 0),
		in(t0.Add(500*time.Millisecond), "", "", []string{}, 4294967295),
		in(t0.Add(120*time.Microsecond), "c", "q", []string{"x"}, 1),
		in(t0.Add(123456789), "c", "q", []string{"a", "b", "c"}, 60),
		in(time.Date(2018, 3, 1, 2, 30, 0, 10, time.FixedZone("east", 2*3600)), "c", "q", nil, 0),
		in(time.Date(9999, 12, 31, 23, 59, 59, 999999999, time.UTC), "c", "q", nil, 0),
		{Time: t0, TxnID: 65535, QType: dnswire.Type(99), RCode: dnswire.RCode(255)},
	}
	s := dnssim.NewScenario(dnssim.SmallScenario(5))
	s.Generate(func(ev dnssim.Event) {
		if len(inputs) < 3000 {
			inputs = append(inputs, Input(ev))
		}
	})
	var buf bytes.Buffer
	for _, in := range inputs {
		buf.Reset()
		if err := WriteLogLine(&buf, in); err != nil {
			t.Fatal(err)
		}
		if want := reference(in); buf.String() != want {
			t.Fatalf("WriteLogLine(%+v) = %q, the Fprintf form gives %q", in, buf.String(), want)
		}
	}
}

func TestEndToEndSmallScenario(t *testing.T) {
	s := dnssim.NewScenario(dnssim.SmallScenario(3))
	p := NewProcessor(Config{
		Start: s.Config.Start,
		Days:  s.Config.Days,
		DHCP:  s.DHCP(),
	})
	s.Generate(func(ev dnssim.Event) { p.Consume(Input(ev)) })

	if p.DeviceCount() == 0 || p.DeviceCount() > s.Config.Hosts {
		t.Fatalf("DeviceCount = %d with %d hosts", p.DeviceCount(), s.Config.Hosts)
	}
	// Most planted domains must be visible in the aggregates.
	seen := 0
	for d := range s.TruthTable() {
		if p.Stats()[d] != nil {
			seen++
		}
	}
	if total := len(s.TruthTable()); seen < total*3/5 {
		t.Fatalf("only %d/%d planted domains observed", seen, total)
	}
	// DHCP pinning must beat raw client IPs: device count should be at
	// most the host count even though clients changed addresses.
	if p.DeviceCount() > s.Config.Hosts {
		t.Fatalf("device identities %d exceed physical hosts %d", p.DeviceCount(), s.Config.Hosts)
	}
}

func TestProcessorDefaultBucketIsDaily(t *testing.T) {
	p := NewProcessor(Config{Start: t0})
	p.Consume(in(t0.Add(time.Hour), "10.0.0.1", "www.x-example.com", []string{"1.1.1.1"}, 60))
	p.Consume(in(t0.Add(25*time.Hour), "10.0.0.1", "www.x-example.com", []string{"1.1.1.1"}, 60))
	if got := len(p.Series()); got != 2 {
		t.Fatalf("daily series length = %d, want 2", got)
	}
}

// mergeFixture is a day-spanning observation mix covering every
// aggregate Merge must fold: NOERROR and NXDOMAIN, several hosts and
// resolved IPs, TTL extremes, bare-suffix skips, and multiple buckets.
func mergeFixture() []Input {
	return []Input{
		in(t0, "10.0.0.1", "www.example.com", []string{"1.2.3.4"}, 300),
		in(t0.Add(time.Minute), "10.0.0.2", "mail.example.com", []string{"1.2.3.5", "1.2.3.6"}, 30),
		in(t0.Add(2*time.Minute), "10.0.0.1", "xyz.example.com", nil, 0),
		in(t0.Add(3*time.Minute), "10.0.0.3", "com", []string{"9.9.9.9"}, 1), // skipped
		in(t0.Add(26*time.Hour), "10.0.0.1", "www.example.com", []string{"1.2.3.4"}, 7200),
		in(t0.Add(26*time.Hour+time.Minute), "10.0.0.4", "cdn.other-example.org", []string{"5.6.7.8"}, 60),
		in(t0.Add(27*time.Hour), "10.0.0.4", "api.other-example.org", nil, 0),
	}
}

func TestMergeMatchesSingleProcessor(t *testing.T) {
	cfg := Config{Start: t0, Days: 3}
	inputs := mergeFixture()

	single := NewProcessor(cfg)
	for _, i := range inputs {
		single.Consume(i)
	}

	// Shard by day, the way the streaming mode does.
	a, b := NewProcessor(cfg), NewProcessor(cfg)
	for _, i := range inputs {
		if i.Time.Sub(t0) < 24*time.Hour {
			a.Consume(i)
		} else {
			b.Consume(i)
		}
	}
	merged, err := Merge(a, b)
	if err != nil {
		t.Fatal(err)
	}

	if !reflect.DeepEqual(merged.stats, single.stats) {
		t.Errorf("merged stats differ from single-processor stats:\n%+v\nvs\n%+v",
			merged.stats["example.com"], single.stats["example.com"])
	}
	if !reflect.DeepEqual(merged.devices, single.devices) {
		t.Errorf("devices %v vs %v", merged.devices, single.devices)
	}
	if merged.totalQueries != single.totalQueries || merged.skipped != single.skipped {
		t.Errorf("totals %d/%d vs %d/%d",
			merged.totalQueries, merged.skipped, single.totalQueries, single.skipped)
	}
	if !reflect.DeepEqual(merged.Series(), single.Series()) {
		t.Errorf("series %+v vs %+v", merged.Series(), single.Series())
	}

	// Argument order must not matter.
	swapped, err := Merge(b, a)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(swapped.stats, merged.stats) {
		t.Error("Merge(b,a) differs from Merge(a,b)")
	}
}

func TestMergeTakesMaxDaysAndDeepCopies(t *testing.T) {
	a := NewProcessor(Config{Start: t0, Days: 1})
	b := NewProcessor(Config{Start: t0, Days: 3})
	a.Consume(in(t0, "10.0.0.1", "www.example.com", []string{"1.2.3.4"}, 300))
	b.Consume(in(t0.Add(48*time.Hour), "10.0.0.2", "www.example.com", []string{"1.2.3.5"}, 600))

	merged, err := Merge(a, b)
	if err != nil {
		t.Fatal(err)
	}
	if merged.Config().Days != 3 {
		t.Errorf("merged Days = %d, want 3", merged.Config().Days)
	}
	st := merged.Stats()["example.com"]
	if st == nil || st.QueryCount != 2 || len(st.PerDay) != 3 || st.PerDay[0] != 1 || st.PerDay[2] != 1 {
		t.Fatalf("merged stats wrong: %+v", st)
	}

	// Mutating the merged output must not leak into the inputs.
	st.Hosts["mutant"] = struct{}{}
	st.QueryCount = 99
	if len(a.Stats()["example.com"].Hosts) != 1 || a.Stats()["example.com"].QueryCount != 1 {
		t.Error("merged processor aliases input state")
	}
}

func TestMergeRejectsMismatchedConfigs(t *testing.T) {
	if _, err := Merge(); err == nil {
		t.Error("Merge() with no processors accepted")
	}
	base := NewProcessor(Config{Start: t0})
	for name, other := range map[string]*Processor{
		"start":    NewProcessor(Config{Start: t0.Add(time.Hour)}),
		"bucket":   NewProcessor(Config{Start: t0, Bucket: time.Hour}),
		"suffixes": NewProcessor(Config{Start: t0, Suffixes: etld.NewTable([]string{"com"})}),
	} {
		_, err := Merge(base, other)
		if err == nil {
			t.Errorf("Merge accepted mismatched %s", name)
			continue
		}
		var mm *MismatchError
		if !errors.As(err, &mm) {
			t.Errorf("mismatched %s: error %v is not a *MismatchError", name, err)
			continue
		}
		if mm.Field != name {
			t.Errorf("mismatched %s: MismatchError.Field = %q", name, mm.Field)
		}
	}
}

func TestMergeWindowDayCursorGuard(t *testing.T) {
	proc := func(days int) *Processor { return NewProcessor(Config{Start: t0, Days: days}) }
	cases := []struct {
		name      string
		window    int
		days      []int
		wantField string // "" = merge must succeed
	}{
		{name: "identical cursors", window: 1, days: []int{4, 4, 4}},
		{name: "spread equals window", window: 3, days: []int{2, 4, 5}},
		{name: "spread exceeds window", window: 3, days: []int{1, 4, 5}, wantField: "days"},
		{name: "stale shard aggregate", window: 1, days: []int{7, 7, 2}, wantField: "days"},
		{name: "guard disabled", window: 0, days: []int{1, 9}},
		{name: "single input", window: 1, days: []int{6}},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			ps := make([]*Processor, len(tc.days))
			for i, d := range tc.days {
				ps[i] = proc(d)
			}
			merged, err := MergeWindow(tc.window, ps...)
			if tc.wantField == "" {
				if err != nil {
					t.Fatalf("MergeWindow(%d) rejected %v: %v", tc.window, tc.days, err)
				}
				want := tc.days[0]
				for _, d := range tc.days {
					if d > want {
						want = d
					}
				}
				if merged.Config().Days != want {
					t.Errorf("merged Days = %d, want %d", merged.Config().Days, want)
				}
				return
			}
			var mm *MismatchError
			if !errors.As(err, &mm) {
				t.Fatalf("MergeWindow(%d) on %v: error %v is not a *MismatchError", tc.window, tc.days, err)
			}
			if mm.Field != tc.wantField {
				t.Errorf("MismatchError.Field = %q, want %q", mm.Field, tc.wantField)
			}
		})
	}
}

// The ingest hot path allocates only what it keeps. A line's fields are
// substrings of the line, so parsing costs the Answers slice and nothing
// else; an observation that adds no set member costs nothing to consume,
// DHCP pinning included.
func TestIngestHotPathAllocations(t *testing.T) {
	const line = "2018-03-01T09:15:02.123456789Z\t4242\t10.0.0.9\tcdn.static.example.co.uk\tA\t0\t300\t1.2.3.4,1.2.3.5"
	if allocs := testing.AllocsPerRun(100, func() {
		if _, err := ParseLogLine(line); err != nil {
			t.Fatal(err)
		}
	}); allocs > 1 {
		t.Errorf("ParseLogLine allocates %v times a line, want at most 1 (the Answers slice)", allocs)
	}
	const nx = "2018-03-01T09:15:02Z\t7\t10.0.0.9\tgone.example.org\tAAAA\t3\t0\t-"
	if allocs := testing.AllocsPerRun(100, func() {
		if _, err := ParseLogLine(nx); err != nil {
			t.Fatal(err)
		}
	}); allocs != 0 {
		t.Errorf("ParseLogLine allocates %v times a line without answers, want 0", allocs)
	}

	leases := []dhcp.Lease{{MAC: "02:00:00:00:00:01", IP: "10.0.0.9", Start: t0, End: t0.Add(24 * time.Hour)}}
	p := NewProcessor(Config{Start: t0, Days: 2, DHCP: dhcp.NewResolver(leases)})
	seen, err := ParseLogLine(line)
	if err != nil {
		t.Fatal(err)
	}
	p.Consume(seen)
	if allocs := testing.AllocsPerRun(100, func() { p.Consume(seen) }); allocs != 0 {
		t.Errorf("Consume allocates %v times for an observation that adds no set member, want 0", allocs)
	}
	st := p.Stats()["example.co.uk"]
	if st == nil || st.QueryCount != 102 || len(st.Hosts) != 1 {
		t.Fatalf("aggregate after the repeats: %+v", st)
	}
	if _, pinned := st.Hosts["02:00:00:00:00:01"]; !pinned {
		t.Errorf("hosts %v: the lease's MAC is missing", st.Hosts)
	}
	// A restored processor's name table is empty: the first sighting of a
	// name it already holds records the name, the next costs nothing. The
	// same without leases, where the device is the client address.
	for _, res := range []*dhcp.Resolver{dhcp.NewResolver(leases), nil} {
		q, err := FromSnapshot(p.Snapshot(), RestoreConfig{DHCP: res})
		if err != nil {
			t.Fatal(err)
		}
		q.Consume(seen)
		q.Consume(seen)
		if allocs := testing.AllocsPerRun(100, func() { q.Consume(seen) }); allocs != 0 {
			t.Errorf("restored processor: Consume allocates %v times for an observation that adds no set member, want 0", allocs)
		}
	}

	// A pass over a log allocates by the block, not by the line: the read
	// buffer, a string a block, an Answers array every few thousand answers.
	var log strings.Builder
	const lines = 10000
	for i := 0; i < lines; i++ {
		log.WriteString(line)
		log.WriteByte('\n')
	}
	read := 0
	perPass := testing.AllocsPerRun(5, func() {
		if err := ReadLog(strings.NewReader(log.String()), func(Input) { read++ }); err != nil {
			t.Fatal(err)
		}
	})
	if read != 6*lines {
		t.Fatalf("read %d lines in 6 passes over %d", read, lines)
	}
	if perLine := perPass / lines; perLine > 0.05 {
		t.Errorf("ReadLog allocates %v times a line (%v a pass), want at most 0.05", perLine, perPass)
	}
}

// lineSource is a log of n generated lines that exists only as it is
// read. Every name is one of 100 and every field repeats, but a new
// client address and a new answer address keep appearing to the end, so
// every block holds a string the processor will keep.
type lineSource struct {
	n, next int
	pending []byte
	read    int // bytes handed out
}

func (s *lineSource) Read(p []byte) (int, error) {
	for len(s.pending) < len(p) && s.next < s.n {
		i := s.next
		s.next++
		s.pending = appendLogLine(s.pending, Input{
			Time:     t0.Add(time.Duration(i%3600) * time.Second),
			TxnID:    uint16(i),
			ClientIP: fmt.Sprintf("10.1.%d.%d", i/4000%250, i%50),
			QName:    fmt.Sprintf("host%d.site%d.example", i%100, i%20),
			QType:    dnswire.TypeA,
			TTL:      uint32(60 * (i%5 + 1)),
			Answers:  []string{fmt.Sprintf("198.51.%d.%d", i/3000%250, i%40)},
		})
	}
	if len(s.pending) == 0 {
		return 0, io.EOF
	}
	n := copy(p, s.pending)
	s.pending = s.pending[:copy(s.pending, s.pending[n:])]
	s.read += n
	return n, nil
}

// A processor fed by ReadLog keeps its own copies of the strings it
// keeps, not the blocks they were cut from: after 32 MiB of log whose
// every block contributes a set member, the heap has grown by the
// aggregates and not by the log.
func TestIngestRetainsNoBlocks(t *testing.T) {
	const lines = 32 << 20 / 78 // a line is 79 or 80 bytes
	var before, after runtime.MemStats
	runtime.GC()
	runtime.ReadMemStats(&before)
	p := NewProcessor(Config{Start: t0, Days: 1})
	src := &lineSource{n: lines}
	if err := ReadLog(src, p.Consume); err != nil {
		t.Fatal(err)
	}
	src.pending = nil
	runtime.GC()
	runtime.ReadMemStats(&after)
	if p.TotalQueries() != lines || src.read < 32<<20 || len(p.Stats()) != 20 {
		t.Fatalf("consumed %d of %d lines, %d bytes, into %d domains", p.TotalQueries(), lines, src.read, len(p.Stats()))
	}
	devices, ips := p.DeviceCount(), 0
	for _, st := range p.Stats() {
		ips += len(st.IPs)
	}
	if devices < 1000 || ips < 1000 {
		t.Fatalf("%d devices and %d addresses: the log does not spread its set members over its blocks", devices, ips)
	}
	if growth := int64(after.HeapAlloc) - int64(before.HeapAlloc); growth > 2<<20 {
		t.Errorf("heap grew by %d KiB over a %d MiB log, want under 2 MiB: something keeps the blocks", growth>>10, src.read>>20)
	}
	runtime.KeepAlive(p)
}

// Consume skips set inserts, and whole lookups, that an earlier insert
// for the same observation or the same name proves redundant. Whatever
// the arrival order and the bucket width, across a snapshot and restore
// and across a Merge (both leave the name table empty), the aggregates
// must equal those of the plain rule: every observation with an e2LD puts
// its name in that e2LD's FQDNs, its device in the device set and its
// FQDN and e2LD in its bucket, and every other observation is skipped.
func TestConsumeSkipsOnlyRedundantInserts(t *testing.T) {
	s := dnssim.NewScenario(dnssim.SmallScenario(4))
	events := s.Collect()
	if len(events) > 20000 {
		events = events[:20000]
	}
	// Spellings the generator does not produce: a name in another case is
	// another FQDN of the same e2LD, and a name without an e2LD is skipped
	// each time it comes.
	var inputs []Input
	for i, ev := range events {
		in := Input(ev)
		inputs = append(inputs, in)
		switch i % 40 {
		case 0:
			in.QName = strings.ToUpper(in.QName[:1]) + in.QName[1:]
			inputs = append(inputs, in)
		case 1:
			in.QName = []string{"com", "", "co.uk", "Com."}[i/40%4]
			inputs = append(inputs, in)
		}
	}
	for _, bucket := range []time.Duration{time.Hour, 24 * time.Hour, 0} {
		cfg := Config{Start: s.Config.Start, Days: s.Config.Days, Bucket: bucket, DHCP: s.DHCP()}
		p, side := NewProcessor(cfg), NewProcessor(cfg)
		devices := map[string]struct{}{}
		fqdns := map[string]map[string]struct{}{}
		type accum struct {
			queries      int
			fqdns, e2lds map[string]struct{}
		}
		buckets := map[int]*accum{}
		skipped := 0
		for i, in := range inputs {
			switch i {
			case len(inputs) / 2:
				// The second quarter went to another processor (another
				// shard's share of the day); fold it in.
				var err error
				if p, err = Merge(p, side); err != nil {
					t.Fatal(err)
				}
			case len(inputs) * 3 / 4:
				// A restored processor keeps consuming (a shard worker's
				// replay), so the skips must hold across a snapshot too.
				var err error
				if p, err = FromSnapshot(p.Snapshot(), RestoreConfig{DHCP: s.DHCP()}); err != nil {
					t.Fatal(err)
				}
			}
			if i >= len(inputs)/4 && i < len(inputs)/2 {
				side.Consume(in)
			} else {
				p.Consume(in)
			}
			e2, err := etld.E2LD(in.QName)
			if err != nil {
				skipped++
				continue
			}
			device := in.ClientIP
			if mac, ok := s.DHCP().MACAt(in.ClientIP, in.Time); ok {
				device = mac
			}
			devices[device] = struct{}{}
			if fqdns[e2] == nil {
				fqdns[e2] = map[string]struct{}{}
			}
			fqdns[e2][in.QName] = struct{}{}
			bi := p.bucketIndex(in.Time)
			if buckets[bi] == nil {
				buckets[bi] = &accum{fqdns: map[string]struct{}{}, e2lds: map[string]struct{}{}}
			}
			buckets[bi].queries++
			buckets[bi].fqdns[in.QName] = struct{}{}
			buckets[bi].e2lds[e2] = struct{}{}
		}
		if p.Skipped() != skipped || skipped == 0 || p.TotalQueries() != len(inputs)-skipped {
			t.Errorf("bucket %v: %d consumed and %d skipped, the plain rule gives %d and %d",
				bucket, p.TotalQueries(), p.Skipped(), len(inputs)-skipped, skipped)
		}
		if !reflect.DeepEqual(p.devices, devices) {
			t.Errorf("bucket %v: %d devices, the plain rule gives %d", bucket, len(p.devices), len(devices))
		}
		if len(p.stats) != len(fqdns) {
			t.Errorf("bucket %v: %d domains, the plain rule gives %d", bucket, len(p.stats), len(fqdns))
		}
		mixedCase := 0
		for e2, want := range fqdns {
			if st := p.stats[e2]; st == nil || !reflect.DeepEqual(st.FQDNs, want) {
				t.Errorf("bucket %v: FQDNs of %s differ from the plain rule's", bucket, e2)
			}
			for name := range want {
				if name != strings.ToLower(name) {
					mixedCase++
				}
			}
		}
		if mixedCase == 0 {
			t.Errorf("bucket %v: no mixed-case spelling was kept as its own FQDN", bucket)
		}
		// The name table holds members of the FQDNs sets and nothing else.
		if len(p.names) == 0 {
			t.Errorf("bucket %v: the name table is empty after %d observations", bucket, len(inputs)/4)
		}
		for name, st := range p.names {
			e2, err := etld.E2LD(name)
			if err != nil || p.stats[e2] != st {
				t.Errorf("bucket %v: name table maps %q to an entry that is not its e2LD's", bucket, name)
				continue
			}
			if _, ok := st.FQDNs[name]; !ok {
				t.Errorf("bucket %v: name table holds %q, which is not in %s's FQDNs", bucket, name, e2)
			}
		}
		if len(p.buckets) != len(buckets) {
			t.Fatalf("bucket %v: %d buckets, the plain rule gives %d", bucket, len(p.buckets), len(buckets))
		}
		for bi, want := range buckets {
			got := p.buckets[bi]
			if got == nil || got.queries != want.queries ||
				!reflect.DeepEqual(got.fqdns, want.fqdns) || !reflect.DeepEqual(got.e2lds, want.e2lds) {
				t.Errorf("bucket %v: series point %d differs from the plain rule's", bucket, bi)
			}
		}
	}
}

// BenchmarkProcessorConsume folds a scenario's events into one Processor
// with the scenario's leases, so MACAt runs per event as in production.
func BenchmarkProcessorConsume(b *testing.B) {
	s := dnssim.NewScenario(dnssim.SmallScenario(9))
	events := s.Collect()
	p := NewProcessor(Config{Start: s.Config.Start, Days: s.Config.Days, DHCP: s.DHCP()})
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		p.Consume(Input(events[i%len(events)]))
	}
	b.ReportMetric(float64(b.N)/b.Elapsed().Seconds(), "events/s")
}

// BenchmarkReadLog parses a scenario's text log into a counting sink.
func BenchmarkReadLog(b *testing.B) {
	s := dnssim.NewScenario(dnssim.SmallScenario(9))
	var log bytes.Buffer
	bw := bufio.NewWriter(&log)
	events := 0
	s.Generate(func(ev dnssim.Event) {
		if err := WriteLogLine(bw, Input(ev)); err != nil {
			b.Fatal(err)
		}
		events++
	})
	if err := bw.Flush(); err != nil {
		b.Fatal(err)
	}
	b.SetBytes(int64(log.Len()))
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		n := 0
		if err := ReadLog(bytes.NewReader(log.Bytes()), func(Input) { n++ }); err != nil {
			b.Fatal(err)
		}
		if n != events {
			b.Fatalf("read %d events, wrote %d", n, events)
		}
	}
	b.ReportMetric(float64(b.N)*float64(events)/b.Elapsed().Seconds(), "events/s")
}
