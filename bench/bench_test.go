package main

import (
	"bytes"
	"crypto/sha256"
	"encoding/json"
	"os"
	"path/filepath"
	"regexp"
	"slices"
	"sort"
	"sync"
	"testing"
	"time"

	"repro/internal/dnssim"
	"repro/internal/pipeline"
	"repro/internal/race"
)

func TestSummarizeTailRule(t *testing.T) {
	// The tail is the highest ladder percentile with at least ten samples
	// beyond it: none under 100 samples, p90 from 100, p99 from 1000.
	for _, tc := range []struct {
		n    int
		want float64
	}{{5, 0}, {99, 0}, {100, 90}, {199, 90}, {200, 95}, {999, 95}, {1000, 99}, {10_000, 99.9}, {100_000, 99.99}} {
		if got := tailPercentile(tc.n); got != tc.want {
			t.Errorf("tailPercentile(%d) = %v, want %v", tc.n, got, tc.want)
		}
	}
	xs := make([]float64, 1000)
	for i := range xs {
		xs[i] = float64(1000 - i) // 1000 down to 1: summarize must not rely on order
	}
	s := summarize(xs)
	if s.N != 1000 || s.Median != 500.5 || s.TailPct != 99 || s.Tail != 990 {
		t.Errorf("summarize(1..1000) = %+v, want n=1000 median=500.5 p99=990", s)
	}
	if xs[0] != 1000 {
		t.Error("summarize reordered its input")
	}
	if m := median([]float64{3, 1, 2}); m != 2 {
		t.Errorf("median(3,1,2) = %v", m)
	}
	if s := summarize(nil); s.N != 0 || s.Median != 0 || s.TailPct != 0 {
		t.Errorf("summarize(nil) = %+v", s)
	}
}

// fakeClock advances only when told to: Sleep moves it forward, and the
// test's request function moves it by the service time.
type fakeClock struct {
	mu  sync.Mutex
	now time.Time
}

func (c *fakeClock) Now() time.Time {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.now
}

func (c *fakeClock) Sleep(d time.Duration) {
	c.mu.Lock()
	c.now = c.now.Add(d)
	c.mu.Unlock()
}

func TestOpenLoopTimesFromDueTime(t *testing.T) {
	// One worker, a request due every 10 ms, each taking 4 ms, except the
	// third which stalls for 25 ms. The schedule must not slip: the next
	// three requests go out late, and their latency counts from when they
	// were due, so the stall shows in four requests, not one.
	clk := &fakeClock{now: time.Unix(1000, 0)}
	start := clk.Now()
	service := []time.Duration{4, 4, 25, 4, 4, 4}
	samples := openLoop(clk, 1, len(service), 10*time.Millisecond, func(_, i int) sample {
		s := sample{sent: clk.Now(), ok: true}
		clk.Sleep(service[i] * time.Millisecond)
		s.done = clk.Now()
		return s
	})
	wantLatency := []time.Duration{4, 4, 25, 19, 13, 7}
	wantLate := []time.Duration{0, 0, 0, 15, 9, 3}
	for i, s := range samples {
		if due := start.Add(time.Duration(i) * 10 * time.Millisecond); !s.due.Equal(due) {
			t.Errorf("request %d due at %v, want %v", i, s.due.Sub(start), due.Sub(start))
		}
		if got := s.latency(); got != wantLatency[i]*time.Millisecond {
			t.Errorf("request %d latency %v, want %v ms", i, got, wantLatency[i])
		}
		if got := s.sent.Sub(s.due); got != wantLate[i]*time.Millisecond {
			t.Errorf("request %d sent %v late, want %v ms", i, got, wantLate[i])
		}
	}
	var p phase
	p.add(samples, 0.06)
	if p.ok != 6 || p.failed != 0 || p.lateMax != 0.015 {
		t.Errorf("reduce: ok=%d failed=%d lateMax=%v, want 6, 0, 0.015", p.ok, p.failed, p.lateMax)
	}
}

func TestReduceCountsFailuresAsMissing(t *testing.T) {
	at := time.Unix(0, 0)
	samples := []sample{
		{due: at, sent: at, done: at.Add(time.Millisecond), ok: true},
		{due: at, sent: at, done: at.Add(time.Millisecond), shed: true},
		{due: at, sent: at, done: at.Add(time.Millisecond)},
	}
	var p phase
	p.add(samples, 1)
	if p.ok != 1 || p.failed != 2 || p.shed != 1 || len(p.latencies) != 1 {
		t.Errorf("reduce = ok %d failed %d shed %d latencies %d, want 1 2 1 1", p.ok, p.failed, p.shed, len(p.latencies))
	}
}

func TestWindowRatesIgnoreAStall(t *testing.T) {
	// 1000 completions a second for a second, with a 200 ms stall in the
	// middle: the mean drops by a fifth, the undisturbed windows do not.
	at := time.Unix(0, 0)
	var samples []sample
	for ms := 0; ms < 1050; ms++ {
		if ms >= 400 && ms < 600 {
			continue
		}
		s := at.Add(time.Duration(ms) * time.Millisecond)
		samples = append(samples, sample{sent: s, done: s.Add(500 * time.Microsecond), ok: true})
	}
	one := func(sample) float64 { return 1 }
	rates := windowRates(samples, one, 1.05)
	if len(rates) != 10 || rates[4] != 0 || rates[5] != 0 {
		t.Fatalf("windowRates = %v, want ten windows, the fifth and sixth empty", rates)
	}
	if got := sustained(rates); got != 1000 {
		t.Errorf("sustained rate = %v, want 1000", got)
	}
	if got := windowRates(samples[:50], one, 0.05); len(got) != 1 || got[0] != 1000 {
		t.Errorf("windowRates over 50 ms = %v, want the plain mean 1000", got)
	}
	// Slices of one phase pool their windows.
	var p phase
	p.add(samples[:400], 0.4)
	p.add(samples[400:], 0.45)
	if len(p.reqRates) != 7 || sustained(p.reqRates) != 1000 {
		t.Errorf("two slices pooled %v", p.reqRates)
	}
}

func TestFastestAndSustained(t *testing.T) {
	// One-sided noise: three of five units were disturbed.
	if got := fastest([]float64{1.6, 1.1, 1.5, 1.12, 1.7}); got != 1.1 {
		t.Errorf("fastest = %v, want 1.1", got)
	}
	if fastest(nil) != 0 || sustained(nil) != 0 {
		t.Error("no samples must reduce to 0")
	}
	rates := make([]float64, 20)
	for i := range rates {
		rates[i] = float64(20 - i) // 20 down to 1: sustained must not rely on order
	}
	if got := sustained(rates); got != 18 || rates[0] != 20 {
		t.Errorf("sustained(1..20) = %v (input reordered: %v), want 18", got, rates[0] != 20)
	}
}

func TestSelfTime(t *testing.T) {
	// root 0..100 with children 10..30 and 20..50 (overlapping: 40 covered
	// once) and 90..120 (clipped to the parent: 10); the grandchild does
	// not count against the root.
	spans := []span{
		{ID: 0, Parent: -1, StartNS: 0, EndNS: 100},
		{ID: 1, Parent: 0, StartNS: 20, EndNS: 50},
		{ID: 2, Parent: 0, StartNS: 10, EndNS: 30},
		{ID: 3, Parent: 0, StartNS: 90, EndNS: 120},
		{ID: 4, Parent: 1, StartNS: 25, EndNS: 45},
	}
	want := []int64{50, 10, 20, 30, 20}
	for i, got := range selfNS(spans) {
		if got != want[i] {
			t.Errorf("span %d self time %d, want %d", i, got, want[i])
		}
	}

	var off *tracer
	if id := off.begin("w", "x", -1, 0); id != -1 {
		t.Errorf("nil tracer begin = %d, want -1", id)
	}
	off.end(-1)
	if off.record("w", "x", -1, 0, time.Now(), time.Second, "") != -1 || off.seconds("w", "x") != nil {
		t.Error("nil tracer recorded something")
	}

	tr := newTracer()
	parent := tr.begin("w", "outer", -1, 7)
	tr.record("w", "inner", parent, 7, tr.startOf(parent), 0, "build_report")
	tr.end(parent)
	if got := tr.seconds("w", "outer"); len(got) != 1 || got[0] <= 0 {
		t.Errorf("seconds(outer) = %v", got)
	}
	if tr.spans[1].Parent != parent || tr.spans[1].Src != "build_report" || tr.spans[1].Rep != 7 {
		t.Errorf("recorded child = %+v", tr.spans[1])
	}
}

// smallTrace is a three-day campus small enough to regenerate per test.
func smallTrace(seed uint64) dnssim.Config {
	cfg := dnssim.SmallScenario(seed)
	cfg.Hosts, cfg.BenignDomains = quickScale.hosts, quickScale.benign
	return cfg
}

func TestAggregateDigestIsOrderIndependent(t *testing.T) {
	cfg := smallTrace(5)
	s := dnssim.NewScenario(cfg)
	events := s.Collect()
	newProc := func() *pipeline.Processor {
		return pipeline.NewProcessor(pipeline.Config{Start: cfg.Start, Days: cfg.Days, DHCP: s.DHCP()})
	}
	forward, backward, halves := newProc(), newProc(), []*pipeline.Processor{newProc(), newProc()}
	for i, ev := range events {
		forward.Consume(pipeline.Input(ev))
		backward.Consume(pipeline.Input(events[len(events)-1-i]))
		halves[i%2].Consume(pipeline.Input(ev))
	}
	merged, err := pipeline.Merge(halves...)
	if err != nil {
		t.Fatal(err)
	}
	want := aggregateDigest(forward.Stats())
	if got := aggregateDigest(backward.Stats()); got != want {
		t.Error("digest depends on the order events were consumed in")
	}
	if got := aggregateDigest(merged.Stats()); got != want {
		t.Error("digest depends on how events were sharded")
	}
	short := newProc()
	for _, ev := range events[1:] {
		short.Consume(pipeline.Input(ev))
	}
	if aggregateDigest(short.Stats()) == want {
		t.Error("digest did not notice a missing event")
	}
}

func TestTraceFileIsAFunctionOfTheSeed(t *testing.T) {
	dir := t.TempDir()
	sum := func(name string, seed uint64) [sha256.Size]byte {
		tf, _, err := writeTrace(smallTrace(seed), filepath.Join(dir, name))
		if err != nil {
			t.Fatal(err)
		}
		b, err := os.ReadFile(tf.path)
		if err != nil {
			t.Fatal(err)
		}
		if int64(len(b)) != tf.bytes || bytes.Count(b, []byte{'\n'}) != tf.events {
			t.Fatalf("trace file has %d bytes, %d lines; writeTrace reported %d, %d",
				len(b), bytes.Count(b, []byte{'\n'}), tf.bytes, tf.events)
		}
		return sha256.Sum256(b)
	}
	a, again, other := sum("a.tsv", 11), sum("again.tsv", 11), sum("other.tsv", 12)
	if a != again {
		t.Error("the same seed wrote two different trace files")
	}
	if a == other {
		t.Error("two seeds wrote the same trace file")
	}

	// The file is time-sorted: the shard pool closes days in order.
	var last time.Time
	tf, _, err := writeTrace(smallTrace(11), filepath.Join(dir, "sorted.tsv"))
	if err != nil {
		t.Fatal(err)
	}
	if err := readTrace(tf, func(in pipeline.Input) {
		if in.Time.Before(last) {
			t.Fatalf("event at %v follows one at %v", in.Time, last)
		}
		last = in.Time
	}); err != nil {
		t.Fatal(err)
	}
}

// manifest is BENCHMARK.json.
type manifest struct {
	Command    []string `json:"command"`
	Paths      []string `json:"paths"`
	RunSeconds int      `json:"run_seconds"`
	Workloads  []struct {
		Name string `json:"name"`
		Why  string `json:"why"`
	} `json:"workloads"`
	EndToEnd []metricDef `json:"end_to_end"`
	PerLayer []metricDef `json:"per_layer"`
}

var nameRE = regexp.MustCompile(`^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$`)

func TestCatalogueMatchesManifest(t *testing.T) {
	b, err := os.ReadFile(filepath.Join("..", "BENCHMARK.json"))
	if err != nil {
		t.Fatal(err)
	}
	var m manifest
	dec := json.NewDecoder(bytes.NewReader(b))
	dec.DisallowUnknownFields()
	if err := dec.Decode(&m); err != nil {
		t.Fatal(err)
	}
	if m.RunSeconds != defaultSeconds {
		t.Errorf("run_seconds %d, the program's default is %d", m.RunSeconds, defaultSeconds)
	}
	var names []string
	for _, w := range m.Workloads {
		names = append(names, w.Name)
		if w.Why == "" || len(w.Why) > 200 {
			t.Errorf("workload %s: why has %d characters", w.Name, len(w.Why))
		}
	}
	if !slices.Equal(names, workloadNames) {
		t.Errorf("manifest workloads %v, program runs %v", names, workloadNames)
	}
	for _, pair := range []struct {
		kind       string
		have, want []metricDef
	}{{"end_to_end", m.EndToEnd, endToEnd}, {"per_layer", m.PerLayer, perLayer}} {
		if len(pair.have) != len(pair.want) {
			t.Errorf("%s: manifest lists %d metrics, catalogue %d", pair.kind, len(pair.have), len(pair.want))
			continue
		}
		for i, d := range pair.want {
			if pair.have[i] != d {
				t.Errorf("%s[%d]: manifest %+v, catalogue %+v", pair.kind, i, pair.have[i], d)
			}
		}
	}
	seen := map[string]bool{}
	setup := false
	for _, d := range append(append([]metricDef(nil), endToEnd...), perLayer...) {
		if !nameRE.MatchString(d.Name) || seen[d.Name] {
			t.Errorf("metric name %q is malformed or repeated", d.Name)
		}
		seen[d.Name] = true
		if d.Better != "higher" && d.Better != "lower" {
			t.Errorf("%s: better = %q", d.Name, d.Better)
		}
		if d.Bound < 0 || d.Bound > 0.25 {
			t.Errorf("%s: bound %v outside (0, 0.25]", d.Name, d.Bound)
		}
		setup = setup || d == metricDef{Name: "setup_s", Unit: "s", Better: "lower", Bound: d.Bound}
	}
	if !setup {
		t.Error("no setup_s metric in seconds, lower is better")
	}
}

// TestQuickSmoke runs the whole program on tiny inputs, traced, and checks
// that every workload reports exactly the catalogue's metrics.
func TestQuickSmoke(t *testing.T) {
	if race.Enabled {
		t.Skip("model builds are ~30x slower under the race detector")
	}
	dir := t.TempDir()
	wd, err := os.Getwd()
	if err != nil {
		t.Fatal(err)
	}
	// The program writes under its working directory; keep the repository
	// clean.
	if err := os.Chdir(dir); err != nil {
		t.Fatal(err)
	}
	defer func() {
		if err := os.Chdir(wd); err != nil {
			t.Fatal(err)
		}
	}()

	var stdout, stderr bytes.Buffer
	out, spans := filepath.Join(dir, "ledger.json"), filepath.Join(dir, "spans.json")
	if code := cli([]string{"-quick", "-seconds", "1", "-seed", "3", "-trace", spans, "-out", out}, &stdout, &stderr); code != 0 {
		t.Fatalf("exit code %d\n%s", code, stderr.String())
	}

	lines := bytes.Split(bytes.TrimSpace(stdout.Bytes()), []byte{'\n'})
	if len(lines) != len(workloadNames) {
		t.Fatalf("%d result lines for %d workloads", len(lines), len(workloadNames))
	}
	for _, line := range lines {
		var got struct {
			Correct   *bool            `json:"correct"`
			Attempted *int             `json:"attempted"`
			Failed    *int             `json:"failed"`
			Metrics   map[string]value `json:"metrics"`
		}
		dec := json.NewDecoder(bytes.NewReader(line))
		dec.DisallowUnknownFields()
		if err := dec.Decode(&got); err != nil {
			t.Fatalf("result line %q: %v", line, err)
		}
		if got.Correct == nil || !*got.Correct || got.Attempted == nil || *got.Attempted < 1 || got.Failed == nil || *got.Failed != 0 {
			t.Errorf("result line %q: want correct, attempted >= 1, failed 0", line)
		}
		var names, want []string
		for name, v := range got.Metrics {
			names = append(names, name)
			if !nameRE.MatchString(name) || v.Unit == "" {
				t.Errorf("metric %q (unit %q) is malformed", name, v.Unit)
			}
		}
		for _, d := range perLayer {
			want = append(want, d.Name)
		}
		sort.Strings(names)
		sort.Strings(want)
		if !slices.Equal(names, want) {
			t.Errorf("traced metrics %v, want %v", names, want)
		}
	}

	b, err := os.ReadFile(out)
	if err != nil {
		t.Fatal(err)
	}
	var doc ledger
	if err := json.Unmarshal(b, &doc); err != nil {
		t.Fatal(err)
	}
	if doc.Host.NProc < 1 || doc.Host.GoVersion == "" || doc.Host.GOARCH == "" || doc.Host.Commit == "" ||
		doc.Host.Clients > doc.Host.NProc || doc.Host.Shards > doc.Host.NProc {
		t.Errorf("host block %+v", doc.Host)
	}
	if len(doc.Sets) != 1 || len(doc.Sets[0]) != len(workloadNames) {
		t.Fatalf("ledger holds %d sets", len(doc.Sets))
	}
	for i, res := range doc.Sets[0] {
		if res.Workload != workloadNames[i] {
			t.Errorf("run %d is %s, want %s", i, res.Workload, workloadNames[i])
		}
		for _, d := range endToEnd {
			if v, ok := res.EndToEnd[d.Name]; !ok || v <= 0 {
				t.Errorf("%s: %s = %v, want a positive number", res.Workload, d.Name, v)
			}
		}
		if len(res.EndToEnd) != len(endToEnd) {
			t.Errorf("%s reports %d end-to-end metrics, catalogue has %d", res.Workload, len(res.EndToEnd), len(endToEnd))
		}
		sb, err := os.ReadFile(res.SpanFile)
		if err != nil {
			t.Fatal(err)
		}
		var sf spanFile
		if err := json.Unmarshal(sb, &sf); err != nil {
			t.Fatal(err)
		}
		stages := 0
		for _, s := range sf.Spans {
			if s.Src == "build_report" {
				stages++
				if p := sf.Spans[s.Parent].Name; p != "core.BuildModel" && p != "stream.EndOfDay" {
					t.Errorf("build_report span %s hangs under %s", s.Name, p)
				}
			}
		}
		if sf.Workload != res.Workload || stages == 0 || len(sf.SelfNS) != len(sf.Spans) {
			t.Errorf("%s: span file names %s, %d stage spans, %d self times for %d spans",
				res.Workload, sf.Workload, stages, len(sf.SelfNS), len(sf.Spans))
		}
	}
	if entries, err := os.ReadDir(filepath.Join(dir, workRoot)); err != nil || len(entries) != 0 {
		t.Errorf("work directory not cleaned: %v %v", entries, err)
	}
}

func TestSelfCheckFlagsAGapBeyondTheBound(t *testing.T) {
	bound := 0.0
	for _, d := range endToEnd {
		if d.Name == "train_wall_s" {
			bound = d.Bound
		}
	}
	mk := func(train float64) []result {
		r := result{Workload: wlBatch, EndToEnd: map[string]float64{}}
		for _, d := range endToEnd {
			r.EndToEnd[d.Name] = 1
		}
		r.EndToEnd["train_wall_s"] = train
		return []result{r}
	}
	var buf bytes.Buffer
	if !selfCheck([][]result{mk(1), mk(1 + 0.8*bound)}, &buf) {
		t.Errorf("a gap of 0.8 bounds failed the self-check:\n%s", buf.String())
	}
	if selfCheck([][]result{mk(1), mk(1 + 1.2*bound)}, &buf) {
		t.Error("a gap of 1.2 bounds passed the self-check")
	}
	if selfCheck([][]result{mk(1), mk(1 - 1.2*bound)}, &buf) {
		t.Error("a gap of -1.2 bounds passed the self-check")
	}
}
