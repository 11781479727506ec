package stream

import (
	"bytes"
	"crypto/sha256"
	"errors"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"testing"
	"time"

	"repro/internal/bipartite"
	"repro/internal/core"
	"repro/internal/crcio"
	"repro/internal/dnssim"
	"repro/internal/dnswire"
	"repro/internal/faultio"
	"repro/internal/obsv"
	"repro/internal/pipeline"
	"repro/internal/threatintel"
)

// tinyConfig is a checkpoint-test configuration cheap enough to restore
// hundreds of times. Calling it twice yields fingerprint-identical
// configs (the labeler is not part of the fingerprint).
func tinyConfig() Config {
	return Config{
		Start:      time.Date(2026, 4, 1, 0, 0, 0, 0, time.UTC),
		WindowDays: 2,
		Detector:   core.Config{Seed: 99, EmbedDim: 8},
		Labeler:    func([]string) ([]string, []int) { return nil, nil },
	}
}

// tinyInput is one synthetic observation on the given day.
func tinyInput(cfg Config, day int, host, qname, answer string) pipeline.Input {
	return pipeline.Input{
		Time:     cfg.Start.Add(time.Duration(day)*24*time.Hour + 5*time.Minute),
		ClientIP: host,
		QName:    qname,
		RCode:    dnswire.RCodeNoError,
		Answers:  []string{answer},
		TTL:      300,
	}
}

// tinyRolling builds a detector with two days of synthetic aggregates,
// a flagged domain, and hand-planted warm-start state — every field a
// checkpoint carries — without paying for a real model build.
func tinyRolling(t testing.TB) *Rolling {
	t.Helper()
	r, err := New(tinyConfig())
	if err != nil {
		t.Fatal(err)
	}
	r.Consume(tinyInput(r.cfg, 0, "10.0.0.1", "www.alpha.com", "198.51.100.1"))
	r.Consume(tinyInput(r.cfg, 0, "10.0.0.2", "cdn.alpha.com", "198.51.100.2"))
	r.Consume(tinyInput(r.cfg, 1, "10.0.0.1", "evil.beta.net", "203.0.113.9"))
	r.flagged["evil.beta.net"] = true
	r.prevIndex = map[string]int{"alpha.com": 0, "beta.net": 1}
	r.prevEmb = make(map[bipartite.View]*core.Embedding)
	for vi, v := range bipartite.Views {
		r.prevEmb[v] = &core.Embedding{Dim: 4, Vectors: [][]float64{
			{0.1 * float64(vi+1), 0.2, 0.3, 0.4},
			{-0.5, 0.6 * float64(vi+1), -0.7, 0.8},
		}}
	}
	return r
}

// checkpointBytes serializes r at cur into memory.
func checkpointBytes(t testing.TB, r *Rolling, cur Cursor) []byte {
	t.Helper()
	var buf bytes.Buffer
	if err := r.Checkpoint(&buf, cur); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

// checkpointSHA256 pins the on-disk format to the byte, as golden_test.go
// pins the model's: recorded at the commit before internal/crcio took
// over framing (PR 16).
const checkpointSHA256 = "e57e3512da170ceaec55b1b054d3eedfc665fa9e857f960be3a2cdafa6712146"

func TestCheckpointBytesPinned(t *testing.T) {
	b := checkpointBytes(t, tinyRolling(t), Cursor{Day: 1, FeedBytes: 7})
	if got := fmt.Sprintf("%x", sha256.Sum256(b)); got != checkpointSHA256 {
		t.Fatalf("checkpoint bytes changed: sha256 %s (len %d), want %s", got, len(b), checkpointSHA256)
	}
}

func TestCheckpointRoundTrip(t *testing.T) {
	r := tinyRolling(t)
	// A day past the cursor must not be serialized: the caller replays
	// it from its input stream.
	r.Consume(tinyInput(r.cfg, 2, "10.0.0.3", "late.gamma.org", "198.51.100.9"))

	cur := Cursor{Day: 1, FeedBytes: 123}
	data := checkpointBytes(t, r, cur)

	q, got, err := Restore(bytes.NewReader(data), tinyConfig())
	if err != nil {
		t.Fatal(err)
	}
	if got != cur {
		t.Fatalf("cursor round trip: got %+v, want %+v", got, cur)
	}
	if q.ConsumedThrough() != 1 {
		t.Fatalf("ConsumedThrough = %d, want 1", q.ConsumedThrough())
	}
	if q.BufferedDays() != 2 {
		t.Fatalf("restored %d day buckets, want 2 (day 2 is past the cursor)", q.BufferedDays())
	}
	for d := 0; d <= 1; d++ {
		if !reflect.DeepEqual(r.days[d].Snapshot(), q.days[d].Snapshot()) {
			t.Fatalf("day %d aggregates differ after restore", d)
		}
	}
	if !reflect.DeepEqual(r.flagged, q.flagged) {
		t.Fatalf("flagged set differs: %v vs %v", r.flagged, q.flagged)
	}
	if !reflect.DeepEqual(r.prevIndex, q.prevIndex) {
		t.Fatalf("warm-start index differs: %v vs %v", r.prevIndex, q.prevIndex)
	}
	if !reflect.DeepEqual(r.prevEmb, q.prevEmb) {
		t.Fatal("warm-start embeddings differ after restore")
	}

	// Replay semantics: days at or before the cursor are dropped, later
	// days land normally, and the covered boundary refuses to re-run.
	before := q.days[1].TotalQueries()
	q.Consume(tinyInput(q.cfg, 1, "10.0.0.7", "replayed.beta.net", "203.0.113.7"))
	if q.days[1].TotalQueries() != before {
		t.Fatal("restored detector re-counted a replayed observation")
	}
	q.Consume(tinyInput(q.cfg, 2, "10.0.0.3", "late.gamma.org", "198.51.100.9"))
	if q.BufferedDays() != 3 {
		t.Fatal("post-cursor replay did not land in a fresh day bucket")
	}
	if !reflect.DeepEqual(r.days[2].Snapshot(), q.days[2].Snapshot()) {
		t.Fatal("replayed post-cursor day differs from the original")
	}
	if _, err := q.EndOfDay(1); err == nil || !strings.Contains(err.Error(), "checkpoint") {
		t.Fatalf("EndOfDay at the cursor day: err = %v, want checkpoint refusal", err)
	}
}

func TestCheckpointRejectsBadCursor(t *testing.T) {
	r := tinyRolling(t)
	var buf bytes.Buffer
	if err := r.Checkpoint(&buf, Cursor{Day: -1}); err == nil {
		t.Fatal("negative cursor day accepted")
	}
	if err := r.Checkpoint(&buf, Cursor{Day: 0, FeedBytes: -1}); err == nil {
		t.Fatal("negative feed offset accepted")
	}
}

func TestRestoreRejectsForeignAndCorrupt(t *testing.T) {
	valid := checkpointBytes(t, tinyRolling(t), Cursor{Day: 1})
	cases := []struct {
		name string
		data []byte
	}{
		{"empty", nil},
		{"not a checkpoint", []byte("definitely not a checkpoint stream")},
		{"magic only", []byte(checkpointMagic)},
		{"truncated mid-body", valid[:len(valid)/2]},
		{"truncated in trailer", valid[:len(valid)-2]},
		{"trailer flipped", func() []byte {
			d := bytes.Clone(valid)
			d[len(d)-1] ^= 0x01
			return d
		}()},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			if _, _, err := Restore(bytes.NewReader(tc.data), tinyConfig()); !errors.Is(err, ErrCorruptCheckpoint) {
				t.Fatalf("err = %v, want ErrCorruptCheckpoint", err)
			}
		})
	}
}

// TestRestoreDetectsEveryByteFlip is the integrity contract: any
// single-bit corruption anywhere in the stream is refused as corrupt
// (the CRC covers the magic, the body, and the cursor alike).
func TestRestoreDetectsEveryByteFlip(t *testing.T) {
	valid := checkpointBytes(t, tinyRolling(t), Cursor{Day: 1})
	cfg := tinyConfig()
	for i := range valid {
		flipped := bytes.Clone(valid)
		flipped[i] ^= 0x10
		if _, _, err := Restore(bytes.NewReader(flipped), cfg); !errors.Is(err, ErrCorruptCheckpoint) {
			t.Fatalf("flip at byte %d: err = %v, want ErrCorruptCheckpoint", i, err)
		}
	}
}

func TestRestoreRejectsFingerprintMismatch(t *testing.T) {
	valid := checkpointBytes(t, tinyRolling(t), Cursor{Day: 1})
	other := tinyConfig()
	other.WindowDays = 3
	if _, _, err := Restore(bytes.NewReader(valid), other); !errors.Is(err, ErrFingerprintMismatch) {
		t.Fatalf("window change: err = %v, want ErrFingerprintMismatch", err)
	}
	other = tinyConfig()
	other.Detector.Seed = 100
	if _, _, err := Restore(bytes.NewReader(valid), other); !errors.Is(err, ErrFingerprintMismatch) {
		t.Fatalf("seed change: err = %v, want ErrFingerprintMismatch", err)
	}
}

func TestRestoreRejectsUnknownVersion(t *testing.T) {
	// A well-formed, correctly checksummed stream from a future version
	// must be refused with a version message, not misread.
	var buf bytes.Buffer
	wire := checkpointWire{Version: checkpointVersion + 1, Fingerprint: "future"}
	if err := crcio.SealGob(&buf, checkpointMagic, wire); err != nil {
		t.Fatal(err)
	}
	_, _, err := Restore(bytes.NewReader(buf.Bytes()), tinyConfig())
	if err == nil || !strings.Contains(err.Error(), "version") {
		t.Fatalf("future version: err = %v, want version refusal", err)
	}
}

// TestRestoreRejectsInconsistentWire covers corruption the CRC cannot
// catch: streams that were sealed correctly but carry internally
// impossible state.
func TestRestoreRejectsInconsistentWire(t *testing.T) {
	r := tinyRolling(t)
	base := func() checkpointWire {
		wire := checkpointWire{
			Version:     checkpointVersion,
			Fingerprint: r.cfg.fingerprint(),
			Cursor:      Cursor{Day: 1},
		}
		wire.Days = append(wire.Days,
			daySnapshot{Day: 0, Snap: r.days[0].Snapshot()},
			daySnapshot{Day: 1, Snap: r.days[1].Snapshot()})
		wire.WarmDomains = []string{"alpha.com", "beta.net"}
		for _, v := range bipartite.Views {
			wire.WarmEmb = append(wire.WarmEmb,
				viewVectors{View: v, Dim: 4, Vectors: r.prevEmb[v].Vectors})
		}
		return wire
	}
	cases := []struct {
		name   string
		mutate func(*checkpointWire)
	}{
		{"negative cursor", func(w *checkpointWire) { w.Cursor.Day = -2 }},
		{"day past cursor", func(w *checkpointWire) { w.Days[1].Day = 5 }},
		{"duplicate day", func(w *checkpointWire) { w.Days[1].Day = w.Days[0].Day }},
		{"corrupt day snapshot", func(w *checkpointWire) { w.Days[0].Snap.Days = 0 }},
		// The two set invariants Consume's skipped inserts rely on.
		{"host outside the device set", func(w *checkpointWire) { w.Days[0].Snap.Devices = w.Days[0].Snap.Devices[1:] }},
		{"one-bucket domain missing from its bucket", func(w *checkpointWire) { w.Days[0].Snap.Buckets[0].E2LDs = nil }},
		{"one-bucket FQDN missing from its bucket", func(w *checkpointWire) { w.Days[0].Snap.Buckets[0].FQDNs = w.Days[0].Snap.Buckets[0].FQDNs[1:] }},
		{"warm emb without index", func(w *checkpointWire) { w.WarmDomains = nil }},
		{"missing view", func(w *checkpointWire) { w.WarmEmb = w.WarmEmb[:2] }},
		{"empty warm domain", func(w *checkpointWire) { w.WarmDomains[0] = "" }},
		{"duplicate warm domain", func(w *checkpointWire) { w.WarmDomains[1] = w.WarmDomains[0] }},
		{"zero emb dim", func(w *checkpointWire) { w.WarmEmb[0].Dim = 0 }},
		{"row count mismatch", func(w *checkpointWire) { w.WarmEmb[0].Vectors = w.WarmEmb[0].Vectors[:1] }},
		{"ragged vector", func(w *checkpointWire) { w.WarmEmb[0].Vectors[0] = []float64{1} }},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			wire := base()
			tc.mutate(&wire)
			var buf bytes.Buffer
			if err := crcio.SealGob(&buf, checkpointMagic, wire); err != nil {
				t.Fatal(err)
			}
			if _, _, err := Restore(bytes.NewReader(buf.Bytes()), tinyConfig()); !errors.Is(err, ErrCorruptCheckpoint) {
				t.Fatalf("err = %v, want ErrCorruptCheckpoint", err)
			}
		})
	}
}

// TestWriteCheckpointFaults drives the atomic write sequence through
// every injected failure the faultio seam models. The invariant under
// test: a failed write at any step surfaces an error, leaves the
// previous checkpoint byte-identical and loadable, and litters no temp
// files.
func TestWriteCheckpointFaults(t *testing.T) {
	cases := []struct {
		name   string
		faults func() *faultio.Faults
		want   error // sentinel expected in the returned error chain
	}{
		{"create fails", func() *faultio.Faults { return &faultio.Faults{FailCreate: true} }, faultio.ErrInjected},
		{"write fails mid-stream", func() *faultio.Faults {
			return &faultio.Faults{WrapWriter: func(w io.Writer) io.Writer { return faultio.FailWriter(w, 64) }}
		}, faultio.ErrInjected},
		{"torn write", func() *faultio.Faults {
			return &faultio.Faults{WrapWriter: func(w io.Writer) io.Writer { return faultio.TornWriter(w, 64) }}
		}, faultio.ErrInjected},
		{"short write", func() *faultio.Faults {
			return &faultio.Faults{WrapWriter: func(w io.Writer) io.Writer { return faultio.ShortWriter(w, 64) }}
		}, io.ErrShortWrite},
		{"sync fails", func() *faultio.Faults { return &faultio.Faults{FailSync: true} }, faultio.ErrInjected},
		{"close fails", func() *faultio.Faults { return &faultio.Faults{FailClose: true} }, faultio.ErrInjected},
		{"rename fails", func() *faultio.Faults { return &faultio.Faults{FailRename: true} }, faultio.ErrInjected},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			dir := t.TempDir()
			path := filepath.Join(dir, "stream.ckpt")
			r := tinyRolling(t)
			if err := r.WriteCheckpoint(path, Cursor{Day: 0, FeedBytes: 10}); err != nil {
				t.Fatal(err)
			}
			prev, err := os.ReadFile(path)
			if err != nil {
				t.Fatal(err)
			}

			faults := tc.faults()
			err = r.writeCheckpoint(faults, path, Cursor{Day: 1, FeedBytes: 20})
			if !errors.Is(err, tc.want) {
				t.Fatalf("err = %v, want %v in the chain", err, tc.want)
			}
			if faults.Renames != 0 {
				t.Fatal("failed write reached the commit rename")
			}
			after, err := os.ReadFile(path)
			if err != nil {
				t.Fatal(err)
			}
			if !bytes.Equal(prev, after) {
				t.Fatal("previous checkpoint modified by a failed write")
			}
			if _, cur, err := RestoreFile(path, tinyConfig()); err != nil || cur.Day != 0 {
				t.Fatalf("previous checkpoint unloadable after failed write: cur=%+v err=%v", cur, err)
			}
			entries, err := os.ReadDir(dir)
			if err != nil {
				t.Fatal(err)
			}
			if len(entries) != 1 {
				t.Fatalf("temp litter after failed write: %d entries", len(entries))
			}
		})
	}
}

func TestWriteCheckpointAndRestoreFile(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "stream.ckpt")
	m := obsv.NewRegistry()
	r := tinyRolling(t)
	r.cfg.Metrics = m

	if err := r.WriteCheckpoint(path, Cursor{Day: 1, FeedBytes: 77}); err != nil {
		t.Fatal(err)
	}
	cfg := tinyConfig()
	cfg.Metrics = m
	q, cur, err := RestoreFile(path, cfg)
	if err != nil {
		t.Fatal(err)
	}
	if cur != (Cursor{Day: 1, FeedBytes: 77}) || q.BufferedDays() != 2 {
		t.Fatalf("restore from file: cur=%+v days=%d", cur, q.BufferedDays())
	}

	if got := m.CounterVec("maldomain_checkpoints_total", "", "result").With("ok").Value(); got != 1 {
		t.Errorf("checkpoints_total{ok} = %d, want 1", got)
	}
	if got := m.Gauge("maldomain_checkpoint_bytes", "").Value(); got <= 0 {
		t.Errorf("checkpoint_bytes = %v, want > 0", got)
	}
	if got := m.Gauge("maldomain_checkpoint_last_unix_seconds", "").Value(); got <= 0 {
		t.Errorf("checkpoint_last_unix_seconds = %v, want > 0", got)
	}
	if got := m.CounterVec("maldomain_restores_total", "", "result").With("ok").Value(); got != 1 {
		t.Errorf("restores_total{ok} = %d, want 1", got)
	}

	// A missing checkpoint file is a cold start, not corruption.
	_, _, err = RestoreFile(filepath.Join(dir, "absent.ckpt"), cfg)
	if !os.IsNotExist(err) {
		t.Fatalf("missing file: err = %v, want os.IsNotExist", err)
	}
}

// TestDegradedDayStillEvicts is the retention-leak regression test: a
// failing day boundary must release expired aggregates exactly like a
// successful one, so a run of bad days cannot grow memory without
// bound.
func TestDegradedDayStillEvicts(t *testing.T) {
	cfg := tinyConfig()
	m := obsv.NewRegistry()
	cfg.Metrics = m
	r, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	for d := 0; d < 3; d++ {
		r.Consume(tinyInput(cfg, d, "10.0.0.1", fmt.Sprintf("www.day%d.com", d), "198.51.100.1"))
	}
	if r.BufferedDays() != 3 {
		t.Fatalf("fixture consumed %d days, want 3", r.BufferedDays())
	}

	// An empty window fails at the remodel stage; its eviction must
	// still run.
	_, err = r.EndOfDay(10)
	var de *DegradedError
	if !errors.As(err, &de) {
		t.Fatalf("err = %v, want *DegradedError", err)
	}
	if de.Day != 10 || de.Stage != "remodel" {
		t.Fatalf("degraded day=%d stage=%q, want 10/remodel", de.Day, de.Stage)
	}
	if r.BufferedDays() != 0 {
		t.Fatalf("failed day leaked %d expired aggregates", r.BufferedDays())
	}

	// Repeated failures (here: windows too thin to train on, since the
	// labeler knows nothing) stay bounded and keep reporting typed
	// errors; the detector never wedges.
	failures := 1
	for d := 11; d < 30; d++ {
		r.Consume(tinyInput(cfg, d, "10.0.0.1", fmt.Sprintf("www.day%d.com", d), "198.51.100.1"))
		if _, err := r.EndOfDay(d); err != nil {
			if !errors.As(err, &de) {
				t.Fatalf("day %d: err = %v, want *DegradedError", d, err)
			}
			failures++
		}
		if r.BufferedDays() > cfg.WindowDays {
			t.Fatalf("day %d: %d buffered days exceed the window %d", d, r.BufferedDays(), cfg.WindowDays)
		}
	}
	if got := m.Counter("maldomain_degraded_days_total", "").Value(); got != uint64(failures) {
		t.Errorf("degraded_days_total = %d, want %d", got, failures)
	}
}

// deterministicConfig is the fixture for the crash-equivalence tests:
// two runs from the same seed produce bit-identical models, which is
// what lets a resumed run reproduce the alert feed exactly.
func deterministicConfig(t testing.TB, fail *bool) (Config, *dnssim.Scenario) {
	t.Helper()
	scfg := dnssim.SmallScenario(777)
	scfg.Hosts = 60
	scfg.BenignDomains = 200
	s := dnssim.NewScenario(scfg)
	ti := threatintel.NewService(s.TruthTable(), threatintel.Config{Seed: 777})
	known := make(map[string]bool)
	for i, d := range s.MaliciousDomains() {
		if i%2 == 0 {
			known[d] = true
		}
	}
	cfg := Config{
		Start:      s.Config.Start,
		WindowDays: 2,
		Detector:   core.Config{Seed: 777, EmbedDim: 16},
		Labeler: func(candidates []string) ([]string, []int) {
			if fail != nil && *fail {
				return nil, nil
			}
			domains, labels := ti.LabeledSet(candidates)
			var outD []string
			var outL []int
			for j, d := range domains {
				if labels[j] == 1 && !known[d] {
					continue
				}
				outD = append(outD, d)
				outL = append(outL, labels[j])
			}
			return outD, outL
		},
	}
	return cfg, s
}

// TestCrashEquivalence is the headline crash-safety property: a run
// interrupted after a day boundary and resumed from its checkpoint
// emits, for every remaining day, exactly the alerts of an
// uninterrupted run — same domains, same order, same scores — and ends
// on the same checkpoint bytes.
func TestCrashEquivalence(t *testing.T) {
	if testing.Short() {
		t.Skip("streaming end-to-end test")
	}
	skipIfRace(t)
	cfg, s := deterministicConfig(t, nil)
	lastDay := s.Config.Days - 1

	// Reference: one uninterrupted run over the whole capture.
	ref, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	s.Generate(func(ev dnssim.Event) { ref.Consume(pipeline.Input(ev)) })
	refAlerts := make(map[int][]Alert)
	for day := 0; day <= lastDay; day++ {
		alerts, err := ref.EndOfDay(day)
		if err != nil {
			t.Fatalf("reference day %d: %v", day, err)
		}
		refAlerts[day] = alerts
	}
	refCkpt := checkpointBytes(t, ref, Cursor{Day: lastDay})

	// The subtest keeps the name of the serial row of the former shard-count
	// table; ingestion is serial, so it is the only row left.
	t.Run("shards=1->1", func(t *testing.T) {
		// Interrupted: run through day 1, checkpoint, "crash", restore, replay
		// the full trace, finish the remaining days.
		const crashAfter = 1
		first, err := New(cfg)
		if err != nil {
			t.Fatal(err)
		}
		s.Generate(func(ev dnssim.Event) { first.Consume(pipeline.Input(ev)) })
		for day := 0; day <= crashAfter; day++ {
			alerts, err := first.EndOfDay(day)
			if err != nil {
				t.Fatalf("first run day %d: %v", day, err)
			}
			if !reflect.DeepEqual(alerts, refAlerts[day]) {
				t.Fatalf("day %d diverged before the crash; model build is not deterministic", day)
			}
		}
		data := checkpointBytes(t, first, Cursor{Day: crashAfter})

		resumed, cur, err := Restore(bytes.NewReader(data), cfg)
		if err != nil {
			t.Fatal(err)
		}
		if cur.Day != crashAfter {
			t.Fatalf("restored cursor day %d, want %d", cur.Day, crashAfter)
		}
		s.Generate(func(ev dnssim.Event) { resumed.Consume(pipeline.Input(ev)) })
		for day := crashAfter + 1; day <= lastDay; day++ {
			alerts, err := resumed.EndOfDay(day)
			if err != nil {
				t.Fatalf("resumed day %d: %v", day, err)
			}
			if !reflect.DeepEqual(alerts, refAlerts[day]) {
				t.Fatalf("day %d alerts diverge after restore:\n resumed: %+v\n reference: %+v",
					day, alerts, refAlerts[day])
			}
		}
		if !bytes.Equal(checkpointBytes(t, resumed, Cursor{Day: lastDay}), refCkpt) {
			t.Error("final checkpoint bytes differ from the uninterrupted run's")
		}
	})
}

// TestDegradedDayRecovers exercises graceful degradation on a real
// model: a boundary whose training fails reports a typed error, keeps
// the warm-start state, and the same boundary succeeds on retry once
// the labeler heals.
func TestDegradedDayRecovers(t *testing.T) {
	if testing.Short() {
		t.Skip("streaming end-to-end test")
	}
	skipIfRace(t)
	fail := false
	cfg, s := deterministicConfig(t, &fail)
	r, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	s.Generate(func(ev dnssim.Event) { r.Consume(pipeline.Input(ev)) })

	if _, err := r.EndOfDay(1); err != nil {
		t.Fatal(err)
	}
	fail = true
	_, err = r.EndOfDay(2)
	var de *DegradedError
	if !errors.As(err, &de) {
		t.Fatalf("err = %v, want *DegradedError", err)
	}
	if de.Day != 2 || de.Stage != "train" {
		t.Fatalf("degraded day=%d stage=%q, want 2/train", de.Day, de.Stage)
	}
	if len(r.prevEmb) != len(bipartite.Views) || len(r.prevIndex) == 0 {
		t.Fatal("warm-start state lost on a degraded day")
	}

	// Intel heals; the same boundary still has its window buffered and
	// now succeeds.
	fail = false
	if _, err := r.EndOfDay(2); err != nil {
		t.Fatalf("retry after degradation: %v", err)
	}
}

// FuzzRestore feeds arbitrary bytes to Restore: whatever the input, it
// must return a typed error or a valid detector — never panic. The seed
// corpus covers the valid stream, truncations, and sparse bit flips.
func FuzzRestore(f *testing.F) {
	valid := checkpointBytes(f, tinyRolling(f), Cursor{Day: 1, FeedBytes: 7})
	f.Add(valid)
	f.Add([]byte{})
	f.Add([]byte(checkpointMagic))
	f.Add(valid[:len(valid)/2])
	f.Add(valid[:len(valid)-3])
	for i := 0; i < len(valid); i += 41 {
		flipped := bytes.Clone(valid)
		flipped[i] ^= 1 << (i % 8)
		f.Add(flipped)
	}
	cfg := tinyConfig()
	f.Fuzz(func(t *testing.T, data []byte) {
		r, cur, err := Restore(bytes.NewReader(data), cfg)
		if err != nil {
			if r != nil {
				t.Fatal("non-nil detector returned with an error")
			}
			return
		}
		if r == nil || cur.Day < 0 || cur.FeedBytes < 0 {
			t.Fatalf("accepted stream yielded invalid state: r=%v cur=%+v", r, cur)
		}
		if r.BufferedDays() < 0 || r.ConsumedThrough() != cur.Day {
			t.Fatalf("restored detector inconsistent with cursor %+v", cur)
		}
	})
}

// TestRestoreSurvivesCrashBeforeRename simulates a process crash in
// the middle of the atomic checkpoint sequence, after the temp file was
// (partially or even fully) written but before the commit rename. A
// real crash runs no failure-path cleanup, so the directory is left
// with orphaned temp files: one torn mid-write, one complete but never
// committed. The invariant: the previous generation at the committed
// path restores byte-intact, orphaned temps are never trusted, and the
// next successful write still commits normally.
func TestRestoreSurvivesCrashBeforeRename(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "stream.ckpt")
	r := tinyRolling(t)
	if err := r.WriteCheckpoint(path, Cursor{Day: 0, FeedBytes: 10}); err != nil {
		t.Fatal(err)
	}
	prev, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}

	// Generation 2 dies before rename: serialize it, then plant its temp
	// files directly, exactly as a crashed writer would leave them.
	var gen2 bytes.Buffer
	if err := r.Checkpoint(&gen2, Cursor{Day: 1, FeedBytes: 20}); err != nil {
		t.Fatal(err)
	}
	torn := filepath.Join(dir, ".ckpt-1111111")
	full := filepath.Join(dir, ".ckpt-2222222")
	if err := os.WriteFile(torn, gen2.Bytes()[:100], 0o600); err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(full, gen2.Bytes(), 0o600); err != nil {
		t.Fatal(err)
	}

	// The committed path is untouched by the crash and restores to
	// generation 1.
	after, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(prev, after) {
		t.Fatal("previous checkpoint generation modified by a crashed write")
	}
	restored, cur, err := RestoreFile(path, tinyConfig())
	if err != nil || cur.Day != 0 {
		t.Fatalf("previous generation unloadable after crash: cur=%+v err=%v", cur, err)
	}

	// A torn temp is not a checkpoint: restoring it must be refused with
	// ErrCorruptCheckpoint, never a panic or a silent partial load.
	if _, _, err := RestoreFile(torn, tinyConfig()); !errors.Is(err, ErrCorruptCheckpoint) {
		t.Fatalf("torn temp restore: err = %v, want ErrCorruptCheckpoint", err)
	}

	// Recovery: the restored detector's next write commits a fresh
	// generation over the old path despite the leftover temp litter.
	restored.Consume(tinyInput(restored.cfg, 1, "10.0.0.3", "www.gamma.org", "198.51.100.3"))
	if err := restored.WriteCheckpoint(path, Cursor{Day: 1, FeedBytes: 30}); err != nil {
		t.Fatal(err)
	}
	if _, cur, err := RestoreFile(path, tinyConfig()); err != nil || cur.Day != 1 {
		t.Fatalf("post-crash commit unloadable: cur=%+v err=%v", cur, err)
	}
}
