package shard

import (
	"bytes"
	"crypto/sha256"
	"encoding/gob"
	"errors"
	"fmt"
	"os"
	"sort"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/dnssim"
	"repro/internal/faultio"
	"repro/internal/obsv"
	"repro/internal/pipeline"
)

// tinyScenario is a scaled-down campus capture: big enough that every
// shard of a small pool sees traffic, small enough to rerun dozens of
// times under the race detector.
func tinyScenario(seed uint64) *dnssim.Scenario {
	cfg := dnssim.SmallScenario(seed)
	cfg.Hosts = 60
	cfg.BenignDomains = 150
	return dnssim.NewScenario(cfg)
}

// eventsByDay collects a scenario's events grouped by day index, each
// day in generation order.
func eventsByDay(s *dnssim.Scenario) [][]pipeline.Input {
	out := make([][]pipeline.Input, s.Config.Days)
	s.Generate(func(ev dnssim.Event) {
		in := pipeline.Input(ev)
		day := int(in.Time.Sub(s.Config.Start) / (24 * time.Hour))
		if day < 0 {
			day = 0
		}
		if day >= len(out) {
			day = len(out) - 1
		}
		out[day] = append(out[day], in)
	})
	return out
}

// serialDays builds the serial streaming mode's per-day processors: the
// reference every sharded run must be byte-identical to.
func serialDays(s *dnssim.Scenario, days [][]pipeline.Input) map[int]*pipeline.Processor {
	procs := make(map[int]*pipeline.Processor)
	for day, ins := range days {
		for _, in := range ins {
			p := procs[day]
			if p == nil {
				p = pipeline.NewProcessor(pipeline.Config{
					Start: s.Config.Start,
					Days:  day + 1,
					DHCP:  s.DHCP(),
				})
				procs[day] = p
			}
			p.Consume(in)
		}
	}
	return procs
}

// snapBytes serializes a processor's snapshot; identical aggregates
// yield identical bytes (snapshot slices are sorted).
func snapBytes(t testing.TB, p *pipeline.Processor) []byte {
	t.Helper()
	var buf bytes.Buffer
	if err := gob.NewEncoder(&buf).Encode(p.Snapshot()); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

// poolConfig is the base test configuration: tight deadline, no real
// sleeping between restart attempts.
func poolConfig(s *dnssim.Scenario, shards int) Config {
	return Config{
		Shards:   shards,
		Start:    s.Config.Start,
		DHCP:     s.DHCP(),
		Deadline: 2 * time.Second,
		Backoff:  time.Millisecond,
		Seed:     7,
		sleep:    func(time.Duration) {},
	}
}

// runPool feeds the grouped events through a pool, closing each day
// boundary, and returns the merged per-day processors and the last
// non-nil Degraded report.
func runPool(t testing.TB, cfg Config, days [][]pipeline.Input) (map[int]*pipeline.Processor, *Degraded) {
	t.Helper()
	pool, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	defer pool.Close()
	merged := make(map[int]*pipeline.Processor)
	var lastDeg *Degraded
	for day, ins := range days {
		for _, in := range ins {
			pool.Consume(in)
		}
		m, deg, err := pool.CloseDay(day)
		if err != nil {
			t.Fatalf("CloseDay(%d): %v", day, err)
		}
		if m != nil {
			merged[day] = m
		}
		if deg != nil {
			lastDeg = deg
		}
	}
	return merged, lastDeg
}

// assertDaysEqual compares merged shard aggregates to the serial
// reference, byte for byte.
func assertDaysEqual(t *testing.T, got, want map[int]*pipeline.Processor) {
	t.Helper()
	for day, wp := range want {
		gp := got[day]
		if gp == nil {
			t.Fatalf("day %d: sharded run produced no aggregate", day)
		}
		if !bytes.Equal(snapBytes(t, gp), snapBytes(t, wp)) {
			t.Errorf("day %d: merged shard aggregate differs from serial", day)
		}
	}
	for day := range got {
		if want[day] == nil {
			t.Errorf("day %d: sharded run produced an aggregate the serial run did not", day)
		}
	}
}

func TestConfigValidation(t *testing.T) {
	if _, err := New(Config{Shards: 0, Start: time.Unix(0, 1)}); err == nil {
		t.Error("Shards=0 accepted")
	}
	if _, err := New(Config{Shards: 2}); err == nil {
		t.Error("zero Start accepted")
	}
}

func TestRouteIsDeterministicAndCovers(t *testing.T) {
	s := tinyScenario(11)
	days := eventsByDay(s)
	cfg := poolConfig(s, 4)
	a, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	defer a.Close()
	b, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	defer b.Close()
	hits := make([]int, 4)
	for _, ins := range days {
		for _, in := range ins {
			ra, rb := a.route(in), b.route(in)
			if ra != rb {
				t.Fatalf("route(%q) unstable: %d vs %d", in.QName, ra, rb)
			}
			hits[ra]++
		}
	}
	for i, n := range hits {
		if n == 0 {
			t.Errorf("shard %d received no traffic; routing is not spreading", i)
		}
	}
}

func TestShardedMatchesSerialForAnyShardCountAndBatchSize(t *testing.T) {
	s := tinyScenario(21)
	days := eventsByDay(s)
	want := serialDays(s, days)
	for _, n := range []int{1, 2, 3, 4, 8} {
		for _, batch := range []int{1, 7, 256} {
			t.Run(fmt.Sprintf("shards=%d/batch=%d", n, batch), func(t *testing.T) {
				cfg := poolConfig(s, n)
				cfg.BatchSize = batch
				got, deg := runPool(t, cfg, days)
				if deg != nil {
					t.Fatalf("unexpected degradation: %v", deg)
				}
				assertDaysEqual(t, got, want)
			})
		}
	}
}

func TestCloseDayOrdering(t *testing.T) {
	s := tinyScenario(3)
	pool, err := New(poolConfig(s, 2))
	if err != nil {
		t.Fatal(err)
	}
	defer pool.Close()
	if _, _, err := pool.CloseDay(0); err != nil {
		t.Fatal(err)
	}
	if _, _, err := pool.CloseDay(0); err == nil {
		t.Error("re-closing day 0 accepted")
	}
	if got := pool.ClosedThrough(); got != 0 {
		t.Errorf("ClosedThrough = %d, want 0", got)
	}
	if err := pool.Close(); err != nil {
		t.Fatal(err)
	}
	if _, _, err := pool.CloseDay(1); err == nil {
		t.Error("CloseDay on a closed pool accepted")
	}
}

func TestWorkerPanicIsRetriedWithJitteredBackoff(t *testing.T) {
	s := tinyScenario(31)
	days := eventsByDay(s)
	want := serialDays(s, days)

	var tripped atomic.Bool
	var sleeps []time.Duration
	cfg := poolConfig(s, 3)
	cfg.Backoff = 10 * time.Millisecond
	cfg.MaxBackoff = 80 * time.Millisecond
	cfg.sleep = func(d time.Duration) { sleeps = append(sleeps, d) }
	cfg.consumeHook = func(shard int, in pipeline.Input) {
		if tripped.CompareAndSwap(false, true) {
			panic("injected worker fault")
		}
	}
	reg := obsv.NewRegistry()
	cfg.Metrics = reg

	got, deg := runPool(t, cfg, days)
	if deg != nil {
		t.Fatalf("unexpected degradation: %v", deg)
	}
	assertDaysEqual(t, got, want)
	if !tripped.Load() {
		t.Fatal("injected panic never fired")
	}
	if len(sleeps) == 0 {
		t.Fatal("restart happened without backoff")
	}
	// First attempt's jittered backoff is drawn from [Backoff/2, Backoff).
	if sleeps[0] < cfg.Backoff/2 || sleeps[0] >= cfg.Backoff {
		t.Errorf("first backoff %v outside [%v, %v)", sleeps[0], cfg.Backoff/2, cfg.Backoff)
	}
	var metrics bytes.Buffer
	if err := reg.WritePrometheus(&metrics); err != nil {
		t.Fatal(err)
	}
	if !bytes.Contains(metrics.Bytes(), []byte("maldomain_shard_restarts")) {
		t.Error("restart counter not exported")
	}
}

func TestBackoffBoundsAndJitter(t *testing.T) {
	s := tinyScenario(5)
	cfg := poolConfig(s, 1)
	cfg.Backoff = 8 * time.Millisecond
	cfg.MaxBackoff = 50 * time.Millisecond
	pool, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	defer pool.Close()
	st := pool.shards[0]
	seen := make(map[time.Duration]bool)
	for attempt := 1; attempt <= 12; attempt++ {
		st.restarts = attempt
		full := cfg.Backoff << uint(attempt-1)
		if full > cfg.MaxBackoff {
			full = cfg.MaxBackoff
		}
		for i := 0; i < 8; i++ {
			d := pool.backoffFor(st)
			if d < full/2 || d >= full {
				t.Fatalf("attempt %d: backoff %v outside [%v, %v)", attempt, d, full/2, full)
			}
			seen[d] = true
		}
	}
	if len(seen) < 10 {
		t.Errorf("backoff draws look unjittered: only %d distinct values", len(seen))
	}
}

func TestHungWorkerIsDetectedAndReplaced(t *testing.T) {
	s := tinyScenario(41)
	days := eventsByDay(s)
	want := serialDays(s, days)

	release := make(chan struct{})
	defer close(release)
	var hung atomic.Bool
	cfg := poolConfig(s, 3)
	cfg.Deadline = 50 * time.Millisecond
	cfg.consumeHook = func(shard int, in pipeline.Input) {
		if hung.CompareAndSwap(false, true) {
			<-release
		}
	}
	got, deg := runPool(t, cfg, days)
	if deg != nil {
		t.Fatalf("unexpected degradation: %v", deg)
	}
	if !hung.Load() {
		t.Fatal("injected hang never fired")
	}
	assertDaysEqual(t, got, want)
}

func TestQuarantineProducesExactDegradedReport(t *testing.T) {
	s := tinyScenario(51)
	days := eventsByDay(s)

	cfg := poolConfig(s, 4)
	cfg.MaxRetries = 2
	// Pick the shard of the very first event and poison all its inputs.
	probe, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	bad := probe.route(days[0][0])
	probe.Close()
	cfg.consumeHook = func(shard int, in pipeline.Input) {
		if shard == bad {
			panic("poisoned shard")
		}
	}
	reg := obsv.NewRegistry()
	cfg.Metrics = reg

	pool, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	defer pool.Close()

	// The healthy-shard reference: the serial build over every event
	// NOT routed to the poisoned shard.
	routed := 0
	var healthy [][]pipeline.Input
	for _, ins := range days {
		var keep []pipeline.Input
		for _, in := range ins {
			if pool.route(in) == bad {
				routed++
			} else {
				keep = append(keep, in)
			}
		}
		healthy = append(healthy, keep)
	}
	want := serialDays(s, healthy)

	merged := make(map[int]*pipeline.Processor)
	var deg *Degraded
	for day, ins := range days {
		for _, in := range ins {
			pool.Consume(in)
		}
		m, d, err := pool.CloseDay(day)
		if err != nil {
			t.Fatalf("CloseDay(%d): %v", day, err)
		}
		if m != nil {
			merged[day] = m
		}
		deg = d
	}
	if deg == nil {
		t.Fatal("no Degraded report despite a poisoned shard")
	}
	if len(deg.Missing) != 1 || deg.Missing[0] != bad {
		t.Fatalf("Degraded.Missing = %v, want [%d]", deg.Missing, bad)
	}
	if deg.Dropped != routed {
		t.Errorf("Degraded.Dropped = %d, want %d (all inputs routed to shard %d)", deg.Dropped, routed, bad)
	}
	if len(deg.Errors) != 1 {
		t.Fatalf("Degraded.Errors has %d entries, want 1", len(deg.Errors))
	}
	var se *ShardError
	if !errors.As(deg.Errors[0], &se) || se.Shard != bad {
		t.Fatalf("quarantine error %v does not identify shard %d", deg.Errors[0], bad)
	}
	if se.Attempts != cfg.MaxRetries {
		t.Errorf("ShardError.Attempts = %d, want %d", se.Attempts, cfg.MaxRetries)
	}
	if got := pool.Quarantined(); len(got) != 1 || got[0] != bad {
		t.Errorf("Quarantined() = %v, want [%d]", got, bad)
	}
	assertDaysEqual(t, merged, want)

	var metrics bytes.Buffer
	if err := reg.WritePrometheus(&metrics); err != nil {
		t.Fatal(err)
	}
	if !bytes.Contains(metrics.Bytes(), []byte("maldomain_shard_quarantined 1")) {
		t.Error("quarantined gauge not exported as 1")
	}
}

// shard0CkptSHA256 is the SHA-256 of shard 0's checkpoint file after day
// 0's close in TestRestartFromCheckpointReplaysExactlyOnce, recorded at
// the commit before the sealed-file layer (PR 16) took over framing.
const shard0CkptSHA256 = "2cedfc07ec9276ccdb801092bedfb3de043e3c313b3ec1cd13f66e0bb9390361"

func TestRestartFromCheckpointReplaysExactlyOnce(t *testing.T) {
	s := tinyScenario(61)
	days := eventsByDay(s)
	want := serialDays(s, days)

	dir := t.TempDir()
	var tripped atomic.Bool
	trigger := days[1][len(days[1])/2]
	cfg := poolConfig(s, 3)
	cfg.Dir = dir
	cfg.consumeHook = func(shard int, in pipeline.Input) {
		// Crash a worker mid-day-1, after day 0's close wrote the
		// shard checkpoints: recovery must restore the checkpoint and
		// replay only the post-checkpoint suffix.
		if in.Time.Equal(trigger.Time) && in.QName == trigger.QName &&
			tripped.CompareAndSwap(false, true) {
			panic("mid-day crash")
		}
	}
	pool, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	defer pool.Close()

	merged := make(map[int]*pipeline.Processor)
	for day, ins := range days {
		for _, in := range ins {
			pool.Consume(in)
		}
		m, deg, err := pool.CloseDay(day)
		if err != nil {
			t.Fatalf("CloseDay(%d): %v", day, err)
		}
		if deg != nil {
			t.Fatalf("unexpected degradation: %v", deg)
		}
		if m != nil {
			merged[day] = m
		}
		if day == 0 {
			// Day 0's close must have made every shard durable: files
			// on disk, replay buffers trimmed to the checkpoint cursor.
			for i, st := range pool.shards {
				if _, err := os.Stat(pool.ckptPath(i)); err != nil {
					t.Fatalf("shard %d checkpoint missing after day 0: %v", i, err)
				}
				if st.ckptSeq == 0 {
					t.Fatalf("shard %d has no durable cursor after day 0", i)
				}
				if len(st.buf) != 0 {
					t.Fatalf("shard %d replay buffer holds %d entries after checkpoint", i, len(st.buf))
				}
			}
			b, err := os.ReadFile(pool.ckptPath(0))
			if got := fmt.Sprintf("%x", sha256.Sum256(b)); err != nil || got != shard0CkptSHA256 {
				t.Fatalf("shard checkpoint bytes changed: sha256 %s (len %d, err %v), want %s", got, len(b), err, shard0CkptSHA256)
			}
		}
	}
	if !tripped.Load() {
		t.Fatal("injected crash never fired")
	}
	assertDaysEqual(t, merged, want)
}

func TestCheckpointWriteFaultFallsBackToReplay(t *testing.T) {
	s := tinyScenario(71)
	days := eventsByDay(s)
	want := serialDays(s, days)

	var tripped atomic.Bool
	trigger := days[1][len(days[1])/2]
	cfg := poolConfig(s, 2)
	cfg.Dir = t.TempDir()
	// Every checkpoint commit fails at the rename step: the pool must
	// keep its replay buffers and recover purely from replay.
	cfg.FS = &faultio.Faults{FailRename: true}
	cfg.consumeHook = func(shard int, in pipeline.Input) {
		if in.Time.Equal(trigger.Time) && in.QName == trigger.QName &&
			tripped.CompareAndSwap(false, true) {
			panic("crash with no durable checkpoint")
		}
	}
	got, deg := runPool(t, cfg, days)
	if deg != nil {
		t.Fatalf("unexpected degradation: %v", deg)
	}
	if !tripped.Load() {
		t.Fatal("injected crash never fired")
	}
	assertDaysEqual(t, got, want)
}

func TestCorruptShardCheckpointQuarantines(t *testing.T) {
	s := tinyScenario(81)
	days := eventsByDay(s)

	cfg := poolConfig(s, 2)
	cfg.Dir = t.TempDir()
	cfg.MaxRetries = 2
	var armed, once atomic.Bool
	cfg.consumeHook = func(shard int, in pipeline.Input) {
		if armed.Load() && shard == 0 && once.CompareAndSwap(false, true) {
			panic("crash after checkpoint corruption")
		}
	}
	pool, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	defer pool.Close()
	for _, in := range days[0] {
		pool.Consume(in)
	}
	if _, _, err := pool.CloseDay(0); err != nil {
		t.Fatal(err)
	}
	// Rot every shard file on disk, then crash shard 0's worker. Its
	// replay buffer was trimmed against the now-unreadable checkpoint,
	// so the shard is unrecoverable and must be quarantined — not
	// silently rebuilt with missing history.
	for i := range pool.shards {
		if err := os.WriteFile(pool.ckptPath(i), []byte("not a checkpoint"), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	armed.Store(true)
	for _, in := range days[1] {
		pool.Consume(in)
	}
	_, deg, err := pool.CloseDay(1)
	if err != nil {
		t.Fatal(err)
	}
	if !once.Load() {
		t.Fatal("injected crash never fired")
	}
	if deg == nil || len(deg.Missing) != 1 || deg.Missing[0] != 0 {
		t.Fatalf("Degraded = %+v, want shard 0 missing", deg)
	}
	if !errors.Is(deg.Errors[0], ErrCorruptCheckpoint) {
		t.Errorf("quarantine cause %v does not unwrap to ErrCorruptCheckpoint", deg.Errors[0])
	}
}

func TestDegradedStringNamesPartitions(t *testing.T) {
	d := &Degraded{Day: 4, Missing: []int{1, 3}, Dropped: 17}
	got := d.String()
	for _, wantSub := range []string{"day 4", "[1 3]", "17"} {
		if !bytes.Contains([]byte(got), []byte(wantSub)) {
			t.Errorf("Degraded.String() = %q, missing %q", got, wantSub)
		}
	}
	sort.Ints(d.Missing) // keep the report stable for log comparison
}
