package shard

import (
	"bytes"
	"encoding/gob"
	"fmt"
	"strings"
	"testing"
	"time"

	"repro/internal/dnssim"
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

// poolConfig is the base test configuration.
func poolConfig(s *dnssim.Scenario, shards int) Config {
	return Config{Shards: shards, Start: s.Config.Start, DHCP: s.DHCP()}
}

// runPool feeds the grouped events through a pool, closing each day
// boundary, and returns the merged per-day processors.
func runPool(t testing.TB, cfg Config, days [][]pipeline.Input) map[int]*pipeline.Processor {
	t.Helper()
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
		if err != nil || deg != nil {
			t.Fatalf("CloseDay(%d): err=%v deg=%v", day, err, deg)
		}
		if m != nil {
			merged[day] = m
		}
	}
	return merged
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

func TestShardedMatchesSerialForAnyShardCount(t *testing.T) {
	s := tinyScenario(21)
	days := eventsByDay(s)
	want := serialDays(s, days)
	for _, n := range []int{1, 2, 3, 5, 8} {
		t.Run(fmt.Sprintf("shards=%d", n), func(t *testing.T) {
			assertDaysEqual(t, runPool(t, poolConfig(s, n), days), want)
		})
	}
}

func TestCloseDayOrdering(t *testing.T) {
	s := tinyScenario(3)
	days := eventsByDay(s)
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
	// A late observation for the closed day is dropped, not carried into
	// the next boundary.
	for _, in := range days[0] {
		pool.Consume(in)
	}
	if m, _, err := pool.CloseDay(1); err != nil || m != nil {
		t.Errorf("CloseDay(1) after only day-0 traffic = %v, %v; want no aggregate", m, err)
	}
	if err := pool.Close(); err != nil {
		t.Fatal(err)
	}
	if _, _, err := pool.CloseDay(2); err == nil {
		t.Error("CloseDay on a closed pool accepted")
	}
}

// poisonedHook panics on the first input shard bad sees. It is a named
// function so the test can look for its frame in the reported stack.
func poisonedHook(bad int) func(int, pipeline.Input) {
	return func(shard int, _ pipeline.Input) {
		if shard == bad {
			panic("poisoned input")
		}
	}
}

// TestWorkerPanicFailsTheDayAndNeverBlocks: the pool recovers from
// nothing, so a worker failure has to be loud (the next CloseDay names
// the shard and shows where it panicked) and harmless to the caller
// (Consume keeps returning however much is pushed at the dead shard,
// Close returns). Run under -race.
func TestWorkerPanicFailsTheDayAndNeverBlocks(t *testing.T) {
	s := tinyScenario(31)
	days := eventsByDay(s)
	cfg := poolConfig(s, 3)

	probe, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	bad := probe.route(days[0][0])
	probe.Close()

	cfg.consumeHook = poisonedHook(bad)
	pool, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	pool.Consume(days[0][0])
	_, _, err = pool.CloseDay(0)
	if err == nil {
		t.Fatal("CloseDay succeeded over a panicked worker")
	}
	for _, want := range []string{fmt.Sprintf("shard %d", bad), "poisoned input", "poisonedHook"} {
		if !strings.Contains(err.Error(), want) {
			t.Errorf("CloseDay error does not mention %q:\n%v", want, err)
		}
	}
	// Ten times what the dead shard's channel can hold, all routed to it.
	for i := 0; i < 10*queueDepth*batchSize; i++ {
		pool.Consume(days[0][0])
	}
	if _, _, again := pool.CloseDay(0); again == nil || again.Error() != err.Error() {
		t.Errorf("second CloseDay = %v, want the same worker error", again)
	}
	if err := pool.Close(); err != nil {
		t.Fatal(err)
	}

	cfg.consumeHook = nil
	assertDaysEqual(t, runPool(t, cfg, days), serialDays(s, days))
}
