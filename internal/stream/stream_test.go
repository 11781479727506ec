package stream

import (
	"bytes"
	"reflect"
	"sort"
	"testing"
	"time"

	"repro/internal/core"
	"repro/internal/dnssim"
	"repro/internal/pipeline"
	"repro/internal/race"
	"repro/internal/threatintel"
)

func rollingFixture(t testing.TB) (*Rolling, *dnssim.Scenario, *threatintel.Service) {
	t.Helper()
	cfg := dnssim.SmallScenario(555)
	cfg.Hosts = 100
	cfg.BenignDomains = 300
	s := dnssim.NewScenario(cfg)
	ti := threatintel.NewService(s.TruthTable(), threatintel.Config{Seed: 555})

	// Threat intel lags reality: the labeler only knows about half of the
	// malicious population, so the rest are genuine discoveries for the
	// alert feed.
	known := make(map[string]bool)
	i := 0
	for _, d := range s.MaliciousDomains() {
		if i%2 == 0 {
			known[d] = true
		}
		i++
	}
	r, err := New(Config{
		Start:      s.Config.Start,
		WindowDays: 2,
		Detector:   core.Config{Seed: 555, EmbedDim: 16},
		Labeler: func(candidates []string) ([]string, []int) {
			domains, labels := ti.LabeledSet(candidates)
			var outD []string
			var outL []int
			for j, d := range domains {
				if labels[j] == 1 && !known[d] {
					continue // intel hasn't caught up with this domain yet
				}
				outD = append(outD, d)
				outL = append(outL, labels[j])
			}
			return outD, outL
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	return r, s, ti
}

func TestConfigValidation(t *testing.T) {
	if _, err := New(Config{}); err == nil {
		t.Fatal("missing labeler accepted")
	}
}

// skipIfRace skips the tests that retrain a model per window day:
// instrumented full-model builds add up to some three minutes for this
// package. The concurrent components have their own fast -race package
// tests.
func skipIfRace(t *testing.T) {
	t.Helper()
	if race.Enabled {
		t.Skip("window retraining too slow under the race detector; components are race-tested per package")
	}
}

func TestRollingEmitsMostlyMaliciousAlerts(t *testing.T) {
	if testing.Short() {
		t.Skip("streaming end-to-end test")
	}
	skipIfRace(t)
	r, s, _ := rollingFixture(t)
	s.Generate(func(ev dnssim.Event) { r.Consume(pipeline.Input(ev)) })

	seen := make(map[string]bool)
	totalAlerts, truePos := 0, 0
	for day := 0; day < s.Config.Days; day++ {
		alerts, err := r.EndOfDay(day)
		if err != nil {
			t.Fatalf("day %d: %v", day, err)
		}
		for _, a := range alerts {
			if a.Day != day {
				t.Fatalf("alert day %d emitted at day %d", a.Day, day)
			}
			if seen[a.Domain] {
				t.Fatalf("domain %s alerted twice", a.Domain)
			}
			seen[a.Domain] = true
			totalAlerts++
			if l, ok := s.Truth(a.Domain); ok && l.Malicious {
				truePos++
			}
		}
	}
	if totalAlerts == 0 {
		t.Fatal("no alerts over the whole capture")
	}
	precision := float64(truePos) / float64(totalAlerts)
	t.Logf("alerts=%d precision=%.2f", totalAlerts, precision)
	if precision < 0.5 {
		t.Errorf("alert precision %.2f below 0.5", precision)
	}
}

func TestWindowEviction(t *testing.T) {
	if testing.Short() {
		t.Skip("streaming end-to-end test")
	}
	skipIfRace(t)
	r, s, _ := rollingFixture(t)
	s.Generate(func(ev dnssim.Event) { r.Consume(pipeline.Input(ev)) })
	before := r.BufferedDays()
	if _, err := r.EndOfDay(s.Config.Days - 1); err != nil {
		t.Fatal(err)
	}
	after := r.BufferedDays()
	if after >= before {
		t.Errorf("no eviction: %d buckets before, %d after", before, after)
	}
	if after > 2 {
		t.Errorf("window keeps %d day buckets, window is 2", after)
	}
}

func TestEmptyWindowErrors(t *testing.T) {
	r, _, _ := rollingFixture(t)
	if _, err := r.EndOfDay(0); err == nil {
		t.Fatal("empty window accepted")
	}
}

func TestConsumeClampsNegativeDays(t *testing.T) {
	r, s, _ := rollingFixture(t)
	r.Consume(pipeline.Input{
		Time:     s.Config.Start.Add(-48 * time.Hour),
		ClientIP: "10.0.0.1",
		QName:    "www.early.com",
	})
	if r.BufferedDays() != 1 {
		t.Fatalf("pre-window observation not clamped into day 0")
	}
	// The clamp must land the observation in day 0's aggregates, not a
	// negative bucket.
	if p := r.days[0]; p == nil || p.TotalQueries() != 1 {
		t.Fatalf("day-0 processor missing the clamped observation: %+v", r.days)
	}
}

// TestWarmStartStateCarries checks the remodel-to-remodel handoff: after
// a successful EndOfDay the previous window's embeddings are retained
// for seeding the next one, and subsequent remodels still succeed.
func TestWarmStartStateCarries(t *testing.T) {
	if testing.Short() {
		t.Skip("streaming end-to-end test")
	}
	skipIfRace(t)
	r, s, _ := rollingFixture(t)
	s.Generate(func(ev dnssim.Event) { r.Consume(pipeline.Input(ev)) })

	if r.prevEmb != nil {
		t.Fatal("warm-start state set before any remodel")
	}
	if _, err := r.EndOfDay(1); err != nil {
		t.Fatal(err)
	}
	if len(r.prevEmb) != 3 || len(r.prevIndex) == 0 {
		t.Fatalf("warm-start state not recorded: %d embeddings, %d domains",
			len(r.prevEmb), len(r.prevIndex))
	}
	dim := r.cfg.Detector.EmbedDim
	for v, emb := range r.prevEmb {
		if emb.Dim != dim {
			t.Errorf("%v warm-start embedding dim %d, want %d", v, emb.Dim, dim)
		}
	}
	// The init hook must produce one row per requested domain, seeded for
	// exactly the persisting ones.
	var domains []string
	for d := range r.prevIndex {
		domains = append(domains, d)
	}
	sort.Strings(domains)
	domains = append(domains, "brand-new.example")
	for v := range r.prevEmb {
		init := r.embedInit(v, domains)
		if len(init) != len(domains) {
			t.Fatalf("init rows %d, want %d", len(init), len(domains))
		}
		if init[len(init)-1] != nil {
			t.Error("new domain got a warm-start row")
		}
		if init[0] == nil {
			t.Error("persisting domain missing its warm-start row")
		}
	}
	// The second remodel consumes the warm state and records fresh state.
	if _, err := r.EndOfDay(2); err != nil {
		t.Fatal(err)
	}
	if len(r.prevEmb) != 3 {
		t.Fatal("warm-start state lost after second remodel")
	}
}

// shardedFixture builds a Rolling over a deterministic model config
// (fixed seed, single worker) so two instances fed the same traffic
// must produce byte-identical alert feeds and checkpoints regardless
// of shard count.
func shardedFixture(t testing.TB, shards int) (*Rolling, *dnssim.Scenario) {
	t.Helper()
	cfg := dnssim.SmallScenario(777)
	cfg.Hosts = 80
	cfg.BenignDomains = 200
	s := dnssim.NewScenario(cfg)
	ti := threatintel.NewService(s.TruthTable(), threatintel.Config{Seed: 777})
	r, err := New(Config{
		Start:      s.Config.Start,
		WindowDays: 2,
		Shards:     shards,
		Detector: core.Config{
			Seed:         777,
			EmbedDim:     8,
			EmbedSamples: 20_000,
			Workers:      1,
			DHCP:         s.DHCP(),
		},
		Labeler: ti.LabeledSet,
	})
	if err != nil {
		t.Fatal(err)
	}
	return r, s
}

// TestShardedStreamMatchesSerial is the integration half of the shard
// determinism guarantee: the same capture driven through a serial
// Rolling and a sharded one must yield the same alert feed, the same
// checkpoint bytes, and no degradation report.
func TestShardedStreamMatchesSerial(t *testing.T) {
	if testing.Short() {
		t.Skip("streaming end-to-end test")
	}
	skipIfRace(t)
	run := func(shards int) ([][]Alert, []byte) {
		r, s := shardedFixture(t, shards)
		defer r.Close()
		s.Generate(func(ev dnssim.Event) { r.Consume(pipeline.Input(ev)) })
		var feed [][]Alert
		for day := 0; day < s.Config.Days; day++ {
			alerts, err := r.EndOfDay(day)
			if err != nil {
				t.Fatalf("shards=%d day %d: %v", shards, day, err)
			}
			feed = append(feed, alerts)
		}
		var buf bytes.Buffer
		if err := r.Checkpoint(&buf, Cursor{Day: s.Config.Days - 1}); err != nil {
			t.Fatalf("shards=%d checkpoint: %v", shards, err)
		}
		return feed, buf.Bytes()
	}

	serialFeed, serialCkpt := run(1)
	shardedFeed, shardedCkpt := run(3)
	if !reflect.DeepEqual(serialFeed, shardedFeed) {
		t.Errorf("alert feeds differ:\nserial:  %+v\nsharded: %+v", serialFeed, shardedFeed)
	}
	if !bytes.Equal(serialCkpt, shardedCkpt) {
		t.Error("checkpoint bytes differ between serial and sharded runs")
	}
	var total int
	for _, alerts := range serialFeed {
		total += len(alerts)
	}
	if total == 0 {
		t.Fatal("no alerts over the whole capture; equivalence is vacuous")
	}
}
