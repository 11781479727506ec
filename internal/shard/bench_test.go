package shard

import (
	"fmt"
	"sync"
	"testing"

	"repro/internal/dnssim"
	"repro/internal/pipeline"
)

// The scaling-curve workload: a 10× campus trace (ten times the small
// scenario's hosts and benign catalog), generated once and shared by
// every shard count so the curve measures the pool, not the generator.
var benchTrace struct {
	once sync.Once
	s    *dnssim.Scenario
	days [][]pipeline.Input
	n    int
}

func benchEvents(b *testing.B) (*dnssim.Scenario, [][]pipeline.Input, int) {
	benchTrace.once.Do(func() {
		cfg := dnssim.SmallScenario(17)
		cfg.Hosts *= 10
		cfg.BenignDomains *= 10
		benchTrace.s = dnssim.NewScenario(cfg)
		benchTrace.days = eventsByDay(benchTrace.s)
		for _, ins := range benchTrace.days {
			benchTrace.n += len(ins)
		}
	})
	return benchTrace.s, benchTrace.days, benchTrace.n
}

// BenchmarkShardIngest measures end-to-end sharded aggregation on the
// 10× trace: route + consume every observation, then close every day
// boundary (handoff barrier + shard merge). events/sec is the headline
// scaling figure; one iteration processes the whole trace.
func BenchmarkShardIngest(b *testing.B) {
	for _, n := range []int{1, 2, 4, 8} {
		b.Run(fmt.Sprintf("shards=%d", n), func(b *testing.B) {
			s, days, events := benchEvents(b)
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				pool, err := New(Config{Shards: n, Start: s.Config.Start, DHCP: s.DHCP()})
				if err != nil {
					b.Fatal(err)
				}
				for day, ins := range days {
					for _, in := range ins {
						pool.Consume(in)
					}
					if _, deg, err := pool.CloseDay(day); err != nil || deg != nil {
						b.Fatalf("CloseDay(%d): err=%v deg=%v", day, err, deg)
					}
				}
				pool.Close()
			}
			b.StopTimer()
			b.ReportMetric(float64(events*b.N)/b.Elapsed().Seconds(), "events/sec")
		})
	}
}
