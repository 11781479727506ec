package stream

import (
	"testing"

	"repro/internal/dnssim"
	"repro/internal/pipeline"
)

// The remodel benchmarks measure the value of warm-starting LINE from
// the previous window: cold resets the carried embeddings before every
// rebuild, warm restores the state a real deployment would have after
// the preceding day's remodel. Both model the same final window, so the
// difference is purely the embedding sample budget and convergence.

func benchConsumed(b *testing.B) (*Rolling, int) {
	b.Helper()
	r, s, _ := rollingFixture(b)
	s.Generate(func(ev dnssim.Event) { r.Consume(pipeline.Input(ev)) })
	return r, s.Config.Days - 1
}

func BenchmarkRemodelCold(b *testing.B) {
	r, day := benchConsumed(b)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		r.prevIndex, r.prevEmb = nil, nil
		if _, err := r.remodel(day); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkRemodelWarm(b *testing.B) {
	r, day := benchConsumed(b)
	// Populate the warm-start state the way a deployment would: from the
	// remodel of the preceding day's window.
	if _, err := r.remodel(day - 1); err != nil {
		b.Fatal(err)
	}
	warmIdx, warmEmb := r.prevIndex, r.prevEmb
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		r.prevIndex, r.prevEmb = warmIdx, warmEmb
		if _, err := r.remodel(day); err != nil {
			b.Fatal(err)
		}
	}
}
