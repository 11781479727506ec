package core

// Built-in embedding backends: the paper's LINE trainer (the default)
// and the MF-DNS-E matrix-factorization alternative. Both adapt their
// package's native config to the registry's EmbedSpec; backend-only
// knobs (LINE's proximity order) come from the Config the factory
// captured.

import (
	"repro/internal/graph"
	"repro/internal/line"
	"repro/internal/mfembed"
)

func init() {
	RegisterEmbedder(DefaultEmbedder, func(cfg Config) Embedder {
		return lineEmbedder{order: cfg.EmbedOrder}
	})
	RegisterEmbedder("mf", func(cfg Config) Embedder {
		return mfEmbedder{}
	})
}

// lineEmbedder adapts line.Train. It passes the spec through exactly
// as the pre-registry stage runner did, so the default build is
// byte-identical to the direct call.
type lineEmbedder struct {
	order line.Order
}

func (lineEmbedder) Name() string { return DefaultEmbedder }

func (e lineEmbedder) Train(g *graph.Weighted, spec EmbedSpec) (*Embedding, error) {
	emb, err := line.Train(g, line.Config{
		Dim:     spec.Dim,
		Order:   e.order,
		Samples: spec.Samples,
		Seed:    spec.Seed,
		Init:    spec.Init,
	})
	if err != nil {
		return nil, err
	}
	return &Embedding{Dim: emb.Dim, Vectors: emb.Vectors, Samples: emb.Samples}, nil
}

// mfEmbedder adapts mfembed.Train.
type mfEmbedder struct{}

func (mfEmbedder) Name() string { return "mf" }

func (mfEmbedder) Train(g *graph.Weighted, spec EmbedSpec) (*Embedding, error) {
	emb, err := mfembed.Train(g, mfembed.Config{
		Dim:     spec.Dim,
		Samples: spec.Samples,
		Seed:    spec.Seed,
		Init:    spec.Init,
	})
	if err != nil {
		return nil, err
	}
	return &Embedding{Dim: emb.Dim, Vectors: emb.Vectors, Samples: emb.Samples}, nil
}
