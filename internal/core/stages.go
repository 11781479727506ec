package core

// The Figure-2 build is decomposed into explicit named stages — graph
// construction, one one-mode projection per view, one embedding per
// view — executed by a small runner that threads a buildArtifacts struct
// from stage to stage and records a BuildReport. The decomposition is
// what the streaming mode's warm-start remodels and the model
// persistence layer hang off: stages expose their intermediate products
// (graphs, projections, embeddings) and their costs instead of hiding
// them inside one monolithic BuildModel body. The embedding stages call
// whichever Embedder backend Config.Embedder selects from the registry.

import (
	"fmt"
	"time"

	"repro/internal/bipartite"
	"repro/internal/graph"
	"repro/internal/obsv"
)

// StageReport records one build stage's cost and output size. Zero
// counts mean the dimension does not apply to the stage.
type StageReport struct {
	// Name identifies the stage: "graphs", "project:<view>", or
	// "embed:<view>".
	Name string
	// Duration is the stage's wall-clock time.
	Duration time.Duration
	// Vertices is the domain vertex count the stage operated on.
	Vertices int
	// Edges is the stage's output edge count (bipartite edges for
	// "graphs", similarity edges for projection and embedding stages).
	Edges int
	// Samples is the number of SGD samples an embedding stage performed.
	Samples int
}

// BuildReport summarizes a full BuildModel run stage by stage.
type BuildReport struct {
	// Stages lists the per-stage reports in execution order.
	Stages []StageReport
	// Total is the end-to-end wall-clock time of BuildModel.
	Total time.Duration
}

// Stage returns the report for the named stage, if present.
func (r BuildReport) Stage(name string) (StageReport, bool) {
	for _, s := range r.Stages {
		if s.Name == name {
			return s, true
		}
	}
	return StageReport{}, false
}

// buildArtifacts is the state threaded through the build stages; each
// stage fills the fields the next stages consume. After the last stage
// the runner installs the artifacts on the Detector.
type buildArtifacts struct {
	graphs      map[bipartite.View]*bipartite.Graph
	domains     []string
	index       map[string]int
	projections map[bipartite.View]*bipartite.Projection
	embeddings  map[bipartite.View]*Embedding
	// embedder is the backend resolved once by runBuild, shared by the
	// per-view embedding stages.
	embedder Embedder
}

// buildStage is one named step of the staged build.
type buildStage struct {
	name string
	run  func(d *Detector, a *buildArtifacts, rep *StageReport) error
}

// buildStages returns the stage sequence of the paper's Figure-2 model
// build: bipartite graph construction, then per view a one-mode
// projection followed by a LINE embedding.
func (d *Detector) buildStages() []buildStage {
	stages := []buildStage{{name: "graphs", run: stageGraphs}}
	for _, view := range bipartite.Views {
		stages = append(stages, buildStage{
			name: "project:" + view.String(),
			run:  stageProject(view),
		})
	}
	for _, view := range bipartite.Views {
		stages = append(stages, buildStage{
			name: "embed:" + view.String(),
			run:  stageEmbed(view),
		})
	}
	return stages
}

// runBuild executes the stages in order, timing each, and returns the
// artifacts and report. It does not mutate the Detector. When
// Config.Metrics is set, every stage's wall time is also observed into
// the shared obsv registry under the same vocabulary the serving
// daemon exposes.
func (d *Detector) runBuild(stages []buildStage) (*buildArtifacts, BuildReport, error) {
	embedder, err := newEmbedder(d.cfg)
	if err != nil {
		return nil, BuildReport{}, err
	}
	a := &buildArtifacts{
		projections: make(map[bipartite.View]*bipartite.Projection, len(bipartite.Views)),
		embeddings:  make(map[bipartite.View]*Embedding, len(bipartite.Views)),
		embedder:    embedder,
	}
	var stageSeconds *obsv.HistogramVec
	if reg := d.cfg.Metrics; reg != nil {
		stageSeconds = reg.HistogramVec("maldomain_build_stage_seconds",
			"Wall time of one model-build stage.", "stage")
	}
	var report BuildReport
	start := time.Now() //maldlint:ignore detpath stage timing is observability only, never model state
	for _, st := range stages {
		rep := StageReport{Name: st.name}
		s0 := time.Now() //maldlint:ignore detpath stage timing is observability only, never model state
		if err := st.run(d, a, &rep); err != nil {
			return nil, BuildReport{}, err
		}
		rep.Duration = time.Since(s0)
		report.Stages = append(report.Stages, rep)
		if stageSeconds != nil {
			stageSeconds.With(st.name).Observe(rep.Duration.Seconds())
		}
	}
	report.Total = time.Since(start)
	if reg := d.cfg.Metrics; reg != nil {
		reg.Histogram("maldomain_build_seconds",
			"End-to-end wall time of BuildModel.").Observe(report.Total.Seconds())
		reg.Counter("maldomain_builds_total",
			"Completed model builds.").Inc()
		reg.Gauge("maldomain_build_retained_domains",
			"Retained domain vertex count of the last completed build.").Set(float64(len(a.domains)))
	}
	return a, report, nil
}

// stageGraphs builds the three bipartite graphs over the shared pruned
// domain vertex set (§4.1).
func stageGraphs(d *Detector, a *buildArtifacts, rep *StageReport) error {
	q, ip, tg := bipartite.Build(d.proc.Stats(), d.proc.DeviceCount(), d.cfg.Prune)
	if len(q.Domains) == 0 {
		return ErrNoDomains
	}
	a.graphs = map[bipartite.View]*bipartite.Graph{
		bipartite.ViewQuery: q,
		bipartite.ViewIP:    ip,
		bipartite.ViewTime:  tg,
	}
	a.domains = q.Domains
	a.index = q.DomainIndex()
	rep.Vertices = len(a.domains)
	rep.Edges = q.EdgeCount + ip.EdgeCount + tg.EdgeCount
	return nil
}

// stageProject computes one view's one-mode projection (§4.2).
func stageProject(view bipartite.View) func(*Detector, *buildArtifacts, *StageReport) error {
	return func(d *Detector, a *buildArtifacts, rep *StageReport) error {
		minSim := d.cfg.MinSimilarity
		if view == bipartite.ViewTime && d.cfg.TimeMinSimilarity > 0 {
			minSim = d.cfg.TimeMinSimilarity
		}
		proj := bipartite.Project(a.graphs[view], bipartite.ProjectConfig{
			MinSimilarity: minSim,
			MaxAttrDegree: d.cfg.MaxAttrDegree,
			Workers:       d.cfg.Workers,
		})
		a.projections[view] = proj
		rep.Vertices = len(a.domains)
		rep.Edges = len(proj.Edges)
		return nil
	}
}

// stageEmbed trains one view's embedding (§5) through the configured
// Embedder backend, warm-started from Config.EmbedInit when the hook
// supplies vectors.
func stageEmbed(view bipartite.View) func(*Detector, *buildArtifacts, *StageReport) error {
	return func(d *Detector, a *buildArtifacts, rep *StageReport) error {
		proj := a.projections[view]
		edges := make([]graph.Edge, len(proj.Edges))
		for i, e := range proj.Edges {
			edges[i] = graph.Edge{U: e.U, V: e.V, W: e.W}
		}
		g, err := graph.Build(len(a.domains), edges)
		if err != nil {
			return fmt.Errorf("core: building %v similarity graph: %w", view, err)
		}
		var init [][]float64
		if d.cfg.EmbedInit != nil {
			init = d.cfg.EmbedInit(view, a.domains)
		}
		emb, err := a.embedder.Train(g, EmbedSpec{
			Dim:     d.cfg.EmbedDim,
			Samples: d.cfg.EmbedSamples,
			Seed:    d.cfg.Seed ^ uint64(view)*0x9e3779b97f4a7c15,
			Init:    init,
		})
		if err != nil {
			return fmt.Errorf("core: embedding %v view with %s: %w", view, a.embedder.Name(), err)
		}
		a.embeddings[view] = emb
		rep.Vertices = len(a.domains)
		rep.Edges = len(proj.Edges)
		rep.Samples = emb.Samples
		return nil
	}
}
