// Package stream provides the rolling deployment mode the paper's
// introduction motivates: "detecting malicious domains in real-time".
//
// The batch pipeline models a whole capture at once; a deployed system
// instead observes traffic continuously and must surface newly active
// malicious domains every day. Rolling aggregates each day's traffic
// into its own pipeline.Processor as it arrives, and at each day
// boundary merges the processors of the current window (pipeline.Merge)
// and rebuilds the behavioral model — graphs, projections, embeddings —
// from the merged aggregates, so no raw observations are retained or
// replayed and the memory footprint is bounded by the aggregate size,
// not the traffic volume. Each remodel warm-starts LINE with the
// previous window's vectors for domains that persist across windows,
// cutting the SGD sample budget. The SVM is retrained on the currently
// known labels, and alerts are emitted for domains that newly enter the
// top of the suspicion ranking. Domains already alerted are not
// re-alerted, so the output is an incident feed rather than a ranking
// dump.
//
//maldlint:deterministic
package stream

import (
	"errors"
	"fmt"
	"sort"
	"time"

	"repro/internal/bipartite"
	"repro/internal/core"
	"repro/internal/obsv"
	"repro/internal/pipeline"
)

// Labeler supplies the currently known labels when a model is rebuilt.
// Implementations typically wrap a threat-intelligence service; labels
// may grow day over day as intel feeds update.
type Labeler func(candidates []string) (domains []string, labels []int)

// Config parameterizes a Rolling detector.
type Config struct {
	// Start anchors day boundaries.
	Start time.Time
	// WindowDays is how many most-recent days of traffic each model sees
	// (default 3).
	WindowDays int
	// FlagFraction bounds the alert volume per remodel: the top fraction
	// of retained domains by score is eligible for alerting (default
	// 0.05).
	FlagFraction float64
	// MinScoreRank guards tiny windows: at least this many domains are
	// eligible regardless of FlagFraction (default 10).
	MinScoreRank int
	// Detector carries the model configuration (embedding size, SVM
	// parameters, seeds); Start/Days are managed by Rolling.
	Detector core.Config
	// Labeler supplies training labels at each remodel; required.
	Labeler Labeler
	// FoldIn, when set, receives fold-in relations for every domain
	// observed in a window but pruned out of its model, timestamped at
	// the day boundary (stream time). Share the cache with a
	// serve.Server to let it score the window's unknown domains.
	FoldIn *core.FoldInCache
	// Metrics, when set, receives checkpoint/restore/degradation
	// instrumentation: maldomain_checkpoints_total{result},
	// maldomain_checkpoint_bytes, maldomain_checkpoint_last_unix_seconds,
	// maldomain_checkpoint_write_seconds, maldomain_restores_total{result},
	// and maldomain_degraded_days_total.
	Metrics *obsv.Registry
}

func (c Config) withDefaults() (Config, error) {
	if c.Labeler == nil {
		return c, errors.New("stream: Config.Labeler is required")
	}
	if c.WindowDays <= 0 {
		c.WindowDays = 3
	}
	if c.FlagFraction <= 0 {
		c.FlagFraction = 0.05
	}
	if c.MinScoreRank <= 0 {
		c.MinScoreRank = 10
	}
	return c, nil
}

// Alert is one newly surfaced suspicious domain.
type Alert struct {
	// Day is the day index (since Config.Start) whose remodel produced
	// the alert.
	Day int
	// Domain is the flagged e2LD.
	Domain string
	// Score is the SVM decision value at flag time.
	Score float64
}

// Rolling is the streaming detector. Feed observations with Consume in
// any order within a day; call EndOfDay at each day boundary to remodel
// and collect alerts. Not safe for concurrent use.
type Rolling struct {
	cfg Config

	days    map[int]*pipeline.Processor
	lastDay int
	flagged map[string]bool

	// floor is the last day boundary a restored checkpoint covers;
	// Consume drops observations at or before it (their aggregates are
	// already represented) and EndOfDay refuses to re-run it. -1 for a
	// fresh detector.
	floor int

	// prevIndex and prevEmb hold the last successful remodel's retained
	// domain index and per-view embeddings; the next remodel seeds the
	// embedder from them for every domain that persists across windows
	// (through core.Config.EmbedInit, backend-agnostically).
	prevIndex map[string]int
	prevEmb   map[bipartite.View]*core.Embedding
}

// New returns a Rolling detector.
func New(cfg Config) (*Rolling, error) {
	cfg, err := cfg.withDefaults()
	if err != nil {
		return nil, err
	}
	return &Rolling{
		cfg:     cfg,
		days:    make(map[int]*pipeline.Processor),
		lastDay: -1,
		floor:   -1,
		flagged: make(map[string]bool),
	}, nil
}

// Close releases nothing: a Rolling detector holds no goroutines, files
// or other resources beyond its memory. It always returns nil.
func (r *Rolling) Close() error { return nil }

// Consume folds one observation into its day's aggregation processor.
// Observations timestamped before Config.Start are clamped into day 0
// rather than dropped: captures usually begin mid-flight, and queries
// from just before the anchor still belong to the first window. No raw
// observation is retained — each day holds only its processor's
// aggregates.
func (r *Rolling) Consume(in pipeline.Input) {
	day := int(in.Time.Sub(r.cfg.Start) / (24 * time.Hour))
	if day < 0 {
		day = 0
	}
	if day <= r.floor {
		// Already represented by the restored checkpoint: a caller
		// replaying its input stream after Restore need not filter it.
		return
	}
	p := r.days[day]
	if p == nil {
		// Every per-day processor shares the window anchor so minute, day,
		// and bucket indices line up when the window is merged.
		p = pipeline.NewProcessor(pipeline.Config{
			Start:    r.cfg.Start,
			Days:     day + 1,
			DHCP:     r.cfg.Detector.DHCP,
			Suffixes: r.cfg.Detector.Suffixes,
		})
		r.days[day] = p
	}
	p.Consume(in)
	if day > r.lastDay {
		r.lastDay = day
	}
}

// Window returns the day indices a remodel at day would cover.
func (r *Rolling) window(day int) []int {
	var out []int
	for d := day - r.cfg.WindowDays + 1; d <= day; d++ {
		if d >= 0 {
			out = append(out, d)
		}
	}
	return out
}

// remodel merges the window's per-day aggregates and builds a detector
// over them, warm-starting the embeddings from the previous remodel.
// The merged processor is returned alongside the detector so the
// fold-in feeder can read the window's aggregates.
func (r *Rolling) remodel(day int) (*core.Detector, *pipeline.Processor, error) {
	var procs []*pipeline.Processor
	for _, d := range r.window(day) {
		if p := r.days[d]; p != nil {
			procs = append(procs, p)
		}
	}
	if len(procs) == 0 {
		return nil, nil, fmt.Errorf("stream: no traffic in window ending day %d", day)
	}
	// The window guard rejects day cursors that have drifted further
	// apart than the window itself — per-day processors within one
	// window can never legitimately do that, so skew means the caller
	// mixed aggregates from different runs.
	merged, err := pipeline.MergeWindow(r.cfg.WindowDays, procs...)
	if err != nil {
		return nil, nil, fmt.Errorf("stream: merging window ending day %d: %w", day, err)
	}
	if merged.TotalQueries() == 0 {
		return nil, nil, fmt.Errorf("stream: no traffic in window ending day %d", day)
	}
	cfg := withWindow(r.cfg.Detector, r.cfg.Start, day)
	cfg.EmbedInit = r.embedInit
	det := core.NewDetectorWith(cfg, merged)
	if err := det.BuildModel(); err != nil {
		return nil, nil, fmt.Errorf("stream: remodel at day %d: %w", day, err)
	}
	r.rememberModel(det)
	return det, merged, nil
}

// embedInit implements core.Config.EmbedInit over the previous remodel's
// vectors: domains present in the last window keep their embedding as
// the SGD starting point, new domains start random. A nil return (no
// previous model, or no overlap) falls back to a cold start.
func (r *Rolling) embedInit(view bipartite.View, domains []string) [][]float64 {
	emb := r.prevEmb[view]
	if emb == nil {
		return nil
	}
	init := make([][]float64, len(domains))
	hits := 0
	for i, d := range domains {
		if j, ok := r.prevIndex[d]; ok {
			init[i] = emb.Vectors[j]
			hits++
		}
	}
	if hits == 0 {
		return nil
	}
	return init
}

// rememberModel stores det's retained domains and embeddings as the warm
// start for the next remodel.
func (r *Rolling) rememberModel(det *core.Detector) {
	domains, err := det.Domains()
	if err != nil {
		return
	}
	index := make(map[string]int, len(domains))
	for i, d := range domains {
		index[d] = i
	}
	embs := make(map[bipartite.View]*core.Embedding, len(bipartite.Views))
	for _, v := range bipartite.Views {
		emb, err := det.Embedding(v)
		if err != nil {
			return
		}
		embs[v] = emb
	}
	r.prevIndex, r.prevEmb = index, embs
}

// DegradedError reports a day boundary that could not produce a fresh
// model: the merge, remodel, or classifier training failed. The
// detector is still healthy — expired days were evicted, the previous
// remodel's warm-start state is retained, and traffic can keep flowing
// into Consume — but no alerts were produced for this day. Callers
// detect it with errors.As and keep streaming.
type DegradedError struct {
	// Day is the day boundary whose remodel failed.
	Day int
	// Stage names where the failure happened: "remodel" or "train".
	Stage string
	// Err is the underlying cause.
	Err error
}

// Error implements error.
func (e *DegradedError) Error() string {
	return fmt.Sprintf("stream: day %d degraded (%s failed): %v", e.Day, e.Stage, e.Err)
}

// Unwrap exposes the cause to errors.Is/As.
func (e *DegradedError) Unwrap() error { return e.Err }

// EndOfDay remodels over the window ending at day and returns alerts
// for newly flagged domains. Per-day aggregates older than the window
// are released in every path, including failures: a remodel or training
// error does not abort the day but surfaces as a *DegradedError, with
// the previous model's warm-start state intact so the next boundary can
// recover.
func (r *Rolling) EndOfDay(day int) ([]Alert, error) {
	if day <= r.floor {
		return nil, fmt.Errorf("stream: day %d already covered by the restored checkpoint (through day %d)",
			day, r.floor)
	}
	alerts, stage, err := r.modelDay(day)
	// Evict in all paths: a bad day must not pin its window in memory
	// forever (aggregates older than any future window are useless even
	// to a later retry).
	r.evict(day)
	if err != nil {
		if m := r.cfg.Metrics; m != nil {
			m.Counter("maldomain_degraded_days_total",
				"Day boundaries that produced no model (remodel or training failed).").Inc()
		}
		return nil, &DegradedError{Day: day, Stage: stage, Err: err}
	}
	return alerts, nil
}

// modelDay runs the remodel → train → rank sequence for one day
// boundary, returning the failing stage on error.
func (r *Rolling) modelDay(day int) ([]Alert, string, error) {
	det, merged, err := r.remodel(day)
	if err != nil {
		return nil, "remodel", err
	}
	retained, err := det.Domains()
	if err != nil {
		return nil, "remodel", err
	}
	domains, labels := r.cfg.Labeler(retained)
	clf, err := det.TrainClassifier(domains, labels)
	if err != nil {
		return nil, "train", fmt.Errorf("stream: training at day %d: %w", day, err)
	}
	// A healthy model is the moment to publish the window's pruned
	// domains as fold-in evidence: the relations reference exactly the
	// retained set this model scores against.
	r.feedFoldIn(day, retained, merged.Stats())

	type scored struct {
		domain string
		score  float64
	}
	var all []scored
	for _, d := range retained {
		if s, ok := clf.Score(d); ok {
			all = append(all, scored{d, s})
		}
	}
	sort.Slice(all, func(i, j int) bool { return all[i].score > all[j].score })
	budget := int(r.cfg.FlagFraction * float64(len(all)))
	if budget < r.cfg.MinScoreRank {
		budget = r.cfg.MinScoreRank
	}
	if budget > len(all) {
		budget = len(all)
	}

	var alerts []Alert
	labelOf := make(map[string]int, len(domains))
	for i, d := range domains {
		labelOf[d] = labels[i]
	}
	for _, sc := range all[:budget] {
		if r.flagged[sc.domain] {
			continue
		}
		if l, known := labelOf[sc.domain]; known && l == 1 {
			// Already-known malicious domains need no alert; the feed is
			// for new discoveries.
			r.flagged[sc.domain] = true
			continue
		}
		r.flagged[sc.domain] = true
		alerts = append(alerts, Alert{Day: day, Domain: sc.domain, Score: sc.score})
	}
	return alerts, "", nil
}

// evict releases per-day aggregates that have fallen out of every
// window a remodel at or after day could cover.
func (r *Rolling) evict(day int) {
	for d := range r.days {
		if d <= day-r.cfg.WindowDays {
			delete(r.days, d)
		}
	}
}

// BufferedDays reports how many per-day aggregation processors are
// currently retained.
func (r *Rolling) BufferedDays() int { return len(r.days) }

// withWindow clamps a detector config to the rolling window.
func withWindow(cfg core.Config, start time.Time, day int) core.Config {
	cfg.Start = start
	cfg.Days = day + 1
	return cfg
}
