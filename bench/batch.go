package main

import (
	"bufio"
	"fmt"
	"math"
	"os"
	"path/filepath"
	"slices"
	"time"

	"repro/internal/core"
	"repro/internal/eval"
	"repro/internal/pipeline"
)

// stageLayer maps BuildReport stage names to the ledger's layer metrics.
var stageLayer = map[string]string{
	"graphs":        "bipartite.graphs_s",
	"project:query": "bipartite.project_query_s",
	"project:ip":    "bipartite.project_ip_s",
	"project:time":  "bipartite.project_time_s",
	"embed:query":   "line.embed_query_s",
	"embed:ip":      "line.embed_ip_s",
	"embed:time":    "line.embed_time_s",
}

// timedSink returns sink itself with tracing off. With tracing on it
// returns a wrapper that adds the time spent inside sink to *busy, so one
// pass yields parse time and sink time separately.
func timedSink(tr *tracer, sink func(pipeline.Input), busy *time.Duration) func(pipeline.Input) {
	if tr == nil {
		return sink
	}
	return func(in pipeline.Input) {
		t0 := time.Now()
		sink(in)
		*busy += time.Since(t0)
	}
}

// readLog runs readTrace under a pipeline.ReadLog span; the time *busy
// accumulated becomes one child span named sinkName.
func readLog(tr *tracer, wl string, tf traceFile, sink func(pipeline.Input), sinkName string, busy *time.Duration, parent, rep int) error {
	sp := tr.begin(wl, "pipeline.ReadLog", parent, rep)
	err := readTrace(tf, sink)
	tr.end(sp)
	tr.record(wl, sinkName, sp, rep, tr.startOf(sp), *busy, "sink_sum")
	return err
}

// batchRep is one timed repetition of what `maldetect train` does, from
// trace bytes on disk to a loaded scorer that has scored every retained
// domain. The detector, classifier and scorer are returned for the
// untimed checks.
func (r *run) batchRep(tr *tracer, rep int) (float64, *core.Detector, *core.Classifier, *core.Scorer, []core.Result, error) {
	fx := r.fx
	fail := func(err error) (float64, *core.Detector, *core.Classifier, *core.Scorer, []core.Result, error) {
		return 0, nil, nil, nil, nil, err
	}
	t0 := time.Now()
	root := tr.begin(wlBatch, "rep", -1, rep)
	det := core.NewDetector(fx.detectorConfig(0))
	var busy time.Duration
	if err := readLog(tr, wlBatch, fx.small, timedSink(tr, det.Consume, &busy), "core.Detector.Consume", &busy, root, rep); err != nil {
		return fail(err)
	}

	sp := tr.begin(wlBatch, "core.BuildModel", root, rep)
	if err := det.BuildModel(); err != nil {
		return fail(err)
	}
	tr.end(sp)
	report, err := det.BuildReport()
	if err != nil {
		return fail(err)
	}
	at := tr.startOf(sp)
	for _, st := range report.Stages {
		tr.record(wlBatch, "stage:"+st.Name, sp, rep, at, st.Duration, "build_report")
		at = at.Add(st.Duration)
	}

	retained, err := det.Domains()
	if err != nil {
		return fail(err)
	}
	ld, ll := fx.labelled(retained)
	sp = tr.begin(wlBatch, "core.TrainClassifier", root, rep)
	clf, err := det.TrainClassifier(ld, ll)
	if err != nil {
		return fail(err)
	}
	tr.end(sp)

	path := filepath.Join(fx.dir, "batch-model.bin")
	sp = tr.begin(wlBatch, "core.SaveModel", root, rep)
	if err := saveModel(det, clf, path); err != nil {
		return fail(err)
	}
	tr.end(sp)

	sp = tr.begin(wlBatch, "core.LoadScorer", root, rep)
	sc, err := loadScorer(path)
	if err != nil {
		return fail(err)
	}
	tr.end(sp)

	sp = tr.begin(wlBatch, "core.ScoreBatch", root, rep)
	results := sc.ScoreBatch(retained)
	tr.end(sp)
	tr.end(root)
	return time.Since(t0).Seconds(), det, clf, sc, results, nil
}

func loadScorer(path string) (*core.Scorer, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	return core.LoadScorer(bufio.NewReaderSize(f, 1<<20))
}

// batchPath is the batch-small path's state across rounds.
type batchPath struct {
	walls             unitWalls
	det               *core.Detector // the last completed rep's
	attempted, failed int
}

// batchUnit is one timed rep followed by its untimed checks.
func (r *run) batchUnit(tr *tracer, rep int) error {
	b := &r.batch
	b.attempted++
	wall, d, clf, sc, results, err := r.batchRep(tr, rep)
	if err != nil {
		b.failed++
		r.problem("batch-small rep %d: %v", rep, err)
		return nil
	}
	b.walls.add(tr != nil, wall)
	b.det = d
	r.checkBatch(rep, d, clf, sc, results)
	return nil
}

// batchFinish reduces the reps, and computes the hold-out AUC on the last
// rep's model.
func (r *run) batchFinish() error {
	b := &r.batch
	r.count(wlBatch, b.attempted, b.failed)
	det := b.det
	if det == nil {
		return fmt.Errorf("no rep completed")
	}
	r.units(wlBatch, b.walls)
	r.e2e["train_wall_s"] = fastest(b.walls.plain)
	r.timings["train_rep_s"] = summarize(b.walls.plain)

	auc, err := r.holdOutAUC(det)
	if err != nil {
		return err
	}
	r.e2e["auc"] = auc

	if r.tr == nil {
		return nil
	}
	for stage, metric := range stageLayer {
		r.layer[metric] = median(r.tr.seconds(wlBatch, "stage:"+stage))
	}
	report, err := det.BuildReport()
	if err != nil {
		return err
	}
	samples := 0
	for _, st := range report.Stages {
		samples += st.Samples
		switch st.Name {
		case "project:query":
			r.layer["bipartite.edges_query"] = float64(st.Edges)
		case "project:ip":
			r.layer["bipartite.edges_ip"] = float64(st.Edges)
		case "project:time":
			r.layer["bipartite.edges_time"] = float64(st.Edges)
		case "graphs":
			r.layer["bipartite.retained"] = float64(st.Vertices)
		}
	}
	embed := r.layer["line.embed_query_s"] + r.layer["line.embed_ip_s"] + r.layer["line.embed_time_s"]
	r.layer["line.samples"] = float64(samples)
	r.layer["line.samples_per_s"] = float64(samples) / embed
	r.layer["svm.fit_s"] = median(r.tr.seconds(wlBatch, "core.TrainClassifier"))
	r.layer["core.build_s"] = median(r.tr.seconds(wlBatch, "core.BuildModel"))
	r.layer["core.build_self_s"] = median(r.tr.selfSeconds(wlBatch, "core.BuildModel"))
	r.layer["core.save_s"] = median(r.tr.seconds(wlBatch, "core.SaveModel"))
	r.layer["core.load_s"] = median(r.tr.seconds(wlBatch, "core.LoadScorer"))
	info, err := os.Stat(filepath.Join(r.fx.dir, "batch-model.bin"))
	if err != nil {
		return err
	}
	r.layer["core.model_bytes"] = float64(info.Size())

	// One extra build with Workers=1: the reps above leave the worker count
	// to the program (Workers=0, one per P), and whether more than one
	// helps is a question the ledger should answer when -procs gives it
	// more than one P.
	single := core.NewDetector(r.fx.detectorConfig(1))
	if err := readTrace(r.fx.small, single.Consume); err != nil {
		return err
	}
	sp := r.tr.begin(wlBatch, "core.BuildModel(workers=1)", -1, 0)
	err = single.BuildModel()
	r.tr.end(sp)
	r.layer["core.build_workers1_s"] = median(r.tr.seconds(wlBatch, "core.BuildModel(workers=1)"))
	return err
}

// checkBatch is batch-small's correctness check: the loaded scorer must
// reproduce the in-memory classifier bit for bit on every retained
// domain, and the retained set must equal the reference build's.
func (r *run) checkBatch(rep int, det *core.Detector, clf *core.Classifier, sc *core.Scorer, results []core.Result) {
	retained, err := det.Domains()
	if err != nil {
		r.problem("batch-small rep %d: %v", rep, err)
		return
	}
	if !slices.Equal(retained, r.fx.refRetained) {
		r.problem("batch-small rep %d: retained set (%d) differs from the Workers=1 reference (%d)",
			rep, len(retained), len(r.fx.refRetained))
	}
	if len(results) != len(retained) {
		r.problem("batch-small rep %d: ScoreBatch returned %d results for %d domains", rep, len(results), len(retained))
		return
	}
	for i, d := range retained {
		want, ok1 := clf.Score(d)
		got, ok2 := sc.Score(d)
		if !ok1 || !ok2 || math.Float64bits(want) != math.Float64bits(got) ||
			!results[i].Known || math.Float64bits(results[i].Score) != math.Float64bits(want) {
			r.problem("batch-small rep %d: loaded score of %s is %v, in-memory %v", rep, d, got, want)
			return
		}
	}
	r.layer["svm.train_n"] = float64(len(clf.Used))
	if m := clf.Model(); m != nil {
		r.layer["svm.support_vectors"] = float64(m.NumSV())
	}
}

// holdOutAUC refits untimed on the training split of the labelled
// retained domains and scores the rest.
func (r *run) holdOutAUC(det *core.Detector) (float64, error) {
	retained, err := det.Domains()
	if err != nil {
		return 0, err
	}
	ld, ll := r.fx.labelled(retained)
	var trainD, testD []string
	var trainL, testL []int
	for i, d := range ld {
		if inTrainSplit(d) {
			trainD, trainL = append(trainD, d), append(trainL, ll[i])
		} else {
			testD, testL = append(testD, d), append(testL, ll[i])
		}
	}
	clf, err := det.TrainClassifier(trainD, trainL)
	if err != nil {
		return 0, fmt.Errorf("hold-out refit: %w", err)
	}
	scores := make([]float64, len(testD))
	for i, d := range testD {
		s, ok := clf.Score(d)
		if !ok {
			return 0, fmt.Errorf("hold-out domain %s not scorable", d)
		}
		scores[i] = s
	}
	return eval.AUC(scores, testL)
}
