package main

import (
	"bufio"
	"crypto/sha256"
	"errors"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"sort"
	"strconv"
	"time"

	"repro/internal/bipartite"
	"repro/internal/core"
	"repro/internal/obsv"
	"repro/internal/stream"
)

// `maldetect stream`'s defaults.
const (
	streamWindow    = 2
	streamDim       = 16
	streamIntelFrac = 0.5
)

// lagIntel keeps every benign label and the first frac share of the
// malicious ones in sorted order, as `maldetect stream -intel-frac` does:
// the alert feed exists to surface what intel has not caught up with.
func lagIntel(intel map[string]int, frac float64) map[string]int {
	var malicious []string
	out := make(map[string]int, len(intel))
	for d, l := range intel {
		if l == 1 {
			malicious = append(malicious, d)
		} else {
			out[d] = 0
		}
	}
	sort.Strings(malicious)
	for _, d := range malicious[:int(frac*float64(len(malicious)))] {
		out[d] = 1
	}
	return out
}

func (fx *fixture) streamConfig(reg *obsv.Registry, stageMetrics bool) stream.Config {
	known := lagIntel(fx.intel, streamIntelFrac)
	cfg := stream.Config{
		Start:      fx.small.start,
		WindowDays: streamWindow,
		Detector: core.Config{
			Seed: fx.seed, EmbedDim: streamDim, EmbedSamples: fx.sc.streamSamples,
			Workers: 1, DHCP: fx.small.dhcp,
		},
		Labeler: func(candidates []string) ([]string, []int) {
			var domains []string
			var labels []int
			for _, c := range candidates {
				if l, ok := known[c]; ok {
					domains, labels = append(domains, c), append(labels, l)
				}
			}
			return domains, labels
		},
		Metrics: reg,
	}
	if stageMetrics {
		cfg.Detector.Metrics = reg
	}
	return cfg
}

// streamPass is what one pass of the stream path yields.
type streamPass struct {
	closes   []float64 // per day boundary: EndOfDay + feed append + checkpoint, seconds
	consume  float64   // seconds in Rolling.Consume's ReadLog pass
	feedSHA  [sha256.Size]byte
	alerts   int
	truePos  int
	degraded int
	ckptPath string
	cfg      stream.Config
}

// stageSums reads the build-stage histogram sums the detector has
// observed into reg so far.
func stageSums(reg *obsv.Registry) map[string]float64 {
	vec := reg.HistogramVec("maldomain_build_stage_seconds", "Wall time of one model-build stage.", "stage")
	out := make(map[string]float64, len(stageLayer))
	for stage := range stageLayer {
		out[stage] = vec.With(stage).Sum()
	}
	return out
}

// streamOnce replays the small trace through stream.Rolling the way
// `maldetect stream` does: consume the trace, then at each day boundary
// EndOfDay, append the alerts to the feed and make them durable, and
// write a checkpoint.
func (r *run) streamOnce(tr *tracer, pass int) (streamPass, error) {
	fx := r.fx
	reg := obsv.NewRegistry()
	out := streamPass{cfg: fx.streamConfig(reg, tr != nil)}
	out.ckptPath = filepath.Join(fx.dir, "stream.ckpt")
	roll, err := stream.New(out.cfg)
	if err != nil {
		return out, err
	}
	defer roll.Close()

	root := tr.begin(wlStream, "pass", -1, pass)
	defer tr.end(root)
	t0 := time.Now()
	var busy time.Duration
	if err := readLog(tr, wlStream, fx.small, timedSink(tr, roll.Consume, &busy), "stream.Rolling.Consume", &busy, root, pass); err != nil {
		return out, err
	}
	out.consume = time.Since(t0).Seconds()

	feed, err := os.Create(filepath.Join(fx.dir, "alerts.tsv"))
	if err != nil {
		return out, err
	}
	defer feed.Close()
	hash := sha256.New()
	w := bufio.NewWriter(io.MultiWriter(feed, hash))
	var off int64
	for day := 0; day < fx.small.days; day++ {
		before := map[string]float64(nil)
		if tr != nil {
			before = stageSums(reg)
		}
		t0 := time.Now()
		sp := tr.begin(wlStream, "stream.EndOfDay", root, day)
		alerts, err := roll.EndOfDay(day)
		tr.end(sp)
		if err != nil {
			var de *stream.DegradedError
			if !errors.As(err, &de) {
				return out, err
			}
			out.degraded++
			r.problem("stream-days pass %d: %v", pass, de)
		}
		if tr != nil {
			at, after := tr.startOf(sp), stageSums(reg)
			for _, stage := range stageOrder {
				d := time.Duration((after[stage] - before[stage]) * float64(time.Second))
				tr.record(wlStream, "stage:"+stage, sp, day, at, d, "build_report")
				at = at.Add(d)
			}
		}

		sp = tr.begin(wlStream, "feed.append", root, day)
		for _, a := range alerts {
			n, err := fmt.Fprintf(w, "%d\t%s\t%s\n", a.Day, a.Domain, strconv.FormatFloat(a.Score, 'g', -1, 64))
			if err != nil {
				return out, err
			}
			off += int64(n)
			out.alerts++
			if fx.truth[a.Domain].Malicious {
				out.truePos++
			}
		}
		if err := w.Flush(); err != nil {
			return out, err
		}
		if err := feed.Sync(); err != nil {
			return out, err
		}
		tr.end(sp)

		sp = tr.begin(wlStream, "stream.WriteCheckpoint", root, day)
		if err := roll.WriteCheckpoint(out.ckptPath, stream.Cursor{Day: day, FeedBytes: off}); err != nil {
			return out, err
		}
		tr.end(sp)
		out.closes = append(out.closes, time.Since(t0).Seconds())
	}
	copy(out.feedSHA[:], hash.Sum(nil))
	return out, feed.Close()
}

// stageOrder is the execution order of the build stages.
var stageOrder = func() []string {
	out := []string{"graphs"}
	for _, v := range bipartite.Views {
		out = append(out, "project:"+v.String())
	}
	for _, v := range bipartite.Views {
		out = append(out, "embed:"+v.String())
	}
	return out
}()

// streamPath is the stream-days path's state across rounds.
type streamPath struct {
	walls             unitWalls
	byDay             [][]float64 // plain passes' day closes by day, seconds
	first, last       streamPass
	passes            int
	attempted, failed int
}

// streamUnit is one pass; every pass's feed must equal the first one's.
func (r *run) streamUnit(tr *tracer, pass int) error {
	st := &r.stream
	p, err := r.streamOnce(tr, pass)
	if err != nil {
		return err
	}
	st.attempted += len(p.closes)
	st.failed += p.degraded
	if st.passes == 0 {
		st.first = p
	} else if p.feedSHA != st.first.feedSHA {
		r.problem("stream-days pass %d: alert feed SHA-256 %x differs from pass 0's %x", pass, p.feedSHA, st.first.feedSHA)
	}
	st.passes++
	st.walls.add(tr != nil, mean(p.closes))
	if tr == nil {
		if st.byDay == nil {
			st.byDay = make([][]float64, len(p.closes))
		}
		for day, c := range p.closes {
			st.byDay[day] = append(st.byDay[day], c)
		}
	}
	st.last = p
	return nil
}

// streamFinish reduces the passes.
func (r *run) streamFinish() error {
	st := &r.stream
	first, last := st.first, st.last
	r.count(wlStream, st.attempted, st.failed)
	r.units(wlStream, st.walls)
	if first.alerts == 0 {
		r.problem("stream-days: no alerts raised, alert_precision is undefined")
	}
	// The days differ in work (day 0 models one day from a cold start, the
	// later ones two from a warm one), so each day's close is reported by
	// its fastest pass, and the metric is their mean.
	var closes, everyClose []float64
	for _, day := range st.byDay {
		closes = append(closes, fastest(day))
		everyClose = append(everyClose, day...)
	}
	r.e2e["day_close_s"] = mean(closes)
	r.timings["day_close_s"] = summarize(everyClose)
	r.e2e["alert_precision"] = float64(first.truePos) / float64(max(first.alerts, 1))

	if r.tr == nil {
		return nil
	}
	eod := r.tr.seconds(wlStream, "stream.EndOfDay")
	var cold, warm []float64
	for i, s := range eod {
		if i%r.fx.small.days == 0 {
			cold = append(cold, s)
		} else {
			warm = append(warm, s)
		}
	}
	r.layer["stream.consume_events_per_s"] = float64(r.fx.small.events) / last.consume
	r.layer["stream.close_cold_s"] = median(cold)
	r.layer["stream.close_warm_s"] = mean(warm)
	r.layer["stream.checkpoint_write_s"] = median(r.tr.seconds(wlStream, "stream.WriteCheckpoint"))
	r.layer["stream.alerts"] = float64(first.alerts)
	info, err := os.Stat(last.ckptPath)
	if err != nil {
		return err
	}
	r.layer["stream.checkpoint_bytes"] = float64(info.Size())

	sp := r.tr.begin(wlStream, "stream.RestoreFile", -1, 0)
	restored, _, err := stream.RestoreFile(last.ckptPath, last.cfg)
	r.tr.end(sp)
	if err != nil {
		return fmt.Errorf("restoring the last checkpoint: %w", err)
	}
	if err := restored.Close(); err != nil {
		return err
	}
	r.layer["stream.restore_s"] = median(r.tr.seconds(wlStream, "stream.RestoreFile"))
	return nil
}
