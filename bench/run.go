package main

import (
	"fmt"
	"io"
	"os"
	"path/filepath"
	"runtime"
	"time"
)

// The four workloads. Every run drives all four paths, because every run
// reports every metric. A run is a sequence of rounds, and a round runs
// one unit of every path (a train rep, a stream pass, an ingest pass, a
// slice of each load phase), so that every metric samples the whole run
// and a disturbance of the host lands on all of them, not on the one path
// whose turn it was. The named workload is the path that runs two units a
// round, and its operations are the ones counted as attempted and failed.
const (
	wlBatch  = "batch-small"
	wlStream = "stream-days"
	wlIngest = "ingest-bulk"
	wlServe  = "serve-mix"
)

var workloadNames = []string{wlBatch, wlStream, wlIngest, wlServe}

// minRounds is the fewest rounds a run makes whatever its budget: two, so
// that a pass has another to be compared with, and a traced run has a
// plain and a traced unit of everything.
const minRounds = 2

// setUps is how many times a run sets up; setup_s is the median.
const setUps = 3

// run is one benchmark run: one workload, one seed, one fixture.
type run struct {
	fx       *fixture
	host     hostInfo
	workload string
	tr       *tracer // nil with tracing off
	log      io.Writer

	e2e   map[string]float64
	layer map[string]float64
	// timings holds the distributions behind the headline numbers: each a
	// median, the highest percentile with ten samples beyond it, and the
	// sample count.
	timings map[string]summary

	attempted, failed int
	problems          []string
	droppedSpans      int

	batch  batchPath
	stream streamPath
	ingest ingestPath
	serve  servePath
}

// unitWalls collects the wall times of a path's repeated unit, split by
// whether the unit ran traced.
type unitWalls struct{ plain, traced []float64 }

func (u *unitWalls) add(traced bool, seconds float64) {
	if traced {
		u.traced = append(u.traced, seconds)
	} else {
		u.plain = append(u.plain, seconds)
	}
}

// startUnit prepares a path's next timed unit. It collects the heap, so
// that the previous unit's garbage is not this one's GC work, and it
// alternates plain and traced units in a traced run, so the overhead
// compares like with like inside one process. Unit 0 is plain.
func (r *run) startUnit(unit int) *tracer {
	runtime.GC()
	if unit%2 == 0 {
		return nil
	}
	return r.tr
}

// units records the focused path's tracing overhead.
func (r *run) units(wl string, u unitWalls) {
	if wl != r.workload || r.tr == nil || len(u.plain) == 0 || len(u.traced) == 0 {
		return
	}
	r.layer["bench.trace_overhead_pct"] = 100 * (fastest(u.traced)/fastest(u.plain) - 1)
}

func (r *run) count(wl string, attempted, failed int) {
	if wl == r.workload {
		r.attempted, r.failed = attempted, failed
	}
}

func (r *run) problem(format string, args ...any) {
	msg := fmt.Sprintf(format, args...)
	r.problems = append(r.problems, msg)
	say(r.log, "bench: INCORRECT: %s\n", msg)
}

// result is what one run reports.
type result struct {
	Workload  string             `json:"workload"`
	Seed      uint64             `json:"seed"`
	Correct   bool               `json:"correct"`
	Attempted int                `json:"attempted"`
	Failed    int                `json:"failed"`
	Rounds    int                `json:"rounds"`
	Problems  []string           `json:"problems,omitempty"`
	EndToEnd  map[string]float64 `json:"end_to_end"`
	Timings   map[string]summary `json:"timings"`
	PerLayer  map[string]float64 `json:"per_layer,omitempty"`
	SpanFile  string             `json:"span_file,omitempty"`
}

// setUpMedian sets up setUps times, each in its own directory, keeps the
// last fixture and returns the median set-up time. The first set-up pays
// for the process's cold heap and page cache; the median does not.
func setUpMedian(dir string, seed uint64, sc scale) (*fixture, float64, error) {
	var fx *fixture
	var took []float64
	for i := 0; i < setUps; i++ {
		if fx != nil {
			if err := os.RemoveAll(fx.dir); err != nil {
				return nil, 0, err
			}
		}
		sub := filepath.Join(dir, fmt.Sprintf("setup-%d", i))
		if err := os.Mkdir(sub, 0o755); err != nil {
			return nil, 0, err
		}
		runtime.GC()
		t0 := time.Now()
		var err error
		if fx, err = setUp(sub, seed, sc); err != nil {
			return nil, 0, err
		}
		took = append(took, time.Since(t0).Seconds())
	}
	return fx, median(took), nil
}

// runWorkload sets up, drives the four paths round by round and tears
// down.
func runWorkload(workload string, seed uint64, seconds float64, sc scale, host hostInfo, traced bool, spanPath string, log io.Writer) (res result, err error) {
	if err := os.MkdirAll(workRoot, 0o755); err != nil {
		return result{}, err
	}
	dir, err := os.MkdirTemp(workRoot, workload+"-")
	if err != nil {
		return result{}, err
	}
	defer os.RemoveAll(dir)

	r := &run{workload: workload, host: host, log: log, e2e: map[string]float64{}, layer: map[string]float64{}, timings: map[string]summary{}}
	if r.fx, r.e2e["setup_s"], err = setUpMedian(dir, seed, sc); err != nil {
		return result{}, fmt.Errorf("set-up: %w", err)
	}
	if traced {
		r.tr = newTracer()
	}
	// The daemon stops on every way out, a failed start included; the first
	// error is the one worth reporting.
	defer func() {
		if stopErr := r.serveStop(); err == nil && stopErr != nil {
			err = fmt.Errorf("%s: %w", wlServe, stopErr)
		}
	}()
	if err := r.serveStart(); err != nil {
		return result{}, fmt.Errorf("%s: %w", wlServe, err)
	}

	paths := []struct {
		name   string
		unit   func(tr *tracer, n int) error
		finish func() error
		units  int
		took   time.Duration // the last unit's
	}{
		{name: wlBatch, unit: r.batchUnit, finish: r.batchFinish},
		{name: wlStream, unit: r.streamUnit, finish: r.streamFinish},
		{name: wlIngest, unit: r.ingestUnit, finish: r.ingestFinish},
		{name: wlServe, unit: r.serveUnit, finish: r.serveFinish},
	}
	start := time.Now()
	deadline := start.Add(time.Duration(seconds * float64(time.Second)))
	rounds := 0
measuring:
	for ; ; rounds++ {
		// Rounds take turns on the CPUs the process may use: a disturbance
		// that stays on one of them (README.md, "The host") then leaves the
		// other rounds' units alone, and every metric is reported by its
		// least disturbed units.
		if n := len(host.CPUs); n > 1 {
			if err := moveTo(host.CPUs[n-1-rounds%n]); err != nil {
				return result{}, err
			}
		}
		for i := range paths {
			p := &paths[i]
			times := 1
			if p.name == workload {
				times = 2
			}
			for k := 0; k < times; k++ {
				// Past the first rounds, a unit that would end after the
				// deadline, going by the path's last one, ends the run.
				if rounds >= minRounds && time.Now().Add(p.took).After(deadline) {
					break measuring
				}
				t0 := time.Now()
				if err := p.unit(r.startUnit(p.units), p.units); err != nil {
					return result{}, fmt.Errorf("%s unit %d: %w", p.name, p.units, err)
				}
				p.units++
				p.took = time.Since(t0)
			}
		}
	}
	say(log, "bench: %d rounds in %v for a budget of %v s; units:", rounds, time.Since(start).Round(time.Millisecond), seconds)
	for _, p := range paths {
		say(log, " %s %d", p.name, p.units)
	}
	say(log, "\n")
	for _, p := range paths {
		if err := p.finish(); err != nil {
			return result{}, fmt.Errorf("%s: %w", p.name, err)
		}
	}
	if traced {
		if err := r.probes(); err != nil {
			return result{}, fmt.Errorf("layer probes: %w", err)
		}
	}
	res = result{Workload: workload, Seed: seed, Attempted: r.attempted, Failed: r.failed, Rounds: rounds,
		Problems: r.problems, Correct: len(r.problems) == 0, EndToEnd: r.e2e, Timings: r.timings}
	if traced {
		res.PerLayer = r.layer
		if spanPath == "" {
			spanPath = filepath.Join(workRoot, "spans-"+workload+".json")
		}
		if err := r.tr.writeFile(spanPath, workload, seed, r.droppedSpans); err != nil {
			return result{}, fmt.Errorf("writing spans: %w", err)
		}
		res.SpanFile = spanPath
	}
	return res, nil
}
