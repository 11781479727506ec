// Command bench is the repository's performance ledger: one program that
// takes a generated trace from bytes on disk to a model, to alerts on a
// feed, to per-day aggregates and to scores over a socket, and reports
// the end-to-end numbers and, traced, where the time goes layer by
// layer. BENCHMARK.json at the repository root is its contract; README.md
// in this directory explains the workloads, the metrics and what each
// layer metric is expected to move.
//
//	go run ./bench                                   all four workloads
//	go run ./bench -workload ingest-bulk -seed 11    one workload
//	go run ./bench -trace 1                          per-layer numbers + span files
//	go run ./bench -repeat 2                         run the set twice, compare to the bounds
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"runtime"
	"runtime/debug"
	"slices"
	"sort"
	"strings"
)

// workRoot holds everything a run writes, inside the checkout.
const workRoot = ".bench_work"

// defaultSeconds equals BENCHMARK.json's run_seconds.
const defaultSeconds = 24

// hostInfo is recorded with every ledger: a number means little without
// the machine it was taken on. GOMAXPROCS is what -procs set; CPUs are the
// CPUs the process is held to, one at a time, or empty when it is not held.
// Clients and Shards are the clamp applied to load connections and shard
// workers: no more of either than the benchmark has Ps.
type hostInfo struct {
	NProc      int    `json:"nproc"`
	GOMAXPROCS int    `json:"gomaxprocs"`
	CPUs       []int  `json:"cpus"`
	GoVersion  string `json:"go_version"`
	GOARCH     string `json:"goarch"`
	Commit     string `json:"git_commit"`
	Clients    int    `json:"clients"`
	Shards     int    `json:"shards"`
}

// confine applies -procs to the process and describes the result. One P
// (the default) also holds every thread to one CPU at a time: on the
// two-CPU virtual machines this runs on, a second busy thread (a GC
// worker, a second Hogwild worker, the peer of a loopback connection)
// slows the first by a third and at random, and what the benchmark then
// measures is how the two were scheduled (README.md, "The host"). The
// returned function undoes both.
func confine(procs int, stderr io.Writer) (hostInfo, func()) {
	nproc := runtime.NumCPU()
	if procs <= 0 || procs > nproc {
		procs = nproc
	}
	host := hostInfo{
		NProc: nproc, GOMAXPROCS: procs,
		GoVersion: runtime.Version(), GOARCH: runtime.GOARCH, Commit: gitCommit(),
		Clients: procs, Shards: min(procs, 4),
	}
	prev := runtime.GOMAXPROCS(procs)
	release := func() { runtime.GOMAXPROCS(prev) }
	if procs > 1 {
		return host, release
	}
	cpus, old, err := allowedCPUs()
	if err == nil {
		err = moveTo(cpus[0])
	}
	if err != nil {
		say(stderr, "bench: not held to one CPU: %v\n", err)
		return host, release
	}
	host.CPUs = cpus
	return host, func() {
		// Giving the mask back can only fail the way taking it did not.
		_ = setProcessAffinity(old)
		runtime.GOMAXPROCS(prev)
	}
}

// gitCommit finds the commit being measured: the build's VCS stamp when
// there is one, else .git/HEAD read directly (go run does not stamp), else
// "unknown" (the driver's checkout is not a repository).
func gitCommit() string {
	if bi, ok := debug.ReadBuildInfo(); ok {
		for _, s := range bi.Settings {
			if s.Key == "vcs.revision" {
				return s.Value
			}
		}
	}
	head, err := os.ReadFile(filepath.Join(".git", "HEAD"))
	if err != nil {
		return "unknown"
	}
	ref := strings.TrimSpace(string(head))
	if !strings.HasPrefix(ref, "ref: ") {
		return ref
	}
	b, err := os.ReadFile(filepath.Join(".git", strings.TrimPrefix(ref, "ref: ")))
	if err != nil {
		return "unknown"
	}
	return strings.TrimSpace(string(b))
}

// ledger is the -out document.
type ledger struct {
	Host    hostInfo   `json:"host"`
	Seconds float64    `json:"seconds"`
	Quick   bool       `json:"quick,omitempty"`
	Sets    [][]result `json:"sets"`
}

func main() { os.Exit(cli(os.Args[1:], os.Stdout, os.Stderr)) }

func cli(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("bench", flag.ContinueOnError)
	fs.SetOutput(stderr)
	var (
		workload = fs.String("workload", "all", "workload to run: "+strings.Join(workloadNames, ", ")+", or all")
		seed     = fs.Uint64("seed", 7, "seed every generated input derives from")
		seconds  = fs.Float64("seconds", defaultSeconds, "measuring time per run, shared by the four paths")
		procs    = fs.Int("procs", 1, "GOMAXPROCS, and the number of load connections; 1 also confines the process to one CPU, 0 means every CPU")
		trace    = fs.String("trace", "0", "0: end-to-end metrics; 1: per-layer metrics and a span file under "+workRoot+"; any other value: the same, spans written to that path")
		out      = fs.String("out", "", "also write the whole ledger (host block, every run, both metric sets) to this JSON file")
		repeat   = fs.Int("repeat", 1, "run the selected workloads this many times; with 2 or more, compare the even sets' medians with the odd sets' against the bounds")
		quick    = fs.Bool("quick", false, "tiny inputs, for the smoke test only")
	)
	if err := fs.Parse(args); err != nil {
		return 2
	}
	names := workloadNames
	if *workload != "all" {
		if !slices.Contains(workloadNames, *workload) {
			say(stderr, "bench: unknown workload %q (want %s, or all)\n", *workload, strings.Join(workloadNames, ", "))
			return 2
		}
		names = []string{*workload}
	}
	sc := fullScale
	if *quick {
		sc = quickScale
	}
	traced := *trace != "0"
	spanBase := ""
	if traced && *trace != "1" {
		spanBase = *trace
	}

	host, release := confine(*procs, stderr)
	defer release()
	doc := ledger{Host: host, Seconds: *seconds, Quick: *quick}
	say(stderr, "bench: host %+v\n", doc.Host)
	healthy := true
	for set := 0; set < *repeat; set++ {
		var results []result
		for _, name := range names {
			res, err := runWorkload(name, *seed, *seconds, sc, host, traced, spanPath(spanBase, name, set, len(names)**repeat > 1), stderr)
			if err != nil {
				say(stderr, "bench: %s: %v\n", name, err)
				return 1
			}
			healthy = report(res, traced, stdout, stderr) && healthy
			results = append(results, res)
		}
		doc.Sets = append(doc.Sets, results)
	}
	if *repeat > 1 {
		healthy = selfCheck(doc.Sets, stderr) && healthy
	}
	if *out != "" {
		b, err := json.MarshalIndent(doc, "", "  ")
		if err == nil {
			err = os.WriteFile(*out, append(b, '\n'), 0o644)
		}
		if err != nil {
			say(stderr, "bench: writing %s: %v\n", *out, err)
			return 1
		}
	}
	if !healthy {
		return 1
	}
	return 0
}

// spanPath names one run's span file when -trace gave a path: the path
// itself for a single run, else the path with the workload (and set)
// inserted before its extension.
func spanPath(base, workload string, set int, many bool) string {
	if base == "" || !many {
		return base
	}
	ext := filepath.Ext(base)
	return fmt.Sprintf("%s.%s.%d%s", strings.TrimSuffix(base, ext), workload, set, ext)
}

// report prints one run: the table on stderr, and on stdout the result
// line the driver reads (the last line of a single-workload invocation).
// It returns whether the run is correct and complete.
func report(res result, traced bool, stdout, stderr io.Writer) bool {
	defs, got := endToEnd, res.EndToEnd
	if traced {
		defs, got = perLayer, res.PerLayer
	}
	metrics, missing := withUnits(defs, got)
	say(stderr, "\n== %s  seed %d  attempted %d  failed %d  correct %v\n",
		res.Workload, res.Seed, res.Attempted, res.Failed, res.Correct)
	printTable(stderr, endToEnd, res.EndToEnd)
	names := make([]string, 0, len(res.Timings))
	for name := range res.Timings {
		names = append(names, name)
	}
	sort.Strings(names)
	for _, name := range names {
		t := res.Timings[name]
		say(stderr, "   ~ %-32s min %.6g s  median %.6g s", name, t.Min, t.Median)
		if t.TailPct > 0 {
			say(stderr, "  p%g %.6g s", t.TailPct, t.Tail)
		}
		say(stderr, "  n=%d\n", t.N)
	}
	if traced {
		printTable(stderr, perLayer, res.PerLayer)
		say(stderr, "   spans: %s\n", res.SpanFile)
	}
	for _, m := range missing {
		say(stderr, "bench: %s produced no %s\n", res.Workload, m)
	}
	line, err := json.Marshal(struct {
		Correct   bool             `json:"correct"`
		Attempted int              `json:"attempted"`
		Failed    int              `json:"failed"`
		Metrics   map[string]value `json:"metrics"`
	}{res.Correct && len(missing) == 0, res.Attempted, res.Failed, metrics})
	if err != nil {
		say(stderr, "bench: %v\n", err)
		return false
	}
	if _, err := fmt.Fprintf(stdout, "%s\n", line); err != nil {
		say(stderr, "bench: writing the result line: %v\n", err)
		return false
	}
	return res.Correct && len(missing) == 0
}

// say prints a diagnostic. Its write error is dropped: a terminal that
// cannot be written to has nowhere to report that.
func say(w io.Writer, format string, args ...any) {
	_, _ = fmt.Fprintf(w, format, args...)
}

func printTable(w io.Writer, defs []metricDef, got map[string]float64) {
	for _, d := range defs {
		if v, ok := got[d.Name]; ok {
			say(w, "   %-34s %16.6g %s\n", d.Name, v, d.Unit)
		}
	}
}

// selfCheck splits the sets into the even-numbered and the odd-numbered
// ones (so a slow drift of the host lands on both sides) and compares
// their medians metric by metric and workload by workload: two
// measurements of the same commit have to agree within the metric's
// bound. With -repeat 2 that is simply set 0 against set 1.
func selfCheck(sets [][]result, w io.Writer) bool {
	ok := true
	say(w, "\n== self-check: median of even sets vs median of odd sets (%d sets)\n   %-12s %-28s %14s %14s %8s %6s\n",
		len(sets), "workload", "metric", "even", "odd", "gap", "bound")
	for i, first := range sets[0] {
		for _, d := range endToEnd {
			var sides [2][]float64
			for n, set := range sets {
				sides[n%2] = append(sides[n%2], set[i].EndToEnd[d.Name])
			}
			a, b := median(sides[0]), median(sides[1])
			gap := 0.0
			if a != 0 {
				gap = (b - a) / a
			}
			verdict := ""
			if gap > d.Bound || gap < -d.Bound {
				verdict, ok = "  EXCEEDS", false
			}
			say(w, "   %-12s %-28s %14.6g %14.6g %+7.1f%% %5.0f%%%s\n",
				first.Workload, d.Name, a, b, 100*gap, 100*d.Bound, verdict)
		}
	}
	return ok
}
