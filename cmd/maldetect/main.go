// Command maldetect runs the paper's end-to-end detection pipeline on a
// DNS trace in the text log format written by cmd/dnsgen.
//
// Usage:
//
//	maldetect -trace trace.tsv -truth truth.tsv [-train-frac 0.7] [-seed N] [-top 25]
//	maldetect train -trace trace.tsv -truth truth.tsv -out model.bin [-dhcp leases.tsv] [-seed N]
//	maldetect score -model model.bin [-top 25] [domain ...]
//	maldetect serve -model model.bin [-addr 127.0.0.1:8953] [-max-inflight 256] [-timeout 5s] [-drain 10s] [-max-batch 10000] [-foldin-cap N] [-foldin-ttl 15m] [-pprof]
//	maldetect stream -trace trace.tsv -truth truth.tsv [-window 2] [-dim 16] [-feed alerts.tsv] [-checkpoint stream.ckpt] [-shards N]
//
// The default (no subcommand) mode builds the model, trains the SVM on a
// random train-frac fraction (in (0, 1)) of the labeled domains, and
// scores the held-out rest, printing the top suspicious domains and
// held-out AUC.
//
// train and stream accept -embedder/-classifier/-views to select
// registered stage backends (core's pluggable registry); backends
// lists every registration. The defaults reproduce the paper's
// LINE+SVM pipeline.
//
// The train subcommand builds the model, trains the SVM on every labeled
// retained domain, and persists the full model (domain set, per-view
// embeddings, classifier, config fingerprint) to -out; score loads such
// a file and serves decision values for the given domains — or ranks all
// retained domains when none are given — without rebuilding anything.
// Explicitly queried domains print the full verdict: score, label,
// confidence, and source (always "model" from a persisted file).
// Every model build prints a per-stage report (wall time, vertex/edge/
// sample counts) to stderr.
//
// The serve subcommand runs the scoring daemon (internal/serve) on a
// persisted model: GET /v1/score/{domain} and POST /v1/score/batch
// answer scoring queries, POST /v1/observe accepts fold-in evidence so
// domains outside the model still get a provisional verdict (-foldin-cap
// and -foldin-ttl bound the evidence cache), SIGHUP or POST /v1/reload
// hot-swaps the model file without dropping in-flight requests,
// /healthz/live, /healthz/ready (alias /healthz), and /metrics
// (Prometheus text) expose operational state, and
// SIGINT/SIGTERM drain gracefully. The bound address is printed to
// stderr, so -addr with port 0 works for smoke tests. docs/api.md is
// the wire-format reference.
//
// The stream subcommand runs the crash-safe rolling detector
// (internal/stream) day by day over the trace, appending alerts to a
// feed file. With -checkpoint, a checkpoint is written atomically after
// every day boundary and a restart resumes from it, reproducing the
// feed byte-identically (see stream.go). With -shards N (N > 1),
// ingestion runs through the shard pool (internal/shard): the trace is
// partitioned by device across N goroutines whose per-day aggregates
// are merged at each day boundary, and the output — feed and
// checkpoint alike — stays byte-identical to a serial run. A panic in
// one of those goroutines is fatal before that day's checkpoint is
// written; a restart resumes from the previous one like any crash.
package main

import (
	"bufio"
	"context"
	"flag"
	"fmt"
	"net"
	"os"
	"os/signal"
	"sort"
	"strings"
	"syscall"
	"time"

	"repro/internal/core"
	"repro/internal/dhcp"
	"repro/internal/eval"
	"repro/internal/mathx"
	"repro/internal/pipeline"
	"repro/internal/serve"
)

func main() {
	var err error
	if len(os.Args) > 1 && !strings.HasPrefix(os.Args[1], "-") {
		switch os.Args[1] {
		case "train":
			err = runTrain(os.Args[2:])
		case "score":
			err = runScore(os.Args[2:])
		case "serve":
			err = runServe(os.Args[2:])
		case "stream":
			err = runStream(os.Args[2:])
		case "backends":
			err = runBackends(os.Args[2:])
		default:
			err = fmt.Errorf("unknown subcommand %q (want train, score, serve, stream, or backends)", os.Args[1])
		}
	} else {
		var (
			tracePath = flag.String("trace", "trace.tsv", "input trace (text log format)")
			truthPath = flag.String("truth", "truth.tsv", "ground-truth labels")
			dhcpPath  = flag.String("dhcp", "", "DHCP lease log for device pinning (optional)")
			trainFrac = flag.Float64("train-frac", 0.7, "fraction of labeled domains used for training, in (0, 1); the rest is held out")
			seed      = flag.Uint64("seed", 1, "seed for embedding/SVM/shuffle")
			top       = flag.Int("top", 25, "suspicious domains to print")
		)
		flag.Parse()
		err = run(*tracePath, *truthPath, *dhcpPath, *trainFrac, *seed, *top)
	}
	if err != nil {
		fmt.Fprintln(os.Stderr, "maldetect:", err)
		os.Exit(1)
	}
}

// loadDetector reads the trace (two passes: one to discover the capture
// window, one to consume), builds the model, and prints the per-stage
// build report.
func loadDetector(tracePath, dhcpPath string, seed uint64, sel stageSelection) (*core.Detector, error) {
	start, days, n, err := traceWindow(tracePath)
	if err != nil {
		return nil, err
	}
	resolver, err := loadResolver(dhcpPath)
	if err != nil {
		return nil, err
	}

	det := core.NewDetector(core.Config{
		Start: start, Days: days, DHCP: resolver, Seed: seed,
		Embedder: sel.embedder, Classifier: sel.classifier, Views: sel.views,
	})
	f, err := os.Open(tracePath)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	if err := pipeline.ReadLog(f, det.Consume); err != nil {
		return nil, err
	}
	fmt.Fprintf(os.Stderr, "maldetect: consumed %d observations over %d days\n", n, days)

	if err := det.BuildModel(); err != nil {
		return nil, err
	}
	printBuildReport(det)
	stats, err := det.Stats()
	if err != nil {
		return nil, err
	}
	fmt.Fprintf(os.Stderr, "maldetect: %d devices, %d observed e2LDs, %d retained\n",
		stats.Devices, stats.ObservedE2LDs, stats.RetainedE2LDs)
	return det, nil
}

// printBuildReport writes the staged-build timing table to stderr.
func printBuildReport(det *core.Detector) {
	report, err := det.BuildReport()
	if err != nil {
		return
	}
	fmt.Fprintln(os.Stderr, "maldetect: build stages:")
	for _, st := range report.Stages {
		line := fmt.Sprintf("  %-14s %12s  %7d vertices  %8d edges", st.Name,
			st.Duration.Round(time.Microsecond), st.Vertices, st.Edges)
		if st.Samples > 0 {
			line += fmt.Sprintf("  %9d samples", st.Samples)
		}
		fmt.Fprintln(os.Stderr, line)
	}
	fmt.Fprintf(os.Stderr, "  %-14s %12s\n", "total", report.Total.Round(time.Microsecond))
}

// labeledRetained intersects the truth file with the retained domain set.
func labeledRetained(det *core.Detector, truthPath string) ([]string, []int, error) {
	truth, err := readTruth(truthPath)
	if err != nil {
		return nil, nil, err
	}
	retained, err := det.Domains()
	if err != nil {
		return nil, nil, err
	}
	var domains []string
	var labels []int
	for _, d := range retained {
		if lab, ok := truth[d]; ok {
			domains = append(domains, d)
			labels = append(labels, lab)
		}
	}
	return domains, labels, nil
}

// runTrain builds a model from a trace, trains the classifier on every
// labeled retained domain, and persists the result for score.
func runTrain(args []string) error {
	fs := flag.NewFlagSet("train", flag.ExitOnError)
	var (
		tracePath = fs.String("trace", "trace.tsv", "input trace (text log format)")
		truthPath = fs.String("truth", "truth.tsv", "ground-truth labels")
		dhcpPath  = fs.String("dhcp", "", "DHCP lease log for device pinning (optional)")
		seed      = fs.Uint64("seed", 1, "seed for embedding/SVM")
		outPath   = fs.String("out", "model.bin", "output model file")
	)
	sel := stageFlags(fs)
	if err := fs.Parse(args); err != nil {
		return err
	}
	det, err := loadDetector(*tracePath, *dhcpPath, *seed, *sel)
	if err != nil {
		return err
	}
	domains, labels, err := labeledRetained(det, *truthPath)
	if err != nil {
		return err
	}
	if len(domains) < 2 {
		return fmt.Errorf("only %d labeled retained domains", len(domains))
	}
	clf, err := det.TrainClassifier(domains, labels)
	if err != nil {
		return err
	}
	fmt.Fprintf(os.Stderr, "maldetect: trained on %d domains (%s)\n",
		len(clf.Used), classifierSummary(clf))

	size, err := core.SaveModelFile(*outPath, det, clf)
	if err != nil {
		return err
	}
	fmt.Printf("saved model: %s (%d bytes, %d domains)\n", *outPath, size, len(mustDomains(det)))
	fmt.Printf("fingerprint: %s\n", det.Config().Fingerprint())
	return nil
}

func mustDomains(det *core.Detector) []string {
	d, _ := det.Domains()
	return d
}

// runScore loads a persisted model and serves decision values: for the
// domains given as arguments, or ranked over every retained domain.
func runScore(args []string) error {
	fs := flag.NewFlagSet("score", flag.ExitOnError)
	var (
		modelPath = fs.String("model", "model.bin", "model file written by train")
		top       = fs.Int("top", 25, "domains to print when ranking the whole model")
	)
	if err := fs.Parse(args); err != nil {
		return err
	}
	sc, err := core.LoadScorerFile(*modelPath)
	if err != nil {
		return err
	}
	fmt.Fprintf(os.Stderr, "maldetect: loaded model with %d domains\n", len(sc.Domains()))
	fmt.Fprintf(os.Stderr, "maldetect: fingerprint: %s\n", sc.Fingerprint())
	fmt.Fprintf(os.Stderr, "maldetect: backends: embedder=%s classifier=%s\n",
		sc.EmbedderName(), sc.ClassifierName())

	if fs.NArg() > 0 {
		for _, d := range fs.Args() {
			res, ok := sc.Result(d)
			if !ok {
				fmt.Printf("%-36s not in model\n", d)
				continue
			}
			verdict := "benign"
			if res.Label == 1 {
				verdict = "malicious"
			}
			fmt.Printf("%-36s %10.4f  %-9s  conf %.2f  %s\n",
				d, res.Score, verdict, res.Confidence, res.Source)
		}
		return nil
	}

	type scored struct {
		domain string
		score  float64
	}
	var results []scored
	for _, d := range sc.Domains() {
		if s, ok := sc.Score(d); ok {
			results = append(results, scored{d, s})
		}
	}
	sort.Slice(results, func(i, j int) bool { return results[i].score > results[j].score })
	fmt.Printf("top %d suspicious domains:\n", *top)
	fmt.Printf("%-36s %10s\n", "domain", "score")
	for i, r := range results {
		if i >= *top {
			break
		}
		fmt.Printf("%-36s %10.4f\n", r.domain, r.score)
	}
	return nil
}

// runServe starts the model-serving daemon and blocks until a
// terminating signal drains it. SIGHUP hot-reloads the model file; a
// failed reload keeps the current model serving.
func runServe(args []string) error {
	fs := flag.NewFlagSet("serve", flag.ExitOnError)
	var (
		modelPath   = fs.String("model", "model.bin", "model file written by train")
		addr        = fs.String("addr", "127.0.0.1:8953", "listen address (port 0 picks an ephemeral port)")
		maxInflight = fs.Int("max-inflight", 256, "max concurrent scoring requests before shedding with 503")
		reqTimeout  = fs.Duration("timeout", 5*time.Second, "deadline for reading a POST request body (batch and observe)")
		drain       = fs.Duration("drain", 10*time.Second, "graceful-shutdown drain deadline")
		maxBatch    = fs.Int("max-batch", 10000, "max domains per batch request (bodies are capped at 64+260*max-batch bytes)")
		foldinCap   = fs.Int("foldin-cap", 0, "max fold-in cache entries (0 = default 65536)")
		foldinTTL   = fs.Duration("foldin-ttl", 0, "fold-in evidence lifetime (0 = default 15m)")
		pprofOn     = fs.Bool("pprof", false, "expose /debug/pprof/")
	)
	if err := fs.Parse(args); err != nil {
		return err
	}
	logf := func(format string, a ...any) {
		fmt.Fprintf(os.Stderr, "maldetect: "+format+"\n", a...)
	}
	srv, err := serve.New(serve.Config{
		ModelPath:        *modelPath,
		MaxInFlight:      *maxInflight,
		RequestTimeout:   *reqTimeout,
		DrainTimeout:     *drain,
		MaxBatch:         *maxBatch,
		FoldInMaxEntries: *foldinCap,
		FoldInTTL:        *foldinTTL,
		EnablePprof:      *pprofOn,
		Logf:             logf,
	})
	if err != nil {
		return err
	}
	l, err := net.Listen("tcp", *addr)
	if err != nil {
		return err
	}
	logf("loaded model %s: %d domains", *modelPath, len(srv.Scorer().Domains()))
	logf("fingerprint: %s", srv.Scorer().Fingerprint())
	logf("serving on http://%s", l.Addr())

	sigs := make(chan os.Signal, 1)
	signal.Notify(sigs, os.Interrupt, syscall.SIGTERM, syscall.SIGHUP)
	shutdownErr := make(chan error, 1)
	go func() {
		for sig := range sigs {
			if sig == syscall.SIGHUP {
				// Reload logs its own outcome; a failure keeps serving.
				_ = srv.Reload()
				continue
			}
			logf("received %v", sig)
			shutdownErr <- srv.Shutdown(context.Background())
			return
		}
	}()

	if err := srv.Serve(l); err != nil {
		return err
	}
	// Serve returned cleanly, meaning Shutdown ran; surface its error
	// (nil unless the drain deadline expired).
	return <-shutdownErr
}

func run(tracePath, truthPath, dhcpPath string, trainFrac float64, seed uint64, top int) error {
	if !(trainFrac > 0 && trainFrac < 1) {
		return fmt.Errorf("-train-frac %v: want a fraction in (0, 1), leaving domains to hold out", trainFrac)
	}
	det, err := loadDetector(tracePath, dhcpPath, seed, stageSelection{})
	if err != nil {
		return err
	}
	domains, labels, err := labeledRetained(det, truthPath)
	if err != nil {
		return err
	}
	if len(domains) < 10 {
		return fmt.Errorf("only %d labeled retained domains", len(domains))
	}

	// Random train/test split (not stratified: either side may lack a
	// class on a small trace, which the AUC line then reports).
	rng := mathx.NewRNG(seed).SplitLabeled("split")
	perm := rng.Perm(len(domains))
	var trainD, testD []string
	var trainY, testY []int
	cut := int(trainFrac * float64(len(domains)))
	for i, p := range perm {
		if i < cut {
			trainD = append(trainD, domains[p])
			trainY = append(trainY, labels[p])
		} else {
			testD = append(testD, domains[p])
			testY = append(testY, labels[p])
		}
	}

	clf, err := det.TrainClassifier(trainD, trainY)
	if err != nil {
		return err
	}
	fmt.Fprintf(os.Stderr, "maldetect: trained on %d domains (%s)\n",
		len(clf.Used), classifierSummary(clf))

	type scored struct {
		domain string
		score  float64
		label  int
	}
	var results []scored
	var scores []float64
	var ys []int
	for i, d := range testD {
		s, ok := clf.Score(d)
		if !ok {
			continue
		}
		results = append(results, scored{d, s, testY[i]})
		scores = append(scores, s)
		ys = append(ys, testY[i])
	}
	if auc, err := eval.AUC(scores, ys); err != nil {
		fmt.Printf("held-out AUC: unavailable over %d domains: %v\n", len(scores), err)
	} else {
		fmt.Printf("held-out AUC: %.4f over %d domains\n", auc, len(scores))
	}
	sort.Slice(results, func(i, j int) bool { return results[i].score > results[j].score })
	fmt.Printf("\ntop %d suspicious held-out domains:\n", top)
	fmt.Printf("%-36s %10s  %s\n", "domain", "score", "truth")
	for i, r := range results {
		if i >= top {
			break
		}
		lab := "benign"
		if r.label == 1 {
			lab = "malicious"
		}
		fmt.Printf("%-36s %10.4f  %s\n", r.domain, r.score, lab)
	}
	return nil
}

// readLeases parses the DHCP lease log written by cmd/dnsgen:
// MAC, IP, start, end (RFC 3339), tab-separated.
func readLeases(path string) ([]dhcp.Lease, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	var out []dhcp.Lease
	sc := bufio.NewScanner(f)
	lineNo := 0
	for sc.Scan() {
		lineNo++
		line := sc.Text()
		if line == "" || strings.HasPrefix(line, "#") {
			continue
		}
		fields := strings.Split(line, "\t")
		if len(fields) != 4 {
			return nil, fmt.Errorf("dhcp line %d: want 4 fields, got %d", lineNo, len(fields))
		}
		start, err := time.Parse(time.RFC3339, fields[2])
		if err != nil {
			return nil, fmt.Errorf("dhcp line %d: bad start: %w", lineNo, err)
		}
		end, err := time.Parse(time.RFC3339, fields[3])
		if err != nil {
			return nil, fmt.Errorf("dhcp line %d: bad end: %w", lineNo, err)
		}
		out = append(out, dhcp.Lease{MAC: fields[0], IP: fields[1], Start: start, End: end})
	}
	return out, sc.Err()
}

func readTruth(path string) (map[string]int, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	out := make(map[string]int)
	sc := bufio.NewScanner(f)
	lineNo := 0
	for sc.Scan() {
		lineNo++
		line := sc.Text()
		if line == "" || strings.HasPrefix(line, "#") {
			continue
		}
		fields := strings.Split(line, "\t")
		if len(fields) < 2 {
			return nil, fmt.Errorf("truth line %d: want at least 2 fields", lineNo)
		}
		switch fields[1] {
		case "malicious":
			out[fields[0]] = 1
		case "benign":
			out[fields[0]] = 0
		default:
			return nil, fmt.Errorf("truth line %d: unknown label %q", lineNo, fields[1])
		}
	}
	return out, sc.Err()
}
