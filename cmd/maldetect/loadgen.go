package main

// The loadgen subcommand: a load-generating client for maldetect
// serve, thin glue over internal/loadgen. The query population comes
// from the served model file (-model, so the run exercises the known-
// domain hot path) or a plain list file (-domains, one domain per
// line, for adversarial mixes). Ctrl-C ends the run early and still
// prints the report for what completed.

import (
	"bufio"
	"context"
	"flag"
	"fmt"
	"os"
	"os/signal"
	"strings"
	"syscall"
	"time"

	"repro/internal/core"
	"repro/internal/loadgen"
)

func runLoadgen(args []string) error {
	fs := flag.NewFlagSet("loadgen", flag.ExitOnError)
	var (
		baseURL     = fs.String("url", "http://127.0.0.1:8953", "base URL of the running daemon")
		modelPath   = fs.String("model", "", "model file; its retained domains become the query population")
		domainsPath = fs.String("domains", "", "file with one query domain per line (alternative to -model)")
		workers     = fs.Int("workers", 8, "concurrent request workers")
		conns       = fs.Int("conns", 0, "max HTTP connections (0 = workers)")
		qps         = fs.Float64("qps", 0, "target requests/sec via token bucket (0 = closed-loop)")
		duration    = fs.Duration("duration", 0, "run length in wall time")
		requests    = fs.Int64("n", 0, "run length in requests (with -duration: whichever trips first)")
		batch       = fs.Int("batch", 0, "domains per batch POST (0 or 1 = single-domain GETs)")
		ndjson      = fs.Bool("ndjson", false, "request the streamed NDJSON batch framing")
		retries     = fs.Int("retries", 0, "retries per request on transport errors and 503")
		backoff     = fs.Duration("backoff", 20*time.Millisecond, "base retry backoff (doubles per attempt)")
		timeout     = fs.Duration("timeout", 5*time.Second, "per-request timeout")
		jsonOut     = fs.Bool("json", false, "emit the report as JSON in the BENCH_*.json schema")
		name        = fs.String("name", "BenchmarkLoadgen", "benchmark name for -json output")
		check       = fs.Bool("check", false, "exit nonzero unless the run had successes and no errors")
	)
	if err := fs.Parse(args); err != nil {
		return err
	}
	if *duration <= 0 && *requests <= 0 {
		return fmt.Errorf("loadgen: set -duration and/or -n")
	}
	domains, err := loadgenDomains(*modelPath, *domainsPath)
	if err != nil {
		return err
	}
	fmt.Fprintf(os.Stderr, "maldetect: loadgen: %d query domains against %s\n", len(domains), *baseURL)

	// Ctrl-C / SIGTERM ends the run early; the report still prints.
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()

	rep, err := loadgen.Run(ctx, loadgen.Config{
		BaseURL:   *baseURL,
		Domains:   domains,
		Workers:   *workers,
		Conns:     *conns,
		TargetQPS: *qps,
		Duration:  *duration,
		Requests:  *requests,
		Batch:     *batch,
		NDJSON:    *ndjson,
		Retries:   *retries,
		Backoff:   *backoff,
		Timeout:   *timeout,
	})
	if err != nil {
		return err
	}
	if *jsonOut {
		out, err := rep.BenchJSON(*name)
		if err != nil {
			return err
		}
		if _, err := fmt.Println(string(out)); err != nil {
			return err
		}
		fmt.Fprintln(os.Stderr, rep.String())
	} else {
		if _, err := fmt.Println(rep.String()); err != nil {
			return err
		}
	}
	if *check {
		if rep.OK == 0 {
			return fmt.Errorf("loadgen: no successful requests (first error: %s)", rep.FirstError)
		}
		if rep.Errors > 0 {
			return fmt.Errorf("loadgen: %d failed requests (first error: %s)", rep.Errors, rep.FirstError)
		}
	}
	return nil
}

// loadgenDomains resolves the query population: the retained domains
// of a model file, or a plain one-per-line list.
func loadgenDomains(modelPath, domainsPath string) ([]string, error) {
	switch {
	case modelPath != "" && domainsPath != "":
		return nil, fmt.Errorf("loadgen: -model and -domains are mutually exclusive")
	case modelPath != "":
		sc, err := core.LoadScorerFile(modelPath)
		if err != nil {
			return nil, err
		}
		return sc.Domains(), nil
	case domainsPath != "":
		f, err := os.Open(domainsPath)
		if err != nil {
			return nil, err
		}
		defer f.Close()
		var out []string
		sc := bufio.NewScanner(f)
		for sc.Scan() {
			line := strings.TrimSpace(sc.Text())
			if line == "" || strings.HasPrefix(line, "#") {
				continue
			}
			out = append(out, line)
		}
		if err := sc.Err(); err != nil {
			return nil, err
		}
		if len(out) == 0 {
			return nil, fmt.Errorf("loadgen: %s holds no domains", domainsPath)
		}
		return out, nil
	default:
		return nil, fmt.Errorf("loadgen: give -model or -domains for the query population")
	}
}
