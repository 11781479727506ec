package main

// The stream subcommand: crash-safe day-by-day detection. It replays a
// trace through stream.Rolling, appends alerts to a feed file as each
// day boundary remodels, and (with -checkpoint) persists a checkpoint
// after every boundary. Killed at any point — even with kill -9 mid
// model build — a restart with the same flags resumes from the latest
// checkpoint and produces a byte-identical feed: the feed is truncated
// to the checkpointed offset, the trace is replayed (the restored
// detector ignores already-covered days), and the remaining boundaries
// re-run deterministically (a build is a pure function of its window,
// flags and seed).

import (
	"bufio"
	"errors"
	"flag"
	"fmt"
	"io"
	"os"
	"sort"
	"strconv"
	"time"

	"repro/internal/core"
	"repro/internal/dhcp"
	"repro/internal/pipeline"
	"repro/internal/stream"
)

// traceWindow scans the trace once and reports its day-aligned start,
// day count, and observation count. Days are counted from the aligned
// start, so the count covers the day of the last observation even when
// the trace does not begin at UTC midnight.
func traceWindow(tracePath string) (start time.Time, days, n int, err error) {
	f, err := os.Open(tracePath)
	if err != nil {
		return time.Time{}, 0, 0, err
	}
	defer f.Close()
	var first, last time.Time
	if err := pipeline.ReadLog(f, func(in pipeline.Input) {
		if n == 0 || in.Time.Before(first) {
			first = in.Time
		}
		if in.Time.After(last) {
			last = in.Time
		}
		n++
	}); err != nil {
		return time.Time{}, 0, 0, err
	}
	if n == 0 {
		return time.Time{}, 0, 0, fmt.Errorf("trace %s is empty", tracePath)
	}
	start = first.Truncate(24 * time.Hour)
	return start, int(last.Sub(start)/(24*time.Hour)) + 1, n, nil
}

// lagIntel keeps only the first frac share of malicious labels (in
// sorted domain order, so the subset is stable across runs) and every
// benign label: threat intel in the field lags reality, and the alert
// feed exists to surface the domains intel has not caught up with.
func lagIntel(truth map[string]int, frac float64) map[string]int {
	var malicious []string
	for d, lab := range truth {
		if lab == 1 {
			malicious = append(malicious, d)
		}
	}
	sort.Strings(malicious)
	keep := int(frac * float64(len(malicious)))
	out := make(map[string]int, len(truth))
	for d, lab := range truth {
		if lab == 0 {
			out[d] = lab
		}
	}
	for _, d := range malicious[:min(keep, len(malicious))] {
		out[d] = 1
	}
	return out
}

// loadResolver reads the optional DHCP lease log.
func loadResolver(dhcpPath string) (*dhcp.Resolver, error) {
	if dhcpPath == "" {
		return nil, nil
	}
	leases, err := readLeases(dhcpPath)
	if err != nil {
		return nil, err
	}
	fmt.Fprintf(os.Stderr, "maldetect: loaded %d DHCP leases\n", len(leases))
	return dhcp.NewResolver(leases), nil
}

func runStream(args []string) error {
	fs := flag.NewFlagSet("stream", flag.ExitOnError)
	var (
		tracePath = fs.String("trace", "trace.tsv", "input trace (text log format)")
		truthPath = fs.String("truth", "truth.tsv", "ground-truth labels (the intel feed)")
		dhcpPath  = fs.String("dhcp", "", "DHCP lease log for device pinning (optional)")
		seed      = fs.Uint64("seed", 1, "seed for embedding/SVM")
		window    = fs.Int("window", 2, "rolling window in days")
		dim       = fs.Int("dim", 16, "embedding dimension")
		samples   = fs.Int("samples", 0, "LINE SGD sample budget (0 = auto)")
		feedPath  = fs.String("feed", "alerts.tsv", "alert feed output (TSV: day, domain, score)")
		ckptPath  = fs.String("checkpoint", "", "checkpoint file: written after every day boundary, resumed from on start")
		intelFrac = fs.Float64("intel-frac", 0.5,
			"fraction of malicious truth labels known to the labeler, in [0, 1] (simulates lagging intel; the rest can surface as alerts)")
	)
	sel := stageFlags(fs)
	if err := fs.Parse(args); err != nil {
		return err
	}
	if !(*intelFrac >= 0 && *intelFrac <= 1) {
		return fmt.Errorf("-intel-frac %v: want a fraction in [0, 1]", *intelFrac)
	}

	truth, err := readTruth(*truthPath)
	if err != nil {
		return err
	}
	truth = lagIntel(truth, *intelFrac)
	resolver, err := loadResolver(*dhcpPath)
	if err != nil {
		return err
	}
	start, days, n, err := traceWindow(*tracePath)
	if err != nil {
		return err
	}

	cfg := stream.Config{
		Start:      start,
		WindowDays: *window,
		Detector: core.Config{
			Seed:         *seed,
			EmbedDim:     *dim,
			EmbedSamples: *samples,
			DHCP:         resolver,
			Embedder:     sel.embedder,
			Classifier:   sel.classifier,
			Views:        sel.views,
		},
		Labeler: func(candidates []string) ([]string, []int) {
			var outD []string
			var outL []int
			for _, c := range candidates {
				if lab, ok := truth[c]; ok {
					outD = append(outD, c)
					outL = append(outL, lab)
				}
			}
			return outD, outL
		},
	}

	// Resume from the latest checkpoint when one exists; a missing file
	// is a cold start, anything else (corrupt file, changed flags) is a
	// hard error the operator must resolve.
	var r *stream.Rolling
	var cur stream.Cursor
	if *ckptPath != "" {
		switch rr, c, rerr := stream.RestoreFile(*ckptPath, cfg); {
		case rerr == nil:
			r, cur = rr, c
			fmt.Fprintf(os.Stderr, "maldetect: resumed from %s (through day %d, feed offset %d)\n",
				*ckptPath, c.Day, c.FeedBytes)
		case os.IsNotExist(rerr):
			// Cold start.
		default:
			return fmt.Errorf("restoring %s: %w", *ckptPath, rerr)
		}
	}
	if r == nil {
		if r, err = stream.New(cfg); err != nil {
			return err
		}
	}

	// The feed picks up exactly where the checkpoint left it: alerts
	// written after the checkpointed offset belong to boundaries that
	// will re-run, so they are discarded and regenerated identically.
	feed, err := os.OpenFile(*feedPath, os.O_RDWR|os.O_CREATE, 0o644)
	if err != nil {
		return err
	}
	defer feed.Close()
	if err := feed.Truncate(cur.FeedBytes); err != nil {
		return err
	}
	if _, err := feed.Seek(cur.FeedBytes, io.SeekStart); err != nil {
		return err
	}

	// Replay the whole trace; the detector drops days the checkpoint
	// already covers.
	tf, err := os.Open(*tracePath)
	if err != nil {
		return err
	}
	if err := pipeline.ReadLog(tf, r.Consume); err != nil {
		_ = tf.Close()
		return err
	}
	if err := tf.Close(); err != nil {
		return err
	}
	fmt.Fprintf(os.Stderr, "maldetect: consumed %d observations over %d days\n", n, days)

	w := bufio.NewWriter(feed)
	alertsTotal, degradedDays := 0, 0
	for day := r.ConsumedThrough() + 1; day < days; day++ {
		alerts, err := r.EndOfDay(day)
		if err != nil {
			// A degraded day produced no model and no alerts, but the
			// stream stays healthy; anything else is fatal.
			var de *stream.DegradedError
			if !errors.As(err, &de) {
				return err
			}
			degradedDays++
			fmt.Fprintf(os.Stderr, "maldetect: %v (continuing)\n", de)
		}
		for _, a := range alerts {
			if _, err := fmt.Fprintf(w, "%d\t%s\t%s\n",
				a.Day, a.Domain, strconv.FormatFloat(a.Score, 'g', -1, 64)); err != nil {
				return err
			}
		}
		alertsTotal += len(alerts)
		// Durability order: the feed reaches disk before the checkpoint
		// that covers it, so a crash between the two only ever replays.
		if err := w.Flush(); err != nil {
			return err
		}
		if err := feed.Sync(); err != nil {
			return err
		}
		if *ckptPath != "" {
			off, err := feed.Seek(0, io.SeekCurrent)
			if err != nil {
				return err
			}
			if err := r.WriteCheckpoint(*ckptPath, stream.Cursor{Day: day, FeedBytes: off}); err != nil {
				return err
			}
		}
		fmt.Fprintf(os.Stderr, "maldetect: day %d: %d alerts\n", day, len(alerts))
	}
	if err := feed.Close(); err != nil {
		return err
	}
	fmt.Printf("stream complete: %d alerts over %d days (%d degraded) -> %s\n",
		alertsTotal, days, degradedDays, *feedPath)
	return nil
}
