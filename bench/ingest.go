package main

import (
	"crypto/sha256"
	"encoding/binary"
	"fmt"
	"runtime"
	"sort"
	"strconv"
	"time"

	"repro/internal/obsv"
	"repro/internal/pipeline"
	"repro/internal/shard"
)

// aggregateDigest hashes per-domain aggregates in sorted e2LD order:
// counts and set sizes, which are what the graphs are built from. It is
// independent of the order the processors saw events in, of how they
// were sharded, and of map iteration order.
func aggregateDigest(stats map[string]*pipeline.DomainStats) [sha256.Size]byte {
	names := make([]string, 0, len(stats))
	for d := range stats {
		names = append(names, d)
	}
	sort.Strings(names)
	h := sha256.New()
	var buf [8]byte
	for _, d := range names {
		st := stats[d]
		_, _ = h.Write([]byte(d)) // hash.Hash.Write never fails
		for _, n := range []int{st.QueryCount, st.NXCount, len(st.Hosts), len(st.IPs),
			len(st.Minutes), len(st.FQDNs), len(st.TTLVals), st.AnswerCountSum} {
			binary.LittleEndian.PutUint64(buf[:], uint64(n))
			_, _ = h.Write(buf[:]) // hash.Hash.Write never fails
		}
	}
	var out [sha256.Size]byte
	copy(out[:], h.Sum(nil))
	return out
}

func dayOf(start time.Time, t time.Time) int {
	if d := int(t.Sub(start) / (24 * time.Hour)); d > 0 {
		return d
	}
	return 0
}

// ingestPass is what one pass over the bulk trace yields.
type ingestPass struct {
	wall    float64               // seconds
	days    []float64             // seconds from a day's first event to the next day's, serial passes only
	procs   []*pipeline.Processor // one per day, day order
	dropped int
}

func (p ingestPass) skipped() int {
	n := 0
	for _, proc := range p.procs {
		n += proc.Skipped()
	}
	return n
}

// serialPass aggregates the bulk trace into one pipeline.Processor per
// day on the calling goroutine: the path Rolling.Consume takes.
func (r *run) serialPass(tr *tracer, pass int) (ingestPass, error) {
	tf := r.fx.bulk
	days := make([]*pipeline.Processor, tf.days)
	sink := func(in pipeline.Input) {
		day := min(dayOf(tf.start, in.Time), tf.days-1)
		if days[day] == nil {
			days[day] = pipeline.NewProcessor(pipeline.Config{Start: tf.start, Days: day + 1, DHCP: tf.dhcp})
		}
		days[day].Consume(in)
	}
	var busy time.Duration
	consume := timedSink(tr, sink, &busy)
	// The trace is time-sorted, so a day's share of the pass runs from its
	// first event to the next day's.
	perDay := make([]float64, tf.days)
	current := 0
	root := tr.begin(wlIngest, "serial", -1, pass)
	t0 := time.Now()
	mark := t0
	err := readLog(tr, wlIngest, tf, func(in pipeline.Input) {
		if day := min(dayOf(tf.start, in.Time), tf.days-1); day > current {
			now := time.Now()
			perDay[current] += now.Sub(mark).Seconds()
			mark, current = now, day
		}
		consume(in)
	}, "pipeline.Processor.Consume", &busy, root, pass)
	tr.end(root)
	end := time.Now()
	perDay[current] += end.Sub(mark).Seconds()
	return ingestPass{wall: end.Sub(t0).Seconds(), days: perDay, procs: compact(days)}, err
}

func compact(days []*pipeline.Processor) []*pipeline.Processor {
	var out []*pipeline.Processor
	for _, p := range days {
		if p != nil {
			out = append(out, p)
		}
	}
	return out
}

// shardedPass pushes the bulk trace through a shard.Pool, closing each
// day as the time-sorted trace moves past it. The wall time includes the
// day barriers and the shard merges.
func (r *run) shardedPass(tr *tracer, pass, shards int, reg *obsv.Registry) (ingestPass, error) {
	tf := r.fx.bulk
	pool, err := shard.New(shard.Config{Shards: shards, Start: tf.start, DHCP: tf.dhcp, Seed: r.fx.seed, Metrics: reg})
	if err != nil {
		return ingestPass{}, err
	}
	defer pool.Close()

	var out ingestPass
	var closeErr error
	root := tr.begin(wlIngest, "sharded", -1, pass)
	closeDay := func(day int) {
		sp := tr.begin(wlIngest, "shard.Pool.CloseDay", root, pass)
		merged, deg, err := pool.CloseDay(day)
		tr.end(sp)
		if err != nil && closeErr == nil {
			closeErr = err
		}
		if deg != nil {
			out.dropped += deg.Dropped
		}
		if merged != nil {
			out.procs = append(out.procs, merged)
		}
	}
	var busy time.Duration
	current, consume := 0, timedSink(tr, pool.Consume, &busy)
	sink := func(in pipeline.Input) {
		for day := min(dayOf(tf.start, in.Time), tf.days-1); current < day; current++ {
			closeDay(current)
		}
		consume(in)
	}
	t0 := time.Now()
	err = readLog(tr, wlIngest, tf, sink, "shard.Pool.Consume", &busy, root, pass)
	closeDay(current)
	out.wall = time.Since(t0).Seconds()
	tr.end(root)
	if err == nil {
		err = closeErr
	}
	if err == nil {
		err = pool.Close()
	}
	return out, err
}

// daysDigest folds the per-day aggregate digests, in day order.
func daysDigest(days []*pipeline.Processor) [sha256.Size]byte {
	h := sha256.New()
	for _, p := range days {
		d := aggregateDigest(p.Stats())
		_, _ = h.Write(d[:]) // hash.Hash.Write never fails
	}
	var out [sha256.Size]byte
	copy(out[:], h.Sum(nil))
	return out
}

// ingestPath is the ingest-bulk path's state across rounds.
type ingestPath struct {
	reg               *obsv.Registry
	serial, sharded   unitWalls   // pass wall times
	byDay             [][]float64 // plain serial passes' seconds by day
	want              [sha256.Size]byte
	serialSkipped     int
	passes            int
	attempted, failed int
}

// ingestUnit is one serial pass over the bulk trace and, in a traced run,
// one pass through the shard pool (the pool has layer metrics only), every
// pass's aggregates digested and compared with the first serial pass's.
func (r *run) ingestUnit(tr *tracer, pass int) error {
	ig, tf := &r.ingest, r.fx.bulk
	if ig.reg == nil {
		ig.reg = obsv.NewRegistry()
	}
	var mem0, mem1 runtime.MemStats
	if tr != nil {
		runtime.ReadMemStats(&mem0)
	}
	sp, err := r.serialPass(tr, pass)
	if err != nil {
		return fmt.Errorf("serial pass: %w", err)
	}
	if tr != nil {
		runtime.ReadMemStats(&mem1)
		r.layer["pipeline.allocs_per_event"] = float64(mem1.Mallocs-mem0.Mallocs) / float64(tf.events)
		r.layer["pipeline.bytes_per_event"] = float64(mem1.TotalAlloc-mem0.TotalAlloc) / float64(tf.events)
		if err := r.mergeLayers(sp); err != nil {
			return err
		}
	}
	got, skipped := daysDigest(sp.procs), sp.skipped()
	if ig.passes == 0 {
		ig.want, ig.serialSkipped = got, skipped
	} else if got != ig.want {
		r.problem("ingest-bulk serial pass %d: aggregate digest %x differs from pass 0's %x", pass, got[:8], ig.want[:8])
	}
	ig.passes++
	ig.serial.add(tr != nil, sp.wall)
	if tr == nil {
		if ig.byDay == nil {
			ig.byDay = make([][]float64, len(sp.days))
		}
		for day, d := range sp.days {
			ig.byDay[day] = append(ig.byDay[day], d)
		}
	}
	ig.attempted += tf.events
	ig.failed += max(skipped-ig.serialSkipped, 0)
	if r.tr == nil {
		return nil
	}

	sp.procs = nil
	runtime.GC()
	hp, err := r.shardedPass(tr, pass, r.host.Shards, ig.reg)
	if err != nil {
		return fmt.Errorf("sharded pass: %w", err)
	}
	ig.sharded.add(tr != nil, hp.wall)
	ig.attempted += tf.events
	ig.failed += hp.dropped + max(hp.skipped()-ig.serialSkipped, 0)
	if got := daysDigest(hp.procs); got != ig.want {
		r.problem("ingest-bulk sharded pass %d: aggregate digest %x differs from serial pass 0's %x", pass, got[:8], ig.want[:8])
	}
	return nil
}

// ingestFinish reduces the passes.
func (r *run) ingestFinish() error {
	ig, tf := &r.ingest, r.fx.bulk
	r.count(wlIngest, ig.attempted, ig.failed)
	r.units(wlIngest, ig.serial)
	// A pass is a second of allocation-heavy work, long enough for a
	// disturbance to land in most of them; its days are shorter, so the
	// undisturbed pass is put together from each day's fastest pass.
	undisturbed := 0.0
	for _, day := range ig.byDay {
		undisturbed += fastest(day)
	}
	r.e2e["ingest_events_per_s"] = float64(tf.events) / undisturbed
	r.timings["ingest_serial_pass_s"] = summarize(ig.serial.plain)
	if r.tr == nil {
		return nil
	}
	r.timings["ingest_sharded_pass_s"] = summarize(ig.sharded.plain)
	return r.ingestLayers()
}

// mergeLayers times MergeWindow and Snapshot over one serial pass's day
// processors.
func (r *run) mergeLayers(p ingestPass) error {
	sp := r.tr.begin(wlIngest, "pipeline.MergeWindow", -1, 0)
	merged, err := pipeline.MergeWindow(r.fx.bulk.days, p.procs...)
	r.tr.end(sp)
	if err != nil {
		return err
	}
	sp = r.tr.begin(wlIngest, "pipeline.Snapshot", -1, 0)
	snap := merged.Snapshot()
	r.tr.end(sp)
	r.layer["pipeline.domains"] = float64(len(snap.Domains))
	r.layer["pipeline.skipped"] = float64(snap.Skipped)
	return nil
}

// ingestLayers fills the pipeline.* and shard.* layer metrics from the
// traced passes plus one parse-only pass.
func (r *run) ingestLayers() error {
	tf, tr, ig := r.fx.bulk, r.tr, &r.ingest
	n := 0
	sp := tr.begin(wlIngest, "pipeline.ReadLog(count)", -1, 0)
	err := readTrace(tf, func(pipeline.Input) { n++ })
	tr.end(sp)
	if err != nil {
		return err
	}
	if n != tf.events {
		r.problem("ingest-bulk: parse-only pass saw %d events, the trace has %d", n, tf.events)
	}
	parse := median(tr.seconds(wlIngest, "pipeline.ReadLog(count)"))
	consume := median(tr.seconds(wlIngest, "pipeline.Processor.Consume"))
	r.layer["pipeline.parse_busy_s"] = parse
	r.layer["pipeline.parse_events_per_s"] = float64(tf.events) / parse
	r.layer["pipeline.consume_busy_s"] = consume
	r.layer["pipeline.consume_events_per_s"] = float64(tf.events) / consume

	r.layer["pipeline.merge_s"] = median(tr.seconds(wlIngest, "pipeline.MergeWindow"))
	r.layer["pipeline.snapshot_s"] = median(tr.seconds(wlIngest, "pipeline.Snapshot"))

	// Sum CloseDay per pass: a pass closes every day once.
	closes := tr.seconds(wlIngest, "shard.Pool.CloseDay")
	var perPass []float64
	for i := 0; i+tf.days <= len(closes); i += tf.days {
		sum := 0.0
		for _, c := range closes[i : i+tf.days] {
			sum += c
		}
		perPass = append(perPass, sum)
	}
	r.layer["shard.consume_busy_s"] = median(tr.seconds(wlIngest, "shard.Pool.Consume"))
	r.layer["shard.close_day_s"] = median(perPass)
	restarts := ig.reg.CounterVec("maldomain_shard_restarts", "Shard worker restart attempts.", "shard")
	total := uint64(0)
	for i := 0; i < r.host.Shards; i++ {
		total += restarts.With(strconv.Itoa(i)).Value()
	}
	r.layer["shard.restarts"] = float64(total)
	if total != 0 {
		r.problem("ingest-bulk: %d shard restarts, want 0", total)
	}
	r.layer["shard.events_per_s"] = float64(tf.events) / fastest(ig.sharded.plain)
	r.layer["shard.speedup"] = r.layer["shard.events_per_s"] / r.e2e["ingest_events_per_s"]
	return nil
}
