// Package shard aggregates a day's observations on more than one
// goroutine: a plain fold.
//
// A Pool routes each pipeline.Input to one of N workers by the FNV-1a
// hash of its device identity (the DHCP-pinned MAC when a lease covers
// the query, else the raw client IP, else the query name). Every worker
// aggregates its partition into its own per-day pipeline.Processor —
// configured exactly as the serial streaming mode configures its own —
// and at each day boundary CloseDay collects the workers' day
// aggregates and folds them with pipeline.Merge. Because every step of
// the merge is commutative and associative (set unions, count sums,
// min/max), the merged aggregate is byte-identical to the serial build
// for any shard count and any goroutine schedule: the only thing
// sharding changes is which processor an observation lands in first.
//
// The pool keeps no raw observation beyond the batch being filled and
// the few in flight to each worker, and it recovers from nothing. A
// worker that panics is reported by the next CloseDay and the pool is
// finished; the caller fails the day, and a restarted process resumes
// from the stream checkpoint (internal/stream), which never contained
// the pool's open days in the first place.
package shard

import (
	"errors"
	"fmt"
	"runtime/debug"
	"sort"
	"sync"
	"time"

	"repro/internal/dhcp"
	"repro/internal/etld"
	"repro/internal/obsv"
	"repro/internal/pipeline"
)

const (
	// batchSize is how many inputs cross to a worker per channel send:
	// large enough that the hand-off cost disappears against 256
	// Processor.Consume calls, small enough that a batch is ~26 KB.
	batchSize = 256
	// queueDepth is each worker's channel capacity in batches. A few
	// batches of slack let the producer keep parsing while a worker is
	// inside a slow Consume; together with the batch being filled and the
	// one being folded it bounds the raw observations held per shard at
	// (queueDepth+2)·batchSize.
	queueDepth = 4
)

// Config parameterizes a Pool.
type Config struct {
	// Shards is the partition count (required, >= 1).
	Shards int
	// Start anchors day boundaries; it must equal the consuming
	// stream's anchor so shard and serial day indices agree.
	Start time.Time
	// DHCP pins dynamic client addresses to devices for both routing
	// and aggregation; optional.
	DHCP *dhcp.Resolver
	// Suffixes is the public-suffix table (nil uses the default).
	Suffixes *etld.Table
	// Metrics, when set, receives maldomain_shard_merge_seconds.
	Metrics *obsv.Registry
	// Seed is ignored.
	//
	// Deprecated: named by bench/ingest.go; remove with the next benchmark PR.
	Seed uint64

	// consumeHook, when set, runs inside the worker before each input
	// is folded in; the failure test uses it to inject a panic.
	consumeHook func(shard int, in pipeline.Input)
}

// Degraded is the report CloseDay used to return for a merge that was
// missing quarantined shards. CloseDay now always returns it nil: a
// failed worker fails the day.
//
// Deprecated: named by bench/ingest.go; remove with the next benchmark PR.
type Degraded struct {
	Dropped int
}

// Pool is the sharded aggregator. Feed observations with Consume and
// close each day boundary in order with CloseDay; both must be called
// from one goroutine (the pool parallelizes internally). Call Close
// when done to release the workers.
type Pool struct {
	cfg       Config
	workers   []*worker
	wg        sync.WaitGroup
	closedDay int
	closed    bool

	mMerge *obsv.Histogram
}

// message is what crosses a worker's channel: a batch to fold in, or,
// when batch is nil, the barrier that closes every day through day.
type message struct {
	batch []pipeline.Input
	day   int
}

// handoff is a worker's reply to a barrier: its aggregates for every
// open day at or before the boundary, ascending by day, or the panic
// that stopped it.
type handoff struct {
	procs []*pipeline.Processor
	err   error
}

// worker is one partition. The producer fields belong to the goroutine
// calling Consume/CloseDay, the aggregation fields to the worker's own
// goroutine; batches change hands only through the channels.
type worker struct {
	id   int
	base pipeline.Config
	hook func(shard int, in pipeline.Input)

	// filling is the batch Consume is appending to.
	filling []pipeline.Input
	in      chan message
	out     chan handoff
	// free carries folded batches back, cleared, for reuse.
	free chan []pipeline.Input

	// days holds one aggregation processor per open day; observations for
	// a day at or below floor (the last closed boundary) are dropped.
	days   map[int]*pipeline.Processor
	floor  int
	failed error
}

// New starts a pool of cfg.Shards workers.
func New(cfg Config) (*Pool, error) {
	if cfg.Shards < 1 {
		return nil, fmt.Errorf("shard: Config.Shards = %d, need >= 1", cfg.Shards)
	}
	if cfg.Start.IsZero() {
		return nil, errors.New("shard: Config.Start is required")
	}
	p := &Pool{cfg: cfg, closedDay: -1, workers: make([]*worker, cfg.Shards)}
	if m := cfg.Metrics; m != nil {
		p.mMerge = m.Histogram("maldomain_shard_merge_seconds",
			"CloseDay latency: shard handoff plus aggregate merge, in seconds.")
	}
	for i := range p.workers {
		w := &worker{
			id: i,
			// Mirror the serial streaming mode exactly: same anchor, same
			// tables, so merged shard aggregates are indistinguishable from
			// a single processor's.
			base:  pipeline.Config{Start: cfg.Start, DHCP: cfg.DHCP, Suffixes: cfg.Suffixes},
			hook:  cfg.consumeHook,
			in:    make(chan message, queueDepth), // see queueDepth
			out:   make(chan handoff, 1),
			free:  make(chan []pipeline.Input, queueDepth+2), // every batch a shard can own
			days:  make(map[int]*pipeline.Processor),
			floor: -1,
		}
		p.workers[i] = w
		p.wg.Add(1)
		go func() {
			defer p.wg.Done()
			w.run()
		}()
	}
	return p, nil
}

// route picks the partition for one observation: FNV-1a over the device
// identity, falling back to the query name for device-less records. It
// is a pure function of the input, so a replay after a restart routes
// identically.
func (p *Pool) route(in pipeline.Input) int {
	key := in.ClientIP
	if p.cfg.DHCP != nil {
		if mac, ok := p.cfg.DHCP.MACAt(in.ClientIP, in.Time); ok {
			key = mac
		}
	}
	if key == "" {
		key = in.QName
	}
	const (
		offset64 = 14695981039346656037
		prime64  = 1099511628211
	)
	h := uint64(offset64)
	for i := 0; i < len(key); i++ {
		h ^= uint64(key[i])
		h *= prime64
	}
	return int(h % uint64(len(p.workers)))
}

// Consume routes one observation to its shard.
func (p *Pool) Consume(in pipeline.Input) {
	w := p.workers[p.route(in)]
	w.filling = append(w.filling, in)
	if len(w.filling) == batchSize {
		w.flush()
	}
}

// flush hands the batch being filled to the worker and picks up a
// recycled one to fill next.
func (w *worker) flush() {
	if len(w.filling) == 0 {
		return
	}
	w.in <- message{batch: w.filling}
	select {
	case w.filling = <-w.free:
	default:
		w.filling = make([]pipeline.Input, 0, batchSize)
	}
}

// run folds batches and answers barriers until the pool closes the
// channel. After a panic the worker keeps draining — discarding
// batches, answering barriers with the error — so the producer can
// never block on it.
func (w *worker) run() {
	for m := range w.in {
		if m.batch == nil {
			w.out <- w.closeThrough(m.day)
			continue
		}
		if w.failed == nil {
			w.failed = w.consume(m.batch)
		}
		clear(m.batch) // a recycled batch must not pin the strings it carried
		select {
		case w.free <- m.batch[:0]:
		default:
		}
	}
}

// consume folds a batch into the per-day aggregates. A panic below it —
// in Processor.Consume or the injected hook — is returned as an error
// carrying the panicking stack instead of crashing the process.
func (w *worker) consume(batch []pipeline.Input) (err error) {
	defer func() {
		if r := recover(); r != nil {
			err = fmt.Errorf("shard %d: worker panic: %v\n%s", w.id, r, debug.Stack())
		}
	}()
	for _, in := range batch {
		day := int(in.Time.Sub(w.base.Start) / (24 * time.Hour))
		if day < 0 {
			day = 0
		}
		if day <= w.floor {
			continue
		}
		if w.hook != nil {
			w.hook(w.id, in)
		}
		p := w.days[day]
		if p == nil {
			cfg := w.base
			cfg.Days = day + 1
			p = pipeline.NewProcessor(cfg)
			w.days[day] = p
		}
		p.Consume(in)
	}
	return nil
}

// closeThrough hands off every open day at or before day (ascending)
// and floors the worker there.
func (w *worker) closeThrough(day int) handoff {
	if w.failed != nil {
		return handoff{err: w.failed}
	}
	var open []int
	for d := range w.days {
		if d <= day {
			open = append(open, d)
		}
	}
	sort.Ints(open)
	var h handoff
	for _, d := range open {
		h.procs = append(h.procs, w.days[d])
		delete(w.days, d)
	}
	w.floor = day
	return h
}

// CloseDay completes a day boundary: every worker hands off its
// aggregates for days through day and they are merged into one
// processor — byte-identical to what a serial build would hold for the
// same observations. A nil processor with a nil error means no shard
// saw traffic for the day. Days must close in increasing order. If a
// worker has panicked, CloseDay returns its error (shard index, panic
// value, stack) and the pool is finished: every later CloseDay returns
// the same error. The *Degraded result is always nil.
func (p *Pool) CloseDay(day int) (*pipeline.Processor, *Degraded, error) {
	if p.closed {
		return nil, nil, errors.New("shard: pool is closed")
	}
	if day <= p.closedDay {
		return nil, nil, fmt.Errorf("shard: day %d already closed (through %d)", day, p.closedDay)
	}
	start := time.Now() // merge latency metric only, never aggregate state
	for _, w := range p.workers {
		w.flush()
		w.in <- message{day: day}
	}
	var procs []*pipeline.Processor
	var failed error
	for _, w := range p.workers {
		// Every reply is collected even after a failure, so no worker is
		// left holding one.
		h := <-w.out
		if h.err != nil && failed == nil {
			failed = h.err
		}
		procs = append(procs, h.procs...)
	}
	if failed != nil {
		return nil, nil, failed
	}
	var merged *pipeline.Processor
	if len(procs) > 0 {
		var err error
		merged, err = pipeline.Merge(procs...)
		if err != nil {
			return nil, nil, fmt.Errorf("shard: merging day %d: %w", day, err)
		}
	}
	p.closedDay = day
	if p.mMerge != nil {
		p.mMerge.Observe(time.Since(start).Seconds())
	}
	return merged, nil, nil
}

// Close stops the workers and waits for them to exit. Inputs consumed
// since the last CloseDay are discarded; close the final boundary
// first.
func (p *Pool) Close() error {
	if p.closed {
		return nil
	}
	p.closed = true
	for _, w := range p.workers {
		close(w.in)
	}
	p.wg.Wait()
	return nil
}
