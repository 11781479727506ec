package main

import (
	"fmt"
	"net/http"
	"runtime"
	"time"

	"repro/internal/bipartite"
	"repro/internal/core"
	"repro/internal/dnssim"
	"repro/internal/dnswire"
	"repro/internal/pipeline"
	"repro/internal/serve"
)

// Single-layer probes, run once at the end of a traced run. They call one
// layer in a loop from outside, so the ledger has a number for layers the
// four paths only touch in passing (or, for the wire path, not at all:
// no command ingests captures yet).

// measure times fn, in nanoseconds, and counts its heap allocations.
func measure(fn func()) (ns float64, allocs uint64) {
	var m0, m1 runtime.MemStats
	runtime.ReadMemStats(&m0)
	t0 := time.Now()
	fn()
	seconds := time.Since(t0).Seconds()
	runtime.ReadMemStats(&m1)
	return seconds * 1e9, m1.Mallocs - m0.Mallocs
}

// discardWriter is the reused recorder of the handler probe.
type discardWriter struct {
	header http.Header
	code   int
}

func (w *discardWriter) Header() http.Header         { return w.header }
func (w *discardWriter) WriteHeader(code int)        { w.code = code }
func (w *discardWriter) Write(b []byte) (int, error) { return len(b), nil }

func (r *run) probes() error {
	if err := r.probeWire(); err != nil {
		return err
	}
	sc, err := loadScorer(r.fx.modelPath)
	if err != nil {
		return err
	}
	retained := sc.Domains()

	const scoreLoops = 2000
	buf := make([]core.Result, 0, len(retained))
	d, _ := measure(func() {
		for i := 0; i < scoreLoops; i++ {
			buf = sc.ScoreBatchInto(buf[:0], retained)
		}
	})
	r.layer["core.score_ns_per_domain"] = d / float64(scoreLoops*len(retained))

	t := r.serve.traffic
	relations := make([][]core.Relation, len(t.observed))
	for i, dom := range t.observed {
		for _, rel := range t.evidence[dom] {
			relations[i] = append(relations[i], core.Relation{View: bipartite.ViewQuery, Neighbor: rel.Neighbor, Weight: rel.Weight})
		}
	}
	const foldinCalls = 2000
	d, _ = measure(func() {
		for i := 0; i < foldinCalls; i++ {
			k := i % len(t.observed)
			if res := sc.ScoreObserved(t.observed[k], relations[k]); res.Source == "" {
				r.problem("probe: ScoreObserved(%s) found no evidence", t.observed[k])
				return
			}
		}
	})
	r.layer["core.foldin_ns_per_score"] = d / foldinCalls

	cache, now := core.NewFoldInCache(core.FoldInConfig{}), time.Now()
	for i, dom := range t.observed {
		cache.Observe(dom, relations[i], now)
		cache.Score(sc, dom, now)
	}
	const cacheCalls = 1_000_000
	d, _ = measure(func() {
		for i := 0; i < cacheCalls; i++ {
			if _, ok := cache.Score(sc, t.observed[i%len(t.observed)], now); !ok {
				r.problem("probe: FoldInCache.Score lost %s", t.observed[i%len(t.observed)])
				return
			}
		}
	})
	r.layer["core.foldin_cache_ns_per_score"] = d / cacheCalls

	srv, err := serve.New(serve.Config{ModelPath: r.fx.modelPath})
	if err != nil {
		return err
	}
	handler := srv.Handler()
	req, err := http.NewRequest(http.MethodGet, "/v1/score/"+retained[0], nil)
	if err != nil {
		return err
	}
	w := &discardWriter{header: http.Header{}}
	const handlerCalls = 200_000
	d, allocs := measure(func() {
		for i := 0; i < handlerCalls; i++ {
			handler.ServeHTTP(w, req)
		}
	})
	if w.code != http.StatusOK {
		r.problem("probe: handler answered %d for a retained domain", w.code)
	}
	r.layer["serve.handler_ns_per_req"] = d / handlerCalls
	r.layer["serve.handler_allocs_per_req"] = float64(allocs) / handlerCalls
	return nil
}

// probeWire covers the capture path of the paper's section 2: decode
// RFC 1035 packets, join query with response, aggregate.
func (r *run) probeWire() error {
	tf := r.fx.bulk
	type pair struct {
		at       time.Time
		client   string
		query    []byte
		response []byte
	}
	var pairs []pair
	var encodeErr error
	err := readTrace(tf, func(in pipeline.Input) {
		if len(pairs) == r.fx.sc.joinPairs || encodeErr != nil {
			return
		}
		q, resp, err := dnssim.Packets(dnssim.Event(in))
		if err != nil {
			encodeErr = err
			return
		}
		pairs = append(pairs, pair{in.Time, in.ClientIP, q, resp})
	})
	if err == nil {
		err = encodeErr
	}
	if err != nil {
		return err
	}
	if len(pairs) == 0 {
		return fmt.Errorf("no packets to probe")
	}

	var decodeErr error
	d, allocs := measure(func() {
		for _, p := range pairs {
			if _, err := dnswire.Decode(p.query); err != nil {
				decodeErr = err
			}
			if _, err := dnswire.Decode(p.response); err != nil {
				decodeErr = err
			}
		}
	})
	if decodeErr != nil {
		return decodeErr
	}
	msgs := float64(2 * len(pairs))
	r.layer["dnswire.decode_ns_per_msg"] = d / msgs
	r.layer["dnswire.decode_allocs_per_msg"] = float64(allocs) / msgs

	proc := pipeline.NewProcessor(pipeline.Config{Start: tf.start, Days: tf.days, DHCP: tf.dhcp})
	j := pipeline.NewJoiner()
	var joinErr error
	d, _ = measure(func() {
		for _, p := range pairs {
			if _, _, err := j.Offer(p.at, p.client, pipeline.DirQuery, p.query); err != nil {
				joinErr = err
			}
			in, ok, err := j.Offer(p.at.Add(10*time.Millisecond), p.client, pipeline.DirResponse, p.response)
			if err != nil {
				joinErr = err
			}
			if ok {
				proc.Consume(in)
			}
		}
	})
	if joinErr != nil {
		return joinErr
	}
	// A (client, id) collision displaces a pending query, so a few pairs
	// may not join; most must.
	if j.Joined() < len(pairs)*9/10 {
		r.problem("probe: joiner matched %d of %d pairs", j.Joined(), len(pairs))
	}
	r.layer["pipeline.join_pairs_per_s"] = float64(len(pairs)) / (d / 1e9)
	return nil
}
