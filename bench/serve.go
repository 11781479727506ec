package main

import (
	"context"
	"encoding/json"
	"fmt"
	"math"
	"net"
	"net/http"
	"runtime"
	"sort"
	"time"

	"repro/internal/core"
	"repro/internal/mathx"
	"repro/internal/serve"
)

// Request kinds, for splitting a mixed phase's samples.
const (
	kindScore = iota
	kindFoldin
	kindObserve
	kindBatch
)

// requestSpanCap bounds the per-request spans one phase half keeps; the
// rest are counted in the span file's dropped_request_spans.
const requestSpanCap = 20_000

// evidenceNeighbors is how many retained neighbours an observed-unknown
// domain's evidence names.
const evidenceNeighbors = 8

// traffic is the serve path's generated request material.
type traffic struct {
	retained []string
	observed []string // unknown to the model, with evidence
	evidence map[string][]serve.ObserveRelation
	unseen   []string // unknown to the model, no evidence
	batches  [][]byte // prepared /v1/score/batch bodies
}

// buildTraffic derives the request material from the fixture: the
// model's retained domains, domains the reference trace observed but the
// model pruned (their evidence is the retained domains they share hosts
// with), and names nobody has seen.
func buildTraffic(fx *fixture, retained []string) (*traffic, error) {
	t := &traffic{retained: retained, evidence: map[string][]serve.ObserveRelation{}}
	isRetained := make(map[string]bool, len(retained))
	byHost := map[string][]string{}
	for _, d := range retained {
		isRetained[d] = true
		for h := range fx.refStats[d].Hosts {
			byHost[h] = append(byHost[h], d)
		}
	}
	var pruned []string
	for d := range fx.refStats {
		if !isRetained[d] {
			pruned = append(pruned, d)
		}
	}
	sort.Strings(pruned)
	for _, d := range pruned {
		shared := map[string]int{}
		for h := range fx.refStats[d].Hosts {
			for _, n := range byHost[h] {
				shared[n]++
			}
		}
		if len(shared) == 0 {
			continue
		}
		neighbors := make([]string, 0, len(shared))
		for n := range shared {
			neighbors = append(neighbors, n)
		}
		sort.Slice(neighbors, func(i, j int) bool {
			if shared[neighbors[i]] != shared[neighbors[j]] {
				return shared[neighbors[i]] > shared[neighbors[j]]
			}
			return neighbors[i] < neighbors[j]
		})
		var rels []serve.ObserveRelation
		for _, n := range neighbors[:min(len(neighbors), evidenceNeighbors)] {
			rels = append(rels, serve.ObserveRelation{View: "query", Neighbor: n, Weight: float64(shared[n])})
		}
		t.observed = append(t.observed, d)
		t.evidence[d] = rels
	}
	if len(t.observed) == 0 {
		return nil, fmt.Errorf("no observed-unknown domain shares a host with a retained one")
	}
	for i := 0; i < 256; i++ {
		t.unseen = append(t.unseen, fmt.Sprintf("unseen-%03d.bench-unknown.example", i))
	}

	// 80 % retained, 10 % unknown with evidence, 10 % unknown.
	rng := mathx.NewRNG(fx.seed).SplitLabeled("serve-batches")
	for b := 0; b < 16; b++ {
		domains := make([]string, fx.sc.batchDomains)
		for i := range domains {
			switch {
			case i%10 < 8:
				domains[i] = t.retained[rng.Intn(len(t.retained))]
			case i%10 == 8:
				domains[i] = t.observed[rng.Intn(len(t.observed))]
			default:
				domains[i] = t.unseen[rng.Intn(len(t.unseen))]
			}
		}
		body, err := json.Marshal(serve.BatchRequest{Domains: domains})
		if err != nil {
			return nil, err
		}
		t.batches = append(t.batches, body)
	}
	return t, nil
}

func scoreRequest(kind int, domain string, want int) request {
	return request{kind: kind, method: http.MethodGet, path: "/v1/score/" + domain, want: want}
}

func (t *traffic) observeRequest(domain string) (request, error) {
	body, err := json.Marshal(serve.ObserveRequest{Domain: domain, Relations: t.evidence[domain]})
	return request{kind: kindObserve, method: http.MethodPost, path: "/v1/observe", body: body, want: http.StatusOK}, err
}

// prePass is serve-mix's untimed correctness check: every retained
// domain's JSON score equals Scorer.Score, an unseen domain gets the 404
// envelope, and an observed-unknown domain is scored from its evidence.
// It also leaves every observed domain's evidence in the fold-in cache.
func (r *run) prePass(t *traffic, sc *core.Scorer) error {
	c := r.serve.client
	for _, d := range t.retained {
		s, body := c.do(0, scoreRequest(kindScore, d, http.StatusOK))
		var got serve.ScoreResponse
		if err := json.Unmarshal(body, &got); !s.ok || err != nil {
			return fmt.Errorf("GET /v1/score/%s: ok=%v, %v", d, s.ok, err)
		}
		want, _ := sc.Score(d)
		if math.Float64bits(got.Score) != math.Float64bits(want) || !got.Known || got.Source != core.SourceModel {
			r.problem("serve-mix: /v1/score/%s answered %+v, Scorer.Score is %v", d, got, want)
			break
		}
	}
	s, body := c.do(0, scoreRequest(kindScore, t.unseen[0], http.StatusNotFound))
	var envelope serve.ErrorBody
	if err := json.Unmarshal(body, &envelope); !s.ok || err != nil || envelope.Error.Code != "unknown_domain" {
		r.problem("serve-mix: unseen domain answered ok=%v %q, want the 404 unknown_domain envelope", s.ok, body)
	}
	for _, d := range t.observed {
		req, err := t.observeRequest(d)
		if err != nil {
			return err
		}
		if s, _ := c.do(0, req); !s.ok {
			return fmt.Errorf("POST /v1/observe for %s failed", d)
		}
	}
	for _, d := range t.observed {
		s, body := c.do(0, scoreRequest(kindFoldin, d, http.StatusOK))
		var got serve.ScoreResponse
		if err := json.Unmarshal(body, &got); !s.ok || err != nil || got.Known ||
			(got.Source != core.SourceFoldin && got.Source != core.SourceKNN) {
			r.problem("serve-mix: observed-unknown %s answered ok=%v %q, want source foldin or knn", d, s.ok, body)
			break
		}
	}
	return nil
}

// rateWindow is the width of the windows a closed-loop phase's throughput
// is taken over. The phase's rate is that of its least disturbed windows
// (sustained): a stall of the virtual machine empties or thins some
// windows and leaves the others alone, where it would drag a whole-phase
// mean down by its full length.
const rateWindow = 100 * time.Millisecond

// windowRates buckets the successful samples' weights by completion time
// into whole windows from the first send on, and returns each window's
// rate per second. A slice shorter than one window yields its total over
// elapsed.
func windowRates(samples []sample, weight func(sample) float64, elapsed float64) []float64 {
	var first, last time.Time
	total := 0.0
	for _, s := range samples {
		if first.IsZero() || s.sent.Before(first) {
			first = s.sent
		}
		if s.done.After(last) {
			last = s.done
		}
		if s.ok {
			total += weight(s)
		}
	}
	whole := int(last.Sub(first) / rateWindow)
	if whole < 1 {
		return []float64{total / elapsed}
	}
	windows := make([]float64, whole)
	for _, s := range samples {
		if w := int(s.done.Sub(first) / rateWindow); s.ok && w < whole {
			windows[w] += weight(s) / rateWindow.Seconds()
		}
	}
	return windows
}

// phase is a load phase's samples, reduced; slices of one phase add up.
type phase struct {
	reqRates  []float64 // successful requests per second, per window
	unitRates []float64 // response lines beyond the first per second, per window
	ok        int
	failed    int
	shed      int
	payload   int
	latencies []float64 // seconds, successful requests, from due time
	lateMax   float64   // seconds, open loop: worst send − due
	byKind    map[int][]float64
}

// add folds one slice's samples into the phase.
func (p *phase) add(samples []sample, elapsed float64) {
	if p.byKind == nil {
		p.byKind = map[int][]float64{}
	}
	for _, s := range samples {
		if late := s.sent.Sub(s.due).Seconds(); late > p.lateMax {
			p.lateMax = late
		}
		if s.shed {
			p.shed++
		}
		if !s.ok {
			// A failed or shed request has no latency to report: it
			// missed.
			p.failed++
			continue
		}
		p.ok++
		p.payload += s.payload
		l := s.latency().Seconds()
		p.latencies = append(p.latencies, l)
		p.byKind[s.kind] = append(p.byKind[s.kind], l)
	}
	p.reqRates = append(p.reqRates, windowRates(samples, func(sample) float64 { return 1 }, elapsed)...)
	// A batch response carries one line per domain plus the header line.
	p.unitRates = append(p.unitRates, windowRates(samples, func(s sample) float64 { return float64(s.payload - 1) }, elapsed)...)
}

// The load phases of a serve unit, in the order they run.
const (
	phScore = iota // closed-loop GET /v1/score/{domain}
	phOpen         // open-loop GET at a fixed rate, traced runs only: it has layer metrics only
	phBatch        // closed-loop POST /v1/score/batch, NDJSON
	phMixed        // closed-loop 6 retained scores : 3 fold-in scores : 1 observe write
	phases
)

var phaseNames = [phases]string{"phase:score-closed", "phase:score-open", "phase:batch-closed", "phase:mixed-closed"}

// servePath is the serve-mix path's state across rounds: the daemon on a
// loopback listener, the client's keep-alive connections, the request
// material, and each phase's samples split by whether its slice ran
// traced.
type servePath struct {
	srv      *serve.Server
	served   chan error
	client   *loadClient
	traffic  *traffic
	observes []request
	sent     [phases]int      // requests issued so far, so that a slice continues the cycle
	got      [phases][2]phase // [plain, traced]
}

// serveStart brings the daemon up on the set-up model, checks its answers
// (prePass) and warms the connections up. serveStop must follow.
func (r *run) serveStart() error {
	sv, fx := &r.serve, r.fx
	srv, err := serve.New(serve.Config{ModelPath: fx.modelPath})
	if err != nil {
		return err
	}
	l, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return err
	}
	sv.srv, sv.served = srv, make(chan error, 1)
	go func() { sv.served <- srv.Serve(l) }()
	if sv.client, err = newLoadClient(l.Addr().String(), r.host.Clients); err != nil {
		return err
	}
	sc := srv.Scorer()
	if sv.traffic, err = buildTraffic(fx, sc.Domains()); err != nil {
		return err
	}
	if err := r.prePass(sv.traffic, sc); err != nil {
		return err
	}
	sv.observes = make([]request, len(sv.traffic.observed))
	for i, d := range sv.traffic.observed {
		if sv.observes[i], err = sv.traffic.observeRequest(d); err != nil {
			return err
		}
	}
	// Untimed: the first requests on a connection pay for cold caches on
	// both sides of it.
	closedLoop(r.host.Clients, fx.sc.slice, func(w, i int) sample {
		s, _ := sv.client.do(w, scoreRequest(kindScore, sv.traffic.retained[i%len(sv.traffic.retained)], http.StatusOK))
		return s
	})
	return nil
}

// serveStop closes the connections and shuts the daemon down, waiting for
// its accept loop to return.
func (r *run) serveStop() error {
	sv := &r.serve
	if sv.srv == nil {
		return nil
	}
	if sv.client != nil {
		sv.client.close()
	}
	err := sv.srv.Shutdown(context.Background())
	if err == nil {
		err = <-sv.served
	}
	return err
}

// load runs one slice of a phase: plain when tr is nil, otherwise
// recording one span per request under a phase span. fn gets the index of
// the slice's first request in the phase.
func (r *run) load(tr *tracer, ph int, fn func(base int, do func(worker int, req request) sample) []sample) {
	sv := &r.serve
	runtime.GC()
	root := tr.begin(wlServe, phaseNames[ph], -1, 0)
	t0 := time.Now()
	samples := fn(sv.sent[ph], func(worker int, req request) sample {
		s, _ := sv.client.do(worker, req)
		return s
	})
	tr.end(root)
	elapsed := time.Since(t0).Seconds()
	sv.sent[ph] += len(samples)
	half := 0
	if tr != nil {
		half = 1
		for i, s := range samples {
			if i == requestSpanCap {
				r.droppedSpans += len(samples) - i
				break
			}
			tr.record(wlServe, "http.request", root, s.kind, s.sent, s.done.Sub(s.sent), "")
		}
	}
	sv.got[ph][half].add(samples, elapsed)
}

// serveUnit is one slice of every load phase over one keep-alive
// connection per P.
func (r *run) serveUnit(tr *tracer, _ int) error {
	sv, t := &r.serve, r.serve.traffic
	workers, d := r.host.Clients, r.fx.sc.slice
	pick := func(list []string, worker, i int) string { return list[(i*workers+worker)%len(list)] }
	r.load(tr, phScore, func(base int, do func(int, request) sample) []sample {
		return closedLoop(workers, d, func(w, i int) sample {
			return do(w, scoreRequest(kindScore, pick(t.retained, w, base+i), http.StatusOK))
		})
	})
	if r.tr != nil {
		n := int(r.fx.sc.openLoopRate * d.Seconds())
		interval := time.Duration(float64(time.Second) / r.fx.sc.openLoopRate)
		r.load(tr, phOpen, func(base int, do func(int, request) sample) []sample {
			return openLoop(wallClock{}, workers, n, interval, func(w, i int) sample {
				return do(w, scoreRequest(kindScore, t.retained[(base+i)%len(t.retained)], http.StatusOK))
			})
		})
	}
	r.load(tr, phBatch, func(base int, do func(int, request) sample) []sample {
		return closedLoop(workers, d, func(w, i int) sample {
			return do(w, request{kind: kindBatch, method: http.MethodPost, path: "/v1/score/batch",
				body: t.batches[((base+i)*workers+w)%len(t.batches)], accept: serve.NDJSONContentType, want: http.StatusOK})
		})
	})
	// Each kind walks its own list, a cycle of ten requests at a time, so
	// that every observed domain is scored between two writes of its
	// evidence whatever the lists' lengths: a write costs the next score of
	// that domain a cold fold-in.
	r.load(tr, phMixed, func(base int, do func(int, request) sample) []sample {
		return closedLoop(workers, d, func(w, i int) sample {
			cycle, slot := (base+i)/10*workers+w, (base+i)%10
			switch {
			case slot < 6:
				return do(w, scoreRequest(kindScore, t.retained[(cycle*6+slot)%len(t.retained)], http.StatusOK))
			case slot < 9:
				return do(w, scoreRequest(kindFoldin, t.observed[(cycle*3+slot-6)%len(t.observed)], http.StatusOK))
			default:
				return do(w, sv.observes[cycle%len(sv.observes)])
			}
		})
	})
	return nil
}

// serveFinish reduces the phases.
func (r *run) serveFinish() error {
	sv := &r.serve
	attempted, failed, shed := 0, 0, 0
	for _, halves := range sv.got {
		for _, p := range halves {
			attempted += p.ok + p.failed
			failed += p.failed
			shed += p.shed
		}
	}
	r.count(wlServe, attempted, failed)
	// Batch responses carry one line per domain plus the header line.
	for _, p := range sv.got[phBatch] {
		if got, want := p.payload-p.ok, p.ok*r.fx.sc.batchDomains; got != want {
			r.problem("serve-mix: batch phase answered %d domains for %d requested", got, want)
		}
	}
	a, c, m := sv.got[phScore], sv.got[phBatch], sv.got[phMixed]
	r.e2e["score_req_per_s"] = sustained(a[0].reqRates)
	r.e2e["batch_domains_per_s"] = sustained(c[0].unitRates)
	r.e2e["mixed_req_per_s"] = sustained(m[0].reqRates)
	r.timings["score_closed_latency_s"] = summarize(a[0].latencies)
	r.timings["batch_latency_s"] = summarize(c[0].latencies)
	r.timings["observe_latency_s"] = summarize(m[0].byKind[kindObserve])

	if r.tr == nil {
		return nil
	}
	b := sv.got[phOpen]
	r.timings["score_open_latency_s"] = summarize(b[0].latencies)
	r.units(wlServe, unitWalls{plain: []float64{1 / sustained(a[0].reqRates)}, traced: []float64{1 / sustained(a[1].reqRates)}})
	open := append(b[0].latencies, b[1].latencies...)
	sort.Float64s(open)
	r.layer["serve.score_p50_us"] = percentile(open, 50) * 1e6
	r.layer["serve.score_p99_us"] = percentile(open, 99) * 1e6
	r.layer["serve.batch_p50_ms"] = median(append(c[0].latencies, c[1].latencies...)) * 1e3
	r.layer["serve.observe_p50_us"] = median(append(m[0].byKind[kindObserve], m[1].byKind[kindObserve]...)) * 1e6
	r.layer["serve.shed"] = float64(shed)
	r.layer["serve.late_max_ms"] = max(b[0].lateMax, b[1].lateMax) * 1e3
	return nil
}
