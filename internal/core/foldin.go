package core

// Fold-in scoring for domains outside the retained set — the "score
// the unknown" path. A production deployment is asked about domains
// the training window never retained; until now those lookups ended in
// ErrUnknownDomain. ScoreObserved instead derives a provisional
// embedding for an unseen domain from its observed relations to
// retained neighbors (the standard fold-in construction for
// LINE/MF-style embeddings: a weighted mean of neighbor vectors per
// view, which is where SGD would pull a new vertex with those edges),
// classifies it with the model's own classifier, and cross-checks the
// verdict with a kNN vote over the retained decision table (cosine
// similarity in the concatenated feature space). The two signals are
// folded into a calibrated Confidence:
//
//   - classifier and kNN agree  → Source "foldin", the classifier's
//     score, confidence = coverage · agreement;
//   - they disagree             → Source "knn", the neighborhood's
//     weighted mean score, confidence halved (the model is split);
//   - no usable neighbors       → Source "foldin", classifier only,
//     confidence halved.
//
// coverage is the fraction of the classifier's views with at least one
// usable relation, agreement the winning label's share of the vote
// weight; both are in [0,1] so Confidence is too.
//
// FoldInCache is the serving-side store for observed relations: a
// bounded, TTL'd map the daemon's POST /v1/observe writes and the
// score paths read, with the computed Result cached per model
// generation so a warm lookup is two map probes and no allocation.
// Everything here takes explicit time.Time values — this package is
// //maldlint:deterministic, and eviction order must replay exactly.

import (
	"cmp"
	"math"
	"slices"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/bipartite"
	"repro/internal/mathx"
)

// Relation is one observed association between a domain being folded
// in and a retained neighbor: "these two shared an attribute in view
// V". The serving layer builds them from /v1/observe bodies, the
// streaming layer from each window's co-occurrence aggregates.
type Relation struct {
	// View is the behavioral view the association was observed in.
	View bipartite.View
	// Neighbor is the related domain; relations whose neighbor is not
	// in the model's retained set are ignored.
	Neighbor string
	// Weight is the association strength (e.g. a Jaccard overlap).
	// Zero or negative weights count as 1.
	Weight float64
}

// foldinK is the kNN vote size: how many nearest retained domains
// (by cosine over the concatenated feature space) check the
// classifier's fold-in verdict.
const foldinK = 8

// foldinScratch is ScoreObserved's pooled working state: the sorted
// relation copy, the provisional feature vector, per-view weight
// sums, and the kNN top-k arrays.
type foldinScratch struct {
	rels []Relation
	q    []float64
	wsum []float64
	nbr  [foldinK]int
	sim  [foldinK]float64
}

func (s *Scorer) newFoldinScratch() *foldinScratch {
	return &foldinScratch{
		rels: make([]Relation, 0, 16),
		q:    make([]float64, len(s.views)*s.dim),
		wsum: make([]float64, len(s.views)),
	}
}

// ScoreObserved scores a domain from its observed relations. Retained
// domains return their exact model Result (bit-identical to Score,
// Source "model", Confidence 1) regardless of the relations passed.
// For an unseen domain the relations are folded into a provisional
// embedding and classified as documented above; when no relation
// names a retained neighbor in any of the classifier's views there is
// no evidence to fold in and the zero Result (Known=false, empty
// Source) is returned.
//
// The result is a pure function of (model, domain, relation set):
// relations are canonicalized by sorting, so permutations of the same
// set produce bit-identical Results at any worker count.
//
//alloccheck:hot
func (s *Scorer) ScoreObserved(domain string, relations []Relation) Result {
	if res, ok := s.Result(domain); ok {
		return res
	}
	return s.foldIn(relations)
}

// compareRelations is the canonical relation order: view, neighbor,
// weight.
func compareRelations(a, b Relation) int {
	if c := cmp.Compare(a.View, b.View); c != 0 {
		return c
	}
	if c := strings.Compare(a.Neighbor, b.Neighbor); c != 0 {
		return c
	}
	return cmp.Compare(a.Weight, b.Weight)
}

// foldIn is ScoreObserved past the retained short-circuit: the verdict
// the relations alone give, whoever they are said to describe.
//
//alloccheck:hot
func (s *Scorer) foldIn(relations []Relation) Result {
	if len(relations) == 0 {
		return Result{}
	}
	sc := s.foldinPool.Get().(*foldinScratch)
	defer s.foldinPool.Put(sc)

	// Canonical relation order: float accumulation is not commutative,
	// so determinism across callers requires a total order first.
	rels := append(sc.rels[:0], relations...)
	slices.SortFunc(rels, compareRelations)
	sc.rels = rels

	// Per-view weighted mean of retained neighbor vectors.
	q := sc.q[:len(s.views)*s.dim]
	wsum := sc.wsum[:len(s.views)]
	clear(q)
	clear(wsum)
	for _, rel := range rels {
		vi := slices.Index(s.views, rel.View)
		if vi < 0 {
			continue
		}
		j, ok := s.index[rel.Neighbor]
		if !ok {
			continue
		}
		w := rel.Weight
		if w <= 0 {
			w = 1
		}
		block := q[vi*s.dim : (vi+1)*s.dim]
		for d, x := range s.viewVecs[vi][j] {
			block[d] += w * x
		}
		wsum[vi] += w
	}
	covered := 0
	for vi, w := range wsum {
		if w == 0 {
			continue
		}
		covered++
		block := q[vi*s.dim : (vi+1)*s.dim]
		for d := range block {
			block[d] /= w
		}
	}
	if covered == 0 {
		return Result{}
	}
	coverage := float64(covered) / float64(len(s.views))

	clfScore := s.clf.Decision(q)
	clfLabel := 0
	if clfScore > 0 {
		clfLabel = 1
	}

	posW, negW, knnScore := s.knnVote(sc, q)
	totW := posW + negW
	if totW == 0 {
		// No usable neighborhood: the classifier stands alone, at half
		// confidence.
		return Result{Score: clfScore, Label: clfLabel,
			Confidence: 0.5 * coverage, Source: SourceFoldin}
	}
	knnLabel := 0
	if posW > negW {
		knnLabel = 1
	}
	agreement := math.Max(posW, negW) / totW
	if knnLabel == clfLabel {
		return Result{Score: clfScore, Label: clfLabel,
			Confidence: coverage * agreement, Source: SourceFoldin}
	}
	// The neighborhood outvotes the classifier: report its weighted
	// mean decision value, at half confidence — the model is split.
	return Result{Score: knnScore, Label: knnLabel,
		Confidence: 0.5 * coverage * agreement, Source: SourceKNN}
}

// knnVote finds the foldinK retained domains nearest to q by cosine
// similarity and returns the positive and negative label vote weights
// (each neighbor votes max(cos, 0) for its precomputed label) plus the
// vote-weighted mean of the neighbors' decision values. The dot
// products come sixteen retained domains a call from the blocked
// feature table, each summed left to right over the concatenated
// views, the order the verdicts were first pinned in.
func (s *Scorer) knnVote(sc *foldinScratch, q []float64) (posW, negW, knnScore float64) {
	var qsq float64
	for _, x := range q {
		qsq += x * x
	}
	qNorm := math.Sqrt(qsq)
	if qNorm == 0 {
		return 0, 0, 0
	}
	// Fixed-size descending top-k by insertion; ties keep the earlier
	// (lower-index) domain, so the selection is deterministic.
	n := 0
	var dots [mathx.RowBlock]float64
	for j, fn := range s.featNorm {
		if j%mathx.RowBlock == 0 {
			s.feats.SerialDots(j/mathx.RowBlock, q, &dots)
		}
		if fn == 0 {
			continue
		}
		cos := dots[j%mathx.RowBlock] / (qNorm * fn)
		if n == foldinK && cos <= sc.sim[n-1] {
			continue
		}
		at := n
		if n < foldinK {
			n++
		} else {
			at = n - 1
		}
		for at > 0 && cos > sc.sim[at-1] {
			sc.sim[at] = sc.sim[at-1]
			sc.nbr[at] = sc.nbr[at-1]
			at--
		}
		sc.sim[at] = cos
		sc.nbr[at] = j
	}
	var wScore float64
	for i := 0; i < n; i++ {
		w := sc.sim[i]
		if w <= 0 {
			continue
		}
		j := sc.nbr[i]
		if s.labels[j] == 1 {
			posW += w
		} else {
			negW += w
		}
		wScore += w * s.scores[j]
	}
	if tot := posW + negW; tot > 0 {
		knnScore = wScore / tot
	}
	return posW, negW, knnScore
}

// ---- the serving-side relation cache ----

// FoldInConfig parameterizes a FoldInCache; the zero value is usable.
type FoldInConfig struct {
	// MaxEntries bounds the number of domains with buffered relations;
	// beyond it the earliest-observed entries are evicted (default
	// 65536).
	MaxEntries int
	// TTL is how long after its last observation an entry remains
	// scorable (default 15m). Expired entries are treated as absent
	// and reclaimed opportunistically.
	TTL time.Duration
}

func (c FoldInConfig) withDefaults() FoldInConfig {
	if c.MaxEntries <= 0 {
		c.MaxEntries = 1 << 16
	}
	if c.TTL <= 0 {
		c.TTL = 15 * time.Minute
	}
	return c
}

// maxFoldinRelations bounds the merged relation set per cached domain;
// further relations for already-saturated entries are dropped, keeping
// the per-entry memory bounded against adversarial observers.
const maxFoldinRelations = 256

// foldinEntry is one domain's buffered evidence plus the last computed
// Result, cached per model generation (resScorer identifies it; a
// reload or new relations invalidate lazily).
type foldinEntry struct {
	rels []Relation
	seen time.Time
	seq  uint64

	res       Result
	resScorer *Scorer
}

type foldinQueued struct {
	domain string
	seq    uint64
}

// FoldInCache buffers observed relations for domains outside the
// model and serves fold-in Results over them. It is bounded
// (FIFO-by-observation eviction), TTL'd, and safe for concurrent use;
// all methods take the current time explicitly so behavior is a pure
// function of the call sequence (this package is deterministic — no
// wall-clock reads).
type FoldInCache struct {
	mu      sync.RWMutex
	cfg     FoldInConfig
	entries map[string]*foldinEntry
	queue   []foldinQueued
	seq     uint64

	recomputes atomic.Uint64
}

// NewFoldInCache returns an empty cache under cfg's bounds.
func NewFoldInCache(cfg FoldInConfig) *FoldInCache {
	return &FoldInCache{
		cfg:     cfg.withDefaults(),
		entries: make(map[string]*foldinEntry),
	}
}

// Observe merges relations into domain's entry (same-view same-neighbor
// relations replace the buffered weight) and refreshes its TTL. It
// returns how many other entries were dropped to make room: evicted
// counts capacity evictions (earliest observation first), expired
// counts entries whose TTL had already lapsed. Relations are copied;
// the caller keeps ownership of rels.
func (c *FoldInCache) Observe(domain string, rels []Relation, now time.Time) (evicted, expired int) {
	if domain == "" || len(rels) == 0 {
		return 0, 0
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	e := c.entries[domain]
	if e == nil {
		e = &foldinEntry{rels: make([]Relation, 0, len(rels))}
		c.entries[domain] = e
	}
	for _, rel := range rels {
		merged := false
		for i := range e.rels {
			if e.rels[i].View == rel.View && e.rels[i].Neighbor == rel.Neighbor {
				e.rels[i].Weight = rel.Weight
				merged = true
				break
			}
		}
		if !merged && len(e.rels) < maxFoldinRelations {
			e.rels = append(e.rels, rel)
		}
	}
	e.seen = now
	c.seq++
	e.seq = c.seq
	e.resScorer = nil // new evidence invalidates the cached verdict
	c.queue = append(c.queue, foldinQueued{domain: domain, seq: e.seq})
	return c.reclaim(now)
}

// reclaim drops expired and over-capacity entries, earliest
// observation first. Caller holds mu.
func (c *FoldInCache) reclaim(now time.Time) (evicted, expired int) {
	for len(c.queue) > 0 {
		head := c.queue[0]
		e := c.entries[head.domain]
		if e == nil || e.seq != head.seq {
			// Stale queue record: the entry was re-observed (a newer
			// record exists further back) or already removed.
			c.queue = c.queue[1:]
			continue
		}
		if now.Sub(e.seen) > c.cfg.TTL {
			delete(c.entries, head.domain)
			c.queue = c.queue[1:]
			expired++
			continue
		}
		if len(c.entries) <= c.cfg.MaxEntries {
			break
		}
		delete(c.entries, head.domain)
		c.queue = c.queue[1:]
		evicted++
	}
	// Re-observations leave stale records behind the head; compact
	// before they can outgrow the entry bound by more than a constant
	// factor.
	if len(c.queue) > 2*len(c.entries)+1024 {
		live := c.queue[:0]
		for _, rec := range c.queue {
			if e := c.entries[rec.domain]; e != nil && e.seq == rec.seq {
				live = append(live, rec)
			}
		}
		c.queue = live
	}
	return evicted, expired
}

// Len reports the live entry count.
func (c *FoldInCache) Len() int {
	c.mu.RLock()
	defer c.mu.RUnlock()
	return len(c.entries)
}

// Recomputes counts the Score calls that missed the memoized verdict
// and ran ScoreObserved: against the scores served, the cache's miss
// ratio.
func (c *FoldInCache) Recomputes() uint64 { return c.recomputes.Load() }

// Score serves a fold-in Result for domain from its buffered
// relations, or ok=false when the cache holds no live evidence (never
// observed, expired, or the relations named no retained neighbor).
// The Result is cached per (entry, scorer) generation, so repeated
// lookups against the same model are two map probes with no
// allocation; a model reload or new observations recompute lazily.
//
//alloccheck:hot
func (c *FoldInCache) Score(s *Scorer, domain string, now time.Time) (Result, bool) {
	c.mu.RLock()
	e := c.entries[domain]
	if e == nil || now.Sub(e.seen) > c.cfg.TTL {
		c.mu.RUnlock()
		return Result{}, false
	}
	if e.resScorer == s {
		res := e.res
		c.mu.RUnlock()
		return res, res.Source != ""
	}
	c.mu.RUnlock()
	return c.scoreSlow(s, domain, now)
}

// scoreSlow recomputes and caches the entry's Result under the write
// lock. Kept out of Score so the warm path stays allocation-free
// under the escape-analysis gate.
func (c *FoldInCache) scoreSlow(s *Scorer, domain string, now time.Time) (Result, bool) {
	c.mu.Lock()
	e := c.entries[domain]
	if e == nil || now.Sub(e.seen) > c.cfg.TTL {
		c.mu.Unlock()
		return Result{}, false
	}
	if e.resScorer == s {
		res := e.res
		c.mu.Unlock()
		return res, res.Source != ""
	}
	rels, seq := append([]Relation(nil), e.rels...), e.seq
	c.mu.Unlock()

	// Fold in outside the lock: ScoreObserved can scan the whole
	// decision table, and concurrent scores of other domains must not
	// serialize behind it. Racing recomputes of one domain over the same
	// evidence produce identical Results (ScoreObserved is
	// deterministic), so last-writer-wins is safe among them; a verdict
	// over evidence an Observe has since replaced (the entry's seq moved,
	// or the entry is a new one) is returned but not memoized.
	c.recomputes.Add(1)
	res := s.ScoreObserved(domain, rels)

	c.mu.Lock()
	if e2 := c.entries[domain]; e2 != nil && e2.seq == seq {
		e2.res = res
		e2.resScorer = s
	}
	c.mu.Unlock()
	return res, res.Source != ""
}
