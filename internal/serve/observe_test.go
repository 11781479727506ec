package serve

import (
	"bytes"
	"encoding/json"
	"fmt"
	"net/http"
	"net/http/httptest"
	"os"
	"strings"
	"sync"
	"sync/atomic"
	"testing"

	"repro/internal/bipartite"
	"repro/internal/core"
)

// observeBody builds an ObserveRequest over the first three retained
// domains, one relation per view, and the equivalent core.Relation
// slice for the reference computation.
func observeBody(t *testing.T, domain string, neighbors []string) ([]byte, []core.Relation) {
	t.Helper()
	if len(neighbors) < 3 {
		t.Fatalf("fixture too small: %d retained domains", len(neighbors))
	}
	req := ObserveRequest{Domain: domain, Relations: []ObserveRelation{
		{View: "query", Neighbor: neighbors[0], Weight: 2},
		{View: "query", Neighbor: neighbors[1], Weight: 1},
		{View: "ip", Neighbor: neighbors[1], Weight: 1.5},
		{View: "time", Neighbor: neighbors[2], Weight: 1},
	}}
	body, err := json.Marshal(req)
	if err != nil {
		t.Fatal(err)
	}
	rels := []core.Relation{
		{View: bipartite.ViewQuery, Neighbor: neighbors[0], Weight: 2},
		{View: bipartite.ViewQuery, Neighbor: neighbors[1], Weight: 1},
		{View: bipartite.ViewIP, Neighbor: neighbors[1], Weight: 1.5},
		{View: bipartite.ViewTime, Neighbor: neighbors[2], Weight: 1},
	}
	return body, rels
}

// TestObserveScoreRoundTrip is the fold-in wire contract: an unseen
// domain 404s, POST /v1/observe accepts its relations, and every
// scoring route then returns the enriched verdict — bit-identical to
// core.Scorer.ScoreObserved on the same relations — instead of 404.
func TestObserveScoreRoundTrip(t *testing.T) {
	modelA, _, scorerA, _ := models(t)
	s, _ := newTestServer(t, modelA, nil)
	const unseen = "unseen-roundtrip.example"
	body, rels := observeBody(t, unseen, scorerA.Domains())
	want := scorerA.ScoreObserved(unseen, rels)
	if want.Source == "" {
		t.Fatal("fixture relations yield no fold-in verdict")
	}

	// Before any evidence: 404 with the structured envelope.
	rec := getJSON(t, s.Handler(), "GET", "/v1/score/"+unseen, nil, nil)
	if rec.Code != http.StatusNotFound {
		t.Fatalf("pre-observe score: status %d, want 404", rec.Code)
	}
	var envelope ErrorBody
	if err := json.Unmarshal(rec.Body.Bytes(), &envelope); err != nil {
		t.Fatalf("404 body not an ErrorBody: %v", err)
	}
	if envelope.Error.Code != "unknown_domain" || !strings.Contains(envelope.Error.Message, unseen) {
		t.Fatalf("404 envelope = %+v", envelope)
	}

	var obs ObserveResponse
	rec = getJSON(t, s.Handler(), "POST", "/v1/observe", bytes.NewReader(body), &obs)
	if rec.Code != http.StatusOK {
		t.Fatalf("observe: status %d: %s", rec.Code, rec.Body.String())
	}
	if obs.Domain != unseen || obs.Relations != len(rels) || obs.Entries != 1 {
		t.Fatalf("observe response = %+v", obs)
	}

	var resp ScoreResponse
	rec = getJSON(t, s.Handler(), "GET", "/v1/score/"+unseen, nil, &resp)
	if rec.Code != http.StatusOK {
		t.Fatalf("post-observe score: status %d: %s", rec.Code, rec.Body.String())
	}
	if resp.Known {
		t.Fatal("fold-in verdict claims known=true")
	}
	if resp.Source != core.SourceFoldin && resp.Source != core.SourceKNN {
		t.Fatalf("source %q, want foldin or knn", resp.Source)
	}
	if resp.Confidence < 0 || resp.Confidence > 1 {
		t.Fatalf("confidence %v outside [0,1]", resp.Confidence)
	}
	if resp.Score != want.Score || resp.Label != want.Label ||
		resp.Confidence != want.Confidence || resp.Source != want.Source {
		t.Fatalf("served %+v != ScoreObserved %+v", resp, want)
	}

	// Batch document: the unseen domain's entry is enriched, retained
	// domains stay bit-identical with source "model".
	queries := []string{unseen, scorerA.Domains()[0], "never-observed.example"}
	doc, _ := json.Marshal(BatchRequest{Domains: queries})
	var batch BatchResponse
	rec = getJSON(t, s.Handler(), "POST", "/v1/score/batch", bytes.NewReader(doc), &batch)
	if rec.Code != http.StatusOK {
		t.Fatalf("batch: status %d", rec.Code)
	}
	if got := batch.Results[0]; got.Known || got.Score != want.Score ||
		got.Source != want.Source || got.Confidence != want.Confidence {
		t.Fatalf("batch fold-in entry %+v, want %+v", got, want)
	}
	if got := batch.Results[1]; !got.Known || got.Source != core.SourceModel || got.Confidence != 1 {
		t.Fatalf("batch model entry %+v", got)
	}
	if wantScore, _ := scorerA.Score(queries[1]); batch.Results[1].Score != wantScore {
		t.Fatalf("batch model score %v != %v", batch.Results[1].Score, wantScore)
	}
	if got := batch.Results[2]; got.Known || got.Source != "" || got.Confidence != 0 {
		t.Fatalf("batch no-evidence entry %+v", got)
	}

	// NDJSON framing carries the same enrichment.
	rec = ndjsonRequest(t, s, queries)
	_, lines, err := DecodeNDJSON(rec.Body)
	if err != nil {
		t.Fatal(err)
	}
	if lines[0].Source != want.Source || lines[0].Score != want.Score || lines[0].Known {
		t.Fatalf("NDJSON fold-in line %+v, want %+v", lines[0], want)
	}
	if lines[2].Source != "" {
		t.Fatalf("NDJSON no-evidence line %+v", lines[2])
	}

	// The fold-in metrics surface the activity.
	rec = getJSON(t, s.Handler(), "GET", "/metrics", nil, nil)
	out := rec.Body.String()
	for _, wantLine := range []string{
		"maldomain_foldin_observations_total 1",
		"maldomain_foldin_cache_entries 1",
		fmt.Sprintf("maldomain_foldin_scores_total{source=%q} 3", want.Source),
		"maldomain_foldin_recomputes_total 1", // one cold score, then the memoized verdict twice

	} {
		if !strings.Contains(out, wantLine) {
			t.Errorf("metrics missing %q", wantLine)
		}
	}
}

// weightBody is an observe body relating domain to four retained
// neighbours in all three views, every relation at weight w.
func weightBody(t testing.TB, domain string, neighbors []string, w float64) []byte {
	t.Helper()
	req := ObserveRequest{Domain: domain}
	for _, n := range neighbors[:4] {
		for _, view := range []string{"query", "ip", "time"} {
			req.Relations = append(req.Relations, ObserveRelation{View: view, Neighbor: n, Weight: w})
		}
	}
	body, err := json.Marshal(req)
	if err != nil {
		t.Fatal(err)
	}
	return body
}

// TestObserveWeightBound: a weight above maxObserveWeight is rejected
// before it reaches the cache. Unbounded, 1e308 overflowed the
// fold-in's weighted sums to ±Inf, and every scoring route then served
// a NaN score, which is not JSON. At the bound the evidence is accepted
// and the verdict is JSON.
func TestObserveWeightBound(t *testing.T) {
	modelA, _, scorerA, _ := models(t)
	s, _ := newTestServer(t, modelA, nil)
	const unseen = "huge-weight.example"
	rec := getJSON(t, s.Handler(), "POST", "/v1/observe",
		bytes.NewReader(weightBody(t, unseen, scorerA.Domains(), 1e308)), nil)
	var envelope ErrorBody
	if err := json.Unmarshal(rec.Body.Bytes(), &envelope); rec.Code != http.StatusBadRequest || err != nil ||
		envelope.Error.Code != "bad_request" || !strings.Contains(envelope.Error.Message, "relation 0") {
		t.Fatalf("weight 1e308: status %d %q, want 400 bad_request naming relation 0", rec.Code, rec.Body.String())
	}
	if rec := getJSON(t, s.Handler(), "GET", "/v1/score/"+unseen, nil, nil); rec.Code != http.StatusNotFound {
		t.Fatalf("rejected evidence scored: status %d: %s", rec.Code, rec.Body.String())
	}

	rec = getJSON(t, s.Handler(), "POST", "/v1/observe",
		bytes.NewReader(weightBody(t, unseen, scorerA.Domains(), maxObserveWeight)), nil)
	if rec.Code != http.StatusOK {
		t.Fatalf("weight at the bound: status %d: %s", rec.Code, rec.Body.String())
	}
	rec = getJSON(t, s.Handler(), "GET", "/v1/score/"+unseen, nil, nil)
	if rec.Code != http.StatusOK || !json.Valid(rec.Body.Bytes()) {
		t.Fatalf("verdict at the bound: status %d, body %q", rec.Code, rec.Body.String())
	}
}

// TestObserveValidation covers the endpoint's rejection paths, all of
// which must carry the structured envelope with a stable code.
func TestObserveValidation(t *testing.T) {
	modelA, _, scorerA, _ := models(t)
	s, _ := newTestServer(t, modelA, nil)
	neighbor := scorerA.Domains()[0]

	cases := []struct {
		name, body string
		status     int
		code       string
	}{
		{"bad JSON", "not json", http.StatusBadRequest, "bad_request"},
		{"no domain", `{"relations":[{"view":"query","neighbor":"` + neighbor + `"}]}`,
			http.StatusBadRequest, "bad_request"},
		{"no relations", `{"domain":"x.example"}`, http.StatusBadRequest, "bad_request"},
		{"bad view", `{"domain":"x.example","relations":[{"view":"dns","neighbor":"` + neighbor + `"}]}`,
			http.StatusBadRequest, "bad_request"},
		{"no neighbor", `{"domain":"x.example","relations":[{"view":"query"}]}`,
			http.StatusBadRequest, "bad_request"},
	}
	for _, tc := range cases {
		rec := getJSON(t, s.Handler(), "POST", "/v1/observe", strings.NewReader(tc.body), nil)
		if rec.Code != tc.status {
			t.Fatalf("%s: status %d, want %d", tc.name, rec.Code, tc.status)
		}
		var envelope ErrorBody
		if err := json.Unmarshal(rec.Body.Bytes(), &envelope); err != nil {
			t.Fatalf("%s: body %q not an ErrorBody: %v", tc.name, rec.Body.String(), err)
		}
		if envelope.Error.Code != tc.code {
			t.Fatalf("%s: code %q, want %q", tc.name, envelope.Error.Code, tc.code)
		}
	}

	rec := getJSON(t, s.Handler(), "GET", "/v1/observe", nil, nil)
	if rec.Code != http.StatusMethodNotAllowed {
		t.Fatalf("GET observe: status %d, want 405", rec.Code)
	}
	if rec.Header().Get("Allow") != "POST" {
		t.Fatalf("405 without Allow: %q", rec.Header().Get("Allow"))
	}
	var envelope ErrorBody
	if err := json.Unmarshal(rec.Body.Bytes(), &envelope); err != nil || envelope.Error.Code != "method_not_allowed" {
		t.Fatalf("405 envelope %q (err %v)", rec.Body.String(), err)
	}

	// Unknown /v1 routes carry the envelope too.
	rec = getJSON(t, s.Handler(), "GET", "/v1/nope", nil, nil)
	if rec.Code != http.StatusNotFound {
		t.Fatalf("unknown route: status %d", rec.Code)
	}
	if err := json.Unmarshal(rec.Body.Bytes(), &envelope); err != nil || envelope.Error.Code != "not_found" {
		t.Fatalf("not_found envelope %q (err %v)", rec.Body.String(), err)
	}
}

// TestObserveScoreReloadRace hammers the fold-in path from three sides
// at once — observers feeding evidence, scorers reading the unknown
// domain, and the model file reloading between generations — under the
// race detector. Every score response must be either a 404 (evidence
// not yet observed) or a well-formed fold-in verdict.
func TestObserveScoreReloadRace(t *testing.T) {
	modelA, modelB, scorerA, _ := models(t)
	s, path := newTestServer(t, modelA, nil)
	const unseen = "race-unseen.example"
	body, _ := observeBody(t, unseen, scorerA.Domains())

	var wg sync.WaitGroup
	var bad atomic.Int64
	stop := make(chan struct{})
	for w := 0; w < 2; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				select {
				case <-stop:
					return
				default:
				}
				rec := httptest.NewRecorder()
				s.ServeHTTP(rec, httptest.NewRequest("POST", "/v1/observe", bytes.NewReader(body)))
				if rec.Code != http.StatusOK {
					bad.Add(1)
				}
			}
		}()
	}
	for w := 0; w < 4; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				select {
				case <-stop:
					return
				default:
				}
				var resp ScoreResponse
				rec := httptest.NewRecorder()
				s.ServeHTTP(rec, httptest.NewRequest("GET", "/v1/score/"+unseen, nil))
				switch rec.Code {
				case http.StatusNotFound:
					// Evidence not observed yet; fine.
				case http.StatusOK:
					if err := json.Unmarshal(rec.Body.Bytes(), &resp); err != nil {
						bad.Add(1)
						continue
					}
					if resp.Known || resp.Confidence < 0 || resp.Confidence > 1 ||
						(resp.Source != core.SourceFoldin && resp.Source != core.SourceKNN) {
						bad.Add(1)
					}
				default:
					bad.Add(1)
				}
			}
		}()
	}
	for i := 0; i < 10; i++ {
		next := modelB
		if i%2 == 1 {
			next = modelA
		}
		if err := os.WriteFile(path, next, 0o644); err != nil {
			t.Fatal(err)
		}
		if err := s.Reload(); err != nil {
			t.Fatalf("reload %d: %v", i, err)
		}
	}
	close(stop)
	wg.Wait()
	if n := bad.Load(); n != 0 {
		t.Fatalf("%d malformed responses under observe/score/reload churn", n)
	}
}

// wantObserveStatus is FuzzObserveBody's oracle: the status the observe
// route owes a body, from encoding/json and the route's documented
// validation.
func wantObserveStatus(body []byte, bodyCap int) int {
	if len(body) > bodyCap {
		return http.StatusRequestEntityTooLarge
	}
	var req ObserveRequest
	if json.Unmarshal(body, &req) != nil || req.Domain == "" || len(req.Relations) == 0 {
		return http.StatusBadRequest
	}
	for _, rel := range req.Relations {
		if _, ok := viewByName(rel.View); !ok || rel.Neighbor == "" || rel.Weight > maxObserveWeight {
			return http.StatusBadRequest
		}
	}
	return http.StatusOK
}

// FuzzObserveBody throws arbitrary bytes at POST /v1/observe, the one
// route that decodes untrusted input into the daemon's state: it must
// not panic, must answer 200 exactly when the body is one ObserveRequest
// document that passes validation (413 over the body cap, 400 for
// everything else), must keep the fold-in cache within its bound, and
// after every accepted body must still answer GET /v1/score/{domain}
// with valid JSON.
func FuzzObserveBody(f *testing.F) {
	const maxBatch, maxEntries = 4, 4
	const bodyCap = 64 + 260*maxBatch // 1104 bytes
	modelA, _, scorerA, _ := models(f)
	s, _ := newTestServer(f, modelA, func(c *Config) {
		c.MaxBatch = maxBatch
		c.FoldInMaxEntries = maxEntries
	})
	neighbor := scorerA.Domains()[0]
	valid := `{"domain":"x.example","relations":[{"view":"query","neighbor":"` + neighbor + `","weight":2}]}`
	for _, seed := range []string{
		valid, valid + "garbage", valid + valid, valid + " \n", "", "null", "{}", "not json",
		`{"domain":"y.example","relations":[{"view":"ip","neighbor":"nobody.example","weight":-1e308}]}`,
		`{"domain":"x.example","relations":[{"view":"dns","neighbor":"` + neighbor + `"}]}`,
		`{"domain":"x.example","relations":[{"view":"time"}]}`,
		`{"domain":"x.example","relations":[]}`,
		`{"relations":[{"view":"query","neighbor":"` + neighbor + `"}]}`,
		`{"DOMAIN":"z.example","Relations":[{"View":"query","Neighbor":"` + neighbor + `"}]}`,
		valid[:len(valid)-1] + strings.Repeat(" ", bodyCap) + "}",
		string(weightBody(f, "huge.example", scorerA.Domains(), 1e308)),
	} {
		f.Add([]byte(seed))
	}
	f.Fuzz(func(t *testing.T, body []byte) {
		rec := httptest.NewRecorder()
		s.ServeHTTP(rec, httptest.NewRequest("POST", "/v1/observe", bytes.NewReader(body)))
		if want := wantObserveStatus(body, bodyCap); rec.Code != want {
			t.Fatalf("POST /v1/observe %q: status %d, want %d: %s", body, rec.Code, want, rec.Body.String())
		}
		if n := s.foldin.Len(); n > maxEntries {
			t.Fatalf("fold-in cache holds %d entries, bound %d", n, maxEntries)
		}
		if rec.Code != http.StatusOK {
			return
		}
		var req ObserveRequest
		_ = json.Unmarshal(body, &req)
		score := httptest.NewRequest("GET", "/", nil)
		score.URL.Path = "/v1/score/" + req.Domain
		rec = httptest.NewRecorder()
		s.ServeHTTP(rec, score)
		if !json.Valid(rec.Body.Bytes()) {
			t.Fatalf("GET /v1/score/%s after observing %q: status %d, invalid JSON %q",
				req.Domain, body, rec.Code, rec.Body.String())
		}
	})
}
