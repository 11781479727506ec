package serve

import (
	"bytes"
	"encoding/json"
	"errors"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"
)

// ndjsonRequest POSTs a batch with the NDJSON Accept header through
// the full handler and returns the recorder.
func ndjsonRequest(t *testing.T, s *Server, domains []string) *httptest.ResponseRecorder {
	t.Helper()
	body, err := json.Marshal(BatchRequest{Domains: domains})
	if err != nil {
		t.Fatal(err)
	}
	req := httptest.NewRequest("POST", "/v1/score/batch", bytes.NewReader(body))
	req.Header.Set("Accept", NDJSONContentType)
	rec := httptest.NewRecorder()
	s.ServeHTTP(rec, req)
	return rec
}

// TestNDJSONEndpoint is the framing's wire contract: opting in via
// Accept yields the x-ndjson Content-Type, a fingerprint header line,
// and one result line per requested domain in request order, each line
// byte-identical to the buffered document's corresponding
// BatchResponse entry.
func TestNDJSONEndpoint(t *testing.T) {
	modelA, _, scorerA, _ := models(t)
	s, _ := newTestServer(t, modelA, nil)
	queries := append([]string{"missing.example"}, scorerA.Domains()...)

	rec := ndjsonRequest(t, s, queries)
	if rec.Code != http.StatusOK {
		t.Fatalf("status %d: %s", rec.Code, rec.Body.String())
	}
	if ct := rec.Header().Get("Content-Type"); ct != NDJSONContentType {
		t.Fatalf("Content-Type %q, want %q", ct, NDJSONContentType)
	}

	hdr, results, err := DecodeNDJSON(rec.Body)
	if err != nil {
		t.Fatal(err)
	}
	if hdr.Fingerprint != scorerA.Fingerprint() {
		t.Fatalf("fingerprint %q, want %q", hdr.Fingerprint, scorerA.Fingerprint())
	}
	if len(results) != len(queries) {
		t.Fatalf("%d result lines for %d domains", len(results), len(queries))
	}
	want := scorerA.ScoreBatch(queries)
	for i, res := range results {
		if res.Domain != queries[i] {
			t.Fatalf("line %d: domain %q, want %q (request order)", i, res.Domain, queries[i])
		}
		if res.Score != want[i].Score || res.Label != want[i].Label || res.Known != want[i].Known {
			t.Fatalf("line %d: %+v != scorer result %+v", i, res, want[i])
		}
	}
}

// TestNDJSONLineEquivalence pins each streamed line byte-for-byte to
// json.Marshal of the ScoreResponse struct — the same equivalence
// contract the buffered document carries, per line.
func TestNDJSONLineEquivalence(t *testing.T) {
	modelA, _, scorerA, _ := models(t)
	s, _ := newTestServer(t, modelA, nil)
	queries := append([]string{"missing.example"}, scorerA.Domains()...)

	rec := ndjsonRequest(t, s, queries)
	lines := strings.Split(strings.TrimSuffix(rec.Body.String(), "\n"), "\n")
	if len(lines) != 1+len(queries) {
		t.Fatalf("%d lines, want %d", len(lines), 1+len(queries))
	}
	wantHdr, _ := json.Marshal(NDJSONHeader{Fingerprint: scorerA.Fingerprint()})
	if lines[0] != string(wantHdr) {
		t.Fatalf("header line %q, want %q", lines[0], wantHdr)
	}
	for i, r := range scorerA.ScoreBatch(queries) {
		wantLine, _ := json.Marshal(ScoreResponse{
			Domain: queries[i], Score: r.Score, Label: r.Label, Known: r.Known,
			Confidence: r.Confidence, Source: r.Source,
		})
		if lines[i+1] != string(wantLine) {
			t.Fatalf("line %d: %q, want %q", i+1, lines[i+1], wantLine)
		}
	}
}

// TestNDJSONStreamsLargeBatch drives a batch large enough to cross the
// flush threshold and checks the response streamed (the recorder saw
// Flush before the handler returned) and stayed complete.
func TestNDJSONStreamsLargeBatch(t *testing.T) {
	modelA, _, scorerA, _ := models(t)
	s, _ := newTestServer(t, modelA, nil)
	base := scorerA.Domains()
	queries := make([]string, 5000)
	for i := range queries {
		queries[i] = base[i%len(base)]
	}

	rec := ndjsonRequest(t, s, queries)
	if rec.Code != http.StatusOK {
		t.Fatalf("status %d", rec.Code)
	}
	if !rec.Flushed {
		t.Fatal("large NDJSON batch never flushed mid-stream")
	}
	if rec.Body.Len() <= ndjsonFlushBytes {
		t.Fatalf("test batch too small to exercise streaming: %d bytes", rec.Body.Len())
	}
	_, results, err := DecodeNDJSON(rec.Body)
	if err != nil {
		t.Fatal(err)
	}
	if len(results) != len(queries) {
		t.Fatalf("%d result lines, want %d", len(results), len(queries))
	}
}

// TestNDJSONEmptyBatch: the degenerate stream is just the header line.
func TestNDJSONEmptyBatch(t *testing.T) {
	modelA, _, scorerA, _ := models(t)
	s, _ := newTestServer(t, modelA, nil)
	rec := ndjsonRequest(t, s, nil)
	hdr, results, err := DecodeNDJSON(rec.Body)
	if err != nil {
		t.Fatal(err)
	}
	if hdr.Fingerprint != scorerA.Fingerprint() || len(results) != 0 {
		t.Fatalf("empty batch: hdr %+v, %d results", hdr, len(results))
	}
}

// TestWantsNDJSON pins the opt-in matching: only an Accept mentioning
// the exact MIME type switches framing.
func TestWantsNDJSON(t *testing.T) {
	for accept, want := range map[string]bool{
		"":                                       false,
		"application/json":                       false,
		"application/x-ndjson":                   true,
		"application/x-ndjson; q=1":              true,
		"application/json, application/x-ndjson": true,
		"*/*":                                    false,
	} {
		if got := wantsNDJSON(accept); got != want {
			t.Errorf("wantsNDJSON(%q) = %v, want %v", accept, got, want)
		}
	}
}

// TestDecodeNDJSONErrors covers the decoder's failure modes: empty
// stream, garbage header, garbage line mid-stream (with the good
// prefix still returned).
func TestDecodeNDJSONErrors(t *testing.T) {
	if _, _, err := DecodeNDJSON(strings.NewReader("")); !errors.Is(err, ErrNDJSONSyntax) {
		t.Fatalf("empty stream: err %v", err)
	}
	if _, _, err := DecodeNDJSON(strings.NewReader("not json\n")); !errors.Is(err, ErrNDJSONSyntax) {
		t.Fatalf("bad header: err %v", err)
	}
	in := `{"fingerprint":"abc"}` + "\n" +
		`{"domain":"a.com","score":1,"label":1,"known":true}` + "\n" +
		"garbage\n"
	hdr, results, err := DecodeNDJSON(strings.NewReader(in))
	if !errors.Is(err, ErrNDJSONSyntax) {
		t.Fatalf("garbage line: err %v", err)
	}
	if hdr.Fingerprint != "abc" || len(results) != 1 || results[0].Domain != "a.com" {
		t.Fatalf("partial decode lost good prefix: hdr %+v results %+v", hdr, results)
	}
}

// FuzzDecodeNDJSON hammers the NDJSON decoder with arbitrary bytes: it
// must never panic.
func FuzzDecodeNDJSON(f *testing.F) {
	f.Add([]byte(`{"fingerprint":"abc"}` + "\n" + `{"domain":"a.com","score":1.5,"label":1,"known":true}` + "\n"))
	f.Add([]byte(`{"fingerprint":""}` + "\n"))
	f.Add([]byte(""))
	f.Add([]byte("\n\n\n"))
	f.Add([]byte(`{"fingerprint":"x"}` + "\n" + strings.Repeat("a", 100) + "\n"))
	f.Fuzz(func(t *testing.T, data []byte) {
		_, _, _ = DecodeNDJSON(bytes.NewReader(data))
	})
}
