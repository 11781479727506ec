package serve

import (
	"bytes"
	"encoding/json"
	"math"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"

	"repro/internal/core"
)

// nastyStrings exercises every branch of appendJSONString: named
// escapes, raw control bytes, HTML-unsafe characters, invalid UTF-8,
// the JSONP line separators, multi-byte runes, and long plain runs.
var nastyStrings = []string{
	"",
	"plain.example",
	`quo"te`,
	`back\slash`,
	"tab\there",
	"nl\nline",
	"cr\rline",
	"\b\f",
	"\x00\x01\x1f",
	"<script>&amp;</script>",
	"a<b>c&d",
	"\xff\xfe invalid",
	"trailing\xc3",
	" line sep",
	"héllo 世界",
	strings.Repeat("long-ascii.example/", 100),
	"mixed\"\\\n<&\xffé end",
}

// nastyFloats exercises appendJSONFloat's format switch: both sides of
// the 1e-6 and 1e21 thresholds, subnormals, negative zero, and values
// whose shortest representation carries an exponent of one digit.
var nastyFloats = []float64{
	0, math.Copysign(0, -1),
	1, -1, 1.5, -2.75, 0.1,
	1e-6, 9.999999e-7, -9.999999e-7, 6.6e-7,
	1e20, 1e21, -1e21, 1.0000000000000002e21,
	5e-324, math.MaxFloat64, math.SmallestNonzeroFloat64,
	3.141592653589793, -1.2345678901234567e-100, 7.5e250,
}

// encodeRef runs encoding/json exactly the way writeJSON used to:
// Encoder.Encode, default escaping, trailing newline.
func encodeRef(t *testing.T, v any) []byte {
	t.Helper()
	var buf bytes.Buffer
	if err := json.NewEncoder(&buf).Encode(v); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

// TestManualEncodingEquivalence pins the hand-rolled result appender
// to encoding/json byte for byte, over the full nasty-input matrix:
// appendResult plus a newline is json.Encoder.Encode of the
// ScoreResponse struct, empty source (omitted) included. This test is
// the license for encode.go to exist.
func TestManualEncodingEquivalence(t *testing.T) {
	sources := []string{"", "model", "foldin", "knn"}
	for _, s := range nastyStrings {
		for _, f := range nastyFloats {
			for _, label := range []int{0, 1, -1} {
				for _, known := range []bool{true, false} {
					for _, src := range sources {
						want := encodeRef(t, ScoreResponse{
							Domain: s, Score: f, Label: label,
							Known: known, Confidence: f, Source: src,
						})
						res := core.Result{Score: f, Label: label, Known: known, Confidence: f, Source: src}
						if got := append(appendResult(nil, s, res), '\n'); !bytes.Equal(got, want) {
							t.Fatalf("ScoreResponse(%q, %v, %d, %v, %q):\n got %s\nwant %s",
								s, f, label, known, src, got, want)
						}
					}
				}
			}
		}
	}
}

// TestServedEncodingEquivalence checks the equivalence end to end: the
// bytes the live handlers emit must equal encoding/json applied to the
// documented response structs, for score, batch (known and unknown
// domains), and the 404 error envelope.
func TestServedEncodingEquivalence(t *testing.T) {
	modelA, _, scorerA, _ := models(t)
	s, _ := newTestServer(t, modelA, nil)
	domains := scorerA.Domains()

	// Single score, known domain.
	rec := httptest.NewRecorder()
	s.ServeHTTP(rec, httptest.NewRequest("GET", "/v1/score/"+domains[0], nil))
	if rec.Code != http.StatusOK {
		t.Fatalf("status %d", rec.Code)
	}
	if ct := rec.Header().Get("Content-Type"); ct != "application/json" {
		t.Fatalf("Content-Type %q", ct)
	}
	score, _ := scorerA.Score(domains[0])
	label, _ := scorerA.Predict(domains[0])
	want := encodeRef(t, ScoreResponse{
		Domain: domains[0], Score: score, Label: label,
		Known: true, Confidence: 1, Source: "model",
	})
	if got := rec.Body.Bytes(); !bytes.Equal(got, want) {
		t.Fatalf("score body:\n got %s\nwant %s", got, want)
	}

	// Single score, unknown domain: the 404 envelope must carry
	// Lookup's exact error text.
	rec = httptest.NewRecorder()
	s.ServeHTTP(rec, httptest.NewRequest("GET", "/v1/score/not-here.example", nil))
	if rec.Code != http.StatusNotFound {
		t.Fatalf("status %d", rec.Code)
	}
	_, lookupErr := scorerA.Lookup("not-here.example")
	want = encodeRef(t, ErrorBody{Error: ErrorDetail{
		Code: "unknown_domain", Message: lookupErr.Error(),
	}})
	if got := rec.Body.Bytes(); !bytes.Equal(got, want) {
		t.Fatalf("404 body:\n got %s\nwant %s", got, want)
	}

	// Batch document with known and unknown domains interleaved.
	queries := append([]string{"missing.example"}, domains...)
	body, _ := json.Marshal(BatchRequest{Domains: queries})
	rec = httptest.NewRecorder()
	s.ServeHTTP(rec, httptest.NewRequest("POST", "/v1/score/batch", bytes.NewReader(body)))
	if rec.Code != http.StatusOK {
		t.Fatalf("status %d: %s", rec.Code, rec.Body.String())
	}
	results := make([]ScoreResponse, 0, len(queries))
	for _, r := range scorerA.ScoreBatch(queries) {
		results = append(results, ScoreResponse{
			Score: r.Score, Label: r.Label, Known: r.Known,
			Confidence: r.Confidence, Source: r.Source,
		})
	}
	for i := range results {
		results[i].Domain = queries[i]
	}
	want = encodeRef(t, BatchResponse{Results: results, Fingerprint: scorerA.Fingerprint()})
	if got := rec.Body.Bytes(); !bytes.Equal(got, want) {
		t.Fatalf("batch body:\n got %s\nwant %s", got, want)
	}

	// Empty batch: results must render as [], not null.
	rec = httptest.NewRecorder()
	s.ServeHTTP(rec, httptest.NewRequest("POST", "/v1/score/batch", strings.NewReader(`{"domains":[]}`)))
	want = encodeRef(t, BatchResponse{Results: []ScoreResponse{}, Fingerprint: scorerA.Fingerprint()})
	if got := rec.Body.Bytes(); !bytes.Equal(got, want) {
		t.Fatalf("empty batch body:\n got %s\nwant %s", got, want)
	}
}

// TestRenderedRowsMatchEncoders pins the row table loadModel renders to
// the encoders it stands in for: every retained domain's row is
// appendResult's output plus a newline, which is encoding/json's of the
// documented struct.
func TestRenderedRowsMatchEncoders(t *testing.T) {
	modelA, _, scorerA, _ := models(t)
	s, _ := newTestServer(t, modelA, nil)
	st := s.model.Load()
	domains := scorerA.Domains()
	if len(st.rowOff) != len(domains)+1 || int(st.rowOff[len(domains)]) != len(st.rows) {
		t.Fatalf("row table: %d offsets ending at %d for %d domains and %d bytes",
			len(st.rowOff), st.rowOff[len(st.rowOff)-1], len(domains), len(st.rows))
	}
	for _, d := range domains {
		i, ok := st.scorer.Index(d)
		if !ok || domains[i] != d {
			t.Fatalf("Index(%q) = %d, %v", d, i, ok)
		}
		score, _ := scorerA.Score(d)
		label, _ := scorerA.Predict(d)
		row := st.row(i)
		res := core.Result{Score: score, Label: label, Known: true, Confidence: 1, Source: "model"}
		if want := append(appendResult(nil, d, res), '\n'); !bytes.Equal(row, want) {
			t.Fatalf("row of %s:\n got %s\nwant %s (appendResult + newline)", d, row, want)
		}
		want := encodeRef(t, ScoreResponse{Domain: d, Score: score, Label: label, Known: true, Confidence: 1, Source: "model"})
		if !bytes.Equal(row, want) {
			t.Fatalf("row of %s:\n got %s\nwant %s (encoding/json)", d, row, want)
		}
	}
	if _, ok := st.scorer.Index("missing.example"); ok {
		t.Fatal("Index found a domain outside the model")
	}
}

// TestBodyCapDerivation pins the MaxBatch → body cap sizing rule: any
// legal batch of maximum-length DNS names must fit under the derived
// cap.
func TestBodyCapDerivation(t *testing.T) {
	cfg := Config{MaxBatch: 4}.withDefaults()
	if want := int64(64 + 260*4); cfg.bodyCap() != want {
		t.Fatalf("derived body cap = %d, want %d", cfg.bodyCap(), want)
	}
	// A full batch of 255-byte domains must be under the cap.
	doc, _ := json.Marshal(BatchRequest{Domains: []string{
		strings.Repeat("a", 255), strings.Repeat("b", 255),
		strings.Repeat("c", 255), strings.Repeat("d", 255),
	}})
	if int64(len(doc)) > cfg.bodyCap() {
		t.Fatalf("maximal legal batch is %d bytes, exceeds derived cap %d", len(doc), cfg.bodyCap())
	}
}

// TestBatchBodyCap checks the enforcement boundary: a body of exactly
// the cap's size is served, one byte more is rejected with 413 before
// the batch is scored.
func TestBatchBodyCap(t *testing.T) {
	modelA, _, _, _ := models(t)
	s, _ := newTestServer(t, modelA, func(c *Config) { c.MaxBatch = 4 }) // cap 1104 bytes

	doc := `{"domains":["pad.example"]}`
	pad := strings.Repeat(" ", 1104-len(doc))

	rec := httptest.NewRecorder()
	s.ServeHTTP(rec, httptest.NewRequest("POST", "/v1/score/batch", strings.NewReader(pad+doc)))
	if rec.Code != http.StatusOK {
		t.Fatalf("body at cap: status %d: %s", rec.Code, rec.Body.String())
	}

	rec = httptest.NewRecorder()
	s.ServeHTTP(rec, httptest.NewRequest("POST", "/v1/score/batch", strings.NewReader(" "+pad+doc)))
	if rec.Code != http.StatusRequestEntityTooLarge {
		t.Fatalf("body over cap: status %d, want 413", rec.Code)
	}
	if !strings.Contains(rec.Body.String(), "batch body exceeds 1104 bytes") {
		t.Fatalf("413 body %q does not name the cap", rec.Body.String())
	}
}

// FuzzJSONStringEquivalence fuzzes the one encoding branch with real
// surface area — string escaping — against encoding/json.
func FuzzJSONStringEquivalence(f *testing.F) {
	for _, s := range nastyStrings {
		f.Add(s)
	}
	f.Fuzz(func(t *testing.T, s string) {
		want, err := json.Marshal(s)
		if err != nil {
			t.Skip()
		}
		got := appendJSONString(nil, s)
		if !bytes.Equal(got, want) {
			t.Fatalf("appendJSONString(%q):\n got %s\nwant %s", s, got, want)
		}
	})
}
