package serve

import (
	"encoding/json"
	"math"
	"net/http"
	"slices"
	"strings"
	"testing"

	"repro/internal/race"
)

// marshalBatch is the canonical request document for domains.
func marshalBatch(tb testing.TB, domains ...string) []byte {
	tb.Helper()
	body, err := json.Marshal(BatchRequest{Domains: domains})
	if err != nil {
		tb.Fatal(err)
	}
	return body
}

// batchBodies are the request shapes the decoder is pinned on, as table
// cases for TestScanBatch and as FuzzBatchRequest's seeds. fast says
// whether scanBatch itself must accept the body; the rest must reach
// encoding/json.
var batchBodies = []struct {
	name string
	body string
	fast bool
	want []string
}{
	{"canonical", `{"domains":["a.com","b.org"]}`, true, []string{"a.com", "b.org"}},
	{"whitespace", " \n{\t\"domains\" :\r[ \"a.com\" , \"b.org\" ]\n}\n ", true, []string{"a.com", "b.org"}},
	{"empty array", `{"domains":[]}`, true, nil},
	{"empty array spaced", `{"domains":[ ]}`, true, nil},
	{"empty strings", `{"domains":["",""]}`, true, []string{"", ""}},
	{"html-unsafe ascii", `{"domains":["a<b>&c.com"]}`, true, []string{"a<b>&c.com"}},
	{"null", `{"domains":null}`, false, nil},
	{"empty object", `{}`, false, nil},
	{"case-folded key", `{"Domains":["a.com"]}`, false, []string{"a.com"}},
	{"duplicate key", `{"domains":["a.com"],"domains":["b.org"]}`, false, []string{"b.org"}},
	{"other key", `{"domains":["a.com"],"x":1}`, false, []string{"a.com"}},
	{"escape", `{"domains":["\u0061.com"]}`, false, []string{"a.com"}},
	{"raw UTF-8", `{"domains":["bücher.example"]}`, false, []string{"bücher.example"}},
	{"DEL byte", "{\"domains\":[\"a\x7f.com\"]}", false, []string{"a\x7f.com"}},
}

// badBatchBodies are rejected by encoding/json, so by the decoder, with
// encoding/json's message.
var badBatchBodies = []string{
	``, `a`, `not json`, `[]`, `{"domains":"a.com"}`, `{"domains":[1]}`,
	`{"domains":["a.com"]`, `{"domains":["a.com",]}`, `{"domains":["a.com" "b.org"]}`,
	`{"domains":["a.com`, "{\"domains\":[\"a\x01.com\"]}", `{"domains":["a.com"]}garbage`,
	`{"domains":["a.com"]}{"domains":["b.org"]}`, `{"domains":["a.com"]} x`,
}

// TestScanBatch pins which bodies the fast path takes — FuzzBatchRequest
// alone would pass with a scanner that accepted nothing — and that both
// paths yield the domains encoding/json does.
func TestScanBatch(t *testing.T) {
	for _, tc := range batchBodies {
		got, ok := scanBatch(nil, tc.body, math.MaxInt)
		if ok != tc.fast {
			t.Errorf("%s: scanBatch accepted = %v, want %v", tc.name, ok, tc.fast)
		}
		if ok && !slices.Equal(got, tc.want) {
			t.Errorf("%s: scanBatch = %q, want %q", tc.name, got, tc.want)
		}
		var scratch []string
		got, err := decodeBatch(&scratch, []byte(tc.body), math.MaxInt)
		if err != nil || !slices.Equal(got, tc.want) {
			t.Errorf("%s: decodeBatch = %q, %v; want %q", tc.name, got, err, tc.want)
		}
	}
	for _, body := range badBatchBodies {
		if _, ok := scanBatch(nil, body, math.MaxInt); ok {
			t.Errorf("scanBatch accepted %q", body)
		}
		var scratch []string
		var ref BatchRequest
		_, err := decodeBatch(&scratch, []byte(body), math.MaxInt)
		if want := json.Unmarshal([]byte(body), &ref); want == nil || err == nil || err.Error() != want.Error() {
			t.Errorf("%q: decodeBatch error %v, json.Unmarshal's %v", body, err, want)
		}
	}
	// Past the limit the scanner stops where it is: a body it would
	// otherwise hand over as malformed is simply over the limit.
	got, ok := scanBatch(nil, `{"domains":["a","b","c","d"`, 2)
	if !ok || !slices.Equal(got, []string{"a", "b", "c"}) {
		t.Errorf("over the limit: scanBatch = %q, %v; want the first 3 domains", got, ok)
	}
}

// FuzzBatchRequest is the differential that lets scanBatch exist: for
// arbitrary bytes the decoder, with no batch limit, accepts what
// json.Unmarshal into BatchRequest accepts, returns the same domains,
// and fails with the same text. With a limit, a result within it is
// still the reference's, and one past it means the reference either
// rejects the body or is past the limit too.
func FuzzBatchRequest(f *testing.F) {
	for _, tc := range batchBodies {
		f.Add([]byte(tc.body))
	}
	for _, body := range badBatchBodies {
		f.Add([]byte(body))
	}
	f.Add(marshalBatch(f, "plain.example", `quo"te`, "héllo", "tab\there", "<&>"))
	f.Add(marshalBatch(f, make([]string, Config{}.withDefaults().MaxBatch+1)...))
	f.Fuzz(func(t *testing.T, data []byte) {
		var ref BatchRequest
		refErr := json.Unmarshal(data, &ref)
		same := func(got []string, err error) bool {
			if refErr != nil || err != nil {
				return refErr != nil && err != nil && err.Error() == refErr.Error()
			}
			return slices.Equal(got, ref.Domains)
		}

		var scratch []string
		got, err := decodeBatch(&scratch, data, math.MaxInt)
		if !same(got, err) {
			t.Fatalf("decodeBatch(%q) = %q, %v; json.Unmarshal gives %q, %v", data, got, err, ref.Domains, refErr)
		}

		const limit = 2
		got, err = decodeBatch(&scratch, data, limit)
		if err != nil || len(got) <= limit {
			if !same(got, err) {
				t.Fatalf("decodeBatch(%q, limit %d) = %q, %v; json.Unmarshal gives %q, %v", data, limit, got, err, ref.Domains, refErr)
			}
		} else if refErr == nil && len(ref.Domains) <= limit {
			t.Fatalf("decodeBatch(%q, limit %d) found %d domains, json.Unmarshal %d", data, limit, len(got), len(ref.Domains))
		}
	})
}

// TestTrailingBytesRejected: the request is the whole body. Bytes after
// the JSON document — garbage or a second document — are a 400 on both
// POST routes, where json.Decoder used to stop at the first value and
// serve it; a whitespace-only tail stays part of a valid request.
func TestTrailingBytesRejected(t *testing.T) {
	modelA, _, scorerA, _ := models(t)
	s, _ := newTestServer(t, modelA, nil)
	dom := scorerA.Domains()[0]
	batch := string(marshalBatch(t, dom))
	// Escaped, so that the batch body takes the encoding/json path.
	escaped := `{"domains":["\u0061.example"]}`
	observe, _ := observeBody(t, "trailing.example", scorerA.Domains())

	for _, route := range []struct{ path, doc string }{
		{"/v1/score/batch", batch},
		{"/v1/score/batch", escaped},
		{"/v1/observe", string(observe)},
	} {
		for _, tc := range []struct {
			name, tail string
			status     int
		}{
			{"no tail", "", http.StatusOK},
			{"whitespace tail", " \r\n\t\n", http.StatusOK},
			{"garbage", "garbage", http.StatusBadRequest},
			{"garbage after space", "\n x", http.StatusBadRequest},
			{"second document", route.doc, http.StatusBadRequest},
		} {
			rec := getJSON(t, s.Handler(), "POST", route.path, strings.NewReader(route.doc+tc.tail), nil)
			if rec.Code != tc.status {
				t.Errorf("%s %.24s… + %s: status %d, want %d: %s", route.path, route.doc, tc.name, rec.Code, tc.status, rec.Body.String())
				continue
			}
			if tc.status == http.StatusOK {
				continue
			}
			var envelope ErrorBody
			if err := json.Unmarshal(rec.Body.Bytes(), &envelope); err != nil || envelope.Error.Code != codeBadRequest {
				t.Errorf("%s + %s: body %q is not the bad_request envelope (%v)", route.path, tc.name, rec.Body.String(), err)
			}
		}
	}
}

// TestBatchLimitBothPaths: MaxBatch is enforced whether the body is
// canonical or decoded by encoding/json. The scanner stops one domain
// past the limit, so a canonical body cut short after that is over the
// limit (413) before it is malformed (400).
func TestBatchLimitBothPaths(t *testing.T) {
	modelA, _, _, _ := models(t)
	s, _ := newTestServer(t, modelA, func(c *Config) { c.MaxBatch = 3 })
	for body, want := range map[string]int{
		`{"domains":["a","b","c"]}`:          http.StatusOK,
		`{"domains":["a","b","c","d"]}`:      http.StatusRequestEntityTooLarge,
		`{"domains":["a","b","c","d","e"`:    http.StatusRequestEntityTooLarge,
		`{"domains":["\u0061","b","c"]}`:     http.StatusOK,
		`{"domains":["\u0061","b","c","d"]}`: http.StatusRequestEntityTooLarge,
		`{"domains":["\u0061","b","c","d"`:   http.StatusBadRequest,
	} {
		rec := getJSON(t, s.Handler(), "POST", "/v1/score/batch", strings.NewReader(body), nil)
		if rec.Code != want {
			t.Errorf("%s: status %d, want %d: %s", body, rec.Code, want, rec.Body.String())
		}
		if want == http.StatusRequestEntityTooLarge && !strings.Contains(rec.Body.String(), codeOverLimit) {
			t.Errorf("%s: 413 body %q lacks the %s code", body, rec.Body.String(), codeOverLimit)
		}
	}
}

// TestBatchAllocsIndependentOfSize: a streamed batch of retained
// domains costs the same few allocations whether it names 50 domains or
// 5 000 — the body's one string copy and the per-request plumbing —
// where the encoding/json decode paid one per domain.
func TestBatchAllocsIndependentOfSize(t *testing.T) {
	if race.Enabled {
		t.Skip("sync.Pool drops items at random under the race detector")
	}
	modelA, _, _, _ := models(t)
	s, _ := newTestServer(t, modelA, nil)
	allocs := func(n int) float64 {
		req, rewind := batchRequest(t, largeBatch(s, n), true)
		w := newBenchWriter()
		return testing.AllocsPerRun(50, func() {
			rewind()
			w.reset()
			s.ServeHTTP(w, req)
			if w.code != http.StatusOK {
				t.Fatalf("status %d", w.code)
			}
		})
	}
	small, large := allocs(50), allocs(5000)
	t.Logf("allocs per NDJSON batch: %v at 50 domains, %v at 5000", small, large)
	if math.Abs(large-small) > 2 {
		t.Fatalf("allocs per batch grow with its size: %v at 50 domains, %v at 5000", small, large)
	}
}
