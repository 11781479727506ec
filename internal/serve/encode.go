package serve

// Manual JSON encoding for the scoring hot path. The result shape the
// daemon serves per request is tiny and fixed (ScoreResponse, alone or
// inside BatchResponse), yet encoding/json costs dozens of heap
// allocations per call: the encoder machinery, reflection state, and
// intermediate buffers dominated the serve profile (42 allocs and
// 7.9 KB per single score). This file hand-encodes exactly that shape
// into pooled []byte buffers; every other response, error envelopes
// included, goes through encoding/json (writeJSON).
//
// The contract is byte-for-byte equivalence with what
// json.NewEncoder(w).Encode(v) produced before — same field order,
// same string escaping (including encoding/json's default HTML-unsafe
// escapes for <, >, & and its � replacement for invalid UTF-8),
// same float format, same trailing newline — proven by
// TestManualEncodingEquivalence and FuzzJSONStringEquivalence. Callers
// that change a response shape must extend both the appender and the
// equivalence test.
//
// appendResult has two consumers: handlers encoding a result per
// request (fold-in verdicts, no-evidence batch entries), and
// renderRows, which runs it once per retained domain at model load and
// lets every scoring route serve the stored bytes
// (TestRenderedRowsMatchEncoders). Either way a result plus a newline
// is a whole GET /v1/score/{domain} body, as json.Encoder.Encode writes
// it, and an NDJSON line; without the newline it is a BatchResponse
// entry.

import (
	"math"
	"strconv"
	"sync"
	"unicode/utf8"

	"repro/internal/core"
)

// bufPool recycles response-encoding buffers. Buffers start at 1 KB
// (a single-score response fits with room to spare) and grow
// with use; oversized buffers (large batch responses) are dropped on
// Put so a burst of 10k-domain batches cannot pin megabytes forever.
var bufPool = sync.Pool{
	New: func() any {
		b := make([]byte, 0, 1024)
		return &b
	},
}

// maxPooledBuf bounds the capacity of buffers returned to bufPool.
const maxPooledBuf = 1 << 20

func getBuf() *[]byte {
	return bufPool.Get().(*[]byte)
}

func putBuf(b *[]byte) {
	if cap(*b) > maxPooledBuf {
		return
	}
	*b = (*b)[:0]
	bufPool.Put(b)
}

const hexDigits = "0123456789abcdef"

// appendJSONString appends the JSON encoding of s, replicating
// encoding/json's string escaping with its default escapeHTML=true:
// ", \ and the named control escapes; other control bytes, <, > and &
// as \u00XX; invalid UTF-8 bytes as �; U+2028/U+2029 escaped for
// JSONP safety; everything else copied verbatim.
func appendJSONString(dst []byte, s string) []byte {
	dst = append(dst, '"')
	start := 0
	for i := 0; i < len(s); {
		if b := s[i]; b < utf8.RuneSelf {
			if jsonSafe[b] {
				i++
				continue
			}
			dst = append(dst, s[start:i]...)
			switch b {
			case '\\', '"':
				dst = append(dst, '\\', b)
			case '\b':
				dst = append(dst, '\\', 'b')
			case '\f':
				dst = append(dst, '\\', 'f')
			case '\n':
				dst = append(dst, '\\', 'n')
			case '\r':
				dst = append(dst, '\\', 'r')
			case '\t':
				dst = append(dst, '\\', 't')
			default:
				// Control bytes below 0x20 without a named escape,
				// plus <, > and & under HTML escaping.
				dst = append(dst, '\\', 'u', '0', '0', hexDigits[b>>4], hexDigits[b&0xF])
			}
			i++
			start = i
			continue
		}
		c, size := utf8.DecodeRuneInString(s[i:])
		if c == utf8.RuneError && size == 1 {
			dst = append(dst, s[start:i]...)
			dst = append(dst, '\\', 'u', 'f', 'f', 'f', 'd')
			i += size
			start = i
			continue
		}
		if c == '\u2028' || c == '\u2029' {
			dst = append(dst, s[start:i]...)
			dst = append(dst, '\\', 'u', '2', '0', '2', hexDigits[c&0xF])
			i += size
			start = i
			continue
		}
		i += size
	}
	dst = append(dst, s[start:]...)
	return append(dst, '"')
}

// jsonSafe marks the ASCII bytes encoding/json copies through
// unescaped when HTML escaping is on: printable characters except
// ", \, <, > and &.
var jsonSafe = [utf8.RuneSelf]bool{}

func init() {
	for b := 0x20; b < utf8.RuneSelf; b++ {
		jsonSafe[b] = true
	}
	for _, b := range []byte{'"', '\\', '<', '>', '&'} {
		jsonSafe[b] = false
	}
}

// appendJSONFloat appends f in encoding/json's float64 format: 'f'
// notation in the human range, 'e' notation (with the exponent's
// leading zero trimmed, e.g. 1e-07 → 1e-7) below 1e-6 and at or above
// 1e21. NaN and infinities are unrepresentable in JSON; scoring
// responses only carry finite SVM decision values, and the equivalence
// test pins the finite behavior.
func appendJSONFloat(dst []byte, f float64) []byte {
	abs := math.Abs(f)
	format := byte('f')
	if abs != 0 && (abs < 1e-6 || abs >= 1e21) {
		format = 'e'
	}
	dst = strconv.AppendFloat(dst, f, format, -1, 64)
	if format == 'e' {
		if n := len(dst); n >= 4 && dst[n-4] == 'e' && dst[n-3] == '-' && dst[n-2] == '0' {
			dst[n-2] = dst[n-1]
			dst = dst[:n-1]
		}
	}
	return dst
}

// appendResult appends one ScoreResponse object for domain's verdict
// res (no newline; the caller ends the line or places the object inside
// an array). An empty source is omitted, matching the struct's
// omitempty tag.
func appendResult(dst []byte, domain string, res core.Result) []byte {
	dst = append(dst, `{"domain":`...)
	dst = appendJSONString(dst, domain)
	dst = append(dst, `,"score":`...)
	dst = appendJSONFloat(dst, res.Score)
	dst = append(dst, `,"label":`...)
	dst = strconv.AppendInt(dst, int64(res.Label), 10)
	if res.Known {
		dst = append(dst, `,"known":true`...)
	} else {
		dst = append(dst, `,"known":false`...)
	}
	dst = append(dst, `,"confidence":`...)
	dst = appendJSONFloat(dst, res.Confidence)
	if res.Source != "" {
		dst = append(dst, `,"source":`...)
		dst = appendJSONString(dst, res.Source)
	}
	return append(dst, '}')
}

// statusText returns the ASCII form of the HTTP status codes the
// scoring routes emit without allocating; uncommon codes fall back to
// strconv.
func statusText(code int) string {
	switch code {
	case 200:
		return "200"
	case 400:
		return "400"
	case 404:
		return "404"
	case 405:
		return "405"
	case 413:
		return "413"
	case 500:
		return "500"
	case 503:
		return "503"
	}
	return strconv.Itoa(code)
}
