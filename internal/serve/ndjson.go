package serve

// NDJSON batch framing: an opt-in wire format for large batch scoring
// responses. A client that sends Accept: application/x-ndjson on
// POST /v1/score/batch receives, instead of one BatchResponse
// document, a newline-delimited stream:
//
//	{"fingerprint":"..."}                         ← header line
//	{"domain":"a.com","score":1.5,"label":1,"known":true,"confidence":1,"source":"model"}
//	{"domain":"b.org","score":0.2,"label":0,"known":false,"confidence":0.41,"source":"foldin"}
//	{"domain":"c.net","score":0,"label":0,"known":false,"confidence":0}
//	...one line per requested domain, in request order
//
// Each line is a self-contained JSON document (the result lines are
// byte-identical to BatchResponse.Results entries), so a consumer can
// score-and-forward line by line without buffering the whole response,
// and the server streams the body in fixed-size chunks without ever
// materializing it: a 10k-domain batch costs the daemon one chunk
// buffer, not a megabyte of response. A retained domain's line is its
// pre-rendered row (modelState), copied into the chunk as is.
// DecodeNDJSON is the reference consumer; FuzzDecodeNDJSON pins its
// robustness.

import (
	"bufio"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"strings"
)

// NDJSONContentType is the MIME type of the streamed batch framing,
// sent by clients in Accept and returned in Content-Type.
const NDJSONContentType = "application/x-ndjson"

// NDJSONHeader is the first line of an NDJSON batch response.
type NDJSONHeader struct {
	Fingerprint string `json:"fingerprint"`
}

// ErrNDJSONSyntax reports a malformed NDJSON stream (missing header,
// non-JSON line, or trailing garbage).
var ErrNDJSONSyntax = errors.New("serve: malformed NDJSON stream")

// maxNDJSONLine bounds one line of an NDJSON stream a decoder will
// buffer: a domain name is at most 255 bytes, so legitimate lines are
// far smaller.
const maxNDJSONLine = 1 << 16

// DecodeNDJSON reads a complete NDJSON batch response: the header
// line, then one ScoreResponse per line until EOF. It is the reference
// consumer the equivalence and reload tests decode with. Malformed
// input — an empty stream, a non-JSON line, or a line exceeding
// maxNDJSONLine — returns an error wrapping ErrNDJSONSyntax; the
// results decoded before the bad line are returned alongside it.
func DecodeNDJSON(r io.Reader) (NDJSONHeader, []ScoreResponse, error) {
	var hdr NDJSONHeader
	sc := bufio.NewScanner(r)
	sc.Buffer(make([]byte, 4096), maxNDJSONLine)
	if !sc.Scan() {
		if err := sc.Err(); err != nil {
			return hdr, nil, fmt.Errorf("%w: header: %v", ErrNDJSONSyntax, err)
		}
		return hdr, nil, fmt.Errorf("%w: empty stream", ErrNDJSONSyntax)
	}
	if err := json.Unmarshal(sc.Bytes(), &hdr); err != nil {
		return hdr, nil, fmt.Errorf("%w: header: %v", ErrNDJSONSyntax, err)
	}
	var results []ScoreResponse
	for sc.Scan() {
		line := sc.Bytes()
		if len(line) == 0 {
			continue // tolerate a trailing blank line
		}
		var res ScoreResponse
		if err := json.Unmarshal(line, &res); err != nil {
			return hdr, results, fmt.Errorf("%w: line %d: %v", ErrNDJSONSyntax, len(results)+2, err)
		}
		results = append(results, res)
	}
	if err := sc.Err(); err != nil {
		return hdr, results, fmt.Errorf("%w: %v", ErrNDJSONSyntax, err)
	}
	return hdr, results, nil
}

// wantsNDJSON reports whether the request opted into the streamed
// framing. Only an explicit application/x-ndjson in Accept triggers
// it; everything else keeps the buffered BatchResponse document.
func wantsNDJSON(accept string) bool {
	return accept == NDJSONContentType ||
		(accept != "" && strings.Contains(accept, NDJSONContentType))
}
