package serve

// Request bodies: the one bounded read both POST routes share, and the
// batch route's decoder. A batch body is, from every client this daemon
// has, the canonical document json.Marshal(BatchRequest) writes, and
// decoding it through encoding/json cost more than half of a batch
// request (reflection plus an allocation per domain). scanBatch accepts
// exactly that shape in one pass and cuts the domains out of a single
// string copy of the body; everything it does not recognize goes, same
// bytes, to json.Unmarshal, which therefore still defines what is
// accepted, what the domains are and what every error says.
// FuzzBatchRequest holds the two to each other.

import (
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"net/http"
	"strings"
	"sync"
	"time"
)

// readBody reads the whole request body into a pooled buffer, behind
// the read deadline and the body cap. The body is the only place a
// scoring handler can block, so RequestTimeout is enforced here as a
// connection read deadline (not http.TimeoutHandler, which buffers
// whole responses — the streamed NDJSON framing must never be).
// On failure it answers the request (413 over the cap, 400 otherwise)
// and returns a nil buffer with the status written; on success the
// caller owns the buffer until putBuf.
func (s *Server) readBody(w http.ResponseWriter, r *http.Request, what string) (*[]byte, int) {
	// Recorders and other non-net writers report ErrNotSupported;
	// requests through a real net/http server get the deadline.
	_ = http.NewResponseController(w).SetReadDeadline(time.Now().Add(s.cfg.RequestTimeout))
	limit := s.cfg.bodyCap()
	body := http.MaxBytesReader(w, r.Body, limit)
	buf := getBuf()
	bb := bytes.NewBuffer((*buf)[:0])
	_, err := bb.ReadFrom(body)
	*buf = bb.Bytes()
	if err == nil {
		return buf, 0
	}
	putBuf(buf)
	var mbe *http.MaxBytesError
	if errors.As(err, &mbe) {
		writeError(w, http.StatusRequestEntityTooLarge, codeOverLimit,
			fmt.Sprintf("%s body exceeds %d bytes", what, limit))
		return nil, http.StatusRequestEntityTooLarge
	}
	writeError(w, http.StatusBadRequest, codeBadRequest, "bad "+what+" request: "+err.Error())
	return nil, http.StatusBadRequest
}

// domainsPool recycles the per-batch []string the scanner fills. A
// slice never grows past MaxBatch+1 entries, and is cleared before it
// goes back so it does not pin the request it was cut from.
var domainsPool = sync.Pool{
	New: func() any {
		d := make([]string, 0, 512)
		return &d
	},
}

// decodeBatch returns the domains of one batch request body, or
// json.Unmarshal's error for a body that is not a BatchRequest document.
// It stops early, returning more than max domains, once a canonical
// body is known to be over the batch limit. scratch is the pooled slice
// the canonical path appends to; the returned domains may alias it.
func decodeBatch(scratch *[]string, body []byte, max int) ([]string, error) {
	domains, ok := scanBatch((*scratch)[:0], string(body), max)
	*scratch = domains
	if ok {
		return domains, nil
	}
	var req BatchRequest
	if err := json.Unmarshal(body, &req); err != nil {
		return nil, err
	}
	return req.Domains, nil
}

// scanBatch is the canonical-document fast path of decodeBatch: optional
// JSON whitespace around exactly {"domains":[ "…", … ]}, strings of
// printable ASCII without a backslash, nothing after the closing brace.
// It appends the strings to dst as substrings of s and reports true, or
// reports false for anything else — escapes, non-ASCII, other or
// repeated keys, null, malformed input — leaving the verdict to
// encoding/json. With more than max strings appended it returns true at
// once, the rest of s unread.
//
//alloccheck:hot
func scanBatch(dst []string, s string, max int) ([]string, bool) {
	const key = `domains"`
	i := expect(s, 0, '{')
	if i = expect(s, i, '"'); i < 0 || !strings.HasPrefix(s[i:], key) {
		return dst, false
	}
	i = expect(s, i+len(key), ':')
	if i = expect(s, i, '['); i < 0 {
		return dst, false
	}
	if end := expect(s, i, ']'); end >= 0 {
		i = end
	} else {
		for {
			if i = expect(s, i, '"'); i < 0 {
				return dst, false
			}
			start := i
			for i < len(s) && s[i] != '"' {
				if c := s[i]; c < 0x20 || c > 0x7e || c == '\\' {
					return dst, false
				}
				i++
			}
			if i == len(s) {
				return dst, false
			}
			dst = append(dst, s[start:i])
			if len(dst) > max {
				return dst, true
			}
			if end := expect(s, i+1, ','); end >= 0 {
				i = end
				continue
			}
			if i = expect(s, i+1, ']'); i < 0 {
				return dst, false
			}
			break
		}
	}
	i = expect(s, i, '}')
	return dst, i >= 0 && skipSpace(s, i) == len(s)
}

// expect skips JSON whitespace from s[i:] and returns the index after
// the byte c if that is what follows, or -1 — also when i already is
// -1, so a run of expectations needs one check at its end.
func expect(s string, i int, c byte) int {
	if i < 0 {
		return -1
	}
	if i = skipSpace(s, i); i < len(s) && s[i] == c {
		return i + 1
	}
	return -1
}

// skipSpace returns the index of the first byte of s[i:] that is not
// JSON whitespace.
func skipSpace(s string, i int) int {
	for i < len(s) && (s[i] == ' ' || s[i] == '\n' || s[i] == '\t' || s[i] == '\r') {
		i++
	}
	return i
}
