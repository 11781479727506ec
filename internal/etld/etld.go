// Package etld extracts effective second-level domains (e2LDs) from fully
// qualified domain names (FQDNs) using the public-suffix algorithm.
//
// The paper aggregates all DNS behavioral modeling at the e2LD level:
// "maps.google.com" and "mail.google.com" both collapse to "google.com",
// which reflects domain ownership and is the standard aggregation unit in
// the malicious-domain detection literature.
//
// The rule table embedded here is a representative snapshot of the public
// suffix list covering the TLDs that appear in campus traffic and in the
// paper's cluster tables (.bid spam clusters, .ws Conficker DGA clusters,
// country-code suffixes with wildcard and exception rules). The matching
// algorithm is the complete PSL algorithm — normal, wildcard ("*.ck") and
// exception ("!www.ck") rules — so the table can be swapped for a full
// list without code changes.
package etld

import (
	"bufio"
	"errors"
	"fmt"
	"io"
	"strings"
	"unicode"
	"unicode/utf8"
)

// ErrNoEligibleDomain is returned when an input has no registrable e2LD,
// for example when the name is itself a public suffix or is empty.
var ErrNoEligibleDomain = errors.New("etld: name has no eligible e2LD")

// Table is a compiled public-suffix rule table. The zero value matches
// nothing; construct one with NewTable or use the package-level Default.
type Table struct {
	// rules maps a suffix to the kinds of rule that name it: "co.uk" to
	// normal, "ck" to wildcard for "*.ck", "www.ck" to exception for
	// "!www.ck".
	rules map[string]ruleKinds
	// depth is the most labels any rule spells out; no longer suffix of a
	// name can be a key of rules.
	depth int
}

// ruleKinds is a set of rule kinds.
type ruleKinds uint8

const (
	normal ruleKinds = 1 << iota
	wildcard
	exception
)

// NewTable compiles a slice of public-suffix rules in PSL syntax:
// plain suffixes ("co.uk"), wildcard rules ("*.ck"), and exception rules
// ("!www.ck"). Rules are matched case-insensitively.
func NewTable(rules []string) *Table {
	t := &Table{rules: make(map[string]ruleKinds)}
	for _, r := range rules {
		r = strings.ToLower(strings.TrimSpace(r))
		kind := normal
		switch {
		case r == "" || strings.HasPrefix(r, "//"):
			continue
		case strings.HasPrefix(r, "!"):
			r, kind = r[1:], exception
		case strings.HasPrefix(r, "*."):
			r, kind = r[2:], wildcard
		}
		t.rules[r] |= kind
		t.depth = max(t.depth, strings.Count(r, ".")+1)
	}
	return t
}

// defaultRules is the embedded public-suffix snapshot. It intentionally
// includes every TLD the traffic generator emits plus the multi-label and
// wildcard cases needed to exercise the full algorithm.
var defaultRules = []string{
	// Generic TLDs.
	"com", "net", "org", "info", "biz", "edu", "gov", "mil", "int",
	"io", "co", "me", "tv", "cc", "ws", "bid", "top", "xyz", "club",
	"site", "online", "pw", "link", "click", "download", "work", "loan",
	"win", "men", "date", "racing", "stream", "review", "trade", "party",
	"science", "accountant", "faith", "cricket", "space", "tech", "store",
	"app", "dev", "cloud", "ai", "sh", "gg", "to", "ly", "am", "fm", "im",
	// Country codes with registrations at the second level.
	"de", "fr", "nl", "it", "es", "se", "no", "fi", "dk", "pl", "cz",
	"ch", "at", "be", "ru", "su", "ua", "in", "cn", "hk", "tw", "sg",
	"my", "th", "vn", "ph", "id", "kr", "mx", "br", "ar", "cl", "ca",
	"us", "eu", "ie", "pt", "gr", "ro", "hu", "tr", "il", "za", "nz",
	// Multi-label public suffixes.
	"co.uk", "org.uk", "ac.uk", "gov.uk", "me.uk", "net.uk", "sch.uk",
	"uk.co", // private-registry style suffix; makes bbc.uk.co an e2LD as in the paper
	"com.cn", "net.cn", "org.cn", "edu.cn", "gov.cn", "ac.cn",
	"com.au", "net.au", "org.au", "edu.au", "gov.au",
	"co.jp", "ne.jp", "or.jp", "ac.jp", "go.jp", "ad.jp",
	"co.kr", "or.kr", "ac.kr",
	"com.br", "net.br", "org.br",
	"com.tw", "org.tw",
	"co.in", "net.in", "org.in", "ac.in",
	"com.hk", "org.hk", "edu.hk",
	"com.sg", "edu.sg",
	"co.nz", "org.nz", "ac.nz",
	"com.mx", "org.mx",
	"co.za", "org.za",
	"com.tr", "org.tr",
	"com.ru", "org.ru",
	// Wildcard and exception rules (full PSL algorithm coverage).
	"*.ck", "!www.ck",
	"*.bn", "*.kw",
	// Infrastructure.
	"arpa", "in-addr.arpa", "ip6.arpa",
}

// Default is the table compiled from the embedded snapshot.
var Default = NewTable(defaultRules)

// PublicSuffix returns the public suffix of name under the table, e.g.
// "co.uk" for "www.bbc.co.uk". Per the PSL algorithm, if no rule matches,
// the suffix is the last label (the "prevailing rule is '*'"). The result
// is a substring of the normalized name.
func (t *Table) PublicSuffix(name string) string {
	s, ps, _ := t.cut(name)
	return s[ps:]
}

// E2LD returns the effective second-level domain of name: the public
// suffix plus one additional label. It returns ErrNoEligibleDomain when
// the name is itself a public suffix (e.g. "co.uk") or empty. The result
// is a substring of the normalized name, so a name that is already
// lower-case costs no allocation.
//
//alloccheck:hot
func (t *Table) E2LD(name string) (string, error) {
	s, _, e2 := t.cut(name)
	if e2 < 0 {
		return "", ErrNoEligibleDomain
	}
	return s[e2:], nil
}

// E2LD extracts the e2LD of name using the Default table.
func E2LD(name string) (string, error) { return Default.E2LD(name) }

// PublicSuffix returns the public suffix of name using the Default table.
func PublicSuffix(name string) string { return Default.PublicSuffix(name) }

// cut normalizes name and walks its labels once, longest suffix first,
// probing the rule map with substrings. It returns the normalized name
// and the offsets at which its public suffix and its e2LD start; e2 is
// negative when the name has no e2LD, and s is empty when the name is
// invalid.
//
// The longest matching normal or wildcard rule sets the suffix, the last
// label when none matches. An exception rule beats them all, wherever
// it matches: its suffix is the rule minus its leftmost label, so the
// rule itself is the e2LD.
//
//alloccheck:hot
func (t *Table) cut(name string) (s string, ps, e2 int) {
	s, labels := normalize(name)
	if labels == 0 {
		return "", 0, -1
	}
	ps, e2 = -1, -1
	// before and prev are where the two labels left of start begin.
	for before, prev, start := -1, -1, 0; ; labels-- {
		cand := s[start:]
		next := len(s) // where the suffix one label shorter starts
		dot := strings.IndexByte(cand, '.')
		if dot >= 0 {
			next = start + dot + 1
		}
		if labels <= t.depth {
			kinds := t.rules[cand]
			if kinds&exception != 0 {
				return s, next, start
			}
			// Wildcard rule "*.X" matches "<anything>.X".
			if ps < 0 && prev >= 0 && kinds&wildcard != 0 {
				ps, e2 = prev, before
			}
			if ps < 0 && kinds&normal != 0 {
				ps, e2 = start, prev
			}
		}
		if dot < 0 {
			if ps < 0 {
				ps, e2 = start, prev
			}
			return s, ps, e2
		}
		before, prev, start = prev, start, next
	}
}

// normalize lower-cases name and trims surrounding space and a root
// dot, and counts the labels. It returns no labels for a name with an
// empty label or with whitespace inside a label: such labels never occur
// in real DNS names, and a label with leading or trailing spaces would
// make the e2LD unstable under re-parsing (the outer TrimSpace would eat
// it on the next pass).
//
//alloccheck:hot
func normalize(name string) (s string, labels int) {
	s = strings.ToLower(strings.TrimSuffix(strings.TrimSpace(name), "."))
	dot := true // the previous byte was a dot, or there is none
	for i := 0; i < len(s); i++ {
		switch c := s[i]; {
		case c == '.':
			if dot {
				return "", 0
			}
			dot = true
			continue
		case c >= utf8.RuneSelf:
			r, size := utf8.DecodeRuneInString(s[i:])
			if unicode.IsSpace(r) {
				return "", 0
			}
			i += size - 1
		case c == ' ' || '\t' <= c && c <= '\r':
			return "", 0
		}
		if dot {
			labels++
		}
		dot = false
	}
	if dot {
		return "", 0 // empty, or ends in an empty label
	}
	return s, labels
}

// LoadTable parses public-suffix rules from r in the standard PSL file
// format: one rule per line, "//" comments, blank lines ignored, and the
// ICANN/private section markers treated as comments. It lets deployments
// swap the embedded snapshot for the full publicsuffix.org list without
// code changes.
func LoadTable(r io.Reader) (*Table, error) {
	sc := bufio.NewScanner(r)
	var rules []string
	lineNo := 0
	for sc.Scan() {
		lineNo++
		line := strings.TrimSpace(sc.Text())
		if line == "" || strings.HasPrefix(line, "//") {
			continue
		}
		// PSL files may carry trailing whitespace-separated comments.
		if i := strings.IndexAny(line, " \t"); i > 0 {
			line = line[:i]
		}
		if !validRule(line) {
			return nil, fmt.Errorf("etld: line %d: invalid rule %q", lineNo, line)
		}
		rules = append(rules, line)
	}
	if err := sc.Err(); err != nil {
		return nil, fmt.Errorf("etld: reading rules: %w", err)
	}
	return NewTable(rules), nil
}

// validRule performs light syntactic validation of one PSL rule.
func validRule(rule string) bool {
	rule = strings.TrimPrefix(rule, "!")
	if rule == "" || strings.HasPrefix(rule, ".") || strings.HasSuffix(rule, ".") {
		return false
	}
	for _, label := range strings.Split(rule, ".") {
		if label == "" {
			return false
		}
		if label == "*" {
			continue
		}
		for _, c := range label {
			switch {
			case c >= 'a' && c <= 'z', c >= 'A' && c <= 'Z',
				c >= '0' && c <= '9', c == '-', c == '_',
				c >= 0x80: // IDN labels pass through untouched
			default:
				return false
			}
		}
	}
	return true
}
