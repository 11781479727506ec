package etld

import (
	"strings"
	"testing"
)

// FuzzParseETLD drives the public-suffix algorithm with arbitrary
// names. Invariants: PublicSuffix and E2LD never panic and return what
// the split/join reference returns, value and error; a successful
// e2LD always ends with the name's public suffix plus exactly one
// label; and E2LD is idempotent (the e2LD of an e2LD is itself).
func FuzzParseETLD(f *testing.F) {
	// Seed corpus mirrors the unit-test tables: plain gTLDs,
	// multi-label suffixes, wildcard and exception rules, normalization
	// edge cases, and junk.
	for _, s := range []string{
		"maps.google.com",
		"www.bbc.co.uk",
		"bbc.uk.co",
		"x.www.ck",
		"foo.bar.ck",
		"a.b.bid",
		"evil.download",
		"WWW.Example.COM.",
		"single",
		"co.uk",
		"1.2.3.4.in-addr.arpa",
		"",
		".",
		"..",
		"a..b",
		" spaces.com ",
		"xn--bcher-kva.de",
		"sub.www.ck",
		"y.x.www.ck",
		"foo.uk",
		"q.b.c.d",
		"nbsp\u00a0.com",
		"B\u00dcCHER.de",
		strings.Repeat("a.", 200) + "com",
	} {
		f.Add(s)
	}

	f.Fuzz(func(t *testing.T, name string) {
		agree(t, Default, name)
		agree(t, quirkyTable, name)
		ps := PublicSuffix(name)
		e2ld, err := E2LD(name)
		if err != nil {
			return
		}
		if ps == "" {
			t.Fatalf("E2LD(%q) = %q but PublicSuffix is empty", name, e2ld)
		}
		if e2ld != ps && !strings.HasSuffix(e2ld, "."+ps) {
			t.Fatalf("E2LD(%q) = %q does not end with public suffix %q", name, e2ld, ps)
		}
		if got := len(referenceSplit(e2ld)) - len(referenceSplit(ps)); got != 1 {
			t.Fatalf("E2LD(%q) = %q has %d labels beyond suffix %q, want 1", name, e2ld, got, ps)
		}
		again, err := E2LD(e2ld)
		if err != nil {
			t.Fatalf("E2LD not idempotent: E2LD(%q) = %q, then error %v", name, e2ld, err)
		}
		if again != e2ld {
			t.Fatalf("E2LD not idempotent: E2LD(%q) = %q, E2LD(%q) = %q", name, e2ld, e2ld, again)
		}
	})
}
