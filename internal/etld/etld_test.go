package etld

import (
	"errors"
	"strings"
	"testing"
	"testing/quick"
	"unicode"
)

// referencePublicSuffix, referenceE2LD and referenceSplit are the
// split/join PSL walk that Table.PublicSuffix and Table.E2LD replaced,
// kept as the oracle the substring walk is compared against.
func referencePublicSuffix(t *Table, name string) string {
	labels := referenceSplit(name)
	if len(labels) == 0 {
		return ""
	}
	// Walk suffixes from longest to shortest, tracking the longest match.
	// Exception rules beat all others; their suffix is the rule minus its
	// leftmost label.
	best := labels[len(labels)-1] // implicit "*" rule
	bestLen := 1
	for i := 0; i < len(labels); i++ {
		cand := strings.Join(labels[i:], ".")
		n := len(labels) - i
		if t.rules[cand]&exception != 0 {
			return strings.Join(labels[i+1:], ".")
		}
		if t.rules[cand]&normal != 0 && n > bestLen {
			best, bestLen = cand, n
		}
		// Wildcard rule "*.X" matches "<anything>.X".
		if i+1 < len(labels) {
			parent := strings.Join(labels[i+1:], ".")
			if t.rules[parent]&wildcard != 0 && n > bestLen {
				best, bestLen = cand, n
			}
		}
	}
	return best
}

func referenceE2LD(t *Table, name string) (string, error) {
	labels := referenceSplit(name)
	if len(labels) == 0 {
		return "", ErrNoEligibleDomain
	}
	full := strings.Join(labels, ".")
	ps := referencePublicSuffix(t, full)
	if ps == full {
		return "", ErrNoEligibleDomain
	}
	psLabels := len(referenceSplit(ps))
	start := len(labels) - psLabels - 1
	if start < 0 {
		return "", ErrNoEligibleDomain
	}
	return strings.Join(labels[start:], "."), nil
}

// referenceSplit normalizes a domain name into lower-case labels,
// trimming a root dot and rejecting empty labels and labels containing
// whitespace.
func referenceSplit(name string) []string {
	name = strings.ToLower(strings.TrimSuffix(strings.TrimSpace(name), "."))
	if name == "" {
		return nil
	}
	labels := strings.Split(name, ".")
	for _, l := range labels {
		if l == "" || strings.IndexFunc(l, unicode.IsSpace) >= 0 {
			return nil
		}
	}
	return labels
}

// quirkyTable has the rule shapes the embedded snapshot lacks: an
// exception under a longer normal rule, a single-label exception, a
// three-label suffix, and rules NewTable accepts but no valid name can
// match.
var quirkyTable = NewTable([]string{
	"com", "a.b.com", "x.www.ck", "*.ck", "!www.ck", "!uk", "*.b.c.d",
	"em..pty", "sp ace.com",
})

// agree fails the test unless the substring walk and the reference
// return the same public suffix, e2LD and error for name under tbl.
func agree(t *testing.T, tbl *Table, name string) {
	t.Helper()
	if got, want := tbl.PublicSuffix(name), referencePublicSuffix(tbl, name); got != want {
		t.Errorf("PublicSuffix(%q) = %q, reference %q", name, got, want)
	}
	got, err := tbl.E2LD(name)
	want, wantErr := referenceE2LD(tbl, name)
	if got != want || err != wantErr {
		t.Errorf("E2LD(%q) = %q, %v; reference %q, %v", name, got, err, want, wantErr)
	}
}

func TestMatchesReference(t *testing.T) {
	names := []string{
		"maps.google.com", "WWW.Example.COM.", "www.example.com..", ".www.example.com",
		"www.ck", "a.b.ck", "b.ck", "ck", "x.www.ck", "y.x.www.ck", "sub.www.ck",
		"co.uk", "www.bbc.co.uk", "uk", "foo.uk", "a.b.com", "z.a.b.com", "b.com",
		"p.q.b.c.d", "q.b.c.d", "b.c.d", "single", "SINGLE.", "", ".", "..", "a..b",
		" spaces.com ", "\tspaces.com\n", "in ner.com", "www. example.com", "www .example.com",
		"a.com .", "nbsp\u00a0.com", "\u00a0nbsp.com", "ideo\u3000graphic.com", "nel\u0085.com",
		"B\u00dcCHER.de", "\xff\xfe.com", "em..pty", "sp ace.com", "x.sp ace.com",
		strings.Repeat("a.", 200) + "com",
	}
	for _, tbl := range []*Table{Default, quirkyTable, {}} {
		for _, name := range names {
			agree(t, tbl, name)
		}
	}
}

// The e2LD shares the name's bytes: nothing is allocated for a name that
// needs no case folding, whatever its depth or rule kind.
func TestE2LDAllocatesNothing(t *testing.T) {
	names := []string{
		"maps.google.com", "www.bbc.co.uk", "a.b.c.d.example.org", "sub.www.ck",
		"a.b.foo.ck", "host.weirdtld", "com", "a..b", "b\u00fccher.de",
	}
	allocs := testing.AllocsPerRun(100, func() {
		for _, name := range names {
			_, _ = Default.E2LD(name) // the errors are ErrNoEligibleDomain, by design
		}
	})
	if allocs != 0 {
		t.Errorf("E2LD allocates %v times over %d lower-case names, want 0", allocs, len(names))
	}
}

func TestE2LD(t *testing.T) {
	tests := []struct {
		in   string
		want string
	}{
		// Paper's own examples (§4.1).
		{"maps.google.com", "google.com"},
		{"www.bbc.uk.co", "bbc.uk.co"},
		{"google.com", "google.com"},
		{"a.b.c.d.example.org", "example.org"},
		{"www.example.co.uk", "example.co.uk"},
		{"example.co.uk", "example.co.uk"},
		// Trailing root dot and mixed case.
		{"WWW.Example.COM.", "example.com"},
		// Paper cluster TLDs.
		{"oorfapjflmp.ws", "oorfapjflmp.ws"},
		{"cdn.brvegnholster.bid", "brvegnholster.bid"},
		// Wildcard rule *.ck: public suffix is <label>.ck.
		{"www.foo.ck", "www.foo.ck"},
		{"a.b.foo.ck", "b.foo.ck"},
		// Exception rule !www.ck: suffix is ck, e2LD is www.ck.
		{"www.ck", "www.ck"},
		{"sub.www.ck", "www.ck"},
		// Unknown TLD falls back to last label as suffix.
		{"host.weirdtld", "host.weirdtld"},
		{"a.b.weirdtld", "b.weirdtld"},
	}
	for _, tt := range tests {
		got, err := E2LD(tt.in)
		if err != nil {
			t.Errorf("E2LD(%q) error: %v", tt.in, err)
			continue
		}
		if got != tt.want {
			t.Errorf("E2LD(%q) = %q, want %q", tt.in, got, tt.want)
		}
	}
}

func TestE2LDNoEligible(t *testing.T) {
	for _, in := range []string{"", "com", "co.uk", "ck", "foo.ck", ".", "..", "a..b"} {
		if _, err := E2LD(in); !errors.Is(err, ErrNoEligibleDomain) {
			t.Errorf("E2LD(%q) error = %v, want ErrNoEligibleDomain", in, err)
		}
	}
}

func TestPublicSuffix(t *testing.T) {
	tests := []struct {
		in, want string
	}{
		{"www.google.com", "com"},
		{"www.bbc.co.uk", "co.uk"},
		{"bbc.uk.co", "uk.co"},
		{"x.y.z.ck", "z.ck"}, // wildcard *.ck matches exactly one label
		{"www.ck", "ck"},     // exception
		{"plain", "plain"},
		{"foo.unknowntld", "unknowntld"},
	}
	for _, tt := range tests {
		if got := PublicSuffix(tt.in); got != tt.want {
			t.Errorf("PublicSuffix(%q) = %q, want %q", tt.in, got, tt.want)
		}
	}
}

func TestNewTableIgnoresCommentsAndBlanks(t *testing.T) {
	tbl := NewTable([]string{"// comment", "", "  com  ", "!www.ck", "*.ck"})
	if got := tbl.PublicSuffix("a.com"); got != "com" {
		t.Errorf("PublicSuffix(a.com) = %q", got)
	}
	if got, err := tbl.E2LD("sub.www.ck"); err != nil || got != "www.ck" {
		t.Errorf("E2LD(sub.www.ck) = %q, %v", got, err)
	}
}

// Property: the e2LD is always a suffix of the normalized input and has
// exactly one more label than its public suffix.
func TestE2LDProperties(t *testing.T) {
	labels := []string{"www", "mail", "a", "b3", "x-y", "cdn", "static"}
	tlds := []string{"com", "co.uk", "ws", "bid", "weird", "ck"}
	f := func(pick uint8, tldPick uint8, depth uint8) bool {
		n := int(depth%4) + 1
		parts := make([]string, 0, n+2)
		for i := 0; i < n; i++ {
			parts = append(parts, labels[(int(pick)+i)%len(labels)])
		}
		parts = append(parts, "owner")
		name := strings.Join(parts, ".") + "." + tlds[int(tldPick)%len(tlds)]
		got, err := E2LD(name)
		if err != nil {
			return false
		}
		if !strings.HasSuffix(strings.ToLower(name), got) {
			return false
		}
		ps := PublicSuffix(name)
		return len(strings.Split(got, ".")) == len(strings.Split(ps, "."))+1
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

// Property: E2LD is idempotent — extracting the e2LD of an e2LD returns it.
func TestE2LDIdempotent(t *testing.T) {
	names := []string{
		"maps.google.com", "a.b.example.co.uk", "x.oorfapjflmp.ws",
		"deep.cdn.brvegnholster.bid", "sub.www.ck", "a.b.foo.ck",
	}
	for _, name := range names {
		first, err := E2LD(name)
		if err != nil {
			t.Fatalf("E2LD(%q): %v", name, err)
		}
		second, err := E2LD(first)
		if err != nil {
			t.Fatalf("E2LD(%q): %v", first, err)
		}
		if first != second {
			t.Errorf("E2LD not idempotent: %q -> %q -> %q", name, first, second)
		}
	}
}

func BenchmarkE2LD(b *testing.B) {
	names := []string{
		"maps.google.com", "www.bbc.co.uk", "a.b.c.d.example.org",
		"oorfapjflmp.ws", "cdn.static.brvegnholster.bid",
	}
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if _, err := E2LD(names[i%len(names)]); err != nil {
			b.Fatal(err)
		}
	}
}

func TestLoadTable(t *testing.T) {
	psl := `// ===BEGIN ICANN DOMAINS===
com
// United Kingdom
co.uk
*.ck
!www.ck

// ===END ICANN DOMAINS===
uk.co
`
	tbl, err := LoadTable(strings.NewReader(psl))
	if err != nil {
		t.Fatal(err)
	}
	cases := []struct{ in, want string }{
		{"maps.google.com", "google.com"},
		{"www.bbc.co.uk", "bbc.co.uk"},
		{"www.bbc.uk.co", "bbc.uk.co"},
		{"sub.www.ck", "www.ck"},
	}
	for _, c := range cases {
		got, err := tbl.E2LD(c.in)
		if err != nil || got != c.want {
			t.Errorf("E2LD(%q) = %q, %v; want %q", c.in, got, err, c.want)
		}
	}
}

func TestLoadTableRejectsGarbage(t *testing.T) {
	for _, bad := range []string{".leading.dot", "trailing.dot.", "em..pty", "bad^char"} {
		if _, err := LoadTable(strings.NewReader(bad + "\n")); err == nil {
			t.Errorf("rule %q accepted", bad)
		}
	}
	// But IDN labels and underscores pass.
	if _, err := LoadTable(strings.NewReader("xn--p1ai\n_dmarc.example\n")); err != nil {
		t.Errorf("valid rules rejected: %v", err)
	}
}
