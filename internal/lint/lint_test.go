package lint

import (
	"bufio"
	"fmt"
	"go/parser"
	"go/token"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"testing"
)

// fixtureCases pairs each golden fixture directory under testdata/src
// with the check (and configuration) it exercises.
func fixtureCases() []struct {
	name  string
	check Check
} {
	return []struct {
		name  string
		check Check
	}{
		{"mathrand", &MathRandCheck{Allow: []string{"fixture/mathrand_allowed"}}},
		{"mathrand_allowed", &MathRandCheck{Allow: []string{"fixture/mathrand_allowed"}}},
		{"maprange", &MapRangeCheck{}},
		{"wgadd", &WgAddCheck{}},
		{"droppederr", &DroppedErrCheck{}},
		{"detpath", &DetPathCheck{}},
		{"detpath_plain", &DetPathCheck{}},
		{"gobfields", &GobFieldsCheck{}},
		{"errcmpsentinel", &ErrCmpSentinelCheck{}},
		{"closeleak", &CloseLeakCheck{}},
		{"tickerloop", &TickerLoopCheck{}},
		{"atomicalign", &AtomicAlignCheck{}},
	}
}

// TestCheckFixtures runs each check against its fixture package and
// compares the findings against the `// want <check>` markers in the
// fixture sources. Fixtures also carry negative cases (no marker) and
// //maldlint:ignore suppressions, so an exact match proves all three
// behaviors.
func TestCheckFixtures(t *testing.T) {
	loader, err := NewLoader(".")
	if err != nil {
		t.Fatalf("NewLoader: %v", err)
	}
	for _, tc := range fixtureCases() {
		t.Run(tc.name, func(t *testing.T) {
			dir := filepath.Join("testdata", "src", tc.name)
			pkg, err := loader.LoadDir(dir, "fixture/"+tc.name)
			if err != nil {
				t.Fatalf("LoadDir(%s): %v", dir, err)
			}
			runner := &Runner{Checks: []Check{tc.check}}
			var got []string
			for _, d := range runner.Run(pkg) {
				got = append(got, fmt.Sprintf("%s:%d:%s", filepath.Base(d.Pos.Filename), d.Pos.Line, d.Check))
			}
			want, err := parseWants(dir, tc.check.Name())
			if err != nil {
				t.Fatalf("parseWants: %v", err)
			}
			sort.Strings(got)
			sort.Strings(want)
			if !equalStrings(got, want) {
				t.Errorf("findings mismatch\n got: %v\nwant: %v", got, want)
			}
		})
	}
}

// parseWants scans the fixture sources for `// want <check>` markers and
// returns the expected "file:line:check" keys.
func parseWants(dir, check string) ([]string, error) {
	entries, err := os.ReadDir(dir)
	if err != nil {
		return nil, err
	}
	var want []string
	for _, e := range entries {
		if e.IsDir() || !strings.HasSuffix(e.Name(), ".go") {
			continue
		}
		f, err := os.Open(filepath.Join(dir, e.Name()))
		if err != nil {
			return nil, err
		}
		sc := bufio.NewScanner(f)
		line := 0
		for sc.Scan() {
			line++
			_, after, found := strings.Cut(sc.Text(), "// want ")
			if !found {
				continue
			}
			for _, name := range strings.Fields(after) {
				if name == check {
					want = append(want, fmt.Sprintf("%s:%d:%s", e.Name(), line, name))
				}
			}
		}
		if err := sc.Err(); err != nil {
			f.Close()
			return nil, err
		}
		f.Close()
	}
	return want, nil
}

func equalStrings(a, b []string) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}

// TestSuppressionParsing covers the directive syntax in isolation.
func TestSuppressionParsing(t *testing.T) {
	cases := []struct {
		rest string
		want []string
	}{
		{"mathrand", []string{"mathrand"}},
		{"mathrand,maprange rationale here", []string{"mathrand", "maprange"}},
		{"droppederr best-effort cleanup", []string{"droppederr"}},
		{"", nil},
		{"   ", nil},
	}
	for _, tc := range cases {
		got := parseIgnoreList(tc.rest)
		if !equalStrings(got, tc.want) {
			t.Errorf("parseIgnoreList(%q) = %v, want %v", tc.rest, got, tc.want)
		}
	}
}

// TestWalkFindsLintPackage sanity-checks the module walker from inside a
// real module.
func TestWalkFindsLintPackage(t *testing.T) {
	loader, err := NewLoader(".")
	if err != nil {
		t.Fatalf("NewLoader: %v", err)
	}
	paths, err := loader.Walk()
	if err != nil {
		t.Fatalf("Walk: %v", err)
	}
	found := false
	for _, p := range paths {
		if p == "repro/internal/lint" {
			found = true
		}
		if strings.Contains(p, "testdata") {
			t.Errorf("Walk returned a testdata package: %s", p)
		}
	}
	if !found {
		t.Errorf("Walk did not return repro/internal/lint; got %d paths", len(paths))
	}
}

// TestBuildableConstraints verifies that the loader's file filter
// honors //go:build lines under the default tag set, so tag-paired
// files (race/norace) never both load into one package.
func TestBuildableConstraints(t *testing.T) {
	cases := []struct {
		src  string
		want bool
	}{
		{"package p\n", true},
		{"//go:build race\n\npackage p\n", false},
		{"//go:build !race\n\npackage p\n", true},
		{"//go:build ignore\n\npackage p\n", false},
		{"//go:build linux || windows || darwin\n\npackage p\n", true},
		{"//go:build go1.21\n\npackage p\n", true},
		{"// +build race\n\npackage p\n", false},
		{"// a normal comment\n\npackage p\n", true},
	}
	loader, err := NewLoader(".")
	if err != nil {
		t.Fatalf("NewLoader: %v", err)
	}
	fset := token.NewFileSet()
	for _, tc := range cases {
		f, err := parser.ParseFile(fset, "x.go", tc.src, parser.ParseComments)
		if err != nil {
			t.Fatalf("parse %q: %v", tc.src, err)
		}
		if got := loader.buildable(f); got != tc.want {
			t.Errorf("buildable(%q) = %v, want %v", tc.src, got, tc.want)
		}
	}
}

// TestCheckByName verifies the registry round-trips every check.
func TestCheckByName(t *testing.T) {
	for _, c := range AllChecks() {
		got := CheckByName(c.Name())
		if got == nil || got.Name() != c.Name() {
			t.Errorf("CheckByName(%q) failed", c.Name())
		}
	}
	if CheckByName("nope") != nil {
		t.Errorf("CheckByName(nope) should be nil")
	}
}
