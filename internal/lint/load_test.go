package lint

import (
	"fmt"
	"sort"
	"testing"
)

// fastPaths is a small dependency-linked package subset used by the
// engine tests: etld imports nothing internal, crcio only faultio, and
// lint itself pulls neither — loading them exercises the cache without
// type-checking the whole module.
var fastPaths = []string{
	"repro/internal/etld",
	"repro/internal/crcio",
	"repro/internal/mathx",
}

// TestTypeCheckOnce proves the package cache: any number of Load and
// LoadAll calls hand each package to the type checker exactly once.
func TestTypeCheckOnce(t *testing.T) {
	loader, err := NewLoader(".")
	if err != nil {
		t.Fatalf("NewLoader: %v", err)
	}
	if _, errs := loader.LoadAll(fastPaths); firstErr(errs) != nil {
		t.Fatalf("LoadAll: %v", firstErr(errs))
	}
	// Load again, both in bulk and singly: all hits.
	if _, errs := loader.LoadAll(fastPaths); firstErr(errs) != nil {
		t.Fatalf("second LoadAll: %v", firstErr(errs))
	}
	for _, p := range fastPaths {
		if _, err := loader.Load(p); err != nil {
			t.Fatalf("Load(%s): %v", p, err)
		}
	}
	for _, p := range fastPaths {
		if got := loader.TypeCheckCount(p); got != 1 {
			t.Errorf("TypeCheckCount(%s) = %d, want 1", p, got)
		}
	}
}

// TestTypeCheckOnceAsDependency loads a package that imports another
// module package and then loads the dependency directly: still one
// type-check for the dependency.
func TestTypeCheckOnceAsDependency(t *testing.T) {
	loader, err := NewLoader(".")
	if err != nil {
		t.Fatalf("NewLoader: %v", err)
	}
	// internal/lint imports nothing internal; internal/core imports
	// several module packages — use the walker to find one real edge
	// rather than hard-coding the import graph.
	if _, err := loader.Load("repro/internal/core"); err != nil {
		t.Fatalf("Load(core): %v", err)
	}
	deps := 0
	loader.mu.Lock()
	for path, n := range loader.checked {
		if n != 1 {
			t.Errorf("TypeCheckCount(%s) = %d, want 1", path, n)
		}
		deps++
	}
	loader.mu.Unlock()
	if deps < 2 {
		t.Fatalf("loading core type-checked %d package(s); expected its module dependencies to load through the cache too", deps)
	}
	// Re-loading any already-checked dependency must be a cache hit.
	loader.mu.Lock()
	var some []string
	for path := range loader.checked {
		some = append(some, path)
	}
	loader.mu.Unlock()
	sort.Strings(some)
	for _, path := range some {
		if _, err := loader.Load(path); err != nil {
			t.Fatalf("Load(%s): %v", path, err)
		}
		if got := loader.TypeCheckCount(path); got != 1 {
			t.Errorf("after re-load, TypeCheckCount(%s) = %d, want 1", path, got)
		}
	}
}

// TestLoadAllDeterministicOrder runs the same parallel load + lint on
// two fresh loaders and requires byte-identical diagnostic streams:
// result order must not depend on goroutine scheduling.
func TestLoadAllDeterministicOrder(t *testing.T) {
	render := func() []string {
		loader, err := NewLoader(".")
		if err != nil {
			t.Fatalf("NewLoader: %v", err)
		}
		pkgs, errs := loader.LoadAll(fastPaths)
		if err := firstErr(errs); err != nil {
			t.Fatalf("LoadAll: %v", err)
		}
		runner := NewRunner()
		var out []string
		for i, pkg := range pkgs {
			out = append(out, "## "+fastPaths[i])
			for _, d := range runner.Run(pkg) {
				out = append(out, d.String())
			}
		}
		return out
	}
	a, b := render(), render()
	if !equalStrings(a, b) {
		t.Errorf("two identical parallel runs disagree:\n run1: %v\n run2: %v", a, b)
	}
}

// TestLoadAllErrorsPositional verifies errs[i] lines up with paths[i].
func TestLoadAllErrorsPositional(t *testing.T) {
	loader, err := NewLoader(".")
	if err != nil {
		t.Fatalf("NewLoader: %v", err)
	}
	paths := []string{"repro/internal/etld", "repro/internal/nosuchpkg"}
	pkgs, errs := loader.LoadAll(paths)
	if errs[0] != nil || pkgs[0] == nil {
		t.Errorf("etld should load: err=%v", errs[0])
	}
	if errs[1] == nil || pkgs[1] != nil {
		t.Errorf("nosuchpkg should fail: pkg=%v err=%v", pkgs[1], errs[1])
	}
}

// TestTagLoaderSelectsRaceHalf loads internal/race under both tag sets
// and checks that exactly one half of the tag pair is in each.
func TestTagLoaderSelectsRaceHalf(t *testing.T) {
	has := func(tags []string, suffix string) bool {
		loader, err := NewLoaderTags(".", tags)
		if err != nil {
			t.Fatalf("NewLoaderTags(%v): %v", tags, err)
		}
		pkg, err := loader.Load("repro/internal/race")
		if err != nil {
			t.Fatalf("Load(race) tags=%v: %v", tags, err)
		}
		for _, f := range pkg.Files {
			name := loader.Fset.Position(f.Pos()).Filename
			if len(name) >= len(suffix) && name[len(name)-len(suffix):] == suffix {
				return true
			}
		}
		return false
	}
	if !has(nil, "/norace.go") || has(nil, "/race.go") {
		t.Errorf("default tags: want norace half only")
	}
	if !has([]string{"race"}, "/race.go") || has([]string{"race"}, "/norace.go") {
		t.Errorf("race tags: want race half only")
	}
}

func firstErr(errs []error) error {
	for i, err := range errs {
		if err != nil {
			return fmt.Errorf("[%d]: %w", i, err)
		}
	}
	return nil
}
