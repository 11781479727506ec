package lint

import (
	"fmt"
	"go/ast"
	"go/build/constraint"
	"go/importer"
	"go/parser"
	"go/token"
	"go/types"
	"os"
	"path/filepath"
	"runtime"
	"sort"
	"strings"
	"sync"
)

// Package is one parsed and type-checked package ready for analysis.
type Package struct {
	// Path is the import path ("repro/internal/line").
	Path string
	// Dir is the directory the sources were read from.
	Dir string
	// Fset positions all files of this loader.
	Fset *token.FileSet
	// Files are the parsed sources, comments included. In-package
	// _test.go files are linted too; external (package foo_test) test
	// files are excluded because they form a separate compilation unit.
	Files []*ast.File
	// Types and Info carry the go/types results.
	Types *types.Package
	Info  *types.Info
	// Deterministic is set when any file of the package carries a
	// //maldlint:deterministic annotation comment: the package promises
	// run-to-run reproducible state and output, and the detpath check
	// enforces it.
	Deterministic bool
}

// deterministicDirective is the package-level annotation that opts a
// package into the detpath determinism contract (see DESIGN.md).
const deterministicDirective = "maldlint:deterministic"

// Loader parses and type-checks packages of one module. Module-internal
// imports are resolved recursively from source; standard-library imports
// are satisfied by the go/importer source importer (still stdlib-only —
// no external tooling). Loaded packages are memoized behind a per-path
// sync.Once, so a whole-module walk type-checks each package exactly
// once even when LoadAll fans packages out across goroutines: a package
// reached both as a root and as a dependency of a concurrently loading
// root is checked by whichever goroutine gets there first, and everyone
// else blocks on the memoized result. Go's import-cycle ban is what
// makes the blocking deadlock-free.
type Loader struct {
	Fset *token.FileSet
	// ModRoot is the filesystem root of the module (directory holding
	// go.mod); ModPath is its module path.
	ModRoot string
	ModPath string

	std   types.ImporterFrom
	stdMu sync.Mutex // the source importer is not safe for concurrent use

	mu      sync.Mutex
	pkgs    map[string]*pkgEntry
	checked map[string]int // type-check invocations per path (test hook)
}

// pkgEntry memoizes one package load behind a Once.
type pkgEntry struct {
	once sync.Once
	pkg  *Package
	err  error
}

// NewLoader returns a loader rooted at the module containing dir. It
// locates go.mod by walking upward and reads the module path from it.
func NewLoader(dir string) (*Loader, error) {
	abs, err := filepath.Abs(dir)
	if err != nil {
		return nil, fmt.Errorf("lint: resolving %s: %w", dir, err)
	}
	root := abs
	for {
		if _, err := os.Stat(filepath.Join(root, "go.mod")); err == nil {
			break
		}
		parent := filepath.Dir(root)
		if parent == root {
			return nil, fmt.Errorf("lint: no go.mod found above %s", abs)
		}
		root = parent
	}
	modPath, err := readModulePath(filepath.Join(root, "go.mod"))
	if err != nil {
		return nil, err
	}
	fset := token.NewFileSet()
	std, ok := importer.ForCompiler(fset, "source", nil).(types.ImporterFrom)
	if !ok {
		return nil, fmt.Errorf("lint: source importer does not implement ImporterFrom")
	}
	return &Loader{
		Fset:    fset,
		ModRoot: root,
		ModPath: modPath,
		std:     std,
		pkgs:    make(map[string]*pkgEntry),
		checked: make(map[string]int),
	}, nil
}

// readModulePath extracts the module path from a go.mod file.
func readModulePath(path string) (string, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return "", fmt.Errorf("lint: reading %s: %w", path, err)
	}
	for _, line := range strings.Split(string(data), "\n") {
		line = strings.TrimSpace(line)
		if rest, ok := strings.CutPrefix(line, "module "); ok {
			return strings.TrimSpace(rest), nil
		}
	}
	return "", fmt.Errorf("lint: no module directive in %s", path)
}

// Walk returns the import paths of every package directory under the
// module root, skipping testdata, hidden directories, and directories
// with no Go files. The result is sorted.
func (l *Loader) Walk() ([]string, error) {
	var paths []string
	err := filepath.WalkDir(l.ModRoot, func(path string, d os.DirEntry, err error) error {
		if err != nil {
			return err
		}
		if !d.IsDir() {
			return nil
		}
		name := d.Name()
		if path != l.ModRoot && (name == "testdata" || strings.HasPrefix(name, ".") || strings.HasPrefix(name, "_")) {
			return filepath.SkipDir
		}
		hasGo, err := dirHasGoFiles(path)
		if err != nil {
			return err
		}
		if hasGo {
			rel, err := filepath.Rel(l.ModRoot, path)
			if err != nil {
				return err
			}
			if rel == "." {
				paths = append(paths, l.ModPath)
			} else {
				paths = append(paths, l.ModPath+"/"+filepath.ToSlash(rel))
			}
		}
		return nil
	})
	if err != nil {
		return nil, fmt.Errorf("lint: walking module: %w", err)
	}
	sort.Strings(paths)
	return paths, nil
}

func dirHasGoFiles(dir string) (bool, error) {
	entries, err := os.ReadDir(dir)
	if err != nil {
		return false, err
	}
	for _, e := range entries {
		if !e.IsDir() && strings.HasSuffix(e.Name(), ".go") {
			return true, nil
		}
	}
	return false, nil
}

// entry returns the memo cell for path, creating it if needed.
func (l *Loader) entry(path string) *pkgEntry {
	l.mu.Lock()
	defer l.mu.Unlock()
	e, ok := l.pkgs[path]
	if !ok {
		e = &pkgEntry{}
		l.pkgs[path] = e
	}
	return e
}

// TypeCheckCount reports how many times the package at path has been
// handed to the type checker — 1 after any number of loads, which the
// engine tests assert.
func (l *Loader) TypeCheckCount(path string) int {
	l.mu.Lock()
	defer l.mu.Unlock()
	return l.checked[path]
}

// Load parses and type-checks the package with the given import path,
// which must belong to this loader's module. Concurrent calls are safe;
// each package is type-checked at most once.
func (l *Loader) Load(path string) (*Package, error) {
	rel, ok := strings.CutPrefix(path, l.ModPath)
	if !ok {
		return nil, fmt.Errorf("lint: %s is outside module %s", path, l.ModPath)
	}
	dir := filepath.Join(l.ModRoot, filepath.FromSlash(strings.TrimPrefix(rel, "/")))
	return l.LoadDir(dir, path)
}

// LoadAll loads many packages, parsing and type-checking independent
// packages in parallel while shared dependencies are still checked
// exactly once (see Loader). Results and errors are returned in input
// order, so the output is deterministic regardless of goroutine
// scheduling; errs[i] is nil exactly when pkgs[i] is usable.
func (l *Loader) LoadAll(paths []string) (pkgs []*Package, errs []error) {
	pkgs = make([]*Package, len(paths))
	errs = make([]error, len(paths))
	sem := make(chan struct{}, runtime.GOMAXPROCS(0))
	var wg sync.WaitGroup
	for i, path := range paths {
		wg.Add(1)
		go func(i int, path string) {
			defer wg.Done()
			sem <- struct{}{}
			defer func() { <-sem }()
			pkgs[i], errs[i] = l.Load(path)
		}(i, path)
	}
	wg.Wait()
	return pkgs, errs
}

// LoadDir parses and type-checks the package in dir under the given
// import path. It is the entry point fixture tests use to check
// directories outside the module layout.
func (l *Loader) LoadDir(dir, path string) (*Package, error) {
	e := l.entry(path)
	e.once.Do(func() {
		e.pkg, e.err = l.loadDirUncached(dir, path)
	})
	return e.pkg, e.err
}

// loadDirUncached performs the actual parse + type-check for LoadDir.
func (l *Loader) loadDirUncached(dir, path string) (*Package, error) {
	files, err := l.parseDir(dir)
	if err != nil {
		return nil, err
	}
	if len(files) == 0 {
		return nil, fmt.Errorf("lint: no Go files in %s", dir)
	}
	info := &types.Info{
		Types:      make(map[ast.Expr]types.TypeAndValue),
		Defs:       make(map[*ast.Ident]types.Object),
		Uses:       make(map[*ast.Ident]types.Object),
		Selections: make(map[*ast.SelectorExpr]*types.Selection),
		Scopes:     make(map[ast.Node]*types.Scope),
	}
	conf := types.Config{
		Importer: &moduleImporter{l: l},
	}
	l.mu.Lock()
	l.checked[path]++
	l.mu.Unlock()
	tpkg, err := conf.Check(path, l.Fset, files, info)
	if err != nil {
		return nil, fmt.Errorf("lint: type-checking %s: %w", path, err)
	}
	return &Package{
		Path:          path,
		Dir:           dir,
		Fset:          l.Fset,
		Files:         files,
		Types:         tpkg,
		Info:          info,
		Deterministic: hasDeterministicDirective(files),
	}, nil
}

// hasDeterministicDirective reports whether any comment of any file is
// a //maldlint:deterministic annotation.
func hasDeterministicDirective(files []*ast.File) bool {
	for _, f := range files {
		for _, cg := range f.Comments {
			for _, c := range cg.List {
				text := strings.TrimSpace(strings.TrimPrefix(c.Text, "//"))
				if text == deterministicDirective || strings.HasPrefix(text, deterministicDirective+" ") {
					return true
				}
			}
		}
	}
	return false
}

// parseDir parses the buildable Go files of dir: regular sources plus
// in-package _test.go files. External test packages (package foo_test)
// are skipped — they would need the package under test as an import of
// themselves and form a separate unit.
func (l *Loader) parseDir(dir string) ([]*ast.File, error) {
	entries, err := os.ReadDir(dir)
	if err != nil {
		return nil, fmt.Errorf("lint: reading %s: %w", dir, err)
	}
	var names []string
	for _, e := range entries {
		n := e.Name()
		if e.IsDir() || !strings.HasSuffix(n, ".go") || strings.HasPrefix(n, ".") || strings.HasPrefix(n, "_") {
			continue
		}
		names = append(names, n)
	}
	sort.Strings(names)

	var files []*ast.File
	pkgName := ""
	for _, n := range names {
		full := filepath.Join(dir, n)
		f, err := parser.ParseFile(l.Fset, full, nil, parser.ParseComments)
		if err != nil {
			return nil, fmt.Errorf("lint: parsing %s: %w", full, err)
		}
		if !buildable(f) {
			// Excluded by a //go:build constraint under the default tag
			// set (e.g. the race half of a race/norace pair): parsing
			// both halves would redeclare their symbols.
			continue
		}
		name := f.Name.Name
		if strings.HasSuffix(n, "_test.go") {
			// Keep in-package test files, skip external test packages.
			if strings.HasSuffix(name, "_test") {
				continue
			}
		}
		if pkgName == "" {
			pkgName = name
		}
		if name != pkgName {
			// Mixed non-test package clauses; keep the majority package
			// (the first seen) and ignore strays rather than failing.
			continue
		}
		files = append(files, f)
	}
	return files, nil
}

// buildable reports whether f is included under the default build
// configuration: current GOOS/GOARCH, gc, and nothing else. Files gated
// on instrumentation or tool tags (race, msan, ignore, …) are excluded,
// so the loader never sees both halves of a tag-paired declaration.
func buildable(f *ast.File) bool {
	for _, cg := range f.Comments {
		if cg.Pos() >= f.Package {
			break
		}
		for _, c := range cg.List {
			if !constraint.IsGoBuild(c.Text) && !constraint.IsPlusBuild(c.Text) {
				continue
			}
			expr, err := constraint.Parse(c.Text)
			if err != nil {
				continue
			}
			if !expr.Eval(tagSatisfied) {
				return false
			}
		}
	}
	return true
}

// tagSatisfied is the build-tag truth function for buildable: the host
// platform and compiler are on, Go release tags are assumed satisfied
// by the current toolchain, and everything else (race, msan, custom
// tags) is off.
func tagSatisfied(tag string) bool {
	switch tag {
	case runtime.GOOS, runtime.GOARCH, "gc", "unix":
		return true
	}
	return strings.HasPrefix(tag, "go1.")
}

// moduleImporter resolves module-internal imports from source and
// delegates everything else to the standard-library source importer.
type moduleImporter struct {
	l *Loader
}

func (m *moduleImporter) Import(path string) (*types.Package, error) {
	if path == m.l.ModPath || strings.HasPrefix(path, m.l.ModPath+"/") {
		pkg, err := m.l.Load(path)
		if err != nil {
			return nil, err
		}
		return pkg.Types, nil
	}
	m.l.stdMu.Lock()
	defer m.l.stdMu.Unlock()
	return m.l.std.Import(path)
}
