// Package lint is a from-scratch static analyzer for this repository,
// built only on the standard library's go/ast, go/parser, go/token and
// go/types packages. It enforces the invariants that keep a model a pure
// function of (trace, config, seed) and keep errors from vanishing:
//
//   - mathrand: stochastic code must draw from mathx.RNG streams, never
//     math/rand or time-seeded generators (reproducibility contract in
//     internal/mathx/rng.go).
//   - maprange: iteration over a Go map has randomized order; functions
//     that emit ordered output (reports, feature vectors, embeddings)
//     must not range over maps unless the collected result is sorted.
//   - droppederr: error returns must not be silently discarded outside
//     _test.go files.
//   - detpath: packages annotated //maldlint:deterministic may not
//     consult the wall clock or let map iteration order choose their
//     results.
//   - errcmpsentinel: sentinel errors must be compared with errors.Is,
//     never ==/!=.
//
// Every check implements the Check interface, reports position-accurate
// diagnostics, and honors inline suppressions of the form
//
//	//maldlint:ignore <check>[,<check>...] [rationale]
//
// placed on the offending line or the line directly above it. A
// suppression must name the check(s) it silences; there is no blanket
// ignore. cmd/maldlint wires the checks into a CLI gate.
package lint

import (
	"fmt"
	"go/ast"
	"go/token"
	"go/types"
	"sort"
	"strings"
)

// Diagnostic is one finding: a position, the check that produced it,
// and a human-readable message.
type Diagnostic struct {
	Pos     token.Position
	Check   string
	Message string
}

// String formats the diagnostic in the conventional file:line:col form.
func (d Diagnostic) String() string {
	return fmt.Sprintf("%s: [%s] %s", d.Pos, d.Check, d.Message)
}

// Check is one pluggable analysis. Implementations walk the files of a
// Pass and report findings through it; they must be stateless so one
// Check value can serve many packages.
type Check interface {
	// Name is the short identifier used in diagnostics and in
	// //maldlint:ignore comments.
	Name() string
	// Doc is a one-line description shown by `maldlint -list`.
	Doc() string
	// Run analyzes one type-checked package.
	Run(p *Pass)
}

// Pass hands one type-checked package to a Check and collects its
// findings.
type Pass struct {
	Fset  *token.FileSet
	Pkg   *types.Package
	Info  *types.Info
	Files []*ast.File
	// Deterministic mirrors Package.Deterministic: the package carries a
	// //maldlint:deterministic annotation.
	Deterministic bool

	check  Check
	report func(Diagnostic)
}

// Reportf records a finding at pos.
func (p *Pass) Reportf(pos token.Pos, format string, args ...any) {
	p.report(Diagnostic{
		Pos:     p.Fset.Position(pos),
		Check:   p.check.Name(),
		Message: fmt.Sprintf(format, args...),
	})
}

// TypeOf returns the type of e, or nil if unknown.
func (p *Pass) TypeOf(e ast.Expr) types.Type {
	return p.Info.TypeOf(e)
}

// Runner applies a set of checks to packages and filters suppressed
// findings.
type Runner struct {
	Checks []Check
}

// NewRunner returns a Runner with every built-in check registered in
// canonical order.
func NewRunner() *Runner {
	return &Runner{Checks: AllChecks()}
}

// Run analyzes one loaded package and returns its unsuppressed findings
// sorted by position.
func (r *Runner) Run(pkg *Package) []Diagnostic {
	sup := collectSuppressions(pkg.Fset, pkg.Files)
	var out []Diagnostic
	for _, c := range r.Checks {
		pass := &Pass{
			Fset:          pkg.Fset,
			Pkg:           pkg.Types,
			Info:          pkg.Info,
			Files:         pkg.Files,
			Deterministic: pkg.Deterministic,
			check:         c,
		}
		pass.report = func(d Diagnostic) {
			if sup.matches(d.Pos.Filename, d.Pos.Line, d.Check) {
				return
			}
			out = append(out, d)
		}
		c.Run(pass)
	}
	sort.Slice(out, func(i, j int) bool {
		a, b := out[i].Pos, out[j].Pos
		if a.Filename != b.Filename {
			return a.Filename < b.Filename
		}
		if a.Line != b.Line {
			return a.Line < b.Line
		}
		if a.Column != b.Column {
			return a.Column < b.Column
		}
		return out[i].Check < out[j].Check
	})
	return out
}

// suppressions records, per file and line, the set of check names an
// inline //maldlint:ignore comment silences.
type suppressions map[string]map[int]map[string]bool

// ignorePrefix introduces a suppression comment.
const ignorePrefix = "maldlint:ignore"

// collectSuppressions scans every comment of every file for ignore
// directives.
func collectSuppressions(fset *token.FileSet, files []*ast.File) suppressions {
	sup := make(suppressions)
	for _, f := range files {
		for _, cg := range f.Comments {
			for _, c := range cg.List {
				text := strings.TrimPrefix(c.Text, "//")
				text = strings.TrimSpace(text)
				if !strings.HasPrefix(text, ignorePrefix) {
					continue
				}
				rest := strings.TrimSpace(strings.TrimPrefix(text, ignorePrefix))
				names := parseIgnoreList(rest)
				if len(names) == 0 {
					continue // a bare ignore with no check names silences nothing
				}
				pos := fset.Position(c.Pos())
				byLine := sup[pos.Filename]
				if byLine == nil {
					byLine = make(map[int]map[string]bool)
					sup[pos.Filename] = byLine
				}
				set := byLine[pos.Line]
				if set == nil {
					set = make(map[string]bool)
					byLine[pos.Line] = set
				}
				for _, n := range names {
					set[n] = true
				}
			}
		}
	}
	return sup
}

// parseIgnoreList extracts the comma-separated check names that lead an
// ignore directive; everything after the first whitespace-delimited
// token is free-form rationale.
func parseIgnoreList(rest string) []string {
	fields := strings.Fields(rest)
	if len(fields) == 0 {
		return nil
	}
	var names []string
	for _, n := range strings.Split(fields[0], ",") {
		if n = strings.TrimSpace(n); n != "" {
			names = append(names, n)
		}
	}
	return names
}

// matches reports whether a finding of check at file:line is silenced by
// a directive on the same line or the line directly above.
func (s suppressions) matches(file string, line int, check string) bool {
	byLine, ok := s[file]
	if !ok {
		return false
	}
	for _, l := range [2]int{line, line - 1} {
		if set, ok := byLine[l]; ok && set[check] {
			return true
		}
	}
	return false
}
