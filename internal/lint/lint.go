// Package lint is a from-scratch static analyzer for this repository,
// built only on the standard library's go/ast, go/parser, go/token and
// go/types packages. It enforces repo-specific invariants that keep the
// detection pipeline (bipartite graphs → projections → LINE embedding →
// SVM) deterministic and race-free:
//
//   - mathrand: stochastic code must draw from mathx.RNG streams, never
//     math/rand or time-seeded generators (reproducibility contract in
//     internal/mathx/rng.go).
//   - maprange: iteration over a Go map has randomized order; functions
//     that emit ordered output (reports, feature vectors, embeddings)
//     must not range over maps unless the collected result is sorted.
//   - wgadd: sync.WaitGroup.Add must run before the goroutine it
//     accounts for is spawned, never inside it.
//   - droppederr: error returns must not be silently discarded outside
//     _test.go files.
//   - detpath: packages annotated //maldlint:deterministic may not
//     consult the wall clock, use global math/rand, or let map
//     iteration order choose their results.
//   - gobfields: structs handed to gob.Encode/Decode must not carry
//     unexported (silently dropped) or interface-typed fields.
//   - errcmpsentinel: sentinel errors must be compared with errors.Is,
//     never ==/!= (carries a mechanical -fix).
//   - closeleak: opened files must be closed on every CFG path
//     (dataflow-aware, built on the cfg.go graph).
//   - tickerloop: no time.After/NewTicker allocation per loop
//     iteration.
//   - atomicalign: 64-bit sync/atomic operands must stay 8-byte
//     aligned under 32-bit struct layout.
//
// Every check implements the Check interface, reports position-accurate
// diagnostics with a severity, and honors inline suppressions of the form
//
//	//maldlint:ignore <check>[,<check>...] [rationale]
//
// placed on the offending line or the line directly above it. A
// suppression must name the check(s) it silences; there is no blanket
// ignore. cmd/maldlint wires the checks into a CLI gate with JSON
// output, a baseline workflow, and per-check -explain documentation.
package lint

import (
	"fmt"
	"go/ast"
	"go/token"
	"go/types"
	"sort"
	"strings"
)

// Severity classifies how a finding should be treated. The CLI gate
// fails on every finding regardless of severity; the level tells the
// reader whether the finding is a correctness bug (SeverityError) or a
// determinism/style hazard (SeverityWarning).
type Severity int

// Severity levels.
const (
	// SeverityWarning marks hazards that can silently change results
	// (nondeterministic iteration, per-iteration timers).
	SeverityWarning Severity = iota + 1
	// SeverityError marks definite correctness bugs (leaked files,
	// dropped errors, forbidden randomness sources).
	SeverityError
)

// String returns "warning" or "error".
func (s Severity) String() string {
	if s == SeverityError {
		return "error"
	}
	return "warning"
}

// Diagnostic is one finding: a position, the check that produced it, its
// severity, and a human-readable message. Mechanical checks may attach
// a Fix that cmd/maldlint -fix applies.
type Diagnostic struct {
	Pos      token.Position
	Check    string
	Severity Severity
	Message  string
	Fix      *Fix
}

// Fix is a mechanical rewrite for one finding: replace the source bytes
// [Start, End) of the finding's file with NewText. Offsets are byte
// offsets within the file. NeedsImport, when non-empty, names an import
// path the fixed file must have (added if missing).
type Fix struct {
	Start       int
	End         int
	NewText     string
	NeedsImport string
}

// String formats the diagnostic in the conventional file:line:col form.
func (d Diagnostic) String() string {
	return fmt.Sprintf("%s: %s [%s] %s", d.Pos, d.Severity, d.Check, d.Message)
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
	// Explain is the long-form documentation shown by
	// `maldlint -explain <check>`: what the check flags, why the repo
	// cares, and how to fix or suppress a finding.
	Explain() string
	// Severity is the level attached to every finding of this check.
	Severity() Severity
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
		Pos:      p.Fset.Position(pos),
		Check:    p.check.Name(),
		Severity: p.check.Severity(),
		Message:  fmt.Sprintf(format, args...),
	})
}

// ReportFix records a finding at pos carrying a mechanical fix.
func (p *Pass) ReportFix(pos token.Pos, fix *Fix, format string, args ...any) {
	p.report(Diagnostic{
		Pos:      p.Fset.Position(pos),
		Check:    p.check.Name(),
		Severity: p.check.Severity(),
		Message:  fmt.Sprintf(format, args...),
		Fix:      fix,
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
