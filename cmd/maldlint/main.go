// Command maldlint is the repository's static-analysis gate. It loads
// every package of the module with go/parser and go/types (stdlib only —
// no external tooling), runs the repo-specific checks of internal/lint,
// prints position-accurate findings, and exits non-zero when any remain.
//
// Usage:
//
//	maldlint [flags] [package-dir|./...]...
//
//	-list              list available checks and exit
//	-explain <check>   print the long-form documentation of one check
//	-checks a,b        run only the named checks (default: all)
//	-json              emit a machine-readable JSON report on stdout
//	-baseline <file>   fail only on findings not recorded in the baseline
//	-write-baseline <file>
//	                   record current findings as the new baseline
//	-fix               apply mechanical fixes (errcmpsentinel) in place
//	-tags a,b          extra build tags, like `go build -tags` (GOFLAGS
//	                   -tags=... is honored too)
//
// With no arguments (or "./...") the whole module is analyzed, in
// parallel, each package type-checked exactly once.
//
// Findings can be silenced inline, one line above or on the offending
// line, with
//
//	//maldlint:ignore <check>[,<check>...] <rationale>
//
// Exit status: 0 clean (or all findings baselined), 1 new findings,
// 2 load or usage errors.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"strings"

	"repro/internal/lint"
)

func main() {
	os.Exit(run(os.Args[1:], os.Stdout))
}

// outf prints report output; stdout write failures (closed pipe) are
// not actionable here, so the error is dismissed explicitly.
func outf(f *os.File, format string, args ...any) {
	_, _ = fmt.Fprintf(f, format, args...)
}

func run(args []string, stdout *os.File) int {
	fs := flag.NewFlagSet("maldlint", flag.ContinueOnError)
	listFlag := fs.Bool("list", false, "list available checks and exit")
	explainFlag := fs.String("explain", "", "print the long-form documentation of one check and exit")
	checksFlag := fs.String("checks", "", "comma-separated subset of checks to run (default: all)")
	jsonFlag := fs.Bool("json", false, "emit a JSON report on stdout")
	baselineFlag := fs.String("baseline", "", "baseline file: fail only on findings it does not record")
	writeBaselineFlag := fs.String("write-baseline", "", "write current findings to this baseline file and exit")
	fixFlag := fs.Bool("fix", false, "apply mechanical fixes in place")
	tagsFlag := fs.String("tags", "", "comma-separated extra build tags (like go build -tags)")
	if err := fs.Parse(args); err != nil {
		return 2
	}

	if *listFlag {
		for _, c := range lint.AllChecks() {
			outf(stdout, "%-14s %-8s %s\n", c.Name(), c.Severity(), c.Doc())
		}
		return 0
	}
	if *explainFlag != "" {
		c := lint.CheckByName(*explainFlag)
		if c == nil {
			fmt.Fprintf(os.Stderr, "maldlint: unknown check %q (run -list for options)\n", *explainFlag)
			return 2
		}
		outf(stdout, "%s (%s): %s\n\n%s\n", c.Name(), c.Severity(), c.Doc(), c.Explain())
		return 0
	}

	runner, err := selectChecks(*checksFlag)
	if err != nil {
		fmt.Fprintln(os.Stderr, "maldlint:", err)
		return 2
	}

	tags := buildTags(*tagsFlag)
	loader, err := lint.NewLoaderTags(".", tags)
	if err != nil {
		fmt.Fprintln(os.Stderr, "maldlint:", err)
		return 2
	}

	paths, err := resolvePatterns(loader, fs.Args())
	if err != nil {
		fmt.Fprintln(os.Stderr, "maldlint:", err)
		return 2
	}

	diags, loadFailed := analyze(loader, runner, paths)

	findings := lint.ToJSON(relativizeAll(loader.ModRoot, diags))

	if *writeBaselineFlag != "" {
		f, err := os.Create(*writeBaselineFlag)
		if err != nil {
			fmt.Fprintln(os.Stderr, "maldlint:", err)
			return 2
		}
		werr := lint.WriteBaseline(f, findings)
		if cerr := f.Close(); werr == nil {
			werr = cerr
		}
		if werr != nil {
			fmt.Fprintln(os.Stderr, "maldlint:", werr)
			return 2
		}
		fmt.Fprintf(os.Stderr, "maldlint: wrote %d finding(s) to %s\n", len(findings), *writeBaselineFlag)
		if loadFailed {
			return 2
		}
		return 0
	}

	baselined := 0
	if *baselineFlag != "" {
		base, err := lint.ReadBaseline(*baselineFlag)
		if err != nil {
			fmt.Fprintln(os.Stderr, "maldlint:", err)
			return 2
		}
		findings, baselined = base.Filter(findings)
	}

	if *fixFlag {
		// Fix only unbaselined findings; match them back to the absolute
		// paths ApplyFixes needs via the diag order preserved by Filter.
		applied, err := lint.ApplyFixes(fixableDiags(diags, findings, loader.ModRoot))
		if err != nil {
			fmt.Fprintln(os.Stderr, "maldlint:", err)
			return 2
		}
		files := make([]string, 0, len(applied))
		for file := range applied {
			files = append(files, file)
		}
		sort.Strings(files)
		total := 0
		for _, file := range files {
			rel := file
			if r, err := filepath.Rel(loader.ModRoot, file); err == nil {
				rel = r
			}
			fmt.Fprintf(os.Stderr, "maldlint: fixed %d finding(s) in %s\n", applied[file], rel)
			total += applied[file]
		}
		findings = dropFixed(findings)
		if total > 0 {
			fmt.Fprintf(os.Stderr, "maldlint: re-run to verify %d applied fix(es)\n", total)
		}
	}

	if *jsonFlag {
		report := lint.JSONReport{
			Findings:  findings,
			Baselined: baselined,
			Checks:    checkNames(runner.Checks),
		}
		if report.Findings == nil {
			report.Findings = []lint.JSONFinding{}
		}
		enc := json.NewEncoder(stdout)
		enc.SetIndent("", "  ")
		if err := enc.Encode(report); err != nil {
			fmt.Fprintln(os.Stderr, "maldlint:", err)
			return 2
		}
	} else {
		for _, f := range findings {
			outf(stdout, "%s:%d:%d: %s [%s] %s\n", f.File, f.Line, f.Column, f.Severity, f.Check, f.Message)
		}
	}

	switch {
	case loadFailed:
		return 2
	case len(findings) > 0:
		fmt.Fprintf(os.Stderr, "maldlint: %d new finding(s)", len(findings))
		if baselined > 0 {
			fmt.Fprintf(os.Stderr, " (%d baselined)", baselined)
		}
		fmt.Fprintln(os.Stderr)
		return 1
	}
	if baselined > 0 {
		fmt.Fprintf(os.Stderr, "maldlint: clean (%d baselined finding(s) remain)\n", baselined)
	}
	return 0
}

// analyze loads paths in parallel and runs the checks over every
// package that loaded.
func analyze(loader *lint.Loader, runner *lint.Runner, paths []string) (diags []lint.Diagnostic, failed bool) {
	pkgs, errs := loader.LoadAll(paths)
	for i, pkg := range pkgs {
		if errs[i] != nil {
			fmt.Fprintln(os.Stderr, "maldlint:", errs[i])
			failed = true
			continue
		}
		diags = append(diags, runner.Run(pkg)...)
	}
	return diags, failed
}

// buildTags merges the -tags flag with any -tags=... directive in
// GOFLAGS, mirroring the go tool's precedence (the explicit flag wins
// but both contribute).
func buildTags(flagVal string) []string {
	var tags []string
	add := func(spec string) {
		for _, t := range strings.Split(spec, ",") {
			if t = strings.TrimSpace(t); t != "" && !hasTag(tags, t) {
				tags = append(tags, t)
			}
		}
	}
	for _, f := range strings.Fields(os.Getenv("GOFLAGS")) {
		if rest, ok := strings.CutPrefix(f, "-tags="); ok {
			add(rest)
		} else if rest, ok := strings.CutPrefix(f, "--tags="); ok {
			add(rest)
		}
	}
	if flagVal != "" {
		add(flagVal)
	}
	return tags
}

func hasTag(tags []string, tag string) bool {
	for _, t := range tags {
		if t == tag {
			return true
		}
	}
	return false
}

// fixableDiags returns the diagnostics (absolute paths, as ApplyFixes
// needs) whose relativized form survived baseline filtering and carry
// a fix.
func fixableDiags(diags []lint.Diagnostic, fresh []lint.JSONFinding, root string) []lint.Diagnostic {
	want := make(map[string]int)
	for _, f := range fresh {
		if f.Fixable {
			want[f.File+"|"+f.Check+"|"+f.Message]++
		}
	}
	var out []lint.Diagnostic
	for _, d := range diags {
		if d.Fix == nil {
			continue
		}
		rel := d.Pos.Filename
		if r, err := filepath.Rel(root, d.Pos.Filename); err == nil && !strings.HasPrefix(r, "..") {
			rel = filepath.ToSlash(r)
		}
		key := rel + "|" + d.Check + "|" + d.Message
		if want[key] > 0 {
			want[key]--
			out = append(out, d)
		}
	}
	return out
}

// dropFixed removes findings whose fix was just applied from the
// report.
func dropFixed(findings []lint.JSONFinding) []lint.JSONFinding {
	var out []lint.JSONFinding
	for _, f := range findings {
		if !f.Fixable {
			out = append(out, f)
		}
	}
	return out
}

// checkNames lists the names of the checks that ran.
func checkNames(checks []lint.Check) []string {
	out := make([]string, len(checks))
	for i, c := range checks {
		out[i] = c.Name()
	}
	return out
}

// relativizeAll rewrites diagnostic filenames to module-relative,
// slash-separated paths so output and baseline keys are stable across
// checkouts.
func relativizeAll(root string, diags []lint.Diagnostic) []lint.Diagnostic {
	out := make([]lint.Diagnostic, len(diags))
	copy(out, diags)
	for i := range out {
		if rel, err := filepath.Rel(root, out[i].Pos.Filename); err == nil && !strings.HasPrefix(rel, "..") {
			out[i].Pos.Filename = filepath.ToSlash(rel)
		}
	}
	return out
}

// selectChecks builds a runner for the requested check subset.
func selectChecks(spec string) (*lint.Runner, error) {
	if spec == "" {
		return lint.NewRunner(), nil
	}
	var checks []lint.Check
	for _, name := range strings.Split(spec, ",") {
		name = strings.TrimSpace(name)
		if name == "" {
			continue
		}
		c := lint.CheckByName(name)
		if c == nil {
			return nil, fmt.Errorf("unknown check %q (run -list for options)", name)
		}
		checks = append(checks, c)
	}
	if len(checks) == 0 {
		return nil, fmt.Errorf("no checks selected")
	}
	return &lint.Runner{Checks: checks}, nil
}

// resolvePatterns turns CLI arguments into module import paths. "./..."
// (and no arguments at all) selects every package of the module; other
// arguments name package directories relative to the working directory.
func resolvePatterns(loader *lint.Loader, args []string) ([]string, error) {
	if len(args) == 0 {
		return loader.Walk()
	}
	var paths []string
	for _, a := range args {
		if a == "./..." || a == "..." || a == loader.ModPath+"/..." {
			all, err := loader.Walk()
			if err != nil {
				return nil, err
			}
			paths = append(paths, all...)
			continue
		}
		abs, err := filepath.Abs(a)
		if err != nil {
			return nil, fmt.Errorf("resolving %s: %w", a, err)
		}
		rel, err := filepath.Rel(loader.ModRoot, abs)
		if err != nil || strings.HasPrefix(rel, "..") {
			return nil, fmt.Errorf("%s is outside module %s", a, loader.ModPath)
		}
		if rel == "." {
			paths = append(paths, loader.ModPath)
		} else {
			paths = append(paths, loader.ModPath+"/"+filepath.ToSlash(rel))
		}
	}
	return paths, nil
}
