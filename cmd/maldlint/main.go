// Command maldlint is the repository's static-analysis gate. It loads
// every package of the module with go/parser and go/types (stdlib only —
// no external tooling), runs the repo-specific checks of internal/lint,
// prints position-accurate findings, and exits non-zero when any remain.
//
// Usage:
//
//	maldlint [-list] [package-dir | dir/...]...
//
//	-list   list the checks and exit
//
// An argument ending in "/..." selects every package at or under that
// directory ("./..." from the module root is the whole module); any other
// argument names one package directory. With no arguments the whole
// module is analyzed. Packages load in parallel, each type-checked
// exactly once. Each finding is one line on stdout:
//
//	file:line:col: [check] message
//
// with file relative to the module root. The contract is zero findings;
// a finding is accepted only inline, on the offending line or the line
// above, with
//
//	//maldlint:ignore <check>[,<check>...] <rationale>
//
// Exit status: 0 clean, 1 findings, 2 load or usage errors.
package main

import (
	"flag"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"strings"

	"repro/internal/lint"
)

func main() {
	os.Exit(run(os.Args[1:], os.Stdout))
}

func run(args []string, stdout io.Writer) int {
	fs := flag.NewFlagSet("maldlint", flag.ContinueOnError)
	listFlag := fs.Bool("list", false, "list the checks and exit")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	runner := lint.NewRunner()
	if *listFlag {
		for _, c := range runner.Checks {
			_, _ = fmt.Fprintf(stdout, "%-14s %s\n", c.Name(), c.Doc())
		}
		return 0
	}

	loader, err := lint.NewLoader(".")
	if err != nil {
		fmt.Fprintln(os.Stderr, "maldlint:", err)
		return 2
	}
	paths, err := resolvePatterns(loader, fs.Args())
	if err != nil {
		fmt.Fprintln(os.Stderr, "maldlint:", err)
		return 2
	}

	pkgs, errs := loader.LoadAll(paths)
	loadFailed, findings := false, 0
	for i, pkg := range pkgs {
		if errs[i] != nil {
			fmt.Fprintln(os.Stderr, "maldlint:", errs[i])
			loadFailed = true
			continue
		}
		for _, d := range runner.Run(pkg) {
			if rel, err := filepath.Rel(loader.ModRoot, d.Pos.Filename); err == nil && !strings.HasPrefix(rel, "..") {
				d.Pos.Filename = filepath.ToSlash(rel)
			}
			_, _ = fmt.Fprintln(stdout, d)
			findings++
		}
	}
	switch {
	case loadFailed:
		return 2
	case findings > 0:
		fmt.Fprintf(os.Stderr, "maldlint: %d finding(s)\n", findings)
		return 1
	}
	return 0
}

// resolvePatterns turns CLI arguments into module import paths. No
// arguments selects every package of the module. An argument ending in
// "/..." selects every package at or under that directory; any other
// argument names one package directory. Directories are relative to the
// working directory and must lie inside the module.
func resolvePatterns(loader *lint.Loader, args []string) ([]string, error) {
	if len(args) == 0 {
		return loader.Walk()
	}
	var paths []string
	for _, a := range args {
		dir, tree := strings.CutSuffix(a, "/...")
		path, err := importPath(loader, dir)
		if err != nil {
			return nil, err
		}
		if !tree {
			paths = append(paths, path)
			continue
		}
		all, err := loader.Walk()
		if err != nil {
			return nil, err
		}
		n := len(paths)
		for _, p := range all {
			if p == path || strings.HasPrefix(p, path+"/") {
				paths = append(paths, p)
			}
		}
		if len(paths) == n {
			return nil, fmt.Errorf("%s matched no packages", a)
		}
	}
	return paths, nil
}

// importPath maps a directory to the import path of the module package
// it holds.
func importPath(loader *lint.Loader, dir string) (string, error) {
	abs, err := filepath.Abs(dir)
	if err != nil {
		return "", fmt.Errorf("resolving %s: %w", dir, err)
	}
	rel, err := filepath.Rel(loader.ModRoot, abs)
	if err != nil || strings.HasPrefix(rel, "..") {
		return "", fmt.Errorf("%s is outside module %s", dir, loader.ModPath)
	}
	if rel == "." {
		return loader.ModPath, nil
	}
	return loader.ModPath + "/" + filepath.ToSlash(rel), nil
}
