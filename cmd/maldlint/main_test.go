package main

import (
	"bytes"
	"os"
	"path/filepath"
	"regexp"
	"strings"
	"testing"

	"repro/internal/lint"
	"repro/internal/race"
)

// TestModuleClean is the gate itself: the whole module has zero
// findings. check.sh runs the binary, so the race pass skips it.
func TestModuleClean(t *testing.T) {
	if race.Enabled {
		t.Skip("check.sh runs maldlint itself; the type-check walk is slow under -race")
	}
	chdir(t, "../..")
	var out bytes.Buffer
	if code := run([]string{"./..."}, &out); code != 0 {
		t.Fatalf("maldlint ./... exited %d, want 0:\n%s", code, out.String())
	}
}

// TestExitCodes pins the CLI contract on a throwaway module: one
// finding is one documented line and exit 1, an inline ignore makes it
// exit 0, and usage or type errors exit 2.
func TestExitCodes(t *testing.T) {
	dir := t.TempDir()
	if err := os.WriteFile(filepath.Join(dir, "go.mod"), []byte("module fx\n\ngo 1.22\n"), 0o644); err != nil {
		t.Fatal(err)
	}
	chdir(t, dir)
	const cmp = "\treturn err == io.EOF"
	cases := []struct {
		name string
		args []string
		line string // the comparison line of fx.go
		want int
	}{
		{"finding", []string{"./..."}, cmp, 1},
		{"ignored", []string{"./..."}, cmp + " //maldlint:ignore errcmpsentinel identity intended", 0},
		{"unknown flag", []string{"-fix", "./..."}, cmp, 2},
		{"type error", []string{"."}, "\treturn err == io.EOF + 1", 2},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			src := "package fx\n\nimport \"io\"\n\nfunc isEOF(err error) bool {\n" + tc.line + "\n}\n"
			if err := os.WriteFile("fx.go", []byte(src), 0o644); err != nil {
				t.Fatal(err)
			}
			var out bytes.Buffer
			if code := run(tc.args, &out); code != tc.want {
				t.Fatalf("run(%q) exited %d, want %d\n%s", tc.args, code, tc.want, out.String())
			}
			if tc.want != 1 {
				return
			}
			lines := strings.Split(strings.TrimSuffix(out.String(), "\n"), "\n")
			re := regexp.MustCompile(`^fx\.go:6:9: \[errcmpsentinel\] == sentinel comparison with io\.EOF`)
			if len(lines) != 1 || !re.MatchString(lines[0]) {
				t.Errorf("output %q, want one line matching %s", out.String(), re)
			}
		})
	}
}

// TestTreePatterns checks that "dir/..." selects exactly the packages at
// or under dir.
func TestTreePatterns(t *testing.T) {
	loader, err := lint.NewLoader(".")
	if err != nil {
		t.Fatal(err)
	}
	chdir(t, loader.ModRoot)
	paths, err := resolvePatterns(loader, []string{"./internal/..."})
	if err != nil {
		t.Fatalf("resolvePatterns(./internal/...): %v", err)
	}
	has := make(map[string]bool)
	for _, p := range paths {
		has[p] = true
	}
	if !has["repro/internal/lint"] || has["repro/cmd/maldlint"] {
		t.Errorf("./internal/... gave %v: want repro/internal/lint in, repro/cmd/maldlint out", paths)
	}
	if _, err := resolvePatterns(loader, []string{"./nosuchdir/..."}); err == nil {
		t.Errorf("./nosuchdir/... resolved without error")
	}
}

// chdir switches the working directory for the rest of the test.
func chdir(t *testing.T, dir string) {
	t.Helper()
	old, err := os.Getwd()
	if err != nil {
		t.Fatal(err)
	}
	if err := os.Chdir(dir); err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() {
		if err := os.Chdir(old); err != nil {
			t.Fatal(err)
		}
	})
}
