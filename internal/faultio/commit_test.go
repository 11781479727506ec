// The FS half of the seam is tested against the one production commit
// sequence (crcio.Commit) — from an external test package, because crcio
// imports faultio.
package faultio_test

import (
	"errors"
	"io"
	"os"
	"path/filepath"
	"testing"

	"repro/internal/crcio"
	"repro/internal/faultio"
)

// commit writes data to path through the production commit sequence.
func commit(fs faultio.FS, path string, data []byte) error {
	_, err := crcio.Commit(fs, path, ".tmp-*", func(w io.Writer) error {
		_, err := w.Write(data)
		return err
	})
	return err
}

func TestOSFSAtomicWrite(t *testing.T) {
	path := filepath.Join(t.TempDir(), "state.bin")
	if err := commit(faultio.OS, path, []byte("v1")); err != nil {
		t.Fatal(err)
	}
	got, err := os.ReadFile(path)
	if err != nil || string(got) != "v1" {
		t.Fatalf("read back %q err=%v", got, err)
	}
}

func TestFaultsEachStep(t *testing.T) {
	cases := []struct {
		name   string
		faults *faultio.Faults
	}{
		{"create", &faultio.Faults{FailCreate: true}},
		{"write", &faultio.Faults{WrapWriter: func(w io.Writer) io.Writer { return faultio.FailWriter(w, 1) }}},
		{"torn", &faultio.Faults{WrapWriter: func(w io.Writer) io.Writer { return faultio.TornWriter(w, 1) }}},
		{"sync", &faultio.Faults{FailSync: true}},
		{"close", &faultio.Faults{FailClose: true}},
		{"rename", &faultio.Faults{FailRename: true}},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			dir := t.TempDir()
			path := filepath.Join(dir, "state.bin")
			if err := commit(faultio.OS, path, []byte("previous")); err != nil {
				t.Fatal(err)
			}
			err := commit(tc.faults, path, []byte("next-generation"))
			if !errors.Is(err, faultio.ErrInjected) {
				t.Fatalf("fault not surfaced: err=%v", err)
			}
			if tc.faults.Renames != 0 {
				t.Error("failed write still reached the rename step")
			}
			// The previous generation survives every fault.
			got, rerr := os.ReadFile(path)
			if rerr != nil || string(got) != "previous" {
				t.Fatalf("previous state damaged: %q err=%v", got, rerr)
			}
			// No temp litter except where cleanup itself was impossible.
			ents, _ := os.ReadDir(dir)
			if len(ents) != 1 {
				t.Errorf("temp file leaked: %d entries in dir", len(ents))
			}
		})
	}
}
