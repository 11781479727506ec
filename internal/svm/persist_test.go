package svm

import (
	"bytes"
	"encoding/gob"
	"strings"
	"testing"
)

func TestModelSaveLoadRoundTrip(t *testing.T) {
	X, y := blobs(150, 4, 3)
	for _, kernel := range []Kernel{RBF{Gamma: 0.4}, Linear{}} {
		m, err := Train(X, y, Config{C: 1, Kernel: kernel})
		if err != nil {
			t.Fatal(err)
		}
		var buf bytes.Buffer
		if err := m.Save(&buf); err != nil {
			t.Fatal(err)
		}
		back, err := LoadModel(&buf)
		if err != nil {
			t.Fatal(err)
		}
		if back.KernelName() != m.KernelName() {
			t.Fatalf("kernel %q != %q", back.KernelName(), m.KernelName())
		}
		if back.NumSV() != m.NumSV() {
			t.Fatalf("SVs %d != %d", back.NumSV(), m.NumSV())
		}
		for i := 0; i < 50; i++ {
			if got, want := back.Decision(X[i]), m.Decision(X[i]); got != want {
				t.Fatalf("decision %v != %v after reload", got, want)
			}
		}
	}
}

func TestLoadModelRejectsGarbage(t *testing.T) {
	if _, err := LoadModel(strings.NewReader("not a gob stream")); err == nil {
		t.Fatal("garbage stream accepted")
	}
}

// TestLoadModelRejectsRaggedVectors: support vectors of unequal length
// are a corrupt file, reported at load rather than by a panic when the
// decision table is built.
func TestLoadModelRejectsRaggedVectors(t *testing.T) {
	var buf bytes.Buffer
	wire := modelWire{KernelName: "rbf", Gamma: 0.5, SVX: [][]float64{{1, 2}, {3}}, SVCoef: []float64{1, -1}}
	if err := gob.NewEncoder(&buf).Encode(wire); err != nil {
		t.Fatal(err)
	}
	if _, err := LoadModel(&buf); err == nil || !strings.Contains(err.Error(), "support vector 1") {
		t.Fatalf("ragged support vectors: error %v", err)
	}
}
