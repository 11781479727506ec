package core

import (
	"bytes"
	"crypto/sha256"
	"encoding/gob"
	"fmt"
	"io"
	"testing"
	"time"

	"repro/internal/bipartite"
	"repro/internal/crcio"
	"repro/internal/line"
	"repro/internal/pipeline"
)

// goldenModelSHA256 is the SHA-256 of the model file produced by
// goldenModelBytes under the pre-registry build path (PR 7). The
// pluggable-stage refactor must keep the default selection
// (line + svm, all views) byte-identical to this: the registry is a
// seam, not a behavior change.
const goldenModelSHA256 = "babb19a785f075ccd77f8bd6619c3a6a5eede35c3d3f9c676467549c15ab0185"

// goldenModel trains the fixed tiny fixture — 8 domains, 3 hosts,
// deterministic timestamps, seed 42 — at the given Config.Workers.
func goldenModel(t *testing.T, workers int) (*Detector, *Classifier) {
	t.Helper()
	start := time.Date(2024, 1, 1, 0, 0, 0, 0, time.UTC)
	det := NewDetector(Config{
		Start:        start,
		Days:         1,
		EmbedDim:     4,
		EmbedSamples: 20_000,
		Seed:         42,
		Workers:      workers,
	})
	for i := 0; i < 8; i++ {
		for h := 0; h < 3; h++ {
			for m := 0; m < 3; m++ {
				det.Consume(pipeline.Input{
					Time:     start.Add(time.Duration(2*i+m) * time.Minute),
					ClientIP: fmt.Sprintf("10.0.0.%d", (i+h)%10),
					QName:    fmt.Sprintf("www.dom%d.com", i),
					Answers:  []string{fmt.Sprintf("198.51.100.%d", (i+m)%8)},
				})
			}
		}
	}
	if err := det.BuildModel(); err != nil {
		t.Fatalf("BuildModel: %v", err)
	}
	domains, err := det.Domains()
	if err != nil {
		t.Fatalf("Domains: %v", err)
	}
	labels := make([]int, len(domains))
	for i := range domains {
		labels[i] = i % 2
	}
	clf, err := det.TrainClassifier(domains, labels)
	if err != nil {
		t.Fatalf("TrainClassifier: %v", err)
	}
	return det, clf
}

// goldenModelBytes returns the fixture's serialized model file.
func goldenModelBytes(t *testing.T, workers int) []byte {
	t.Helper()
	det, clf := goldenModel(t, workers)
	var buf bytes.Buffer
	if err := det.SaveModel(&buf, clf); err != nil {
		t.Fatalf("SaveModel: %v", err)
	}
	return buf.Bytes()
}

// TestGoldenModelBytes pins the default-path model file bytes across
// the registry refactor, at any Config.Workers.
func TestGoldenModelBytes(t *testing.T) {
	for _, workers := range []int{1, 8} {
		b := goldenModelBytes(t, workers)
		got := fmt.Sprintf("%x", sha256.Sum256(b))
		if got != goldenModelSHA256 {
			t.Fatalf("Workers %d: model bytes changed: sha256 %s (len %d), want %s", workers, got, len(b), goldenModelSHA256)
		}
	}
}

// TestGoldenModelVersionCompat pins the fold-in API redesign's
// compatibility promise across every on-disk version: version-1 (no
// trailer), version-2 (the golden default bytes), and version-3
// (backend-named) streams of the same model all load, and the default
// Score path stays bit-identical across them — with retained domains
// reporting Source "model" at Confidence 1 through the new Result
// surface.
func TestGoldenModelVersionCompat(t *testing.T) {
	v2 := goldenModelBytes(t, 1)
	ref, err := LoadScorer(bytes.NewReader(v2))
	if err != nil {
		t.Fatalf("golden v2 stream refused: %v", err)
	}

	// The fixture's live state, to hand-write the v1 and v3 layouts
	// around the same embeddings and classifier.
	det, clf := goldenModel(t, 1)

	hdr := modelHeader{
		Magic:       modelMagic,
		Version:     1,
		Fingerprint: det.cfg.Fingerprint(),
		EmbedDim:    det.cfg.EmbedDim,
		Domains:     det.domains,
		Views:       clf.views,
	}
	writeBody := func(w io.Writer) {
		for _, v := range bipartite.Views {
			e := det.embeddings[v]
			if err := (&line.Embedding{Dim: e.Dim, Vectors: e.Vectors}).Save(w); err != nil {
				t.Fatal(err)
			}
		}
		if err := clf.clf.Save(w); err != nil {
			t.Fatal(err)
		}
	}

	// Version 1: header + blobs, no trailer.
	var v1 bytes.Buffer
	if err := gob.NewEncoder(&v1).Encode(hdr); err != nil {
		t.Fatal(err)
	}
	writeBody(&v1)

	// Version 3: header + backends record + blobs + CRC trailer.
	var v3 bytes.Buffer
	cw := crcio.NewWriter(&v3)
	hdr.Version = modelVersionBackends
	enc := gob.NewEncoder(cw)
	if err := enc.Encode(hdr); err != nil {
		t.Fatal(err)
	}
	if err := enc.Encode(modelBackends{
		Embedder: DefaultEmbedder, Classifier: DefaultClassifier, ViewSet: DefaultViewSet,
	}); err != nil {
		t.Fatal(err)
	}
	writeBody(cw)
	if err := cw.WriteTrailer(); err != nil {
		t.Fatal(err)
	}

	for name, stream := range map[string][]byte{"v1": v1.Bytes(), "v3": v3.Bytes()} {
		sc, err := LoadScorer(bytes.NewReader(stream))
		if err != nil {
			t.Fatalf("%s stream refused: %v", name, err)
		}
		if got, want := len(sc.Domains()), len(ref.Domains()); got != want {
			t.Fatalf("%s: %d domains, want %d", name, got, want)
		}
		for _, dom := range ref.Domains() {
			want, _ := ref.Result(dom)
			got, ok := sc.Result(dom)
			if !ok || got != want {
				t.Fatalf("%s: %s Result %+v, want %+v", name, dom, got, want)
			}
			if got.Source != SourceModel || got.Confidence != 1 {
				t.Fatalf("%s: %s source %q confidence %v, want model/1", name, dom, got.Source, got.Confidence)
			}
		}
	}
}
