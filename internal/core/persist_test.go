package core

import (
	"bytes"
	"encoding/gob"
	"errors"
	"io"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"repro/internal/bipartite"
	"repro/internal/crcio"
	"repro/internal/faultio"
	"repro/internal/line"
)

// TestSaveModelLoadScorerRoundTrip is the train-once/serve-many
// guarantee: a Scorer loaded from a saved model must reproduce
// bit-identical feature vectors, decision values, and predictions for
// every retained domain, without any pipeline state.
func TestSaveModelLoadScorerRoundTrip(t *testing.T) {
	d, _, ti := buildDetector(t, 21)
	domains, labels := labeledSet(t, d, ti)
	clf, err := d.TrainClassifier(domains, labels)
	if err != nil {
		t.Fatal(err)
	}

	var buf bytes.Buffer
	if err := d.SaveModel(&buf, clf); err != nil {
		t.Fatal(err)
	}
	sc, err := LoadScorer(bytes.NewReader(buf.Bytes()))
	if err != nil {
		t.Fatal(err)
	}

	retained, err := d.Domains()
	if err != nil {
		t.Fatal(err)
	}
	if got := sc.Domains(); len(got) != len(retained) {
		t.Fatalf("scorer has %d domains, want %d", len(got), len(retained))
	}
	if sc.Fingerprint() != d.Config().Fingerprint() {
		t.Errorf("fingerprint %q, want %q", sc.Fingerprint(), d.Config().Fingerprint())
	}
	if sc.Model().NumSV() != clf.Model().NumSV() {
		t.Errorf("scorer has %d SVs, want %d", sc.Model().NumSV(), clf.Model().NumSV())
	}
	for _, dom := range retained {
		want, ok := clf.Score(dom)
		if !ok {
			t.Fatalf("detector cannot score retained domain %s", dom)
		}
		got, ok := sc.Score(dom)
		if !ok {
			t.Fatalf("scorer cannot score retained domain %s", dom)
		}
		if got != want {
			t.Fatalf("%s: scorer decision %v != detector decision %v", dom, got, want)
		}
		wp, _ := clf.Predict(dom)
		if gp, _ := sc.Predict(dom); gp != wp {
			t.Fatalf("%s: scorer predicts %d, detector %d", dom, gp, wp)
		}
		wv, _ := d.FeatureVector(dom)
		gv, _ := sc.FeatureVector(dom)
		if len(gv) != len(wv) {
			t.Fatalf("%s: feature dim %d != %d", dom, len(gv), len(wv))
		}
		for i := range wv {
			if gv[i] != wv[i] {
				t.Fatalf("%s: feature component %d differs after round trip", dom, i)
			}
		}
	}
	if _, ok := sc.Score("never-seen.example"); ok {
		t.Error("scorer scored an unknown domain")
	}
	if v, ok := sc.FeatureVector(retained[0], bipartite.ViewQuery); !ok || len(v) != d.Config().EmbedDim {
		t.Errorf("single-view scorer vector dim %d, want %d", len(v), d.Config().EmbedDim)
	}
}

func TestSaveModelValidation(t *testing.T) {
	var buf bytes.Buffer
	unbuilt := NewDetector(Config{})
	if err := unbuilt.SaveModel(&buf, nil); err == nil {
		t.Fatal("SaveModel before build accepted")
	}

	d, _, ti := buildDetector(t, 21)
	if err := d.SaveModel(&buf, nil); err == nil {
		t.Fatal("nil classifier accepted")
	}
	// A classifier trained on a different detector must be rejected: its
	// support vectors index a different feature space.
	other := &Classifier{detector: unbuilt}
	if err := d.SaveModel(&buf, other); err == nil {
		t.Fatal("foreign classifier accepted")
	}
	domains, labels := labeledSet(t, d, ti)
	clf, err := d.TrainClassifier(domains, labels)
	if err != nil {
		t.Fatal(err)
	}
	if err := d.SaveModel(&buf, clf); err != nil {
		t.Fatal(err)
	}
}

// TestLoadScorerRejectsCorruptStreams mirrors the line/svm persist
// tests: garbage, truncation at several depths, and foreign-but-valid
// gob streams must all fail cleanly.
func TestLoadScorerRejectsCorruptStreams(t *testing.T) {
	if _, err := LoadScorer(strings.NewReader("junk")); err == nil {
		t.Fatal("garbage stream accepted")
	}

	d, _, ti := buildDetector(t, 21)
	domains, labels := labeledSet(t, d, ti)
	clf, err := d.TrainClassifier(domains, labels)
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if err := d.SaveModel(&buf, clf); err != nil {
		t.Fatal(err)
	}
	full := buf.Bytes()
	// Truncations: inside the header, inside the embeddings, and just
	// before the SVM trailer.
	for _, frac := range []int{64, 4, 2} {
		cut := len(full) / frac
		if _, err := LoadScorer(bytes.NewReader(full[:cut])); err == nil {
			t.Fatalf("truncated stream (%d of %d bytes) accepted", cut, len(full))
		}
	}
	if _, err := LoadScorer(bytes.NewReader(full[:len(full)-1])); err == nil {
		t.Fatal("stream missing final byte accepted")
	}
	// A valid gob stream that is not a model: a bare embedding.
	var embBuf bytes.Buffer
	emb, err := d.Embedding(bipartite.ViewQuery)
	if err != nil {
		t.Fatal(err)
	}
	if err := (&line.Embedding{Dim: emb.Dim, Vectors: emb.Vectors}).Save(&embBuf); err != nil {
		t.Fatal(err)
	}
	if _, err := LoadScorer(bytes.NewReader(embBuf.Bytes())); err == nil {
		t.Fatal("bare embedding stream accepted as a model")
	}
}

// TestLoadScorerReadsLegacyV1 pins the compatibility promise: model
// files written before the CRC trailer existed (version 1, no trailer)
// must keep loading and score identically to a current save.
func TestLoadScorerReadsLegacyV1(t *testing.T) {
	d, _, ti := buildDetector(t, 21)
	domains, labels := labeledSet(t, d, ti)
	clf, err := d.TrainClassifier(domains, labels)
	if err != nil {
		t.Fatal(err)
	}
	// Hand-write the version-1 layout: header + three embeddings + SVM,
	// no trailer.
	var v1 bytes.Buffer
	hdr := modelHeader{
		Magic:       modelMagic,
		Version:     1,
		Fingerprint: d.cfg.Fingerprint(),
		EmbedDim:    d.cfg.EmbedDim,
		Domains:     d.domains,
		Views:       clf.views,
	}
	if err := gob.NewEncoder(&v1).Encode(hdr); err != nil {
		t.Fatal(err)
	}
	for _, v := range bipartite.Views {
		e := d.embeddings[v]
		if err := (&line.Embedding{Dim: e.Dim, Vectors: e.Vectors}).Save(&v1); err != nil {
			t.Fatal(err)
		}
	}
	if err := clf.clf.Save(&v1); err != nil {
		t.Fatal(err)
	}

	sc, err := LoadScorer(bytes.NewReader(v1.Bytes()))
	if err != nil {
		t.Fatalf("legacy v1 stream refused: %v", err)
	}
	for _, dom := range sc.Domains() {
		want, _ := clf.Score(dom)
		if got, ok := sc.Score(dom); !ok || got != want {
			t.Fatalf("%s: legacy scorer decision %v, want %v", dom, got, want)
		}
	}
}

// TestModelTrailerDetectsCorruption: a current save carries a CRC-32
// trailer, so corruption the gob layer would happily decode — flipped
// trailer bytes, bit-rot in the float payload — is refused.
func TestModelTrailerDetectsCorruption(t *testing.T) {
	d, _, ti := buildDetector(t, 21)
	domains, labels := labeledSet(t, d, ti)
	clf, err := d.TrainClassifier(domains, labels)
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if err := d.SaveModel(&buf, clf); err != nil {
		t.Fatal(err)
	}
	full := buf.Bytes()

	// Flips inside the trailer itself always surface as ErrChecksum:
	// the payload decodes fine, the seal does not match.
	for i := len(full) - 4; i < len(full); i++ {
		flipped := bytes.Clone(full)
		flipped[i] ^= 0x08
		if _, err := LoadScorer(bytes.NewReader(flipped)); !errors.Is(err, crcio.ErrChecksum) {
			t.Fatalf("trailer flip at byte %d: err = %v, want ErrChecksum", i, err)
		}
	}
	// Flips sampled across the whole payload must be refused one way or
	// another: either the gob layer chokes or the trailer check does.
	for i := 0; i < len(full)-4; i += 97 {
		flipped := bytes.Clone(full)
		flipped[i] ^= 0x08
		if _, err := LoadScorer(bytes.NewReader(flipped)); err == nil {
			t.Fatalf("payload flip at byte %d accepted", i)
		}
	}
	// Truncation that removes only the trailer is no longer silent.
	if _, err := LoadScorer(bytes.NewReader(full[:len(full)-4])); err == nil {
		t.Fatal("stream with amputated trailer accepted")
	}
}

// TestModelPersistFaultInjection drives save and load through the
// faultio seam: a writer that dies mid-stream fails the save, a reader
// that dies mid-stream fails the load, and both surface the injected
// cause.
func TestModelPersistFaultInjection(t *testing.T) {
	d, _, ti := buildDetector(t, 21)
	domains, labels := labeledSet(t, d, ti)
	clf, err := d.TrainClassifier(domains, labels)
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if err := d.SaveModel(&buf, clf); err != nil {
		t.Fatal(err)
	}
	full := buf.Bytes()

	for _, limit := range []int64{0, 10, int64(len(full) / 2), int64(len(full) - 2)} {
		var sink bytes.Buffer
		if err := d.SaveModel(faultio.FailWriter(&sink, limit), clf); !errors.Is(err, faultio.ErrInjected) {
			t.Fatalf("save with writer failing after %d bytes: err = %v, want ErrInjected", limit, err)
		}
		if _, err := LoadScorer(faultio.FailReader(bytes.NewReader(full), limit)); !errors.Is(err, faultio.ErrInjected) {
			t.Fatalf("load with reader failing after %d bytes: err = %v, want ErrInjected", limit, err)
		}
	}
	// A torn write that lands on disk is caught at load time by the
	// trailer (the torn prefix reads as a truncated stream).
	var torn bytes.Buffer
	_ = d.SaveModel(faultio.TornWriter(&torn, int64(len(full)/2)), clf)
	if _, err := LoadScorer(bytes.NewReader(torn.Bytes())); err == nil {
		t.Fatal("torn model stream accepted")
	}
	// Short-write detection: SaveModel's writes go through the caller's
	// writer directly, so a lying writer shows up as an encode error.
	var short bytes.Buffer
	if err := d.SaveModel(faultio.ShortWriter(&short, 10), clf); err == nil {
		t.Fatal("save through a short writer reported success")
	}
}

// TestSaveModelFileFaults drives the model file's commit through every
// injected failure the faultio seam models (the table
// stream.TestWriteCheckpointFaults runs against the checkpoint): a failed
// `maldetect train -out m.bin` over an existing m.bin leaves the previous
// model byte-identical and loadable, and litters no temp files.
func TestSaveModelFileFaults(t *testing.T) {
	det, clf := goldenModel(t, 1)
	wrap := func(fw func(io.Writer, int64) io.Writer) *faultio.Faults {
		return &faultio.Faults{WrapWriter: func(w io.Writer) io.Writer { return fw(w, 64) }}
	}
	cases := []struct {
		name   string
		faults *faultio.Faults
		want   error
	}{
		{"create fails", &faultio.Faults{FailCreate: true}, faultio.ErrInjected},
		{"write fails mid-stream", wrap(faultio.FailWriter), faultio.ErrInjected},
		{"torn write", wrap(faultio.TornWriter), faultio.ErrInjected},
		{"short write", wrap(faultio.ShortWriter), io.ErrShortWrite},
		{"sync fails", &faultio.Faults{FailSync: true}, faultio.ErrInjected},
		{"close fails", &faultio.Faults{FailClose: true}, faultio.ErrInjected},
		{"rename fails", &faultio.Faults{FailRename: true}, faultio.ErrInjected},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			dir := t.TempDir()
			path := filepath.Join(dir, "m.bin")
			size, err := SaveModelFile(path, det, clf)
			prev, rerr := os.ReadFile(path)
			if err != nil || rerr != nil || int64(len(prev)) != size {
				t.Fatalf("first save: %d bytes reported, %d read back, err=%v/%v", size, len(prev), err, rerr)
			}
			if _, err := saveModelFile(tc.faults, path, det, clf); !errors.Is(err, tc.want) {
				t.Fatalf("err = %v, want %v in the chain", err, tc.want)
			}
			if tc.faults.Renames != 0 {
				t.Fatal("failed write reached the commit rename")
			}
			if after, _ := os.ReadFile(path); !bytes.Equal(prev, after) {
				t.Fatal("previous model modified by a failed write")
			}
			if _, err := LoadScorerFile(path); err != nil {
				t.Fatalf("previous model unloadable after failed write: %v", err)
			}
			if entries, _ := os.ReadDir(dir); len(entries) != 1 {
				t.Fatalf("temp litter after failed write: %d entries", len(entries))
			}
		})
	}
}
