package line

import (
	"bytes"
	"strings"
	"testing"
)

func TestEmbeddingSaveLoadRoundTrip(t *testing.T) {
	g := twoCliques(5)
	emb, err := Train(g, Config{Dim: 8, Order: OrderFirst, Samples: 20_000, Seed: 4})
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if err := emb.Save(&buf); err != nil {
		t.Fatal(err)
	}
	back, err := LoadEmbedding(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if back.Dim != emb.Dim || len(back.Vectors) != len(emb.Vectors) {
		t.Fatalf("shape mismatch after reload")
	}
	for v := range emb.Vectors {
		for i := range emb.Vectors[v] {
			if back.Vectors[v][i] != emb.Vectors[v][i] {
				t.Fatalf("vector %d differs after reload", v)
			}
		}
	}
}

func TestLoadEmbeddingRejectsGarbage(t *testing.T) {
	if _, err := LoadEmbedding(strings.NewReader("junk")); err == nil {
		t.Fatal("garbage stream accepted")
	}
}
