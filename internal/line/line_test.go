package line

import (
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"fmt"
	"math"
	"runtime"
	"testing"

	"repro/internal/graph"
	"repro/internal/mathx"
)

// twoCliques builds two dense cliques of size k joined by one weak
// bridge edge — the canonical embedding sanity case: within-clique
// similarity must exceed cross-clique similarity.
func twoCliques(k int) *graph.Weighted {
	var edges []graph.Edge
	for i := 0; i < k; i++ {
		for j := i + 1; j < k; j++ {
			edges = append(edges, graph.Edge{U: int32(i), V: int32(j), W: 1})
			edges = append(edges, graph.Edge{U: int32(k + i), V: int32(k + j), W: 1})
		}
	}
	edges = append(edges, graph.Edge{U: 0, V: int32(k), W: 0.05})
	g, err := graph.Build(2*k, edges)
	if err != nil {
		panic(err)
	}
	return g
}

func cosine(a, b []float64) float64 {
	na, nb := mathx.Norm(a), mathx.Norm(b)
	if na == 0 || nb == 0 {
		return 0
	}
	return mathx.Dot(a, b) / (na * nb)
}

func cliqueSeparation(t *testing.T, order Order) float64 {
	t.Helper()
	// Negatives is kept below the default: on a 40-vertex toy graph the
	// noise distribution constantly collides with true neighbors, an
	// artifact that vanishes at the 10k-domain scale the pipeline runs at.
	const k = 20
	g := twoCliques(k)
	emb, err := Train(g, Config{Dim: 16, Order: order, Samples: 400_000, Seed: 7, Negatives: 2})
	if err != nil {
		t.Fatal(err)
	}
	within, cross := 0.0, 0.0
	nw, nc := 0, 0
	for i := 0; i < k; i++ {
		for j := i + 1; j < k; j++ {
			within += cosine(emb.Vectors[i], emb.Vectors[j])
			within += cosine(emb.Vectors[k+i], emb.Vectors[k+j])
			nw += 2
		}
		for j := 0; j < k; j++ {
			cross += cosine(emb.Vectors[i], emb.Vectors[k+j])
			nc++
		}
	}
	return within/float64(nw) - cross/float64(nc)
}

func TestCliqueSeparationFirstOrder(t *testing.T) {
	if sep := cliqueSeparation(t, OrderFirst); sep < 0.3 {
		t.Errorf("first-order within-cross separation = %.3f, want >= 0.3", sep)
	}
}

func TestCliqueSeparationSecondOrder(t *testing.T) {
	if sep := cliqueSeparation(t, OrderSecond); sep < 0.3 {
		t.Errorf("second-order within-cross separation = %.3f, want >= 0.3", sep)
	}
}

func TestCliqueSeparationBoth(t *testing.T) {
	if sep := cliqueSeparation(t, OrderBoth); sep < 0.3 {
		t.Errorf("combined within-cross separation = %.3f, want >= 0.3", sep)
	}
}

func TestSecondOrderCapturesSharedNeighborhoods(t *testing.T) {
	// Star-of-stars: vertices 1 and 2 share all their neighbors (hubs 3,
	// 4, 5) but have no edge between them. Second-order proximity must
	// embed them closely; vertex 0 attaches to different hubs (6, 7, 8).
	edges := []graph.Edge{
		{U: 1, V: 3, W: 1}, {U: 1, V: 4, W: 1}, {U: 1, V: 5, W: 1},
		{U: 2, V: 3, W: 1}, {U: 2, V: 4, W: 1}, {U: 2, V: 5, W: 1},
		{U: 0, V: 6, W: 1}, {U: 0, V: 7, W: 1}, {U: 0, V: 8, W: 1},
		// Weak connectivity so the graph is one component.
		{U: 3, V: 6, W: 0.05},
	}
	g, err := graph.Build(9, edges)
	if err != nil {
		t.Fatal(err)
	}
	emb, err := Train(g, Config{Dim: 8, Order: OrderSecond, Samples: 300_000, Seed: 3})
	if err != nil {
		t.Fatal(err)
	}
	same := cosine(emb.Vectors[1], emb.Vectors[2])
	diff := cosine(emb.Vectors[1], emb.Vectors[0])
	if same <= diff+0.2 {
		t.Errorf("second order: shared-neighborhood cos %.3f not above different-neighborhood cos %.3f", same, diff)
	}
}

func TestVectorsAreUnitNormPerPart(t *testing.T) {
	g := twoCliques(4)
	emb, err := Train(g, Config{Dim: 8, Order: OrderFirst, Samples: 50_000, Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	for v, vec := range emb.Vectors {
		if len(vec) != 8 {
			t.Fatalf("vector %d has dim %d", v, len(vec))
		}
		if n := mathx.Norm(vec); math.Abs(n-1) > 1e-9 {
			t.Fatalf("vector %d norm %v, want 1", v, n)
		}
	}
}

func TestOrderBothConcatenates(t *testing.T) {
	g := twoCliques(4)
	emb, err := Train(g, Config{Dim: 16, Order: OrderBoth, Samples: 50_000, Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	for _, vec := range emb.Vectors {
		if len(vec) != 16 {
			t.Fatalf("combined vector has dim %d, want 16", len(vec))
		}
		// Each half is unit norm -> total norm sqrt(2).
		if n := mathx.Norm(vec); math.Abs(n-math.Sqrt2) > 1e-9 {
			t.Fatalf("combined norm %v, want sqrt(2)", n)
		}
	}
}

func TestOddDimRejectedForBoth(t *testing.T) {
	g := twoCliques(3)
	if _, err := Train(g, Config{Dim: 15, Order: OrderBoth, Samples: 1000}); err == nil {
		t.Fatal("odd Dim accepted for OrderBoth")
	}
}

func TestSelfLoopEdgesAreSkipped(t *testing.T) {
	// graph.Build rejects self-loops, but package line does not control
	// its inputs: a hand-built Weighted can carry u==v edges. In the
	// first-order objective a self-loop would push a row along its own
	// copy, so trainOrder skips them; training must stay finite and
	// deterministic.
	g := &graph.Weighted{
		N:      3,
		EdgesU: []int32{0, 1, 2},
		EdgesV: []int32{1, 2, 2}, // (2,2) is a self-loop
		EdgesW: []float64{1, 1, 5},
		Degree: []float64{1, 2, 11},
	}
	cfg := Config{Dim: 8, Order: OrderFirst, Samples: 20_000, Seed: 3, Negatives: 2}
	e1, err := Train(g, cfg)
	if err != nil {
		t.Fatal(err)
	}
	e2, err := Train(g, cfg)
	if err != nil {
		t.Fatal(err)
	}
	for v := range e1.Vectors {
		for i := range e1.Vectors[v] {
			x := e1.Vectors[v][i]
			if math.IsNaN(x) || math.IsInf(x, 0) {
				t.Fatalf("vertex %d component %d is %v", v, i, x)
			}
			if x != e2.Vectors[v][i] {
				t.Fatalf("vertex %d differs across identically seeded runs: %v vs %v",
					v, x, e2.Vectors[v][i])
			}
		}
	}
}

func TestTrainDeterministic(t *testing.T) {
	g := twoCliques(5)
	cfg := Config{Dim: 8, Order: OrderFirst, Samples: 20_000, Seed: 11}
	a, err := Train(g, cfg)
	if err != nil {
		t.Fatal(err)
	}
	b, err := Train(g, cfg)
	if err != nil {
		t.Fatal(err)
	}
	for v := range a.Vectors {
		for i := range a.Vectors[v] {
			if a.Vectors[v][i] != b.Vectors[v][i] {
				t.Fatalf("vertex %d dim %d differs across identical runs", v, i)
			}
		}
	}
}

func TestIsolatedVerticesGetFiniteVectors(t *testing.T) {
	// Vertices 4 and 5 are isolated.
	edges := []graph.Edge{{U: 0, V: 1, W: 1}, {U: 1, V: 2, W: 1}, {U: 2, V: 3, W: 1}}
	g, err := graph.Build(6, edges)
	if err != nil {
		t.Fatal(err)
	}
	emb, err := Train(g, Config{Dim: 8, Order: OrderBoth, Samples: 10_000, Seed: 2})
	if err != nil {
		t.Fatal(err)
	}
	for v, vec := range emb.Vectors {
		for i, x := range vec {
			if math.IsNaN(x) || math.IsInf(x, 0) {
				t.Fatalf("vertex %d dim %d is %v", v, i, x)
			}
		}
	}
}

func TestEmptyGraph(t *testing.T) {
	g, err := graph.Build(0, nil)
	if err != nil {
		t.Fatal(err)
	}
	emb, err := Train(g, Config{Dim: 8, Samples: 100})
	if err != nil {
		t.Fatal(err)
	}
	if len(emb.Vectors) != 0 {
		t.Fatal("empty graph produced vectors")
	}
}

func TestEdgelessGraphStillEmbeds(t *testing.T) {
	g, err := graph.Build(5, nil)
	if err != nil {
		t.Fatal(err)
	}
	emb, err := Train(g, Config{Dim: 8, Order: OrderFirst, Samples: 100, Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	if len(emb.Vectors) != 5 {
		t.Fatalf("got %d vectors, want 5", len(emb.Vectors))
	}
}

func TestWeightsInfluenceEmbedding(t *testing.T) {
	// Triangle where 0-1 has weight 100 and the other edges 0.01: vertex
	// 0 should embed much closer to 1 than to 2.
	edges := []graph.Edge{
		{U: 0, V: 1, W: 100},
		{U: 0, V: 2, W: 0.01},
		{U: 1, V: 2, W: 0.01},
	}
	g, err := graph.Build(3, edges)
	if err != nil {
		t.Fatal(err)
	}
	emb, err := Train(g, Config{Dim: 8, Order: OrderFirst, Samples: 100_000, Seed: 5})
	if err != nil {
		t.Fatal(err)
	}
	strong := cosine(emb.Vectors[0], emb.Vectors[1])
	weak := cosine(emb.Vectors[0], emb.Vectors[2])
	if strong <= weak {
		t.Errorf("heavy edge cos %.3f not above light edge cos %.3f", strong, weak)
	}
}

func TestWarmStartInitValidation(t *testing.T) {
	g := twoCliques(3)
	if _, err := Train(g, Config{Dim: 8, Order: OrderFirst, Samples: 1000, Init: make([][]float64, 2)}); err == nil {
		t.Fatal("Init with wrong vertex count accepted")
	}
	bad := make([][]float64, 6)
	bad[0] = make([]float64, 5)
	if _, err := Train(g, Config{Dim: 8, Order: OrderFirst, Samples: 1000, Init: bad}); err == nil {
		t.Fatal("Init row with wrong dim accepted")
	}
	for _, x := range []float64{math.NaN(), math.Inf(1), math.Inf(-1)} {
		for _, order := range []Order{OrderFirst, OrderBoth} {
			init := make([][]float64, 6)
			init[1] = make([]float64, 8)
			init[4] = make([]float64, 8)
			init[4][5] = x
			_, err := Train(g, Config{Dim: 8, Order: order, Samples: 1000, Init: init})
			if want := "line: Init row 4 has non-finite component 5"; err == nil || err.Error() != want {
				t.Errorf("Init with %v, order %d: error %v, want %q", x, order, err, want)
			}
		}
	}
}

func TestWarmStartSeedsVectors(t *testing.T) {
	// With next to no training (8 samples) a warm-started vertex must
	// stay near its init direction while differing from the cold run,
	// proving the rows were applied.
	g := twoCliques(4)
	cold, err := Train(g, Config{Dim: 8, Order: OrderBoth, Samples: 8, Seed: 9, Negatives: 1})
	if err != nil {
		t.Fatal(err)
	}
	init := make([][]float64, len(cold.Vectors))
	for v := range init {
		row := make([]float64, 8)
		// A distinctive direction: all mass on one component per half.
		row[v%4] = 1
		row[4+(v+1)%4] = 1
		init[v] = row
	}
	warm, err := Train(g, Config{Dim: 8, Order: OrderBoth, Samples: 8, Seed: 9, Negatives: 1, Init: init})
	if err != nil {
		t.Fatal(err)
	}
	for v := range warm.Vectors {
		if c := cosine(warm.Vectors[v], init[v]); c < 0.9 {
			t.Errorf("vertex %d drifted from its warm init: cos %.3f", v, c)
		}
	}
	same := true
	for v := range warm.Vectors {
		for i := range warm.Vectors[v] {
			if warm.Vectors[v][i] != cold.Vectors[v][i] {
				same = false
			}
		}
	}
	if same {
		t.Fatal("warm-started embedding identical to cold start")
	}
}

func TestWarmStartShrinksAutoSamples(t *testing.T) {
	g := twoCliques(4)
	cold, err := Train(g, Config{Dim: 8, Order: OrderFirst, Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	init := make([][]float64, len(cold.Vectors))
	copy(init, cold.Vectors)
	warm, err := Train(g, Config{Dim: 8, Order: OrderFirst, Seed: 1, Init: init})
	if err != nil {
		t.Fatal(err)
	}
	if warm.Samples >= cold.Samples {
		t.Errorf("warm auto budget %d not below cold %d", warm.Samples, cold.Samples)
	}
	// An explicit Samples value must be respected exactly in both modes.
	explicit, err := Train(g, Config{Dim: 8, Order: OrderFirst, Samples: 12_345, Seed: 1, Init: init})
	if err != nil {
		t.Fatal(err)
	}
	if explicit.Samples != 12_345 {
		t.Errorf("explicit sample count overridden: %d", explicit.Samples)
	}
}

func TestSamplesReportBudgetPerOrder(t *testing.T) {
	// Embedding.Samples reports the steps performed: the budget, once
	// per objective.
	emb, err := Train(twoCliques(4), Config{Dim: 8, Order: OrderBoth, Samples: 10, Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	if emb.Samples != 20 {
		t.Errorf("Samples = %d, want 20", emb.Samples)
	}
}

// embeddingSHA hashes every component's bit pattern in vertex order.
func embeddingSHA(e *Embedding) string {
	h := sha256.New()
	var b [8]byte
	for _, vec := range e.Vectors {
		for _, x := range vec {
			binary.LittleEndian.PutUint64(b[:], math.Float64bits(x))
			h.Write(b[:])
		}
	}
	return hex.EncodeToString(h.Sum(nil))
}

// pinnedTrain runs the configuration the pinned hashes were recorded
// with: a 300-vertex sparse graph, 20k samples, and for the
// warm case an Init that seeds two vertices in three and leaves the
// rest to the random initialization.
func pinnedTrain(t testing.TB, dim int, order Order, warm bool) *Embedding {
	t.Helper()
	g := benchGraph(300, 10, 17)
	cfg := Config{Dim: dim, Order: order, Samples: 20_000, Seed: 23}
	if warm {
		rng := mathx.NewRNG(31)
		cfg.Init = make([][]float64, g.N)
		for v := range cfg.Init {
			if v%3 == 2 {
				continue
			}
			row := make([]float64, dim)
			for i := range row {
				row[i] = rng.Float64() - 0.5
			}
			cfg.Init[v] = row
		}
	}
	emb, err := Train(g, cfg)
	if err != nil {
		t.Fatal(err)
	}
	return emb
}

// pinnedEmbeddingSHA was recorded at commit 15ef86c, before the SGD step
// was fused and vectorised (the row/Dot/FastSigmoid/AddScaled/addScaled
// sequence referenceStep keeps). Dim 32 and 16 run whole vectors only
// (half-dim 16 and 8 for "both"), Dim 10 a vector plus a two-element
// tail, and Dim 10 "both" one vector plus one element. A change to
// these values is a change to every model the repository builds.
var pinnedEmbeddingSHA = map[string]string{
	"dim32/first/cold":  "7cee744f8b896cdcbe94828cb8cd40d1672deb4c83ef01e11bae3bb433add31f",
	"dim32/first/warm":  "893ef514556171bdd7923e2e564f109fa52d1a8aaf4210294b4edcc379353aea",
	"dim32/second/cold": "a15ba0c01b66fb8ede3159600d9ff34323e503ca37060d44ea1caccaf64921a0",
	"dim32/second/warm": "a3364b57a0942ec2249557f7b133e4495724a3a3deff54566874a59ee2e6f243",
	"dim32/both/cold":   "20c6110de5d5be37797319a5a38b8534791b26749f16badc71171fdc367f09b8",
	"dim32/both/warm":   "036437279be3a8dcd3aa18ea505462a842ba926b6aecda6cbd3609ae1a4b2dd9",
	"dim16/first/cold":  "48e3131cd58f2022a3ab4b0d07f04289dc5578c9996bd4fd09ab55ff1712378b",
	"dim16/first/warm":  "fe7ae81f11e791d3165273455c07e1e1d4276db441443de02f992736bfe714c1",
	"dim16/second/cold": "e5a7e227c1e6563759706653d160ba4bdc4125fb1855b4cbb4e7b6568221fef4",
	"dim16/second/warm": "e1aa2743eaf751b941477ceb1bd84f7ab98d2a6b25b7dd5facc1161175510450",
	"dim16/both/cold":   "163c0f509bcfce09c27f01379160112224d7ada782cc6b8fef4e4d2a28804919",
	"dim16/both/warm":   "11ba8de05442ba0cc36e9adb59f8f33285c8f5cd03ac26724a899856c82a27ca",
	"dim10/first/cold":  "5cb032d40f308e15315d019230be1288e7f5cf57e97b5b33167f8635a9887421",
	"dim10/first/warm":  "2814a77b50923a3afecc741e5e216e802b2057b493aabeb904e098c5ab4f954a",
	"dim10/second/cold": "3494c1a53df2f9dbe3109ff12575fa735aa5d84ee7094374f30a8abb45d1367a",
	"dim10/second/warm": "3fcaa79f71b99c9c352f9fc3732f8446b8ff5261e01dc2c335dd5efd860ca7d9",
	"dim10/both/cold":   "e8f24216e5668187ae79a0ae73d5ff07b25f07b7927252fdd225e2091a2c708d",
	"dim10/both/warm":   "2cbe0593d1f8ebdc291897eb6ab5d5c15fb8c1affecf77fabc19a6d034f94992",
}

func TestTrainMatchesPinnedEmbeddings(t *testing.T) {
	if runtime.GOARCH != "amd64" {
		t.Skip("hashes recorded on amd64; elsewhere the compiler may fuse multiply-adds")
	}
	orders := []struct {
		name  string
		order Order
	}{{"first", OrderFirst}, {"second", OrderSecond}, {"both", OrderBoth}}
	for _, dim := range []int{32, 16, 10} {
		for _, o := range orders {
			for _, start := range []string{"cold", "warm"} {
				name := fmt.Sprintf("dim%d/%s/%s", dim, o.name, start)
				if got := embeddingSHA(pinnedTrain(t, dim, o.order, start == "warm")); got != pinnedEmbeddingSHA[name] {
					t.Errorf("%s: embedding SHA-256 %s, pinned %s", name, got, pinnedEmbeddingSHA[name])
				}
			}
		}
	}
}

// referenceStep is the sequence matrix.step replaced, on plain slices:
// mathx.Dot, the sigmoid, mathx.AddScaled into grad, then the row
// update. Every step implementation must agree with it bit for bit.
func referenceStep(row, src, grad []float64, label, lr float64) {
	sig := mathx.FastSigmoid(mathx.Dot(src, row))
	g := -sig * lr
	if label == 1 {
		g = (1 - sig) * lr
	}
	mathx.AddScaled(grad, g, row)
	for i, x := range src {
		row[i] += g * x
	}
}

// hwNaN is the one NaN the step tests feed in: the quiet NaN x86
// produces itself for Inf−Inf and 0·Inf. Which operand's payload a NaN
// result carries is the hardware's choice and the compiler is free to
// commute operands, so bit equality of NaN results is only defined when
// a single payload is in flight.
var hwNaN = math.Float64frombits(0xFFF8000000000000)

// stepValues are the element classes the step tests draw rows from.
var stepValues = []struct {
	name string
	gen  func(rng *mathx.RNG) float64
}{
	{"random", func(rng *mathx.RNG) float64 { return rng.Float64() - 0.5 }},
	{"zero", func(rng *mathx.RNG) float64 { return math.Copysign(0, rng.Float64()-0.5) }},
	{"denormal", func(rng *mathx.RNG) float64 { return math.Float64frombits(rng.Uint64() >> 12) }},
	{"huge", func(rng *mathx.RNG) float64 { return (rng.Float64() - 0.5) * math.MaxFloat64 }},
	{"inf", func(rng *mathx.RNG) float64 { return math.Inf(rng.Intn(2)*2 - 1) }},
	{"nan", func(rng *mathx.RNG) float64 { return hwNaN }},
	{"mixed", func(rng *mathx.RNG) float64 {
		switch rng.Intn(8) {
		case 0:
			return hwNaN
		case 1:
			return math.Inf(rng.Intn(2)*2 - 1)
		case 2:
			return math.Copysign(0, rng.Float64()-0.5)
		case 3:
			return (rng.Float64() - 0.5) * math.MaxFloat64
		}
		return (rng.Float64() - 0.5) * 8
	}},
}

// runStep applies m.step to a one-row matrix holding row and returns
// the updated row; grad is updated in place.
func runStep(row, src, grad []float64, label, lr float64) []float64 {
	m := newMatrix(1, len(row))
	m.set(0, row)
	m.step(0, src, grad, label, lr)
	return m.rows()[0]
}

func sameBits(a, b []float64) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if math.Float64bits(a[i]) != math.Float64bits(b[i]) {
			return false
		}
	}
	return true
}

// forEachStepCase calls f with rows of every length 1…40 drawn from
// every pairing of element classes, for both labels.
func forEachStepCase(f func(name string, row, src, grad []float64, label, lr float64)) {
	rng := mathx.NewRNG(77)
	fill := func(n int, gen func(*mathx.RNG) float64) []float64 {
		out := make([]float64, n)
		for i := range out {
			out[i] = gen(rng)
		}
		return out
	}
	for dim := 1; dim <= 40; dim++ {
		for _, rc := range stepValues {
			for _, sc := range stepValues {
				for _, label := range []float64{0, 1} {
					name := fmt.Sprintf("dim=%d row=%s src=%s label=%v", dim, rc.name, sc.name, label)
					f(name, fill(dim, rc.gen), fill(dim, sc.gen), fill(dim, stepValues[0].gen), label, 0.025*rng.Float64())
				}
			}
		}
	}
}

// TestStepMatchesReference checks matrix.step against the sequence it
// replaced.
func TestStepMatchesReference(t *testing.T) {
	forEachStepCase(func(name string, row, src, grad []float64, label, lr float64) {
		wantRow := append([]float64(nil), row...)
		wantGrad := append([]float64(nil), grad...)
		referenceStep(wantRow, src, wantGrad, label, lr)
		gotRow := runStep(row, src, grad, label, lr)
		if !sameBits(gotRow, wantRow) || !sameBits(grad, wantGrad) {
			t.Fatalf("%s: step differs from reference\nrow  %v\nwant %v\ngrad %v\nwant %v", name, gotRow, wantRow, grad, wantGrad)
		}
	})
}

// sampleCase is one SGD sample on matrices small enough to write down:
// source vertex u of emb against rows of tgt (nil for first order, where
// the targets are rows of emb itself).
type sampleCase struct {
	emb, tgt [][]float64
	u        int32
	targets  []int32
	lr       float64
}

// sampleResult is everything a sample may write.
type sampleResult struct {
	emb, tgt  [][]float64
	src, grad []float64
}

func (r sampleResult) same(o sampleResult) bool {
	for i := range r.emb {
		if !sameBits(r.emb[i], o.emb[i]) {
			return false
		}
	}
	for i := range r.tgt {
		if !sameBits(r.tgt[i], o.tgt[i]) {
			return false
		}
	}
	return sameBits(r.src, o.src) && sameBits(r.grad, o.grad)
}

func cloneRows(rows [][]float64) [][]float64 {
	out := make([][]float64, len(rows))
	for i, row := range rows {
		out[i] = append([]float64(nil), row...)
	}
	return out
}

// reference is the sequence matrix.sample stands for, on plain slices
// and with the unfused referenceStep: copy the source row, zero the
// gradient, one step per target (the first the positive), add the
// gradient back.
func (c sampleCase) reference() sampleResult {
	r := sampleResult{emb: cloneRows(c.emb), tgt: cloneRows(c.tgt)}
	trows := r.tgt
	if c.tgt == nil {
		trows = r.emb
	}
	r.src = append([]float64(nil), r.emb[c.u]...)
	r.grad = make([]float64, len(r.src))
	label := 1.0
	for _, t := range c.targets {
		referenceStep(trows[t], r.src, r.grad, label, c.lr)
		label = 0
	}
	for i, g := range r.grad {
		r.emb[c.u][i] += g
	}
	return r
}

// run is the same through whichever matrix.sample this build and
// useAVX select. The scratch buffers start dirty: sample owns clearing
// them.
func (c sampleCase) run() sampleResult {
	fill := func(rows [][]float64) *matrix {
		m := newMatrix(len(rows), len(rows[0]))
		for v, row := range rows {
			m.set(int32(v), row)
		}
		return m
	}
	emb := fill(c.emb)
	tgt := emb
	if c.tgt != nil {
		tgt = fill(c.tgt)
	}
	r := sampleResult{src: make([]float64, emb.dim), grad: make([]float64, emb.dim)}
	for i := range r.src {
		r.src[i], r.grad[i] = 42, -42
	}
	emb.sample(tgt, c.u, c.targets, r.src, r.grad, c.lr)
	r.emb = emb.rows()
	if c.tgt != nil {
		r.tgt = tgt.rows()
	}
	return r
}

// sampleRows is how many rows a sampleCase matrix has: the source and
// up to six distinct targets.
const sampleRows = 7

// forEachSampleCase calls f with samples of every row length 1…40, rows
// drawn from every pairing of element classes (targets × source), 1…6
// targets that are distinct, name one row twice, or name one row every
// time, alternating first order (one matrix) and second (two).
func forEachSampleCase(f func(name string, c sampleCase)) {
	rng := mathx.NewRNG(78)
	fill := func(n, dim int, gen func(*mathx.RNG) float64) [][]float64 {
		rows := make([][]float64, n)
		for v := range rows {
			rows[v] = make([]float64, dim)
			for i := range rows[v] {
				rows[v][i] = gen(rng)
			}
		}
		return rows
	}
	patterns := []struct {
		name string
		row  func(k, n int) int32
	}{
		{"distinct", func(k, n int) int32 { return int32(1 + k) }},
		{"twice", func(k, n int) int32 { return int32(1 + k%max(n-1, 1)) }}, // the last repeats the first
		{"same", func(k, n int) int32 { return 3 }},
	}
	second := false
	for dim := 1; dim <= 40; dim++ {
		for _, tc := range stepValues {
			for _, sc := range stepValues {
				for n := 1; n <= sampleRows-1; n++ {
					for _, p := range patterns {
						c := sampleCase{emb: fill(sampleRows, dim, tc.gen), lr: 0.025 * rng.Float64()}
						c.emb[0] = fill(1, dim, sc.gen)[0]
						if second = !second; second {
							c.tgt = fill(sampleRows, dim, tc.gen)
						}
						for k := 0; k < n; k++ {
							c.targets = append(c.targets, p.row(k, n))
						}
						f(fmt.Sprintf("dim=%d targets=%s×%d(%s) src=%s second=%v", dim, tc.name, n, p.name, sc.name, second), c)
					}
				}
			}
		}
	}
}

// TestSampleMatchesReference checks whichever sample this build selects
// (the AVX kernel or the Go loop on amd64, the Go loop elsewhere)
// against the unfused sequence.
func TestSampleMatchesReference(t *testing.T) {
	forEachSampleCase(func(name string, c sampleCase) {
		if got, want := c.run(), c.reference(); !got.same(want) {
			t.Fatalf("%s: sample differs from reference\ngot  %+v\nwant %+v", name, got, want)
		}
	})
}
