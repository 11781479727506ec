package bipartite

import (
	"math"
	"sort"
	"testing"
	"testing/quick"
	"time"

	"repro/internal/dnssim"
	"repro/internal/mathx"
	"repro/internal/pipeline"
)

var t0 = time.Date(2018, 3, 1, 0, 0, 0, 0, time.UTC)

// statsFixture builds pipeline stats by hand: domain -> hosts/ips/minutes.
func statsFixture(spec map[string]struct {
	hosts   []string
	ips     []string
	minutes []int
}) map[string]*pipeline.DomainStats {
	out := make(map[string]*pipeline.DomainStats)
	for d, s := range spec {
		st := &pipeline.DomainStats{
			E2LD:    d,
			Hosts:   make(map[string]struct{}),
			IPs:     make(map[string]struct{}),
			Minutes: make(map[int]struct{}),
			FQDNs:   map[string]struct{}{"www." + d: {}},
		}
		st.QueryCount = len(s.hosts)
		for _, h := range s.hosts {
			st.Hosts[h] = struct{}{}
		}
		for _, ip := range s.ips {
			st.IPs[ip] = struct{}{}
		}
		for _, m := range s.minutes {
			st.Minutes[m] = struct{}{}
		}
		out[d] = st
	}
	return out
}

type domSpec = struct {
	hosts   []string
	ips     []string
	minutes []int
}

func TestBuildAndExactSimilarity(t *testing.T) {
	stats := statsFixture(map[string]domSpec{
		"a.com": {hosts: []string{"h1", "h2", "h3"}, ips: []string{"1.1.1.1", "1.1.1.2"}, minutes: []int{1, 2, 3}},
		"b.com": {hosts: []string{"h2", "h3", "h4"}, ips: []string{"1.1.1.2", "1.1.1.3"}, minutes: []int{3, 4}},
		"c.com": {hosts: []string{"h5", "h6"}, ips: []string{"9.9.9.9"}, minutes: []int{100}},
	})
	q, ip, tg := Build(stats, 10, DefaultPrune)
	if len(q.Domains) != 3 {
		t.Fatalf("retained %d domains, want 3", len(q.Domains))
	}
	idx := q.DomainIndex()
	// Query view: |{h2,h3}| / |{h1..h4}| = 2/4.
	if got := Similarity(q, idx["a.com"], idx["b.com"]); math.Abs(got-0.5) > 1e-12 {
		t.Errorf("query similarity a,b = %v, want 0.5", got)
	}
	// IP view: 1/3.
	if got := Similarity(ip, idx["a.com"], idx["b.com"]); math.Abs(got-1.0/3) > 1e-12 {
		t.Errorf("ip similarity a,b = %v, want 1/3", got)
	}
	// Time view: {3} / {1,2,3,4} = 1/4.
	if got := Similarity(tg, idx["a.com"], idx["b.com"]); math.Abs(got-0.25) > 1e-12 {
		t.Errorf("time similarity a,b = %v, want 0.25", got)
	}
	// Disjoint pair.
	if got := Similarity(q, idx["a.com"], idx["c.com"]); got != 0 {
		t.Errorf("query similarity a,c = %v, want 0", got)
	}
}

func TestPruningRules(t *testing.T) {
	hosts := make([]string, 20)
	for i := range hosts {
		hosts[i] = string(rune('A' + i))
	}
	stats := statsFixture(map[string]domSpec{
		"mega.com":   {hosts: hosts, ips: []string{"1.1.1.1"}, minutes: []int{1}},         // 20/20 hosts
		"single.com": {hosts: hosts[:1], ips: []string{"2.2.2.2"}, minutes: []int{2}},     // 1 host
		"normal.com": {hosts: hosts[:5], ips: []string{"3.3.3.3"}, minutes: []int{3, 4}},  // keep
		"edge.com":   {hosts: hosts[:10], ips: []string{"4.4.4.4"}, minutes: []int{5}},    // exactly 50%: keep
		"over.com":   {hosts: hosts[:11], ips: []string{"5.5.5.5"}, minutes: []int{6, 7}}, // >50%: prune
	})
	q, _, _ := Build(stats, 20, DefaultPrune)
	want := map[string]bool{"normal.com": true, "edge.com": true}
	if len(q.Domains) != len(want) {
		t.Fatalf("retained %v, want normal.com and edge.com", q.Domains)
	}
	for _, d := range q.Domains {
		if !want[d] {
			t.Errorf("unexpected retained domain %q", d)
		}
	}
}

func TestProjectMatchesExactSimilarity(t *testing.T) {
	// Random bipartite graph; verify Project against the pairwise
	// reference implementation.
	rng := mathx.NewRNG(99)
	spec := make(map[string]domSpec)
	for i := 0; i < 40; i++ {
		var hs []string
		n := 2 + rng.Intn(6)
		for j := 0; j < n; j++ {
			hs = append(hs, string(rune('a'+rng.Intn(20))))
		}
		spec[string(rune('A'+i%26))+string(rune('0'+i/26))+".com"] = domSpec{
			hosts: hs, ips: []string{"1.1.1.1"}, minutes: []int{1},
		}
	}
	stats := statsFixture(spec)
	q, _, _ := Build(stats, 1000, PruneConfig{MaxHostFrac: 1.0, MinHosts: 1})
	proj := Project(q, ProjectConfig{})

	got := make(map[[2]int32]float64)
	for _, e := range proj.Edges {
		if e.U >= e.V {
			t.Fatalf("edge not canonical: %+v", e)
		}
		got[[2]int32{e.U, e.V}] = e.W
	}
	n := len(q.Domains)
	for i := 0; i < n; i++ {
		for j := i + 1; j < n; j++ {
			want := Similarity(q, i, j)
			g := got[[2]int32{int32(i), int32(j)}]
			if math.Abs(g-want) > 1e-12 {
				t.Fatalf("edge (%d,%d): project=%v exact=%v", i, j, g, want)
			}
		}
	}
}

func TestProjectThreshold(t *testing.T) {
	stats := statsFixture(map[string]domSpec{
		"a.com": {hosts: []string{"h1", "h2"}, ips: []string{"1.1.1.1"}, minutes: []int{1}},
		"b.com": {hosts: []string{"h1", "h2"}, ips: []string{"1.1.1.1"}, minutes: []int{1}},
		"c.com": {hosts: []string{"h2", "h3", "h4", "h5"}, ips: []string{"1.1.1.1"}, minutes: []int{1}},
	})
	q, _, _ := Build(stats, 100, PruneConfig{MaxHostFrac: 1, MinHosts: 1})
	all := Project(q, ProjectConfig{})
	high := Project(q, ProjectConfig{MinSimilarity: 0.5})
	if len(all.Edges) != 3 {
		t.Fatalf("unthresholded edges = %d, want 3", len(all.Edges))
	}
	if len(high.Edges) != 1 {
		t.Fatalf("thresholded edges = %d, want 1 (only the identical pair)", len(high.Edges))
	}
	if high.Edges[0].W != 1.0 {
		t.Errorf("surviving edge weight %v, want 1.0", high.Edges[0].W)
	}
}

func TestProjectStopAttributeFilter(t *testing.T) {
	// One hot host shared by everyone, plus a discriminative host pair.
	spec := make(map[string]domSpec)
	for i := 0; i < 30; i++ {
		h := []string{"hot"}
		if i < 2 {
			h = append(h, "rare")
		}
		spec[string(rune('a'+i))+".com"] = domSpec{hosts: h, ips: []string{"1.1.1.1"}, minutes: []int{1}}
	}
	stats := statsFixture(spec)
	q, _, _ := Build(stats, 1000, PruneConfig{MaxHostFrac: 1, MinHosts: 1})
	filtered := Project(q, ProjectConfig{MaxAttrDegree: 10})
	// Only the pair sharing "rare" should produce an edge.
	if len(filtered.Edges) != 1 {
		t.Fatalf("filtered edges = %d, want 1", len(filtered.Edges))
	}
	// And the weight must still use the full union (2 sets of size 2
	// sharing 1 counted attr: 1/(2+2-1)).
	if want := 1.0 / 3; math.Abs(filtered.Edges[0].W-want) > 1e-12 {
		t.Errorf("filtered weight %v, want %v", filtered.Edges[0].W, want)
	}
}

func TestProjectDeterministicAcrossWorkerCounts(t *testing.T) {
	s := dnssim.NewScenario(dnssim.SmallScenario(21))
	p := pipeline.NewProcessor(pipeline.Config{Start: t0, Days: s.Config.Days, DHCP: s.DHCP()})
	s.Generate(func(ev dnssim.Event) { p.Consume(pipeline.Input(ev)) })
	q, _, _ := Build(p.Stats(), p.DeviceCount(), DefaultPrune)

	p1 := Project(q, ProjectConfig{MinSimilarity: 0.05, Workers: 1})
	p8 := Project(q, ProjectConfig{MinSimilarity: 0.05, Workers: 8})
	if len(p1.Edges) != len(p8.Edges) {
		t.Fatalf("edge counts differ: %d vs %d", len(p1.Edges), len(p8.Edges))
	}
	for i := range p1.Edges {
		if p1.Edges[i] != p8.Edges[i] {
			t.Fatalf("edge %d differs: %+v vs %+v", i, p1.Edges[i], p8.Edges[i])
		}
	}
}

// Regression: the parallel projection must produce byte-identical edge
// lists across repeated runs with Workers > 1 — not merely
// set-identical ones. The per-domain assembly makes the output
// independent of which worker claims which domain and of claim order;
// this guards the guarantee against scheduler-dependent merges,
// including under the stop-attribute filter, whose skipped postings
// also change per-domain cost estimates (and hence the claim order).
func TestProjectByteIdenticalAcrossRuns(t *testing.T) {
	s := dnssim.NewScenario(dnssim.SmallScenario(43))
	p := pipeline.NewProcessor(pipeline.Config{Start: s.Config.Start, Days: s.Config.Days, DHCP: s.DHCP()})
	s.Generate(func(ev dnssim.Event) { p.Consume(pipeline.Input(ev)) })
	q, _, timeg := Build(p.Stats(), p.DeviceCount(), DefaultPrune)

	cases := []struct {
		name string
		g    *Graph
		cfg  ProjectConfig
	}{
		{"query", q, ProjectConfig{MinSimilarity: 0.05, Workers: 4}},
		{"time/maxattrdegree", timeg, ProjectConfig{MinSimilarity: 0.015, MaxAttrDegree: 50, Workers: 4}},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			ref := Project(tc.g, tc.cfg)
			if len(ref.Edges) == 0 {
				t.Fatal("fixture produced no edges; test is vacuous")
			}
			for run := 0; run < 5; run++ {
				got := Project(tc.g, tc.cfg)
				if len(got.Edges) != len(ref.Edges) {
					t.Fatalf("run %d: %d edges, want %d", run, len(got.Edges), len(ref.Edges))
				}
				for i := range got.Edges {
					if got.Edges[i] != ref.Edges[i] {
						t.Fatalf("run %d edge %d: %+v != %+v", run, i, got.Edges[i], ref.Edges[i])
					}
				}
			}
			// And single-worker output matches the parallel output.
			seq := tc.cfg
			seq.Workers = 1
			one := Project(tc.g, seq)
			if len(one.Edges) != len(ref.Edges) {
				t.Fatalf("workers=1: %d edges, want %d", len(one.Edges), len(ref.Edges))
			}
			for i := range one.Edges {
				if one.Edges[i] != ref.Edges[i] {
					t.Fatalf("workers=1 edge %d: %+v != %+v", i, one.Edges[i], ref.Edges[i])
				}
			}
		})
	}
}

// Property: projection weights are in (0,1], symmetric by construction,
// and 1.0 exactly when the two attribute sets coincide.
func TestProjectionWeightProperties(t *testing.T) {
	f := func(seed uint64) bool {
		rng := mathx.NewRNG(seed)
		spec := make(map[string]domSpec)
		for i := 0; i < 15; i++ {
			n := 1 + rng.Intn(5)
			hs := make([]string, 0, n)
			for j := 0; j < n; j++ {
				hs = append(hs, string(rune('a'+rng.Intn(8))))
			}
			spec[string(rune('a'+i))+".org"] = domSpec{hosts: hs, ips: []string{"1.1.1.1"}, minutes: []int{1}}
		}
		q, _, _ := Build(statsFixture(spec), 1000, PruneConfig{MaxHostFrac: 1, MinHosts: 1})
		proj := Project(q, ProjectConfig{Workers: 2})
		for _, e := range proj.Edges {
			if e.W <= 0 || e.W > 1 {
				return false
			}
			same := len(q.Sets[e.U]) == len(q.Sets[e.V])
			if same {
				for k := range q.Sets[e.U] {
					if q.Sets[e.U][k] != q.Sets[e.V][k] {
						same = false
						break
					}
				}
			}
			if same != (e.W == 1.0) {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 30}); err != nil {
		t.Fatal(err)
	}
}

// Family domains must be far more similar to each other in the query view
// than random benign-benign pairs — the signal the whole paper rides on.
func TestFamilyCohesionInQueryView(t *testing.T) {
	s := dnssim.NewScenario(dnssim.SmallScenario(31))
	p := pipeline.NewProcessor(pipeline.Config{Start: s.Config.Start, Days: s.Config.Days, DHCP: s.DHCP()})
	s.Generate(func(ev dnssim.Event) { p.Consume(pipeline.Input(ev)) })
	q, _, _ := Build(p.Stats(), p.DeviceCount(), DefaultPrune)
	idx := q.DomainIndex()

	fams := s.Families()
	famSim, famPairs := 0.0, 0
	for _, domains := range fams {
		var present []int
		for _, d := range domains {
			if i, ok := idx[d]; ok {
				present = append(present, i)
			}
		}
		for i := 0; i < len(present) && i < 12; i++ {
			for j := i + 1; j < len(present) && j < 12; j++ {
				famSim += Similarity(q, present[i], present[j])
				famPairs++
			}
		}
	}
	if famPairs == 0 {
		t.Fatal("no family pairs present after pruning")
	}

	truth := s.TruthTable()
	rng := mathx.NewRNG(77)
	benSim, benPairs := 0.0, 0
	var benign []int
	for d, i := range idx {
		if l, ok := truth[d]; ok && !l.Malicious {
			benign = append(benign, i)
		}
	}
	sort.Ints(benign) // fixed order so the seeded pair sampling below is reproducible
	for k := 0; k < 2000 && len(benign) >= 2; k++ {
		i, j := rng.Intn(len(benign)), rng.Intn(len(benign))
		if i == j {
			continue
		}
		benSim += Similarity(q, benign[i], benign[j])
		benPairs++
	}
	famAvg := famSim / float64(famPairs)
	benAvg := benSim / float64(benPairs)
	if famAvg < 3*benAvg {
		t.Errorf("family cohesion too weak: family avg %.4f vs benign avg %.4f", famAvg, benAvg)
	}
}

func TestSimilarityMeasures(t *testing.T) {
	stats := statsFixture(map[string]domSpec{
		"a.com": {hosts: []string{"h1", "h2", "h3"}, ips: []string{"1.1.1.1"}, minutes: []int{1}},
		"b.com": {hosts: []string{"h2", "h3"}, ips: []string{"1.1.1.1"}, minutes: []int{1}},
	})
	q, _, _ := Build(stats, 100, PruneConfig{MaxHostFrac: 1, MinHosts: 1})

	cases := []struct {
		measure Measure
		want    float64
	}{
		{MeasureJaccard, 2.0 / 3},         // |∩|=2, |∪|=3
		{MeasureCosine, 2 / math.Sqrt(6)}, // 2/√(3·2)
		{MeasureOverlap, 1.0},             // 2/min(3,2)
	}
	for _, tc := range cases {
		proj := Project(q, ProjectConfig{Measure: tc.measure})
		if len(proj.Edges) != 1 {
			t.Fatalf("%v: %d edges", tc.measure, len(proj.Edges))
		}
		if math.Abs(proj.Edges[0].W-tc.want) > 1e-12 {
			t.Errorf("%v weight = %v, want %v", tc.measure, proj.Edges[0].W, tc.want)
		}
	}
}

func TestMeasureStrings(t *testing.T) {
	if MeasureJaccard.String() != "jaccard" || MeasureCosine.String() != "cosine" ||
		MeasureOverlap.String() != "overlap" {
		t.Error("measure names wrong")
	}
}

// Property: for any sets, overlap >= cosine >= jaccard.
func TestMeasureOrderingProperty(t *testing.T) {
	f := func(interRaw, aRaw, bRaw uint8) bool {
		lenA := int(aRaw%20) + 1
		lenB := int(bRaw%20) + 1
		maxInter := lenA
		if lenB < maxInter {
			maxInter = lenB
		}
		inter := float64(int(interRaw) % (maxInter + 1))
		j := MeasureJaccard.weight(inter, lenA, lenB)
		c := MeasureCosine.weight(inter, lenA, lenB)
		o := MeasureOverlap.weight(inter, lenA, lenB)
		return o >= c-1e-12 && c >= j-1e-12
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}
