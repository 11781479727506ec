package experiments

import (
	"fmt"
	"sort"

	"repro/internal/mathx"
	"repro/internal/tsne"
	"repro/internal/xmeans"
)

// ClusterReport describes one discovered domain cluster (§7.1).
type ClusterReport struct {
	ID int
	// Domains are the member e2LDs.
	Domains []string
	// MajorityFamily / MajorityStyle are the dominant threat-intel tags
	// among members with reports; empty for benign-dominated clusters.
	MajorityFamily string
	MajorityStyle  string
	// TaggedFrac is the fraction of members carrying the majority tag.
	TaggedFrac float64
}

// clusterModel caches the X-Means clustering of all retained domains,
// which several experiments share.
type clusterModel struct {
	res  *xmeans.Result
	kept []string
}

// clusterAll clusters every retained domain by combined embedding.
func (e *Env) clusterAll() (*clusterModel, error) {
	if e.clusters != nil {
		return e.clusters, nil
	}
	retained, err := e.Detector.Domains()
	if err != nil {
		return nil, err
	}
	kMax := min(max(len(retained)/40, 16), 160)
	res, kept, err := e.Detector.ClusterDomains(retained, xmeans.Config{
		KMin: 8, KMax: kMax, Seed: e.Opts.Seed ^ 0xc1573,
	})
	if err != nil {
		return nil, fmt.Errorf("clustering all retained domains: %w", err)
	}
	e.clusters = &clusterModel{res: res, kept: kept}
	return e.clusters, nil
}

// Clusters runs X-Means over all retained domains and annotates each
// cluster with its majority ThreatBook-style family report.
func (e *Env) Clusters() ([]ClusterReport, error) {
	cm, err := e.clusterAll()
	if err != nil {
		return nil, err
	}
	members := cm.res.Members()
	reports := make([]ClusterReport, 0, len(members))
	for c, idx := range members {
		r := ClusterReport{ID: c}
		famCount := map[string]int{}
		styleByFam := map[string]string{}
		for _, i := range idx {
			d := cm.kept[i]
			r.Domains = append(r.Domains, d)
			if fam, style, ok := e.TI.Family(d); ok {
				famCount[fam]++
				styleByFam[fam] = style
			}
		}
		sort.Strings(r.Domains)
		best, bestN := "", 0
		for fam, n := range famCount {
			if n > bestN || (n == bestN && fam < best) {
				best, bestN = fam, n
			}
		}
		if bestN*2 > len(idx) { // majority means > half the members
			r.MajorityFamily = best
			r.MajorityStyle = styleByFam[best]
			r.TaggedFrac = float64(bestN) / float64(len(idx))
		}
		reports = append(reports, r)
	}
	return reports, nil
}

// FindStyleCluster returns the largest cluster whose majority style
// matches, reproducing Table 1 (style "wordlist": spam .bid domains) and
// Table 2 (style "conficker": DGA .ws domains).
func FindStyleCluster(reports []ClusterReport, style string) (ClusterReport, bool) {
	var best ClusterReport
	for _, r := range reports {
		if r.MajorityStyle == style && len(r.Domains) > len(best.Domains) {
			best = r
		}
	}
	return best, best.Domains != nil
}

// SeedExpansionPoint is one point of Figure 4: starting from SeedSize
// known malicious domains, how many new domains the cluster expansion
// surfaces, split into VirusTotal-confirmed ("true") and unconfirmed
// ("suspicious").
type SeedExpansionPoint struct {
	SeedSize   int
	True       int
	Suspicious int
}

// Fig4 reproduces the seed-expansion experiment (§7.2.1): for each seed
// size, sample that many confirmed malicious domains, take every cluster
// containing at least one seed, and classify the clusters' non-seed
// members via the VirusTotal confirmation rule.
func (e *Env) Fig4(seedSizes []int) ([]SeedExpansionPoint, error) {
	cm, err := e.clusterAll()
	if err != nil {
		return nil, err
	}
	// Pool of confirmed malicious domains present in the clustering.
	clusterOf := make(map[string]int, len(cm.kept))
	for i, d := range cm.kept {
		clusterOf[d] = cm.res.Assign[i]
	}
	var pool []string
	for _, d := range cm.kept {
		if e.TI.Validate(d) {
			if l, ok := e.Scenario.Truth(d); ok && l.Malicious {
				pool = append(pool, d)
			}
		}
	}
	sort.Strings(pool)
	rng := mathx.NewRNG(e.Opts.Seed).SplitLabeled("fig4")
	rng.Shuffle(len(pool), func(i, j int) { pool[i], pool[j] = pool[j], pool[i] })

	members := cm.res.Members()
	out := make([]SeedExpansionPoint, 0, len(seedSizes))
	for _, size := range seedSizes {
		size = min(size, len(pool))
		seeds := make(map[string]bool, size)
		hit := make(map[int]bool)
		for _, d := range pool[:size] {
			seeds[d] = true
			hit[clusterOf[d]] = true
		}
		pt := SeedExpansionPoint{SeedSize: size}
		for c := range hit {
			for _, i := range members[c] {
				d := cm.kept[i]
				if seeds[d] {
					continue
				}
				if e.TI.Validate(d) {
					pt.True++
				} else if l, ok := e.Scenario.Truth(d); ok && l.Malicious {
					pt.Suspicious++
				}
			}
		}
		out = append(out, pt)
	}
	return out, nil
}

// Fig5Result is the t-SNE visualization of five random clusters (§7.3).
type Fig5Result struct {
	// Layout is the 2-D position of each selected domain.
	Layout [][2]float64
	// Domains and ClusterIDs are index-aligned with Layout; ClusterIDs
	// are renumbered 0..4.
	Domains    []string
	ClusterIDs []int
}

// Fig5 selects five random clusters of reasonable size and projects
// their members' combined embeddings to 2-D with t-SNE.
func (e *Env) Fig5() (*Fig5Result, error) {
	cm, err := e.clusterAll()
	if err != nil {
		return nil, err
	}
	members := cm.res.Members()
	var candidates []int
	for c, idx := range members {
		if len(idx) >= 8 && len(idx) <= 200 {
			candidates = append(candidates, c)
		}
	}
	if len(candidates) < 2 {
		return nil, fmt.Errorf("experiments: only %d clusters of visualizable size", len(candidates))
	}
	rng := mathx.NewRNG(e.Opts.Seed).SplitLabeled("fig5")
	rng.Shuffle(len(candidates), func(i, j int) {
		candidates[i], candidates[j] = candidates[j], candidates[i]
	})
	candidates = candidates[:min(len(candidates), 5)]

	res := &Fig5Result{}
	var points [][]float64
	for newID, c := range candidates {
		for _, i := range members[c] {
			d := cm.kept[i]
			v, ok := e.Detector.FeatureVector(d)
			if !ok {
				continue
			}
			points = append(points, v)
			res.Domains = append(res.Domains, d)
			res.ClusterIDs = append(res.ClusterIDs, newID)
		}
	}
	layout, err := tsne.Embed(points, tsne.Config{
		Perplexity: 30,
		Iterations: 400,
		Seed:       e.Opts.Seed ^ 0x75e3,
	})
	if err != nil {
		return nil, fmt.Errorf("experiments: t-SNE: %w", err)
	}
	res.Layout = layout
	return res, nil
}

// ASCII renders the Figure 5 layout as a terminal scatter plot.
func (r *Fig5Result) ASCII(rows, cols int) string {
	return tsne.ASCIIScatter(r.Layout, r.ClusterIDs, rows, cols)
}

// SVG renders the Figure 5 layout as a standalone SVG document.
func (r *Fig5Result) SVG(width, height int) string {
	return tsne.SVGScatter(r.Layout, r.ClusterIDs, width, height)
}
