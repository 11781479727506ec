package experiments

import (
	"fmt"
	"sort"

	"repro/internal/eval"
	"repro/internal/mathx"
)

// SelfTrainingRound records one iteration of the §7.2.1 application:
// "the discovery of malicious or benign domain clusters can reciprocally
// improve malicious domain detection ... by acquiring additional labeled
// domains for model training."
type SelfTrainingRound struct {
	Round int
	// TrainMalicious / TrainBenign are the training-set class sizes at
	// the start of the round.
	TrainMalicious int
	TrainBenign    int
	// Added is how many newly confirmed malicious domains the round
	// contributed.
	Added int
	// HeldOutAUC is the AUC on the fixed held-out evaluation set after
	// training on the round's labels.
	HeldOutAUC float64
}

// SelfTraining runs the label-acquisition loop: starting from a small
// seed of the labeled set, each round trains the SVM, ranks the still
// unlabeled domains, asks the simulated VirusTotal to confirm the top
// candidates, adds the confirmed ones as new malicious training labels,
// and re-evaluates on a fixed held-out split. candidatesPerRound bounds
// how many top-ranked domains are submitted for confirmation each round.
func (e *Env) SelfTraining(rounds, candidatesPerRound int) ([]SelfTrainingRound, error) {
	// Fixed held-out split (30%), stratified.
	rng := mathx.NewRNG(e.Opts.Seed).SplitLabeled("selftrain")
	perm := rng.Perm(len(e.Domains))
	holdCut := len(e.Domains) * 3 / 10
	holdIdx := perm[:holdCut]
	poolIdx := perm[holdCut:]

	// Seed training: 25% of the pool's malicious labels plus all benign
	// labels (the paper's whitelist is available from day one; malicious
	// intel accumulates).
	training := make(map[int]bool)
	var malPool []int
	for _, i := range poolIdx {
		if e.Labels[i] == 0 {
			training[i] = true
		} else {
			malPool = append(malPool, i)
		}
	}
	rng.Shuffle(len(malPool), func(a, b int) { malPool[a], malPool[b] = malPool[b], malPool[a] })
	seedMal := len(malPool) / 4
	if seedMal < 5 && len(malPool) >= 5 {
		seedMal = 5
	}
	for _, i := range malPool[:seedMal] {
		training[i] = true
	}

	var out []SelfTrainingRound
	for round := 0; round < rounds; round++ {
		trIdx := make([]int, 0, len(training))
		for i := range training {
			trIdx = append(trIdx, i)
		}
		// Deterministic training order: by domain.
		sort.Slice(trIdx, func(a, b int) bool { return e.Domains[trIdx[a]] < e.Domains[trIdx[b]] })
		trD, trY, nm := make([]string, len(trIdx)), make([]int, len(trIdx)), 0
		for k, i := range trIdx {
			trD[k], trY[k] = e.Domains[i], e.Labels[i]
			nm += trY[k]
		}

		clf, err := e.Detector.TrainClassifier(trD, trY)
		if err != nil {
			return nil, fmt.Errorf("self-training round %d: %w", round, err)
		}

		// Held-out evaluation.
		var scores []float64
		var ys []int
		for _, i := range holdIdx {
			if s, ok := clf.Score(e.Domains[i]); ok {
				scores = append(scores, s)
				ys = append(ys, e.Labels[i])
			}
		}
		auc, err := eval.AUC(scores, ys)
		if err != nil {
			return nil, fmt.Errorf("self-training round %d: %w", round, err)
		}
		rec := SelfTrainingRound{
			Round:          round,
			TrainMalicious: nm,
			TrainBenign:    len(trD) - nm,
			HeldOutAUC:     auc,
		}

		// Rank unlabeled pool domains and submit the top candidates for
		// threat-intel confirmation.
		type cand struct {
			idx   int
			score float64
		}
		var cands []cand
		for _, i := range poolIdx {
			if training[i] {
				continue
			}
			if s, ok := clf.Score(e.Domains[i]); ok {
				cands = append(cands, cand{i, s})
			}
		}
		sort.Slice(cands, func(a, b int) bool { return cands[a].score > cands[b].score })
		if len(cands) > candidatesPerRound {
			cands = cands[:candidatesPerRound]
		}
		for _, c := range cands {
			if e.TI.Validate(e.Domains[c.idx]) {
				training[c.idx] = true
				rec.Added++
			}
		}
		out = append(out, rec)
	}
	return out, nil
}
