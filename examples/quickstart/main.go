// Quickstart: the smallest complete use of the maldomain public API.
//
// It hand-crafts a toy DNS trace in which three hosts are infected by
// the same malware and repeatedly query a trio of C&C domains that share
// fast-flux addresses, while the rest of the hosts browse ordinary
// sites. The detector builds the bipartite graphs of the paper's §4
// (the structure sketched in Figure 3), learns embeddings, trains the
// SVM on a few labeled examples, and scores the remaining domains.
//
// Run with: go run ./examples/quickstart
package main

import (
	"fmt"
	"log"
	"time"

	maldomain "repro"
	"repro/internal/dnswire"
	"repro/internal/mathx"
	"repro/internal/svm"
)

func main() {
	start := time.Date(2018, 3, 1, 0, 0, 0, 0, time.UTC)
	det := maldomain.NewDetector(maldomain.Config{
		Start: start,
		Days:  2,
		Seed:  7,
		// The paper's C=0.09 is tuned for its >10,000-domain labeled set;
		// a six-example toy training set needs a less regularized margin.
		SVM: svm.Config{C: 2, Kernel: svm.RBF{Gamma: 0.3}},
	})

	rng := mathx.NewRNG(7)
	emit := func(t time.Time, host, qname string, ips ...string) {
		det.Consume(maldomain.Observation{
			Time:     t,
			TxnID:    uint16(rng.Intn(1 << 16)),
			ClientIP: host,
			QName:    qname,
			QType:    dnswire.TypeA,
			RCode:    dnswire.RCodeNoError,
			Answers:  ips,
			TTL:      300,
		})
	}

	// A benign catalog of 20 sites; each host browses its own subset so
	// no benign domain exceeds the >50%-of-hosts pruning threshold.
	benign := make(map[string][]string, 20)
	var benignNames []string
	for i := 0; i < 20; i++ {
		name := fmt.Sprintf("site-%c.com", 'a'+i)
		benign[name] = []string{fmt.Sprintf("93.10.0.%d", i+1)}
		benignNames = append(benignNames, name)
	}
	cnc := map[string][]string{
		"qlkjxzv.ws":  {"203.0.113.7", "203.0.113.8"},
		"rmwpqard.ws": {"203.0.113.8", "203.0.113.9"},
		"zznhkpo.ws":  {"203.0.113.7", "203.0.113.9"},
	}
	cncNames := []string{"qlkjxzv.ws", "rmwpqard.ws", "zznhkpo.ws"}

	// 12 ordinary hosts each browse 6 of the 20 benign sites; hosts 0-2
	// are also infected and beacon to the C&C trio.
	for h := 0; h < 12; h++ {
		host := fmt.Sprintf("10.0.0.%d", h+1)
		mySites := append([]string(nil), benignNames...)
		rng.Shuffle(len(mySites), func(i, j int) { mySites[i], mySites[j] = mySites[j], mySites[i] })
		mySites = mySites[:6]
		for q := 0; q < 40; q++ {
			t := start.Add(time.Duration(rng.Intn(2*24*60)) * time.Minute)
			name := mySites[rng.Intn(len(mySites))]
			emit(t, host, "www."+name, benign[name]...)
		}
		if h < 3 {
			for q := 0; q < 30; q++ {
				t := start.Add(time.Duration(rng.Intn(2*24*60)) * time.Minute)
				name := cncNames[rng.Intn(len(cncNames))]
				emit(t, host, name, cnc[name]...)
			}
		}
	}

	if err := det.BuildModel(); err != nil {
		log.Fatal(err)
	}
	stats, err := det.Stats()
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("model: %d devices, %d retained domains, %d/%d/%d projection edges\n",
		stats.Devices, stats.RetainedE2LDs,
		stats.ProjectionEdges[maldomain.ViewQuery],
		stats.ProjectionEdges[maldomain.ViewIP],
		stats.ProjectionEdges[maldomain.ViewTime])

	// Train on a partial labeling: two malicious seeds, three benign.
	clf, err := det.TrainClassifier(
		[]string{"qlkjxzv.ws", "rmwpqard.ws", "site-a.com", "site-b.com", "site-c.com", "site-d.com"},
		[]int{1, 1, 0, 0, 0, 0},
	)
	if err != nil {
		log.Fatal(err)
	}

	// Score everything else; the held-out C&C domain should surface at
	// the top of the suspicion ranking. (Operating points live on the
	// ROC curve — §6.2 — so rank, not the raw sign, is the verdict.)
	domains, err := det.Domains()
	if err != nil {
		log.Fatal(err)
	}
	held, ok := clf.Score("zznhkpo.ws")
	if !ok {
		log.Fatal("held-out C&C domain zznhkpo.ws was pruned")
	}
	rank, scored := 1, 0
	fmt.Println("\nscores (higher = more suspicious):")
	for _, d := range domains {
		if s, ok := clf.Score(d); ok {
			fmt.Printf("  %-16s %+.3f\n", d, s)
			scored++
			if s > held {
				rank++
			}
		}
	}
	fmt.Printf("\nheld-out C&C domain zznhkpo.ws ranks #%d of %d by suspicion\n", rank, scored)
	if rank <= 3 {
		fmt.Println("correctly surfaced at the top of the ranking")
	}
}
