package main

import (
	"bufio"
	"cmp"
	"fmt"
	"hash/fnv"
	"os"
	"path/filepath"
	"slices"
	"sort"
	"time"

	"repro/internal/core"
	"repro/internal/dhcp"
	"repro/internal/dnssim"
	"repro/internal/pipeline"
	"repro/internal/threatintel"
)

// scale fixes how much work the inputs carry. The full scale is the one
// BENCHMARK.json measures; quick exists for the smoke test only.
type scale struct {
	hosts, benign int // 0 keeps SmallScenario's
	bulkFactor    int
	// embedSamples caps LINE's SGD budget per objective and view. The
	// automatic budget (200 x edges, 20.5 M on the small trace's query
	// view) makes one build take ~20 s on this host; the contract's time
	// cap leaves ~30 s for a whole run, so the budget is cut and the
	// trace scale kept. LINE's per-sample cost is unchanged by the cut.
	embedSamples  int
	streamSamples int // the same cap for the stream path's remodels
	batchDomains  int // domains per /v1/score/batch request
	openLoopRate  float64
	joinPairs     int
	// slice is how long one unit of the serve path drives each load phase.
	slice time.Duration
}

var (
	fullScale  = scale{bulkFactor: 10, embedSamples: 500_000, streamSamples: 250_000, batchDomains: 500, openLoopRate: 5000, joinPairs: 100_000, slice: 500 * time.Millisecond}
	quickScale = scale{hosts: 40, benign: 100, bulkFactor: 2, embedSamples: 20_000, streamSamples: 20_000, batchDomains: 50, openLoopRate: 1000, joinPairs: 2000, slice: 60 * time.Millisecond}
)

// traceFile is one generated trace on disk plus what the system needs to
// read it: the window anchor and the DHCP lease table.
type traceFile struct {
	path   string
	bytes  int64
	events int
	start  time.Time
	days   int
	dhcp   *dhcp.Resolver
}

// fixture is everything set-up produces. The system under test sees the
// trace files, the lease tables and the intel labels; truth stays with
// the benchmark for checking alerts.
type fixture struct {
	sc    scale
	seed  uint64
	dir   string
	small traceFile
	bulk  traceFile

	truth map[string]dnssim.Label
	// intel is the label file the system trains from: the domains the
	// simulated feeds confirm, 1 = malicious.
	intel map[string]int

	// The reference model: built once at Workers=1 so it is a pure
	// function of the seed.
	refRetained []string
	modelPath   string
	refStats    map[string]*pipeline.DomainStats
}

// detectorConfig is the batch build's configuration: the defaults plus
// the sample cap.
func (fx *fixture) detectorConfig(workers int) core.Config {
	return core.Config{
		Start: fx.small.start, Days: fx.small.days, DHCP: fx.small.dhcp,
		Seed: fx.seed, Workers: workers, EmbedSamples: fx.sc.embedSamples,
	}
}

// writeTrace generates cfg's traffic, sorts it by time (the shard pool
// closes days in order) and writes it in the text log format.
func writeTrace(cfg dnssim.Config, path string) (traceFile, *dnssim.Scenario, error) {
	s := dnssim.NewScenario(cfg)
	events := s.Collect()
	// Sorting (time, generation index) keys is stable and several times
	// faster than stably sorting the events themselves.
	type key struct {
		at int64
		i  int32
	}
	order := make([]key, len(events))
	for i, ev := range events {
		order[i] = key{ev.Time.UnixNano(), int32(i)}
	}
	slices.SortFunc(order, func(a, b key) int {
		if c := cmp.Compare(a.at, b.at); c != 0 {
			return c
		}
		return cmp.Compare(a.i, b.i)
	})
	f, err := os.Create(path)
	if err != nil {
		return traceFile{}, nil, err
	}
	w := bufio.NewWriterSize(f, 1<<20)
	for _, k := range order {
		if err := pipeline.WriteLogLine(w, pipeline.Input(events[k.i])); err != nil {
			_ = f.Close() // the write error is the one worth reporting
			return traceFile{}, nil, err
		}
	}
	if err := w.Flush(); err != nil {
		_ = f.Close() // the flush error is the one worth reporting
		return traceFile{}, nil, err
	}
	if err := f.Close(); err != nil {
		return traceFile{}, nil, err
	}
	info, err := os.Stat(path)
	if err != nil {
		return traceFile{}, nil, err
	}
	return traceFile{path: path, bytes: info.Size(), events: len(events),
		start: cfg.Start, days: cfg.Days, dhcp: s.DHCP()}, s, nil
}

// readTrace pushes a trace file through pipeline.ReadLog into sink.
func readTrace(tf traceFile, sink func(pipeline.Input)) error {
	f, err := os.Open(tf.path)
	if err != nil {
		return err
	}
	defer f.Close()
	return pipeline.ReadLog(bufio.NewReaderSize(f, 1<<20), sink)
}

// setUp generates every input from the seed and builds the reference
// model. It is what setup_s times.
func setUp(dir string, seed uint64, sc scale) (*fixture, error) {
	fx := &fixture{sc: sc, seed: seed, dir: dir}

	cfg := dnssim.SmallScenario(seed)
	if sc.hosts > 0 {
		cfg.Hosts, cfg.BenignDomains = sc.hosts, sc.benign
	}
	small, scen, err := writeTrace(cfg, filepath.Join(dir, "small.tsv"))
	if err != nil {
		return nil, fmt.Errorf("writing small trace: %w", err)
	}
	fx.small = small
	fx.truth = scen.TruthTable()

	bulkCfg := cfg
	bulkCfg.Hosts *= sc.bulkFactor
	bulkCfg.BenignDomains *= sc.bulkFactor
	if fx.bulk, _, err = writeTrace(bulkCfg, filepath.Join(dir, "bulk.tsv")); err != nil {
		return nil, fmt.Errorf("writing bulk trace: %w", err)
	}

	planted := make([]string, 0, len(fx.truth))
	for d := range fx.truth {
		planted = append(planted, d)
	}
	sort.Strings(planted)
	ti := threatintel.NewService(fx.truth, threatintel.Config{Seed: seed})
	domains, labels := ti.LabeledSet(planted)
	fx.intel = make(map[string]int, len(domains))
	for i, d := range domains {
		fx.intel[d] = labels[i]
	}

	det := core.NewDetector(fx.detectorConfig(1))
	if err := readTrace(fx.small, det.Consume); err != nil {
		return nil, err
	}
	if err := det.BuildModel(); err != nil {
		return nil, fmt.Errorf("reference build: %w", err)
	}
	if fx.refRetained, err = det.Domains(); err != nil {
		return nil, err
	}
	fx.refStats = det.Processor().Stats()
	ld, ll := fx.labelled(fx.refRetained)
	clf, err := det.TrainClassifier(ld, ll)
	if err != nil {
		return nil, fmt.Errorf("reference classifier: %w", err)
	}
	fx.modelPath = filepath.Join(dir, "model.bin")
	if err := saveModel(det, clf, fx.modelPath); err != nil {
		return nil, err
	}
	return fx, nil
}

// labelled intersects candidates with the intel labels, in candidate
// order.
func (fx *fixture) labelled(candidates []string) ([]string, []int) {
	var domains []string
	var labels []int
	for _, d := range candidates {
		if l, ok := fx.intel[d]; ok {
			domains = append(domains, d)
			labels = append(labels, l)
		}
	}
	return domains, labels
}

func saveModel(det *core.Detector, clf *core.Classifier, path string) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	w := bufio.NewWriterSize(f, 1<<20)
	if err := det.SaveModel(w, clf); err != nil {
		_ = f.Close() // the save error is the one worth reporting
		return err
	}
	if err := w.Flush(); err != nil {
		_ = f.Close() // the flush error is the one worth reporting
		return err
	}
	return f.Close()
}

// inTrainSplit is the hold-out rule of the auc metric: a labelled domain
// trains when its FNV-1a hash mod 10 is below 7.
func inTrainSplit(domain string) bool {
	h := fnv.New32a()
	_, _ = h.Write([]byte(domain)) // hash.Hash.Write never fails
	return h.Sum32()%10 < 7
}
