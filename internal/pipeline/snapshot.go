package pipeline

// Processor snapshot/restore: the crash-safe streaming mode
// (internal/stream) checkpoints its per-day processors at every day
// boundary. A Snapshot is a plain exported value — gob-friendly, no
// maps of empty structs, sets flattened to sorted slices — that
// captures every aggregate a Processor holds. FromSnapshot rebuilds an
// equivalent Processor; the non-serializable configuration (the DHCP
// resolver and the public-suffix table, both consulted only at Consume
// time) is re-supplied by the caller.

import (
	"errors"
	"fmt"
	"sort"
	"time"

	"repro/internal/dhcp"
	"repro/internal/etld"
)

// Snapshot is the serializable state of a Processor. All set-valued
// aggregates are flattened to sorted slices, so encoding a snapshot is
// deterministic given the same aggregates.
type Snapshot struct {
	Start        time.Time
	Days         int
	Bucket       time.Duration
	TotalQueries int
	Skipped      int
	Devices      []string
	Domains      []DomainSnapshot
	Buckets      []BucketSnapshot
}

// DomainSnapshot is one domain's DomainStats with its sets flattened.
type DomainSnapshot struct {
	E2LD           string
	FirstSeen      time.Time
	LastSeen       time.Time
	QueryCount     int
	NXCount        int
	AnswerCountSum int
	Hosts          []string
	IPs            []string
	FQDNs          []string
	Minutes        []int
	TTLSum         float64
	TTLMin         uint32
	TTLMax         uint32
	TTLVals        []uint32
	PerDay         []int
	Hours          [24]int
}

// BucketSnapshot is one traffic-series bucket.
type BucketSnapshot struct {
	Index   int
	Queries int
	FQDNs   []string
	E2LDs   []string
}

// Snapshot captures the processor's full aggregate state.
func (p *Processor) Snapshot() *Snapshot {
	s := &Snapshot{
		Start:        p.cfg.Start,
		Days:         p.cfg.Days,
		Bucket:       p.cfg.Bucket,
		TotalQueries: p.totalQueries,
		Skipped:      p.skipped,
		Devices:      sortedKeys(p.devices),
	}
	s.Domains = make([]DomainSnapshot, 0, len(p.stats))
	for _, st := range p.stats {
		s.Domains = append(s.Domains, DomainSnapshot{
			E2LD:           st.E2LD,
			FirstSeen:      st.FirstSeen,
			LastSeen:       st.LastSeen,
			QueryCount:     st.QueryCount,
			NXCount:        st.NXCount,
			AnswerCountSum: st.AnswerCountSum,
			Hosts:          sortedKeys(st.Hosts),
			IPs:            sortedKeys(st.IPs),
			FQDNs:          sortedKeys(st.FQDNs),
			Minutes:        sortedInts(st.Minutes),
			TTLSum:         st.TTLSum,
			TTLMin:         st.TTLMin,
			TTLMax:         st.TTLMax,
			TTLVals:        sortedTTLs(st.TTLVals),
			PerDay:         append([]int(nil), st.PerDay...),
			Hours:          st.Hours,
		})
	}
	sort.Slice(s.Domains, func(i, j int) bool { return s.Domains[i].E2LD < s.Domains[j].E2LD })
	s.Buckets = make([]BucketSnapshot, 0, len(p.buckets))
	for i, b := range p.buckets {
		s.Buckets = append(s.Buckets, BucketSnapshot{
			Index:   i,
			Queries: b.queries,
			FQDNs:   sortedKeys(b.fqdns),
			E2LDs:   sortedKeys(b.e2lds),
		})
	}
	sort.Slice(s.Buckets, func(i, j int) bool { return s.Buckets[i].Index < s.Buckets[j].Index })
	return s
}

// RestoreConfig carries the non-serializable pieces of a Processor's
// configuration that a restored processor needs to keep consuming:
// device pinning and e2LD extraction.
type RestoreConfig struct {
	// DHCP, when non-nil, pins client IPs to device MACs for
	// observations consumed after the restore.
	DHCP *dhcp.Resolver
	// Suffixes is the public-suffix table (default etld.Default). It
	// must be the same table the snapshotted processor used, or merged
	// windows will mix incompatible e2LD groupings.
	Suffixes *etld.Table
}

// FromSnapshot rebuilds a Processor from a snapshot. The snapshot is
// validated — a corrupt or internally inconsistent snapshot, including
// one that breaks the two set invariants Consume's skipped inserts rely
// on, returns an error, never a panic — and its state is deep-copied,
// so mutating the snapshot afterwards does not alias the processor.
func FromSnapshot(s *Snapshot, rc RestoreConfig) (*Processor, error) {
	if s == nil {
		return nil, errors.New("pipeline: nil snapshot")
	}
	if s.Days <= 0 || s.Bucket <= 0 {
		return nil, fmt.Errorf("pipeline: corrupt snapshot: days=%d bucket=%v", s.Days, s.Bucket)
	}
	if s.TotalQueries < 0 || s.Skipped < 0 {
		return nil, fmt.Errorf("pipeline: corrupt snapshot: negative counters")
	}
	p := NewProcessor(Config{
		Start:    s.Start,
		Days:     s.Days,
		Bucket:   s.Bucket,
		DHCP:     rc.DHCP,
		Suffixes: rc.Suffixes,
	})
	p.totalQueries = s.TotalQueries
	p.skipped = s.Skipped
	for _, d := range s.Devices {
		p.devices[d] = struct{}{}
	}
	for i := range s.Domains {
		ds := &s.Domains[i]
		if ds.E2LD == "" {
			return nil, fmt.Errorf("pipeline: corrupt snapshot: domain %d has empty e2LD", i)
		}
		if _, dup := p.stats[ds.E2LD]; dup {
			return nil, fmt.Errorf("pipeline: corrupt snapshot: duplicate domain %q", ds.E2LD)
		}
		if ds.QueryCount <= 0 || ds.NXCount < 0 || ds.NXCount > ds.QueryCount {
			return nil, fmt.Errorf("pipeline: corrupt snapshot: %q has %d queries, %d NX",
				ds.E2LD, ds.QueryCount, ds.NXCount)
		}
		if len(ds.PerDay) != s.Days {
			return nil, fmt.Errorf("pipeline: corrupt snapshot: %q PerDay length %d, want %d",
				ds.E2LD, len(ds.PerDay), s.Days)
		}
		for _, h := range ds.Hosts {
			if _, ok := p.devices[h]; !ok {
				return nil, fmt.Errorf("pipeline: corrupt snapshot: %q host %q is not a device", ds.E2LD, h)
			}
		}
		st := &DomainStats{
			E2LD:           ds.E2LD,
			FirstSeen:      ds.FirstSeen,
			LastSeen:       ds.LastSeen,
			QueryCount:     ds.QueryCount,
			NXCount:        ds.NXCount,
			AnswerCountSum: ds.AnswerCountSum,
			Hosts:          toSet(ds.Hosts),
			IPs:            toSet(ds.IPs),
			FQDNs:          toSet(ds.FQDNs),
			Minutes:        toIntSet(ds.Minutes),
			TTLSum:         ds.TTLSum,
			TTLMin:         ds.TTLMin,
			TTLMax:         ds.TTLMax,
			TTLVals:        toTTLSet(ds.TTLVals),
			PerDay:         append([]int(nil), ds.PerDay...),
			Hours:          ds.Hours,
		}
		p.stats[ds.E2LD] = st
	}
	for i := range s.Buckets {
		bs := &s.Buckets[i]
		if bs.Index < 0 || bs.Queries < 0 {
			return nil, fmt.Errorf("pipeline: corrupt snapshot: bucket %d index=%d queries=%d",
				i, bs.Index, bs.Queries)
		}
		if _, dup := p.buckets[bs.Index]; dup {
			return nil, fmt.Errorf("pipeline: corrupt snapshot: duplicate bucket %d", bs.Index)
		}
		p.buckets[bs.Index] = &bucketAccum{
			queries: bs.Queries,
			fqdns:   toSet(bs.FQDNs),
			e2lds:   toSet(bs.E2LDs),
		}
	}
	for i := range s.Domains {
		ds := &s.Domains[i]
		bi := p.bucketIndex(ds.FirstSeen)
		if bi != p.bucketIndex(ds.LastSeen) {
			continue
		}
		b, ok := p.buckets[bi]
		if ok {
			_, ok = b.e2lds[ds.E2LD]
		}
		if !ok {
			return nil, fmt.Errorf("pipeline: corrupt snapshot: %q missing from its only bucket %d", ds.E2LD, bi)
		}
		for _, q := range ds.FQDNs {
			if _, ok := b.fqdns[q]; !ok {
				return nil, fmt.Errorf("pipeline: corrupt snapshot: %q FQDN %q missing from its only bucket %d", ds.E2LD, q, bi)
			}
		}
	}
	return p, nil
}

func sortedKeys(m map[string]struct{}) []string {
	out := make([]string, 0, len(m))
	for k := range m {
		out = append(out, k)
	}
	sort.Strings(out)
	return out
}

func sortedInts(m map[int]struct{}) []int {
	out := make([]int, 0, len(m))
	for k := range m {
		out = append(out, k)
	}
	sort.Ints(out)
	return out
}

func sortedTTLs(m map[uint32]struct{}) []uint32 {
	out := make([]uint32, 0, len(m))
	for k := range m {
		out = append(out, k)
	}
	sort.Slice(out, func(i, j int) bool { return out[i] < out[j] })
	return out
}

func toSet(ss []string) map[string]struct{} {
	m := make(map[string]struct{}, len(ss))
	for _, s := range ss {
		m[s] = struct{}{}
	}
	return m
}

func toIntSet(ss []int) map[int]struct{} {
	m := make(map[int]struct{}, len(ss))
	for _, s := range ss {
		m[s] = struct{}{}
	}
	return m
}

func toTTLSet(ss []uint32) map[uint32]struct{} {
	m := make(map[uint32]struct{}, len(ss))
	for _, s := range ss {
		m[s] = struct{}{}
	}
	return m
}
