// Package pipeline implements the data collection and pre-processing
// component of the paper's architecture (Figure 2, first stage): joining
// DNS query and response packets, pinning dynamic client addresses to
// physical devices via DHCP logs, aggregating hostnames to effective
// second-level domains, and accumulating the per-domain observations that
// the behavioral-modeling and baseline stages consume.
//
//maldlint:deterministic
package pipeline

import (
	"errors"
	"fmt"
	"strings"
	"time"

	"repro/internal/dhcp"
	"repro/internal/dnswire"
	"repro/internal/etld"
)

// Input is one joined DNS observation: a query and its response. It
// mirrors the record schema the paper's collector extracts (§2).
//
// An Input from ReadLog or ParseLogLine is a view of the text it was
// parsed from: its strings are substrings of that text and share its
// memory, so keeping one of them keeps all of it (see ReadLog for how
// much that is). Processor.Consume keeps none.
type Input struct {
	Time     time.Time
	TxnID    uint16
	ClientIP string
	QName    string
	QType    dnswire.Type
	RCode    dnswire.RCode
	Answers  []string
	TTL      uint32
}

// DomainStats accumulates every per-e2LD observation downstream stages
// need: the host, IP, and minute sets that define the three bipartite
// graphs (§4.1), plus the volume/TTL/timing aggregates the Exposure
// baseline's feature extractor uses (§8.2).
type DomainStats struct {
	E2LD       string
	FirstSeen  time.Time
	LastSeen   time.Time
	QueryCount int
	NXCount    int

	// Hosts is the set of device identities (MACs, or raw client IPs
	// when no DHCP lease covers the query) that queried the domain.
	Hosts map[string]struct{}
	// IPs is the set of resolved addresses.
	IPs map[string]struct{}
	// Minutes is the set of minute indices (since the processor start)
	// in which the domain was queried.
	Minutes map[int]struct{}
	// FQDNs is the set of distinct queried hostnames under the e2LD.
	FQDNs map[string]struct{}

	// TTL aggregates over NOERROR responses.
	TTLSum  float64
	TTLMin  uint32
	TTLMax  uint32
	TTLVals map[uint32]struct{}
	// PerDay holds query counts per day index.
	PerDay []int
	// Hours histograms queries by hour of day.
	Hours [24]int
	// AnswerCountSum accumulates answers-per-response for the mean.
	AnswerCountSum int
}

// BucketStat is one point of the Figure 1 traffic series.
type BucketStat struct {
	Start      time.Time
	Queries    int
	UniqueFQDN int
	UniqueE2LD int
}

// Config parameterizes a Processor.
type Config struct {
	// Start anchors minute and day indices; observations before Start are
	// clamped to index 0.
	Start time.Time
	// Days bounds the PerDay histograms.
	Days int
	// Bucket is the Figure 1 series resolution (default 24h).
	Bucket time.Duration
	// DHCP, when non-nil, pins client IPs to device MACs.
	DHCP *dhcp.Resolver
	// Suffixes is the public-suffix table (default etld.Default).
	Suffixes *etld.Table
}

// Processor consumes joined DNS observations and maintains the aggregates.
// It is not safe for concurrent use; feed it from a single goroutine (the
// generator's stream is single-threaded too).
type Processor struct {
	cfg     Config
	stats   map[string]*DomainStats
	devices map[string]struct{}
	// names maps a query name, as spelled, to its e2LD's entry: a cache
	// of "name is in stats[E2LD(name)].FQDNs", holding only such names.
	// Merge and FromSnapshot leave it empty; Consume fills it name by name.
	names map[string]*DomainStats

	buckets      map[int]*bucketAccum
	totalQueries int
	skipped      int
}

type bucketAccum struct {
	queries int
	fqdns   map[string]struct{}
	e2lds   map[string]struct{}
}

// NewProcessor returns a Processor for cfg.
func NewProcessor(cfg Config) *Processor {
	if cfg.Bucket <= 0 {
		cfg.Bucket = 24 * time.Hour
	}
	if cfg.Suffixes == nil {
		cfg.Suffixes = etld.Default
	}
	if cfg.Days <= 0 {
		cfg.Days = 31
	}
	return &Processor{
		cfg:     cfg,
		stats:   make(map[string]*DomainStats),
		devices: make(map[string]struct{}),
		names:   make(map[string]*DomainStats),
		buckets: make(map[int]*bucketAccum),
	}
}

// Consume folds one observation into the aggregates. Observations whose
// query name yields no e2LD (bare TLDs, empty names) are counted as
// skipped and otherwise ignored.
//
// It skips two kinds of set insert that the processor's state proves
// redundant, relying on invariants that Consume, Merge and
// Snapshot/FromSnapshot all preserve: every host of a domain is in the
// device set, and a domain whose sightings fall in one bucket has its
// e2LD and its FQDNs in that bucket. An observation that adds no set
// member allocates nothing.
//
// Consume keeps no string of in: a string that becomes a member of a set
// is copied first (strings.Clone), so in may point into a buffer as large
// as ReadLog's blocks without the processor keeping that buffer alive.
func (p *Processor) Consume(in Input) {
	// A name seen before answers three questions at once: its e2LD, that
	// e2LD's entry, and that the name is already in the entry's FQDNs.
	// Until name is the processor's own copy it must not enter a set.
	name, owned := in.QName, false
	st, newFQDN := p.names[name], false
	if st == nil {
		e2, err := p.cfg.Suffixes.E2LD(name)
		if err != nil {
			p.skipped++
			return
		}
		if st = p.stats[e2]; st == nil {
			e2 = strings.Clone(e2)
			st = &DomainStats{
				E2LD:      e2,
				FirstSeen: in.Time,
				LastSeen:  in.Time,
				Hosts:     make(map[string]struct{}),
				IPs:       make(map[string]struct{}),
				Minutes:   make(map[int]struct{}),
				FQDNs:     make(map[string]struct{}),
				TTLVals:   make(map[uint32]struct{}),
				PerDay:    make([]int, p.cfg.Days),
			}
			p.stats[e2] = st
		}
		// After Merge or FromSnapshot the name may be in FQDNs and not in
		// names yet; the insert then keeps the key FQDNs has.
		name, owned = strings.Clone(name), true
		known := len(st.FQDNs)
		st.FQDNs[name] = struct{}{}
		newFQDN = len(st.FQDNs) > known
		p.names[name] = st
	}
	p.totalQueries++
	since := in.Time.Sub(p.cfg.Start)

	if in.Time.Before(st.FirstSeen) {
		st.FirstSeen = in.Time
	}
	if in.Time.After(st.LastSeen) {
		st.LastSeen = in.Time
	}
	st.QueryCount++
	if mac, ok := p.macAt(in); ok {
		// A MAC is the resolver's string, not the input's.
		known := len(st.Hosts)
		st.Hosts[mac] = struct{}{}
		if len(st.Hosts) > known {
			// Every host of a domain went into devices when it became one.
			p.devices[mac] = struct{}{}
		}
	} else if _, known := st.Hosts[in.ClientIP]; !known {
		device := strings.Clone(in.ClientIP)
		st.Hosts[device] = struct{}{}
		p.devices[device] = struct{}{}
	}
	st.Minutes[max(int(since/time.Minute), 0)] = struct{}{}
	st.Hours[in.Time.Hour()]++
	if day := int(since / (24 * time.Hour)); day >= 0 && day < len(st.PerDay) {
		st.PerDay[day]++
	}

	if in.RCode == dnswire.RCodeNXDomain {
		st.NXCount++
	} else {
		for _, ip := range in.Answers {
			if _, known := st.IPs[ip]; !known {
				st.IPs[strings.Clone(ip)] = struct{}{}
			}
		}
		st.AnswerCountSum += len(in.Answers)
		if len(in.Answers) > 0 {
			ttl := in.TTL
			st.TTLSum += float64(ttl)
			st.TTLVals[ttl] = struct{}{}
			if len(st.TTLVals) == 1 {
				st.TTLMin, st.TTLMax = ttl, ttl
			} else {
				if ttl < st.TTLMin {
					st.TTLMin = ttl
				}
				if ttl > st.TTLMax {
					st.TTLMax = ttl
				}
			}
		}
	}

	bi := max(int(since/p.cfg.Bucket), 0)
	b := p.buckets[bi]
	if b == nil {
		b = &bucketAccum{fqdns: make(map[string]struct{}), e2lds: make(map[string]struct{})}
		p.buckets[bi] = b
	}
	b.queries++
	// A domain whose sightings all fall in one bucket put its e2LD there
	// with its first sighting and each FQDN with that FQDN's first.
	if newFQDN || p.bucketIndex(st.FirstSeen) != p.bucketIndex(st.LastSeen) {
		if owned {
			b.fqdns[name] = struct{}{}
		} else if _, known := b.fqdns[name]; !known {
			b.fqdns[strings.Clone(name)] = struct{}{}
		}
		b.e2lds[st.E2LD] = struct{}{}
	}
}

// macAt pins in's client address to a device when a lease covers it.
func (p *Processor) macAt(in Input) (mac string, ok bool) {
	if p.cfg.DHCP == nil {
		return "", false
	}
	return p.cfg.DHCP.MACAt(in.ClientIP, in.Time)
}

func (p *Processor) bucketIndex(t time.Time) int {
	return max(int(t.Sub(p.cfg.Start)/p.cfg.Bucket), 0)
}

// Stats returns the per-domain aggregates, keyed by e2LD. The returned
// map is the processor's live state; treat it as read-only.
func (p *Processor) Stats() map[string]*DomainStats { return p.stats }

// Config returns the processor's effective (defaulted) configuration.
func (p *Processor) Config() Config { return p.cfg }

// MismatchError reports why a set of processors cannot be merged:
// their configurations disagree on a field that would make minute, day,
// or bucket indices mean different things in different shards, or their
// day cursors have drifted further apart than the caller's window
// allows. Field is one of "start", "bucket", "suffixes", or "days";
// Want/Got render the disagreeing values. Nothing recovers from it:
// shard.Pool.CloseDay wraps it and that day's close fails.
type MismatchError struct {
	// Field names the disagreeing configuration dimension.
	Field string
	// Want and Got render the expected and offending values.
	Want, Got string
}

// Error implements error.
func (e *MismatchError) Error() string {
	return fmt.Sprintf("pipeline: merge mismatch on %s: want %s, got %s", e.Field, e.Want, e.Got)
}

// Merge combines the aggregates of several processors into one new
// processor, leaving the inputs untouched (their state is deep-copied,
// never aliased). It is how sharded aggregation composes: the streaming
// mode keeps one processor per day and merges the current window at
// each remodel instead of replaying raw observations.
//
// All inputs must share the same Start, Bucket, and Suffixes so minute,
// day, and bucket indices mean the same thing in every shard; Days may
// differ (the merged processor takes the maximum) and DHCP is not
// consulted (device pinning already happened at Consume time). The
// merge is deterministic: every combination step — set unions, count
// sums, min/max folds — is commutative and associative, so the merged
// aggregates are identical regardless of argument order or internal map
// iteration order. Configuration disagreements surface as a typed
// *MismatchError.
func Merge(ps ...*Processor) (*Processor, error) {
	return MergeWindow(0, ps...)
}

// MergeWindow is Merge with a day-cursor guard: when window > 0, inputs
// whose Days cursors disagree by more than window days are rejected
// with a *MismatchError on field "days". A rolling deployment merging
// the per-day processors of a W-day window expects cursors to span at
// most W consecutive days; a wider spread means a stale or corrupt
// aggregate (for example a shard restored from the wrong generation)
// slipped in, and merging it would silently rewrite history. window <= 0
// disables the guard, which is plain Merge.
func MergeWindow(window int, ps ...*Processor) (*Processor, error) {
	if len(ps) == 0 {
		return nil, errors.New("pipeline: Merge needs at least one processor")
	}
	base := ps[0].cfg
	minDays, maxDays := base.Days, base.Days
	for _, p := range ps[1:] {
		switch {
		case !p.cfg.Start.Equal(base.Start):
			return nil, &MismatchError{
				Field: "start",
				Want:  base.Start.UTC().Format(time.RFC3339),
				Got:   p.cfg.Start.UTC().Format(time.RFC3339),
			}
		case p.cfg.Bucket != base.Bucket:
			return nil, &MismatchError{
				Field: "bucket",
				Want:  base.Bucket.String(),
				Got:   p.cfg.Bucket.String(),
			}
		case p.cfg.Suffixes != base.Suffixes:
			return nil, &MismatchError{
				Field: "suffixes",
				Want:  fmt.Sprintf("%p", base.Suffixes),
				Got:   fmt.Sprintf("%p", p.cfg.Suffixes),
			}
		}
		if p.cfg.Days > maxDays {
			maxDays = p.cfg.Days
		}
		if p.cfg.Days < minDays {
			minDays = p.cfg.Days
		}
	}
	if window > 0 && maxDays-minDays > window {
		return nil, &MismatchError{
			Field: "days",
			Want:  fmt.Sprintf("cursors within %d day(s)", window),
			Got:   fmt.Sprintf("cursors span days %d..%d", minDays, maxDays),
		}
	}
	cfg := base
	cfg.Days = maxDays
	out := NewProcessor(cfg)
	for _, p := range ps {
		out.absorb(p)
	}
	return out, nil
}

// absorb folds o's aggregates into p, deep-copying every container.
func (p *Processor) absorb(o *Processor) {
	p.totalQueries += o.totalQueries
	p.skipped += o.skipped
	for d := range o.devices {
		p.devices[d] = struct{}{}
	}
	for e2, st := range o.stats {
		dst := p.stats[e2]
		if dst == nil {
			dst = &DomainStats{
				E2LD:    e2,
				Hosts:   make(map[string]struct{}, len(st.Hosts)),
				IPs:     make(map[string]struct{}, len(st.IPs)),
				Minutes: make(map[int]struct{}, len(st.Minutes)),
				FQDNs:   make(map[string]struct{}, len(st.FQDNs)),
				TTLVals: make(map[uint32]struct{}, len(st.TTLVals)),
				PerDay:  make([]int, p.cfg.Days),
			}
			p.stats[e2] = dst
		}
		dst.mergeFrom(st)
	}
	for i, ob := range o.buckets {
		b := p.buckets[i]
		if b == nil {
			b = &bucketAccum{
				fqdns: make(map[string]struct{}, len(ob.fqdns)),
				e2lds: make(map[string]struct{}, len(ob.e2lds)),
			}
			p.buckets[i] = b
		}
		b.queries += ob.queries
		for f := range ob.fqdns {
			b.fqdns[f] = struct{}{}
		}
		for e := range ob.e2lds {
			b.e2lds[e] = struct{}{}
		}
	}
}

// mergeFrom folds o's observations into s. A fresh s (QueryCount 0 —
// Consume never stores a zero-count domain) adopts o's sighting window;
// otherwise windows, counts, and sets combine commutatively.
func (s *DomainStats) mergeFrom(o *DomainStats) {
	if s.QueryCount == 0 {
		s.FirstSeen, s.LastSeen = o.FirstSeen, o.LastSeen
	} else {
		if o.FirstSeen.Before(s.FirstSeen) {
			s.FirstSeen = o.FirstSeen
		}
		if o.LastSeen.After(s.LastSeen) {
			s.LastSeen = o.LastSeen
		}
	}
	s.QueryCount += o.QueryCount
	s.NXCount += o.NXCount
	s.AnswerCountSum += o.AnswerCountSum
	for h := range o.Hosts {
		s.Hosts[h] = struct{}{}
	}
	for ip := range o.IPs {
		s.IPs[ip] = struct{}{}
	}
	for m := range o.Minutes {
		s.Minutes[m] = struct{}{}
	}
	for f := range o.FQDNs {
		s.FQDNs[f] = struct{}{}
	}
	if len(o.TTLVals) > 0 {
		if len(s.TTLVals) == 0 {
			s.TTLMin, s.TTLMax = o.TTLMin, o.TTLMax
		} else {
			if o.TTLMin < s.TTLMin {
				s.TTLMin = o.TTLMin
			}
			if o.TTLMax > s.TTLMax {
				s.TTLMax = o.TTLMax
			}
		}
		for v := range o.TTLVals {
			s.TTLVals[v] = struct{}{}
		}
	}
	s.TTLSum += o.TTLSum
	for i, c := range o.PerDay {
		if i < len(s.PerDay) {
			s.PerDay[i] += c
		}
	}
	for h, c := range o.Hours {
		s.Hours[h] += c
	}
}

// DeviceCount returns the number of distinct device identities observed.
func (p *Processor) DeviceCount() int { return len(p.devices) }

// TotalQueries returns the number of observations successfully consumed.
func (p *Processor) TotalQueries() int { return p.totalQueries }

// Skipped returns the number of observations dropped for lacking an e2LD.
func (p *Processor) Skipped() int { return p.skipped }

// Series returns the Figure 1 traffic series: one point per bucket from
// the first to the last non-empty bucket, inclusive; empty buckets in
// between appear with zero counts.
func (p *Processor) Series() []BucketStat {
	if len(p.buckets) == 0 {
		return nil
	}
	lo, hi := -1, -1
	for i := range p.buckets {
		if lo < 0 || i < lo {
			lo = i
		}
		if i > hi {
			hi = i
		}
	}
	out := make([]BucketStat, 0, hi-lo+1)
	for i := lo; i <= hi; i++ {
		pt := BucketStat{Start: p.cfg.Start.Add(time.Duration(i) * p.cfg.Bucket)}
		if b := p.buckets[i]; b != nil {
			pt.Queries = b.queries
			pt.UniqueFQDN = len(b.fqdns)
			pt.UniqueE2LD = len(b.e2lds)
		}
		out = append(out, pt)
	}
	return out
}

// MeanTTL returns the mean TTL over NOERROR responses, or 0 when none.
func (s *DomainStats) MeanTTL() float64 {
	n := s.QueryCount - s.NXCount
	if n <= 0 {
		return 0
	}
	return s.TTLSum / float64(n)
}

// ActiveDays returns how many distinct days the domain was queried.
func (s *DomainStats) ActiveDays() int {
	n := 0
	for _, c := range s.PerDay {
		if c > 0 {
			n++
		}
	}
	return n
}

// LifetimeDays returns the span in days between first and last sighting,
// minimum 1 when the domain was seen at all.
func (s *DomainStats) LifetimeDays() float64 {
	if s.QueryCount == 0 {
		return 0
	}
	d := s.LastSeen.Sub(s.FirstSeen).Hours() / 24
	if d < 1 {
		return 1
	}
	return d
}
