// Package dhcp models the campus DHCP infrastructure the paper collects
// alongside DNS traffic (§2). Devices receive leases that expire and are
// re-issued — sometimes with a different IP because of device mobility or
// lease timeout — so the same physical device can appear under several IP
// addresses during a capture window. The preprocessing pipeline uses
// Resolver to pin DNS queries back to stable device identities (MAC
// addresses), exactly the role DHCP logs play in the paper.
package dhcp

import (
	"fmt"
	"sort"
	"time"

	"repro/internal/mathx"
)

// Lease is one DHCP lease binding a device MAC to an IPv4 address for
// [Start, End).
type Lease struct {
	MAC   string
	IP    string
	Start time.Time
	End   time.Time
}

// GenConfig parameterizes lease log generation.
type GenConfig struct {
	// Devices is the number of physical devices on the network.
	Devices int
	// Start and Duration bound the simulated capture window.
	Start    time.Time
	Duration time.Duration
	// LeaseTime is the nominal DHCP lease duration (default 12h).
	LeaseTime time.Duration
	// MoveProb is the per-renewal probability that a device changes IP
	// (mobility between subnets or expired lease reassignment).
	MoveProb float64
	// Subnets is the number of /24 address pools (default 16).
	Subnets int
}

func (c *GenConfig) setDefaults() {
	if c.LeaseTime <= 0 {
		c.LeaseTime = 12 * time.Hour
	}
	if c.MoveProb == 0 {
		c.MoveProb = 0.15
	}
	if c.Subnets <= 0 {
		c.Subnets = 16
	}
}

// MACForDevice returns the deterministic MAC address of device i, used by
// both the lease generator and the traffic generator so they agree on
// device identity.
func MACForDevice(i int) string {
	return fmt.Sprintf("02:00:%02x:%02x:%02x:%02x",
		byte(i>>24), byte(i>>16), byte(i>>8), byte(i))
}

// Generate produces a lease log for cfg. Device i keeps a single IP per
// lease period and changes IP with probability cfg.MoveProb at each
// renewal. The returned leases are sorted by start time.
func Generate(cfg GenConfig, rng *mathx.RNG) []Lease {
	cfg.setDefaults()
	var leases []Lease
	for dev := 0; dev < cfg.Devices; dev++ {
		mac := MACForDevice(dev)
		// Stagger initial lease start so renewals don't synchronize.
		offset := time.Duration(rng.Float64() * float64(cfg.LeaseTime))
		start := cfg.Start.Add(-offset)
		ip := randomIP(cfg, rng)
		for start.Before(cfg.Start.Add(cfg.Duration)) {
			end := start.Add(cfg.LeaseTime)
			leases = append(leases, Lease{MAC: mac, IP: ip, Start: start, End: end})
			start = end
			if rng.Float64() < cfg.MoveProb {
				ip = randomIP(cfg, rng)
			}
		}
	}
	sort.Slice(leases, func(i, j int) bool {
		if !leases[i].Start.Equal(leases[j].Start) {
			return leases[i].Start.Before(leases[j].Start)
		}
		return leases[i].MAC < leases[j].MAC
	})
	return leases
}

func randomIP(cfg GenConfig, rng *mathx.RNG) string {
	subnet := rng.Intn(cfg.Subnets)
	host := 2 + rng.Intn(250)
	return fmt.Sprintf("10.%d.%d.%d", subnet/256, subnet%256, host)
}

// Resolver answers "which device held IP x at time t" queries over a
// lease log. It is immutable after construction and safe for concurrent
// use.
type Resolver struct {
	byIP map[string][]span // sorted by start
}

// span is a lease as MACAt reads it, its bounds decoded from the
// time.Time values once at construction.
type span struct {
	start, end instant
	mac        string
}

// instant is a time as Unix seconds and nanoseconds. The pair orders
// exactly as time.Time's wall clock does over every representable time;
// one int64 of nanoseconds would wrap outside the years 1678–2262, which
// a log line can spell.
type instant struct {
	sec  int64
	nsec int32
}

func instantOf(t time.Time) instant { return instant{t.Unix(), int32(t.Nanosecond())} }

func (a instant) after(b instant) bool {
	return a.sec > b.sec || a.sec == b.sec && a.nsec > b.nsec
}

// NewResolver indexes a lease log.
func NewResolver(leases []Lease) *Resolver {
	byIP := make(map[string][]Lease)
	for _, l := range leases {
		byIP[l.IP] = append(byIP[l.IP], l)
	}
	r := &Resolver{byIP: make(map[string][]span, len(byIP))}
	for ip, ls := range byIP {
		sort.Slice(ls, func(i, j int) bool { return ls[i].Start.Before(ls[j].Start) })
		spans := make([]span, len(ls))
		for i, l := range ls {
			spans[i] = span{start: instantOf(l.Start), end: instantOf(l.End), mac: l.MAC}
		}
		r.byIP[ip] = spans
	}
	return r
}

// MACAt returns the MAC address that held ip at time t. ok is false when
// no lease covers (ip, t) — e.g. traffic from a static or off-campus
// address.
//
//alloccheck:hot
func (r *Resolver) MACAt(ip string, t time.Time) (mac string, ok bool) {
	ls := r.byIP[ip]
	if len(ls) == 0 {
		return "", false
	}
	at := instantOf(t)
	// Find the first lease starting after t.
	lo, hi := 0, len(ls)
	for lo < hi {
		mid := int(uint(lo+hi) >> 1)
		if ls[mid].start.after(at) {
			hi = mid
		} else {
			lo = mid + 1
		}
	}
	// Overlapping reassignments are possible when a device moves away and
	// the pool re-issues its address; scan back for any covering lease,
	// preferring the most recent.
	for i := lo - 1; i >= 0; i-- {
		if ls[i].end.after(at) {
			return ls[i].mac, true
		}
	}
	return "", false
}

// Devices returns the set of distinct MACs present in the log.
func (r *Resolver) Devices() []string {
	set := make(map[string]bool)
	for _, ls := range r.byIP {
		for _, l := range ls {
			set[l.mac] = true
		}
	}
	out := make([]string, 0, len(set))
	for mac := range set {
		out = append(out, mac)
	}
	sort.Strings(out)
	return out
}
