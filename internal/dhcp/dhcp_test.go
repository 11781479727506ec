package dhcp

import (
	"sort"
	"testing"
	"time"

	"repro/internal/mathx"
)

var t0 = time.Date(2018, 3, 1, 0, 0, 0, 0, time.UTC)

func genTestLog(devices int, dur time.Duration) []Lease {
	return Generate(GenConfig{
		Devices:  devices,
		Start:    t0,
		Duration: dur,
	}, mathx.NewRNG(1))
}

func TestGenerateCoversWindow(t *testing.T) {
	leases := genTestLog(20, 48*time.Hour)
	if len(leases) == 0 {
		t.Fatal("no leases generated")
	}
	perMAC := make(map[string][]Lease)
	for _, l := range leases {
		perMAC[l.MAC] = append(perMAC[l.MAC], l)
	}
	if len(perMAC) != 20 {
		t.Fatalf("got %d devices, want 20", len(perMAC))
	}
	end := t0.Add(48 * time.Hour)
	for mac, ls := range perMAC {
		// Leases for one device must tile the window with no gaps.
		for i := 1; i < len(ls); i++ {
			if !ls[i].Start.Equal(ls[i-1].End) {
				t.Errorf("%s: gap between lease %d end %v and lease %d start %v",
					mac, i-1, ls[i-1].End, i, ls[i].Start)
			}
		}
		if ls[0].Start.After(t0) {
			t.Errorf("%s: first lease starts after window: %v", mac, ls[0].Start)
		}
		if ls[len(ls)-1].End.Before(end) {
			t.Errorf("%s: last lease ends before window: %v", mac, ls[len(ls)-1].End)
		}
	}
}

func TestGenerateDeterministic(t *testing.T) {
	a := genTestLog(10, 24*time.Hour)
	b := genTestLog(10, 24*time.Hour)
	if len(a) != len(b) {
		t.Fatalf("lengths differ: %d vs %d", len(a), len(b))
	}
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("lease %d differs: %+v vs %+v", i, a[i], b[i])
		}
	}
}

func TestResolverPinsDevice(t *testing.T) {
	leases := genTestLog(50, 72*time.Hour)
	r := NewResolver(leases)
	// Every lease midpoint must resolve; it may resolve to a different MAC
	// only when a later overlapping lease shadows this one.
	for _, l := range leases {
		mid := l.Start.Add(l.End.Sub(l.Start) / 2)
		mac, ok := r.MACAt(l.IP, mid)
		if !ok {
			t.Fatalf("no device for %s at %v", l.IP, mid)
		}
		if mac == "" {
			t.Fatal("empty MAC")
		}
	}
}

// referenceMACAt is the lookup MACAt replaced: sort.Search over the
// leases' time.Time bounds. It is the oracle for the integer bounds.
func referenceMACAt(ls []Lease, t time.Time) (string, bool) {
	i := sort.Search(len(ls), func(i int) bool { return ls[i].Start.After(t) }) - 1
	for ; i >= 0; i-- {
		if ls[i].End.After(t) {
			return ls[i].MAC, true
		}
	}
	return "", false
}

// MACAt must name the lease the time.Time comparison names: at every
// lease bound and a nanosecond either side of it, with overlapping and
// nested leases, equal starts, and instants that a single int64 of
// nanoseconds cannot hold.
func TestMACAtMatchesTimeComparison(t *testing.T) {
	far := func(year int) time.Time { return time.Date(year, 6, 1, 12, 0, 0, 500, time.UTC) }
	leases := genTestLog(40, 96*time.Hour)
	const ip = "10.9.9.9"
	leases = append(leases,
		Lease{MAC: "a", IP: ip, Start: t0, End: t0.Add(10 * time.Hour)},
		Lease{MAC: "b", IP: ip, Start: t0.Add(2 * time.Hour), End: t0.Add(3 * time.Hour)},                 // nested
		Lease{MAC: "c", IP: ip, Start: t0.Add(2 * time.Hour), End: t0.Add(2*time.Hour + time.Nanosecond)}, // equal start
		Lease{MAC: "d", IP: ip, Start: t0.Add(9 * time.Hour), End: t0.Add(20 * time.Hour)},                // overlap
		Lease{MAC: "e", IP: ip, Start: t0.Add(30 * time.Hour), End: t0.Add(30 * time.Hour)},               // empty
		Lease{MAC: "f", IP: ip, Start: far(1), End: far(1600)},
		Lease{MAC: "g", IP: ip, Start: far(1650), End: far(1700)},
		Lease{MAC: "h", IP: ip, Start: far(2250), End: far(2300)},
		Lease{MAC: "i", IP: ip, Start: far(9000), End: far(9999)},
	)
	r := NewResolver(leases)

	byIP := make(map[string][]Lease)
	for _, l := range leases {
		byIP[l.IP] = append(byIP[l.IP], l)
	}
	for addr, ls := range byIP {
		// NewResolver's grouping and sort, so equal starts fall the same way.
		sort.Slice(ls, func(i, j int) bool { return ls[i].Start.Before(ls[j].Start) })
		var probes []time.Time
		for _, l := range ls {
			for _, at := range []time.Time{l.Start, l.End, l.Start.Add(l.End.Sub(l.Start) / 2)} {
				probes = append(probes, at.Add(-time.Nanosecond), at, at.Add(time.Nanosecond),
					at.Add(-time.Second), at.Add(time.Second), at.In(time.FixedZone("x", 3600)))
			}
		}
		probes = append(probes, time.Time{}, far(1), far(1677), far(2263), far(9999), time.Unix(1<<40, 0))
		for _, at := range probes {
			mac, ok := r.MACAt(addr, at)
			wantMAC, wantOK := referenceMACAt(ls, at)
			if mac != wantMAC || ok != wantOK {
				t.Fatalf("MACAt(%s, %v) = %q, %v; the time.Time search gives %q, %v", addr, at, mac, ok, wantMAC, wantOK)
			}
		}
	}
}

func TestResolverMiss(t *testing.T) {
	r := NewResolver(genTestLog(5, 24*time.Hour))
	if _, ok := r.MACAt("203.0.113.9", t0.Add(time.Hour)); ok {
		t.Error("resolved an address never leased")
	}
	if _, ok := r.MACAt("10.0.0.2", t0.Add(-100*24*time.Hour)); ok {
		t.Error("resolved a time far before any lease")
	}
}

func TestDeviceChurnProducesMultipleIPs(t *testing.T) {
	leases := Generate(GenConfig{
		Devices:  30,
		Start:    t0,
		Duration: 30 * 24 * time.Hour,
		MoveProb: 0.3,
	}, mathx.NewRNG(2))
	ipsPerMAC := make(map[string]map[string]bool)
	for _, l := range leases {
		if ipsPerMAC[l.MAC] == nil {
			ipsPerMAC[l.MAC] = make(map[string]bool)
		}
		ipsPerMAC[l.MAC][l.IP] = true
	}
	multi := 0
	for _, ips := range ipsPerMAC {
		if len(ips) > 1 {
			multi++
		}
	}
	if multi < 20 {
		t.Errorf("only %d/30 devices changed IP over a month with MoveProb 0.3", multi)
	}
}

func TestDevices(t *testing.T) {
	r := NewResolver(genTestLog(7, 24*time.Hour))
	devs := r.Devices()
	if len(devs) != 7 {
		t.Fatalf("Devices() = %d, want 7", len(devs))
	}
	for i := 1; i < len(devs); i++ {
		if devs[i-1] >= devs[i] {
			t.Fatal("Devices() not sorted/unique")
		}
	}
}

func TestMACForDeviceUnique(t *testing.T) {
	seen := make(map[string]bool)
	for i := 0; i < 10000; i++ {
		m := MACForDevice(i)
		if seen[m] {
			t.Fatalf("duplicate MAC %s at device %d", m, i)
		}
		seen[m] = true
	}
}
