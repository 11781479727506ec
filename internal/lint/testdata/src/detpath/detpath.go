// Package fixture seeds violations for the detpath check inside a
// package annotated with the determinism contract: wall-clock reads
// and map-order-dependent exits, plus sorted and suppressed cases.
//
//maldlint:deterministic
package fixture

import (
	"sort"
	"time"
)

func badWallClock() int64 {
	return time.Now().UnixNano() // want detpath
}

func badMapReturn(m map[string]int) string {
	for k := range m {
		if m[k] > 0 {
			return k // want detpath
		}
	}
	return ""
}

func badMapBreak(m map[string]int) string {
	best := ""
	for k := range m {
		best = k
		break // want detpath
	}
	return best
}

func goodSortedKeys(m map[string]int) []string {
	keys := make([]string, 0, len(m))
	for k := range m {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	return keys
}

func goodAggregate(m map[string]int) int {
	sum := 0
	for _, v := range m {
		sum += v
	}
	return sum
}

func suppressedNow() time.Time {
	return time.Now() //maldlint:ignore detpath metrics timestamp, never feeds model state
}
