package main

import (
	"os"
	"path/filepath"
	"strings"
	"testing"
	"time"

	"repro/internal/dnswire"
	"repro/internal/pipeline"
)

// writeTrace writes one observation per timestamp to a trace file under
// t.TempDir and returns its path.
func writeTrace(t *testing.T, times ...string) string {
	t.Helper()
	var inputs []pipeline.Input
	for _, ts := range times {
		at, err := time.Parse(time.RFC3339, ts)
		if err != nil {
			t.Fatal(err)
		}
		inputs = append(inputs, pipeline.Input{
			Time: at, ClientIP: "10.0.0.1", QName: "www.example.com",
			QType: dnswire.TypeA, Answers: []string{"192.0.2.1"}, TTL: 60,
		})
	}
	path := filepath.Join(t.TempDir(), "trace.tsv")
	f, err := os.Create(path)
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	if err := pipeline.WriteLog(f, inputs); err != nil {
		t.Fatal(err)
	}
	return path
}

func TestTraceWindowCountsFromAlignedStart(t *testing.T) {
	for _, tc := range []struct {
		name      string
		times     []string
		wantStart string
		wantDays  int
	}{
		{"midnight aligned", []string{"2024-01-01T00:00:00Z", "2024-01-02T23:00:00Z"}, "2024-01-01T00:00:00Z", 2},
		{"one event", []string{"2024-01-01T13:00:00Z"}, "2024-01-01T00:00:00Z", 1},
		{"straddles midnight", []string{"2024-01-01T23:00:00Z", "2024-01-03T01:00:00Z"}, "2024-01-01T00:00:00Z", 3},
	} {
		t.Run(tc.name, func(t *testing.T) {
			start, days, n, err := traceWindow(writeTrace(t, tc.times...))
			if err != nil {
				t.Fatal(err)
			}
			if got := start.Format(time.RFC3339); got != tc.wantStart || days != tc.wantDays || n != len(tc.times) {
				t.Errorf("traceWindow = (%s, %d days, %d events), want (%s, %d days, %d events)",
					got, days, n, tc.wantStart, tc.wantDays, len(tc.times))
			}
		})
	}
}

func TestStreamRejectsIntelFracOutsideUnitInterval(t *testing.T) {
	dir := t.TempDir()
	truth := filepath.Join(dir, "truth.tsv")
	if err := os.WriteFile(truth, []byte("a.com\tmalicious\nb.com\tmalicious\nc.com\tbenign\n"), 0o644); err != nil {
		t.Fatal(err)
	}
	for _, tc := range []struct {
		frac       string
		wantReject bool
	}{{"-0.5", true}, {"1.5", true}, {"NaN", true}, {"0", false}, {"1", false}} {
		// The trace is missing, so an accepted fraction fails later, on
		// opening it.
		err := runStream([]string{"-truth", truth, "-trace", filepath.Join(dir, "missing.tsv"), "-intel-frac", tc.frac})
		if err == nil {
			t.Fatalf("-intel-frac %s: no error", tc.frac)
		}
		if rejected := strings.Contains(err.Error(), "-intel-frac"); rejected != tc.wantReject {
			t.Errorf("-intel-frac %s: error %q, want flag rejected = %v", tc.frac, err, tc.wantReject)
		}
	}
}
