package main

import (
	"slices"
	"strings"
	"testing"
)

func TestParseRun(t *testing.T) {
	paper := "fig1 fig6 fig7 exposure beliefprop table1 table2 fig4 fig5 selftrain flows"
	for _, tc := range []struct{ run, want string }{ // want "": an error listing every id
		{"all", paper}, {"knobs", "knobs"}, {"all,knobs", paper + " knobs"}, {"knobs,all", paper + " knobs"},
		{"fig6, fig7 ,selftrain", "fig6 fig7 selftrain"}, {"fig4,fig4", "fig4"},
		{"fgi6", ""}, {"fig6,fgi6", ""}, {"", ""}, {"fig6,", ""}, {"ALL", ""},
	} {
		got, err := parseRun(tc.run)
		if err != nil || tc.want == "" {
			if err == nil || tc.want != "" || !strings.Contains(err.Error(), validIDs()) {
				t.Errorf("parseRun(%q) = %v, %v; want %q", tc.run, got, err, tc.want)
			}
			continue
		}
		var ids []string
		for id := range got {
			ids = append(ids, id)
		}
		want := strings.Fields(tc.want)
		slices.Sort(ids)
		slices.Sort(want)
		if !slices.Equal(ids, want) {
			t.Errorf("parseRun(%q) = %v, want %v", tc.run, ids, want)
		}
	}
	if ids := validIDs(); ids != "all,"+strings.ReplaceAll(paper, " ", ",")+",knobs" {
		t.Errorf("usage lists %s", ids)
	}
}
