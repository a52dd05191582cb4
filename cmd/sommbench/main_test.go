package main

import (
	"strings"
	"testing"
)

// TestSelectRunners pins the -exp contract: every named id must be a
// runner, so a typo (or an id that no longer exists) is an error that
// lists the valid ids rather than a silent empty run.
func TestSelectRunners(t *testing.T) {
	all := runners(1, 0.02, false)
	for _, tc := range []struct {
		exp  string
		want []string // nil means an error is expected
	}{
		{"all", []string{"fig3", "fig9a", "fig9b", "fig9c", "fig10", "fig11", "fig12a", "fig12b", "fig13", "table1", "table2", "table3", "table4", "ablations"}},
		{"fig9a", []string{"fig9a"}},
		{"fig9a, table3", []string{"fig9a", "table3"}},
		{"nope", nil},
		{"indexbench", nil},
	} {
		got, err := selectRunners(tc.exp, all)
		if tc.want == nil {
			if err == nil {
				t.Errorf("-exp %q: selected %d runners, want an error", tc.exp, len(got))
			} else if !strings.Contains(err.Error(), "fig9a") || !strings.Contains(err.Error(), "ablations") {
				t.Errorf("-exp %q: error %q does not list the valid ids", tc.exp, err)
			}
			continue
		}
		if err != nil {
			t.Errorf("-exp %q: %v", tc.exp, err)
			continue
		}
		var ids []string
		for _, r := range got {
			ids = append(ids, r.id)
		}
		if strings.Join(ids, ",") != strings.Join(tc.want, ",") {
			t.Errorf("-exp %q: selected %v, want %v", tc.exp, ids, tc.want)
		}
	}
}
