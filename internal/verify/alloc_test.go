package verify_test

import (
	"strings"
	"testing"

	"acr/internal/netcfg"
	"acr/internal/scenario"
)

// lineDelete is the edit deleting the first line of device's configuration
// that starts with prefix.
func lineDelete(t *testing.T, s *scenario.Scenario, device, prefix string) []netcfg.EditSet {
	t.Helper()
	for i, l := range s.Configs[device].Lines() {
		if strings.HasPrefix(l, prefix) {
			return []netcfg.EditSet{{Device: device, Edits: []netcfg.Edit{netcfg.DeleteLine{At: i + 1}}}}
		}
	}
	t.Fatalf("%s: no line of %s starts with %q", s.Name, device, prefix)
	return nil
}

// TestCheckAllocBudget is the allocation budget on the check path, where
// the GC is about a fifth of the corpus's CPU: one Incremental.Check of a
// fixed one-device edit. On WAN(6,4,3) the first router loses a DCN prefix
// from the list its PoP-facing export policy denies; on DCN(4) the last
// leaf stops originating its prefix. Compiling every router per check cost
// 549 and 632 allocations; deriving the net from the base (bgp.Net.Derive),
// 292 and 128; with reasons kept as codes, traces in one allocation and
// typed impact keys, 149 and 84. The budgets are those counts with 10 %
// headroom.
func TestCheckAllocBudget(t *testing.T) {
	wan, dcn := scenario.WAN(6, 4, 3, scenario.GenOptions{}), scenario.DCN(4, scenario.GenOptions{})
	wanFirst, dcnNodes := wan.Topo.Nodes()[0].Name, dcn.Topo.Nodes()
	for _, tc := range []struct {
		s      *scenario.Scenario
		edits  []netcfg.EditSet
		budget float64
	}{
		{wan, lineDelete(t, wan, wanFirst, "ip prefix-list DCN_PREFIXES index 30"), 163},
		{dcn, lineDelete(t, dcn, dcnNodes[len(dcnNodes)-1].Name, " network "), 92},
	} {
		iv := newIV(t, tc.s)
		_, stats, err := iv.Check(tc.edits)
		if err != nil {
			t.Fatal(err)
		}
		if stats.Refuted || stats.IntentsReverified == 0 {
			t.Fatalf("%s: the edit re-verified no intent (%v); the budget is vacuous", tc.s.Name, stats)
		}
		got := testing.AllocsPerRun(20, func() {
			if _, _, err := iv.Check(tc.edits); err != nil {
				t.Fatal(err)
			}
		})
		t.Logf("%s: one check, %s: %.0f allocations, budget %.0f", tc.s.Name, stats, got, tc.budget)
		if got > tc.budget {
			t.Errorf("%s: one check allocates %.0f times, budget %.0f", tc.s.Name, got, tc.budget)
		}
	}
}
