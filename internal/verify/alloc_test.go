package verify_test

import (
	"runtime"
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

// perRun returns the mean allocations and bytes allocated by one call of f
// over runs calls, after one call to warm up, on one thread as
// testing.AllocsPerRun measures.
func perRun(runs int, f func()) (allocs, bytes float64) {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(1))
	f()
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	for range runs {
		f()
	}
	runtime.ReadMemStats(&after)
	return float64(after.Mallocs-before.Mallocs) / float64(runs), float64(after.TotalAlloc-before.TotalAlloc) / float64(runs)
}

// TestCheckAllocBudget is the allocation budget on the check path, where
// the GC is about a fifth of the corpus's CPU: one Incremental.Check of a
// fixed one-device edit whose traced forwarding moves. On WAN(6,4,3) the
// first router stops denying its PoP the first DCN prefix, which the PoP
// then learns, so the isolation intent from that PoP traces anew; on
// DCN(4) the last leaf stops originating its prefix. While verdicts copied
// their intents, every delta run built its outcome and a verdict was
// decided again on any move of its prefix, one check cost 147 and 81
// allocations, 18,840 and 13,504 bytes; since, 139 and 81, 14,968 and
// 11,456 bytes. The budgets are the latter with 10 % headroom.
func TestCheckAllocBudget(t *testing.T) {
	wan, dcn := scenario.WAN(6, 4, 3, scenario.GenOptions{}), scenario.DCN(4, scenario.GenOptions{})
	wanFirst, dcnNodes := wan.Topo.Nodes()[0].Name, dcn.Topo.Nodes()
	for _, tc := range []struct {
		s             *scenario.Scenario
		edits         []netcfg.EditSet
		allocs, bytes float64
	}{
		{wan, lineDelete(t, wan, wanFirst, "ip prefix-list DCN_PREFIXES index 10"), 153, 16465},
		{dcn, lineDelete(t, dcn, dcnNodes[len(dcnNodes)-1].Name, " network "), 89, 12602},
	} {
		iv := newIV(t, tc.s)
		_, stats, err := iv.Check(tc.edits)
		if err != nil {
			t.Fatal(err)
		}
		if stats.Refuted || stats.IntentsReverified == 0 {
			t.Fatalf("%s: the edit re-verified no intent (%v); the budget is vacuous", tc.s.Name, stats)
		}
		allocs, bytes := perRun(20, func() {
			if _, _, err := iv.Check(tc.edits); err != nil {
				t.Fatal(err)
			}
		})
		t.Logf("%s: one check, %s: %.0f allocations (budget %.0f), %.0f bytes (budget %.0f)",
			tc.s.Name, stats, allocs, tc.allocs, bytes, tc.bytes)
		if allocs > tc.allocs {
			t.Errorf("%s: one check allocates %.0f times, budget %.0f", tc.s.Name, allocs, tc.allocs)
		}
		if bytes > tc.bytes {
			t.Errorf("%s: one check allocates %.0f bytes, budget %.0f", tc.s.Name, bytes, tc.bytes)
		}
	}
}
