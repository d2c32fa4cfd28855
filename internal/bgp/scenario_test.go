package bgp_test

import (
	"net/netip"
	"reflect"
	"strings"
	"testing"

	"acr/internal/bgp"
	"acr/internal/netcfg"
	"acr/internal/scenario"
)

// TestReverseSessionsSymmetric: Compile resolves each session's reverse
// view once, and the two views of a session point at each other — on the
// Figure 2 network, a fat-tree and a backbone mesh, and on a Figure 2 whose
// S–C session fails to establish because S configures the wrong AS for C.
func TestReverseSessionsSymmetric(t *testing.T) {
	broken := scenario.Figure2()
	var lines []string
	rewrote := false
	for _, l := range broken.Configs["S"].Lines() {
		if strings.HasSuffix(l, " as-number 65003") { // C
			l = strings.TrimSuffix(l, "65003") + "65099"
			rewrote = true
		}
		lines = append(lines, l)
	}
	if !rewrote {
		t.Fatal("S's configuration has no peer statement for C's AS")
	}
	broken.Configs["S"] = netcfg.FromLines("S", lines)

	for _, tc := range []struct {
		name   string
		s      *scenario.Scenario
		failed int
	}{
		{"figure2", scenario.Figure2(), 0},
		{"fat-tree", scenario.DCN(4, scenario.GenOptions{}), 0},
		{"backbone-mesh", scenario.WAN(6, 3, 2, scenario.GenOptions{}), 0},
		{"figure2-wrong-asn", broken, 2},
	} {
		t.Run(tc.name, func(t *testing.T) {
			n := bgp.Compile(tc.s.Topo, tc.s.Files())
			if len(n.Failed) != tc.failed {
				t.Fatalf("%d failed sessions, want %d", len(n.Failed), tc.failed)
			}
			sessions := 0
			for _, name := range n.Order {
				for _, s := range n.Routers[name].Sessions {
					sessions++
					rev := s.Reverse()
					if rev == nil {
						t.Fatalf("%s→%s has no reverse session", name, s.PeerName)
					}
					if rev.Reverse() != s || rev.PeerName != name || rev.PeerAddr != s.LocalAddr || rev.LocalAddr != s.PeerAddr {
						t.Errorf("%s→%s: reverse is %s→%s (%s→%s), not its mirror", name, s.PeerName, s.PeerName, rev.PeerName, rev.LocalAddr, rev.PeerAddr)
					}
				}
			}
			if sessions == 0 {
				t.Fatal("no sessions established")
			}
			if tc.failed > 0 && (n.SessionBetween("S", "C") != nil || n.SessionBetween("C", "S") != nil) {
				t.Error("the S–C session is up on one side although it failed on the other")
			}
			out := bgp.Simulate(n, bgp.Options{})
			bgp.BuildProvenance(n, out)
		})
	}
}

// TestFigure2FlapShape pins what the worked incident's flapping prefix
// looks like under value identity — cycle detection runs on the integer
// state hash. The cycle figures are those of the text-keyed simulator this
// one replaced. Each of the cycle's two phases counts its own derivations:
// 44, of which 37 are distinct.
func TestFigure2FlapShape(t *testing.T) {
	s := scenario.Figure2()
	n := bgp.Compile(s.Topo, s.Files())
	out := bgp.Simulate(n, bgp.Options{})
	po := out.ByPrefix[scenario.PrefixPoPB]
	if po.Converged || len(po.Cycle) != 2 || po.Passes != 5 {
		t.Errorf("converged=%v cycle=%d passes=%d, want a cycle of 2 found in pass 5", po.Converged, len(po.Cycle), po.Passes)
	}
	if got, want := po.FlappingRouters(), []string{"A", "C", "DCN-S", "PoP-A", "S"}; !reflect.DeepEqual(got, want) {
		t.Errorf("flapping routers %v, want %v", got, want)
	}
	g := bgp.BuildProvenance(n, out)
	if got := g.Section(scenario.PrefixPoPB).Len(); got != 44 {
		t.Errorf("the flapping prefix's provenance has %d derivations, want 44", got)
	}
	if g.Len() != 88 {
		t.Errorf("the graph has %d derivations, want 88", g.Len())
	}
}

// TestStateHashIncremental is the oracle for the state digest: a cold run
// keeps it up to date on every slot write instead of re-hashing the state
// each pass, and after every pass it must equal the sum of the slots' terms
// recomputed from scratch — on every prefix of Figure 2, whose flapping
// prefix must revisit a digest, of the WAN and of a k=4 fat-tree.
func TestStateHashIncremental(t *testing.T) {
	for _, tc := range []struct {
		name string
		s    *scenario.Scenario
	}{
		{"figure2", scenario.Figure2()},
		{"wan", scenario.WAN(6, 4, 3, scenario.GenOptions{FullIsolation: true})},
		{"fat-tree k=4", scenario.DCN(4, scenario.GenOptions{})},
	} {
		n := bgp.Compile(tc.s.Topo, tc.s.Files())
		passes, distinct := 0, map[uint64]bool{}
		for _, p := range n.AllPrefixes() {
			kept, scratch := bgp.StateDigests(n, p, 12)
			for i := range kept {
				if kept[i] != scratch[i] {
					t.Fatalf("%s %v pass %d: kept digest %x, recomputed %x", tc.name, p, i+1, kept[i], scratch[i])
				}
				distinct[kept[i]] = true
			}
			passes += len(kept)
			if tc.name == "figure2" && p == scenario.PrefixPoPB {
				if len(kept) != 12 || kept[11] != kept[9] {
					t.Errorf("the flapping prefix ran %d passes and does not revisit its digest", len(kept))
				}
			}
		}
		if passes < 2*len(n.AllPrefixes()) || len(distinct) < passes/2 {
			t.Errorf("%s: %d passes over %d prefixes with %d distinct digests; the oracle is barely exercised", tc.name, passes, len(n.AllPrefixes()), len(distinct))
		}
	}
}

// TestArenaPathsLenIsCap: every AS path a simulated outcome holds, best and
// adj-in, has its len as its cap, so an append to one reallocates instead of
// writing into the path carved next to it — on Figure 2, its flapping
// prefix's cycle included, the WAN with its NoLeakDCN export policy, and a
// k=6 fat-tree.
func TestArenaPathsLenIsCap(t *testing.T) {
	for _, tc := range []struct {
		name string
		s    *scenario.Scenario
	}{
		{"figure2", scenario.Figure2()},
		{"wan", scenario.WAN(6, 4, 3, scenario.GenOptions{FullIsolation: true})},
		{"fat-tree k=6", scenario.DCN(6, scenario.GenOptions{})},
	} {
		n := bgp.Compile(tc.s.Topo, tc.s.Files())
		out := bgp.Simulate(n, bgp.Options{})
		paths := 0
		check := func(rt *bgp.Route) {
			if rt == nil {
				return
			}
			paths++
			if len(rt.ASPath) != cap(rt.ASPath) {
				t.Fatalf("%s: path %v has len %d and cap %d", tc.name, rt.ASPath, len(rt.ASPath), cap(rt.ASPath))
			}
		}
		for _, p := range n.AllPrefixes() {
			po := out.ByPrefix[p]
			for _, phase := range po.Phases() {
				for _, name := range n.Order {
					check(phase[name])
				}
			}
			for _, row := range po.AdjIn {
				for _, rt := range row {
					check(rt)
				}
			}
		}
		if paths < 10*len(n.AllPrefixes()) {
			t.Errorf("%s: %d routes checked over %d prefixes; the check is close to vacuous", tc.name, paths, len(n.AllPrefixes()))
		}
	}
}

// TestAllPrefixesSharedReadOnly: AllPrefixes hands every caller the slice
// Compile built, and the passes that range over it leave it alone.
func TestAllPrefixesSharedReadOnly(t *testing.T) {
	faulty, fixed := scenario.Figure2(), scenario.Figure2Correct()
	base := bgp.Compile(faulty.Topo, faulty.Files())
	n := bgp.Compile(fixed.Topo, fixed.Files())
	want := append([]netip.Prefix(nil), n.AllPrefixes()...)
	if len(want) != 3 {
		t.Fatalf("Figure 2 originates %d prefixes, want 3", len(want))
	}
	baseOut := bgp.Simulate(base, bgp.Options{})
	baseProv := bgp.BuildProvenance(base, baseOut)
	dirty := []string{"A", "C"}
	out := &bgp.Outcome{Net: n, ByPrefix: map[netip.Prefix]*bgp.PrefixOutcome{}}
	for _, p := range n.AllPrefixes() {
		out.ByPrefix[p], _, _ = bgp.ResimulatePrefix(n, baseOut.ByPrefix[p], dirty, p, bgp.Options{})
	}
	bgp.DeriveProvenance(n, out, baseOut, baseProv, dirty)
	bgp.Simulate(n, bgp.Options{})
	got := n.AllPrefixes()
	if !reflect.DeepEqual(got, want) {
		t.Errorf("AllPrefixes = %v after the passes, was %v", got, want)
	}
	if &got[0] != &n.AllPrefixes()[0] {
		t.Error("AllPrefixes rebuilt its slice")
	}
}
