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
// state hash and the cross-phase provenance dedup on rendered keys. The
// figures are those of the text-keyed simulator this one replaced.
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
	if got := g.Section(scenario.PrefixPoPB).Len(); got != 37 {
		t.Errorf("the flapping prefix's provenance has %d nodes, want 37", got)
	}
	if g.Len() != 81 {
		t.Errorf("the graph has %d nodes, want 81", g.Len())
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
	out := bgp.DeltaSimulate(n, baseOut, dirty, bgp.Options{})
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
