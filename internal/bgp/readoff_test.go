package bgp_test

import (
	"slices"
	"testing"

	"acr/internal/bgp"
	"acr/internal/incidents"
	"acr/internal/provenance"
	"acr/internal/scenario"
)

// TestReadOffMatchesReplay: provenance that reads accepted imports over
// policy-free sessions off the converged adj-in equals, node for node, the
// provenance of the traced export→import replay of every session — kind,
// router, peer, reason, lines in order, parents and route by value — on a
// fat-tree, the WAN with its export policies, the flapping Figure 2
// incident and the base of every seed-1 corpus incident. A fair share of
// the imports must actually have been read off.
func TestReadOffMatchesReplay(t *testing.T) {
	type tc struct {
		name string
		s    *scenario.Scenario
	}
	cases := []tc{
		{"fat-tree k=6", scenario.DCN(6, scenario.GenOptions{})},
		{"wan", scenario.WAN(6, 4, 3, scenario.GenOptions{FullIsolation: true})},
		{"figure2", scenario.Figure2()},
	}
	incs, err := incidents.GenerateCorpus(incidents.CorpusOptions{Size: 120, Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	for _, inc := range incs {
		cases = append(cases, tc{inc.ID, inc.Scenario})
	}

	imports, readOff, flapping := 0, 0, 0
	for _, c := range cases {
		n := bgp.Compile(c.s.Topo, c.s.Files())
		out := bgp.Simulate(n, bgp.Options{})
		flapping += len(out.FlappingPrefixes())
		got, want := bgp.BuildProvenance(n, out), bgp.TracedProvenance(n, out)
		if !slices.Equal(got.Prefixes(), want.Prefixes()) {
			t.Fatalf("%s: provenance covers %v, the replay %v", c.name, got.Prefixes(), want.Prefixes())
		}
		for _, p := range want.Prefixes() {
			gn, wn := got.ForPrefix(p), want.ForPrefix(p)
			if len(gn) != len(wn) {
				t.Fatalf("%s %v: %d nodes, the replay %d", c.name, p, len(gn), len(wn))
			}
			for i, w := range wn {
				g := gn[i]
				if g.Kind == provenance.Import {
					imports++
					if bgp.ReadOff(n, g) {
						readOff++
					}
				}
				if why := nodeDiff(g, w); why != "" {
					t.Fatalf("%s %v node %d (%v at %s from %s): %s", c.name, p, i, w.Kind, w.Router, w.PeerRouter, why)
				}
			}
		}
	}
	t.Logf("%d networks, %d flapping prefixes: %d of %d imports read off the adj-in", len(cases), flapping, readOff, imports)
	if flapping == 0 {
		t.Error("no flapping prefix among the networks; the replay of a cycle is not compared")
	}
	if readOff*4 < imports {
		t.Errorf("only %d of %d imports were read off; the comparison barely exercises it", readOff, imports)
	}
	if readOff == imports {
		t.Error("every import was read off; the traced path is not compared")
	}
}

// nodeDiff names the first field in which g differs from w, or "".
func nodeDiff(g, w *provenance.Node) string {
	switch {
	case g.Kind != w.Kind || g.Router != w.Router || g.Peer != w.Peer || g.PeerRouter != w.PeerRouter:
		return "identity " + g.Kind.String() + " at " + g.Router + " from " + g.PeerRouter
	case g.Reason != w.Reason:
		return "reason " + g.Reason + ", the replay " + w.Reason
	case !slices.Equal(g.Lines, w.Lines):
		return "lines differ"
	case !slices.Equal(g.Parents, w.Parents):
		return "parents differ"
	case !sameValue(g.Route, w.Route):
		return "route differs"
	}
	return ""
}

// sameValue compares two node routes by value, router ID included.
func sameValue(a, b provenance.RouteInfo) bool {
	if a == nil || b == nil {
		return a == nil && b == nil
	}
	ra, rb := a.(*bgp.Route), b.(*bgp.Route)
	return ra.Key() == rb.Key() && ra.PeerRID == rb.PeerRID
}
