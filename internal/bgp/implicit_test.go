package bgp_test

import (
	"slices"
	"testing"

	"acr/internal/bgp"
	"acr/internal/incidents"
	"acr/internal/provenance"
	"acr/internal/scenario"
)

// TestImplicitSections: a converged section stores only originations and
// the sites of sessions with a policy at either end, yet yields, node for
// node, the graph of the traced replay of every site, with the same node
// count and the same sealed lines — on the k=10 fat-tree and the bases of
// the wan-large panel. The stored nodes are the replay's nodes of the
// stored kinds, in order, with parents by the replay's IDs, which is what
// ties the IDs the build reserved to the ones the implicit part
// regenerates. Each implicit kind (imports, AS-path loop
// rejections, selections) must actually have been regenerated.
func TestImplicitSections(t *testing.T) {
	type tc struct {
		name  string
		s     *scenario.Scenario
		nodes int // the graph's node count, 0 when not pinned
	}
	cases := []tc{{"fat-tree k=10", scenario.DCN(10, scenario.GenOptions{}), 56300}}
	incs, err := incidents.GenerateCorpus(incidents.CorpusOptions{Size: 16, Seed: 3,
		WANRouters: 12, WANPoPs: 8, WANDCNs: 6, DoubleFaultShare: 0.5})
	if err != nil {
		t.Fatal(err)
	}
	for _, inc := range incs {
		cases = append(cases, tc{name: inc.ID, s: inc.Scenario})
	}

	implicit := map[provenance.Kind]int{}
	for _, c := range cases {
		n := bgp.Compile(c.s.Topo, c.s.Files())
		out := bgp.Simulate(n, bgp.Options{})
		got, want := bgp.BuildProvenance(n, out), bgp.TracedProvenance(n, out)
		if got.Len() != want.Len() || (c.nodes != 0 && got.Len() != c.nodes) {
			t.Fatalf("%s: %d nodes, the replay %d, pinned %d", c.name, got.Len(), want.Len(), c.nodes)
		}
		// storedKind reports whether a converged section stores nd.
		storedKind := func(nd *provenance.Node) bool {
			return nd.Kind == provenance.Origination ||
				(nd.Kind == provenance.Import || nd.Kind == provenance.Rejection) && bgp.PolicySite(n, nd)
		}
		for _, p := range want.Prefixes() {
			sec := got.Section(p)
			if sec == nil {
				t.Fatalf("%s %v: no section, the replay has %d nodes", c.name, p, want.Section(p).Len())
			}
			stored := map[provenance.Kind]int{}
			for i := range sec.Stored() {
				nd := &sec.Stored()[i]
				stored[nd.Kind]++
				if !out.ByPrefix[p].Converged {
					continue
				}
				if !storedKind(nd) {
					t.Fatalf("%s %v: the section stores a %v at %s from %s", c.name, p, nd.Kind, nd.Router, nd.PeerRouter)
				}
			}
			gn, wn := got.ForPrefix(p), want.ForPrefix(p)
			if len(gn) != len(wn) || len(gn) != sec.Len() {
				t.Fatalf("%s %v: %d nodes (Len %d), the replay %d", c.name, p, len(gn), sec.Len(), len(wn))
			}
			all := map[provenance.Kind]int{}
			k := 0 // the next stored node, which must be the replay's next stored kind
			for i, w := range wn {
				all[gn[i].Kind]++
				if why := nodeDiff(gn[i], w); why != "" {
					t.Fatalf("%s %v node %d (%v at %s from %s): %s", c.name, p, i, w.Kind, w.Router, w.PeerRouter, why)
				}
				if out.ByPrefix[p].Converged && !storedKind(w) {
					continue
				}
				if k >= len(sec.Stored()) || nodeDiff(&sec.Stored()[k], w) != "" {
					t.Fatalf("%s %v: stored node %d is not the replay's node %d (%v at %s from %s)", c.name, p, k, i, w.Kind, w.Router, w.PeerRouter)
				}
				k++
			}
			if k != len(sec.Stored()) {
				t.Fatalf("%s %v: %d stored nodes, the replay has %d of the stored kinds", c.name, p, len(sec.Stored()), k)
			}
			for _, id := range []int{0, len(wn) - 1} { // Node regenerates the section per call
				if g := sec.Node(id); g == nil || nodeDiff(g, wn[id]) != "" {
					t.Fatalf("%s %v: Node(%d) differs from the replay's node", c.name, p, id)
				}
			}
			if g, w := got.LinesForPrefix(p), want.LinesForPrefix(p); !slices.Equal(g, w) {
				t.Fatalf("%s %v: the sealed section covers %d lines, the replay's %d", c.name, p, len(g), len(w))
			}
			for k, v := range all {
				implicit[k] += v - stored[k]
			}
		}
	}
	t.Logf("%d networks: regenerated %d imports, %d rejections, %d selections", len(cases),
		implicit[provenance.Import], implicit[provenance.Rejection], implicit[provenance.Selection])
	for _, k := range []provenance.Kind{provenance.Import, provenance.Rejection, provenance.Selection} {
		if implicit[k] == 0 {
			t.Errorf("no %v was regenerated; the implicit part is not exercised", k)
		}
	}
}
