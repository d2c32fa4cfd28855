package bgp_test

import (
	"slices"
	"testing"

	"acr/internal/bgp"
	"acr/internal/incidents"
	"acr/internal/scenario"
)

// implicitCase is one network whose provenance is compared with the traced
// replay; len pins the graph's derivation count, 0 when not pinned.
type implicitCase struct {
	name string
	net  func() *bgp.Net
	len  int
}

func compileCase(s *scenario.Scenario) func() *bgp.Net {
	return func() *bgp.Net { return bgp.Compile(s.Topo, s.Files()) }
}

// corpusCases adds the base of every incident of the corpus opts generates.
func corpusCases(t *testing.T, cases []implicitCase, opts incidents.CorpusOptions) []implicitCase {
	t.Helper()
	incs, err := incidents.GenerateCorpus(opts)
	if err != nil {
		t.Fatal(err)
	}
	for _, inc := range incs {
		cases = append(cases, implicitCase{inc.ID, compileCase(inc.Scenario), 0})
	}
	return cases
}

// compareImplicit checks that each case's sealed lines equal, prefix by
// prefix, those of the traced export→import replay of every session, over
// the same prefixes and with the same derivation count. It returns the
// replay's session sites, how many of them the built graph left to its
// implicit part, and the flapping prefixes compared.
func compareImplicit(t *testing.T, cases []implicitCase) (sessions, implicit, flapping int) {
	t.Helper()
	for _, c := range cases {
		n := c.net()
		out := bgp.Simulate(n, bgp.Options{})
		got, want := bgp.BuildProvenance(n, out), bgp.TracedProvenance(n, out)
		if got.Len() != want.Len() || (c.len != 0 && got.Len() != c.len) {
			t.Fatalf("%s: %d derivations, the replay %d, pinned %d", c.name, got.Len(), want.Len(), c.len)
		}
		if !slices.Equal(got.Prefixes(), want.Prefixes()) {
			t.Fatalf("%s: provenance covers %v, the replay %v", c.name, got.Prefixes(), want.Prefixes())
		}
		for _, p := range want.Prefixes() {
			g, w := got.Section(p), want.Section(p)
			if g.Len() != w.Len() {
				t.Fatalf("%s %v: %d derivations, the replay %d", c.name, p, g.Len(), w.Len())
			}
			if gl, wl := g.Lines(), w.Lines(); !slices.Equal(gl, wl) {
				t.Fatalf("%s %v: the sealed section covers %d lines, the replay's %d", c.name, p, len(gl), len(wl))
			}
			if !out.ByPrefix[p].Converged {
				flapping++
			}
			for _, site := range w.Stored() {
				if site.Peer.IsValid() {
					sessions++
				}
			}
			implicit += len(w.Stored()) - len(g.Stored())
		}
	}
	t.Logf("%d networks, %d flapping prefixes: %d of %d session sites implicit", len(cases), flapping, implicit, sessions)
	return sessions, implicit, flapping
}

// TestReadOffMatchesReplay: a converged section stores only its
// originations and the sites of sessions with a policy at either end, and
// its implicit part adds the lines of the other session sites, read off
// the converged adj-in, at seal. Its sealed lines must equal those of the
// traced replay (compareImplicit) on a k=6 fat-tree, the WAN with its
// export policies, the flapping Figure 2 incident and the base of every
// seed-1 corpus incident. A fair share of the session sites must come from
// the implicit part, and some must still be stored.
func TestReadOffMatchesReplay(t *testing.T) {
	cases := []implicitCase{
		{"fat-tree k=6", compileCase(scenario.DCN(6, scenario.GenOptions{})), 0},
		{"wan", compileCase(scenario.WAN(6, 4, 3, scenario.GenOptions{FullIsolation: true})), 0},
		{"figure2", compileCase(scenario.Figure2()), 0},
	}
	cases = corpusCases(t, cases, incidents.CorpusOptions{Size: 120, Seed: 1})
	sessions, implicit, flapping := compareImplicit(t, cases)
	if flapping == 0 {
		t.Error("no flapping prefix among the networks; the replay of a cycle is not compared")
	}
	if implicit*4 < sessions {
		t.Errorf("only %d of %d session sites are implicit; the comparison barely exercises the implicit part", implicit, sessions)
	}
	if implicit == sessions {
		t.Error("every session site is implicit; no stored session site is compared")
	}
}

// TestImplicitSections: the implicit part yields the replay's sealed lines,
// prefixes and derivation count (compareImplicit) on the k=10 fat-tree,
// whose count is pinned, the bases of the wan-large panel, and a chain
// whose only trace of one session is an AS-path loop rejection. A fair
// share of the session sites must come from the implicit part, and some
// must still be stored.
func TestImplicitSections(t *testing.T) {
	cases := []implicitCase{
		{"fat-tree k=10", compileCase(scenario.DCN(10, scenario.GenOptions{})), 56300},
		{"as-reuse chain", func() *bgp.Net { return bgp.ASReuseChain(t) }, 6},
	}
	cases = corpusCases(t, cases, incidents.CorpusOptions{Size: 16, Seed: 3,
		WANRouters: 12, WANPoPs: 8, WANDCNs: 6, DoubleFaultShare: 0.5})
	sessions, implicit, _ := compareImplicit(t, cases)
	if implicit*4 < sessions {
		t.Errorf("only %d of %d session sites are implicit; the comparison barely exercises the implicit part", implicit, sessions)
	}
	if implicit == sessions {
		t.Error("every session site is implicit; no stored session site is compared")
	}
}
