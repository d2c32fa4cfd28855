package acr_test

import (
	"math/rand"
	"net/netip"
	"reflect"
	"sort"
	"testing"

	"acr"
	"acr/internal/bgp"
	"acr/internal/core"
	"acr/internal/netcfg"
	"acr/internal/provenance"
	"acr/internal/sbfl"
	"acr/internal/scenario"
	"acr/internal/tmplreg"
	"acr/internal/verify"
)

// wanBase is the generation benchmark's substrate: the 26-device WAN
// (12 routers, 8 PoPs, 6 DCNs) with one prefix-list entry missing.
func wanBase() *acr.Case { return brokenWAN(12, 8, 6) }

// indexCases are Figure 2, a 24-incident corpus slice and the WAN base.
func indexCases(t *testing.T) map[string]*acr.Case {
	t.Helper()
	cases := map[string]*acr.Case{"figure2": acr.Figure2Incident(), "wan26": wanBase()}
	incs, err := acr.GenerateCorpus(acr.CorpusOptions{Size: 24, Seed: 3})
	if err != nil {
		t.Fatal(err)
	}
	for _, inc := range incs {
		cases[inc.ID] = acr.IncidentCase(inc)
	}
	return cases
}

// definitionalLines is the oracle for the sealed line index: filter the
// prefix's derivations' lines to one device (all devices when device is
// empty), deduplicate, sort.
func definitionalLines(g *provenance.Graph, p netip.Prefix, device string) []netcfg.LineRef {
	seen := map[netcfg.LineRef]bool{}
	var out []netcfg.LineRef
	for _, n := range g.ForPrefix(p) {
		for _, l := range n.Lines {
			if (device == "" || l.Device == device) && !seen[l] {
				seen[l] = true
				out = append(out, l)
			}
		}
	}
	sort.Slice(out, func(i, j int) bool { return out[i].Less(out[j]) })
	return out
}

// TestLineIndexMatchesDefinition compares the provenance graph's sealed
// index with the definitional filter-and-sort for every (verdict prefix,
// device).
func TestLineIndexMatchesDefinition(t *testing.T) {
	for name, c := range indexCases(t) {
		iv := verify.NewIncremental(c.Topo, c.Configs, c.Intents, bgp.Options{})
		g := iv.BaseProvenance()
		pairs := 0
		for _, v := range iv.BaseReport().Verdicts {
			if !v.Prefix.IsValid() {
				continue
			}
			if got, want := g.LinesForPrefix(v.Prefix), definitionalLines(g, v.Prefix, ""); !sameLines(got, want) {
				t.Fatalf("%s: LinesForPrefix(%v) = %v, want %v", name, v.Prefix, got, want)
			}
			for _, device := range iv.BaseNet().Order {
				pairs++
				if got, want := g.LinesAtDevice(v.Prefix, device), definitionalLines(g, v.Prefix, device); !sameLines(got, want) {
					t.Fatalf("%s: LinesAtDevice(%v, %s) = %v, want %v", name, v.Prefix, device, got, want)
				}
			}
		}
		if pairs == 0 {
			t.Fatalf("%s: no (verdict prefix, device) pair to compare", name)
		}
	}
}

func sameLines(a, b []netcfg.LineRef) bool {
	return len(a) == len(b) && (len(a) == 0 || reflect.DeepEqual(a, b))
}

// generateSweep is one generation sweep as the engine runs it: every
// default template at each of the top-24 suspicious lines.
func generateSweep(ctx *core.Context, tmpls []core.Template) int {
	updates := 0
	for _, sc := range sbfl.Suspicious(ctx.Ranks, 24, 0.45) {
		for _, tmpl := range tmpls {
			updates += len(tmpl.Generate(ctx, sc.Line))
		}
	}
	return updates
}

// sweepContexts verifies the WAN base once and returns a constructor of
// fresh localization Contexts over it, each with an empty solve memo.
func sweepContexts() func() *core.Context {
	c := wanBase()
	p := core.Problem{Topo: c.Topo, Configs: c.Configs, Intents: c.Intents}
	iv := verify.NewIncremental(p.Topo, p.Configs, p.Intents, bgp.Options{})
	return func() *core.Context {
		return core.NewContext(p, iv, sbfl.Tarantula, rand.New(rand.NewSource(1)))
	}
}

// TestGenerateSweepAllocBudget is ROADMAP item 1's allocation budget on
// generation. Before the provenance line index and the per-(device, list)
// solve memo, one sweep over the WAN base cost 44,294 allocations. The
// budget is a tenth of that, and it is charged the construction of a
// fresh Context as well, so no run benefits from an earlier run's memo.
func TestGenerateSweepAllocBudget(t *testing.T) {
	const budget = 4429
	fresh := sweepContexts()
	tmpls := tmplreg.Default.EngineTemplates()
	if generateSweep(fresh(), tmpls) == 0 {
		t.Fatal("the sweep proposed nothing; the budget is vacuous")
	}
	if got := testing.AllocsPerRun(5, func() { generateSweep(fresh(), tmpls) }); got > budget {
		t.Errorf("a fresh Context and one generate sweep on the WAN base: %.0f allocations, budget %d", got, budget)
	}
}

// wanPreserves returns the two ways to preserve the version that repairs
// the WAN base (the deleted prefix-list entry put back): from scratch on its
// texts, as the base version and a resumed population are, and derived from
// the base's verifier, as the engine preserves a kept candidate. Each
// builds the verifier and its localization Context.
func wanPreserves(t testing.TB) (scratch, derived func() *core.Context) {
	c, fixed := wanBase(), acr.WANBackbone(12, 8, 6, acr.GenOptions{StaticOriginEvery: 1, FullIsolation: true})
	var edits []netcfg.EditSet
	for d, cfg := range c.Configs {
		if from, to := cfg.Lines(), fixed.Configs[d].Lines(); !reflect.DeepEqual(from, to) {
			edits = append(edits, editsBetween(d, from, to))
		}
	}
	if len(edits) != 1 {
		t.Fatalf("the WAN base differs from its repair on %d devices, want 1", len(edits))
	}
	p := core.Problem{Topo: c.Topo, Configs: c.Configs, Intents: c.Intents}
	base := verify.NewIncremental(p.Topo, p.Configs, p.Intents, bgp.Options{})
	context := func(iv *verify.Incremental) *core.Context {
		return core.NewContext(p, iv, sbfl.Tarantula, rand.New(rand.NewSource(1)))
	}
	scratch = func() *core.Context {
		return context(verify.NewIncremental(p.Topo, fixed.Configs, p.Intents, bgp.Options{}))
	}
	derived = func() *core.Context {
		iv := base.Clone()
		if err := iv.Commit(edits); err != nil {
			t.Fatal(err)
		}
		return context(iv)
	}
	return scratch, derived
}

// TestPreserveAllocBudget is the allocation budget on preservation: a
// version derived from its parent's verifier costs at most half the
// allocations of the same version verified from scratch, and the scratch
// preserve itself stays near its measurement — 17,381 allocations with
// routes compared by value (26,406 when every hop rendered and interned a
// text key), 5,084 derived.
func TestPreserveAllocBudget(t *testing.T) {
	const scratchBudget = 18500
	scratch, derived := wanPreserves(t)
	if s, d := scratch(), derived(); s.Report.NumFailed() != 0 || d.Report.NumFailed() != 0 {
		t.Fatalf("the repaired WAN fails %d intents from scratch, %d derived; want 0", s.Report.NumFailed(), d.Report.NumFailed())
	}
	fromScratch := testing.AllocsPerRun(5, func() { scratch() })
	fromParent := testing.AllocsPerRun(5, func() { derived() })
	t.Logf("preserving the repaired WAN: %.0f allocations from scratch, %.0f derived from the base", fromScratch, fromParent)
	if fromScratch > scratchBudget {
		t.Errorf("a scratch preserve allocates %.0f times, budget %d", fromScratch, scratchBudget)
	}
	if fromParent > fromScratch/2 {
		t.Errorf("a derived preserve allocates %.0f times, over half of a scratch preserve's %.0f", fromParent, fromScratch)
	}
}

// TestSimulateAllocBudget is the allocation budget on a base version's
// control plane: compile, cold Simulate and BuildProvenance of the k=6
// fat-tree (45 devices). With a rendered, interned key per hop and three
// route copies it cost 71,801 allocations; compared by value, with one or
// two copies per hop and no candidate slice per activation, it measures
// 47,672. The budget is three quarters of the former.
func TestSimulateAllocBudget(t *testing.T) {
	const budget = 71801 * 3 / 4
	s := scenario.DCN(6, scenario.GenOptions{})
	files := s.Files()
	var nodes int
	got := testing.AllocsPerRun(3, func() {
		n := bgp.Compile(s.Topo, files)
		out := bgp.Simulate(n, bgp.Options{})
		if !out.Converged() {
			t.Fatal("the fat-tree did not converge")
		}
		nodes = bgp.BuildProvenance(n, out).Len()
	})
	t.Logf("compile, simulate and derive provenance (%d nodes) on fat-tree k=6: %.0f allocations, budget %d", nodes, got, budget)
	if nodes == 0 {
		t.Fatal("no provenance derived; the budget is vacuous")
	}
	if got > budget {
		t.Errorf("a cold base version on fat-tree k=6 allocates %.0f times, budget %d", got, budget)
	}
}
