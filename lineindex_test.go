package acr_test

import (
	"math/rand"
	"net/netip"
	"reflect"
	"runtime"
	"sort"
	"testing"

	"acr"
	"acr/internal/bgp"
	"acr/internal/core"
	"acr/internal/netcfg"
	"acr/internal/provenance"
	"acr/internal/sbfl"
	"acr/internal/scenario"
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

// tracedProvenance is bgp.BuildProvenance with every session replayed
// through the traced export→import pipeline: the outcomes are handed over
// without their AdjIn, so no section has an implicit part and every
// derivation is stored as a site with its lines.
func tracedProvenance(n *bgp.Net, out *bgp.Outcome) *provenance.Graph {
	bare := &bgp.Outcome{Net: out.Net, ByPrefix: make(map[netip.Prefix]*bgp.PrefixOutcome, len(out.ByPrefix))}
	for p, po := range out.ByPrefix {
		cp := *po
		cp.AdjIn = nil
		bare.ByPrefix[p] = &cp
	}
	return bgp.BuildProvenance(n, bare)
}

// definitionalLines is the oracle for a prefix's sealed line set: the
// lines of the sites traced stores for p, deduplicated and sorted.
func definitionalLines(traced *provenance.Graph, p netip.Prefix) []netcfg.LineRef {
	seen := map[netcfg.LineRef]bool{}
	var out []netcfg.LineRef
	if sec := traced.Section(p); sec != nil {
		for _, site := range sec.Stored() {
			for _, l := range site.Lines {
				if !seen[l] {
					seen[l] = true
					out = append(out, l)
				}
			}
		}
	}
	sort.Slice(out, func(i, j int) bool { return out[i].Less(out[j]) })
	return out
}

// TestLineIndexMatchesDefinition compares each verdict prefix's sealed
// line set with the definitional union of the traced replay's site lines:
// LinesForPrefix renders it, and Has, which the prefix-list solve asks per
// (device, line), answers it for every line of every device.
func TestLineIndexMatchesDefinition(t *testing.T) {
	for name, c := range indexCases(t) {
		iv := verify.NewIncremental(c.Topo, c.Configs, c.Intents, bgp.Options{})
		g, traced := iv.BaseProvenance(), tracedProvenance(iv.BaseNet(), iv.BaseOutcome())
		asked := 0
		for _, v := range iv.BaseReport().Verdicts {
			sec := g.Section(v.Prefix)
			if !v.Prefix.IsValid() || sec == nil {
				continue
			}
			want := definitionalLines(traced, v.Prefix)
			if got := g.LinesForPrefix(v.Prefix); !sameLines(got, want) {
				t.Fatalf("%s: LinesForPrefix(%v) = %v, want %v", name, v.Prefix, got, want)
			}
			in := map[netcfg.LineRef]bool{}
			for _, l := range want {
				in[l] = true
			}
			set := sec.LineSet()
			for _, device := range iv.BaseNet().Order {
				for line := 1; line <= len(iv.BaseConfigs()[device].Lines()); line++ {
					asked++
					if l := (netcfg.LineRef{Device: device, Line: line}); set.Has(l) != in[l] {
						t.Fatalf("%s: the set of %v answers Has(%v) = %v", name, v.Prefix, l, !in[l])
					}
				}
			}
		}
		if asked == 0 {
			t.Fatalf("%s: no (verdict prefix, line) pair to compare", name)
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

// TestGenerateSweepAllocBudget is the allocation budget on generation,
// charged the construction of a fresh Context as well, so no run benefits
// from an earlier run's memo. Before the provenance line index and the
// per-(device, list) solve memo, one sweep over the WAN base cost 44,294
// allocations; after, 3,280; with per-file indexes, text built without fmt
// and solve constraints read off the sealed line sets, 1,044. The budget is
// 1,044 with 10 % headroom.
func TestGenerateSweepAllocBudget(t *testing.T) {
	const budget = 1044 * 11 / 10
	fresh := sweepContexts()
	tmpls := core.BuiltinTemplates()
	if generateSweep(fresh(), tmpls) == 0 {
		t.Fatal("the sweep proposed nothing; the budget is vacuous")
	}
	if got := testing.AllocsPerRun(5, func() { generateSweep(fresh(), tmpls) }); got > budget {
		t.Errorf("a fresh Context and one generate sweep on the WAN base: %.0f allocations, budget %d", got, budget)
	}
}

// wanRepair returns the WAN base, its repair and the edits between them.
func wanRepair(t testing.TB) (base, fixed *acr.Case, edits []netcfg.EditSet) {
	base, fixed = wanBase(), acr.WANBackbone(12, 8, 6, acr.GenOptions{StaticOriginEvery: 1, FullIsolation: true})
	for d, cfg := range base.Configs {
		if from, to := cfg.Lines(), fixed.Configs[d].Lines(); !reflect.DeepEqual(from, to) {
			edits = append(edits, editsBetween(d, from, to))
		}
	}
	if len(edits) != 1 {
		t.Fatalf("the WAN base differs from its repair on %d devices, want 1", len(edits))
	}
	return base, fixed, edits
}

// wanPreserves returns the two ways to preserve the version that repairs
// the WAN base (the deleted prefix-list entry put back): from scratch on its
// texts, as the base version and a resumed population are, and derived from
// the base's verifier, as the engine preserves a kept candidate. Each
// builds the verifier and its localization Context.
func wanPreserves(t testing.TB) (scratch, derived func() *core.Context) {
	c, fixed, edits := wanRepair(t)
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
// text key), 5,084 derived; 13,301 and 4,532 once a hop copies a route
// once and policy-free imports are read off the converged adj-in; 7,358
// and 2,568 once hops copy into a per-prefix arena, the state digest is
// kept on write and parent lists are carved per section; 7,198 and 2,022
// before, 6,826 and 1,948 after a converged section stopped storing its
// selections and policy-free session sites; 6,700 and 1,440 before, 3,119
// and 948 after per-file indexes, reasons kept as codes, traces in one
// allocation and untraced policy matches collecting no lines; 2,936 and
// 940 before, 2,545 and 840 after stored sites stopped holding routes and
// their lines were carved per version. The scratch budget is 2,545 with
// 10 % headroom.
func TestPreserveAllocBudget(t *testing.T) {
	const scratchBudget = 2545 * 11 / 10
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
// two copies per hop and no candidate slice per activation, 47,672. With
// one copy per hop, per-prefix state in indexed rows and the policy-free
// imports read off the converged adj-in instead of replayed, 22,533. With
// hops copying routes and paths into a per-prefix arena, the digest kept
// on write, snapshots as slices and parent lists carved per section, it
// measured 3,324, later 2,803; with a converged section storing only its
// originations and policy-session sites, 1,868; with each peer's session
// lines built once by Parse rather than per session, 1,434; with stored
// sites holding no route and their lines carved per version, 1,212. The
// budget is 1,212 with 10 % headroom.
func TestSimulateAllocBudget(t *testing.T) {
	const budget = 1212 * 11 / 10
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

// TestProvenanceBytesBudget is the byte budget on a base version's
// provenance: BuildProvenance of the k=10 fat-tree (126 devices, 56,300
// derivations), measured as the growth of runtime.MemStats.TotalAlloc per
// call. With a stored node for every derivation it allocated 11.07 MB;
// with nodes stored only for originations and policy sessions, 0.086 MB;
// with sites holding no route and their lines carved per version,
// 0.033 MB. The budget is 0.033 MB with 10 % headroom.
func TestProvenanceBytesBudget(t *testing.T) {
	const budget = 0.033e6 * 1.1
	s := scenario.DCN(10, scenario.GenOptions{})
	n := bgp.Compile(s.Topo, s.Files())
	out := bgp.Simulate(n, bgp.Options{})
	if bgp.BuildProvenance(n, out).Len() == 0 {
		t.Fatal("no provenance derived; the budget is vacuous")
	}
	const runs = 5
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	for i := 0; i < runs; i++ {
		bgp.BuildProvenance(n, out)
	}
	runtime.ReadMemStats(&after)
	got := float64(after.TotalAlloc-before.TotalAlloc) / runs
	t.Logf("BuildProvenance on fat-tree k=10: %.3f MB per call, budget %.3f MB", got/1e6, budget/1e6)
	if got > budget {
		t.Errorf("BuildProvenance on fat-tree k=10 allocates %.3f MB per call, budget %.3f MB", got/1e6, budget/1e6)
	}
}

// TestDeriveProvenanceBytesBudget is the byte budget on provenance over
// sessions with policies: on the WAN base (26 devices, an export policy
// toward the PoPs on every backbone router), BuildProvenance of the base plus the DeriveProvenance of the
// Commit that repairs it, measured as the growth of
// runtime.MemStats.TotalAlloc per pair. With a node per derivation holding
// its route, parents and rejection reason it allocated 0.152 MB; with sites
// holding no route and their lines carved per version, 0.078 MB. The
// budget is 0.078 MB with 10 % headroom.
func TestDeriveProvenanceBytesBudget(t *testing.T) {
	const budget = 0.078e6 * 1.1
	c, _, edits := wanRepair(t)
	base := verify.NewIncremental(c.Topo, c.Configs, c.Intents, bgp.Options{})
	iv := base.Clone()
	if err := iv.Commit(edits); err != nil {
		t.Fatal(err)
	}
	bn, bout, n, out := base.BaseNet(), base.BaseOutcome(), iv.BaseNet(), iv.BaseOutcome()
	dirty := []string{edits[0].Device}
	pair := func() *provenance.Graph {
		return bgp.DeriveProvenance(n, out, bout, bgp.BuildProvenance(bn, bout), dirty)
	}
	if pair().Len() != iv.BaseProvenance().Len() {
		t.Fatal("the derived provenance is not the committed version's; the budget measures something else")
	}
	const runs = 5
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	for i := 0; i < runs; i++ {
		pair()
	}
	runtime.ReadMemStats(&after)
	got := float64(after.TotalAlloc-before.TotalAlloc) / runs
	t.Logf("BuildProvenance + DeriveProvenance on the WAN base: %.3f MB per pair, budget %.3f MB", got/1e6, budget/1e6)
	if got > budget {
		t.Errorf("BuildProvenance + DeriveProvenance on the WAN base allocates %.3f MB per pair, budget %.3f MB", got/1e6, budget/1e6)
	}
}

// TestSimulateBytesBudget is the byte budget on a base version's control
// plane: one cold Simulate of the clean k=10 fat-tree (126 devices),
// measured as the growth of runtime.MemStats.TotalAlloc per call. With a
// copy of the sender's best route in every receiving session's adj-in slot
// it allocated 10.63 MB; sessions without a policy at either end now share
// one advertisement per activation. The budget is 40% of the old figure.
func TestSimulateBytesBudget(t *testing.T) {
	const budget = 10.63e6 * 0.4
	s := scenario.DCN(10, scenario.GenOptions{})
	n := bgp.Compile(s.Topo, s.Files())
	if !bgp.Simulate(n, bgp.Options{}).Converged() {
		t.Fatal("the fat-tree did not converge")
	}
	const runs = 5
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	for i := 0; i < runs; i++ {
		bgp.Simulate(n, bgp.Options{})
	}
	runtime.ReadMemStats(&after)
	got := float64(after.TotalAlloc-before.TotalAlloc) / runs
	t.Logf("Simulate on fat-tree k=10: %.2f MB per call, budget %.2f MB", got/1e6, budget/1e6)
	if got > budget {
		t.Errorf("Simulate on fat-tree k=10 allocates %.2f MB per call, budget %.2f MB", got/1e6, budget/1e6)
	}
}
