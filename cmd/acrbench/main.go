// Command acrbench regenerates the paper's tables and figures as text
// reports (the same computations as the root bench_test.go benchmarks,
// formatted for reading).
//
// Usage:
//
//	acrbench -exp table1|fig1|fig2|fig3|fig4|ablations|staticprior|hypothesis|templates|all
//	         [-size 48] [-seed 1] [-short]
//	         [-json-templates BENCH_templates.json]
//
// Performance is measured by the benchmark module in bench/ (see
// bench/README.md), not here.
package main

import (
	"flag"
	"fmt"
	"os"
	"sort"
	"time"

	"acr"
	"acr/internal/core"
	"acr/internal/incidents"
	"acr/internal/netcfg"
	"acr/internal/sbfl"
	"acr/internal/scenario"
)

// flagShort selects smaller workloads.
var flagShort bool

func main() {
	exp := flag.String("exp", "all", "experiment: table1, fig1, fig2, fig3, fig4, ablations, staticprior, hypothesis, templates, all")
	size := flag.Int("size", 48, "corpus size for corpus-driven experiments")
	seed := flag.Int64("seed", 1, "corpus seed")
	flag.BoolVar(&flagShort, "short", false, "smaller workloads")
	flag.StringVar(&flagJSONTemplates, "json-templates", "BENCH_templates.json", "machine-readable output path for -exp templates (empty = don't write)")
	flag.Parse()
	run := func(name string, f func(int, int64)) {
		if *exp == name || *exp == "all" {
			fmt.Printf("==== %s ====\n", name)
			f(*size, *seed)
			fmt.Println()
		}
	}
	ran := false
	for _, e := range []struct {
		name string
		f    func(int, int64)
	}{
		{"table1", table1},
		{"fig1", fig1},
		{"fig2", fig2},
		{"fig3", fig3},
		{"fig4", fig4},
		{"ablations", ablations},
		{"staticprior", staticPrior},
		{"hypothesis", hypothesis},
		{"templates", templatesExp},
	} {
		if *exp == e.name || *exp == "all" {
			ran = true
		}
		run(e.name, e.f)
	}
	if !ran {
		fmt.Fprintf(os.Stderr, "acrbench: unknown experiment %q\n", *exp)
		os.Exit(2)
	}
}

func corpus(size int, seed int64) []*acr.Incident {
	incs, err := acr.GenerateCorpus(acr.CorpusOptions{Size: size, Seed: seed})
	if err != nil {
		fmt.Fprintln(os.Stderr, "acrbench:", err)
		os.Exit(1)
	}
	return incs
}

// table1 regenerates Table 1: the misconfiguration-type distribution.
func table1(size int, seed int64) {
	incs := corpus(size, seed)
	counts := map[acr.ErrorClass]int{}
	multi := map[acr.ErrorClass]int{}
	for _, inc := range incs {
		counts[inc.Class]++
		if inc.LinesChanged > 1 {
			multi[inc.Class]++
		}
	}
	fmt.Printf("%-8s %-42s %-6s %8s %9s %6s\n", "Configs", "Types", "Lines", "Paper", "Corpus", "Multi")
	for _, ci := range incidents.Table1 {
		n := counts[ci.Class]
		fmt.Printf("%-8s %-42s %-6s %7.1f%% %8.1f%% %6d\n",
			ci.Category, ci.Name, ci.Lines, ci.Ratio*100, 100*float64(n)/float64(len(incs)), multi[ci.Class])
	}
}

// fig1 regenerates Figure 1: resolving time, manual model vs measured ACR.
func fig1(size int, seed int64) {
	incs := corpus(size, seed)
	var manual, auto []float64
	repaired, visible := 0, 0
	for _, inc := range incs {
		manual = append(manual, inc.ManualMinutes)
		start := time.Now()
		r := acr.RunIncident(inc, acr.RepairOptions{})
		if r.BaseFailing == 0 {
			continue
		}
		visible++
		if r.Feasible {
			repaired++
			auto = append(auto, time.Since(start).Seconds())
		}
	}
	sort.Float64s(manual)
	sort.Float64s(auto)
	over30 := 0
	for _, m := range manual {
		if m > 30 {
			over30++
		}
	}
	fmt.Printf("manual model (n=%d): median=%.1f min  p90=%.1f min  max=%.0f min  >30min=%.1f%%  (paper: 16.6%% over 30 min, max >5h)\n",
		len(manual), q(manual, 0.5), q(manual, 0.9), manual[len(manual)-1], 100*float64(over30)/float64(len(manual)))
	fmt.Printf("ACR measured (n=%d repaired of %d visible): median=%.2f s  p90=%.2f s  max=%.2f s\n",
		len(auto), visible, q(auto, 0.5), q(auto, 0.9), q(auto, 1.0))
	fmt.Println("cumulative manual-time distribution (minutes):")
	for _, p := range []float64{0.25, 0.5, 0.75, 0.9, 0.95, 0.99, 1.0} {
		fmt.Printf("  p%02.0f = %8.1f\n", p*100, q(manual, p))
	}
}

func q(sorted []float64, p float64) float64 {
	if len(sorted) == 0 {
		return 0
	}
	idx := int(p * float64(len(sorted)-1))
	return sorted[idx]
}

// fig2 replays the §5 walk-through with narration.
func fig2(int, int64) {
	c := acr.Figure2Incident()
	rep := acr.Verify(c)
	fmt.Printf("incident: %d/%d intents failing\n", rep.NumFailed(), len(rep.Verdicts))
	for _, v := range rep.Failed() {
		fmt.Printf("  FAIL %s: %s\n", v.Intent, v.Reason)
	}
	out, err := acr.Simulate(c)
	if err != nil {
		fmt.Println("parse problems:", err)
	}
	fmt.Print(out.Describe())
	fmt.Println("\nstep 1 — localize (Tarantula, router A shown as in Figure 2b):")
	scores := acr.Localize(c)
	for _, s := range scores {
		if s.Line.Device != "A" {
			continue
		}
		fmt.Printf("  A:%2d susp=%.2f  %s\n", s.Line.Line, s.Susp, c.Configs["A"].Line(s.Line.Line))
	}
	fmt.Println("\nstep 2+3 — fix and validate (engine run):")
	res := acr.Repair(c, acr.RepairOptions{Strategy: core.BruteForce})
	fmt.Print(res.Summary())
	for _, d := range res.Diffs {
		fmt.Println(d)
	}
	repaired := &acr.Case{Name: "repaired", Topo: c.Topo, Configs: res.FinalConfigs, Intents: c.Intents}
	repOut, _ := acr.Simulate(repaired)
	fmt.Printf("after repair: %d failing, flapping=%v\n",
		acr.Verify(repaired).NumFailed(), repOut.FlappingPrefixes())
}

// fig3 regenerates the search-space comparison.
func fig3(int, int64) {
	type tc struct {
		name string
		mk   func() *acr.Case
	}
	cases := []tc{
		{"figure2", acr.Figure2Incident},
		{"wan-6x3x2", func() *acr.Case { return brokenWAN(6, 3, 2) }},
		{"wan-10x5x4", func() *acr.Case { return brokenWAN(10, 5, 4) }},
		{"wan-14x7x5", func() *acr.Case { return brokenWAN(14, 7, 5) }},
	}
	fmt.Printf("%-12s %8s %14s %10s %12s %12s\n", "network", "lines", "MetaProv(N)", "AED(2^N)", "ACR(gen)", "ACR(valid)")
	for _, t := range cases {
		c := t.mk()
		lines := 0
		for _, cfg := range c.Configs {
			lines += cfg.NumLines()
		}
		mp := acr.MetaProvRepair(t.mk())
		aed := acr.AEDRepair(t.mk(), acr.AEDOptions{MaxCandidates: 1})
		res := acr.Repair(c, acr.RepairOptions{Strategy: core.BruteForce})
		gen := 0
		for _, l := range res.Logs {
			gen += l.Generated
		}
		fmt.Printf("%-12s %8d %14d %10s %12d %12d\n",
			t.name, lines, mp.SearchSpace, fmt.Sprintf("2^%d", aed.SearchSpaceLog2), gen, res.CandidatesValidated)
	}
}

// brokenWAN injects an isolation leak (missing DCN prefix-list entry), a
// fault whose provenance grows with network size.
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

// fig4 runs the workflow over a corpus and prints aggregate behavior.
func fig4(size int, seed int64) {
	incs := corpus(size, seed)
	var results []*acr.IncidentRunResult
	perClass := map[acr.ErrorClass][2]int{} // repaired, visible
	for _, inc := range incs {
		r := acr.RunIncident(inc, acr.RepairOptions{})
		results = append(results, r)
		pc := perClass[inc.Class]
		if r.BaseFailing > 0 {
			pc[1]++
			if r.Feasible {
				pc[0]++
			}
		}
		perClass[inc.Class] = pc
	}
	agg := incidents.Aggregate(results)
	fmt.Printf("corpus: %d incidents, %d visible, %d repaired\n", agg.Total, agg.Visible, agg.Repaired)
	fmt.Printf("localization: top1=%d top5=%d top10=%d of %d\n", agg.Top1, agg.Top5, agg.Top10, agg.Visible)
	fmt.Printf("effort: mean iterations=%.2f, mean candidates validated=%.1f\n", agg.MeanIterations, agg.MeanValidated)
	fmt.Printf("robustness: improved-only=%d timed-out=%d candidates-panicked=%d\n",
		agg.Improved, agg.TimedOut, agg.CandidatesPanicked)
	fmt.Println("per-class repair rate:")
	for _, ci := range incidents.Table1 {
		pc := perClass[ci.Class]
		fmt.Printf("  %-42s %d/%d\n", ci.Name, pc[0], pc[1])
	}
}

// ablations prints the design-choice comparisons of DESIGN.md §5.
func ablations(size int, seed int64) {
	incs := corpus(min(size, 18), seed)
	fmt.Println("suspiciousness formulas (ground-truth rank over corpus):")
	for _, f := range []acr.Formula{acr.Tarantula, acr.Ochiai, acr.Jaccard, acr.DStar} {
		top1, top5, top10 := 0, 0, 0
		for _, inc := range incs {
			ranks := acr.LocalizeWith(acr.IncidentCase(inc), f)
			best := 0
			for _, l := range inc.Scenario.FaultyLines {
				if r := sbfl.RankOf(ranks, l); r > 0 && (best == 0 || r < best) {
					best = r
				}
			}
			if best == 1 {
				top1++
			}
			if best >= 1 && best <= 5 {
				top5++
			}
			if best >= 1 && best <= 10 {
				top10++
			}
		}
		fmt.Printf("  %-10s top1=%2d top5=%2d top10=%2d (of %d)\n", f.Name, top1, top5, top10, len(incs))
	}
	fmt.Println("generation strategy on figure2:")
	for _, s := range []struct {
		name string
		st   core.Strategy
	}{{"bruteforce", core.BruteForce}, {"evolutionary", core.Evolutionary}} {
		res := acr.Repair(acr.Figure2Incident(), acr.RepairOptions{Strategy: s.st, Seed: 11})
		fmt.Printf("  %-12s feasible=%v iterations=%d validated=%d\n", s.name, res.Feasible, res.Iterations, res.CandidatesValidated)
	}
	fmt.Println("validation mode on figure2 (prefix simulations during repair):")
	for _, m := range []struct {
		name string
		full bool
	}{{"incremental", false}, {"full", true}} {
		res := acr.Repair(acr.Figure2Incident(), acr.RepairOptions{Strategy: core.BruteForce, FullValidation: m.full})
		fmt.Printf("  %-12s prefix-sims=%d intent-checks=%d\n", m.name, res.PrefixSimulations, res.IntentChecks)
	}
	fmt.Println("baselines on figure2:")
	mp := acr.MetaProvRepair(acr.Figure2Incident())
	fmt.Printf("  %s\n", mp.Summary())
	aed := acr.AEDRepair(acr.Figure2Incident(), acr.AEDOptions{})
	fmt.Printf("  %s\n", aed.Summary())
}

// staticPrior quantifies the static-analysis localization prior: per
// incident, a repair with the prior vs the ablated run, with the pruning
// counters that explain the saving (candidates skipped, iterations saved).
func staticPrior(size int, seed int64) {
	incs := corpus(min(size, 24), seed)
	fmt.Printf("%-34s %6s %12s %12s %10s %10s %8s\n",
		"incident", "diags", "validated", "(no prior)", "iters", "(no prior)", "pruned")
	totOn, totOff, saved := 0, 0, 0
	for _, inc := range incs {
		c := acr.IncidentCase(inc)
		on := acr.Repair(c, acr.RepairOptions{Strategy: core.BruteForce, Seed: seed})
		if on.BaseFailing == 0 {
			continue // injection invisible to the intent suite
		}
		off := acr.Repair(c, acr.RepairOptions{Strategy: core.BruteForce, Seed: seed, NoStaticPrior: true})
		totOn += on.CandidatesValidated
		totOff += off.CandidatesValidated
		saved += off.CandidatesValidated - on.CandidatesValidated
		fmt.Printf("%-34s %6d %12d %12d %10d %10d %8d\n",
			inc.ID, on.StaticDiagnostics, on.CandidatesValidated, off.CandidatesValidated,
			on.Iterations, off.Iterations, on.TemplatesPrunedStatic)
	}
	if totOff > 0 {
		fmt.Printf("total candidates validated: %d with prior vs %d without (%d saved, %.0f%%)\n",
			totOn, totOff, saved, 100*float64(saved)/float64(totOff))
	}
	fmt.Println("\nfigure2:")
	on := acr.Repair(acr.Figure2Incident(), acr.RepairOptions{Strategy: core.BruteForce})
	off := acr.Repair(acr.Figure2Incident(), acr.RepairOptions{Strategy: core.BruteForce, NoStaticPrior: true})
	fmt.Printf("  with prior:    %s", on.Summary())
	fmt.Printf("  without prior: %s", off.Summary())
}

// hypothesis measures the §6 plastic surgery hypothesis: intra-role vs
// inter-role configuration similarity, and the role-consensus lines a
// deviant device lacks.
func hypothesis(int, int64) {
	fmt.Println("fat-tree k=6:")
	fmt.Print(acr.AnalyzeRoles(acr.FatTreeDCN(6, acr.GenOptions{})).String())
	fmt.Println("\nwan 8x4x3:")
	fmt.Print(acr.AnalyzeRoles(acr.WANBackbone(8, 4, 3, acr.GenOptions{StaticOriginEvery: 2})).String())

	c := acr.FatTreeDCN(4, acr.GenOptions{})
	f := netcfg.MustParse(c.Configs["leaf1-0"])
	next, err := (netcfg.EditSet{Device: "leaf1-0", Edits: []netcfg.Edit{
		netcfg.DeleteLine{At: f.BGP.Networks[0].Line},
	}}).Apply(c.Configs["leaf1-0"])
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		return
	}
	c.Configs["leaf1-0"] = next
	fmt.Println("\nafter deleting leaf1-0's origination, its role-consensus gaps:")
	for _, m := range acr.MissingRoleShapes(c, "leaf1-0", 0.75) {
		fmt.Printf("  %-40s e.g. %q (from %s, %.0f%% of peers)\n",
			m.Normalized, m.Example, m.FromDevice, 100*m.PeerShare)
	}
}
