// Command acrbench regenerates the paper's tables and figures as text
// reports (the same computations as the root bench_test.go benchmarks,
// formatted for reading).
//
// Usage:
//
//	acrbench -exp table1|fig1|fig2|fig3|fig4|all [-size 48] [-seed 1]
//
// The design ablations and the §6 role-similarity measurement are root
// benchmarks (go test -run '^$' -bench 'Ablation|Hypothesis' -v .).
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
	"acr/internal/scenario"
)

func main() {
	exp := flag.String("exp", "all", "experiment: table1, fig1, fig2, fig3, fig4, all")
	size := flag.Int("size", 48, "corpus size for corpus-driven experiments")
	seed := flag.Int64("seed", 1, "corpus seed")
	flag.Parse()
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
	} {
		if *exp != e.name && *exp != "all" {
			continue
		}
		ran = true
		fmt.Printf("==== %s ====\n", e.name)
		e.f(*size, *seed)
		fmt.Println()
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
		fmt.Printf("  FAIL %s: %s\n", v.Intent, v.Reason())
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
		agg.Improved, agg.TimedOut, agg.Panicked)
	fmt.Println("per-class repair rate:")
	for _, ci := range incidents.Table1 {
		pc := perClass[ci.Class]
		fmt.Printf("  %-42s %d/%d\n", ci.Name, pc[0], pc[1])
	}
}
