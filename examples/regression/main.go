// Regression demonstrates the paper's §6 test-generation direction on a
// network whose operator specification is too sparse: a configuration
// change leaks a DCN prefix to a PoP pair the specification never covers,
// so verification stays green. A differential regression suite — derived
// automatically from the last-known-good configuration — reveals the
// violation, localizes it, and the engine repairs it.
//
// Run with: go run ./examples/regression
package main

import (
	"fmt"
	"log"

	"acr"
	"acr/internal/netcfg"
	"acr/internal/scenario"
)

func main() {
	// The known-good network. Its operator spec has only two rotating
	// isolation pairs per PoP.
	good := acr.WANBackbone(8, 4, 3, acr.GenOptions{StaticOriginEvery: 2})
	fmt.Printf("baseline %q: %d devices, operator spec has %d intents\n",
		good.Name, len(good.Configs), len(good.Intents))

	// Derive the regression suite from the baseline BEFORE any change.
	diff := acr.DifferentialIntents(good, acr.DiffGenOptions{IncludeIsolation: true, MaxPairs: 128})
	fmt.Printf("differential suite derived from the baseline: %d intents\n", len(diff))

	// A change ships: someone removes an entry from a DCN prefix-list in a
	// spot the operator spec does not watch.
	broken, truth := injectInvisibleLeak()
	fmt.Printf("\nafter the change, the operator spec sees: %d failing intents (all green!)\n",
		acr.Verify(broken).NumFailed())

	// The regression suite sees it.
	augmented := &acr.Case{
		Name: "augmented", Topo: broken.Topo, Configs: broken.Configs,
		Intents: acr.MergeIntents(broken.Intents, diff),
	}
	rep := acr.Verify(augmented)
	fmt.Printf("the differential suite sees:  %d failing intents\n", rep.NumFailed())
	for _, v := range rep.Failed() {
		fmt.Printf("  FAIL %s (%s)\n", v.Intent, v.Reason())
	}

	// Localize and repair against the augmented suite.
	res := acr.Repair(augmented, acr.RepairOptions{})
	if !res.Feasible {
		log.Fatalf("repair failed: %s", res.Summary())
	}
	fmt.Printf("\nrepaired in %d iteration(s): %v\n", res.Iterations, res.Applied)
	for _, d := range res.Diffs {
		fmt.Println(d)
	}
	repairedCase := &acr.Case{Topo: augmented.Topo, Configs: res.FinalConfigs, Intents: augmented.Intents}
	fmt.Printf("after repair: %d failing\n", acr.Verify(repairedCase).NumFailed())
	fmt.Printf("(ground truth was the policy machinery around %v)\n", truth)
}

// injectInvisibleLeak deletes DCN prefix-list entries until one leak is
// invisible to the operator spec.
func injectInvisibleLeak() (*acr.Case, acr.LineRef) {
	for site := 0; site < 64; site++ {
		c := acr.WANBackbone(8, 4, 3, acr.GenOptions{StaticOriginEvery: 2})
		victim, line := leakSite(c, site)
		if victim == "" {
			break
		}
		next, err := (acr.EditSet{Device: victim, Edits: []netcfg.Edit{netcfg.DeleteLine{At: line}}}).Apply(c.Configs[victim])
		if err != nil {
			log.Fatal(err)
		}
		c.Configs[victim] = next
		if acr.Verify(c).NumFailed() == 0 {
			f := netcfg.MustParse(c.Configs[victim])
			g := f.GroupByName(scenario.WANGroupPoPFacing)
			return c, acr.LineRef{Device: victim, Line: g.Policies[0].Line}
		}
	}
	log.Fatal("no invisible leak site found")
	return nil, acr.LineRef{}
}

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
