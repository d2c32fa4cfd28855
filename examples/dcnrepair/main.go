// DCNRepair exercises the repair pipeline on a data-center fabric: a
// 4-ary fat-tree with a scrubber appliance. Port-9999 flows from
// leaf0-0 must traverse the scrubber (waypoint intents, enforced by PBR
// on spine0-0). We inject the two PBR misconfiguration classes of
// Table 1 and let the engine repair each.
//
// Run with: go run ./examples/dcnrepair
package main

import (
	"fmt"
	"log"

	"acr"
	"acr/internal/netcfg"
)

func main() {
	base := acr.FatTreeDCN(4, acr.GenOptions{WithScrubber: true, StaticOriginEvery: 2})
	fmt.Printf("fabric %q: %d devices, %d links, %d intents\n",
		base.Name, len(base.Configs), len(base.Topo.Links), len(base.Intents))
	if n := acr.Verify(base).NumFailed(); n != 0 {
		log.Fatalf("correct fabric fails %d intents", n)
	}

	fmt.Println("\n--- incident 1: missing permit rule in PBR (Table 1, 12.5%) ---")
	missingRule()

	fmt.Println("\n--- incident 2: extra redirect rule in PBR (Table 1, 4.2%) ---")
	extraRule()
}

func missingRule() {
	c := acr.FatTreeDCN(4, acr.GenOptions{WithScrubber: true, StaticOriginEvery: 2})
	f := netcfg.MustParse(c.Configs["spine0-0"])
	pol := f.PBRPolicyByName("Scrub")
	r := pol.Rules[0]
	var dels []netcfg.Edit
	for l := r.Line; l <= r.End; l++ {
		dels = append(dels, netcfg.DeleteLine{At: l})
	}
	next, err := (acr.EditSet{Device: "spine0-0", Edits: dels}).Apply(c.Configs["spine0-0"])
	if err != nil {
		log.Fatal(err)
	}
	c.Configs["spine0-0"] = next
	runIncident(c)
}

func extraRule() {
	c := acr.FatTreeDCN(4, acr.GenOptions{WithScrubber: true, StaticOriginEvery: 2})
	f := netcfg.MustParse(c.Configs["spine0-0"])
	pol := f.PBRPolicyByName("Scrub")
	var leafAddr string
	for _, adj := range c.Topo.Adjacencies("spine0-0") {
		if adj.PeerNode == "leaf0-0" {
			leafAddr = adj.PeerAddr.String()
		}
	}
	dst := c.Topo.Node("leaf0-1").Originates[0]
	// A redirect bouncing leaf0-1's traffic back toward leaf0-0: loop.
	next, err := (acr.EditSet{Device: "spine0-0", Edits: []netcfg.Edit{
		netcfg.InsertBefore{At: pol.Line + 1, Text: " rule 5 permit"},
		netcfg.InsertBefore{At: pol.Line + 1, Text: "  match destination " + dst.String()},
		netcfg.InsertBefore{At: pol.Line + 1, Text: "  apply next-hop " + leafAddr},
	}}).Apply(c.Configs["spine0-0"])
	if err != nil {
		log.Fatal(err)
	}
	c.Configs["spine0-0"] = next
	runIncident(c)
}

func runIncident(c *acr.Case) {
	rep := acr.Verify(c)
	fmt.Printf("failing intents: %d\n", rep.NumFailed())
	for _, v := range rep.Failed() {
		fmt.Printf("  FAIL %s: %s\n", v.Intent, v.Reason())
	}
	res := acr.Repair(c, acr.RepairOptions{})
	if !res.Feasible {
		log.Fatalf("repair failed: %s", res.Summary())
	}
	fmt.Printf("repaired in %d iteration(s): %v\n", res.Iterations, res.Applied)
	for _, d := range res.Diffs {
		fmt.Println(d)
	}
	repaired := &acr.Case{Name: "repaired", Topo: c.Topo, Configs: res.FinalConfigs, Intents: c.Intents}
	if n := acr.Verify(repaired).NumFailed(); n != 0 {
		log.Fatalf("still %d failing after repair", n)
	}
	fmt.Println("all intents pass after repair ✓")
}
