// Quickstart: the smallest end-to-end use of the acr library.
//
// We generate a correct wide-area network, break it the way operators
// most often do (Table 1's top row: a static route that is no longer
// redistributed into BGP), then detect, localize, and repair the
// misconfiguration automatically.
//
// Run with: go run ./examples/quickstart
package main

import (
	"fmt"
	"log"

	"acr"
	"acr/internal/netcfg"
)

func main() {
	// A small WAN: 6 backbone routers, 3 PoPs, 2 DCNs. Every stub
	// originates its prefix via `ip route static ... null0` plus
	// `redistribute static`.
	c := acr.WANBackbone(6, 3, 2, acr.GenOptions{StaticOriginEvery: 1})
	fmt.Printf("generated %q: %d devices, %d intents\n", c.Name, len(c.Configs), len(c.Intents))

	// Sanity: the correct network satisfies its specification.
	if n := acr.Verify(c).NumFailed(); n != 0 {
		log.Fatalf("correct network fails %d intents?!", n)
	}

	// Break it: delete pop1's `redistribute static` line.
	f := netcfg.MustParse(c.Configs["pop1"])
	broken, err := (acr.EditSet{Device: "pop1", Edits: []netcfg.Edit{
		netcfg.DeleteLine{At: f.BGP.Redistribute.Line},
	}}).Apply(c.Configs["pop1"])
	if err != nil {
		log.Fatal(err)
	}
	c.Configs["pop1"] = broken

	// 1. Detect.
	report := acr.Verify(c)
	fmt.Printf("\nafter the misconfiguration, %d intents fail:\n", report.NumFailed())
	for _, v := range report.Failed() {
		fmt.Printf("  FAIL %s (%s)\n", v.Intent, v.Reason())
	}

	// 2. Localize: the suspicious lines point at pop1.
	fmt.Println("\ntop suspicious configuration lines (Tarantula):")
	for i, s := range acr.Localize(c) {
		if i == 5 {
			break
		}
		fmt.Printf("  %-12s susp=%.2f  %s\n", s.Line, s.Susp,
			c.Configs[s.Line.Device].Line(s.Line.Line))
	}

	// 3. Repair.
	res := acr.Repair(c, acr.RepairOptions{})
	if !res.Feasible {
		log.Fatalf("repair failed: %s", res.Summary())
	}
	fmt.Printf("\nrepaired in %d iteration(s), %d candidates validated:\n",
		res.Iterations, res.CandidatesValidated)
	for _, a := range res.Applied {
		fmt.Println("  applied:", a)
	}
	for _, d := range res.Diffs {
		fmt.Println(d)
	}

	// 4. Confirm.
	repaired := &acr.Case{Name: "repaired", Topo: c.Topo, Configs: res.FinalConfigs, Intents: c.Intents}
	fmt.Printf("verification after repair: %d failing intents\n", acr.Verify(repaired).NumFailed())
}
