package core_test

import (
	"net/netip"
	"strings"
	"testing"

	"acr/internal/bgp"
	"acr/internal/core"
	"acr/internal/netcfg"
	"acr/internal/scenario"
	"acr/internal/verify"
)

func problemOf(s *scenario.Scenario) core.Problem {
	return core.Problem{Topo: s.Topo, Configs: s.Configs, Intents: s.Intents}
}

func checkRepaired(t *testing.T, p core.Problem, res *core.Result) {
	t.Helper()
	if !res.Feasible {
		t.Fatalf("repair infeasible: %s", res.Summary())
	}
	files := map[string]*netcfg.File{}
	for d, c := range res.FinalConfigs {
		f, err := netcfg.Parse(c)
		if err != nil {
			t.Fatalf("repaired config %s does not parse: %v", d, err)
		}
		files[d] = f
	}
	n := bgp.Compile(p.Topo, files)
	out := bgp.Simulate(n, bgp.Options{})
	rep := verify.Verify(n, out, p.Intents)
	if rep.NumFailed() != 0 {
		t.Fatalf("repaired network still failing:\n%s", rep.Summary())
	}
	if !out.Converged() {
		t.Fatalf("repaired network still flapping: %v", out.FlappingPrefixes())
	}
}

// TestRepairFigure2Engine runs the full engine on the worked incident.
// The engine repairs it within two iterations; the applied update
// neutralizes override machinery on the faulty routers. (The engine may
// find a repair smaller than the paper's two-sided fix: in this model,
// disabling C's override alone already removes the preference cycle —
// see EXPERIMENTS.md.)
func TestRepairFigure2Engine(t *testing.T) {
	s := scenario.Figure2()
	p := problemOf(s)
	res := core.Repair(p, core.Options{Strategy: core.BruteForce})
	if !res.Feasible {
		t.Fatalf("infeasible: %s", res.Summary())
	}
	if res.Iterations > 2 {
		t.Errorf("iterations = %d, want <= 2 (the paper repaired it in 2)", res.Iterations)
	}
	if res.BaseFailing != 1 {
		t.Errorf("base failing = %d, want 1", res.BaseFailing)
	}
	touchesFaulty := false
	for _, a := range res.Applied {
		if strings.Contains(a, "A:") || strings.Contains(a, "C:") {
			touchesFaulty = true
		}
	}
	if !touchesFaulty {
		t.Errorf("applied = %v, want edits on the faulty routers A/C", res.Applied)
	}
	checkRepaired(t, p, res)
}

// TestRepairFigure2FlagshipTemplate restricts the engine to the paper's
// flagship template (symbolize-prefix-list, §5 step 2) and checks the
// solved values: whichever faulty router is repaired, the constraints are
// P: 10.70/16 ∈ var ∧ 20.0/16 ∈ var and F: 10.0/16 ∈ var, and the solved
// membership is exactly {10.70/16, 20.0/16} — the paper's assignment.
func TestRepairFigure2FlagshipTemplate(t *testing.T) {
	s := scenario.Figure2()
	p := problemOf(s)
	res := core.Repair(p, core.Options{
		Strategy:  core.BruteForce,
		Templates: []core.Template{core.SymbolizePrefixList{}},
	})
	if !res.Feasible {
		t.Fatalf("infeasible with flagship template: %s", res.Summary())
	}
	last := res.Applied[len(res.Applied)-1]
	if !strings.Contains(last, "symbolize-prefix-list[default_all]") {
		t.Errorf("final application = %q, want symbolize-prefix-list on default_all", last)
	}
	for _, want := range []string{"10.70.0.0/16 ∈ var", "20.0.0.0/16 ∈ var", "¬(10.0.0.0/16 ∈ var)"} {
		if !strings.Contains(last, want) {
			t.Errorf("constraints %q missing %q", last, want)
		}
	}
	// The repaired device's default_all is exactly the paper's solution.
	repairedDevice := "C"
	if strings.Contains(last, "@ A:") {
		repairedDevice = "A"
	}
	f := netcfg.MustParse(res.FinalConfigs[repairedDevice])
	entries := f.PrefixListEntries("default_all")
	if len(entries) != 2 || entries[0].Prefix != scenario.PrefixPoPA || entries[1].Prefix != scenario.PrefixDCNS {
		t.Errorf("%s default_all = %+v, want permits for exactly {10.70/16, 20.0/16}", repairedDevice, entries)
	}
	checkRepaired(t, p, res)
}

// TestRepairFigure2Evolutionary: the evolutionary name, still accepted,
// runs the one rank-order search: its repair is brute force's, byte for
// byte, whatever the seed.
func TestRepairFigure2Evolutionary(t *testing.T) {
	s := scenario.Figure2()
	p := problemOf(s)
	res := core.Repair(p, core.Options{Strategy: core.Evolutionary, Seed: 7, MaxIterations: 25})
	if !res.Feasible {
		t.Fatalf("evolutionary strategy failed within 25 iterations: %s", res.Summary())
	}
	checkRepaired(t, p, res)
	if brute := core.Repair(p, core.Options{Strategy: core.BruteForce}); res.Canonical() != brute.Canonical() {
		t.Errorf("the evolutionary name ran another search\n--- evolutionary ---\n%s\n--- bruteforce ---\n%s", res.Canonical(), brute.Canonical())
	}
}

func TestRepairAlreadyCorrect(t *testing.T) {
	s := scenario.Figure2Correct()
	res := core.Repair(problemOf(s), core.Options{})
	if !res.Feasible || res.Iterations != 0 || len(res.Applied) != 0 {
		t.Fatalf("correct network should be trivially feasible: %s", res.Summary())
	}
}

func TestRepairWrongASN(t *testing.T) {
	// Table 1 class: "Override to wrong AS number".
	s := scenario.WAN(6, 3, 2, scenario.GenOptions{})
	f := netcfg.MustParse(s.Configs["pop0"])
	asnLine := f.BGP.Peers[0].ASNLine
	next, err := netcfg.EditSet{Edits: []netcfg.Edit{netcfg.ReplaceLine{
		At:   asnLine,
		Text: " peer " + f.BGP.Peers[0].Addr.String() + " as-number 64999",
	}}}.Apply(s.Configs["pop0"])
	if err != nil {
		t.Fatal(err)
	}
	s.Configs["pop0"] = next
	p := problemOf(s)
	res := core.Repair(p, core.Options{Strategy: core.BruteForce})
	if !res.Feasible {
		t.Fatalf("wrong-ASN repair infeasible: %s", res.Summary())
	}
	found := false
	for _, a := range res.Applied {
		if strings.Contains(a, "fix-peer-asn") {
			found = true
		}
	}
	if !found {
		t.Errorf("applied = %v, want fix-peer-asn", res.Applied)
	}
	checkRepaired(t, p, res)
}

func TestRepairMissingRedistribution(t *testing.T) {
	// Table 1's most common class (20.8%).
	s := scenario.WAN(6, 3, 2, scenario.GenOptions{StaticOriginEvery: 1})
	f := netcfg.MustParse(s.Configs["pop1"])
	if f.BGP.Redistribute == nil {
		t.Fatal("scenario setup: pop1 lacks static origination")
	}
	next, err := netcfg.EditSet{Edits: []netcfg.Edit{netcfg.DeleteLine{At: f.BGP.Redistribute.Line}}}.Apply(s.Configs["pop1"])
	if err != nil {
		t.Fatal(err)
	}
	s.Configs["pop1"] = next
	p := problemOf(s)
	res := core.Repair(p, core.Options{Strategy: core.BruteForce})
	if !res.Feasible {
		t.Fatalf("missing-redistribution repair infeasible: %s", res.Summary())
	}
	found := false
	for _, a := range res.Applied {
		if strings.Contains(a, "add-redistribute-static") {
			found = true
		}
	}
	if !found {
		t.Errorf("applied = %v, want add-redistribute-static", res.Applied)
	}
	checkRepaired(t, p, res)
}

func TestRepairLeftoverMaintenancePolicy(t *testing.T) {
	// Table 1 class: "Fail to dis-enable route map". Attach the dormant
	// Maintenance deny-all to a PoP-facing import on the backbone... on the
	// PoP's own uplink import, killing the PoP's routes.
	s := scenario.WAN(6, 3, 2, scenario.GenOptions{})
	cfg := s.Configs["pop2"]
	f := netcfg.MustParse(cfg)
	peer := f.BGP.Peers[0]
	edits := netcfg.EditSet{Edits: []netcfg.Edit{
		netcfg.InsertBefore{At: peer.ASNLine + 1, Text: netcfg.FormatPeerPolicyLine(peer.Addr.String(), "Maintenance", netcfg.Import)},
	}}
	next, err := edits.Apply(cfg)
	if err != nil {
		t.Fatal(err)
	}
	// pop stubs do not define Maintenance; define it (deny-all) as the
	// leftover state.
	next, err = netcfg.EditSet{Edits: []netcfg.Edit{
		netcfg.InsertBefore{At: next.NumLines() + 1, Text: "route-policy Maintenance deny node 10"},
	}}.Apply(next)
	if err != nil {
		t.Fatal(err)
	}
	s.Configs["pop2"] = next
	p := problemOf(s)
	res := core.Repair(p, core.Options{Strategy: core.BruteForce})
	if !res.Feasible {
		t.Fatalf("leftover-policy repair infeasible: %s", res.Summary())
	}
	checkRepaired(t, p, res)
}

func TestRepairIsolationLeakMissingGroup(t *testing.T) {
	// Table 1 class: "Missing peer group": a backbone router's PoP peer
	// lost its group membership, so the NoLeak export policy no longer
	// applies and DCN prefixes leak.
	s := scenario.WAN(6, 3, 2, scenario.GenOptions{})
	var victim string
	var memberLine int
	for d, c := range s.Configs {
		f := netcfg.MustParse(c)
		if f.BGP == nil {
			continue
		}
		for _, pe := range f.BGP.Peers {
			if pe.Group == scenario.WANGroupPoPFacing && pe.GroupLine > 0 {
				victim, memberLine = d, pe.GroupLine
			}
		}
		if victim != "" {
			break
		}
	}
	if victim == "" {
		t.Fatal("no PoPFacing membership found")
	}
	next, err := netcfg.EditSet{Edits: []netcfg.Edit{netcfg.DeleteLine{At: memberLine}}}.Apply(s.Configs[victim])
	if err != nil {
		t.Fatal(err)
	}
	s.Configs[victim] = next
	p := problemOf(s)
	res := core.Repair(p, core.Options{Strategy: core.BruteForce})
	if !res.Feasible {
		t.Fatalf("missing-group repair infeasible: %s", res.Summary())
	}
	checkRepaired(t, p, res)
}

func TestRepairExtraGroupItem(t *testing.T) {
	// Table 1 class: "Extra items in peer group": a DCN peer wrongly added
	// to the PoPFacing group gets DCN routes export-denied, breaking
	// DCN-to-DCN reachability.
	// WAN(4,3,2) places a PoP and a DCN on the same backbone router, so a
	// router with both a PoPFacing group and a DCN peer exists.
	s := scenario.WAN(4, 3, 2, scenario.GenOptions{})
	var victim string
	var asnLine int
	var addr string
	for d, c := range s.Configs {
		f := netcfg.MustParse(c)
		if f.BGP == nil {
			continue
		}
		hasPopFacing := f.GroupByName(scenario.WANGroupPoPFacing) != nil
		for _, pe := range f.BGP.Peers {
			if pe.Group == scenario.WANGroupDCNFacing && hasPopFacing {
				victim, asnLine, addr = d, pe.GroupLine, pe.Addr.String()
			}
		}
		if victim != "" {
			break
		}
	}
	if victim == "" {
		t.Skip("no router with both DCN peer and PoPFacing group")
	}
	next, err := netcfg.EditSet{Edits: []netcfg.Edit{
		netcfg.ReplaceLine{At: asnLine, Text: " peer " + addr + " group " + scenario.WANGroupPoPFacing},
	}}.Apply(s.Configs[victim])
	if err != nil {
		t.Fatal(err)
	}
	s.Configs[victim] = next
	p := problemOf(s)
	base := verify.NewIncremental(p.Topo, p.Configs, p.Intents, bgp.Options{})
	if base.BaseReport().NumFailed() == 0 {
		t.Skip("injection caused no failure in this topology")
	}
	res := core.Repair(p, core.Options{Strategy: core.BruteForce})
	if !res.Feasible {
		t.Fatalf("extra-group-item repair infeasible: %s", res.Summary())
	}
	checkRepaired(t, p, res)
}

func TestRepairMissingPBRRule(t *testing.T) {
	// Table 1 class: "Missing permit rules in PBR": drop a scrubber rule;
	// the waypoint intent fails; the engine must re-insert a redirect.
	s := scenario.DCN(4, scenario.GenOptions{WithScrubber: true})
	cfg := s.Configs["spine0-0"]
	f := netcfg.MustParse(cfg)
	pol := f.PBRPolicyByName("Scrub")
	if pol == nil || len(pol.Rules) == 0 {
		t.Fatal("scrub policy missing")
	}
	r := pol.Rules[0]
	var dels []netcfg.Edit
	for l := r.Line; l <= r.End; l++ {
		dels = append(dels, netcfg.DeleteLine{At: l})
	}
	next, err := netcfg.EditSet{Edits: dels}.Apply(cfg)
	if err != nil {
		t.Fatal(err)
	}
	s.Configs["spine0-0"] = next
	p := problemOf(s)
	res := core.Repair(p, core.Options{Strategy: core.BruteForce})
	if !res.Feasible {
		t.Fatalf("missing-PBR-rule repair infeasible: %s", res.Summary())
	}
	found := false
	for _, a := range res.Applied {
		if strings.Contains(a, "add-pbr-permit-rule") {
			found = true
		}
	}
	if !found {
		t.Errorf("applied = %v, want add-pbr-permit-rule", res.Applied)
	}
	checkRepaired(t, p, res)
}

func TestRepairExtraPBRRedirect(t *testing.T) {
	// Table 1 class: "Extra redirect rule in PBR": a rule bouncing traffic
	// back toward its source creates a forwarding loop.
	s := scenario.DCN(4, scenario.GenOptions{WithScrubber: true})
	cfg := s.Configs["spine0-0"]
	f := netcfg.MustParse(cfg)
	pol := f.PBRPolicyByName("Scrub")
	var leafAddr, dstPrefix string
	for _, adj := range s.Topo.Adjacencies("spine0-0") {
		if adj.PeerNode == "leaf0-0" {
			leafAddr = adj.PeerAddr.String()
		}
	}
	dstPrefix = s.Topo.Node("leaf0-1").Originates[0].String()
	next, err := netcfg.EditSet{Edits: []netcfg.Edit{
		netcfg.InsertBefore{At: pol.Line + 1, Text: " rule 5 permit"},
		netcfg.InsertBefore{At: pol.Line + 1, Text: "  match destination " + dstPrefix},
		netcfg.InsertBefore{At: pol.Line + 1, Text: "  apply next-hop " + leafAddr},
	}}.Apply(cfg)
	if err != nil {
		t.Fatal(err)
	}
	s.Configs["spine0-0"] = next
	p := problemOf(s)
	base := verify.NewIncremental(p.Topo, p.Configs, p.Intents, bgp.Options{})
	if base.BaseReport().NumFailed() == 0 {
		t.Fatal("extra redirect caused no failure; injection broken")
	}
	res := core.Repair(p, core.Options{Strategy: core.BruteForce})
	if !res.Feasible {
		t.Fatalf("extra-redirect repair infeasible: %s", res.Summary())
	}
	checkRepaired(t, p, res)
}

func TestRepairResultBookkeeping(t *testing.T) {
	s := scenario.Figure2()
	res := core.Repair(problemOf(s), core.Options{Strategy: core.BruteForce})
	if res.CandidatesValidated == 0 || res.PrefixSimulations == 0 {
		t.Errorf("bookkeeping empty: %+v", res)
	}
	if len(res.Logs) != res.Iterations {
		t.Errorf("logs = %d, iterations = %d", len(res.Logs), res.Iterations)
	}
	if len(res.Diffs) == 0 {
		t.Error("no diffs recorded for a feasible repair")
	}
	sum := res.Summary()
	if !strings.Contains(sum, "feasible=true") {
		t.Errorf("summary = %q", sum)
	}
}

func TestRepairDeterministicWithSeed(t *testing.T) {
	s := scenario.Figure2()
	p := problemOf(s)
	r1 := core.Repair(p, core.Options{Strategy: core.Evolutionary, Seed: 42, MaxIterations: 25})
	r2 := core.Repair(p, core.Options{Strategy: core.Evolutionary, Seed: 42, MaxIterations: 25})
	if r1.Feasible != r2.Feasible || r1.Iterations != r2.Iterations {
		t.Fatalf("nondeterministic: %v/%d vs %v/%d", r1.Feasible, r1.Iterations, r2.Feasible, r2.Iterations)
	}
	if strings.Join(r1.Applied, "|") != strings.Join(r2.Applied, "|") {
		t.Errorf("applied differ:\n%v\n%v", r1.Applied, r2.Applied)
	}
}

func TestRepairIterationCapTermination(t *testing.T) {
	// An unfixable problem: intent to reach a prefix nobody can originate
	// (no topology owner, no statics) — engine must stop at the cap or
	// exhaustion, not loop forever.
	s := scenario.Figure2Correct()
	s.Intents = append(s.Intents, verify.ReachIntent("impossible", scenario.PrefixDCNS, mustPrefix("99.0.0.0/16")))
	res := core.Repair(problemOf(s), core.Options{MaxIterations: 5, Strategy: core.BruteForce})
	if res.Feasible {
		t.Fatal("impossible intent repaired?!")
	}
	if res.Termination != "exhausted" && res.Termination != "iteration-cap" {
		t.Errorf("termination = %q", res.Termination)
	}
	if res.Iterations > 5 {
		t.Errorf("iterations = %d exceeds cap", res.Iterations)
	}
}

func mustPrefix(s string) netip.Prefix { return netip.MustParsePrefix(s) }

func TestResultReport(t *testing.T) {
	s := scenario.Figure2()
	res := core.Repair(problemOf(s), core.Options{Strategy: core.BruteForce})
	rep := res.Report(s.Configs)
	for _, want := range []string{
		"FEASIBLE UPDATE FOUND",
		"## Iterations",
		"## Most suspicious lines",
		"## Applied template instances",
		"## Configuration changes",
	} {
		if !strings.Contains(rep, want) {
			t.Errorf("report missing %q\n%s", want, rep)
		}
	}
	// Infeasible report.
	s2 := scenario.Figure2Correct()
	s2.Intents = append(s2.Intents, verify.ReachIntent("impossible", scenario.PrefixDCNS, mustPrefix("99.0.0.0/16")))
	res2 := core.Repair(problemOf(s2), core.Options{MaxIterations: 3, Strategy: core.BruteForce})
	if !strings.Contains(res2.Report(s2.Configs), "NO FEASIBLE UPDATE") {
		t.Error("infeasible report missing status")
	}
}
