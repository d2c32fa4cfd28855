package core_test

import (
	"testing"

	"acr/internal/core"
	"acr/internal/netcfg"
	"acr/internal/scenario"
)

// doubleFaultScenario layers the prefix-list leak and the extra-group
// faults onto one WAN (the combination that exercises scope widening).
func doubleFaultScenario(t *testing.T) *scenario.Scenario {
	t.Helper()
	s := scenario.WAN(4, 3, 2, scenario.GenOptions{FullIsolation: true})
	// Fault 1: delete a DCN prefix-list entry on the first isolating router.
	var done1 bool
	for _, nd := range s.Topo.Nodes() {
		f := netcfg.MustParse(s.Configs[nd.Name])
		if g := f.GroupByName(scenario.WANGroupPoPFacing); g == nil || len(g.Policies) == 0 {
			continue
		}
		entries := f.PrefixListEntries(scenario.WANListDCN)
		if len(entries) < 2 {
			continue
		}
		next, err := netcfg.EditSet{Edits: []netcfg.Edit{netcfg.DeleteLine{At: entries[0].Line}}}.Apply(s.Configs[nd.Name])
		if err != nil {
			t.Fatal(err)
		}
		s.Configs[nd.Name] = next
		done1 = true
		break
	}
	if !done1 {
		t.Fatal("no leak site")
	}
	// Fault 2: leftover maintenance policy on a stub.
	cfg := s.Configs["pop2"]
	f := netcfg.MustParse(cfg)
	peer := f.BGP.Peers[0]
	next, err := netcfg.EditSet{Edits: []netcfg.Edit{
		netcfg.InsertBefore{At: peer.ASNLine + 1, Text: netcfg.FormatPeerPolicyLine(peer.Addr.String(), "Maintenance", netcfg.Import)},
		netcfg.InsertBefore{At: cfg.NumLines() + 1, Text: "route-policy Maintenance deny node 10"},
	}}.Apply(cfg)
	if err != nil {
		t.Fatal(err)
	}
	s.Configs["pop2"] = next
	return s
}

func TestRepairDoubleFaultWithWidening(t *testing.T) {
	s := doubleFaultScenario(t)
	p := problemOf(s)
	res := core.Repair(p, core.Options{Strategy: core.BruteForce})
	if !res.Feasible {
		t.Fatalf("double fault infeasible: %s", res.Summary())
	}
	checkRepaired(t, p, res)
	if len(res.Applied) < 2 {
		t.Errorf("applied = %v, want at least two template applications", res.Applied)
	}
}

// TestRepairFullValidationEquivalent holds the incremental run to its
// from-scratch reference: byte-identical Canonical() output, while the
// incremental run delta-simulates and does strictly less work.
func TestRepairFullValidationEquivalent(t *testing.T) {
	s := scenario.Figure2()
	p := problemOf(s)
	inc := core.Repair(p, core.Options{Strategy: core.BruteForce})
	full := core.Repair(p, core.Options{Strategy: core.BruteForce, FullValidation: true})
	if inc.Canonical() != full.Canonical() {
		t.Fatalf("Canonical() differs between incremental and full validation:\n--- incremental:\n%s\n--- full:\n%s",
			inc.Canonical(), full.Canonical())
	}
	if inc.DeltaReused == 0 {
		t.Error("incremental run never answered a prefix by delta re-simulation")
	}
	if full.IntentChecks < inc.IntentChecks {
		t.Errorf("full validation did fewer intent checks (%d) than incremental (%d)",
			full.IntentChecks, inc.IntentChecks)
	}
	if inc.SimActivations >= full.SimActivations {
		t.Errorf("incremental validation did not reduce activations: %d vs %d under full validation",
			inc.SimActivations, full.SimActivations)
	}
}

func TestIterationLogsConsistency(t *testing.T) {
	s := doubleFaultScenario(t)
	res := core.Repair(problemOf(s), core.Options{Strategy: core.BruteForce})
	if len(res.Logs) == 0 {
		t.Fatal("no logs")
	}
	totalValidated := 0
	for i, lg := range res.Logs {
		if lg.Iteration != i+1 {
			t.Errorf("log %d has iteration %d", i, lg.Iteration)
		}
		if lg.Validated > lg.Generated {
			t.Errorf("iteration %d validated %d > generated %d", lg.Iteration, lg.Validated, lg.Generated)
		}
		totalValidated += lg.Validated
	}
	if totalValidated != res.CandidatesValidated {
		t.Errorf("log validated sum %d != result %d", totalValidated, res.CandidatesValidated)
	}
}
