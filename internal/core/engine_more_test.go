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

// TestGlobalIntentsRepair repairs Figure 2 with a loop-free and a
// blackhole-free intent added for every originated prefix. Those intents
// have no source prefix, and checking a candidate against them once
// panicked while sampling their packet: every candidate was quarantined and
// the search exhausted.
func TestGlobalIntentsRepair(t *testing.T) {
	p := problemOf(withGlobalIntents(scenario.Figure2()))
	res := core.Repair(p, core.Options{Strategy: core.BruteForce})
	if res.CandidatesPanicked != 0 {
		t.Fatalf("%d candidates panicked, the first: %v", res.CandidatesPanicked, res.Errors[0])
	}
	checkRepaired(t, p, res)
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
