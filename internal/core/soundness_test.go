package core_test

import (
	"context"
	"fmt"
	"testing"

	"acr/internal/core"
	"acr/internal/incidents"
	"acr/internal/netcfg"
	"acr/internal/oracle"
	"acr/internal/scenario"
	"acr/internal/verify"
)

// TestSoundnessAudit audits every candidate the engine validates with
// oracle.Audit: Figure 2 under brute force, the seed-1 120-incident corpus
// (12 incidents in -short mode), its first 40 incidents (12) with a
// loop-free and a blackhole-free intent for every originated prefix, and
// the wan-large panel. Each check's verdicts are held to a from-scratch
// verification, every prefix delta re-simulation answers to a cold
// simulation, and every prefix of the cold outcome to the reference
// simulator, which shares no code with internal/bgp. A divergence fails
// the test with a minimized repro.
//
// The from-scratch checks also price validation without reuse: the engine
// must evaluate at least 3x fewer prefixes than they simulate, and delta
// re-simulation must answer at least 90% of the prefixes it simulates.
func TestSoundnessAudit(t *testing.T) {
	size, global := 120, 40
	if testing.Short() {
		size, global = 12, 12
	}
	corpus, err := incidents.GenerateCorpus(incidents.CorpusOptions{Size: size, Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	panel, err := incidents.GenerateCorpus(incidents.CorpusOptions{Size: 16, Seed: 3,
		WANRouters: 12, WANPoPs: 8, WANDCNs: 6, DoubleFaultShare: 0.5})
	if err != nil {
		t.Fatal(err)
	}
	type search struct {
		name string
		s    *scenario.Scenario
		opts core.Options
	}
	groups := [][]search{{{"figure2", scenario.Figure2(), core.Options{Strategy: core.BruteForce}}}, nil, nil, nil}
	for i, inc := range corpus {
		groups[1] = append(groups[1], search{"corpus/" + inc.ID, inc.Scenario, core.Options{}})
		if i < global {
			groups[2] = append(groups[2], search{"global/" + inc.ID, withGlobalIntents(inc.Scenario), core.Options{}})
		}
	}
	for _, inc := range panel {
		groups[3] = append(groups[3], search{"wan/" + inc.ID, inc.Scenario, core.Options{MaxIterations: 6}})
	}

	var tally oracle.Tally
	refuted, scoped, broad, cold, delta := 0, 0, 0, 0, 0
	for _, group := range groups {
		before, r0, s0 := tally, refuted, scoped
		for _, s := range group {
			res := auditedRepair(t, s.name, problemOf(s.s), s.opts, &tally)
			refuted += res.StaticallyRefuted
			scoped += res.ImpactScoped
			broad += res.ImpactBroad
			cold += res.PrefixSimulations
			delta += res.DeltaReused
		}
		t.Logf("%s and %d more: %d candidates audited (%d statically refuted, %d impact-scoped); %d prefixes delta-replayed; reference-checked %d converged and %d flapping prefixes",
			group[0].name, len(group)-1, tally.Candidates-before.Candidates, refuted-r0, scoped-s0,
			tally.DeltaReplayed-before.DeltaReplayed, tally.Converged-before.Converged, tally.Flapping-before.Flapping)
	}
	t.Logf("in all: %+v, %d broad", tally, broad)
	if validated := refuted + scoped + broad; tally.Candidates != validated {
		t.Errorf("audited %d candidates, the engine validated %d", tally.Candidates, validated)
	}
	if tally.Candidates == 0 || tally.DeltaReplayed == 0 || tally.Converged == 0 || tally.Flapping == 0 {
		t.Errorf("the audit is vacuous: %+v", tally)
	}
	evaluated := cold + delta
	t.Logf("prefixes evaluated: %d from scratch, %d by the engine (%d cold, %d by delta): %.2fx",
		tally.Scratch, evaluated, cold, delta, float64(tally.Scratch)/float64(max(evaluated, 1)))
	if tally.Scratch < 3*evaluated {
		t.Errorf("the engine evaluates %d prefixes, over a third of the %d from scratch", evaluated, tally.Scratch)
	}
	if share := float64(delta) / float64(max(evaluated, 1)); share < 0.9 {
		t.Errorf("delta re-simulation answers %.3f of the simulated prefixes, want at least 0.9", share)
	}
}

// withGlobalIntents returns s with a loop-free and a blackhole-free intent
// added for every prefix its topology originates.
func withGlobalIntents(s *scenario.Scenario) *scenario.Scenario {
	s = s.Clone()
	for i, p := range s.Topo.AllOriginated() {
		s.Intents = append(s.Intents,
			verify.LoopFreeIntent(fmt.Sprintf("loopfree-%d", i), p),
			verify.BlackholeFreeIntent(fmt.Sprintf("blackholefree-%d", i), p))
	}
	return s
}

// TestDifferentialFigure2 audits every candidate a brute-force search of
// Figure 2 validates, its flapping prefix included, and holds the audit to
// be observational: the result is the same with it as without.
func TestDifferentialFigure2(t *testing.T) {
	p := problemOf(scenario.Figure2())
	opts := core.Options{Strategy: core.BruteForce}
	var tally oracle.Tally
	res := auditedRepair(t, "figure2", p, opts, &tally)
	t.Logf("%+v", tally)
	if validated := res.StaticallyRefuted + res.ImpactScoped + res.ImpactBroad; tally.Candidates != validated || validated == 0 {
		t.Errorf("audited %d candidates, the engine validated %d", tally.Candidates, validated)
	}
	if tally.Flapping == 0 {
		t.Error("the reference never checked Figure 2's flapping prefix")
	}
	if res.Canonical() != core.Repair(p, opts).Canonical() {
		t.Error("the audit changed the result")
	}
}

// auditedRepair repairs p with every validated candidate audited through
// tally; a divergence is a test error naming the search.
func auditedRepair(t *testing.T, name string, p core.Problem, opts core.Options, tally *oracle.Tally) *core.Result {
	t.Helper()
	audit := func(ctx context.Context, iv *verify.Incremental, edits []netcfg.EditSet) error {
		err := tally.Audit(ctx, iv, edits)
		if err != nil {
			t.Errorf("%s: %v", name, err)
		}
		return err
	}
	return core.Repair(p, core.WithAudit(opts, audit))
}
