package core_test

import (
	"testing"

	"acr/internal/core"
	"acr/internal/scenario"
)

// TestStaticPriorReducesSearch is the issue's acceptance criterion: on the
// Figure 2 incident, a repair run with the static-analysis prior must use
// strictly fewer candidate evaluations than the ablated run, and still
// find the same feasible repair.
func TestStaticPriorReducesSearch(t *testing.T) {
	s := scenario.Figure2()
	p := problemOf(s)

	withPrior := core.Repair(p, core.Options{Strategy: core.BruteForce, Seed: 1})
	without := core.Repair(p, core.WithoutStaticPrior(core.Options{Strategy: core.BruteForce, Seed: 1}))

	checkRepaired(t, p, withPrior)
	checkRepaired(t, p, without)

	if withPrior.CandidatesValidated >= without.CandidatesValidated {
		t.Errorf("prior did not narrow the search: %d candidates with prior, %d without",
			withPrior.CandidatesValidated, without.CandidatesValidated)
	}
	if withPrior.StaticDiagnostics != 2 {
		t.Errorf("StaticDiagnostics = %d, want 2 (the shadowed entries on A and C)", withPrior.StaticDiagnostics)
	}
	if withPrior.TemplatesPrunedStatic == 0 {
		t.Error("TemplatesPrunedStatic = 0: pruning never engaged at the diagnosed lines")
	}
	if without.StaticDiagnostics != 0 || without.TemplatesPrunedStatic != 0 {
		t.Errorf("ablated run still carries static counters: %d diagnostics, %d pruned",
			without.StaticDiagnostics, without.TemplatesPrunedStatic)
	}
	t.Logf("candidates validated: %d with prior vs %d without (%.0f%% saved)",
		withPrior.CandidatesValidated, without.CandidatesValidated,
		100*(1-float64(withPrior.CandidatesValidated)/float64(without.CandidatesValidated)))
}

// TestStaticPriorDeterministic: the prior must not perturb run-to-run
// determinism (the analyzers sort their output; ApplyPrior re-sorts the
// ranking with the same tie-breaks).
func TestStaticPriorDeterministic(t *testing.T) {
	s := scenario.Figure2()
	p := problemOf(s)
	a := core.Repair(p, core.Options{Strategy: core.Evolutionary, Seed: 42})
	b := core.Repair(p, core.Options{Strategy: core.Evolutionary, Seed: 42})
	if a.Iterations != b.Iterations || a.CandidatesValidated != b.CandidatesValidated ||
		a.TemplatesPrunedStatic != b.TemplatesPrunedStatic {
		t.Errorf("nondeterministic with prior: (%d,%d,%d) vs (%d,%d,%d)",
			a.Iterations, a.CandidatesValidated, a.TemplatesPrunedStatic,
			b.Iterations, b.CandidatesValidated, b.TemplatesPrunedStatic)
	}
}
