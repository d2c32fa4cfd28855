package chaos

import (
	"context"
	"testing"
	"time"

	"acr/internal/core"
	"acr/internal/incidents"
	"acr/internal/scenario"
)

func figure2Problem() core.Problem {
	s := scenario.Figure2()
	return core.Problem{Topo: s.Topo, Configs: s.Configs, Intents: s.Intents}
}

// validTerminations is every way a run may legitimately end.
var validTerminations = map[string]bool{
	"feasible": true, "exhausted": true, "iteration-cap": true,
	"deadline": true, "canceled": true,
}

// assertNoRegression checks the best-effort guarantee: whatever happened,
// the result never reports a configuration worse than the base.
func assertNoRegression(t *testing.T, res *core.Result) {
	t.Helper()
	if res.BestEffortConfigs == nil {
		t.Fatal("BestEffortConfigs not populated")
	}
	if res.BestEffortFitness > res.BaseFailing {
		t.Fatalf("fitness regressed: best-effort %d > base %d", res.BestEffortFitness, res.BaseFailing)
	}
	if res.Improved && res.BestEffortFitness >= res.BaseFailing {
		t.Fatalf("Improved=true but fitness %d !< base %d", res.BestEffortFitness, res.BaseFailing)
	}
	if !validTerminations[res.Termination] {
		t.Fatalf("unexpected termination %q", res.Termination)
	}
}

// TestFigure2SurvivesInjectedPanics is the acceptance scenario: panics in
// ≥10% of prefix simulations must not crash the engine or regress
// fitness, and every injected panic that reached a candidate must be
// accounted for.
func TestFigure2SurvivesInjectedPanics(t *testing.T) {
	inj := New(Plan{Seed: 1, PanicEveryN: 10}) // every 10th simulation = 10%
	opts := inj.Wire(core.Options{Strategy: core.BruteForce})
	res := core.RepairContext(context.Background(), figure2Problem(), opts)

	if got := inj.Stats(); got.PanicsInjected == 0 {
		t.Fatalf("plan injected no panics (sims=%d)", got.Simulations)
	}
	if res.CandidatesPanicked == 0 {
		t.Fatal("engine did not account for any quarantined candidate")
	}
	if res.Termination != "feasible" && res.Termination != "deadline" {
		t.Fatalf("termination = %q, want feasible or deadline\n%s", res.Termination, res.Summary())
	}
	assertNoRegression(t, res)
	// The quarantine must have left a usable audit trail.
	found := false
	for _, e := range res.Errors {
		if e.Kind == core.KindCandidatePanic {
			found = true
			if len(e.Stack) == 0 {
				t.Error("candidate-panic error missing captured stack")
			}
		}
	}
	if !found {
		t.Error("no candidate-panic error recorded")
	}
}

// TestFigure2DeadlineTrip injects per-simulation delays so the wall-clock
// budget trips mid-run; the engine must stop with "deadline" and still
// return a usable best-effort result.
func TestFigure2DeadlineTrip(t *testing.T) {
	inj := New(Plan{Seed: 1, DelayPerSim: 5 * time.Millisecond})
	opts := inj.Wire(core.Options{Strategy: core.BruteForce})
	start := time.Now()
	ctx, cancel := context.WithTimeout(context.Background(), 25*time.Millisecond)
	defer cancel()
	res := core.RepairContext(ctx, figure2Problem(), opts)
	elapsed := time.Since(start)

	if res.Termination != "deadline" {
		t.Fatalf("termination = %q, want deadline\n%s", res.Termination, res.Summary())
	}
	if elapsed > time.Second {
		t.Fatalf("deadline honored too slowly: %s", elapsed)
	}
	assertNoRegression(t, res)
}

// TestFigure2PanicsAndDeadlineTogether combines both acceptance faults:
// seeded panics plus one deadline trip.
func TestFigure2PanicsAndDeadlineTogether(t *testing.T) {
	inj := New(Plan{Seed: 7, PanicEveryN: 10, DelayPerSim: 2 * time.Millisecond})
	opts := inj.Wire(core.Options{Strategy: core.BruteForce})
	ctx, cancel := context.WithTimeout(context.Background(), 60*time.Millisecond)
	defer cancel()
	res := core.RepairContext(ctx, figure2Problem(), opts)

	if res.Termination != "feasible" && res.Termination != "deadline" {
		t.Fatalf("termination = %q, want feasible or deadline\n%s", res.Termination, res.Summary())
	}
	assertNoRegression(t, res)
}

// TestInjectedValidatorErrorsDropCandidates: an injected validator error
// drops the one candidate it hit, nothing else. Every validator call
// either fails or resolves exactly one cache miss, and the search still
// repairs Figure 2 from the candidates that validated.
func TestInjectedValidatorErrorsDropCandidates(t *testing.T) {
	// The static prior narrows Figure 2 to a handful of validator calls,
	// so inject aggressively to be sure some candidates are dropped.
	inj := New(Plan{Seed: 1, ValidateErrorEveryN: 2, MaxValidateErrors: 4})
	opts := inj.Wire(core.Options{Strategy: core.BruteForce})
	res := core.RepairContext(context.Background(), figure2Problem(), opts)

	got := inj.Stats()
	if got.ValidateErrorsInjected == 0 {
		t.Fatalf("plan injected no validator errors (validate calls=%d)", got.ValidateCalls)
	}
	if want := res.CacheMisses + res.CandidatesPanicked + got.ValidateErrorsInjected; got.ValidateCalls != want {
		t.Fatalf("%d validator calls, want %d (misses=%d panicked=%d injected=%d)",
			got.ValidateCalls, want, res.CacheMisses, res.CandidatesPanicked, got.ValidateErrorsInjected)
	}
	if !res.Feasible {
		t.Fatalf("run did not repair Figure 2 around the dropped candidates:\n%s", res.Summary())
	}
	assertNoRegression(t, res)
}

// TestCorpusSliceSurvivesChaos runs a slice of the 120-incident corpus
// under combined chaos (panics + validator errors) and requires every run to
// end cleanly with the best-effort guarantee intact.
func TestCorpusSliceSurvivesChaos(t *testing.T) {
	incs, err := incidents.GenerateCorpus(incidents.CorpusOptions{Size: 120, Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	stride := 12
	if testing.Short() {
		stride = 40
	}
	ran := 0
	for idx := 0; idx < len(incs); idx += stride {
		inc := incs[idx]
		inj := New(Plan{Seed: int64(idx), PanicEveryN: 10, ValidateErrorEveryN: 50})
		opts := inj.Wire(core.Options{})
		p := core.Problem{Topo: inc.Scenario.Topo, Configs: inc.Scenario.Configs, Intents: inc.Scenario.Intents}
		ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
		res := core.RepairContext(ctx, p, opts)
		cancel()
		assertNoRegression(t, res)
		if res.BaseFailing > 0 && !res.Feasible && !res.Improved && res.Termination == "feasible" {
			t.Errorf("incident %d: inconsistent result: %s", idx, res.Summary())
		}
		ran++
	}
	if ran < 3 {
		t.Fatalf("corpus slice too small: ran %d", ran)
	}
}

// TestInjectorDeterminism: the same plan observes the same sequence and
// injects the same faults.
func TestInjectorDeterminism(t *testing.T) {
	run := func() (Stats, *core.Result) {
		inj := New(Plan{Seed: 3, PanicRate: 0.15, ValidateErrorEveryN: 9})
		opts := inj.Wire(core.Options{Strategy: core.BruteForce})
		res := core.RepairContext(context.Background(), figure2Problem(), opts)
		return inj.Stats(), res
	}
	s1, r1 := run()
	s2, r2 := run()
	if s1 != s2 {
		t.Fatalf("injector stats diverged: %+v vs %+v", s1, s2)
	}
	if r1.Termination != r2.Termination || r1.CandidatesPanicked != r2.CandidatesPanicked {
		t.Fatalf("engine results diverged: %q/%d vs %q/%d",
			r1.Termination, r1.CandidatesPanicked, r2.Termination, r2.CandidatesPanicked)
	}
}

// TestMaxPanicsCap: the injector honors its panic budget.
func TestMaxPanicsCap(t *testing.T) {
	inj := New(Plan{Seed: 1, PanicEveryN: 2, MaxPanics: 1})
	opts := inj.Wire(core.Options{Strategy: core.BruteForce})
	res := core.RepairContext(context.Background(), figure2Problem(), opts)
	if got := inj.Stats().PanicsInjected; got != 1 {
		t.Fatalf("PanicsInjected = %d, want exactly 1", got)
	}
	assertNoRegression(t, res)
}
