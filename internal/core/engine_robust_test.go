package core_test

import (
	"context"
	"net/netip"
	"testing"
	"time"

	"acr/internal/core"
	"acr/internal/errclass"
	"acr/internal/netcfg"
	"acr/internal/scenario"
)

// assertBestEffort checks the invariants every termination path must
// uphold: BestEffort* populated, fitness never regressing, Improved
// consistent.
func assertBestEffort(t *testing.T, res *core.Result) {
	t.Helper()
	if res.BestEffortConfigs == nil {
		t.Fatalf("termination %q: BestEffortConfigs nil", res.Termination)
	}
	if res.BestEffortFitness > res.BaseFailing {
		t.Fatalf("termination %q: best-effort fitness %d regressed past base %d",
			res.Termination, res.BestEffortFitness, res.BaseFailing)
	}
	if res.Improved != (res.BestEffortFitness < res.BaseFailing) {
		t.Fatalf("termination %q: Improved=%v inconsistent with fitness %d vs base %d",
			res.Termination, res.Improved, res.BestEffortFitness, res.BaseFailing)
	}
	if res.Feasible {
		if res.BestEffortFitness != 0 {
			t.Fatalf("feasible run with best-effort fitness %d", res.BestEffortFitness)
		}
		for d, c := range res.FinalConfigs {
			if res.BestEffortConfigs[d] != c {
				t.Fatalf("feasible run: BestEffortConfigs diverges from FinalConfigs on %s", d)
			}
		}
	}
}

// TestTerminationFeasible: the happy path populates best-effort too.
func TestTerminationFeasible(t *testing.T) {
	res := core.Repair(problemOf(scenario.Figure2()), core.Options{Strategy: core.BruteForce})
	if res.Termination != "feasible" || !res.Feasible {
		t.Fatalf("termination %q feasible=%v, want feasible", res.Termination, res.Feasible)
	}
	if !res.Improved {
		t.Error("feasible repair of a failing base must report Improved")
	}
	assertBestEffort(t, res)
}

// TestTerminationFeasibleOnCleanBase: a base with nothing failing is
// immediately feasible with zero iterations.
func TestTerminationFeasibleOnCleanBase(t *testing.T) {
	res := core.Repair(problemOf(scenario.Figure2Correct()), core.Options{Strategy: core.BruteForce})
	if res.Termination != "feasible" || !res.Feasible || res.Iterations != 0 {
		t.Fatalf("got termination=%q feasible=%v iterations=%d", res.Termination, res.Feasible, res.Iterations)
	}
	if res.Improved {
		t.Error("clean base cannot be Improved")
	}
	assertBestEffort(t, res)
}

// TestTerminationExhausted: an empty template vocabulary generates
// nothing; after widening maxes out the run ends "exhausted" with the
// base as best effort.
func TestTerminationExhausted(t *testing.T) {
	res := core.Repair(problemOf(scenario.Figure2()),
		core.Options{Strategy: core.BruteForce, Templates: []core.Template{}})
	if res.Termination != "exhausted" || res.Feasible {
		t.Fatalf("termination %q feasible=%v, want exhausted", res.Termination, res.Feasible)
	}
	if res.Improved {
		t.Error("no candidates were validated, Improved must be false")
	}
	assertBestEffort(t, res)
}

// noopTemplate replaces the anchored line with its own text: candidates
// validate with unchanged fitness, so they are preserved but the search
// never progresses — the run must hit the iteration cap.
type noopTemplate struct{}

func (noopTemplate) Name() string               { return "noop" }
func (noopTemplate) ErrorClass() errclass.Class { return "test" }
func (noopTemplate) Generate(ctx *core.Context, line netcfg.LineRef) []core.Update {
	return []core.Update{{
		Edits: []netcfg.EditSet{{Device: line.Device, Edits: []netcfg.Edit{
			netcfg.ReplaceLine{At: line.Line, Text: ctx.Configs[line.Device].Line(line.Line)},
		}}},
		Desc: "test: noop " + line.String(),
	}}
}

// TestTerminationIterationCap: a template that never progresses ends on
// "iteration-cap" while preserving best-effort invariants.
func TestTerminationIterationCap(t *testing.T) {
	res := core.Repair(problemOf(scenario.Figure2()), core.Options{
		Strategy:      core.BruteForce,
		MaxIterations: 2,
		Templates:     []core.Template{noopTemplate{}},
	})
	if res.Feasible {
		t.Fatal("noop template cannot repair anything")
	}
	if res.Termination != "iteration-cap" {
		t.Fatalf("termination %q, want iteration-cap", res.Termination)
	}
	if res.Iterations != 2 {
		t.Fatalf("iterations = %d, want 2", res.Iterations)
	}
	assertBestEffort(t, res)
}

// slowSims returns options whose per-prefix simulations sleep, so a
// millisecond-scale deadline reliably trips mid-run (the bare Figure 2
// repair finishes in well under a millisecond).
func slowSims(opts core.Options, d time.Duration) core.Options {
	opts.SimOpts.PrefixHook = func(netip.Prefix) { time.Sleep(d) }
	return opts
}

// TestTerminationDeadline: acceptance requirement — a 1ms deadline
// returns within 100ms with Termination == "deadline".
func TestTerminationDeadline(t *testing.T) {
	start := time.Now()
	ctx, cancel := context.WithTimeout(context.Background(), time.Millisecond)
	defer cancel()
	res := core.RepairContext(ctx, problemOf(scenario.Figure2()),
		slowSims(core.Options{}, time.Millisecond))
	elapsed := time.Since(start)
	if res.Termination != "deadline" {
		t.Fatalf("termination %q, want deadline (%s)", res.Termination, res.Summary())
	}
	if elapsed > 100*time.Millisecond {
		t.Fatalf("1ms deadline honored in %s, want < 100ms", elapsed)
	}
	assertBestEffort(t, res)
	if len(res.Errors) == 0 || res.Errors[len(res.Errors)-1].Kind != core.KindDeadline {
		t.Error("deadline termination must record a KindDeadline error")
	}
}

// TestTerminationDeadlineViaAbsoluteTime: a context with an absolute
// deadline ends the run like a relative timeout.
func TestTerminationDeadlineViaAbsoluteTime(t *testing.T) {
	ctx, cancel := context.WithDeadline(context.Background(), time.Now().Add(time.Millisecond))
	defer cancel()
	res := core.RepairContext(ctx, problemOf(scenario.Figure2()),
		slowSims(core.Options{}, time.Millisecond))
	if res.Termination != "deadline" {
		t.Fatalf("termination %q, want deadline", res.Termination)
	}
	assertBestEffort(t, res)
}

// TestTerminationCanceled: a pre-canceled context stops the run
// immediately with Termination "canceled".
func TestTerminationCanceled(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	res := core.RepairContext(ctx, problemOf(scenario.Figure2()), core.Options{})
	if res.Termination != "canceled" {
		t.Fatalf("termination %q, want canceled", res.Termination)
	}
	assertBestEffort(t, res)
	if len(res.Errors) == 0 || res.Errors[len(res.Errors)-1].Kind != core.KindCanceled {
		t.Error("canceled termination must record a KindCanceled error")
	}
}

// TestRepairContextMatchesRepair: with no bounds set, the context-aware
// entry point is behaviorally identical to Repair.
func TestRepairContextMatchesRepair(t *testing.T) {
	p := problemOf(scenario.Figure2())
	a := core.Repair(p, core.Options{Strategy: core.BruteForce})
	b := core.RepairContext(context.Background(), p, core.Options{Strategy: core.BruteForce})
	if a.Feasible != b.Feasible || a.Termination != b.Termination ||
		a.Iterations != b.Iterations || a.CandidatesValidated != b.CandidatesValidated {
		t.Fatalf("divergence: %s vs %s", a.Summary(), b.Summary())
	}
}

// panicTemplate always panics when generating; the engine must quarantine
// it and keep searching with the healthy templates.
type panicTemplate struct{}

func (panicTemplate) Name() string               { return "panic" }
func (panicTemplate) ErrorClass() errclass.Class { return "test" }
func (panicTemplate) Generate(*core.Context, netcfg.LineRef) []core.Update {
	panic("template bug")
}

// TestPanickingTemplateQuarantined: a hostile template cannot kill the
// run, and its panics are accounted.
func TestPanickingTemplateQuarantined(t *testing.T) {
	tmpls := append([]core.Template{panicTemplate{}}, core.BuiltinTemplates()...)
	res := core.Repair(problemOf(scenario.Figure2()),
		core.Options{Strategy: core.BruteForce, Templates: tmpls})
	if !res.Feasible {
		t.Fatalf("engine failed with a panicking template present: %s", res.Summary())
	}
	if res.CandidatesPanicked == 0 {
		t.Fatal("panicking template not accounted in CandidatesPanicked")
	}
	foundGenerate := false
	for _, e := range res.Errors {
		if e.Kind == core.KindCandidatePanic && e.Op == "generate" {
			foundGenerate = true
			if len(e.Stack) == 0 {
				t.Error("generate panic missing stack")
			}
		}
	}
	if !foundGenerate {
		t.Error("no generate-stage candidate-panic recorded")
	}
	assertBestEffort(t, res)
}

// TestErrorsCapped: Result.Errors stays bounded no matter how many faults
// occur; the counter keeps the full tally.
func TestErrorsCapped(t *testing.T) {
	tmpls := []core.Template{panicTemplate{}}
	res := core.Repair(problemOf(scenario.Figure2()),
		core.Options{Strategy: core.BruteForce, Templates: tmpls, MaxIterations: 3})
	if len(res.Errors) > 16 {
		t.Fatalf("Errors len = %d, want <= 16", len(res.Errors))
	}
	if res.CandidatesPanicked < len(res.Errors) {
		t.Fatalf("counter %d below stored errors %d", res.CandidatesPanicked, len(res.Errors))
	}
}
