package core_test

import (
	"strings"
	"testing"

	"acr/internal/core"
	"acr/internal/scenario"
)

// TestDeltaCountersExcludedFromCanonical pins the exclusion contract:
// DeltaReused/DeltaResimulated/SimActivations are work counters, so
// mutating them must not move a byte of Canonical() — otherwise a delta
// run could never match its FullValidation reference byte for byte.
func TestDeltaCountersExcludedFromCanonical(t *testing.T) {
	p := problemOf(scenario.Figure2())
	res := core.Repair(p, core.Options{Strategy: core.BruteForce})
	before := res.Canonical()
	res.DeltaReused += 1000
	res.DeltaResimulated += 1000
	res.SimActivations += 1000
	if res.Canonical() != before {
		t.Error("delta work counters leak into Canonical()")
	}
	// They do surface in the human-facing summary.
	if !strings.Contains(res.Summary(), "delta:") {
		t.Errorf("Summary() missing the delta line:\n%s", res.Summary())
	}
}

// TestSearchDigestGolden pins SearchDigest to the values written before
// the impact and delta ablation switches were removed (they hash as their
// constant false), so journals, service state directories and fleet
// dedup keys written then still resume and dedup. Differential moves
// nothing and is excluded.
func TestSearchDigestGolden(t *testing.T) {
	for _, c := range []struct {
		name string
		opts core.Options
		want string
	}{
		{"defaults", core.Options{}, "4e11203c04540eb565dd9dee844c30eb4e67665fcd2013f88aaa37339961dc10"},
		{"seed 1, no cache", core.Options{Seed: 1, NoCache: true}, "c335d0a3830e35a9253b809086c0adab0f759f2209ab436935fedb75813690b3"},
		{"full validation", core.Options{FullValidation: true}, "42dfd7271eae0da1634a89e7bd543001d1ecb99276c45d1d0842668db937eef2"},
	} {
		if got := c.opts.SearchDigest(); got != c.want {
			t.Errorf("%s: SearchDigest() = %s, want %s", c.name, got, c.want)
		}
		c.opts.Differential = true
		if got := c.opts.SearchDigest(); got != c.want {
			t.Errorf("%s: Differential moves SearchDigest to %s; observational replay must not split sessions", c.name, got)
		}
	}
}

// TestDifferentialFigure2 runs the engine with Differential on:
// every delta-simulated prefix is replayed against a cold simulation and
// every report against a full check inside the validation, and any
// divergence terminates the run. A clean pass on the worked incident is
// the smoke version of the corpus-wide soundness CI job.
func TestDifferentialFigure2(t *testing.T) {
	p := problemOf(scenario.Figure2())
	res := core.Repair(p, core.Options{Strategy: core.BruteForce, Differential: true})
	if res.Termination == "delta-divergence" || res.Termination == "impact-divergence" {
		t.Fatalf("incremental validation diverged from the cold path:\n%s", res.Summary())
	}
	want := core.Repair(p, core.Options{Strategy: core.BruteForce})
	if res.Canonical() != want.Canonical() {
		t.Error("Differential changed the result; replay must be observational")
	}
}
