package acr_test

import (
	"testing"

	acr "acr"
)

// TestDifferentialCorpus is the incremental verifier's soundness
// regression net: every corpus incident is repaired with Differential on,
// so every prefix the delta propagation answers is replayed against a cold
// simulation and every scoped validation (statically refuted candidates
// included) against a from-scratch full check. Any disagreement terminates
// the run with "delta-divergence" or "impact-divergence". In -short mode a
// sample runs; the full 120-incident sweep is the soundness CI job.
func TestDifferentialCorpus(t *testing.T) {
	size := 120
	if testing.Short() {
		size = 12
	}
	incs, err := acr.GenerateCorpus(acr.CorpusOptions{Size: size, Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	refuted, scoped, broad, reused, fallbacks := 0, 0, 0, 0, 0
	for _, inc := range incs {
		r := acr.RunIncident(inc, acr.RepairOptions{Differential: true})
		if r.Termination == "impact-divergence" || r.Termination == "delta-divergence" {
			t.Errorf("%s: %s", inc.ID, r.Termination)
		}
		refuted += r.StaticallyRefuted
		scoped += r.ImpactScoped
		broad += r.ImpactBroad
		reused += r.DeltaReused
		fallbacks += r.DeltaResimulated
	}
	t.Logf("%d incidents: %d candidates statically refuted, %d impact-scoped, %d broad; %d prefixes answered by delta, %d fell back to cold simulation",
		len(incs), refuted, scoped, broad, reused, fallbacks)
	if refuted+scoped == 0 {
		t.Error("impact analysis never pruned anything across the corpus; the report replay is vacuous")
	}
	if reused == 0 {
		t.Error("delta propagation never answered a prefix across the corpus; the per-prefix replay is vacuous")
	}
}

// TestIncrementalMatchesFullValidation holds the default validation path
// to the strongest reference the engine has: FullValidation re-parses,
// recompiles, cold-simulates every prefix and re-verifies every intent for
// each candidate. The search must decide byte-identically (same
// Canonical() output) while the incremental path evaluates at least 3x
// fewer prefixes, and delta re-simulation answers at least 90% of the
// prefixes it simulates.
func TestIncrementalMatchesFullValidation(t *testing.T) {
	size := 24
	if testing.Short() {
		size = 8
	}
	incs, err := acr.GenerateCorpus(acr.CorpusOptions{Size: size, Seed: 3})
	if err != nil {
		t.Fatal(err)
	}
	cold, delta, derived, full := 0, 0, 0, 0
	for _, inc := range incs {
		c := acr.IncidentCase(inc)
		inc1 := acr.Repair(c, acr.RepairOptions{})
		ref := acr.Repair(c, acr.RepairOptions{FullValidation: true})
		if inc1.Canonical() != ref.Canonical() {
			t.Errorf("%s: Canonical() differs between incremental and full validation:\n--- incremental:\n%s\n--- full:\n%s",
				inc.ID, inc1.Canonical(), ref.Canonical())
		}
		cold += inc1.PrefixSimulations
		delta += inc1.DeltaReused
		derived += inc1.LeafDerivations
		full += ref.PrefixSimulations
	}
	evaluated := cold + delta + derived
	t.Logf("prefixes evaluated: %d under full validation, %d incremental (%d cold, %d by delta, %d leaf-derived): %.2fx",
		full, evaluated, cold, delta, derived, float64(full)/float64(max(evaluated, 1)))
	if full < 3*evaluated {
		t.Errorf("incremental validation evaluates %d prefixes, over a third of full validation's %d", evaluated, full)
	}
	if share := float64(delta) / float64(max(cold+delta, 1)); share < 0.9 {
		t.Errorf("delta re-simulation answers %.3f of the simulated prefixes, want at least 0.9", share)
	}
}
