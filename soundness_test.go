package acr_test

import (
	"context"
	"reflect"
	"testing"

	acr "acr"
	"acr/internal/bgp"
	"acr/internal/netcfg"
	"acr/internal/oracle"
	"acr/internal/verify"
)

// TestDifferentialCorpus holds every repair the public API reports on the
// seed-1 corpus to references outside the engine: the edits turning the
// broken configurations into the repaired ones are audited with
// oracle.Audit on a verifier built from the case (incremental verdicts
// against a from-scratch check, delta re-simulation against a cold one, the
// cold outcome against the reference simulator), and a feasible repair must
// pass every intent. In -short mode a sample runs. The per-candidate audit
// of every search is TestSoundnessAudit in internal/core.
func TestDifferentialCorpus(t *testing.T) {
	size := 120
	if testing.Short() {
		size = 12
	}
	incs, err := acr.GenerateCorpus(acr.CorpusOptions{Size: size, Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	var tally oracle.Tally
	feasible := 0
	for _, inc := range incs {
		c := acr.IncidentCase(inc)
		res := acr.Repair(c, acr.RepairOptions{})
		iv := verify.NewIncremental(c.Topo, c.Configs, c.Intents, bgp.Options{})
		var edits []netcfg.EditSet
		for _, d := range iv.BaseNet().Order {
			from, to := c.Configs[d].Lines(), res.FinalConfigs[d].Lines()
			if reflect.DeepEqual(from, to) {
				continue
			}
			es := editsBetween(d, from, to)
			if got, err := es.Apply(c.Configs[d]); err != nil || !reflect.DeepEqual(got.Lines(), to) {
				t.Fatalf("%s: the edit script for %s does not reproduce the repair (%v)", inc.ID, d, err)
			}
			edits = append(edits, es)
		}
		if res.Feasible != (len(edits) > 0) {
			t.Errorf("%s: feasible=%v with %d devices edited", inc.ID, res.Feasible, len(edits))
		}
		if len(edits) == 0 {
			continue
		}
		feasible++
		if err := tally.Audit(context.Background(), iv, edits); err != nil {
			t.Errorf("%s: %v", inc.ID, err)
		}
		if rep, _, err := iv.CheckCtx(context.Background(), edits); err != nil || rep.NumFailed() != 0 {
			t.Errorf("%s: the reported repair does not pass every intent (err %v)", inc.ID, err)
		}
	}
	t.Logf("%d incidents, %d repaired: %+v", len(incs), feasible, tally)
	if feasible == 0 || tally.DeltaReplayed == 0 || tally.Converged == 0 {
		t.Errorf("the audit is vacuous: %d repairs, %+v", feasible, tally)
	}
}

// TestIncrementalMatchesFullValidation holds the default validation path
// to verify.FullCheck, which re-parses, recompiles, cold-simulates every
// prefix and re-verifies every intent. On the seed-3 double-fault corpus
// the incremental check of the broken configurations and of each reported
// repair must give every intent the verdict the from-scratch check gives
// it. Pricing each validated candidate at the from-scratch check of the
// broken configurations, the search must evaluate at least 3x fewer
// prefixes, and delta re-simulation must answer at least 90% of the
// prefixes it simulates. Every double fault must take its search past the
// first iteration, where candidates are checked on preserved versions.
// TestSoundnessAudit in internal/core holds every candidate a search
// validates to the from-scratch check.
func TestIncrementalMatchesFullValidation(t *testing.T) {
	size := 24
	if testing.Short() {
		size = 8
	}
	incs, err := acr.GenerateCorpus(acr.CorpusOptions{Size: size, Seed: 3, DoubleFaultShare: 1})
	if err != nil {
		t.Fatal(err)
	}
	ctx := context.Background()
	cold, delta, full, doubles := 0, 0, 0, 0
	for _, inc := range incs {
		c := acr.IncidentCase(inc)
		res := acr.Repair(c, acr.RepairOptions{})
		if inc.DoubleFault {
			doubles++
			if res.Iterations < 2 {
				t.Errorf("%s: a double fault searched %d iterations, want at least 2", inc.ID, res.Iterations)
			}
		}
		iv := verify.NewIncremental(c.Topo, c.Configs, c.Intents, bgp.Options{})
		var edits []netcfg.EditSet
		for _, d := range iv.BaseNet().Order {
			if from, to := c.Configs[d].Lines(), res.FinalConfigs[d].Lines(); !reflect.DeepEqual(from, to) {
				edits = append(edits, editsBetween(d, from, to))
			}
		}
		for _, check := range []struct {
			name  string
			edits []netcfg.EditSet
		}{{"broken", nil}, {"repaired", edits}} {
			got, _, err := iv.CheckCtx(ctx, check.edits)
			if err != nil {
				t.Fatalf("%s: %s: incremental check: %v", inc.ID, check.name, err)
			}
			want, stats, err := iv.FullCheckCtx(ctx, check.edits)
			if err != nil {
				t.Fatalf("%s: %s: full check: %v", inc.ID, check.name, err)
			}
			for _, v := range want.Verdicts {
				if g := got.ByID(v.Intent.ID); g == nil || g.Pass != v.Pass {
					t.Errorf("%s: %s: intent %s: full check pass=%v, the incremental check disagrees or omits it",
						inc.ID, check.name, v.Intent.ID, v.Pass)
				}
			}
			if check.edits == nil {
				full += res.CandidatesValidated * stats.PrefixesSimulated
			}
		}
		cold += res.PrefixSimulations
		delta += res.DeltaReused
	}
	evaluated := cold + delta
	t.Logf("%d incidents, %d double faults; prefixes evaluated: %d under full validation, %d incremental (%d cold, %d by delta): %.2fx",
		len(incs), doubles, full, evaluated, cold, delta, float64(full)/float64(max(evaluated, 1)))
	if doubles == 0 {
		t.Error("the corpus holds no double fault")
	}
	if full < 3*evaluated {
		t.Errorf("incremental validation evaluates %d prefixes, over a third of full validation's %d", evaluated, full)
	}
	if share := float64(delta) / float64(max(evaluated, 1)); share < 0.9 {
		t.Errorf("delta re-simulation answers %.3f of the simulated prefixes, want at least 0.9", share)
	}
}
