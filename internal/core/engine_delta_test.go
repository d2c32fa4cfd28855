package core_test

import (
	"strings"
	"testing"

	"acr/internal/core"
	"acr/internal/journal"
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
// constant false), so journals and service state directories written
// then still resume. Differential moves
// nothing and is excluded.
func TestSearchDigestGolden(t *testing.T) {
	for _, c := range []struct {
		name string
		opts core.Options
		want string
	}{
		{"defaults", core.Options{}, "4e11203c04540eb565dd9dee844c30eb4e67665fcd2013f88aaa37339961dc10"},
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

// TestNoCacheSessionRefused: a session journaled by an older engine with
// its evaluation cache switched off (-no-cache) counted hits and misses as
// zero, so its checkpoints cannot continue a cached run. Its options digest
// names a search this engine no longer runs: resume must refuse it with a
// KindJournal error and run fresh, not mis-resume.
func TestNoCacheSessionRefused(t *testing.T) {
	// SearchDigest of Options{Seed: 1, NoCache: true} when the switch existed.
	const noCacheDigest = "c335d0a3830e35a9253b809086c0adab0f759f2209ab436935fedb75813690b3"
	p := problemOf(scenario.Figure2())
	hdr := core.SessionHeader("no-cache", p, core.Options{Seed: 1})
	hdr.OptionsDigest = noCacheDigest
	dir := t.TempDir()
	w, err := journal.Create(dir, hdr)
	if err != nil {
		t.Fatal(err)
	}
	core.Repair(p, core.Options{Seed: 1, Journal: w})
	if err := w.Close(); err != nil {
		t.Fatal(err)
	}
	sess, err := journal.Replay(dir)
	if err != nil {
		t.Fatal(err)
	}
	sess.Terminal = nil // the process died before its terminal record
	if sess.Checkpoint == nil || !sess.Resumable() {
		t.Fatal("journaled session holds no resumable checkpoint")
	}

	res := core.Repair(p, core.Options{Seed: 1, Resume: sess})
	if res.Resumed {
		t.Fatal("resumed a session journaled with the cache off")
	}
	refused := false
	for _, e := range res.Errors {
		if e.Kind == core.KindJournal && strings.Contains(e.Err.Error(), "options digest") {
			refused = true
		}
	}
	if !refused {
		t.Errorf("no KindJournal options-digest refusal recorded: %v", res.Errors)
	}
	if fresh := core.Repair(p, core.Options{Seed: 1}); res.Canonical() != fresh.Canonical() {
		t.Errorf("refused resume diverges from a fresh run\n--- fresh ---\n%s\n--- refused ---\n%s",
			fresh.Canonical(), res.Canonical())
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
