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
// mutating them must not move a byte of Canonical() — otherwise a run's
// result would depend on how much of it delta re-simulation answered.
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

// TestSearchDigestGolden pins SearchDigest to the value written before the
// full-validation, impact and delta ablation switches were removed (they
// hash as their constant false), so journals and service state directories
// written then still resume.
func TestSearchDigestGolden(t *testing.T) {
	for _, c := range []struct {
		name string
		opts core.Options
		want string
	}{
		{"defaults", core.Options{}, "4e11203c04540eb565dd9dee844c30eb4e67665fcd2013f88aaa37339961dc10"},
	} {
		if got := c.opts.SearchDigest(); got != c.want {
			t.Errorf("%s: SearchDigest() = %s, want %s", c.name, got, c.want)
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
	refusesRetiredDigest(t, "c335d0a3830e35a9253b809086c0adab0f759f2209ab436935fedb75813690b3")
}

// TestFullValidationSessionRefused: a session journaled with the retired
// full-validation ablation is refused the same way.
func TestFullValidationSessionRefused(t *testing.T) {
	// SearchDigest of Options{FullValidation: true} when the switch existed.
	refusesRetiredDigest(t, "42dfd7271eae0da1634a89e7bd543001d1ecb99276c45d1d0842668db937eef2")
}

// refusesRetiredDigest journals a Figure 2 run under options digest digest,
// then resumes it: the resume must be refused with a KindJournal error and
// match a fresh run.
func refusesRetiredDigest(t *testing.T, digest string) {
	t.Helper()
	p := problemOf(scenario.Figure2())
	hdr := core.SessionHeader("retired", p, core.Options{Seed: 1})
	hdr.OptionsDigest = digest
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
		t.Fatal("resumed a session journaled under a retired option")
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
