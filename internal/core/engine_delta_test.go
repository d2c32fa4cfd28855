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

// TestSearchDigestGolden pins SearchDigest to the value brute force wrote
// before the full-validation, impact and delta ablation switches were
// removed (they hash as their constant false) and before the evolutionary
// search was retired, so brute-force journals and service state
// directories written then still resume. Both strategy names, the default
// among them, now hash as brute force.
func TestSearchDigestGolden(t *testing.T) {
	for _, c := range []struct {
		name string
		opts core.Options
		want string
	}{
		{"defaults", core.Options{}, "26e3a00fce6e607d4e0e7613bcd292fb2cc3b32096b517b0bd42e7d6a0ff4a0a"},
		{"bruteforce", core.Options{Strategy: core.BruteForce}, "26e3a00fce6e607d4e0e7613bcd292fb2cc3b32096b517b0bd42e7d6a0ff4a0a"},
		{"evolutionary", core.Options{Strategy: core.Evolutionary}, "26e3a00fce6e607d4e0e7613bcd292fb2cc3b32096b517b0bd42e7d6a0ff4a0a"},
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
	refusesRetiredDigest(t, "c335d0a3830e35a9253b809086c0adab0f759f2209ab436935fedb75813690b3", core.Options{Seed: 1})
}

// TestFullValidationSessionRefused: a session journaled with the retired
// full-validation ablation is refused the same way.
func TestFullValidationSessionRefused(t *testing.T) {
	// SearchDigest of Options{FullValidation: true} when the switch existed.
	refusesRetiredDigest(t, "42dfd7271eae0da1634a89e7bd543001d1ecb99276c45d1d0842668db937eef2", core.Options{Seed: 1})
}

// TestEvolutionarySessionRefused: a Figure 2 session journaled under the
// retired evolutionary search, which shuffled and sampled its proposals,
// cannot be continued by the rank-order search that name now runs.
// CheckResume refuses it, and the run is a fresh one.
func TestEvolutionarySessionRefused(t *testing.T) {
	opts := core.Options{Strategy: core.Evolutionary, Seed: 7, MaxIterations: 25}
	// SearchDigest of these options while the evolutionary search existed.
	refusesRetiredDigest(t, "2b98907a330b1161ef6c58dd76ee00c9835033353f359d81756191fddc59b14a", opts)
}

// refusesRetiredDigest journals a Figure 2 run of opts under options digest
// digest, then resumes it: CheckResume and the resume must refuse it, the
// latter with a KindJournal error, and the run must match a fresh one.
func refusesRetiredDigest(t *testing.T, digest string, opts core.Options) {
	t.Helper()
	p := problemOf(scenario.Figure2())
	hdr := core.SessionHeader("retired", p, opts)
	hdr.OptionsDigest = digest
	dir := t.TempDir()
	w, err := journal.Create(dir, hdr)
	if err != nil {
		t.Fatal(err)
	}
	journaled := opts
	journaled.Journal = w
	core.Repair(p, journaled)
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

	if err := core.CheckResume(sess, p, opts); err == nil || !strings.Contains(err.Error(), "options digest") {
		t.Errorf("CheckResume = %v, want an options-digest refusal", err)
	}
	resumed := opts
	resumed.Resume = sess
	res := core.Repair(p, resumed)
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
	if fresh := core.Repair(p, opts); res.Canonical() != fresh.Canonical() {
		t.Errorf("refused resume diverges from a fresh run\n--- fresh ---\n%s\n--- refused ---\n%s",
			fresh.Canonical(), res.Canonical())
	}
}
