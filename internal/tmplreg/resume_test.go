package tmplreg

import (
	"context"
	"strings"
	"testing"

	"acr/internal/core"
	"acr/internal/journal"
	"acr/internal/scenario"
)

// rebuildWithVersion reconstructs the builtin engine library in
// registration order (List is name-sorted, and template order is part of
// SearchDigest), bumping one template's version — the same code under a
// changed descriptor, which must be enough to orphan a journal.
func rebuildWithVersion(t *testing.T, name, version string) *Registry {
	t.Helper()
	src := NewBuiltin()
	out := New()
	for _, tm := range src.EngineTemplates() {
		n := tm.Name()
		e, ok := src.Lookup(n)
		if !ok {
			t.Fatalf("builtin %s vanished", n)
		}
		m := e.Meta
		if n == name {
			m.Version = version
		}
		if err := out.Register(m, e.Template()); err != nil {
			t.Fatal(err)
		}
	}
	return out
}

// TestResumeRefusesChangedTemplateSet is the registry/journal contract: a
// session journaled under one registry digest refuses to resume against a
// template set whose descriptors changed — even a version bump with
// identical code — with a KindJournal error naming the digest mismatch.
// The same journal resumes cleanly under an identical registry, proving
// the refusal is the digest and nothing else.
func TestResumeRefusesChangedTemplateSet(t *testing.T) {
	s := scenario.Figure2()
	p := core.Problem{Topo: s.Topo, Configs: s.Configs, Intents: s.Intents}
	journaled := core.Options{Seed: 7, MaxIterations: 10, Templates: NewBuiltin().EngineTemplates()}

	// Journal only the session header — a run that died before its first
	// checkpoint. The digest check precedes any checkpoint logic, so this
	// is the minimal resumable artifact.
	dir := t.TempDir()
	w, err := journal.Create(dir, core.SessionHeader("tmplreg-test", p, journaled))
	if err != nil {
		t.Fatal(err)
	}
	if err := w.Close(); err != nil {
		t.Fatal(err)
	}
	sess, err := journal.Replay(dir)
	if err != nil {
		t.Fatal(err)
	}
	if !sess.Resumable() {
		t.Fatal("header-only session not resumable")
	}

	// Same case, same seed, same template CODE — but fix-peer-asn's
	// descriptor version was bumped, so the registry digest differs.
	bumped := rebuildWithVersion(t, "fix-peer-asn", "9.9.9")
	res := core.RepairContext(context.Background(), p, core.Options{
		Seed: 7, MaxIterations: 10, Templates: bumped.EngineTemplates(), Resume: sess,
	})
	if res.Resumed {
		t.Fatal("resumed a session journaled under a different template set")
	}
	found := false
	for _, e := range res.Errors {
		if e.Kind == core.KindJournal && strings.Contains(e.Err.Error(), "options digest") {
			found = true
		}
	}
	if !found {
		t.Errorf("template-set mismatch not surfaced as a KindJournal digest error: %v", res.Errors)
	}

	// Control: an identical registry resumes without complaint (the run
	// restarts fresh — no checkpoint — but records no journal error).
	res = core.RepairContext(context.Background(), p, core.Options{
		Seed: 7, MaxIterations: 10, Templates: NewBuiltin().EngineTemplates(), Resume: sess,
	})
	for _, e := range res.Errors {
		if e.Kind == core.KindJournal {
			t.Errorf("identical template set refused: %v", e)
		}
	}
}
