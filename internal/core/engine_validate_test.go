package core_test

import (
	"context"
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"testing"

	"acr/internal/core"
	"acr/internal/errclass"
	"acr/internal/incidents"
	"acr/internal/netcfg"
	"acr/internal/scenario"
	"acr/internal/verify"
)

// corpusSlice is the 8-incident, seed-3 corpus slice as repair problems,
// with their incident IDs. Its misconfiguration classes exercise
// different templates, widening rounds and best-effort paths.
func corpusSlice(t *testing.T) ([]string, []core.Problem) {
	t.Helper()
	incs, err := incidents.GenerateCorpus(incidents.CorpusOptions{Size: 8, Seed: 3})
	if err != nil {
		t.Fatal(err)
	}
	var ids []string
	var ps []core.Problem
	for _, inc := range incs {
		ids = append(ids, inc.ID)
		ps = append(ps, core.Problem{Topo: inc.Scenario.Topo, Configs: inc.Scenario.Configs, Intents: inc.Scenario.Intents})
	}
	return ids, ps
}

// fourFaultStack is the four-fault stack of the seed-3, 24-incident corpus
// (incidents.Stack): inc-000-Route+inc-001-Route+inc-002-Peer+inc-003-Policy.
// The search fixes one fault per iteration and is feasible in its fourth,
// with two or more members in every population after the base.
func fourFaultStack(t *testing.T) *incidents.Incident {
	t.Helper()
	incs, err := incidents.GenerateCorpus(incidents.CorpusOptions{Size: 24, Seed: 3})
	if err != nil {
		t.Fatal(err)
	}
	inc, err := incidents.Stack(incs, 4)
	if err != nil {
		t.Fatal(err)
	}
	return inc
}

// TestCanonicalGolden pins the SHA-256 of Canonical() for Figure 2 and for
// every incident of the seed-3 corpus slice, under both strategy names:
// they run the one search, so each pin holds for both. The digests are the
// ones the engine produced while it still had validator retries and
// per-candidate timeouts, whose counters Canonical() now renders as
// constant zeros; the service's canonicalSha256 and the benchmark's
// canonical_sha256 hash the same bytes.
func TestCanonicalGolden(t *testing.T) {
	sum := func(res *core.Result) string {
		h := sha256.Sum256([]byte(res.Canonical()))
		return hex.EncodeToString(h[:])
	}
	strategies := []core.Strategy{core.BruteForce, core.Evolutionary}
	p := problemOf(scenario.Figure2())
	for _, opts := range []core.Options{{Strategy: core.BruteForce}, {Strategy: core.Evolutionary, Seed: 7, MaxIterations: 25}} {
		if got, want := sum(core.Repair(p, opts)), "3d997f81565632a45fe99ab53821a88005f054d4e1cb398b9a53dfa98125468d"; got != want {
			t.Errorf("figure2, strategy %d: Canonical() sha256 = %s, want %s", opts.Strategy, got, want)
		}
	}
	want := map[string]string{
		"inc-000-Route":  "cf181d11531c4a7f2a9b277ed4b760ec0f748d0a00dd67ba243b97a254ce2454",
		"inc-001-PBR":    "5e1fecb8287a133474b17b96d2d9d767b469a501fb1bde5b757ac3137cd42a1c",
		"inc-002-Route":  "bbbe81dc858f29e7cd00618661c6e49df3a7dad665f8c5fcdeea16793d4a5ec4",
		"inc-003-Policy": "27f7c6cd1817db49c6fd8c68412d722b85bff6c40d53a79141a85b46653e1497",
		"inc-004-Peer":   "8a98ce010f87488ef128f785065950739cf8a7670ef14bf0b59891453ca3958f",
		"inc-005-Policy": "4701253b280885c1990789836f7876aa65d1c414cf70f9ecd58d2999e5489f7c",
		"inc-006-Peer":   "619135cde7cbf4384f2fd749eb482537650f6014d36567ae99c889917c687f7a",
		"inc-007-Policy": "ef5ef6b983be20e9b79006a9b955441f91b27d8169b003372242dc2ca1f1a109",
	}
	ids, ps := corpusSlice(t)
	if len(ids) != len(want) {
		t.Fatalf("corpus slice has %d incidents, want %d", len(ids), len(want))
	}
	for i, p := range ps {
		for _, s := range strategies {
			if got := sum(core.Repair(p, core.Options{Strategy: s, Seed: 11, MaxIterations: 20})); got != want[ids[i]] {
				t.Errorf("%s, strategy %d: Canonical() sha256 = %s, want %s", ids[i], s, got, want[ids[i]])
			}
		}
	}
}

// TestEvalCacheInvariants pins the evaluation cache's accounting: every
// validated candidate resolves through it (validated = hits + misses), and
// the four-fault stack, whose later populations reach one version by more
// than one order of edits, re-proposes candidates the cache answers.
func TestEvalCacheInvariants(t *testing.T) {
	p := problemOf(scenario.Figure2())
	want := core.Repair(p, core.Options{})
	if !want.Feasible {
		t.Fatalf("infeasible: %s", want.Summary())
	}
	if want.CandidatesValidated != want.CacheHits+want.CacheMisses {
		t.Errorf("validated=%d but hits+misses=%d — every candidate must resolve through the cache",
			want.CandidatesValidated, want.CacheHits+want.CacheMisses)
	}

	ids, ps := corpusSlice(t)
	stack := fourFaultStack(t)
	ids, ps = append(ids, stack.ID), append(ps, problemOf(stack.Scenario))
	tested := 0
	for i, p := range ps {
		res := core.Repair(p, core.Options{Seed: 11, MaxIterations: 20})
		if res.BaseFailing == 0 {
			continue // injection invisible to the intent suite
		}
		tested++
		if res.CandidatesValidated != res.CacheHits+res.CacheMisses {
			t.Errorf("%s: validated=%d but hits+misses=%d", ids[i], res.CandidatesValidated, res.CacheHits+res.CacheMisses)
		}
		if ids[i] == stack.ID && (res.Iterations != 4 || res.CacheHits == 0) {
			t.Errorf("%s: %d iterations and %d cache hits, want 4 iterations and hits", ids[i], res.Iterations, res.CacheHits)
		}
	}
	if tested == 0 {
		t.Fatal("no visible incidents in corpus slice")
	}
}

// TestValidationStopsAtFeasible pins what the engine simulates: exactly
// the candidates it accounts as simulated — in-memory misses the store did
// not answer. A candidate answered by the cache or the store is never
// validated, and neither is anything proposed after the feasible candidate
// of the last iteration; one whose edits do not apply fails its check and
// is neither cached nor counted. The audit hook counts the successful
// checks.
func TestValidationStopsAtFeasible(t *testing.T) {
	check := func(name string, p core.Problem, opts core.Options) *core.Result {
		t.Helper()
		calls := 0
		res := core.Repair(p, core.WithAudit(opts, func(context.Context, *verify.Incremental, []netcfg.EditSet) error {
			calls++
			return nil
		}))
		if want := res.CacheMisses - res.StoreHits; calls != want {
			t.Errorf("%s: %d validator calls, want %d (misses=%d storeHits=%d)\n%s",
				name, calls, want, res.CacheMisses, res.StoreHits, res.Summary())
		}
		return res
	}
	p := problemOf(scenario.Figure2())
	bf := core.Options{Strategy: core.BruteForce}
	if res := check("figure2", p, bf); !res.Feasible {
		t.Fatalf("figure2: infeasible: %s", res.Summary())
	}
	lib := core.Options{Strategy: core.BruteForce, Templates: append([]core.Template{outOfRange{}}, core.BuiltinTemplates()...)}
	if res := check("figure2 with out-of-range", p, lib); !res.Feasible {
		t.Fatalf("figure2 with out-of-range: infeasible: %s", res.Summary())
	}
	// Over a warm store every in-memory miss is a store hit: nothing is
	// simulated at all.
	st := newFakeStore()
	bf.Store = st
	core.Repair(p, bf)
	if res := check("figure2 warm store", p, bf); res.StoreHits == 0 {
		t.Fatalf("figure2 warm store: no store hits: %s", res.Summary())
	}

	ids, ps := corpusSlice(t)
	for i, p := range ps {
		check(ids[i], p, core.Options{Seed: 11, MaxIterations: 20})
	}
}

// outOfRange is a template whose every candidate deletes a line past the
// end of its device's configuration: the verifier cannot apply it.
type outOfRange struct{}

func (outOfRange) Name() string               { return "out-of-range" }
func (outOfRange) ErrorClass() errclass.Class { return errclass.UniversalSyntactic }
func (outOfRange) Generate(ctx *core.Context, line netcfg.LineRef) []core.Update {
	return []core.Update{{
		Edits: []netcfg.EditSet{{Device: line.Device, Edits: []netcfg.Edit{netcfg.DeleteLine{At: 1 << 20}}}},
		Desc:  fmt.Sprintf("delete %s line %d", line.Device, 1<<20),
	}}
}

// TestValidatorErrorDropsCandidate: a candidate the verifier rejects with
// an error is dropped, uncounted and uncached. With only the out-of-range
// template the search validates nothing and exhausts from the base.
func TestValidatorErrorDropsCandidate(t *testing.T) {
	p := problemOf(scenario.Figure2())
	res := core.Repair(p, core.Options{Strategy: core.BruteForce, Templates: []core.Template{outOfRange{}}})
	generated := 0
	for _, lg := range res.Logs {
		generated += lg.Generated
	}
	if generated == 0 || res.CandidatesValidated != 0 || res.CacheMisses != 0 || res.CandidatesPanicked != 0 {
		t.Fatalf("generated %d, validated %d, misses %d, panicked %d; want only generated",
			generated, res.CandidatesValidated, res.CacheMisses, res.CandidatesPanicked)
	}
	if res.Termination != "exhausted" || res.Improved || res.BestEffortFitness != res.BaseFailing {
		t.Fatalf("want exhausted at the base: %s", res.Summary())
	}
}
