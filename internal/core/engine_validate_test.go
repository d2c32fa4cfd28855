package core_test

import (
	"crypto/sha256"
	"encoding/hex"
	"testing"

	"acr/internal/core"
	"acr/internal/incidents"
	"acr/internal/scenario"
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

// TestCanonicalGolden pins the SHA-256 of Canonical() for Figure 2 under
// both strategies and for every incident of the seed-3 corpus slice. The
// digests are the ones the engine produced while it still had validator
// retries and per-candidate timeouts, whose counters Canonical() now
// renders as constant zeros; the service's canonicalSha256 and the
// benchmark's canonical_sha256 hash the same bytes.
func TestCanonicalGolden(t *testing.T) {
	sum := func(res *core.Result) string {
		h := sha256.Sum256([]byte(res.Canonical()))
		return hex.EncodeToString(h[:])
	}
	p := problemOf(scenario.Figure2())
	for _, c := range []struct {
		name string
		opts core.Options
		want string
	}{
		{"figure2 bruteforce", core.Options{Strategy: core.BruteForce}, "3d997f81565632a45fe99ab53821a88005f054d4e1cb398b9a53dfa98125468d"},
		{"figure2 evolutionary", core.Options{Strategy: core.Evolutionary, Seed: 7, MaxIterations: 25}, "9de86bef3c5521647d6b33ac096e36a105e3f78bb51052cfa10539ef6e2b7f69"},
	} {
		if got := sum(core.Repair(p, c.opts)); got != c.want {
			t.Errorf("%s: Canonical() sha256 = %s, want %s", c.name, got, c.want)
		}
	}
	want := map[string]string{
		"inc-000-Route":  "cf181d11531c4a7f2a9b277ed4b760ec0f748d0a00dd67ba243b97a254ce2454",
		"inc-001-PBR":    "5e1fecb8287a133474b17b96d2d9d767b469a501fb1bde5b757ac3137cd42a1c",
		"inc-002-Route":  "bbbe81dc858f29e7cd00618661c6e49df3a7dad665f8c5fcdeea16793d4a5ec4",
		"inc-003-Policy": "e77e21f0f6606f8c0a2be775a2732df4f19cf413e0c37e08178d989a779de941",
		"inc-004-Peer":   "2b459a0c140441a32f44f866a09abc5313e81391936e46e6e27f8dfc5a0ccfc4",
		"inc-005-Policy": "925c717f461252d88d95b46cef89bfdea18c239498658d03d6c28f167e8327ca",
		"inc-006-Peer":   "9f87b07d4f8bf18f776c27a7d7b96b3b2e93c3a3bf372523bce8186b3fa98e43",
		"inc-007-Policy": "abe8d8bce2551030be177665636394f144afeb00c67f6bbc0406782ee3233942",
	}
	ids, ps := corpusSlice(t)
	if len(ids) != len(want) {
		t.Fatalf("corpus slice has %d incidents, want %d", len(ids), len(want))
	}
	for i, p := range ps {
		if got := sum(core.Repair(p, core.Options{Seed: 11, MaxIterations: 20})); got != want[ids[i]] {
			t.Errorf("%s: Canonical() sha256 = %s, want %s", ids[i], got, want[ids[i]])
		}
	}
}

// TestEvalCacheInvariants pins the evaluation cache's accounting: every
// validated candidate resolves through it (validated = hits + misses), and
// the corpus slice re-proposes candidates the cache answers.
func TestEvalCacheInvariants(t *testing.T) {
	for _, strat := range []struct {
		name string
		opts core.Options
	}{
		{"bruteforce", core.Options{Strategy: core.BruteForce}},
		{"evolutionary", core.Options{Strategy: core.Evolutionary, Seed: 7, MaxIterations: 25}},
	} {
		p := problemOf(scenario.Figure2())
		want := core.Repair(p, strat.opts)
		if !want.Feasible {
			t.Fatalf("%s: infeasible: %s", strat.name, want.Summary())
		}
		if want.CandidatesValidated != want.CacheHits+want.CacheMisses {
			t.Errorf("%s: validated=%d but hits+misses=%d — every candidate must resolve through the cache",
				strat.name, want.CandidatesValidated, want.CacheHits+want.CacheMisses)
		}
	}

	ids, ps := corpusSlice(t)
	tested, hits := 0, 0
	for i, p := range ps {
		res := core.Repair(p, core.Options{Seed: 11, MaxIterations: 20})
		if res.BaseFailing == 0 {
			continue // injection invisible to the intent suite
		}
		tested++
		hits += res.CacheHits
		if res.CandidatesValidated != res.CacheHits+res.CacheMisses {
			t.Errorf("%s: validated=%d but hits+misses=%d", ids[i], res.CandidatesValidated, res.CacheHits+res.CacheMisses)
		}
	}
	if tested == 0 {
		t.Fatal("no visible incidents in corpus slice")
	}
	if hits == 0 {
		t.Error("corpus slice produced zero cache hits — duplicate proposals should recur across iterations")
	}
}

// validateCounter is a FaultInjector that injects nothing and counts the
// validator invocations it sees.
type validateCounter struct{ calls int }

func (c *validateCounter) BeforeValidate() error {
	c.calls++
	return nil
}

// TestValidationStopsAtFeasible pins what the engine simulates: exactly
// the candidates it accounts as simulated — in-memory misses the store did
// not answer — plus the quarantined ones. A candidate answered by the
// cache or the store is never validated, and neither is anything proposed
// after the feasible candidate of the last iteration. (A malformed
// proposal would be validated too, uncounted; these inputs propose none.)
func TestValidationStopsAtFeasible(t *testing.T) {
	check := func(name string, p core.Problem, opts core.Options) *core.Result {
		t.Helper()
		vc := &validateCounter{}
		opts.Chaos = vc
		res := core.Repair(p, opts)
		want := res.CacheMisses - res.StoreHits + res.CandidatesPanicked
		if vc.calls != want {
			t.Errorf("%s: %d validator calls, want %d (misses=%d storeHits=%d quarantined=%d)\n%s",
				name, vc.calls, want, res.CacheMisses, res.StoreHits,
				res.CandidatesPanicked, res.Summary())
		}
		return res
	}
	p := problemOf(scenario.Figure2())
	bf := core.Options{Strategy: core.BruteForce}
	if res := check("figure2", p, bf); !res.Feasible {
		t.Fatalf("figure2: infeasible: %s", res.Summary())
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
