package core_test

import (
	"testing"
	"time"

	"acr/internal/chaos"
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

// TestEvalCacheInvariants pins the evaluation cache's accounting: with the
// cache on, every validated candidate resolves through it (validated =
// hits + misses); NoCache zeroes both counters without changing the
// repair; and the corpus slice re-proposes candidates the cache answers.
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
			t.Errorf("%s: validated=%d but hits+misses=%d — every candidate must resolve through the cache when it is on",
				strat.name, want.CandidatesValidated, want.CacheHits+want.CacheMisses)
		}
		// The cache setting is part of the canonical counters, but feasibility
		// and the repaired configs must not depend on it.
		nocache := strat.opts
		nocache.NoCache = true
		res := core.Repair(p, nocache)
		if !res.Feasible {
			t.Errorf("%s: NoCache run infeasible: %s", strat.name, res.Summary())
		}
		if res.CacheHits != 0 || res.CacheMisses != 0 {
			t.Errorf("%s: NoCache run counted hits=%d misses=%d", strat.name, res.CacheHits, res.CacheMisses)
		}
		for d, cfg := range res.FinalConfigs {
			if cfg.Text() != want.FinalConfigs[d].Text() {
				t.Errorf("%s: NoCache changed the repaired config of %s", strat.name, d)
			}
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
		want := res.CacheMisses - res.StoreHits + res.CandidatesPanicked + res.CandidatesTimedOut
		if vc.calls != want {
			t.Errorf("%s: %d validator calls, want %d (misses=%d storeHits=%d quarantined=%d)\n%s",
				name, vc.calls, want, res.CacheMisses, res.StoreHits,
				res.CandidatesPanicked+res.CandidatesTimedOut, res.Summary())
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

// TestRetryBackoffNotAfterFinalAttempt pins the backoff fix: when every
// attempt fails transiently, the engine sleeps between attempts but not
// after the last one. With RetryBackoff=250ms and MaxValidationRetries=1,
// each of the (at most 4) exhausted candidates legitimately sleeps 250ms
// once; the old bug slept the doubled backoff (500ms) more per candidate
// after classifying the final failure — ~3s total against ~1s — so the 2s
// bound discriminates firmly without being timing-sensitive.
func TestRetryBackoffNotAfterFinalAttempt(t *testing.T) {
	s := scenario.Figure2()
	p := problemOf(s)
	opts := core.Options{
		Strategy:             core.BruteForce,
		MaxIterations:        1,
		CandidateCap:         4,
		MaxValidationRetries: 1,
		RetryBackoff:         250 * time.Millisecond,
	}
	opts = chaos.New(chaos.Plan{TransientEveryN: 1}).Wire(opts)
	start := time.Now()
	res := core.Repair(p, opts)
	wall := time.Since(start)
	if res.Feasible {
		t.Fatalf("all-transient run should be infeasible: %s", res.Summary())
	}
	if res.ValidationRetries < 3 {
		t.Fatalf("ValidationRetries = %d, want >= 3 (injector barely engaged; bound below meaningless)",
			res.ValidationRetries)
	}
	if wall > 2*time.Second {
		t.Errorf("wall clock %v exceeds 2s — backoff is sleeping after the final attempt", wall)
	}
}

// TestRetryBackoffFullJitter pins the jitter satellite alongside the
// no-sleep-after-final-attempt fix above. With TransientEveryN=1,
// MaxValidationRetries=2, and RetryBackoff=500ms, the pre-jitter
// deterministic schedule sleeps 500ms+1000ms per exhausted candidate —
// 6s across the 4 capped candidates. Full jitter draws each sleep
// uniformly over [0, window], so the expected total is 3s and the
// probability of exceeding 5.5s is ~4σ out — the bound discriminates the
// old fixed schedule (>= 6s) firmly without being timing-sensitive. The
// run must also stay correct: retries still counted, run still completes.
func TestRetryBackoffFullJitter(t *testing.T) {
	s := scenario.Figure2()
	p := problemOf(s)
	opts := core.Options{
		Strategy:             core.BruteForce,
		MaxIterations:        1,
		CandidateCap:         4,
		MaxValidationRetries: 2,
		RetryBackoff:         500 * time.Millisecond,
	}
	opts = chaos.New(chaos.Plan{TransientEveryN: 1}).Wire(opts)
	start := time.Now()
	res := core.Repair(p, opts)
	wall := time.Since(start)
	if res.Feasible {
		t.Fatalf("all-transient run should be infeasible: %s", res.Summary())
	}
	if res.ValidationRetries < 3 {
		t.Fatalf("ValidationRetries = %d, want >= 3 (injector barely engaged; bound below meaningless)",
			res.ValidationRetries)
	}
	if wall > 5500*time.Millisecond {
		t.Errorf("wall clock %v — backoff is sleeping the full deterministic schedule (>= 6s); jitter is not applied", wall)
	}
}
