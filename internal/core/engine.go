package core

import (
	"context"
	"encoding/binary"
	"errors"
	"fmt"
	"hash/fnv"
	"math/rand"
	"runtime"
	"runtime/debug"
	"sort"
	"strings"
	"time"

	"acr/internal/bgp"
	"acr/internal/journal"
	"acr/internal/netcfg"
	"acr/internal/sbfl"
	"acr/internal/verify"
)

// Strategy selects how candidates are generated from the suspicious set
// (§4.2 "Generation strategy").
type Strategy uint8

// Generation strategies.
const (
	// Evolutionary samples template applications randomly per preserved
	// update and merges disjoint candidates (single-point crossover in
	// edit space) — the paper's search-based strategy.
	Evolutionary Strategy = iota
	// BruteForce applies every template to every suspicious statement —
	// the Cartesian-product strategy.
	BruteForce
)

// FaultInjector is the chaos seam at the engine's validation boundary.
// Production runs leave Options.Chaos nil; the chaos harness
// (internal/chaos) implements this to inject transient and fatal faults
// before validator invocations.
type FaultInjector interface {
	// BeforeValidate runs before each validator invocation (including
	// retries) and may return an error to inject. Errors advertising
	// Transient() get the engine's retry-with-backoff treatment.
	BeforeValidate() error
}

// Options tunes the engine. Zero values select the paper's defaults.
type Options struct {
	Formula       sbfl.Formula // default Tarantula
	MaxIterations int          // default 500 (the paper's cap)
	MinSusp       float64      // suspiciousness threshold, default 0.45
	TopKLines     int          // suspicious lines considered per version, default 24
	PopulationCap int          // preserved updates carried per iteration, default 8
	CandidateCap  int          // validated candidates per iteration, default 64
	SampleSize    int          // evolutionary: proposals sampled per member, default 16
	Strategy      Strategy
	Seed          int64
	Templates     []Template
	SimOpts       bgp.Options
	// FullValidation disables the incremental verifier (ablation).
	FullValidation bool
	// NoStaticPrior disables the static-analysis localization prior
	// (ablation): no diagnostic-boosted ranking, no seeded uncovered
	// lines, no template pruning at diagnosed lines.
	NoStaticPrior bool

	// --- performance ----------------------------------------------------

	// Parallelism is the number of workers validating candidates
	// concurrently (default runtime.GOMAXPROCS(0); 1 runs serially).
	// Outcomes merge in proposal order on a single goroutine, so the
	// Result — including Canonical() — is byte-identical at every level;
	// only wall-clock-dependent quarantines (CandidateTimeout) and runs
	// with a chaos injector wired (which forces one worker, because
	// injection is call-order-dependent) can observe the difference.
	Parallelism int
	// NoCache disables the content-addressed evaluation cache (ablation):
	// duplicate proposals across iterations, widening rounds, and resumed
	// sessions are re-simulated instead of answered from the cache.
	// The setting is part of SearchDigest: a cached and an uncached run
	// count differently, so a journaled session must resume under the
	// same setting.
	NoCache bool
	// Differential audits every incremental validation against the cold
	// path (verify.Incremental.Differential): each delta-simulated prefix
	// is replayed against a cold simulation and each report against a
	// from-scratch full check. A disagreement ends the run with
	// termination "delta-divergence" or "impact-divergence" — the
	// soundness enforcement mode the soundness CI job runs under. Purely
	// observational on a sound verifier, so it is excluded from
	// SearchDigest.
	Differential bool
	// Store, when non-nil, is the persistent content-addressed evaluation
	// store layered under the in-memory cache (internal/evalstore): digests
	// the cache misses are looked up there before simulating, and freshly
	// simulated fitness values are written back. Because fitness is a pure
	// function of the configuration set, a store answer replaces only the
	// simulation, never the decision — Canonical() output is byte-identical
	// with a cold, warm, corrupt, or absent store. The store is therefore
	// excluded from SearchDigest (like Parallelism): a journaled session
	// may resume on a machine with a different -cache-dir, a different
	// budget, or no store at all. NoCache severs the store too.
	Store EvalStore

	// --- robustness -----------------------------------------------------

	// Deadline, when set, bounds the run by wall-clock time; the engine
	// stops cooperatively and returns the best-effort repair with
	// Termination "deadline".
	Deadline time.Time
	// MaxWallClock, when positive, bounds the run by a duration measured
	// from the RepairContext call. Combined with Deadline, the earlier
	// bound wins.
	MaxWallClock time.Duration
	// CandidateTimeout, when positive, bounds each candidate's validation;
	// a candidate that exceeds it is skipped (counted in
	// CandidatesTimedOut) without ending the run.
	CandidateTimeout time.Duration
	// MaxValidationRetries bounds retries of transient validator faults
	// per candidate (default 2). Retries back off exponentially starting
	// at RetryBackoff.
	MaxValidationRetries int
	// RetryBackoff is the initial backoff between transient-fault retries
	// (default 1ms, doubling per retry).
	RetryBackoff time.Duration
	// Chaos, when non-nil, injects faults at the validation boundary
	// (testing only).
	Chaos FaultInjector

	// --- durability -----------------------------------------------------

	// Journal, when non-nil, receives the run's durable event stream:
	// per-candidate and per-iteration events, periodic full checkpoints,
	// and a terminal record on graceful exit. Create it with
	// journal.Create (fresh session) or journal.Resume (continuation).
	// Journal append failures degrade to in-memory operation (recorded as
	// KindJournal errors); they never fail the run.
	Journal *journal.Writer
	// Resume, when non-nil, restores the run from a replayed session
	// instead of starting from the base configuration version. The
	// session's digests must match this problem and these options; on any
	// mismatch the engine records a KindJournal error and runs fresh.
	// Because every random stream is derived from (Seed, iteration) and
	// (Seed, version), a resumed run continues exactly where the
	// journaled one left off and produces the same Result as an
	// uninterrupted run (compare with Result.Canonical).
	Resume *journal.Session
	// CheckpointEvery is the full-checkpoint cadence in iterations
	// (default 1: every iteration boundary is a restart point). Raising
	// it trades recovery granularity for journal bandwidth.
	CheckpointEvery int
}

func (o Options) withDefaults() Options {
	if o.Formula.Fn == nil {
		o.Formula = sbfl.Tarantula
	}
	if o.MaxIterations <= 0 {
		o.MaxIterations = 500
	}
	if o.MinSusp == 0 {
		o.MinSusp = 0.45
	}
	if o.TopKLines <= 0 {
		o.TopKLines = 24
	}
	if o.PopulationCap <= 0 {
		o.PopulationCap = 8
	}
	if o.CandidateCap <= 0 {
		o.CandidateCap = 64
	}
	if o.SampleSize <= 0 {
		o.SampleSize = 16
	}
	if o.Templates == nil {
		o.Templates = templateSource()
	}
	if o.MaxValidationRetries <= 0 {
		o.MaxValidationRetries = 2
	}
	if o.Parallelism <= 0 {
		o.Parallelism = runtime.GOMAXPROCS(0)
	}
	if o.RetryBackoff <= 0 {
		o.RetryBackoff = time.Millisecond
	}
	return o
}

// IterationLog records one localize-fix-validate round.
type IterationLog struct {
	Iteration int
	// Generated counts candidate updates produced by templates — the size
	// of this iteration's search space (the leaf nodes of the search
	// forest, Figure 3c).
	Generated int
	// Validated counts candidates actually checked (after dedup and caps).
	Validated int
	// Kept counts candidates preserved for the next iteration.
	Kept int
	// BestFitness is the lowest failing-test count seen this iteration.
	BestFitness int
	// TopSuspicious snapshots the head of the ranking (for reports).
	TopSuspicious []sbfl.Score
}

// Result is the outcome of a repair run.
type Result struct {
	Feasible bool
	// FinalConfigs are the repaired configurations (the base ones when
	// infeasible).
	FinalConfigs map[string]*netcfg.Config
	// Applied describes the template applications of the feasible update,
	// in order.
	Applied []string
	// Diffs renders per-device diffs of the feasible update.
	Diffs []string
	// Iterations actually executed.
	Iterations int
	// BaseFailing is the failing-test count before repair.
	BaseFailing int
	// Termination explains why the run ended: "feasible", "exhausted"
	// (S = ∅), "iteration-cap", "deadline", or "canceled".
	Termination string
	Logs        []IterationLog
	// CandidatesValidated counts candidates resolved by validation —
	// simulated or answered from the evaluation cache (it equals
	// CacheHits+CacheMisses when the cache is enabled).
	CandidatesValidated int
	// PrefixSimulations counts per-prefix control-plane runs performed by
	// validation (the incremental verifier's and the cache's savings show
	// up here).
	PrefixSimulations int
	// IntentChecks counts intent re-verifications.
	IntentChecks int

	// --- performance ----------------------------------------------------

	// CacheHits counts candidates answered by the content-addressed
	// evaluation cache without simulation (0 with Options.NoCache).
	CacheHits int
	// CacheMisses counts candidates that were simulated and then stored.
	CacheMisses int
	// ParallelWorkers is the effective validation worker count the run
	// used (1 when a chaos injector forced serial execution). It is
	// excluded from Canonical(): runs at different parallelism produce
	// identical results.
	ParallelWorkers int

	// --- persistent evaluation store ------------------------------------
	//
	// Cost counters of the disk-backed store (all 0 without Options.Store).
	// Like PrefixSimulations and the impact counters they measure how much
	// work was avoided or lost, not what the search decided, and are
	// excluded from Canonical() and from checkpoints: a warm store, a
	// corrupted store, and no store at all produce byte-identical results.

	// StoreHits counts candidates whose simulation was skipped because the
	// persistent store held a verified entry for their digest. Each one is
	// still accounted as an in-memory CacheMiss — exactly what a cold run
	// would have recorded after simulating.
	StoreHits int
	// StoreMisses counts in-memory cache misses the store could not answer
	// (absent, evicted, I/O failure, or corrupt entry); these candidates
	// were simulated and written back.
	StoreMisses int
	// StoreCorrupt counts store entries that failed integrity verification
	// (CRC, framing, or digest mismatch) during this run; each was
	// quarantined by the store and degraded to a StoreMiss.
	StoreCorrupt int

	// --- static impact analysis -----------------------------------------
	//
	// Work counters of the candidate impact analysis (all 0 with
	// Options.FullValidation). Like PrefixSimulations they
	// measure effort, not trajectory, and are excluded from Canonical().

	// StaticallyRefuted counts candidates whose impact set was disjoint
	// from every intent's dependencies: answered with the parent's
	// verdicts at zero prefix simulations.
	StaticallyRefuted int
	// ImpactScoped counts candidates validated against a proper impact
	// slice (neither refuted nor broad).
	ImpactScoped int
	// ImpactBroad counts candidates where the impact analysis — or the
	// compiled-network cross-check guarding it — degraded to a full
	// re-simulation.
	ImpactBroad int
	// LeafDerivations counts prefixes whose candidate outcome was patched
	// from the parent outcome via leaf re-derivation (bgp.RederiveLeaves)
	// instead of a full prefix simulation. Each one is a simulation the
	// leaf-local refinement avoided beyond what slice scoping alone saves.
	LeafDerivations int

	// --- delta re-simulation --------------------------------------------
	//
	// Work counters of the delta BGP simulator (all 0 with
	// Options.FullValidation). Like the impact counters they measure
	// effort, not trajectory, and are excluded from Canonical(): a delta
	// run and a FullValidation run decide identically.

	// DeltaReused counts prefix evaluations answered by delta
	// re-simulation: seeded from the parent outcome, only the edit's wave
	// of routers re-activated.
	DeltaReused int
	// DeltaResimulated counts prefix evaluations where the delta path
	// refused the shortcut (non-converged base, new origination, pass
	// bound) and a cold simulation ran instead.
	DeltaResimulated int
	// SimActivations totals router activations across every prefix
	// simulation of the run — the device·prefix work unit the delta
	// benchmark's ≥5× reduction target is measured in.
	SimActivations int

	// --- static-analysis prior ------------------------------------------

	// StaticDiagnostics counts the static-analysis findings on the base
	// configuration version (0 when the prior is disabled or clean).
	StaticDiagnostics int
	// PriorSeededLines counts statically flagged lines not covered by any
	// sampled test that the prior injected into the base ranking.
	PriorSeededLines int
	// TemplatesPrunedStatic counts template applications skipped because
	// the anchor line carried a diagnostic of a different error class.
	TemplatesPrunedStatic int

	// --- robustness -----------------------------------------------------

	// BestEffortConfigs is the best configuration version the run saw:
	// the feasible update when one was found, otherwise the validated
	// candidate with the fewest failing intents (the base configs when
	// nothing improved). A run interrupted by a deadline still hands the
	// operator a partial repair that strictly reduces failing intents
	// whenever Improved is true.
	BestEffortConfigs map[string]*netcfg.Config
	// BestEffortFitness is the failing-intent count of BestEffortConfigs.
	BestEffortFitness int
	// BestEffortApplied narrates the template applications producing
	// BestEffortConfigs.
	BestEffortApplied []string
	// Improved reports BestEffortFitness < BaseFailing.
	Improved bool
	// CandidatesPanicked counts candidates quarantined because a template,
	// parser edit, or simulator panicked while processing them.
	CandidatesPanicked int
	// CandidatesTimedOut counts candidates skipped by CandidateTimeout.
	CandidatesTimedOut int
	// ValidationRetries counts transient-fault retries at the validation
	// boundary.
	ValidationRetries int
	// Errors collects classified failures (capped; counters above are
	// complete).
	Errors []*RepairError
	// WallClock is the measured run duration.
	WallClock time.Duration

	// --- durability -----------------------------------------------------

	// Resumed reports the run was restored from a journal checkpoint.
	Resumed bool
	// ResumedFrom is the iteration the restored checkpoint closed
	// (0 = resumed from the base snapshot). Meaningful only when Resumed.
	ResumedFrom int
}

// Summary renders the result for CLI reports.
func (r *Result) Summary() string {
	var sb strings.Builder
	fmt.Fprintf(&sb, "feasible=%v termination=%s iterations=%d baseFailing=%d validated=%d\n",
		r.Feasible, r.Termination, r.Iterations, r.BaseFailing, r.CandidatesValidated)
	if !r.Feasible {
		fmt.Fprintf(&sb, "  best-effort: fitness=%d improved=%v\n", r.BestEffortFitness, r.Improved)
	}
	if r.CandidatesPanicked+r.CandidatesTimedOut+r.ValidationRetries > 0 {
		fmt.Fprintf(&sb, "  quarantined: panicked=%d timedOut=%d transientRetries=%d\n",
			r.CandidatesPanicked, r.CandidatesTimedOut, r.ValidationRetries)
	}
	if r.CacheHits+r.CacheMisses > 0 {
		fmt.Fprintf(&sb, "  cache: hits=%d misses=%d workers=%d\n",
			r.CacheHits, r.CacheMisses, r.ParallelWorkers)
	}
	if r.StoreHits+r.StoreMisses+r.StoreCorrupt > 0 {
		fmt.Fprintf(&sb, "  store: hits=%d misses=%d corrupt=%d\n",
			r.StoreHits, r.StoreMisses, r.StoreCorrupt)
	}
	if r.StaticallyRefuted+r.ImpactScoped+r.ImpactBroad > 0 {
		fmt.Fprintf(&sb, "  impact: refuted=%d scoped=%d broad=%d leafDerived=%d\n",
			r.StaticallyRefuted, r.ImpactScoped, r.ImpactBroad, r.LeafDerivations)
	}
	if r.DeltaReused+r.DeltaResimulated+r.SimActivations > 0 {
		fmt.Fprintf(&sb, "  delta: reused=%d resimulated=%d activations=%d\n",
			r.DeltaReused, r.DeltaResimulated, r.SimActivations)
	}
	if r.StaticDiagnostics > 0 {
		fmt.Fprintf(&sb, "  static prior: diagnostics=%d seededLines=%d templatesPruned=%d\n",
			r.StaticDiagnostics, r.PriorSeededLines, r.TemplatesPrunedStatic)
	}
	for _, a := range r.Applied {
		fmt.Fprintf(&sb, "  applied: %s\n", a)
	}
	return sb.String()
}

// candidate is one preserved update: materialized configurations plus the
// verification/localization state built on them.
type candidate struct {
	configs map[string]*netcfg.Config
	iv      *verify.Incremental
	ctx     *Context
	fitness int
	descs   []string
}

// proposal is a not-yet-preserved candidate update.
type proposal struct {
	parent  *candidate
	update  Update
	fitness int
}

// errQuarantined marks a candidate removed from the search (panic or
// per-candidate timeout) without ending the run.
var errQuarantined = fmt.Errorf("candidate quarantined")

// Repair runs localize–fix–validate (Figure 4) until a feasible update is
// found, candidates are exhausted, or the iteration cap is hit.
func Repair(p Problem, opts Options) *Result {
	return RepairContext(context.Background(), p, opts)
}

// RepairContext is Repair with cooperative cancellation and wall-clock
// bounds. The context is checked in every hot loop — between iterations,
// between candidate validations, inside per-prefix simulation passes — so
// cancellation and deadlines take effect promptly. The returned Result is
// always usable: on "deadline" or "canceled" it carries the best-effort
// repair found so far.
func RepairContext(ctx context.Context, p Problem, opts Options) *Result {
	opts = opts.withDefaults()
	start := time.Now()
	if opts.MaxWallClock > 0 {
		var cancel context.CancelFunc
		ctx, cancel = context.WithTimeout(ctx, opts.MaxWallClock)
		defer cancel()
	}
	if !opts.Deadline.IsZero() {
		var cancel context.CancelFunc
		ctx, cancel = context.WithDeadline(ctx, opts.Deadline)
		defer cancel()
	}
	// Thread the run context into every base (re)simulation the engine
	// performs while preserving candidates.
	opts.SimOpts.Ctx = ctx

	res := &Result{FinalConfigs: p.Configs, Termination: "iteration-cap"}
	sink := newJournalSink(opts.Journal, res, opts.CheckpointEvery)
	ec := newEvalCache(opts)
	res.ParallelWorkers = opts.Parallelism
	if opts.Chaos != nil || opts.SimOpts.PrefixHook != nil {
		// Stateful injection seams count invocations; concurrency would
		// make the injection sequence scheduler-dependent.
		res.ParallelWorkers = 1
	}

	best := &bestEffort{fitness: -1}
	finish := func(term string) *Result {
		res.Termination = term
		best.writeTo(res)
		sink.terminal(term, res.Feasible)
		// Fold the cache's store-corruption tally in on every exit path.
		// Not checkpointed and not part of Canonical(): a resumed run only
		// reports the corruption it observed itself.
		res.StoreCorrupt = ec.storeCorrupt
		res.WallClock = time.Since(start)
		return res
	}
	interrupted := func() (string, bool) {
		switch ctx.Err() {
		case context.DeadlineExceeded:
			return "deadline", true
		case context.Canceled:
			return "canceled", true
		}
		return "", false
	}
	abort := func() *Result {
		term, _ := interrupted()
		kind := KindDeadline
		if term == "canceled" {
			kind = KindCanceled
		}
		res.recordError(&RepairError{Kind: kind, Op: "run", Err: ctx.Err()})
		return finish(term)
	}

	// st carries the loop-control state across iterations so it can be
	// checkpointed as a unit. st.widen multiplies the suspicious-line
	// scope. It grows when an iteration preserves nothing (every candidate
	// made things worse) and when fitness stagnates across iterations —
	// interacting faults can poison the constraints of the top-ranked
	// lines' templates while the real fix sits just below a tie boundary
	// or outside a tight TopK.
	var st loopState
	if restored, ok := tryResume(res, best, p, opts); ok {
		st = restored
		res.Resumed = true
		res.ResumedFrom = st.iter
		// Rebuild the evaluation cache the straight-through run held at
		// this checkpoint from the journaled candidate digests, so the
		// resumed run's hits and misses replay identically.
		ec.warm(opts.Resume.Candidates, st.iter)
	} else {
		base := preserve(res, nil, opts, scratchVersion(p, p.Configs, nil, opts))
		if base == nil {
			// The base version itself could not be verified (persistent
			// panic or immediate cancellation): nothing to search from.
			if _, ok := interrupted(); ok {
				return abort()
			}
			return finish("exhausted")
		}
		if _, ok := interrupted(); ok {
			// The base verification may be partial (canceled outcomes):
			// its fitness is not trustworthy, so report nothing beyond
			// the abort.
			return abort()
		}
		res.BaseFailing = base.fitness
		res.StaticDiagnostics = len(base.ctx.Diags)
		res.PriorSeededLines = base.ctx.PriorSeeded
		best.observe(base.fitness, p.Configs, nil)
		if base.fitness == 0 {
			res.Feasible = true
			return finish("feasible")
		}
		st = loopState{pop: []*candidate{base}, prevFitness: base.fitness,
			widen: 1, bestEver: base.fitness}
		// The base snapshot is the minimum viable restart point: a crash
		// before the first iteration checkpoint resumes here instead of
		// re-paying base verification and localization.
		sink.checkpoint(res, best, st)
	}
	pop, prevFitness := st.pop, st.prevFitness
	widen, bestEver, stagnant := st.widen, st.bestEver, st.stagnant

	for iter := st.iter + 1; iter <= opts.MaxIterations; iter++ {
		// Every random stream this iteration draws from is derived from
		// (Seed, iter), so a run resumed at this boundary replays the
		// exact straight-through search.
		rng := iterRNG(opts.Seed, iter)
		endIteration := func() {
			sink.checkpoint(res, best, loopState{iter: iter, pop: pop,
				prevFitness: prevFitness, widen: widen, bestEver: bestEver, stagnant: stagnant})
		}
		if _, ok := interrupted(); ok {
			return abort()
		}
		res.Iterations = iter
		log := IterationLog{Iteration: iter, BestFitness: prevFitness}

		// --- Fix: generate candidates from every preserved update --------
		var props []proposal
		seen := map[string]bool{}
		for _, member := range pop {
			mProps := generate(res, member, opts, widen, rng)
			log.Generated += len(mProps)
			for _, pr := range mProps {
				key := signature(member, pr.update)
				if !seen[key] {
					seen[key] = true
					props = append(props, pr)
				}
			}
		}
		if len(pop) > 0 {
			log.TopSuspicious = append(log.TopSuspicious,
				sbfl.Suspicious(pop[0].ctx.Ranks, 5, opts.MinSusp)...)
		}
		if len(props) == 0 {
			if widen < 8 {
				widen *= 2
				res.Logs = append(res.Logs, log)
				sink.iteration(log)
				endIteration()
				continue
			}
			res.Logs = append(res.Logs, log)
			sink.iteration(log)
			return finish("exhausted")
		}
		limit := opts.CandidateCap * widen
		if len(props) > limit {
			if opts.Strategy == Evolutionary {
				rng.Shuffle(len(props), func(i, j int) { props[i], props[j] = props[j], props[i] })
			}
			props = props[:limit]
		}

		// --- Validate -----------------------------------------------------
		// Proposals are validated by the batch validator's worker pool
		// (internal/core/parallel.go); this loop is the single-threaded
		// merge: it consumes outcomes strictly in proposal order, and it
		// alone touches res, the log, the sink, the cache, and best — so
		// the Result is identical at any Options.Parallelism.
		bv := newBatchValidator(ctx, props, opts, ec)
		var kept []proposal
		feasibleAt := -1
		for i := range props {
			if _, ok := interrupted(); ok {
				bv.close()
				res.Logs = append(res.Logs, log)
				return abort()
			}
			pr := &props[i]
			out := bv.resolve(i)
			out.stats.mergeInto(res)
			if !out.ok {
				if _, ok := interrupted(); ok {
					bv.close()
					res.Logs = append(res.Logs, log)
					return abort()
				}
				var dv *verify.DivergenceError
				if errors.As(out.err, &dv) {
					// The impact analysis was caught pruning unsoundly.
					// Continuing would search on corrupted fitness data;
					// fail the run and surface the minimized repro.
					bv.close()
					res.recordError(&RepairError{Kind: KindImpactDivergence, Op: "validate", Candidate: pr.update.Desc, Err: dv})
					res.Logs = append(res.Logs, log)
					sink.iteration(log)
					return finish("impact-divergence")
				}
				var dde *verify.DeltaDivergenceError
				if errors.As(out.err, &dde) {
					// The delta simulator reached a fixpoint a cold
					// simulation would not; same terminal treatment.
					bv.close()
					res.recordError(&RepairError{Kind: KindDeltaDivergence, Op: "validate", Candidate: pr.update.Desc, Err: dde})
					res.Logs = append(res.Logs, log)
					sink.iteration(log)
					return finish("delta-divergence")
				}
				continue // malformed or quarantined candidate
			}
			res.CandidatesValidated++
			log.Validated++
			pr.fitness = out.fitness
			if out.hit {
				res.CacheHits++
			} else if out.digest != "" {
				// A store answer is accounted as an in-memory miss, exactly
				// like the simulation it replaced: the fitness enters the
				// cache so later duplicates hit it, and CacheHits/CacheMisses
				// — part of Canonical() — match a cold-store run byte for
				// byte. Only the cost counters below see the store.
				res.CacheMisses++
				ec.put(out.digest, pr.fitness)
				if out.mode == modeStore {
					res.StoreHits++
				} else if ec.store != nil {
					res.StoreMisses++
					ec.storePut(out.digest, pr.fitness)
				}
			}
			sink.candidate(iter, pr.update.Desc, pr.fitness, out.digest, out.stats.refuted > 0)
			if pr.fitness < log.BestFitness {
				log.BestFitness = pr.fitness
			}
			if best.fitness < 0 || pr.fitness < best.fitness {
				best.observeLazy(pr.fitness, pr)
			}
			if pr.fitness == 0 {
				// Feasible update found (termination condition 1). Later
				// proposals are discarded unmerged, exactly as the serial
				// engine never validated them.
				feasibleAt = i
				break
			}
			// Discard candidates whose fitness exceeds the previous
			// iteration's (the paper's preservation rule).
			if pr.fitness <= prevFitness {
				kept = append(kept, *pr)
			}
		}
		bv.close()
		if feasibleAt >= 0 {
			pr := &props[feasibleAt]
			final := applyUpdate(pr.parent.configs, pr.update)
			res.Feasible = true
			res.FinalConfigs = final
			res.Applied = append(append([]string{}, pr.parent.descs...), pr.update.Desc)
			for d, c := range final {
				// Compare by text, not pointer: a resumed run's configs
				// are rebuilt from the checkpoint and never share
				// pointers with p.Configs.
				if c.Text() != p.Configs[d].Text() {
					res.Diffs = append(res.Diffs, netcfg.Diff(p.Configs[d], c))
				}
			}
			sort.Strings(res.Diffs)
			res.Logs = append(res.Logs, log)
			sink.iteration(log)
			return finish("feasible")
		}
		log.Kept = len(kept)
		res.Logs = append(res.Logs, log)
		sink.iteration(log)
		if len(kept) == 0 {
			if widen < 8 {
				// Nothing preserved at this scope: widen and retry from
				// the same population.
				widen *= 2
				endIteration()
				continue
			}
			return finish("exhausted")
		}
		if log.BestFitness < bestEver {
			bestEver = log.BestFitness
			widen = 1
			stagnant = 0
		} else {
			stagnant++
			if stagnant >= 2 && widen < 8 {
				// Candidates are preserved but fitness has stopped
				// improving: the fix is probably outside the current
				// suspicious scope.
				widen *= 2
				stagnant = 0
			}
		}
		// --- Select the next population ------------------------------------
		sort.SliceStable(kept, func(i, j int) bool {
			if kept[i].fitness != kept[j].fitness {
				return kept[i].fitness < kept[j].fitness
			}
			return len(kept[i].parent.descs) < len(kept[j].parent.descs)
		})
		if len(kept) > opts.PopulationCap {
			kept = kept[:opts.PopulationCap]
		}
		next := make([]*candidate, 0, len(kept))
		maxFit := 0
		for _, pr := range kept {
			if _, ok := interrupted(); ok {
				return abort()
			}
			descs := append(append([]string{}, pr.parent.descs...), pr.update.Desc)
			c := preserve(res, descs, opts, derivedVersion(p, pr, descs, opts))
			if c == nil {
				continue // preservation quarantined (panic during re-verify)
			}
			next = append(next, c)
			if c.fitness > maxFit {
				maxFit = c.fitness
			}
		}
		if len(next) == 0 {
			if _, ok := interrupted(); ok {
				return abort()
			}
			if widen < 8 {
				widen *= 2
				endIteration()
				continue
			}
			return finish("exhausted")
		}
		pop = next
		// "The fitness of an iteration is defined as the largest fitness
		// among the preserved updates."
		prevFitness = maxFit
		endIteration()
	}
	return finish(res.Termination)
}

// iterRNG derives iteration iter's random stream. Streams are addressed
// by (seed, purpose) instead of advancing one global generator so a
// checkpointed run restarts mid-search without serializing RNG state: the
// stream for any iteration — or any preserved configuration version (see
// versionRNG) — is recomputable from the journal alone.
func iterRNG(seed int64, iter int) *rand.Rand {
	return rand.New(rand.NewSource(deriveSeed(seed, fmt.Sprintf("iter/%d", iter))))
}

// versionRNG derives the stream for one configuration version, addressed
// by the template applications that produced it. Rebuilding the version
// from a checkpoint therefore reconstructs the identical context.
func versionRNG(seed int64, descs []string) *rand.Rand {
	return rand.New(rand.NewSource(deriveSeed(seed, "version/"+strings.Join(descs, "|"))))
}

// retryRNG derives the backoff-jitter stream for one candidate, addressed
// by its update description. Keying the stream to the candidate's content
// (not to which worker validates it, or in what order) keeps `-p 1` ≡
// `-p N` determinism and resume byte-identity intact: jitter only ever
// shifts wall clock, and even the draws themselves are reproducible.
func retryRNG(seed int64, desc string) *rand.Rand {
	return rand.New(rand.NewSource(deriveSeed(seed, "retry/"+desc)))
}

// jitterBackoff draws a full-jitter sleep: uniform over [0, backoff].
// Full jitter (rather than equal jitter or none) decorrelates the retry
// storms a shared fault — one overloaded solver box behind the validator —
// would otherwise synchronize across candidates and nodes.
func jitterBackoff(rng *rand.Rand, backoff time.Duration) time.Duration {
	if backoff <= 0 {
		return 0
	}
	return time.Duration(rng.Int63n(int64(backoff) + 1))
}

// deriveSeed mixes the run seed with a stream label.
func deriveSeed(seed int64, stream string) int64 {
	h := fnv.New64a()
	var b [8]byte
	binary.LittleEndian.PutUint64(b[:], uint64(seed))
	h.Write(b[:])
	h.Write([]byte(stream))
	return int64(h.Sum64())
}

// tryResume restores the run from opts.Resume. It refuses — recording a
// KindJournal error and reporting ok=false, which falls back to a fresh
// run — when the session's digests do not match this problem and these
// options, when the session already completed its search, or when no
// checkpointed population member survives re-verification.
func tryResume(res *Result, best *bestEffort, p Problem, opts Options) (loopState, bool) {
	sess := opts.Resume
	if sess == nil || sess.Header == nil {
		return loopState{}, false
	}
	refuse := func(err error) (loopState, bool) {
		res.recordError(&RepairError{Kind: KindJournal, Op: "resume", Err: err})
		return loopState{}, false
	}
	if got := p.Digest(); sess.Header.CaseDigest != got {
		return refuse(fmt.Errorf("journaled case digest %.12s does not match this case (%.12s)", sess.Header.CaseDigest, got))
	}
	if got := opts.SearchDigest(); sess.Header.OptionsDigest != got {
		return refuse(fmt.Errorf("journaled options digest %.12s does not match these options (%.12s)", sess.Header.OptionsDigest, got))
	}
	if !sess.Resumable() {
		return refuse(fmt.Errorf("session already completed (%s)", sess.Terminal.Termination))
	}
	if sess.Checkpoint == nil {
		// The run died before its first checkpoint: nothing to restore,
		// but nothing lost either — a fresh run under the same seed IS
		// the continuation.
		return loopState{}, false
	}
	st, ok := restoreCheckpoint(res, best, p, opts, sess.Checkpoint)
	if !ok {
		return refuse(fmt.Errorf("no checkpointed population member survived re-verification"))
	}
	return st, true
}

// bestEffort tracks the best configuration version observed so far, so an
// interrupted or infeasible run still returns partial progress. Improving
// candidates are recorded unmaterialized — the parent's configs plus the
// winning update — and the full configuration map is only built when
// something actually reads it (the final result, a checkpoint). A long
// run that improves on hundreds of candidates but keeps only the last
// therefore clones configurations O(checkpoints) times, not O(improvements).
type bestEffort struct {
	fitness int // -1 until first observation
	// configs/applied are the materialized form: either observed directly
	// (base version, checkpoint restore) or built by materialize.
	configs map[string]*netcfg.Config
	applied []string
	// parent/update are the pending lazy observation; parent is nil when
	// configs is current.
	parent      map[string]*netcfg.Config
	parentDescs []string
	update      Update
}

// observe records a fully materialized version (the base, or a restored
// checkpoint's best).
func (b *bestEffort) observe(fitness int, configs map[string]*netcfg.Config, applied []string) {
	if b.fitness >= 0 && fitness >= b.fitness {
		return
	}
	b.fitness = fitness
	b.configs = configs
	b.applied = applied
	b.parent = nil
}

// observeLazy records an improving candidate without materializing it.
// The caller has already established the improvement (the merge loop's
// fitness check), so this unconditionally replaces the previous best.
func (b *bestEffort) observeLazy(fitness int, pr *proposal) {
	b.fitness = fitness
	b.configs = nil
	b.applied = nil
	b.parent = pr.parent.configs
	b.parentDescs = pr.parent.descs
	b.update = pr.update
}

// materialize builds (and memoizes) the best version's configuration map.
func (b *bestEffort) materialize() {
	if b.parent == nil {
		return
	}
	b.configs = applyUpdate(b.parent, b.update)
	b.applied = append(append([]string{}, b.parentDescs...), b.update.Desc)
	b.parent = nil
}

func (b *bestEffort) writeTo(res *Result) {
	if b.fitness < 0 {
		// Nothing was ever verified: fall back to the base.
		res.BestEffortConfigs = res.FinalConfigs
		res.BestEffortFitness = res.BaseFailing
		return
	}
	b.materialize()
	res.BestEffortConfigs = b.configs
	res.BestEffortFitness = b.fitness
	res.BestEffortApplied = b.applied
	res.Improved = b.fitness < res.BaseFailing
	if res.Feasible {
		res.BestEffortConfigs = res.FinalConfigs
		res.BestEffortFitness = 0
		res.BestEffortApplied = res.Applied
		res.Improved = res.BaseFailing > 0
	}
}

// validateCandidate runs one candidate's validation behind the full
// resilience boundary: chaos injection, transient-fault retries with
// exponential backoff, panic quarantine, and the per-candidate timeout.
// Counters and errors go to st — the caller's private valStats slot —
// never to the shared Result, so validations may run concurrently; iv is
// the verifier to validate against (the parent's own on the merge
// goroutine, a per-worker clone in the pool).
func validateCandidate(ctx context.Context, st *valStats, iv *verify.Incremental, pr *proposal, opts Options) (*verify.Report, error) {
	backoff := opts.RetryBackoff
	var jitter *rand.Rand
	var lastErr error
	for attempt := 0; attempt <= opts.MaxValidationRetries; attempt++ {
		if err := ctx.Err(); err != nil {
			return nil, err
		}
		retry := func(err error) {
			lastErr = err
			st.retries++
			st.recordError(&RepairError{Kind: KindTransient, Op: "validate", Candidate: pr.update.Desc, Err: err})
			if attempt < opts.MaxValidationRetries {
				// Back off only when another attempt follows; sleeping
				// after the final failure would waste RetryBackoff*2^k of
				// wall clock on a candidate already being given up on.
				// The sleep is full-jitter over the doubling window, drawn
				// from the candidate's content-derived stream (retryRNG) so
				// the schedule is reproducible under any parallelism.
				if jitter == nil {
					jitter = retryRNG(opts.Seed, pr.update.Desc)
				}
				sleepCtx(ctx, jitterBackoff(jitter, backoff))
				backoff *= 2
			}
		}
		if opts.Chaos != nil {
			if err := opts.Chaos.BeforeValidate(); err != nil {
				if IsTransient(err) {
					retry(err)
					continue
				}
				return nil, err
			}
		}
		rep, err := checkOnce(ctx, st, iv, pr, opts)
		if err != nil && IsTransient(err) {
			retry(err)
			continue
		}
		return rep, err
	}
	return nil, lastErr
}

// checkOnce performs one validator invocation with panic quarantine and
// the per-candidate timeout.
func checkOnce(ctx context.Context, st *valStats, iv *verify.Incremental, pr *proposal, opts Options) (rep *verify.Report, err error) {
	cctx := ctx
	if opts.CandidateTimeout > 0 {
		var cancel context.CancelFunc
		cctx, cancel = context.WithTimeout(ctx, opts.CandidateTimeout)
		defer cancel()
	}
	defer func() {
		if rec := recover(); rec != nil {
			st.panicked++
			st.recordError(&RepairError{
				Kind:      KindCandidatePanic,
				Op:        "validate",
				Candidate: pr.update.Desc,
				Err:       fmt.Errorf("panic: %v", rec),
				Stack:     debug.Stack(),
			})
			rep, err = nil, errQuarantined
		}
	}()
	var stats verify.Stats
	if opts.FullValidation {
		rep, stats, err = iv.FullCheckCtx(cctx, pr.update.Edits)
	} else {
		rep, stats, err = iv.CheckCtx(cctx, pr.update.Edits)
		if err == nil {
			switch {
			case stats.Refuted:
				st.refuted++
			case stats.Broad:
				st.broad++
			default:
				st.scoped++
			}
		}
	}
	st.prefixSims += stats.PrefixesSimulated
	st.intentChecks += stats.IntentsReverified
	st.derived += stats.PrefixesDerived
	st.deltaReused += stats.PrefixesDelta
	st.deltaResim += stats.DeltaFallbacks
	st.activations += stats.Activations
	if err != nil && cctx.Err() != nil && ctx.Err() == nil {
		// The candidate's own timeout tripped, not the run's: quarantine
		// just this candidate.
		st.timedOut++
		st.recordError(&RepairError{Kind: KindCandidateTimeout, Op: "validate", Candidate: pr.update.Desc, Err: err})
		err = errQuarantined
	}
	return rep, err
}

// sleepCtx sleeps for d or until the context is done, whichever is first.
func sleepCtx(ctx context.Context, d time.Duration) {
	if d <= 0 {
		return
	}
	t := time.NewTimer(d)
	defer t.Stop()
	select {
	case <-ctx.Done():
	case <-t.C:
	}
}

// generate produces this member's proposals: template applications at
// suspicious lines, sampled under the evolutionary strategy, plus simple
// crossovers merging disjoint-device proposals. Each template application
// is panic-isolated: a panicking template poisons only its own proposals.
func generate(res *Result, member *candidate, opts Options, widen int, rng *rand.Rand) []proposal {
	sus := sbfl.Suspicious(member.ctx.Ranks, opts.TopKLines*widen, opts.MinSusp)
	var props []proposal
	for _, sc := range sus {
		tmpls := opts.Templates
		// Static pruning: at a line the analyzers diagnosed, try only the
		// templates repairing the diagnosed error classes. Widening (an
		// escalation signal: the current scope failed to produce a repair)
		// restores the full template set, so the prior can only misdirect
		// the first pass, never the search.
		if widen == 1 {
			if classes := member.ctx.DiagClasses[sc.Line]; len(classes) > 0 {
				var keep []Template
				for _, tmpl := range tmpls {
					if classes[tmpl.ErrorClass()] {
						keep = append(keep, tmpl)
					}
				}
				if len(keep) > 0 && len(keep) < len(tmpls) {
					res.TemplatesPrunedStatic += len(tmpls) - len(keep)
					tmpls = keep
				}
			}
		}
		for _, tmpl := range tmpls {
			for _, up := range safeGenerate(res, tmpl, member.ctx, sc.Line) {
				props = append(props, proposal{parent: member, update: up})
			}
		}
	}
	if opts.Strategy == Evolutionary {
		rng.Shuffle(len(props), func(i, j int) { props[i], props[j] = props[j], props[i] })
		if max := opts.SampleSize * widen; len(props) > max {
			props = props[:max]
		}
		// Crossover: merge pairs touching disjoint devices.
		n := len(props)
		for c := 0; c < 4 && n >= 2; c++ {
			a, b := props[rng.Intn(n)], props[rng.Intn(n)]
			if merged, ok := mergeUpdates(a.update, b.update); ok {
				props = append(props, proposal{parent: member, update: merged})
			}
		}
	}
	return props
}

// safeGenerate quarantines panics of one template application.
func safeGenerate(res *Result, tmpl Template, ctx *Context, line netcfg.LineRef) (ups []Update) {
	defer func() {
		if rec := recover(); rec != nil {
			res.CandidatesPanicked++
			res.recordError(&RepairError{
				Kind:      KindCandidatePanic,
				Op:        "generate",
				Candidate: fmt.Sprintf("%s@%s", tmpl.Name(), line),
				Err:       fmt.Errorf("panic: %v", rec),
				Stack:     debug.Stack(),
			})
			ups = nil
		}
	}()
	return tmpl.Generate(ctx, line)
}

// mergeUpdates combines two updates when they touch disjoint devices.
func mergeUpdates(a, b Update) (Update, bool) {
	devs := map[string]bool{}
	for _, es := range a.Edits {
		devs[es.Device] = true
	}
	for _, es := range b.Edits {
		if devs[es.Device] {
			return Update{}, false
		}
	}
	if a.Desc == b.Desc {
		return Update{}, false
	}
	return Update{
		Edits: append(append([]netcfg.EditSet{}, a.Edits...), b.Edits...),
		Desc:  a.Desc + " + " + b.Desc,
	}, true
}

// preserve builds one configuration version's verifier and localization
// context, with panic quarantine: a version whose (re-)verification panics
// (a simulator bug, or an injected chaos fault) is dropped from the
// population instead of killing the run. The base version (nil descs)
// additionally gets retries, since without it there is no search at all.
func preserve(res *Result, descs []string, opts Options, build func() (*candidate, error)) *candidate {
	attempts := 1
	if descs == nil { // the base version
		attempts = 1 + opts.MaxValidationRetries
	}
	for a := 0; a < attempts; a++ {
		c := func() (c *candidate) {
			defer func() {
				if rec := recover(); rec != nil {
					res.CandidatesPanicked++
					res.recordError(&RepairError{
						Kind:      KindCandidatePanic,
						Op:        "preserve",
						Candidate: strings.Join(descs, " + "),
						Err:       fmt.Errorf("panic: %v", rec),
						Stack:     debug.Stack(),
					})
					c = nil
				}
			}()
			c, err := build()
			if err != nil {
				res.recordError(&RepairError{Kind: KindValidation, Op: "preserve",
					Candidate: strings.Join(descs, " + "), Err: err})
				return nil
			}
			return c
		}()
		if c != nil {
			return c
		}
		if opts.SimOpts.Ctx != nil && opts.SimOpts.Ctx.Err() != nil {
			return nil
		}
	}
	return nil
}

// scratchVersion verifies a configuration version from its texts alone:
// the base version, and a population member restored from a checkpoint.
func scratchVersion(p Problem, configs map[string]*netcfg.Config, descs []string, opts Options) func() (*candidate, error) {
	return func() (*candidate, error) {
		iv := verify.NewIncremental(p.Topo, configs, p.Intents, opts.SimOpts)
		iv.Differential = opts.Differential
		return newCandidate(p, iv, descs, opts), nil
	}
}

// derivedVersion verifies a kept proposal's version by committing its
// edits on a clone of the parent's verifier, which re-derives only what
// the edits can reach; the result is the verifier scratchVersion builds on
// the same texts (a resumed run rebuilds this population that way).
func derivedVersion(p Problem, pr proposal, descs []string, opts Options) func() (*candidate, error) {
	return func() (*candidate, error) {
		iv := pr.parent.iv.Clone()
		if err := iv.Commit(pr.update.Edits); err != nil {
			return nil, err
		}
		return newCandidate(p, iv, descs, opts), nil
	}
}

// newCandidate builds the localization context of a verified version. The
// context's random stream is addressed by the version's descs (versionRNG)
// so a version restored from a checkpoint is indistinguishable from one
// preserved straight through.
func newCandidate(p Problem, iv *verify.Incremental, descs []string, opts Options) *candidate {
	c := &candidate{
		configs: iv.BaseConfigs(),
		iv:      iv,
		fitness: iv.BaseReport().NumFailed(),
		descs:   descs,
	}
	c.ctx = buildContext(p, iv, opts.Formula, versionRNG(opts.Seed, descs), !opts.NoStaticPrior)
	return c
}

// applyUpdate materializes an update against a configuration map.
func applyUpdate(configs map[string]*netcfg.Config, up Update) map[string]*netcfg.Config {
	out := make(map[string]*netcfg.Config, len(configs))
	for d, c := range configs { //acrvet:ordered
		out[d] = c
	}
	for _, es := range up.Edits {
		if base, ok := out[es.Device]; ok {
			if next, err := es.Apply(base); err == nil {
				out[es.Device] = next
			}
		}
	}
	return out
}

// signature canonically identifies a proposal for dedup.
func signature(parent *candidate, up Update) string {
	var sb strings.Builder
	fmt.Fprintf(&sb, "%p|", parent)
	sets := append([]netcfg.EditSet{}, up.Edits...)
	sort.Slice(sets, func(i, j int) bool { return sets[i].Device < sets[j].Device })
	for _, es := range sets {
		sb.WriteString(es.String())
		sb.WriteByte(';')
	}
	return sb.String()
}
