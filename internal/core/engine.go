package core

import (
	"context"
	"encoding/binary"
	"fmt"
	"hash/fnv"
	"math/rand"
	"runtime/debug"
	"slices"
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

// The search's fixed parameters. Localization ranks lines by Tarantula
// (sbfl.Tarantula). The widening multiplier scales topKLines, candidateCap
// and sampleSize.
const (
	minSusp       = 0.45 // suspiciousness threshold
	topKLines     = 24   // suspicious lines considered per version
	populationCap = 8    // preserved updates carried per iteration
	candidateCap  = 64   // validated candidates per iteration
	sampleSize    = 16   // evolutionary: proposals sampled per member
)

// Options tunes the engine. Zero values select the paper's defaults.
type Options struct {
	MaxIterations int // default 500 (the paper's cap)
	Strategy      Strategy
	Seed          int64
	Templates     []Template
	SimOpts       bgp.Options
	// noStaticPrior disables the static-analysis localization prior: no
	// diagnostic-boosted ranking, no seeded uncovered lines, no template
	// pruning at diagnosed lines. Only tests set it (export_test.go), to
	// measure what the prior saves.
	noStaticPrior bool
	// audit, when non-nil, runs after every successful incremental check
	// on the verifier and edits it checked; an error drops the candidate
	// like any validator error. Only tests set it (export_test.go), to
	// audit each validated candidate against the references in
	// internal/oracle. It observes the run and is not in SearchDigest.
	audit func(context.Context, *verify.Incremental, []netcfg.EditSet) error

	// --- performance ----------------------------------------------------

	// Deprecated: Parallelism is ignored. Candidates are validated one at
	// a time, in proposal order, on the engine goroutine.
	Parallelism int
	// Store, when non-nil, is the persistent evaluation store layered
	// under the in-memory cache (internal/evalstore): digests the cache
	// misses are looked up there before simulating, and freshly simulated
	// fitness values are written back, keyed by the problem as well as the
	// configuration set. Because fitness is a pure function of the two, a
	// store answer replaces only the simulation, never the decision —
	// Canonical() output is byte-identical with a cold, warm, corrupt, or
	// absent store. The store is therefore excluded from SearchDigest: a
	// journaled session may resume on a machine with a different
	// -cache-dir, a different budget, or no store at all.
	Store EvalStore

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
}

func (o Options) withDefaults() Options {
	if o.MaxIterations <= 0 {
		o.MaxIterations = 500
	}
	if o.Templates == nil {
		o.Templates = BuiltinTemplates()
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

	// Counters are the run's work counters, each documented on
	// journal.Counters; a checkpoint carries them and a resume restores
	// them.
	journal.Counters

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
	// reported corrupt by the store and degraded to a StoreMiss.
	StoreCorrupt int

	// --- static-analysis prior ------------------------------------------

	// StaticDiagnostics counts the static-analysis findings on the base
	// configuration version (0 when the prior is disabled or clean).
	StaticDiagnostics int
	// PriorSeededLines counts statically flagged lines not covered by any
	// sampled test that the prior injected into the base ranking.
	PriorSeededLines int

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
	fmt.Fprintf(&sb, "feasible=%v termination=%s iterations=%d baseFailing=%d\n",
		r.Feasible, r.Termination, r.Iterations, r.BaseFailing)
	if !r.Feasible {
		fmt.Fprintf(&sb, "  best-effort: fitness=%d improved=%v\n", r.BestEffortFitness, r.Improved)
	}
	r.writeCounters(&sb, "  ")
	for _, a := range r.Applied {
		fmt.Fprintf(&sb, "  applied: %s\n", a)
	}
	return sb.String()
}

// candidate is one preserved update: materialized configurations plus the
// verification/localization state built on them.
type candidate struct {
	configs map[string]*netcfg.Config
	// devices are the keys of configs, sorted: the order the evaluation
	// cache digests a configuration set in.
	devices []string
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

// errQuarantined marks a candidate removed from the search by a panic
// without ending the run.
var errQuarantined = fmt.Errorf("candidate quarantined")

// Repair runs localize–fix–validate (Figure 4) until a feasible update is
// found, candidates are exhausted, or the iteration cap is hit.
func Repair(p Problem, opts Options) *Result {
	return RepairContext(context.Background(), p, opts)
}

// RepairContext is Repair with cooperative cancellation. The context is
// the run's only wall-clock bound: wrap it with context.WithTimeout or
// WithDeadline to budget the run. It is checked in every hot loop —
// between iterations, between candidate validations, inside per-prefix
// simulation passes — so cancellation and deadlines take effect promptly.
// The returned Result is always usable: on "deadline" or "canceled" it
// carries the best-effort repair found so far.
func RepairContext(ctx context.Context, p Problem, opts Options) *Result {
	opts = opts.withDefaults()
	start := time.Now()
	// Thread the run context into every base (re)simulation the engine
	// performs while preserving candidates.
	opts.SimOpts.Ctx = ctx

	res := &Result{FinalConfigs: p.Configs, Termination: "iteration-cap"}
	sink := newJournalSink(opts.Journal, res)
	ec := newEvalCache(p, opts)

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
		base := preserve(res, nil, scratchVersion(p, p.Configs, nil, opts))
		if base == nil {
			// The base version itself could not be verified (a panic or
			// immediate cancellation): nothing to search from.
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
		var seen signatures
		for _, member := range pop {
			mProps := generate(res, member, opts, widen, rng)
			log.Generated += len(mProps)
			for _, pr := range mProps {
				if seen.add(member, pr.update) {
					props = append(props, pr)
				}
			}
		}
		if len(pop) > 0 {
			log.TopSuspicious = append(log.TopSuspicious,
				sbfl.Suspicious(pop[0].ctx.Ranks, 5, minSusp)...)
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
		limit := candidateCap * widen
		if len(props) > limit {
			if opts.Strategy == Evolutionary {
				rng.Shuffle(len(props), func(i, j int) { props[i], props[j] = props[j], props[i] })
			}
			props = props[:limit]
		}

		// --- Validate -----------------------------------------------------
		// Proposals are evaluated one at a time, in proposal order, so the
		// first feasible one ends the iteration before anything after it is
		// simulated. The members' verifiers carry a parse memo for the
		// iteration: siblings leaving a device with the same text parse it
		// once.
		for _, m := range pop {
			m.iv.BeginBatch()
		}
		endBatch := func() {
			for _, m := range pop {
				m.iv.EndBatch()
			}
		}
		var kept []proposal
		feasibleAt := -1
		for i := range props {
			if _, ok := interrupted(); ok {
				endBatch()
				res.Logs = append(res.Logs, log)
				return abort()
			}
			pr := &props[i]
			fitness, digest, refuted, err := evaluate(ctx, res, ec, pr, opts)
			if err != nil {
				if _, ok := interrupted(); ok {
					endBatch()
					res.Logs = append(res.Logs, log)
					return abort()
				}
				continue // malformed or quarantined candidate
			}
			res.CandidatesValidated++
			log.Validated++
			pr.fitness = fitness
			sink.candidate(iter, pr.update.Desc, pr.fitness, digest, refuted)
			if pr.fitness < log.BestFitness {
				log.BestFitness = pr.fitness
			}
			if best.fitness < 0 || pr.fitness < best.fitness {
				best.observeLazy(pr.fitness, pr)
			}
			if pr.fitness == 0 {
				// Feasible update found (termination condition 1).
				feasibleAt = i
				break
			}
			// Discard candidates whose fitness exceeds the previous
			// iteration's (the paper's preservation rule).
			if pr.fitness <= prevFitness {
				kept = append(kept, *pr)
			}
		}
		endBatch()
		if feasibleAt >= 0 {
			pr := &props[feasibleAt]
			final := applyUpdate(pr.parent.configs, pr.update)
			res.Feasible = true
			res.FinalConfigs = final
			res.Applied = append(append([]string{}, pr.parent.descs...), pr.update.Desc)
			for d, c := range final {
				// Compare by text, not only by pointer: a resumed run's
				// configs are rebuilt from the checkpoint and never share
				// pointers with p.Configs.
				if !c.SameText(p.Configs[d]) {
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
		if len(kept) > populationCap {
			kept = kept[:populationCap]
		}
		next := make([]*candidate, 0, len(kept))
		maxFit := 0
		for _, pr := range kept {
			if _, ok := interrupted(); ok {
				return abort()
			}
			descs := append(append([]string{}, pr.parent.descs...), pr.update.Desc)
			c := preserve(res, descs, derivedVersion(p, pr, descs, opts))
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
// The caller has already established the improvement (the validate loop's
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

// evaluate answers one proposal's fitness from the evaluation cache, else
// the persistent store, else by validating it on its parent's verifier.
// A duplicate of an earlier proposal hits the entry that proposal wrote. A
// store answer replaces only the simulation: it is accounted as a cache
// miss and enters the cache like the simulation it replaced, so
// CacheHits/CacheMisses — part of Canonical() — match a cold-store run and
// only the store counters see it. A proposal whose edits do not apply is
// an error, neither digested nor checked; refuted reports that the impact
// analysis answered the validation without simulating.
func evaluate(ctx context.Context, res *Result, ec *evalCache, pr *proposal, opts Options) (fitness int, digest string, refuted bool, err error) {
	// The edits are applied once: the digest hashes the configuration set
	// a cache miss then checks.
	configs, err := pr.parent.iv.Apply(pr.update.Edits)
	if err != nil {
		return 0, "", false, err
	}
	digest = ec.digest(pr.parent, configs)
	if fit, ok := ec.get(digest); ok {
		res.CacheHits++
		return fit, digest, false, nil
	}
	fitness, stored := ec.storeGet(digest)
	if stored {
		res.StoreHits++
	} else {
		rep, stats, err := validateCandidate(ctx, res, pr, configs, opts)
		if err != nil {
			return 0, digest, false, err
		}
		fitness, refuted = rep.NumFailed(), stats.Refuted
		if ec.store != nil {
			res.StoreMisses++
			ec.storePut(digest, fitness)
		}
	}
	res.CacheMisses++
	ec.put(digest, fitness)
	return fitness, digest, refuted, nil
}

// validateCandidate validates one candidate, configs being its edits
// applied, on its parent's verifier, with panic quarantine. Any error
// drops the candidate: a panic or a failed audit. The verifier is
// deterministic, so a retry would only re-run the same failure. Work
// counters and panics go to res.
func validateCandidate(ctx context.Context, res *Result, pr *proposal, configs map[string]*netcfg.Config, opts Options) (rep *verify.Report, stats verify.Stats, err error) {
	if err := ctx.Err(); err != nil {
		return nil, verify.Stats{}, err
	}
	defer func() {
		if rec := recover(); rec != nil {
			res.CandidatesPanicked++
			res.recordError(&RepairError{
				Kind:      KindCandidatePanic,
				Op:        "validate",
				Candidate: pr.update.Desc,
				Err:       fmt.Errorf("panic: %v", rec),
				Stack:     debug.Stack(),
			})
			rep, err = nil, errQuarantined
		}
	}()
	iv := pr.parent.iv
	rep, stats, err = iv.CheckApplied(ctx, configs, pr.update.Edits)
	if err == nil && opts.audit != nil {
		err = opts.audit(ctx, iv, pr.update.Edits)
	}
	if err == nil {
		switch {
		case stats.Refuted:
			res.StaticallyRefuted++
		case stats.Broad:
			res.ImpactBroad++
		default:
			res.ImpactScoped++
		}
	}
	res.PrefixSimulations += stats.PrefixesSimulated
	res.IntentChecks += stats.IntentsReverified
	res.DeltaReused += stats.PrefixesDelta
	res.DeltaResimulated += stats.DeltaFallbacks
	res.SimActivations += stats.Activations
	return rep, stats, err
}

// generate produces this member's proposals: template applications at
// suspicious lines, sampled under the evolutionary strategy, plus simple
// crossovers merging disjoint-device proposals. Each template application
// is panic-isolated: a panicking template poisons only its own proposals.
func generate(res *Result, member *candidate, opts Options, widen int, rng *rand.Rand) []proposal {
	sus := sbfl.Suspicious(member.ctx.Ranks, topKLines*widen, minSusp)
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
		if max := sampleSize * widen; len(props) > max {
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
// population instead of killing the run. The base version gets no second
// attempt: verification is deterministic, so it would fail the same way.
func preserve(res *Result, descs []string, build func() (*candidate, error)) (c *candidate) {
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
}

// scratchVersion verifies a configuration version from its texts alone:
// the base version, and a population member restored from a checkpoint.
func scratchVersion(p Problem, configs map[string]*netcfg.Config, descs []string, opts Options) func() (*candidate, error) {
	return func() (*candidate, error) {
		iv := verify.NewIncremental(p.Topo, configs, p.Intents, opts.SimOpts)
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
	for d := range c.configs {
		c.devices = append(c.devices, d)
	}
	sort.Strings(c.devices)
	c.ctx = buildContext(p, iv, sbfl.Tarantula, versionRNG(opts.Seed, descs), !opts.noStaticPrior)
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

// signatures deduplicates one iteration's proposals: two are the same when
// they share a parent and their edit sets, ordered by device, are equal.
// Proposals are bucketed by parent and first edit, then compared set by set.
type signatures map[signatureKey][][]netcfg.EditSet

type signatureKey struct {
	parent *candidate
	device string
	first  netcfg.Edit
}

// add records up as a proposal of parent and reports whether it was new.
func (s *signatures) add(parent *candidate, up Update) bool {
	sets := up.Edits
	byDevice := func(i, j int) bool { return sets[i].Device < sets[j].Device }
	if !sort.SliceIsSorted(sets, byDevice) {
		sets = append([]netcfg.EditSet(nil), sets...)
		sort.Slice(sets, byDevice)
	}
	key := signatureKey{parent: parent}
	if len(sets) > 0 {
		key.device = sets[0].Device
		if len(sets[0].Edits) > 0 {
			key.first = sets[0].Edits[0]
		}
	}
	for _, prev := range (*s)[key] {
		if slices.EqualFunc(prev, sets, func(a, b netcfg.EditSet) bool {
			return a.Device == b.Device && slices.Equal(a.Edits, b.Edits)
		}) {
			return false
		}
	}
	if *s == nil {
		*s = signatures{}
	}
	(*s)[key] = append((*s)[key], sets)
	return true
}
