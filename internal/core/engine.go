package core

import (
	"context"
	"encoding/binary"
	"errors"
	"fmt"
	"hash/fnv"
	"math/rand"
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

// ParseStrategy maps a strategy's name, "evolutionary" or "bruteforce",
// to its Strategy.
func ParseStrategy(name string) (Strategy, error) {
	switch name {
	case "evolutionary":
		return Evolutionary, nil
	case "bruteforce":
		return BruteForce, nil
	}
	return 0, fmt.Errorf("unknown strategy %q", name)
}

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
	// instead of starting from the base configuration version. A session
	// CheckResume refuses, or whose checkpointed population does not
	// survive re-verification, records a KindJournal error and the run
	// starts fresh, as if Resume were nil.
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
	// Logs holds one record per iteration, as the journal carries it:
	// Generated counts the template applications (the leaves of the search
	// forest, Figure 3c), Validated the candidates checked after dedup and
	// caps, Kept those it passed to preservation (none when it found a
	// feasible update or the run was cut), BestFitness the lowest fitness
	// seen, and Top the head of the first member's ranking.
	Logs []journal.Iteration

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

// descs narrates the version the proposal builds: its parent's template
// applications, then its own.
func (pr *proposal) descs() []string {
	return append(append([]string{}, pr.parent.descs...), pr.update.Desc)
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

	res := &Result{FinalConfigs: p.Configs}
	r := &run{ctx: ctx, p: p, opts: opts, res: res, best: bestEffort{fitness: -1},
		sink: newJournalSink(opts.Journal, res), ec: newEvalCache(p, opts)}
	term := r.search()
	switch term {
	case "deadline", "canceled":
		res.recordError(&RepairError{Kind: ErrorKind(term), Op: "run", Err: ctx.Err()})
	case "feasible":
		// The feasible update is the run's best version: no fitness beats
		// 0, and the first candidate to reach it ends the run.
		res.Feasible = true
		res.FinalConfigs, res.Applied = r.best.configs, r.best.applied
		for d, c := range res.FinalConfigs {
			// Compare by text, not only by pointer: a resumed run's
			// configs are rebuilt from the checkpoint and never share
			// pointers with p.Configs.
			if !c.SameText(p.Configs[d]) {
				res.Diffs = append(res.Diffs, netcfg.Diff(p.Configs[d], c))
			}
		}
		sort.Strings(res.Diffs)
	}
	res.Termination = term
	r.best.writeTo(res)
	r.sink.terminal(term, res.Feasible)
	// Fold the cache's store-corruption tally in on every exit path. Not
	// checkpointed and not part of Canonical(): a resumed run only reports
	// the corruption it observed itself.
	res.StoreCorrupt = r.ec.storeCorrupt
	res.WallClock = time.Since(start)
	return res
}

// run is one repair run's state: what it fills in, the best version it has
// seen, where it journals and what it has evaluated.
type run struct {
	ctx  context.Context
	p    Problem
	opts Options
	res  *Result
	best bestEffort
	sink *journalSink
	ec   *evalCache
}

// bestEffort is the best configuration version a run has seen: the
// candidate with the fewest failing intents, and so the feasible update
// when one was found. An interrupted or infeasible run returns it as its
// partial progress. fitness is -1 until the base is verified.
type bestEffort struct {
	fitness int
	configs map[string]*netcfg.Config
	applied []string
}

func (b *bestEffort) writeTo(res *Result) {
	if b.fitness < 0 {
		// Nothing was ever verified: fall back to the base.
		res.BestEffortConfigs = res.FinalConfigs
		res.BestEffortFitness = res.BaseFailing
		return
	}
	res.BestEffortConfigs = b.configs
	res.BestEffortFitness = b.fitness
	res.BestEffortApplied = b.applied
	res.Improved = b.fitness < res.BaseFailing
}

// cut names the termination of a run whose context is done, else "".
func (r *run) cut() string {
	switch r.ctx.Err() {
	case context.DeadlineExceeded:
		return "deadline"
	case context.Canceled:
		return "canceled"
	}
	return ""
}

// search runs the loop from a restored checkpoint or the verified base
// version and returns how the run ended.
func (r *run) search() string {
	st, ok := tryResume(r.ctx, r.res, &r.best, r.p, r.opts)
	if ok {
		r.res.Resumed, r.res.ResumedFrom = true, st.iter
		// Rebuild the evaluation cache the straight-through run held at
		// this checkpoint from the journaled candidate digests, so the
		// resumed run's hits and misses replay identically.
		r.ec.warm(r.opts.Resume.Candidates, st.iter)
	} else {
		var term string
		if st, term = r.begin(); term != "" {
			return term
		}
	}
	for st.iter < r.opts.MaxIterations {
		if term := r.iterate(&st); term != "" {
			return term
		}
	}
	return "iteration-cap"
}

// begin verifies the base version and checkpoints it as the first restart
// point, or returns the termination of a run that ends there.
func (r *run) begin() (loopState, string) {
	// A run cut before or while it restored a checkpoint, or while it
	// verified the base, has nothing trustworthy to search from: its
	// fitness values may rest on canceled outcomes.
	if term := r.cut(); term != "" {
		return loopState{}, term
	}
	base := preserve(r.res, nil, scratchVersion(r.p, r.p.Configs, nil, r.opts))
	if term := r.cut(); term != "" {
		return loopState{}, term
	}
	if base == nil {
		// The base version itself could not be verified (a panic):
		// nothing to search from.
		return loopState{}, "exhausted"
	}
	r.res.BaseFailing = base.fitness
	r.res.StaticDiagnostics = len(base.ctx.Diags)
	r.res.PriorSeededLines = base.ctx.PriorSeeded
	r.best = bestEffort{fitness: base.fitness, configs: r.p.Configs}
	if base.fitness == 0 {
		return loopState{}, "feasible"
	}
	st := loopState{pop: []*candidate{base}, prevFitness: base.fitness,
		widen: 1, bestEver: base.fitness}
	// The base snapshot is the minimum viable restart point: a crash
	// before the first iteration checkpoint resumes here instead of
	// re-paying base verification and localization.
	r.sink.checkpoint(r.res, &r.best, st)
	return st, ""
}

// iterate runs iteration st.iter+1 and returns the run's termination, or
// "" with st at the iteration's checkpoint when the search goes on.
func (r *run) iterate(st *loopState) string {
	if term := r.cut(); term != "" {
		return term
	}
	iter := st.iter + 1
	r.res.Iterations = iter
	// Every random stream this iteration draws from is derived from
	// (Seed, iter), so a run resumed at this boundary replays the exact
	// straight-through search.
	rng := iterRNG(r.opts.Seed, iter)
	log := journal.Iteration{Iteration: iter, BestFitness: st.prevFitness}
	kept, feasible := r.validate(iter, st, r.propose(st, rng, &log), &log)

	// The iteration closes here, however it ended: its log is kept and
	// journaled once.
	term := r.cut()
	if feasible {
		term = "feasible"
	}
	if term == "" {
		log.Kept = len(kept)
	}
	r.res.Logs = append(r.res.Logs, log)
	r.sink.iteration(log)
	if term != "" {
		return term
	}

	if len(kept) > 0 {
		if log.BestFitness < st.bestEver {
			st.bestEver, st.widen, st.stagnant = log.BestFitness, 1, 0
		} else if st.stagnant++; st.stagnant >= 2 && st.escalate() {
			// Candidates are preserved but fitness has stopped improving:
			// the fix is probably outside the current suspicious scope.
			st.stagnant = 0
		}
	}
	next := r.preserveKept(kept)
	if term := r.cut(); term != "" {
		// A cut during preservation left a member out: checkpointing this
		// population would resume a different search.
		return term
	}
	if len(next) == 0 {
		// Nothing preserved at this scope: widen and retry from the same
		// population.
		if !st.escalate() {
			return "exhausted"
		}
	} else {
		// "The fitness of an iteration is defined as the largest fitness
		// among the preserved updates."
		st.pop, st.prevFitness = next, 0
		for _, c := range next {
			st.prevFitness = max(st.prevFitness, c.fitness)
		}
	}
	st.iter = iter
	r.sink.checkpoint(r.res, &r.best, *st)
	return ""
}

// propose generates candidates from every preserved update (Fix),
// deduplicated and capped at the iteration's candidate budget.
func (r *run) propose(st *loopState, rng *rand.Rand, log *journal.Iteration) []proposal {
	var props []proposal
	var seen signatures
	for _, member := range st.pop {
		mProps := generate(r.res, member, r.opts, st.widen, rng)
		log.Generated += len(mProps)
		for _, pr := range mProps {
			if seen.add(member, pr.update) {
				props = append(props, pr)
			}
		}
	}
	log.Top = scoresToJournal(sbfl.Suspicious(st.pop[0].ctx.Ranks, 5, minSusp))
	if limit := candidateCap * st.widen; len(props) > limit {
		if r.opts.Strategy == Evolutionary {
			rng.Shuffle(len(props), func(i, j int) { props[i], props[j] = props[j], props[i] })
		}
		props = props[:limit]
	}
	return props
}

// validate evaluates the proposals one at a time, in proposal order, so the
// first feasible one ends the iteration before anything after it is
// simulated. It returns the proposals the paper's preservation rule keeps —
// those no worse than the previous iteration's fitness — and whether one
// was feasible. The members' verifiers carry a parse memo for the
// iteration: siblings leaving a device with the same text parse it once.
func (r *run) validate(iter int, st *loopState, props []proposal, log *journal.Iteration) (kept []proposal, feasible bool) {
	for _, m := range st.pop {
		m.iv.BeginBatch()
		defer m.iv.EndBatch()
	}
	for i := range props {
		if r.cut() != "" {
			break
		}
		pr := &props[i]
		configs, digest, refuted, err := evaluate(r.ctx, r.res, r.ec, pr, r.opts)
		if err != nil {
			continue // malformed, quarantined or cut
		}
		r.res.CandidatesValidated++
		log.Validated++
		r.sink.candidate(iter, pr.update.Desc, pr.fitness, digest, refuted)
		log.BestFitness = min(log.BestFitness, pr.fitness)
		if r.best.fitness < 0 || pr.fitness < r.best.fitness {
			r.best = bestEffort{fitness: pr.fitness, configs: configs, applied: pr.descs()}
		}
		if pr.fitness == 0 {
			return kept, true // termination condition 1
		}
		if pr.fitness <= st.prevFitness {
			kept = append(kept, *pr)
		}
	}
	return kept, false
}

// preserveKept selects the next population from the kept proposals — the
// fittest first, then the shortest histories, up to populationCap — and
// builds each one's version. A member whose preservation fails is left out.
func (r *run) preserveKept(kept []proposal) []*candidate {
	sort.SliceStable(kept, func(i, j int) bool {
		if kept[i].fitness != kept[j].fitness {
			return kept[i].fitness < kept[j].fitness
		}
		return len(kept[i].parent.descs) < len(kept[j].parent.descs)
	})
	if len(kept) > populationCap {
		kept = kept[:populationCap]
	}
	var next []*candidate
	for _, pr := range kept {
		descs := pr.descs()
		if c := preserve(r.res, descs, derivedVersion(r.p, pr, descs, r.opts)); c != nil {
			next = append(next, c)
		}
	}
	return next
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

// evaluate answers one proposal's fitness, setting pr.fitness, from the
// evaluation cache, else the persistent store, else by validating it on its
// parent's verifier. It returns the candidate's configuration set, which the
// run keeps when the candidate is its best. A duplicate of an earlier
// proposal hits the entry that proposal wrote. A store answer replaces only
// the simulation: it is accounted as a cache miss and enters the cache like
// the simulation it replaced, so CacheHits/CacheMisses — part of
// Canonical() — match a cold-store run and only the store counters see it.
// A proposal whose edits do not apply is an error, neither digested nor
// checked; refuted reports that the impact analysis answered the validation
// without simulating.
func evaluate(ctx context.Context, res *Result, ec *evalCache, pr *proposal, opts Options) (configs map[string]*netcfg.Config, digest string, refuted bool, err error) {
	// The edits are applied once: the digest hashes the configuration set
	// a cache miss then checks.
	configs, err = pr.parent.iv.Apply(pr.update.Edits)
	if err != nil {
		return nil, "", false, err
	}
	digest = ec.digest(pr.parent, configs)
	if fit, ok := ec.get(digest); ok {
		res.CacheHits++
		pr.fitness = fit
		return configs, digest, false, nil
	}
	fitness, stored := ec.storeGet(digest)
	if stored {
		res.StoreHits++
	} else {
		rep, stats, err := validateCandidate(ctx, res, pr, configs, opts)
		if err != nil {
			return nil, digest, false, err
		}
		fitness, refuted = rep.NumFailed(), stats.Refuted
		if ec.store != nil {
			res.StoreMisses++
			ec.storePut(digest, fitness)
		}
	}
	res.CacheMisses++
	ec.put(digest, fitness)
	pr.fitness = fitness
	return configs, digest, refuted, nil
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
			res.quarantine("validate", pr.update.Desc, rec)
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
			res.quarantine("generate", fmt.Sprintf("%s@%s", tmpl.Name(), line), rec)
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
			res.quarantine("preserve", strings.Join(descs, " + "), rec)
			c = nil
		}
	}()
	c, err := build()
	if err != nil {
		if !errors.Is(err, context.Canceled) && !errors.Is(err, context.DeadlineExceeded) {
			// A preservation the run's context cut is no invalid candidate:
			// the caller aborts the run.
			res.recordError(&RepairError{Kind: KindValidation, Op: "preserve",
				Candidate: strings.Join(descs, " + "), Err: err})
		}
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
