package core

import (
	"context"
	"sort"
	"strings"
	"sync"
	"sync/atomic"

	"acr/internal/verify"
)

// This file is the parallel validation stage: a bounded worker pool
// evaluates one iteration's proposals concurrently while a single-threaded
// merge loop (in RepairContext) consumes the outcomes strictly in proposal
// order. Every piece of shared state — Result counters, the iteration log,
// journal appends, the best-effort tracker, the evaluation cache, the
// feasibility early-exit — is touched only by the merge loop, so the
// observable result is byte-identical at any parallelism level: workers
// only ever fill in their own valOutcome slot and each worker validates
// against its own verify.Incremental clone.
//
// The one caveat is wall-clock-dependent options: a CandidateTimeout can
// legitimately trip under parallel load where it would not serially (and
// vice versa), so byte-identity across parallelism levels is guaranteed
// for runs whose outcomes do not depend on wall-clock races — which is
// every run without CandidateTimeout quarantines. Chaos injection is
// call-order-dependent by design (the injector counts validator and
// simulator invocations), so a run with an injector wired forces the
// effective worker count to one.

// valStats collects one candidate's validation counters and errors. The
// worker that validates the candidate fills it in; the merge loop folds it
// into the Result in proposal order, so counter totals cannot depend on
// worker interleaving.
type valStats struct {
	prefixSims   int
	intentChecks int
	refuted      int
	scoped       int
	broad        int
	derived      int
	deltaReused  int
	deltaResim   int
	activations  int
	retries      int
	panicked     int
	timedOut     int
	errs         []*RepairError
}

func (s *valStats) recordError(e *RepairError) { s.errs = append(s.errs, e) }

// mergeInto folds the per-candidate counters into the run result.
func (s *valStats) mergeInto(res *Result) {
	res.PrefixSimulations += s.prefixSims
	res.IntentChecks += s.intentChecks
	res.StaticallyRefuted += s.refuted
	res.ImpactScoped += s.scoped
	res.ImpactBroad += s.broad
	res.LeafDerivations += s.derived
	res.DeltaReused += s.deltaReused
	res.DeltaResimulated += s.deltaResim
	res.SimActivations += s.activations
	res.ValidationRetries += s.retries
	res.CandidatesPanicked += s.panicked
	res.CandidatesTimedOut += s.timedOut
	for _, e := range s.errs {
		res.recordError(e)
	}
}

// Outcome modes, decided at dispatch time (before any validation runs) so
// the classification is identical at every parallelism level.
const (
	// modeCompute: this proposal is validated by a worker (or lazily by
	// the merge loop when the batch runs serially).
	modeCompute uint8 = iota
	// modeHit: the evaluation cache already held this proposal's digest.
	modeHit
	// modeFollower: an earlier proposal in this batch (the leader) has the
	// same digest; the follower takes the leader's merged fitness — the
	// same answer the serial engine's cache would have given it.
	modeFollower
	// modeStore: the persistent evaluation store held this proposal's
	// digest. The simulation is skipped, but the merge loop accounts the
	// proposal exactly like a freshly simulated one — an in-memory cache
	// miss whose fitness enters the cache — so CacheHits/CacheMisses (which
	// are part of Canonical()) are byte-identical to a cold-store run; only
	// the StoreHits/StoreMisses/PrefixSimulations cost counters, all
	// excluded from Canonical(), reveal the store was there.
	modeStore
)

// valOutcome is one proposal's validation slot.
type valOutcome struct {
	mode    uint8
	digest  string // "" when unaddressable (cache disabled or malformed edits)
	leader  int    // modeFollower: index of the in-batch leader
	fitness int
	ok      bool  // fitness is valid
	hit     bool  // answered from the cache (or the in-batch leader)
	err     error // terminal validation error when !ok
	stats   valStats
	done    chan struct{} // closed by the worker that filled this slot in
}

// batchValidator runs one iteration's proposals through validation.
type batchValidator struct {
	ctx     context.Context // run context: merge-side (lazy) validations
	bctx    context.Context // batch context: worker validations
	cancel  context.CancelFunc
	wg      sync.WaitGroup
	opts    Options
	props   []proposal
	outs    []valOutcome
	queue   []int   // indices needing computation, in proposal order
	groups  [][]int // queue partitioned into sibling groups (see groupSiblings)
	pos     atomic.Int64
	lazy    bool // single worker: validate on demand in the merge loop
	workers int
	// batched lists the verifiers this batch installed a parse memo on
	// (lazy mode only: the parents' own verifiers, which outlive the
	// batch and must be unbatched in close). Worker clones die with the
	// worker and need no cleanup.
	batched []*verify.Incremental
}

// groupSiblings partitions the compute queue into sibling groups — same
// parent, same set of edited devices — preserving proposal order within
// each group, with groups ordered by first member. Sibling candidates
// (different template instances at the same suspicious lines) leave every
// other device's post-edit text identical and frequently collide even on
// the edited device, so one worker validating a group under a shared
// parse memo (verify.BeginBatch) parses each distinct text once instead
// of once per sibling.
func groupSiblings(props []proposal, queue []int) [][]int {
	type gkey struct {
		parent *candidate
		devs   string
	}
	index := map[gkey]int{}
	var groups [][]int
	for _, i := range queue {
		names := make([]string, 0, len(props[i].update.Edits))
		for _, es := range props[i].update.Edits {
			names = append(names, es.Device)
		}
		sort.Strings(names)
		k := gkey{parent: props[i].parent, devs: strings.Join(names, "|")}
		if gi, ok := index[k]; ok {
			groups[gi] = append(groups[gi], i)
		} else {
			index[k] = len(groups)
			groups = append(groups, []int{i})
		}
	}
	return groups
}

// newBatchValidator classifies every proposal against the cache (hit,
// follower, or compute) and — when more than one worker is effective —
// starts the pool. With one worker no goroutine is spawned at all:
// validation happens lazily inside the merge loop, which is exactly the
// pre-parallelism engine's execution order (and what keeps the stateful
// chaos injector's call sequence reproducible, hence the forced single
// worker whenever an injection seam is wired).
func newBatchValidator(ctx context.Context, props []proposal, opts Options, cache *evalCache) *batchValidator {
	workers := opts.Parallelism
	if opts.Chaos != nil || opts.SimOpts.PrefixHook != nil {
		workers = 1
	}
	if workers > len(props) {
		workers = len(props)
	}
	if workers < 1 {
		workers = 1
	}
	bv := &batchValidator{ctx: ctx, opts: opts, props: props, workers: workers, lazy: workers == 1}
	bv.outs = make([]valOutcome, len(props))
	leaders := map[string]int{}
	for i := range props {
		out := &bv.outs[i]
		out.leader = -1
		d, ok := cache.digest(&props[i])
		if !ok {
			bv.queue = append(bv.queue, i)
			continue
		}
		out.digest = d
		if fit, hit := cache.get(d); hit {
			out.mode = modeHit
			out.fitness, out.ok, out.hit = fit, true, true
			continue
		}
		if j, dup := leaders[d]; dup {
			out.mode = modeFollower
			out.leader = j
			continue
		}
		leaders[d] = i
		// Only distinct digests reach the persistent store: one disk read
		// per batch leader, on the engine goroutine, in proposal order —
		// never from workers — so store I/O (and any injected store fault
		// sequence) is deterministic at every parallelism level.
		if fit, ok := cache.storeGet(d); ok {
			out.mode = modeStore
			out.fitness, out.ok = fit, true
			continue
		}
		bv.queue = append(bv.queue, i)
	}
	if !bv.lazy {
		for _, i := range bv.queue {
			bv.outs[i].done = make(chan struct{})
		}
		bv.groups = groupSiblings(props, bv.queue)
		bv.bctx, bv.cancel = context.WithCancel(ctx)
		for w := 0; w < workers; w++ {
			bv.wg.Add(1)
			go bv.worker()
		}
	} else {
		// Lazy mode validates on the parents' own verifiers from the merge
		// loop — still one goroutine, so the parse memo is safe to install
		// there for the duration of the batch.
		seen := map[*verify.Incremental]bool{}
		for _, i := range bv.queue {
			if iv := bv.props[i].parent.iv; !seen[iv] {
				seen[iv] = true
				iv.BeginBatch()
				bv.batched = append(bv.batched, iv)
			}
		}
	}
	return bv
}

// worker drains the compute queue. Each worker validates against its own
// verifier clones (one per distinct parent), so no mutable verification
// state is ever shared across goroutines. The loop always processes every
// queue entry — once the batch context is cancelled each validation
// returns immediately with the context error — so every done channel is
// guaranteed to close and the merge loop can never block on an abandoned
// slot.
// Work is handed out in sibling groups rather than single proposals so
// each group's checks run on one verifier clone behind a shared parse
// memo; which worker runs a group cannot matter, because clones of the
// same parent are interchangeable and the memo caches a pure function.
func (bv *batchValidator) worker() {
	defer bv.wg.Done()
	clones := map[*candidate]*verify.Incremental{}
	for {
		n := int(bv.pos.Add(1)) - 1
		if n >= len(bv.groups) {
			return
		}
		group := bv.groups[n]
		parent := bv.props[group[0]].parent // one parent per group, by construction
		iv := clones[parent]
		if iv == nil {
			iv = parent.iv.Clone()
			clones[parent] = iv
		}
		iv.BeginBatch()
		for _, i := range group {
			bv.validateOne(bv.bctx, i, iv)
			close(bv.outs[i].done)
		}
		iv.EndBatch()
	}
}

// validateOne runs one proposal through the full resilience boundary and
// records the outcome in its slot.
func (bv *batchValidator) validateOne(ctx context.Context, i int, iv *verify.Incremental) {
	out := &bv.outs[i]
	rep, err := validateCandidate(ctx, &out.stats, iv, &bv.props[i], bv.opts)
	if err != nil {
		out.err = err
		return
	}
	out.fitness, out.ok = rep.NumFailed(), true
}

// resolve returns proposal i's outcome, blocking until it is available.
// Only the merge loop calls it, strictly in proposal order; that ordering
// is what makes the follower case safe (its leader has already been
// resolved) and race-free (the done-channel close publishes the worker's
// writes).
func (bv *batchValidator) resolve(i int) *valOutcome {
	out := &bv.outs[i]
	switch out.mode {
	case modeHit:
	case modeStore:
		// Answered by the persistent store at classification time; the
		// fitness is already in the slot and nothing was queued.
	case modeFollower:
		lead := &bv.outs[out.leader]
		if lead.ok {
			out.fitness, out.ok, out.hit = lead.fitness, true, true
		} else {
			// The leader's validation failed (quarantine, transient
			// exhaustion): the follower is validated independently, on the
			// merge goroutine against the parent's own verifier — which no
			// worker touches (workers use clones), so this is race-free.
			bv.validateOne(bv.ctx, i, bv.props[i].parent.iv)
		}
	default:
		if bv.lazy {
			bv.validateOne(bv.ctx, i, bv.props[i].parent.iv)
		} else {
			<-out.done
		}
	}
	return out
}

// close winds the batch down: outstanding workers are cancelled (their
// remaining validations return immediately) and joined, so no validation
// goroutine ever outlives its batch, and any parse memo installed on a
// long-lived verifier (lazy mode) is dropped.
func (bv *batchValidator) close() {
	if bv.cancel != nil {
		bv.cancel()
		bv.wg.Wait()
		bv.cancel = nil
	}
	for _, iv := range bv.batched {
		iv.EndBatch()
	}
	bv.batched = nil
}
