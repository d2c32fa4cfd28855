package core

import (
	"context"
	"crypto/sha256"
	"encoding/hex"
	"errors"
	"fmt"
	"io"
	"sort"
	"strings"

	"acr/internal/journal"
	"acr/internal/netcfg"
	"acr/internal/sbfl"
)

// This file is the bridge between the engine and the write-ahead journal
// (internal/journal): session identity digests, the resume gate,
// checkpoints of the engine's state, and the restore path that rebuilds a
// population from one.

// Digest fingerprints the repair problem: topology, configurations, and
// intents. A journal header carries it so resume can refuse to continue a
// session against a different case.
func (p Problem) Digest() string {
	h := sha256.New()
	if p.Topo != nil {
		fmt.Fprintf(h, "topo %s\n", p.Topo.Name)
	}
	p.writeTopo(h)
	devices := make([]string, 0, len(p.Configs))
	for d := range p.Configs {
		devices = append(devices, d)
	}
	sort.Strings(devices)
	for _, d := range devices {
		fmt.Fprintf(h, "config %s\n", d)
		io.WriteString(h, p.Configs[d].Text())
	}
	p.writeIntents(h)
	return hex.EncodeToString(h.Sum(nil))
}

// storeFingerprint hashes what decides a configuration set's fitness
// besides the set itself: the topology's nodes and links and the intents,
// as Digest writes them. The persistent store keys entries by it together
// with the configuration-set digest, so two problems sharing
// configurations never share fitness values. The topology's name is left
// out: it labels a case (an uploaded case is named after its incident) and
// decides nothing. "maxpasses 0" is constant text: it keeps every key
// equal to the one written when the pass bound was an option.
func (p Problem) storeFingerprint() string {
	h := sha256.New()
	p.writeTopo(h)
	p.writeIntents(h)
	io.WriteString(h, "maxpasses 0\n")
	return hex.EncodeToString(h.Sum(nil))
}

func (p Problem) writeTopo(w io.Writer) {
	if p.Topo == nil {
		return
	}
	for _, nd := range p.Topo.Nodes() {
		fmt.Fprintf(w, "node %s %d %d %s %v\n", nd.Name, nd.Kind, nd.ASN, nd.RouterID, nd.Originates)
	}
	for _, l := range p.Topo.Links {
		fmt.Fprintf(w, "link %s %s\n", l.A.Node, l.B.Node)
	}
}

func (p Problem) writeIntents(w io.Writer) {
	for _, in := range p.Intents {
		fmt.Fprintf(w, "intent %+v\n", in)
	}
}

// SearchDigest fingerprints every option that steers the search. Options
// that only observe the run (journaling, chaos) are excluded, and the
// deadline is the run's context, not an option: resuming under a different
// wall-clock budget is legitimate, resuming under a different seed or
// template library is not.
func (o Options) SearchDigest() string {
	o = o.withDefaults()
	h := sha256.New()
	// Store is deliberately absent: the persistent evaluation store only
	// substitutes disk reads for simulations without touching anything in
	// Canonical, so a session may resume on a machine with a different
	// -cache-dir, budget, or no store at all. Everything but iters and
	// seed is constant text: the search constants, the retired sample=16,
	// strategy=1 (brute force, the search both names run), and "full",
	// "noprior", "nocache", "noimpact" and "nodelta" as false, keep the
	// digest of every option vector equal to the one written when those
	// were options, so older journals and service state directories still
	// resume. A session journaled with the cache off, with full validation
	// or under the retired evolutionary search (strategy=0) is refused.
	fmt.Fprintf(h, "formula=tarantula iters=%d minsusp=0.45 topk=24 popcap=8 candcap=64 sample=16 strategy=1 seed=%d full=false noprior=false nocache=false noimpact=false nodelta=false\n",
		o.MaxIterations, o.Seed)
	for _, t := range o.Templates {
		// A library template hashes with its pinned identity, so a resume
		// across a change to its generation logic is refused even though
		// its name still matches. Any other template hashes by name only.
		if d := TemplateDigest(t.Name()); d != "" {
			fmt.Fprintf(h, "template=%s %s\n", t.Name(), d)
		} else {
			fmt.Fprintf(h, "template=%s\n", t.Name())
		}
	}
	return hex.EncodeToString(h.Sum(nil))
}

// SessionHeader builds the journal header identifying a run of p under o.
func SessionHeader(name string, p Problem, o Options) journal.Header {
	o = o.withDefaults()
	return journal.Header{
		Case:          name,
		CaseDigest:    p.Digest(),
		OptionsDigest: o.SearchDigest(),
		Seed:          o.Seed,
	}
}

// --- engine state <-> journal records --------------------------------------

func scoresToJournal(scores []sbfl.Score) []journal.Score {
	if len(scores) == 0 {
		return nil
	}
	out := make([]journal.Score, len(scores))
	for i, s := range scores {
		out[i] = journal.Score{Device: s.Line.Device, Line: s.Line.Line,
			Susp: s.Susp, Failed: s.Failed, Passed: s.Passed, Prior: s.Prior}
	}
	return out
}

// configsToLines snapshots a configuration version as raw line slices —
// the representation that restores byte-exactly (Text round trips drop
// trailing blank lines).
func configsToLines(configs map[string]*netcfg.Config) map[string][]string {
	out := make(map[string][]string, len(configs))
	for d, c := range configs { //acrvet:ordered
		out[d] = c.Lines()
	}
	return out
}

func configsFromLines(lines map[string][]string) map[string]*netcfg.Config {
	out := make(map[string]*netcfg.Config, len(lines))
	for d, ls := range lines { //acrvet:ordered
		out[d] = netcfg.FromLines(d, ls)
	}
	return out
}

// loopState is the restart-relevant loop-control state at an iteration
// boundary (the top of iteration iter+1). widen multiplies the
// suspicious-line scope; stagnant counts iterations since fitness last
// improved on bestEver.
type loopState struct {
	iter        int
	pop         []*candidate
	prevFitness int
	widen       int
	bestEver    int
	stagnant    int
}

// escalate is the search's one escalation rule: it doubles the
// suspicious-line scope up to 8× and reports false, the search being
// exhausted, when the scope is already at 8×. It fires when an iteration
// preserves nothing (every candidate made things worse) and when fitness
// stagnates across iterations: interacting faults can poison the
// constraints of the top-ranked lines' templates while the real fix sits
// just below a tie boundary or outside a tight top-K.
func (st *loopState) escalate() bool {
	if st.widen >= 8 {
		return false
	}
	st.widen *= 2
	return true
}

// buildCheckpoint snapshots the run for the journal.
func buildCheckpoint(res *Result, best *bestEffort, st loopState) journal.Checkpoint {
	cp := journal.Checkpoint{
		Iteration:         st.iter,
		PrevFitness:       st.prevFitness,
		Widen:             st.widen,
		BestEver:          st.bestEver,
		Stagnant:          st.stagnant,
		BaseFailing:       res.BaseFailing,
		StaticDiagnostics: res.StaticDiagnostics,
		PriorSeededLines:  res.PriorSeededLines,
		Counters:          journal.CheckpointCounters{Counters: res.Counters},
		Logs:              res.Logs,
	}
	for _, m := range st.pop {
		cp.Population = append(cp.Population, journal.Member{
			Configs: configsToLines(m.configs),
			Descs:   m.descs,
			Fitness: m.fitness,
		})
	}
	if best.fitness >= 0 {
		cp.Best = &journal.BestEffort{
			Fitness: best.fitness,
			Configs: configsToLines(best.configs),
			Applied: best.applied,
		}
	}
	for _, e := range res.Errors {
		ev := journal.ErrorEvent{Kind: string(e.Kind), Op: e.Op, Candidate: e.Candidate}
		if e.Err != nil {
			ev.Message = e.Err.Error()
		}
		cp.Errors = append(cp.Errors, ev)
	}
	return cp
}

// CheckResume is the one resume gate: it reports why sess may not resume
// a repair of p under opts, or nil when it may. The session must have been
// journaled for this case (its case digest) and this search (its options
// digest), and must not have completed its search. The engine, `acr repair
// -resume` and the service all decide by it.
func CheckResume(sess *journal.Session, p Problem, opts Options) error {
	if sess == nil || sess.Header == nil {
		return errors.New("no journaled session header")
	}
	if got := p.Digest(); sess.Header.CaseDigest != got {
		return fmt.Errorf("journaled case digest %.12s does not match this case (%.12s)", sess.Header.CaseDigest, got)
	}
	if got := opts.SearchDigest(); sess.Header.OptionsDigest != got {
		return fmt.Errorf("journaled options digest %.12s does not match these options (%.12s)", sess.Header.OptionsDigest, got)
	}
	if !sess.Resumable() {
		return fmt.Errorf("session already completed (%s)", sess.Terminal.Termination)
	}
	return nil
}

// tryResume restores the run from opts.Resume. A session CheckResume
// refuses, or one no checkpointed member of survives, records a
// KindJournal error and reports ok=false: the caller runs fresh, from the
// untouched res and best. A session that died before its first checkpoint
// also runs fresh, with no error: a fresh run under the same seed is its
// continuation. A restore the context cuts reports ok=false and records
// nothing.
func tryResume(ctx context.Context, res *Result, best *bestEffort, p Problem, opts Options) (loopState, bool) {
	sess := opts.Resume
	if sess == nil {
		return loopState{}, false
	}
	err := CheckResume(sess, p, opts)
	if err == nil && sess.Checkpoint == nil {
		return loopState{}, false
	}
	var st loopState
	if err == nil {
		st, err = restoreCheckpoint(ctx, res, best, p, opts, sess.Checkpoint)
	}
	if err != nil && ctx.Err() == nil {
		res.recordError(&RepairError{Kind: KindJournal, Op: "resume", Err: err})
	}
	return st, err == nil
}

// restoreCheckpoint rebuilds the run from a checkpoint: counters, logs and
// errors into res, the best-effort record into best, and the population.
// Each member is re-verified — the only validation work a resume re-pays,
// bounded by populationCap — and one whose re-verification fails or
// disagrees with its journaled fitness is dropped (quarantine semantics).
// The restored state is built apart and written to res and best only once
// a member survives; when none does, res holds only the dropped members'
// errors. The context is checked after each member: a cut returns its
// error and records nothing, since members re-verified on canceled
// outcomes prove nothing about the journal.
func restoreCheckpoint(ctx context.Context, res *Result, best *bestEffort, p Problem, opts Options, cp *journal.Checkpoint) (loopState, error) {
	r := Result{
		FinalConfigs:      res.FinalConfigs,
		Iterations:        cp.Iteration,
		BaseFailing:       cp.BaseFailing,
		Logs:              cp.Logs,
		Counters:          cp.Counters.Counters,
		StaticDiagnostics: cp.StaticDiagnostics,
		PriorSeededLines:  cp.PriorSeededLines,
	}
	for i := range cp.Errors {
		e := cp.Errors[i]
		var err error
		if e.Message != "" {
			err = fmt.Errorf("%s", e.Message)
		}
		r.recordError(&RepairError{Kind: ErrorKind(e.Kind), Op: e.Op, Candidate: e.Candidate, Err: err})
	}
	restored := len(r.Errors)
	st := loopState{
		iter:        cp.Iteration,
		prevFitness: cp.PrevFitness,
		widen:       cp.Widen,
		bestEver:    cp.BestEver,
		stagnant:    cp.Stagnant,
	}
	for _, m := range cp.Population {
		c := preserve(&r, m.Descs, scratchVersion(p, configsFromLines(m.Configs), m.Descs, opts))
		if err := ctx.Err(); err != nil {
			return loopState{}, err
		}
		if c == nil {
			continue
		}
		if c.fitness != m.Fitness {
			r.recordError(&RepairError{Kind: KindJournal, Op: "restore",
				Candidate: strings.Join(m.Descs, " + "),
				Err:       fmt.Errorf("re-verified fitness %d disagrees with journaled %d", c.fitness, m.Fitness)})
			continue
		}
		st.pop = append(st.pop, c)
	}
	if len(st.pop) == 0 {
		for _, e := range r.Errors[restored:] {
			res.recordError(e)
		}
		return loopState{}, errors.New("no checkpointed population member survived re-verification")
	}
	*res = r
	if cp.Best != nil {
		*best = bestEffort{fitness: cp.Best.Fitness, configs: configsFromLines(cp.Best.Configs), applied: cp.Best.Applied}
	}
	return st, nil
}

// journalSink funnels the engine's event emission. A nil sink (journaling
// off) is a no-op; an append error records a KindJournal RepairError and
// disables further emission rather than failing the run — durability is
// best-effort, the search result is not. Panics from the writer's chaos
// hook are NOT absorbed: a simulated crash must unwind the engine like a
// real one.
type journalSink struct {
	w        *journal.Writer
	res      *Result
	disabled bool
}

func newJournalSink(w *journal.Writer, res *Result) *journalSink {
	if w == nil {
		return nil
	}
	return &journalSink{w: w, res: res}
}

func (j *journalSink) emit(op string, err error) {
	if err != nil {
		j.disabled = true
		j.res.recordError(&RepairError{Kind: KindJournal, Op: op, Err: err})
	}
}

func (j *journalSink) candidate(iter int, desc string, fitness int, digest string, refuted bool) {
	if j == nil || j.disabled {
		return
	}
	j.emit("journal", j.w.AppendCandidate(journal.Candidate{Iteration: iter, Desc: desc, Fitness: fitness, Digest: digest, Refuted: refuted}))
}

func (j *journalSink) iteration(l journal.Iteration) {
	if j == nil || j.disabled {
		return
	}
	j.emit("journal", j.w.AppendIteration(l))
}

// checkpoint journals a restart point: the base snapshot (iteration 0)
// and every iteration boundary.
func (j *journalSink) checkpoint(res *Result, best *bestEffort, st loopState) {
	if j == nil || j.disabled {
		return
	}
	j.emit("checkpoint", j.w.AppendCheckpoint(buildCheckpoint(res, best, st)))
}

func (j *journalSink) terminal(term string, feasible bool) {
	if j == nil || j.disabled {
		return
	}
	j.emit("terminal", j.w.AppendTerminal(journal.Terminal{Termination: term, Feasible: feasible}))
}
