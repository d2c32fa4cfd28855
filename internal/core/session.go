package core

import (
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"io"
	"sort"
	"strings"

	"acr/internal/journal"
	"acr/internal/netcfg"
	"acr/internal/sbfl"
)

// This file is the bridge between the engine and the write-ahead journal
// (internal/journal): session identity digests, conversions between the
// engine's in-memory state and journal records, and the restore path that
// rebuilds a population from a checkpoint.

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
	// -cache-dir, budget, or no store at all. Everything but
	// iters, strategy and seed is constant text: the search constants,
	// and "full", "noprior", "nocache", "noimpact" and "nodelta" as
	// false, keep the digest of every option vector equal to the one
	// written when those were options, so older journals and service
	// state directories still resume. A session journaled with the cache
	// off or with full validation hashes true there and is refused.
	fmt.Fprintf(h, "formula=tarantula iters=%d minsusp=0.45 topk=24 popcap=8 candcap=64 sample=16 strategy=%d seed=%d full=false noprior=false nocache=false noimpact=false nodelta=false\n",
		o.MaxIterations, o.Strategy, o.Seed)
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

func scoresFromJournal(scores []journal.Score) []sbfl.Score {
	if len(scores) == 0 {
		return nil
	}
	out := make([]sbfl.Score, len(scores))
	for i, s := range scores {
		out[i] = sbfl.Score{Line: netcfg.LineRef{Device: s.Device, Line: s.Line},
			Susp: s.Susp, Failed: s.Failed, Passed: s.Passed, Prior: s.Prior}
	}
	return out
}

func logToJournal(l IterationLog) journal.Iteration {
	return journal.Iteration{Iteration: l.Iteration, Generated: l.Generated,
		Validated: l.Validated, Kept: l.Kept, BestFitness: l.BestFitness,
		Top: scoresToJournal(l.TopSuspicious)}
}

func logFromJournal(l journal.Iteration) IterationLog {
	return IterationLog{Iteration: l.Iteration, Generated: l.Generated,
		Validated: l.Validated, Kept: l.Kept, BestFitness: l.BestFitness,
		TopSuspicious: scoresFromJournal(l.Top)}
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
// boundary (the top of iteration iter+1).
type loopState struct {
	iter        int
	pop         []*candidate
	prevFitness int
	widen       int
	bestEver    int
	stagnant    int
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
		Counters: journal.Counters{
			CandidatesValidated:   res.CandidatesValidated,
			PrefixSimulations:     res.PrefixSimulations,
			IntentChecks:          res.IntentChecks,
			TemplatesPrunedStatic: res.TemplatesPrunedStatic,
			CandidatesPanicked:    res.CandidatesPanicked,
			CacheHits:             res.CacheHits,
			CacheMisses:           res.CacheMisses,
			StaticallyRefuted:     res.StaticallyRefuted,
			ImpactScoped:          res.ImpactScoped,
			ImpactBroad:           res.ImpactBroad,
			DeltaReused:           res.DeltaReused,
			DeltaResimulated:      res.DeltaResimulated,
			SimActivations:        res.SimActivations,
		},
	}
	for _, m := range st.pop {
		cp.Population = append(cp.Population, journal.Member{
			Configs: configsToLines(m.configs),
			Descs:   m.descs,
			Fitness: m.fitness,
		})
	}
	if best.fitness >= 0 {
		best.materialize()
		cp.Best = &journal.BestEffort{
			Fitness: best.fitness,
			Configs: configsToLines(best.configs),
			Applied: best.applied,
		}
	}
	for _, l := range res.Logs {
		cp.Logs = append(cp.Logs, logToJournal(l))
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

// restoreCheckpoint rebuilds the run from a checkpoint: counters and logs
// into res, the best-effort tracker, and the population (each member is
// re-verified — the only validation work a resume re-pays, bounded by
// populationCap). A member whose re-verification fails or disagrees with
// its journaled fitness is dropped (quarantine semantics); restore reports
// ok=false when no member survives, and the caller falls back to a fresh
// run.
func restoreCheckpoint(res *Result, best *bestEffort, p Problem, opts Options, cp *journal.Checkpoint) (loopState, bool) {
	res.BaseFailing = cp.BaseFailing
	res.StaticDiagnostics = cp.StaticDiagnostics
	res.PriorSeededLines = cp.PriorSeededLines
	res.Iterations = cp.Iteration
	res.CandidatesValidated = cp.Counters.CandidatesValidated
	res.PrefixSimulations = cp.Counters.PrefixSimulations
	res.IntentChecks = cp.Counters.IntentChecks
	res.TemplatesPrunedStatic = cp.Counters.TemplatesPrunedStatic
	res.CandidatesPanicked = cp.Counters.CandidatesPanicked
	res.CacheHits = cp.Counters.CacheHits
	res.CacheMisses = cp.Counters.CacheMisses
	res.StaticallyRefuted = cp.Counters.StaticallyRefuted
	res.ImpactScoped = cp.Counters.ImpactScoped
	res.ImpactBroad = cp.Counters.ImpactBroad
	res.DeltaReused = cp.Counters.DeltaReused
	res.DeltaResimulated = cp.Counters.DeltaResimulated
	res.SimActivations = cp.Counters.SimActivations
	res.Logs = nil
	for _, l := range cp.Logs {
		res.Logs = append(res.Logs, logFromJournal(l))
	}
	res.Errors = nil
	for i := range cp.Errors {
		e := cp.Errors[i]
		var err error
		if e.Message != "" {
			err = fmt.Errorf("%s", e.Message)
		}
		res.recordError(&RepairError{Kind: ErrorKind(e.Kind), Op: e.Op, Candidate: e.Candidate, Err: err})
	}
	if cp.Best != nil {
		best.fitness = cp.Best.Fitness
		best.configs = configsFromLines(cp.Best.Configs)
		best.applied = cp.Best.Applied
	}
	st := loopState{
		iter:        cp.Iteration,
		prevFitness: cp.PrevFitness,
		widen:       cp.Widen,
		bestEver:    cp.BestEver,
		stagnant:    cp.Stagnant,
	}
	for _, m := range cp.Population {
		c := preserve(res, m.Descs, scratchVersion(p, configsFromLines(m.Configs), m.Descs, opts))
		if c == nil {
			continue
		}
		if c.fitness != m.Fitness {
			res.recordError(&RepairError{Kind: KindJournal, Op: "restore",
				Candidate: strings.Join(m.Descs, " + "),
				Err:       fmt.Errorf("re-verified fitness %d disagrees with journaled %d", c.fitness, m.Fitness)})
			continue
		}
		st.pop = append(st.pop, c)
	}
	return st, len(st.pop) > 0
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

func (j *journalSink) iteration(l IterationLog) {
	if j == nil || j.disabled {
		return
	}
	j.emit("journal", j.w.AppendIteration(logToJournal(l)))
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
