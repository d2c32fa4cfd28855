package service

import (
	"context"
	"errors"
	"fmt"

	"acr/internal/core"
	"acr/internal/journal"
)

// workerLoop is one pool worker: pop, run, repeat until the queue closes.
func (s *Server) workerLoop() {
	defer s.wg.Done()
	for {
		j, ok := s.queue.pop()
		if !ok {
			return
		}
		s.runJob(j)
	}
}

// runJob executes one repair job end to end: transition to running, load
// the case, create or resume the job's journal, drive the engine, and
// record the terminal state (or hand the job back to "queued" when a
// shutdown drain interrupted it).
func (s *Server) runJob(j *job) {
	j.mu.Lock()
	if j.rec.State.Terminal() {
		// Canceled after popping but before we got here.
		j.mu.Unlock()
		return
	}
	ctx, cancel := context.WithCancel(s.baseCtx)
	j.cancel = cancel
	preCanceled := j.cancelRequested
	j.rec.State = StateRunning
	j.rec.Attempts++
	j.mu.Unlock()
	defer cancel()
	if preCanceled {
		cancel()
	}

	s.busyWorkers.Add(1)
	defer s.busyWorkers.Add(-1)

	// A job popped in the instant before Shutdown closed the queue is
	// invisible to the drain loop (it was still "queued" then); pick the
	// drain up here so it checkpoints and requeues like the rest.
	s.mu.Lock()
	draining := s.draining
	s.mu.Unlock()
	if draining {
		j.mu.Lock()
		j.drained = true
		j.mu.Unlock()
		cancel()
	}

	s.persistAndEvent(j, Event{Type: "state", State: StateRunning})

	sc, err := s.store.loadCase(j)
	if err != nil {
		s.finishFailed(j, fmt.Errorf("load case: %w", err))
		return
	}
	rec := j.snapshot()
	req := JobRequest{
		Seed:           rec.Seed,
		Strategy:       rec.Strategy,
		MaxIterations:  rec.MaxIterations,
		TimeoutSeconds: rec.TimeoutSeconds,
	}
	opts, timeout, err := req.Options()
	if err != nil {
		s.finishFailed(j, err)
		return
	}
	// Wire the shared persistent evaluation store under this job's cache.
	// The nil check must stay on the concrete field: assigning a nil
	// *evalstore.Store into the interface would make opts.Store non-nil.
	if s.evalStore != nil {
		opts.Store = s.evalStore
	}
	p := core.Problem{Topo: sc.Topo, Configs: sc.Configs, Intents: sc.Intents}

	w, sess, err := s.openJournal(j, p, opts)
	if err != nil {
		s.finishFailed(j, err)
		return
	}
	if sess != nil {
		// Provisional: the attempt starts from a journaled session. The
		// terminal update replaces this with the engine's own Resumed flag
		// (false when the journal held no checkpoint to restore — a fresh
		// run under the same seed IS the continuation then).
		j.mu.Lock()
		j.rec.Resumed = true
		j.mu.Unlock()
		opts.Resume = sess
	}
	// Mirror the journal stream onto the job's SSE event log, after any
	// configured hook (the chaos kill switch in crash tests) has had its
	// chance to take the process down first — exactly the order a real
	// crash interleaves durability and observability.
	hook := s.cfg.JournalHook
	w.Hook = func(n int, r *journal.Record) error {
		if hook != nil {
			if err := hook(n, r); err != nil {
				return err
			}
		}
		if e, ok := recordEvent(r); ok {
			j.events.append(e)
		}
		return nil
	}
	opts.Journal = w

	// The timeout bounds this attempt, not the job's lifetime: a resumed
	// job gets a fresh budget.
	if timeout > 0 {
		var cancelTimeout context.CancelFunc
		ctx, cancelTimeout = context.WithTimeout(ctx, timeout)
		defer cancelTimeout()
	}
	res := core.RepairContext(ctx, p, opts)
	w.Close()

	s.candidatesValidated.Add(int64(res.CandidatesValidated))
	s.panicsQuarantined.Add(int64(res.CandidatesPanicked))
	s.deltaReused.Add(int64(res.DeltaReused))
	s.deltaResimulated.Add(int64(res.DeltaResimulated))
	s.simActivations.Add(int64(res.SimActivations))

	j.mu.Lock()
	drained := j.drained
	canceled := j.cancelRequested
	j.mu.Unlock()

	switch {
	case drained && !canceled && res.Termination == "canceled":
		// Shutdown drain: the engine checkpointed and journaled a resumable
		// "canceled" terminal. Hand the job back to the queue state so the
		// next boot resumes it; keep the event stream open. (A drain that
		// raced a natural completion falls through to "done" instead.)
		j.mu.Lock()
		j.rec.State = StateQueued
		j.mu.Unlock()
		s.persistAndEvent(j, Event{Type: "state", State: StateQueued})
	case canceled && res.Termination == "canceled":
		j.mu.Lock()
		j.rec.State = StateCanceled
		j.rec.Error = "canceled by operator"
		j.rec.Resumed = res.Resumed
		j.rec.Result = NewResultJSON(res)
		j.mu.Unlock()
		s.persistAndEvent(j, Event{Type: "state", State: StateCanceled, Error: "canceled by operator"})
		j.events.close()
	default:
		j.mu.Lock()
		j.rec.State = StateDone
		j.rec.Error = ""
		j.rec.Resumed = res.Resumed
		j.rec.Result = NewResultJSON(res)
		j.mu.Unlock()
		s.persistAndEvent(j, Event{Type: "state", State: StateDone})
		j.events.close()
	}
}

// openJournal creates the job's journal session, or resumes it when the
// directory holds a live one for the same case and search (the previous
// daemon died or drained mid-run); a non-nil sess means resume. A
// non-resumable leftover session — e.g. a crash landed between the
// terminal append and the job.json update — is truncated and rerun: the
// engine is deterministic, so the rerun reproduces the same result.
func (s *Server) openJournal(j *job, p core.Problem, opts core.Options) (w *journal.Writer, sess *journal.Session, err error) {
	dir := s.store.journalDir(j.id)
	hdr := core.SessionHeader(j.snapshot().Case, p, opts)
	sess, err = journal.Replay(dir)
	if err == nil && sess.Resumable() && sess.Records > 0 &&
		sess.Header.CaseDigest == hdr.CaseDigest &&
		sess.Header.OptionsDigest == hdr.OptionsDigest {
		w, err = journal.Resume(dir, sess)
		if err != nil {
			return nil, nil, journalErr(err)
		}
		return w, sess, nil
	}
	if err != nil && !errors.Is(err, journal.ErrNoSession) {
		return nil, nil, journalErr(err)
	}
	w, err = journal.Create(dir, hdr)
	if err != nil {
		return nil, nil, journalErr(err)
	}
	return w, nil, nil
}

// journalErr wraps journal-layer failures in the engine's error taxonomy
// so API clients see a classified failure.
func journalErr(err error) error {
	return &core.RepairError{Kind: core.KindJournal, Op: "service.journal", Err: err}
}

// finishFailed records a job that could not run at all.
func (s *Server) finishFailed(j *job, err error) {
	msg := err.Error()
	j.mu.Lock()
	j.rec.State = StateFailed
	j.rec.Error = msg
	j.mu.Unlock()
	s.persistAndEvent(j, Event{Type: "state", State: StateFailed, Error: msg})
	j.events.close()
}

// persistAndEvent writes the job record (atomically) and publishes a
// lifecycle event. Persistence errors are not fatal to the run — the
// in-memory state is still right — but they are surfaced on the stream.
func (s *Server) persistAndEvent(j *job, e Event) {
	if err := s.store.persist(j); err != nil {
		e.Error = joinErr(e.Error, fmt.Sprintf("persist: %v", err))
	}
	j.events.append(e)
}

func joinErr(a, b string) string {
	if a == "" {
		return b
	}
	return a + "; " + b
}

// recordEvent maps a journal record to its SSE mirror.
func recordEvent(r *journal.Record) (Event, bool) {
	switch r.Type {
	case journal.TypeCandidate:
		return Event{Type: "candidate", Iteration: r.Candidate.Iteration,
			Fitness: r.Candidate.Fitness, Desc: r.Candidate.Desc}, true
	case journal.TypeIteration:
		return Event{Type: "iteration", Iteration: r.Iteration.Iteration,
			Fitness: r.Iteration.BestFitness}, true
	case journal.TypeCheckpoint:
		return Event{Type: "checkpoint", Iteration: r.Checkpoint.Iteration}, true
	}
	return Event{}, false
}
