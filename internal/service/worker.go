package service

import (
	"context"
	"strings"

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

// runJob executes one repair job end to end: transition to running, open
// the job's file and load its case, create or resume its session, drive
// the engine, and record the terminal state (or hand the job back to
// "queued" when a shutdown drain interrupted it).
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
	if s.draining.Load() {
		j.mu.Lock()
		j.drained = true
		j.mu.Unlock()
		cancel()
	}

	w, sess, sc, err := s.store.open(j)
	if err != nil {
		s.transition(j, nil, StateFailed, err.Error(), nil)
		return
	}
	defer w.Close()
	rec := j.snapshot()
	req := JobRequest{
		Seed:           rec.Seed,
		Strategy:       rec.Strategy,
		MaxIterations:  rec.MaxIterations,
		TimeoutSeconds: rec.TimeoutSeconds,
	}
	opts, timeout, err := req.Options()
	if err != nil {
		s.transition(j, w, StateFailed, err.Error(), nil)
		return
	}
	// Wire the shared persistent evaluation store under this job's cache.
	// The nil check must stay on the concrete field: assigning a nil
	// *evalstore.Store into the interface would make opts.Store non-nil.
	if s.evalStore != nil {
		opts.Store = s.evalStore
	}
	p := core.Problem{Topo: sc.Topo, Configs: sc.Configs, Intents: sc.Intents}
	if err := s.startSession(j, w, sess, p, &opts); err != nil {
		s.transition(j, w, StateFailed, journalErr(err).Error(), nil)
		return
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

	s.countersMu.Lock()
	s.counters.Add(res.Counters)
	s.countersMu.Unlock()

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
		s.transition(j, w, StateQueued, "", nil)
	case canceled && res.Termination == "canceled":
		s.transition(j, w, StateCanceled, "canceled by operator", res)
	default:
		s.transition(j, w, StateDone, "", res)
	}
}

// startSession readies the job's session for an attempt and records the
// job running. A live session of the same case and search resumes from
// its last checkpoint; any other leftover (say, a session cut off before
// the job's done record) is cut back to its header and rerun to the same
// result. Both cuts precede the running record, so no engine record that
// a resumed run regenerates sits before a job record.
func (s *Server) startSession(j *job, w *journal.Writer, sess *journal.Session, p core.Problem, opts *core.Options) error {
	hdr := core.SessionHeader(j.snapshot().Case, p, *opts)
	var err error
	if sess.Header != nil && sess.Resumable() && sess.Header.CaseDigest == hdr.CaseDigest &&
		sess.Header.OptionsDigest == hdr.OptionsDigest {
		// Provisional: the terminal update replaces this with the engine's
		// own Resumed flag (false when there was no checkpoint to restore).
		j.mu.Lock()
		j.rec.Resumed = true
		j.mu.Unlock()
		opts.Resume = sess
		err = w.Rewind(sess.ResumeOffset, sess.ResumeSeq)
	} else if sess.Header != nil {
		err = w.Rewind(sess.HeaderOffset, sess.HeaderSeq-1)
	}
	if err != nil {
		return err
	}
	s.transition(j, w, StateRunning, "", nil)
	if opts.Resume != nil {
		return nil
	}
	return w.AppendHeader(hdr)
}

// journalErr wraps journal-layer failures in the engine's error taxonomy
// so API clients see a classified failure.
func journalErr(err error) error {
	return &core.RepairError{Kind: core.KindJournal, Op: "service.journal", Err: err}
}

// transition moves the job to state, with msg as its error and, if res
// is non-nil, the engine's result; appends the job's record through w (if
// nil, the file is opened for the one append), fsynced unless running; and
// publishes the state event, closing a terminal job's stream. A failed
// append is not fatal, since the in-memory state is right: the event says.
func (s *Server) transition(j *job, w *journal.Writer, state JobState, msg string, res *core.Result) {
	j.mu.Lock()
	j.rec.State, j.rec.Error = state, msg
	if res != nil {
		j.rec.Resumed, j.rec.Result = res.Resumed, NewResultJSON(res)
	}
	rec := j.rec
	j.mu.Unlock()
	var err error
	if w == nil {
		if w, _, err = journal.OpenFile(s.store.path(j.id)); err == nil {
			defer w.Close()
		}
	}
	if err == nil {
		err = w.AppendJob(logRecord{Job: rec}, state != StateRunning)
	}
	if err != nil {
		msg = strings.TrimPrefix(msg+"; persist: "+err.Error(), "; ")
	}
	j.events.append(Event{Type: "state", State: state, Error: msg})
	if state.Terminal() {
		j.events.close()
	}
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
