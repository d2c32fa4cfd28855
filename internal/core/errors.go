package core

import (
	"errors"
	"fmt"
)

// ErrorKind classifies the failures a repair run can absorb or end on.
// The engine never surfaces a raw panic or bare context error: everything
// that interrupts the pipeline is wrapped in a RepairError so callers (the
// service layer, CLIs, the chaos harness) can dispatch on Kind.
type ErrorKind string

// The error taxonomy.
const (
	// KindCanceled: the caller's context was canceled.
	KindCanceled ErrorKind = "canceled"
	// KindDeadline: the run's deadline (Options.Deadline / MaxWallClock /
	// a context deadline) expired.
	KindDeadline ErrorKind = "deadline"
	// KindCandidatePanic: a template, parser edit, or simulator panicked
	// while generating or validating one candidate. The candidate is
	// quarantined; the run continues.
	KindCandidatePanic ErrorKind = "candidate-panic"
	// KindCandidateTimeout: one candidate's validation exceeded
	// Options.CandidateTimeout. The candidate is skipped.
	KindCandidateTimeout ErrorKind = "candidate-timeout"
	// KindTransient: the validator reported a retryable fault (in
	// production, a backend hiccup; under chaos, an injected one). The
	// engine retries with backoff before giving up on the candidate.
	KindTransient ErrorKind = "transient"
	// KindValidation: a candidate was structurally invalid (conflicting or
	// out-of-range edits). Expected during search; never fatal.
	KindValidation ErrorKind = "validation"
	// KindImpactDivergence: differential mode caught the static impact
	// analysis pruning unsoundly — a pruned verdict disagreed with the
	// full simulation. Terminal: the run stops so the analysis defect is
	// fixed instead of silently corrupting the search.
	KindImpactDivergence ErrorKind = "impact-divergence"
	// KindDeltaDivergence: differential mode caught the delta BGP
	// simulator reaching a different fixpoint than a cold full simulation
	// for some prefix. Terminal for the same reason as impact divergences:
	// every verdict downstream of the bad outcome is suspect.
	KindDeltaDivergence ErrorKind = "delta-divergence"
	// KindJournal: the write-ahead journal could not be appended to or a
	// checkpoint could not be restored. Durability degrades (journaling is
	// disabled for the rest of the run, or a population member is dropped
	// on restore); the search itself continues.
	KindJournal ErrorKind = "journal"
)

// RepairError is one classified failure observed during a run. Quarantined
// failures (panics, timeouts, transient faults) are collected in
// Result.Errors; terminal ones (canceled, deadline) also decide
// Result.Termination.
type RepairError struct {
	Kind ErrorKind
	// Op names the pipeline stage that failed: "generate", "validate",
	// "preserve", "run".
	Op string
	// Candidate describes the update being processed, when there was one.
	Candidate string
	// Err is the underlying error, if any.
	Err error
	// Stack is the captured goroutine stack for KindCandidatePanic.
	Stack []byte
}

// Error implements error.
func (e *RepairError) Error() string {
	s := fmt.Sprintf("repair: %s during %s", e.Kind, e.Op)
	if e.Candidate != "" {
		s += fmt.Sprintf(" (candidate %q)", e.Candidate)
	}
	if e.Err != nil {
		s += ": " + e.Err.Error()
	}
	return s
}

// Unwrap exposes the underlying error to errors.Is/As.
func (e *RepairError) Unwrap() error { return e.Err }

// Transient reports whether the failure is worth retrying.
func (e *RepairError) Transient() bool { return e.Kind == KindTransient }

// transienter is the retry contract: any error advertising Transient()
// (e.g. the chaos harness's injected faults) gets the engine's
// retry-with-backoff treatment at the validation boundary.
type transienter interface{ Transient() bool }

// IsTransient reports whether err (or anything it wraps) is retryable.
func IsTransient(err error) bool {
	for err != nil {
		if t, ok := err.(transienter); ok && t.Transient() {
			return true
		}
		err = errors.Unwrap(err)
	}
	return false
}

// maxStoredErrors caps Result.Errors so a pathological run (or a hostile
// chaos plan) cannot balloon the result; the full count survives in the
// counters.
const maxStoredErrors = 16

func (r *Result) recordError(e *RepairError) {
	if len(r.Errors) < maxStoredErrors {
		r.Errors = append(r.Errors, e)
	}
}
