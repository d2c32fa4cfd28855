package core

import "fmt"

// ErrorKind classifies the failures a repair run can absorb or end on.
// The engine never surfaces a raw panic or bare context error: everything
// that interrupts the pipeline is wrapped in a RepairError so callers (the
// service layer, CLIs, the chaos harness) can dispatch on Kind.
type ErrorKind string

// The error taxonomy.
const (
	// KindCanceled: the caller's context was canceled.
	KindCanceled ErrorKind = "canceled"
	// KindDeadline: the run context's deadline expired.
	KindDeadline ErrorKind = "deadline"
	// KindCandidatePanic: a template, parser edit, or simulator panicked
	// while generating or validating one candidate. The candidate is
	// quarantined; the run continues.
	KindCandidatePanic ErrorKind = "candidate-panic"
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
// failures (panics, invalid versions, journal faults) are collected in
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

// maxStoredErrors caps Result.Errors so a pathological run (or a hostile
// chaos plan) cannot balloon the result; the full count survives in the
// counters.
const maxStoredErrors = 16

func (r *Result) recordError(e *RepairError) {
	if len(r.Errors) < maxStoredErrors {
		r.Errors = append(r.Errors, e)
	}
}
