// Package service is the repair daemon behind `acr serve`: a long-running
// process that accepts repair jobs over an HTTP/JSON API, runs them on a
// bounded worker pool, and persists every job under a state directory
// using the crash-safe session journal (internal/journal), so a SIGKILL'd
// daemon resumes its in-flight jobs on restart.
//
// API surface (all JSON):
//
//	POST   /v1/repairs             submit a job (builtin or uploaded case) → 202
//	GET    /v1/repairs             list jobs (?state= filters)
//	GET    /v1/repairs/{id}        one job, including its result when terminal
//	GET    /v1/repairs/{id}/events job lifecycle + engine progress as SSE
//	DELETE /v1/repairs/{id}        cancel (queued: immediate; running: cooperative)
//	GET    /healthz                readiness + basic gauges (503 while booting/draining)
//	GET    /livez                  liveness (200 while the process serves at all)
//	GET    /varz                   expvar-style counters
//
// Job lifecycle: queued → running → done | failed | canceled. "done" means
// the engine produced a Result (feasible or not — the exit-code-equivalent
// classification in the result says which); "failed" means the job could
// not run at all (unloadable case, locked journal); "canceled" is an
// operator DELETE. A daemon shutdown drains the pool: running jobs are
// interrupted at the next engine checkpoint and persisted back to
// "queued", so the next boot — like a boot after a crash — picks them up
// and resumes them from their journals.
package service

import (
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"math"
	"slices"
	"time"

	"acr/internal/caseio"
	"acr/internal/core"
	"acr/internal/journal"
)

// JobState is one point of the job lifecycle.
type JobState string

// Job states. Queued and Running are live; Done, Failed, and Canceled are
// terminal.
const (
	StateQueued   JobState = "queued"
	StateRunning  JobState = "running"
	StateDone     JobState = "done"
	StateFailed   JobState = "failed"
	StateCanceled JobState = "canceled"
)

// Terminal reports whether a state is final.
func (s JobState) Terminal() bool {
	return s == StateDone || s == StateFailed || s == StateCanceled
}

// valid reports whether s is a known state (used when loading job records
// a hostile or future process may have written).
func (s JobState) valid() bool { return slices.Contains(allStates, s) }

// allStates is every state in lifecycle order (the /varz jobs_<state>
// gauge set).
var allStates = []JobState{StateQueued, StateRunning, StateDone, StateFailed, StateCanceled}

// JobRequest is the body of POST /v1/repairs. Exactly one of Builtin and
// Case selects the repair problem.
type JobRequest struct {
	// Builtin names a built-in case: figure2, figure2-repaired, dcn4, wan.
	Builtin string `json:"builtin,omitempty"`
	// Case uploads a user case (the caseio text formats).
	Case *caseio.Upload `json:"case,omitempty"`
	// Priority orders the queue: higher runs sooner; ties run FIFO.
	Priority int `json:"priority,omitempty"`
	// Seed is the engine's random seed (the same seed reproduces the same
	// repair, interrupted or not).
	Seed int64 `json:"seed,omitempty"`
	// Strategy is "evolutionary" (default) or "bruteforce".
	Strategy string `json:"strategy,omitempty"`
	// MaxIterations caps the search (0 = the paper's default, 500).
	MaxIterations int `json:"maxIterations,omitempty"`
	// TimeoutSeconds bounds the job's wall clock (0 = unlimited). A
	// resumed job gets a fresh budget: the deadline bounds one attempt,
	// not the job's lifetime (deadlines are excluded from the search
	// digest for exactly this reason).
	TimeoutSeconds float64 `json:"timeoutSeconds,omitempty"`
}

// Options converts the request's engine knobs to core.Options, and
// TimeoutSeconds to the job's wall-clock budget (0 = unlimited), which the
// worker applies to the run's context. This is the one place the seconds
// become a time.Duration: a negative value, or one whose nanoseconds
// overflow an int64, is refused.
func (r *JobRequest) Options() (core.Options, time.Duration, error) {
	opts := core.Options{Seed: r.Seed, MaxIterations: r.MaxIterations}
	if r.Strategy != "" { // "" keeps the zero value, Evolutionary
		s, err := core.ParseStrategy(r.Strategy)
		if err != nil {
			return opts, 0, err
		}
		opts.Strategy = s
	}
	// float64(math.MaxInt64) rounds up to 2^63, so ">=" is the overflow
	// test; the negated form also refuses NaN.
	ns := r.TimeoutSeconds * float64(time.Second)
	if !(ns >= 0 && ns < math.MaxInt64) {
		return opts, 0, fmt.Errorf("timeoutSeconds %g out of range [0, %g)", r.TimeoutSeconds, math.MaxInt64/float64(time.Second))
	}
	return opts, time.Duration(ns), nil
}

// Job is the wire (and on-disk) form of one repair job: GET
// /v1/repairs/{id} returns it, each transition appends it to the job's
// journal file, and a reboot rebuilds its world from the last in each.
type Job struct {
	ID       string   `json:"id"`
	Seq      int      `json:"seq"`
	State    JobState `json:"state"`
	Priority int      `json:"priority,omitempty"`
	// Case is the case name (builtin name or the upload's name).
	Case    string `json:"case"`
	Builtin string `json:"builtin,omitempty"`
	Seed    int64  `json:"seed"`
	// Strategy, MaxIterations, TimeoutSeconds echo the request.
	Strategy       string  `json:"strategy,omitempty"`
	MaxIterations  int     `json:"maxIterations,omitempty"`
	TimeoutSeconds float64 `json:"timeoutSeconds,omitempty"`
	// Attempts counts times a worker picked the job up (1 for a job that
	// ran once; higher after crash- or drain-resumes).
	Attempts int `json:"attempts,omitempty"`
	// Resumed reports that the latest attempt restored engine state from
	// the job's journal instead of starting from scratch.
	Resumed bool `json:"resumed,omitempty"`
	// Error explains a failed or canceled job.
	Error string `json:"error,omitempty"`
	// Result is present once the engine produced one (state done, or
	// canceled mid-run with best-effort progress).
	Result *ResultJSON `json:"result,omitempty"`
}

// ResultJSON is the machine-readable form of core.Result — shared verbatim
// by the service API and `acr repair -o json`, so scripts parse one schema
// no matter which front end ran the repair. Configurations are rendered as
// text; CanonicalSHA256 digests Result.Canonical() so two runs can be
// compared for byte-identity without shipping the whole canonical string.
type ResultJSON struct {
	Feasible    bool   `json:"feasible"`
	Termination string `json:"termination"`
	// Outcome and ExitCode are the exit-code-equivalent classification
	// (the same table `acr repair` exits with; see ExitCode).
	Outcome  string `json:"outcome"`
	ExitCode int    `json:"exitCode"`

	Iterations  int `json:"iterations"`
	BaseFailing int `json:"baseFailing"`

	// Counters are the engine's work counters under their checkpoint keys
	// (encoding/json flattens the embedded struct).
	journal.Counters
	StaticDiagnostics int `json:"staticDiagnostics,omitempty"`
	PriorSeededLines  int `json:"priorSeededLines,omitempty"`
	StoreHits         int `json:"storeHits,omitempty"`
	StoreMisses       int `json:"storeMisses,omitempty"`
	StoreCorrupt      int `json:"storeCorrupt,omitempty"`

	Applied []string `json:"applied,omitempty"`
	Diffs   []string `json:"diffs,omitempty"`
	// Configs is the repaired configuration text per device when feasible.
	Configs map[string]string `json:"configs,omitempty"`

	Improved          bool     `json:"improved"`
	BestEffortFitness int      `json:"bestEffortFitness"`
	BestEffortApplied []string `json:"bestEffortApplied,omitempty"`

	Resumed     bool     `json:"resumed,omitempty"`
	ResumedFrom int      `json:"resumedFrom,omitempty"`
	Errors      []string `json:"errors,omitempty"`

	WallClockSeconds float64 `json:"wallClockSeconds"`
	CanonicalSHA256  string  `json:"canonicalSha256"`
}

// NewResultJSON converts an engine result to the wire form.
func NewResultJSON(res *core.Result) *ResultJSON {
	sum := sha256.Sum256([]byte(res.Canonical()))
	code := ExitCode(res)
	out := &ResultJSON{
		Feasible:    res.Feasible,
		Termination: res.Termination,
		Outcome:     Outcome(code),
		ExitCode:    code,

		Iterations:  res.Iterations,
		BaseFailing: res.BaseFailing,

		Counters:          res.Counters,
		StaticDiagnostics: res.StaticDiagnostics,
		PriorSeededLines:  res.PriorSeededLines,
		StoreHits:         res.StoreHits,
		StoreMisses:       res.StoreMisses,
		StoreCorrupt:      res.StoreCorrupt,

		Applied: res.Applied,
		Diffs:   res.Diffs,

		Improved:          res.Improved,
		BestEffortFitness: res.BestEffortFitness,
		BestEffortApplied: res.BestEffortApplied,

		Resumed:     res.Resumed,
		ResumedFrom: res.ResumedFrom,

		WallClockSeconds: res.WallClock.Seconds(),
		CanonicalSHA256:  hex.EncodeToString(sum[:]),
	}
	if res.Feasible && res.FinalConfigs != nil {
		out.Configs = map[string]string{}
		for d, c := range res.FinalConfigs {
			out.Configs[d] = c.Text()
		}
	}
	for _, e := range res.Errors {
		out.Errors = append(out.Errors, e.Error())
	}
	return out
}

// Exit-code-equivalent classification of a repair result, shared by
// `acr repair` (process exit code) and the service API (ResultJSON).
const (
	ExitFeasible        = 0 // all intents pass on the repaired configs
	ExitImproved        = 2 // infeasible, but the best-effort repair fixes some intents
	ExitNoProgress      = 3 // infeasible and nothing improved
	ExitDeadline        = 4 // the run was cut short by a deadline or cancellation
	ExitResumedFeasible = 5 // feasible, and the run resumed a crashed session
)

// ExitCode maps a repair result to its exit-code-equivalent class. A
// deadline/cancellation outranks "improved": a truncated run is a
// different operational condition than a completed-but-stuck one, and
// callers that care about partial progress can read Improved. A feasible
// run that recovered a crashed session classifies as ExitResumedFeasible
// so recovery tooling can tell "repaired after a crash" from "repaired in
// one run".
func ExitCode(res *core.Result) int {
	switch {
	case res.Feasible && res.Resumed:
		return ExitResumedFeasible
	case res.Feasible:
		return ExitFeasible
	case res.Termination == "deadline" || res.Termination == "canceled":
		return ExitDeadline
	case res.Improved:
		return ExitImproved
	default:
		return ExitNoProgress
	}
}

// outcomes names the exit-code classes.
var outcomes = map[int]string{ExitFeasible: "feasible", ExitImproved: "improved",
	ExitNoProgress: "no-progress", ExitDeadline: "deadline", ExitResumedFeasible: "feasible-after-resume"}

// Outcome names an exit-code class for humans and JSON.
func Outcome(code int) string {
	if name, ok := outcomes[code]; ok {
		return name
	}
	return fmt.Sprintf("exit-%d", code)
}

// Event is one server-sent event on GET /v1/repairs/{id}/events: a state
// transition or an engine progress record mirrored off the job's journal
// stream. Seq is per-job and strictly increasing; SSE clients use it as
// the event id for Last-Event-ID reconnection.
type Event struct {
	Seq  int    `json:"seq"`
	Type string `json:"type"` // "state", "candidate", "iteration", "checkpoint"
	// State is set on "state" events.
	State JobState `json:"state,omitempty"`
	// Error explains failed/canceled state events.
	Error string `json:"error,omitempty"`
	// Iteration and Fitness are set on engine progress events.
	Iteration int `json:"iteration,omitempty"`
	Fitness   int `json:"fitness,omitempty"`
	// Desc is the candidate description on "candidate" events.
	Desc string `json:"desc,omitempty"`
}
