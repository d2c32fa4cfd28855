package main

import (
	"fmt"

	"acr/internal/core"
	"acr/internal/service"
)

// Exit codes for `acr repair`, so scripts can branch on the outcome
// without parsing the report. The classification lives in
// internal/service (service.ExitCode): the daemon's API reports the same
// codes in ResultJSON.ExitCode, so a result means the same thing whether
// the CLI or the service produced it.
const (
	exitFeasible   = service.ExitFeasible        // all intents pass on the repaired configs
	exitImproved   = service.ExitImproved        // infeasible, but the best-effort repair fixes some intents
	exitNoProgress = service.ExitNoProgress      // infeasible and nothing improved
	exitDeadline   = service.ExitDeadline        // the run was cut short by a deadline or cancellation
	exitResumed    = service.ExitResumedFeasible // feasible, and the run resumed a crashed session (-resume)
)

// repairExitCode maps a repair result to the process exit code.
func repairExitCode(res *core.Result) int {
	return service.ExitCode(res)
}

// Exit codes for `acr serve` startup failures, so a supervisor can tell a
// misconfigured node (do not restart, fix the unit file) from a transient
// one (restart may help) without parsing stderr. They sit above the repair
// outcome codes (0-5). Code 8 is retired, not free: it meant a rejected
// multi-node configuration, and a supervisor written against it must never
// see it mean something else.
const (
	exitServeState = 6 // -state-dir unusable (missing parent, not a directory, unwritable)
	exitServeBind  = 7 // listen address unavailable (-addr or -debug-addr)
)

// exitError carries a specific process exit code up through main's single
// error path, with an optional one-line diagnostic (nil err: main prints
// nothing).
type exitError struct {
	code int
	err  error
}

func (e *exitError) Error() string {
	if e.err == nil {
		return fmt.Sprintf("exit status %d", e.code)
	}
	return e.err.Error()
}
func (e *exitError) Unwrap() error { return e.err }
