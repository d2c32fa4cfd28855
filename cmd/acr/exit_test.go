package main

import (
	"errors"
	"net"
	"os"
	"path/filepath"
	"testing"

	"acr/internal/core"
)

func TestRepairExitCode(t *testing.T) {
	cases := []struct {
		name string
		res  core.Result
		want int
	}{
		{"feasible", core.Result{Feasible: true, Termination: "feasible"}, exitFeasible},
		{"feasible after resume", core.Result{Feasible: true, Termination: "feasible", Resumed: true}, exitResumed},
		{"resumed but infeasible", core.Result{Termination: "exhausted", Resumed: true, Improved: true}, exitImproved},
		{"improved but exhausted", core.Result{Termination: "exhausted", Improved: true}, exitImproved},
		{"improved but iteration-capped", core.Result{Termination: "iteration-cap", Improved: true}, exitImproved},
		{"no progress, exhausted", core.Result{Termination: "exhausted"}, exitNoProgress},
		{"no progress, iteration-capped", core.Result{Termination: "iteration-cap"}, exitNoProgress},
		{"deadline with no progress", core.Result{Termination: "deadline"}, exitDeadline},
		{"deadline outranks improved", core.Result{Termination: "deadline", Improved: true}, exitDeadline},
		{"canceled", core.Result{Termination: "canceled"}, exitDeadline},
		{"canceled outranks improved", core.Result{Termination: "canceled", Improved: true}, exitDeadline},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			if got := repairExitCode(&tc.res); got != tc.want {
				t.Errorf("repairExitCode(%+v) = %d, want %d", tc.res, got, tc.want)
			}
		})
	}
}

// serveExitCode runs runServe on a failing configuration and extracts the
// exitError code (0 = no exitError). Only startup-failure paths return
// from runServe, so these tests never block on a serving daemon.
func serveExitCode(t *testing.T, args []string) int {
	t.Helper()
	err := runServe(args)
	if err == nil {
		t.Fatalf("runServe(%v) succeeded, want startup failure", args)
	}
	var ee *exitError
	if !errors.As(err, &ee) {
		return 0
	}
	return ee.code
}

func TestServeStartupExitCodes(t *testing.T) {
	t.Run("state dir is a file", func(t *testing.T) {
		f := filepath.Join(t.TempDir(), "state")
		if err := os.WriteFile(f, []byte("not a dir"), 0o644); err != nil {
			t.Fatal(err)
		}
		if got := serveExitCode(t, []string{"-state-dir", f}); got != exitServeState {
			t.Errorf("exit code = %d, want %d (exitServeState)", got, exitServeState)
		}
	})
	t.Run("bind conflict", func(t *testing.T) {
		ln, err := net.Listen("tcp", "127.0.0.1:0")
		if err != nil {
			t.Fatal(err)
		}
		defer ln.Close()
		args := []string{"-state-dir", t.TempDir(), "-addr", ln.Addr().String()}
		if got := serveExitCode(t, args); got != exitServeBind {
			t.Errorf("exit code = %d, want %d (exitServeBind)", got, exitServeBind)
		}
	})
	t.Run("debug bind conflict", func(t *testing.T) {
		ln, err := net.Listen("tcp", "127.0.0.1:0")
		if err != nil {
			t.Fatal(err)
		}
		defer ln.Close()
		args := []string{"-state-dir", t.TempDir(), "-debug-addr", ln.Addr().String()}
		if got := serveExitCode(t, args); got != exitServeBind {
			t.Errorf("exit code = %d, want %d (exitServeBind)", got, exitServeBind)
		}
	})
}
