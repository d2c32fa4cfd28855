package main

import (
	"context"
	"flag"
	"fmt"
	"net"
	"net/http"
	_ "net/http/pprof" // registers /debug/pprof on DefaultServeMux for -debug-addr
	"os"
	"os/signal"
	"path/filepath"
	"syscall"
	"time"

	"acr/internal/chaos"
	"acr/internal/journal"
	"acr/internal/service"
)

// runServe starts the repair daemon: an HTTP/JSON API over a bounded
// worker pool, persisting every job under -state-dir with the crash-safe
// session journal. A SIGKILL'd daemon restarted on the same state
// directory resumes its in-flight jobs from their last checkpoints;
// SIGINT/SIGTERM drain gracefully (running jobs checkpoint and return to
// "queued" for the next boot).
func runServe(args []string) error {
	fs := flag.NewFlagSet("serve", flag.ExitOnError)
	addr := fs.String("addr", "127.0.0.1:7365", "listen address")
	stateDir := fs.String("state-dir", "", "job persistence directory (required)")
	workers := fs.Int("workers", 2, "worker-pool size")
	queueCap := fs.Int("queue-cap", service.DefaultQueueCap, "queued-job cap; a full queue answers 429")
	debugAddr := fs.String("debug-addr", "", "serve net/http/pprof on this address (e.g. 127.0.0.1:6060; empty = off)")
	drainTimeout := fs.Duration("drain-timeout", 30*time.Second, "graceful-shutdown budget before hard cancel")
	killAfter := fs.Int("kill-after-appends", 0, "testing hook: SIGKILL the daemon after N journal appends across all jobs")
	holdUntil := fs.String("hold-until", "", "testing hook: block journal appends until this file exists")
	cacheDir := fs.String("cache-dir", "", "persistent evaluation store directory (default <state-dir>/evalstore; \"none\" disables)")
	cacheMax := fs.Int64("cache-max-bytes", 0, "persistent store byte budget (0 = 256 MiB)")
	fs.Parse(args)
	if *stateDir == "" {
		return fmt.Errorf("serve requires -state-dir")
	}
	// Probe the state dir up front so a bad unit file fails fast with a
	// distinct code instead of a generic error from deep in the store.
	if err := os.MkdirAll(*stateDir, 0o755); err != nil {
		return &exitError{exitServeState, fmt.Errorf("state dir: %w", err)}
	}
	cfg := service.Config{StateDir: *stateDir, Workers: *workers, QueueCap: *queueCap}
	switch *cacheDir {
	case "none":
	case "":
		cfg.CacheDir = filepath.Join(*stateDir, "evalstore")
	default:
		cfg.CacheDir = *cacheDir
	}
	cfg.CacheMaxBytes = *cacheMax
	var hooks []journal.AppendHook
	if *holdUntil != "" {
		// Crash tests submit a batch and then release it, so the kill
		// switch below cannot fire before the batch is fully submitted.
		hold := *holdUntil
		hooks = append(hooks, func(int, *journal.Record) error {
			for {
				if _, err := os.Stat(hold); err == nil {
					return nil
				}
				time.Sleep(5 * time.Millisecond)
			}
		})
	}
	if *killAfter > 0 {
		hooks = append(hooks, chaos.NewKillSwitch(*killAfter).Hook)
	}
	if len(hooks) > 0 {
		cfg.JournalHook = func(n int, rec *journal.Record) error {
			for _, h := range hooks {
				if err := h(n, rec); err != nil {
					return err
				}
			}
			return nil
		}
	}
	srv, err := service.New(cfg)
	if err != nil {
		return &exitError{exitServeState, err}
	}
	if *debugAddr != "" {
		// The pprof import registers its handlers on http.DefaultServeMux;
		// serving that mux on a separate listener keeps profiling endpoints
		// off the API address. Anything other than loopback exposes heap and
		// goroutine dumps to the network, so warn rather than refuse.
		if host, _, err := net.SplitHostPort(*debugAddr); err != nil || !isLoopbackHost(host) {
			fmt.Fprintf(os.Stderr, "acr: warning: -debug-addr %s is not loopback; pprof exposes process internals\n", *debugAddr)
		}
		dln, err := net.Listen("tcp", *debugAddr)
		if err != nil {
			return &exitError{exitServeBind, fmt.Errorf("debug listener: %w", err)}
		}
		fmt.Printf("acr: pprof on http://%s/debug/pprof/\n", dln.Addr())
		go http.Serve(dln, nil)
	}
	ln, err := net.Listen("tcp", *addr)
	if err != nil {
		return &exitError{exitServeBind, fmt.Errorf("listen %s: %w", *addr, err)}
	}
	srv.Start()
	httpSrv := &http.Server{Handler: srv.Handler()}
	fmt.Printf("acr: serving on http://%s (state %s, %d workers)\n", ln.Addr(), *stateDir, *workers)

	errc := make(chan error, 1)
	go func() { errc <- httpSrv.Serve(ln) }()
	sigc := make(chan os.Signal, 1)
	signal.Notify(sigc, syscall.SIGINT, syscall.SIGTERM)
	select {
	case err := <-errc:
		return err
	case sig := <-sigc:
		fmt.Fprintf(os.Stderr, "acr: %s: draining (budget %s)\n", sig, *drainTimeout)
	}
	ctx, cancel := context.WithTimeout(context.Background(), *drainTimeout)
	defer cancel()
	httpSrv.Shutdown(ctx)
	if err := srv.Shutdown(ctx); err != nil {
		fmt.Fprintf(os.Stderr, "acr: drain incomplete: %v (journals remain resumable)\n", err)
	}
	return nil
}

// isLoopbackHost reports whether host names or addresses the loopback
// interface (used to warn when -debug-addr would expose pprof).
func isLoopbackHost(host string) bool {
	if host == "localhost" {
		return true
	}
	ip := net.ParseIP(host)
	return ip != nil && ip.IsLoopback()
}
