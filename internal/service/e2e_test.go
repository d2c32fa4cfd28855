package service_test

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net"
	"net/http"
	"os"
	"os/exec"
	"path/filepath"
	"strconv"
	"syscall"
	"testing"
	"time"

	"acr/internal/caseio"
	"acr/internal/chaos"
	"acr/internal/core"
	"acr/internal/journal"
	"acr/internal/scenario"
	"acr/internal/service"
)

// TestMain doubles as the daemon for the SIGKILL end-to-end test: when
// re-exec'd with ACR_SERVICE_DAEMON=1 the test binary runs `acr serve`'s
// engine room (service.New + Start + HTTP) instead of the tests, so the
// e2e test can kill and reboot a real process.
func TestMain(m *testing.M) {
	if os.Getenv("ACR_SERVICE_DAEMON") == "1" {
		if err := runDaemon(); err != nil {
			fmt.Fprintln(os.Stderr, "daemon:", err)
			os.Exit(1)
		}
		os.Exit(0)
	}
	os.Exit(m.Run())
}

func runDaemon() error {
	stateDir := os.Getenv("ACR_SERVICE_STATE")
	killAfter, _ := strconv.Atoi(os.Getenv("ACR_SERVICE_KILL_AFTER"))
	holdFile := os.Getenv("ACR_SERVICE_HOLD")
	cfg := service.Config{StateDir: stateDir, Workers: 2}
	var hooks []journal.AppendHook
	if holdFile != "" {
		// Hold every append until the parent says go, so it can finish
		// submitting jobs before the kill switch can possibly fire.
		hooks = append(hooks, func(int, *journal.Record) error {
			for {
				if _, err := os.Stat(holdFile); err == nil {
					return nil
				}
				time.Sleep(5 * time.Millisecond)
			}
		})
	}
	if killAfter > 0 {
		hooks = append(hooks, chaos.NewKillSwitch(killAfter).Hook)
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
		return err
	}
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return err
	}
	// Publish the address with a rename, so the parent never reads it
	// half-written.
	addr := filepath.Join(stateDir, "addr")
	if err := os.WriteFile(addr+".tmp", []byte(ln.Addr().String()), 0o644); err != nil {
		return err
	}
	if err := os.Rename(addr+".tmp", addr); err != nil {
		return err
	}
	srv.Start()
	return http.Serve(ln, srv.Handler())
}

// startDaemon re-execs the test binary as a repair daemon on stateDir and
// waits for it to publish its listen address.
func startDaemon(t *testing.T, stateDir string, killAfter int, holdFile string) (*exec.Cmd, string) {
	t.Helper()
	os.Remove(filepath.Join(stateDir, "addr"))
	cmd := exec.Command(os.Args[0], "-test.run=^$")
	cmd.Env = append(os.Environ(),
		"ACR_SERVICE_DAEMON=1",
		"ACR_SERVICE_STATE="+stateDir,
		"ACR_SERVICE_KILL_AFTER="+strconv.Itoa(killAfter),
		"ACR_SERVICE_HOLD="+holdFile,
	)
	cmd.Stdout = os.Stderr
	cmd.Stderr = os.Stderr
	if err := cmd.Start(); err != nil {
		t.Fatalf("start daemon: %v", err)
	}
	addrPath := filepath.Join(stateDir, "addr")
	deadline := time.Now().Add(30 * time.Second)
	for time.Now().Before(deadline) {
		if data, err := os.ReadFile(addrPath); err == nil && len(data) > 0 {
			return cmd, string(data)
		}
		time.Sleep(10 * time.Millisecond)
	}
	cmd.Process.Kill()
	t.Fatal("daemon never published its address")
	return nil, ""
}

func postJob(t *testing.T, addr string, req service.JobRequest) service.Job {
	t.Helper()
	body, _ := json.Marshal(req)
	var lastErr error
	for attempt := 0; attempt < 50; attempt++ {
		resp, err := http.Post("http://"+addr+"/v1/repairs", "application/json", bytes.NewReader(body))
		if err != nil {
			// The daemon publishes its address just before Serve; retry
			// through the window.
			lastErr = err
			time.Sleep(20 * time.Millisecond)
			continue
		}
		defer resp.Body.Close()
		if resp.StatusCode != http.StatusAccepted {
			data, _ := io.ReadAll(resp.Body)
			t.Fatalf("POST = %d: %s", resp.StatusCode, data)
		}
		var job service.Job
		if err := json.NewDecoder(resp.Body).Decode(&job); err != nil {
			t.Fatalf("decode: %v", err)
		}
		return job
	}
	t.Fatalf("POST never reached daemon: %v", lastErr)
	return service.Job{}
}

// TestDaemonSIGKILLResume is the acceptance-criteria end-to-end: a daemon
// with three in-flight jobs is SIGKILLed mid-run, restarted on the same
// state directory, and every job must reach a terminal state with a
// result byte-identical (canonical SHA-256) to an uninterrupted run.
func TestDaemonSIGKILLResume(t *testing.T) {
	if testing.Short() {
		t.Skip("re-execs the test binary; skipped in -short")
	}
	seeds := []int64{1, 2, 3}
	// Seed 3 travels as an uploaded case, so the reboot re-materializes it
	// from the job's first record; the other two are rebuilt builtins.
	request := func(seed int64) service.JobRequest {
		if seed == 3 {
			u := caseio.ToUpload(scenario.Figure2())
			return service.JobRequest{Case: &u, Seed: seed}
		}
		return service.JobRequest{Builtin: "figure2", Seed: seed}
	}

	// Uninterrupted reference runs, in-process, no journal: the engine is
	// deterministic, so these are the ground truth the crashed-and-resumed
	// daemon must reproduce byte for byte.
	expected := map[int64]string{}
	for _, seed := range seeds {
		req := request(seed)
		opts, _, err := req.Options()
		if err != nil {
			t.Fatal(err)
		}
		sc := scenario.Figure2()
		p := core.Problem{Topo: sc.Topo, Configs: sc.Configs, Intents: sc.Intents}
		res := core.RepairContext(context.Background(), p, opts)
		if !res.Feasible {
			t.Fatalf("reference run seed %d infeasible", seed)
		}
		expected[seed] = service.NewResultJSON(res).CanonicalSHA256
	}

	stateDir := t.TempDir()
	holdFile := filepath.Join(t.TempDir(), "go")

	// Boot 1: armed to SIGKILL itself after 6 journal appends across the
	// pool — mid-run for at least one job.
	cmd1, addr1 := startDaemon(t, stateDir, 6, holdFile)
	ids := map[int64]string{}
	for _, seed := range seeds {
		job := postJob(t, addr1, request(seed))
		ids[seed] = job.ID
	}
	if err := os.WriteFile(holdFile, []byte("go"), 0o644); err != nil {
		t.Fatal(err)
	}
	err := cmd1.Wait()
	if err == nil {
		t.Fatal("daemon exited cleanly; expected SIGKILL")
	}
	if ws, ok := cmd1.ProcessState.Sys().(syscall.WaitStatus); ok {
		if !ws.Signaled() || ws.Signal() != syscall.SIGKILL {
			t.Fatalf("daemon died with %v, want SIGKILL", ws)
		}
	}

	// Boot 2: same state directory, no kill switch. The daemon requeues
	// every non-terminal job and resumes the journaled ones.
	cmd2, addr2 := startDaemon(t, stateDir, 0, "")
	defer cmd2.Process.Kill()

	deadline := time.Now().Add(120 * time.Second)
	final := map[int64]service.Job{}
	for len(final) < len(seeds) && time.Now().Before(deadline) {
		for _, seed := range seeds {
			if _, ok := final[seed]; ok {
				continue
			}
			resp, err := http.Get("http://" + addr2 + "/v1/repairs/" + ids[seed])
			if err != nil {
				break
			}
			var job service.Job
			err = json.NewDecoder(resp.Body).Decode(&job)
			resp.Body.Close()
			if err == nil && job.State.Terminal() {
				final[seed] = job
			}
		}
		time.Sleep(50 * time.Millisecond)
	}
	if len(final) < len(seeds) {
		t.Fatalf("only %d/%d jobs terminal after restart", len(final), len(seeds))
	}

	retried := 0
	for _, seed := range seeds {
		job := final[seed]
		if job.State != service.StateDone {
			t.Errorf("seed %d: state = %s (error %q), want done", seed, job.State, job.Error)
			continue
		}
		if job.Result == nil {
			t.Errorf("seed %d: no result", seed)
			continue
		}
		if job.Result.CanonicalSHA256 != expected[seed] {
			t.Errorf("seed %d: canonical sha %s != uninterrupted %s",
				seed, job.Result.CanonicalSHA256, expected[seed])
		}
		if job.Attempts > 1 {
			retried++
		}
		// Job-level Resumed means the engine restored a checkpoint, which
		// the exit-code classification must agree with.
		want := service.ExitFeasible
		if job.Resumed {
			want = service.ExitResumedFeasible
		}
		if job.Result.ExitCode != want {
			t.Errorf("seed %d: exit code %d (resumed=%v), want %d",
				seed, job.Result.ExitCode, job.Resumed, want)
		}
	}
	// The kill landed after appends had started, so at least one job was
	// mid-run and must have been picked up again after the reboot.
	if retried == 0 {
		t.Error("no job was re-attempted after the SIGKILL")
	}
}
