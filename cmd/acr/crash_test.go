package main

import (
	"bytes"
	"encoding/json"
	"errors"
	"maps"
	"os"
	"os/exec"
	"path/filepath"
	"strconv"
	"strings"
	"syscall"
	"testing"

	"acr"
	"acr/internal/caseio"
	"acr/internal/chaos"
	"acr/internal/incidents"
)

// TestMain doubles as the acr binary: re-exec'd with ACR_TEST_MAIN=1 the
// test binary runs main on its own arguments instead of the tests, so the
// end-to-end tests can SIGKILL a real acr process and run it again.
// ACR_TEST_CRASH_AFTER=N makes repair SIGKILL itself once N journal
// records are in the WAL.
func TestMain(m *testing.M) {
	if os.Getenv("ACR_TEST_MAIN") == "1" {
		if n, _ := strconv.Atoi(os.Getenv("ACR_TEST_CRASH_AFTER")); n > 0 {
			repairJournalHook = chaos.New(chaos.Plan{CrashAfterAppends: n, CrashKill: true}).JournalHook
		}
		main()
		os.Exit(0)
	}
	os.Exit(m.Run())
}

// runAcr runs acr with args in a re-exec'd test binary, armed to crash
// after crashAfter journal appends (0 = never). It returns stdout and the
// process state.
func runAcr(t *testing.T, crashAfter int, args ...string) ([]byte, *os.ProcessState) {
	t.Helper()
	cmd := exec.Command(os.Args[0], args...)
	cmd.Env = append(os.Environ(), "ACR_TEST_MAIN=1", "ACR_TEST_CRASH_AFTER="+strconv.Itoa(crashAfter))
	var stdout bytes.Buffer
	cmd.Stdout = &stdout
	cmd.Stderr = os.Stderr
	var ee *exec.ExitError
	if err := cmd.Run(); err != nil && !errors.As(err, &ee) {
		t.Fatalf("acr %s: %v", strings.Join(args, " "), err)
	}
	return stdout.Bytes(), cmd.ProcessState
}

// onlyWAL fails unless the session directory holds wal.log alone, non-empty.
func onlyWAL(t *testing.T, dir string) {
	t.Helper()
	entries, err := os.ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	if len(entries) != 1 || entries[0].Name() != "wal.log" {
		t.Fatalf("session directory holds %v, want wal.log alone", entries)
	}
	if fi, err := os.Stat(filepath.Join(dir, "wal.log")); err != nil || fi.Size() == 0 {
		t.Fatalf("wal.log is empty or unreadable (%v)", err)
	}
}

// TestRepairResumeRefusals: `acr repair -journal d -resume` refuses a
// session that already completed and one journaled under another -seed.
// Each refusal exits 1 and leaves the WAL byte for byte as it was.
func TestRepairResumeRefusals(t *testing.T) {
	if testing.Short() {
		t.Skip("re-execs the test binary; skipped in -short")
	}
	tmp := t.TempDir()
	done, crashed := filepath.Join(tmp, "done"), filepath.Join(tmp, "crashed")
	run := []string{"repair", "-builtin", "figure2", "-seed", "1"}
	if _, ps := runAcr(t, 0, append(run, "-journal", done)...); ps.ExitCode() != exitFeasible {
		t.Fatalf("journaled run exited %d, want %d", ps.ExitCode(), exitFeasible)
	}
	if _, ps := runAcr(t, 3, append(run, "-journal", crashed)...); !ps.Sys().(syscall.WaitStatus).Signaled() {
		t.Fatalf("crashing run ended with %v, want SIGKILL", ps)
	}
	for _, tc := range []struct {
		name, dir string
		args      []string
	}{
		{"completed", done, run},
		{"other seed", crashed, []string{"repair", "-builtin", "figure2", "-seed", "2"}},
	} {
		wal := filepath.Join(tc.dir, "wal.log")
		before, err := os.ReadFile(wal)
		if err != nil {
			t.Fatal(err)
		}
		out, ps := runAcr(t, 0, append(tc.args, "-journal", tc.dir, "-resume")...)
		if ps.ExitCode() != 1 {
			t.Errorf("%s: -resume exited %d, want 1:\n%s", tc.name, ps.ExitCode(), out)
		}
		if after, err := os.ReadFile(wal); err != nil || !bytes.Equal(after, before) {
			t.Errorf("%s: the refused resume changed the WAL (%d bytes before, %d after, err %v)", tc.name, len(before), len(after), err)
		}
	}
}

// TestRepairSIGKILLResume kills `acr repair -journal` mid-search, resumes
// the session with -resume, and requires the result of an uninterrupted
// run: the same canonical SHA-256, work counters and repaired configs.
// The case is the four-fault stack of the seed-3, 24-incident corpus
// (incidents.Stack): its search fixes one fault per iteration over four
// and checkpoints its first iteration at append 11 and its second at 35,
// so a crash after 28 appends lands after a non-base checkpoint.
func TestRepairSIGKILLResume(t *testing.T) {
	if testing.Short() {
		t.Skip("re-execs the test binary; skipped in -short")
	}
	incs, err := acr.GenerateCorpus(acr.CorpusOptions{Size: 24, Seed: 3})
	if err != nil {
		t.Fatal(err)
	}
	stack, err := incidents.Stack(incs, 4)
	if err != nil {
		t.Fatal(err)
	}
	tmp := t.TempDir()
	caseDir, jdir := filepath.Join(tmp, "case"), filepath.Join(tmp, "journal")
	repaired, straight := filepath.Join(tmp, "repaired"), filepath.Join(tmp, "straight")
	if err := caseio.Save(caseDir, stack.Scenario); err != nil {
		t.Fatal(err)
	}
	run := []string{"repair", "-dir", caseDir, "-seed", "7"}

	_, ps := runAcr(t, 28, append(run, "-journal", jdir)...)
	if ws := ps.Sys().(syscall.WaitStatus); !ws.Signaled() || ws.Signal() != syscall.SIGKILL {
		t.Fatalf("crashing run ended with %v, want SIGKILL", ps)
	}
	onlyWAL(t, jdir)

	out, ps := runAcr(t, 0, append(run, "-journal", jdir, "-resume", "-out", repaired, "-o", "json")...)
	if ps.ExitCode() != exitResumed {
		t.Fatalf("resumed run exited %d, want %d:\n%s", ps.ExitCode(), exitResumed, out)
	}
	resumed := decodeResult(t, out)
	// The base checkpoint's counters are all zero: resumedFrom >= 1 means
	// the resume restored a later one.
	code, _ := asInt(resumed["exitCode"])
	from, _ := asInt(resumed["resumedFrom"])
	if resumed["resumed"] != true || code != exitResumed || from < 1 {
		t.Fatalf("resumed result: resumed %v, exitCode %v, resumedFrom %v; want true, 5, >= 1",
			resumed["resumed"], resumed["exitCode"], resumed["resumedFrom"])
	}
	onlyWAL(t, jdir)
	if _, ps := runAcr(t, 0, "verify", "-dir", repaired); ps.ExitCode() != 0 {
		t.Errorf("acr verify on the repaired case exited %d", ps.ExitCode())
	}

	out, ps = runAcr(t, 0, append(run, "-out", straight, "-o", "json")...)
	if ps.ExitCode() != exitFeasible {
		t.Fatalf("uninterrupted run exited %d, want %d:\n%s", ps.ExitCode(), exitFeasible, out)
	}
	want := decodeResult(t, out)
	if iters, _ := asInt(want["iterations"]); iters != 4 {
		t.Errorf("the uninterrupted run searched %v iterations, the crash point assumes 4", want["iterations"])
	}
	if resumed["canonicalSha256"] != want["canonicalSha256"] {
		t.Errorf("canonicalSha256: resumed %v, uninterrupted %v", resumed["canonicalSha256"], want["canonicalSha256"])
	}
	// Every integer counter must match too, including the work counters
	// Canonical() leaves out. exitCode and resumedFrom mark the resume;
	// store* counters are never checkpointed.
	keys := map[string]bool{}
	for _, r := range []map[string]any{want, resumed} {
		for k, v := range r {
			_, isInt := asInt(v)
			keys[k] = keys[k] || isInt && k != "exitCode" && k != "resumedFrom" && !strings.HasPrefix(k, "store")
		}
	}
	for k, counter := range keys {
		w, _ := asInt(want[k])
		g, _ := asInt(resumed[k])
		if counter && w != g {
			t.Errorf("%s: resumed %v, uninterrupted %v", k, resumed[k], want[k])
		}
	}
	sameFiles(t, filepath.Join(straight, "configs"), filepath.Join(repaired, "configs"))
}

// decodeResult decodes a `repair -o json` result, numbers as json.Number.
func decodeResult(t *testing.T, data []byte) map[string]any {
	t.Helper()
	dec := json.NewDecoder(bytes.NewReader(data))
	dec.UseNumber()
	var r map[string]any
	if err := dec.Decode(&r); err != nil {
		t.Fatalf("decode result: %v\n%s", err, data)
	}
	return r
}

// asInt reads v as an integer; ok is false for anything else, absent keys
// included.
func asInt(v any) (n int64, ok bool) {
	num, isNum := v.(json.Number)
	if !isNum {
		return 0, false
	}
	n, err := num.Int64()
	return n, err == nil
}

// sameFiles fails unless the two directories hold the same files with the
// same bytes.
func sameFiles(t *testing.T, wantDir, gotDir string) {
	t.Helper()
	read := func(dir string) map[string]string {
		entries, err := os.ReadDir(dir)
		if err != nil {
			t.Fatal(err)
		}
		files := map[string]string{}
		for _, e := range entries {
			data, err := os.ReadFile(filepath.Join(dir, e.Name()))
			if err != nil {
				t.Fatal(err)
			}
			files[e.Name()] = string(data)
		}
		return files
	}
	if !maps.Equal(read(wantDir), read(gotDir)) {
		t.Errorf("%s differs from %s", gotDir, wantDir)
	}
}
