package evalstore_test

import (
	"context"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"os"
	"os/exec"
	"testing"

	"acr/internal/core"
	"acr/internal/evalstore"
	"acr/internal/scenario"
)

// TestMain doubles as a repair worker process: re-exec'd with
// ACR_EVALSTORE_WORKER=1 the test binary runs one full repair over the
// store directory named by ACR_EVALSTORE_DIR — a stand-in for a concurrent
// `acr repair -cache-dir` invocation — so the multi-process sharing test
// exercises real cross-process file and flock traffic.
func TestMain(m *testing.M) {
	if os.Getenv("ACR_EVALSTORE_WORKER") == "1" {
		if err := runWorker(); err != nil {
			fmt.Fprintln(os.Stderr, "worker:", err)
			os.Exit(1)
		}
		os.Exit(0)
	}
	os.Exit(m.Run())
}

// workerReport is what each re-exec'd repair prints on stdout.
type workerReport struct {
	CanonicalSHA256 string `json:"canonicalSha256"`
	StoreHits       int    `json:"storeHits"`
	StoreMisses     int    `json:"storeMisses"`
	StoreCorrupt    int    `json:"storeCorrupt"`
	PrefixSims      int    `json:"prefixSimulations"`
	Feasible        bool   `json:"feasible"`
}

func runWorker() error {
	st, err := evalstore.Open(os.Getenv("ACR_EVALSTORE_DIR"), 0)
	if err != nil {
		return err
	}
	defer st.Close()
	s := scenario.Figure2()
	p := core.Problem{Topo: s.Topo, Configs: s.Configs, Intents: s.Intents}
	res := core.RepairContext(context.Background(), p,
		core.Options{Strategy: core.BruteForce, Store: st})
	sum := sha256.Sum256([]byte(res.Canonical()))
	return json.NewEncoder(os.Stdout).Encode(workerReport{
		CanonicalSHA256: hex.EncodeToString(sum[:]),
		StoreHits:       res.StoreHits,
		StoreMisses:     res.StoreMisses,
		StoreCorrupt:    res.StoreCorrupt,
		PrefixSims:      res.PrefixSimulations,
		Feasible:        res.Feasible,
	})
}

// TestMultiProcessStoreSharing runs two concurrent repair *processes* over
// one store directory — the `two acr repair -cache-dir <same>` scenario.
// Neither may observe a torn entry (StoreCorrupt must stay 0: every read
// either verifies or misses), both must land the byte-identical result,
// and once the dust settles the store holds the full evaluation set: a
// third run simulates nothing.
func TestMultiProcessStoreSharing(t *testing.T) {
	if testing.Short() {
		t.Skip("multi-process; skipped in -short")
	}
	dir := t.TempDir()
	exe, err := os.Executable()
	if err != nil {
		t.Fatal(err)
	}
	type procResult struct {
		rep workerReport
		err error
	}
	results := make(chan procResult, 2)
	for i := 0; i < 2; i++ {
		go func() {
			cmd := exec.Command(exe)
			cmd.Env = append(os.Environ(),
				"ACR_EVALSTORE_WORKER=1", "ACR_EVALSTORE_DIR="+dir)
			out, err := cmd.Output()
			if err != nil {
				results <- procResult{err: fmt.Errorf("worker: %v (%s)", err, out)}
				return
			}
			var rep workerReport
			if err := json.Unmarshal(out, &rep); err != nil {
				results <- procResult{err: fmt.Errorf("bad worker output %q: %v", out, err)}
				return
			}
			results <- procResult{rep: rep}
		}()
	}
	var reps []workerReport
	for i := 0; i < 2; i++ {
		r := <-results
		if r.err != nil {
			t.Fatal(r.err)
		}
		reps = append(reps, r.rep)
	}
	for i, r := range reps {
		if !r.Feasible {
			t.Fatalf("worker %d infeasible: %+v", i, r)
		}
		if r.StoreCorrupt != 0 {
			t.Fatalf("worker %d read a torn or corrupt entry: %+v", i, r)
		}
	}
	if reps[0].CanonicalSHA256 != reps[1].CanonicalSHA256 {
		t.Fatalf("concurrent processes diverged: %s vs %s",
			reps[0].CanonicalSHA256, reps[1].CanonicalSHA256)
	}

	// Settle check: the surviving store answers everything — no process
	// double-simulates from here on.
	st, err := evalstore.Open(dir, 0)
	if err != nil {
		t.Fatal(err)
	}
	defer st.Close()
	s := scenario.Figure2()
	p := core.Problem{Topo: s.Topo, Configs: s.Configs, Intents: s.Intents}
	res := core.RepairContext(context.Background(), p,
		core.Options{Strategy: core.BruteForce, Store: st})
	if res.StoreMisses != 0 || res.PrefixSimulations != 0 {
		t.Fatalf("settled store still missed: misses=%d prefixSims=%d",
			res.StoreMisses, res.PrefixSimulations)
	}
	sum := sha256.Sum256([]byte(res.Canonical()))
	if got := hex.EncodeToString(sum[:]); got != reps[0].CanonicalSHA256 {
		t.Fatalf("settled run diverged: %s vs %s", got, reps[0].CanonicalSHA256)
	}
}
