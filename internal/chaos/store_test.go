package chaos

import (
	"testing"
	"time"

	"acr/internal/core"
	"acr/internal/evalstore"
	"acr/internal/journal"
)

// mustStore opens an evalstore in dir or fails the test.
func mustStore(t *testing.T, dir string, maxBytes int64) *evalstore.Store {
	t.Helper()
	s, err := evalstore.Open(dir, maxBytes)
	if err != nil {
		t.Fatal(err)
	}
	return s
}

// TestStoreFaultMatrixByteIdentity is the tentpole robustness proof: under
// every injected storage fault — read EIO, write EIO, ENOSPC, at-rest bit
// flips, torn tails, slow I/O, and their combination — a repair running
// over the persistent store terminates the same way and renders Canonical()
// output byte-identical to a storeless run. Faults are visible only in the
// store cost counters (StoreMisses, StoreCorrupt) and the injector's own
// stats. Each plan runs twice over one directory: the first run writes
// through the faults, the second reads back whatever survived them.
func TestStoreFaultMatrixByteIdentity(t *testing.T) {
	p := figure2Problem()
	opts := core.Options{Strategy: core.BruteForce}
	baseline := core.Repair(p, opts)
	if !baseline.Feasible {
		t.Fatalf("baseline infeasible: %s", baseline.Summary())
	}
	want := baseline.Canonical()

	plans := []struct {
		name string
		plan StorePlan
		// wantCorrupt: the second (read-back) run must quarantine entries.
		wantCorrupt bool
	}{
		{"read-eio-every-2", StorePlan{ReadErrEveryN: 2}, false},
		{"write-eio-every-2", StorePlan{WriteErrEveryN: 2}, false},
		{"enospc-always", StorePlan{ENOSPCEveryN: 1}, false},
		{"bitflip-every-entry", StorePlan{FlipBitEveryN: 1}, true},
		{"torn-tail-every-2", StorePlan{TornTailEveryN: 2}, true},
		{"slow-io", StorePlan{SlowIO: 50 * time.Microsecond}, false},
		// The combined plan's periods are tuned to the workload: figure2
		// under BruteForce stores only a handful of entries, so every fault
		// class must fire within the first few operations.
		{"combined", StorePlan{ReadErrEveryN: 5, WriteErrEveryN: 3, FlipBitEveryN: 2}, true},
	}
	for _, tc := range plans {
		t.Run(tc.name, func(t *testing.T) {
			dir := t.TempDir()
			inj := NewStore(tc.plan)
			store := inj.Wire(mustStore(t, dir, 0))
			o := opts
			o.Store = store

			first := core.Repair(p, o)
			if got := first.Canonical(); got != want {
				t.Fatalf("write-through run diverges from storeless baseline\n--- want ---\n%s\n--- got ---\n%s", want, got)
			}
			if first.Termination != baseline.Termination || first.Feasible != baseline.Feasible {
				t.Fatalf("write-through run terminated differently: %s vs %s", first.Termination, baseline.Termination)
			}

			second := core.Repair(p, o)
			if got := second.Canonical(); got != want {
				t.Fatalf("read-back run diverges from storeless baseline\n--- want ---\n%s\n--- got ---\n%s", want, got)
			}
			if tc.wantCorrupt && second.StoreCorrupt == 0 {
				t.Errorf("expected quarantined entries on read-back, got none (stats %+v)", inj.StoreStats())
			}
			if !tc.wantCorrupt && second.StoreCorrupt != 0 {
				t.Errorf("unexpected corruption: %d (stats %+v)", second.StoreCorrupt, inj.StoreStats())
			}

			st := inj.StoreStats()
			if st.Reads == 0 || st.Writes == 0 {
				t.Fatalf("injector saw no traffic: %+v", st)
			}
			switch {
			case tc.plan.ReadErrEveryN > 0 && st.ReadErrsInjected == 0:
				t.Errorf("plan injected no read errors: %+v", st)
			case (tc.plan.WriteErrEveryN > 0 || tc.plan.ENOSPCEveryN > 0) && st.WriteErrsInjected == 0:
				t.Errorf("plan injected no write errors: %+v", st)
			case tc.plan.FlipBitEveryN > 0 && st.FlipsInjected == 0:
				t.Errorf("plan flipped no bits: %+v", st)
			case tc.plan.TornTailEveryN > 0 && st.TearsInjected == 0:
				t.Errorf("plan tore no entries: %+v", st)
			}
		})
	}
}

// TestWarmStoreAnswersWholeSession is the store's economic claim at engine
// scale: a second session over a fully warm, fault-free store re-simulates
// nothing — zero validation prefix simulations — while still producing the
// byte-identical result. (Result.PrefixSimulations counts validation work
// only; preservation re-verification is accounted separately by design.)
func TestWarmStoreAnswersWholeSession(t *testing.T) {
	p := figure2Problem()
	dir := t.TempDir()
	opts := core.Options{Strategy: core.BruteForce, Store: mustStore(t, dir, 0)}
	first := core.Repair(p, opts)
	if !first.Feasible || first.StoreMisses == 0 {
		t.Fatalf("populate run: %s", first.Summary())
	}

	// A fresh Store instance on the same directory: a new process.
	opts.Store = mustStore(t, dir, 0)
	second := core.Repair(p, opts)
	if second.Canonical() != first.Canonical() {
		t.Fatalf("warm run diverges\n--- first ---\n%s\n--- second ---\n%s", first.Canonical(), second.Canonical())
	}
	if second.StoreMisses != 0 || second.StoreHits != second.CacheMisses {
		t.Fatalf("warm run store counters: %s", second.Summary())
	}
	if second.PrefixSimulations != 0 {
		t.Fatalf("warm run still simulated %d prefixes during validation", second.PrefixSimulations)
	}
}

// TestStoreEvictionChurnByteIdentity runs the repair over a store whose
// byte budget forces eviction on nearly every write — the concurrent-
// eviction race in its most aggressive form. Readers see entries vanish
// between classification and nothing else; the result must not move.
func TestStoreEvictionChurnByteIdentity(t *testing.T) {
	p := figure2Problem()
	opts := core.Options{Strategy: core.BruteForce}
	want := core.Repair(p, opts).Canonical()

	dir := t.TempDir()
	store := mustStore(t, dir, 128) // one ~100-byte entry: every further Put evicts
	o := opts
	o.Store = store
	for i := 0; i < 2; i++ {
		if got := core.Repair(p, o).Canonical(); got != want {
			t.Fatalf("run %d under eviction churn diverged\n--- want ---\n%s\n--- got ---\n%s", i, want, got)
		}
	}
	if st := store.Stats(); st.Evicted == 0 {
		t.Fatalf("budget of 128 bytes evicted nothing: %+v", st)
	}
}

// TestCrashResumeWarmStore extends the central recovery invariant to a
// warm persistent store: a crashed session resumed over (a) the same store
// it was writing, (b) a completely fresh store, and (c) no store at all
// must all render the uninterrupted run's exact bytes. The store changes
// what resume re-simulates, never what it concludes.
func TestCrashResumeWarmStore(t *testing.T) {
	p := figure2Problem()
	opts := core.Options{Strategy: core.Evolutionary, Seed: 7, MaxIterations: 25}

	straight, appends := journaledRun(t, t.TempDir(), p, opts)
	if !straight.Feasible {
		t.Fatalf("uninterrupted run infeasible: %s", straight.Summary())
	}
	want := straight.Canonical()
	if appends < 4 {
		t.Fatalf("run too short to crash interestingly: %d appends", appends)
	}

	for _, resume := range []string{"same-store", "fresh-store", "no-store"} {
		t.Run(resume, func(t *testing.T) {
			dir := t.TempDir()
			storeDir := t.TempDir()
			o := opts
			o.Store = mustStore(t, storeDir, 0)
			if !crashRun(t, dir, p, o, Plan{CrashAfterAppends: appends / 2, CrashTornTail: true}) {
				t.Fatal("crash point not reached")
			}
			switch resume {
			case "same-store":
				o.Store = mustStore(t, storeDir, 0)
			case "fresh-store":
				o.Store = mustStore(t, t.TempDir(), 0)
			case "no-store":
				o.Store = nil
			}
			res := resumeRun(t, dir, p, o)
			if !res.Resumed {
				t.Fatal("session did not resume from checkpoint")
			}
			if got := res.Canonical(); got != want {
				t.Fatalf("resume over %s diverges from uninterrupted run\n--- want ---\n%s\n--- got ---\n%s", resume, want, got)
			}
		})
	}
}

// TestCrashResumeFaultyStore combines both chaos seams: the session crashes
// mid-run AND the store both injects I/O errors and corrupts entries at
// rest. Resume must still reproduce the uninterrupted bytes.
func TestCrashResumeFaultyStore(t *testing.T) {
	p := figure2Problem()
	opts := core.Options{Strategy: core.Evolutionary, Seed: 7, MaxIterations: 25}
	straight, appends := journaledRun(t, t.TempDir(), p, opts)
	want := straight.Canonical()

	dir := t.TempDir()
	storeDir := t.TempDir()
	o := opts
	o.Store = NewStore(StorePlan{ReadErrEveryN: 3, FlipBitEveryN: 2}).Wire(mustStore(t, storeDir, 0))
	if !crashRun(t, dir, p, o, Plan{CrashAfterAppends: appends / 3}) {
		t.Fatal("crash point not reached")
	}
	o.Store = NewStore(StorePlan{ReadErrEveryN: 3, FlipBitEveryN: 2}).Wire(mustStore(t, storeDir, 0))
	res := resumeRun(t, dir, p, o)
	if got := res.Canonical(); got != want {
		t.Fatalf("resume over faulty store diverges\n--- want ---\n%s\n--- got ---\n%s", want, got)
	}
}

// TestWarmResumeSharesStoreAcrossSessions checks the adoption write-back:
// resuming a crashed session warms the store with the journaled candidates
// (the dead node's work), so a later fresh session over the same store
// starts from those evaluations.
func TestWarmResumeSharesStoreAcrossSessions(t *testing.T) {
	p := figure2Problem()
	opts := core.Options{Strategy: core.Evolutionary, Seed: 7, MaxIterations: 25}
	_, appends := journaledRun(t, t.TempDir(), p, opts)

	// Crash a storeless session (the dead node had no store wired)...
	dir := t.TempDir()
	if !crashRun(t, dir, p, opts, Plan{CrashAfterAppends: appends / 2}) {
		t.Fatal("crash point not reached")
	}
	// ...and resume it on a "node" that has one: the journal replay must
	// write the dead session's evaluations through to the store.
	storeDir := t.TempDir()
	o := opts
	o.Store = mustStore(t, storeDir, 0)
	sess, err := journal.Replay(dir)
	if err != nil || sess.Checkpoint == nil {
		t.Fatalf("replay: err=%v checkpoint=%v", err, sess != nil && sess.Checkpoint != nil)
	}
	res := resumeRun(t, dir, p, o)
	if !res.Resumed {
		t.Fatal("did not resume")
	}
	store := mustStore(t, storeDir, 0)
	if st := store.Stats(); st.Entries == 0 {
		t.Fatalf("resume warmed nothing into the store: %+v", st)
	}

	warm := core.Repair(p, o)
	if warm.StoreHits == 0 {
		t.Fatalf("follow-up session got no store hits: %s", warm.Summary())
	}
	if warm.Canonical() != res.Canonical() {
		t.Fatal("follow-up session diverged from resumed session")
	}
}
