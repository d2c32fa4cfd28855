package chaos

import (
	"context"
	"encoding/json"
	"net/netip"
	"os"
	"path/filepath"
	"slices"
	"testing"

	"acr/internal/core"
	"acr/internal/incidents"
	"acr/internal/journal"
	"acr/internal/netcfg"
)

// journaledRun runs a repair with a fresh journal session in dir and no
// faults, returning the result and the number of records appended.
func journaledRun(t *testing.T, dir string, p core.Problem, opts core.Options) (*core.Result, int) {
	t.Helper()
	w, err := journal.Create(dir, core.SessionHeader("crash-test", p, opts))
	if err != nil {
		t.Fatal(err)
	}
	defer w.Close()
	opts.Journal = w
	return core.RepairContext(context.Background(), p, opts), w.Appends()
}

// crashRun runs a repair that the injector kills after `appends` journal
// records, leaving dir the way a dead process would.
func crashRun(t *testing.T, dir string, p core.Problem, opts core.Options, plan Plan) (crashed bool) {
	t.Helper()
	w, err := journal.Create(dir, core.SessionHeader("crash-test", p, opts))
	if err != nil {
		t.Fatal(err)
	}
	opts.Journal = w
	opts = New(plan).Wire(opts)
	defer func() {
		rec := recover()
		if rec == nil {
			w.Close()
			return
		}
		if _, ok := rec.(CrashPanic); !ok {
			panic(rec) // a real bug, not our simulated crash
		}
		crashed = true // the "dead" process closes nothing
	}()
	core.RepairContext(context.Background(), p, opts)
	return false
}

// resumeRun recovers the session in dir and continues it to completion.
func resumeRun(t *testing.T, dir string, p core.Problem, opts core.Options) *core.Result {
	t.Helper()
	sess, err := journal.Replay(dir)
	if err != nil {
		t.Fatalf("replay: %v", err)
	}
	if !sess.Resumable() {
		t.Fatal("crashed session not resumable")
	}
	w, err := journal.Resume(dir, sess)
	if err != nil {
		t.Fatalf("reopen: %v", err)
	}
	defer w.Close()
	opts.Journal = w
	opts.Resume = sess
	res := core.RepairContext(context.Background(), p, opts)
	for _, e := range res.Errors {
		if e.Kind == core.KindJournal {
			t.Errorf("resume degraded: %v", e)
		}
	}
	return res
}

// TestCrashResumeByteIdentical is the central recovery invariant: a run
// SIGKILLed (simulated) after any number of journal appends — including
// with a torn final write — resumes to a Result byte-identical to the
// uninterrupted run with the same seed. No validated candidate is lost,
// no iteration or counter is double-counted: the work counters Canonical()
// leaves out are compared too.
func TestCrashResumeByteIdentical(t *testing.T) {
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

	// Crash points spread across the whole run: right after the header,
	// around the base checkpoint, mid-iteration, and near the end.
	points := []int{1, 2, 3, appends / 2, appends - 1}
	for i, n := range points {
		torn := i%2 == 1 // alternate clean kills and torn final writes
		dir := t.TempDir()
		if !crashRun(t, dir, p, opts, Plan{CrashAfterAppends: n, CrashTornTail: torn}) {
			t.Fatalf("crash point %d not reached", n)
		}
		sess, err := journal.Replay(dir)
		if err != nil {
			t.Fatalf("crash@%d: replay: %v", n, err)
		}
		if torn && !sess.Truncated {
			t.Errorf("crash@%d: torn tail not detected", n)
		}
		res := resumeRun(t, dir, p, opts)
		if !res.Resumed && sess.Checkpoint != nil {
			t.Errorf("crash@%d: checkpoint present but run not resumed", n)
		}
		if got := res.Canonical(); got != want {
			t.Errorf("crash@%d (torn=%v): resumed result diverges from uninterrupted run\n--- want ---\n%s\n--- got ---\n%s",
				n, torn, want, got)
		}
		if res.Counters != straight.Counters {
			t.Errorf("crash@%d (torn=%v): resumed counters %+v, uninterrupted %+v", n, torn, res.Counters, straight.Counters)
		}
		// The resumed session's journal must now be clean and closed.
		final, err := journal.Replay(dir)
		if err != nil {
			t.Fatalf("crash@%d: final replay: %v", n, err)
		}
		if final.Truncated {
			t.Errorf("crash@%d: resumed WAL still torn: %s", n, final.TruncatedReason)
		}
		if final.Terminal == nil || final.Terminal.Termination != "feasible" {
			t.Errorf("crash@%d: final terminal = %+v", n, final.Terminal)
		}
	}
}

// TestOlderLayoutResumeByteIdentical: a crashed session directory in the
// layout older engines left — wal.log beside a lock file and a
// checkpoint.json copy of the newest checkpoint — resumes to the
// uninterrupted run's Result.
func TestOlderLayoutResumeByteIdentical(t *testing.T) {
	p := figure2Problem()
	opts := core.Options{Strategy: core.Evolutionary, Seed: 7, MaxIterations: 25}
	straight, appends := journaledRun(t, t.TempDir(), p, opts)

	dir := t.TempDir()
	if !crashRun(t, dir, p, opts, Plan{CrashAfterAppends: appends / 2}) {
		t.Fatal("crash point not reached")
	}
	sess, err := journal.Replay(dir)
	if err != nil || sess.Checkpoint == nil {
		t.Fatalf("replay: checkpoint %v, err %v", sess, err)
	}
	payload, err := json.Marshal(&journal.Record{Seq: sess.ResumeSeq, Type: journal.TypeCheckpoint, Checkpoint: sess.Checkpoint})
	if err != nil {
		t.Fatal(err)
	}
	frame, err := journal.Frame(payload)
	if err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(filepath.Join(dir, "checkpoint.json"), frame, 0o644); err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(filepath.Join(dir, "lock"), nil, 0o644); err != nil {
		t.Fatal(err)
	}

	res := resumeRun(t, dir, p, opts)
	if !res.Resumed {
		t.Fatal("older-layout session not resumed")
	}
	if got, want := res.Canonical(), straight.Canonical(); got != want {
		t.Errorf("older-layout resume diverges from uninterrupted run\n--- want ---\n%s\n--- got ---\n%s", want, got)
	}
}

// TestCrashResumeCorpus repeats the invariant over corpus slices:
// different misconfiguration classes exercise different templates,
// populations, and widen/stagnation paths. Single faults end in their
// first iteration, so they resume only from the base checkpoint, whose
// counters are zero; double faults take several iterations and resume
// from checkpoints that already carry work.
func TestCrashResumeCorpus(t *testing.T) {
	later := 0 // resumes from a checkpoint past the base one
	for _, share := range []float64{0, 1} {
		incs, err := incidents.GenerateCorpus(incidents.CorpusOptions{Size: 6, Seed: 5, DoubleFaultShare: share})
		if err != nil {
			t.Fatal(err)
		}
		tested := 0
		for _, inc := range incs {
			if tested >= 3 {
				break
			}
			p := core.Problem{Topo: inc.Scenario.Topo, Configs: inc.Scenario.Configs, Intents: inc.Scenario.Intents}
			opts := core.Options{Seed: 11, MaxIterations: 20}
			straight, appends := journaledRun(t, t.TempDir(), p, opts)
			if straight.BaseFailing == 0 || appends < 4 {
				continue // injection invisible to the intent suite
			}
			tested++
			want := straight.Canonical()
			for _, n := range []int{2, appends - 1} {
				dir := t.TempDir()
				if !crashRun(t, dir, p, opts, Plan{CrashAfterAppends: n, CrashTornTail: true}) {
					t.Fatalf("%s: crash point %d not reached", inc.ID, n)
				}
				res := resumeRun(t, dir, p, opts)
				if res.ResumedFrom > 0 {
					later++
				}
				if got := res.Canonical(); got != want {
					t.Errorf("%s crash@%d: resumed result diverges\n--- want ---\n%s\n--- got ---\n%s",
						inc.ID, n, want, got)
				}
				if res.Counters != straight.Counters {
					t.Errorf("%s crash@%d: resumed counters %+v, uninterrupted %+v", inc.ID, n, res.Counters, straight.Counters)
				}
			}
		}
		if tested == 0 {
			t.Fatalf("no visible incidents in corpus slice (double-fault share %g)", share)
		}
	}
	if later == 0 {
		t.Fatal("no run resumed past its base checkpoint")
	}
}

// cancelRun runs a journaled repair whose context is canceled at the start
// of its k-th per-prefix simulation, leaving dir as a drained job or a
// repair cut by its timeout leaves it.
func cancelRun(t *testing.T, dir string, p core.Problem, opts core.Options, k int) *core.Result {
	t.Helper()
	w, err := journal.Create(dir, core.SessionHeader("crash-test", p, opts))
	if err != nil {
		t.Fatal(err)
	}
	defer w.Close()
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	sims := 0
	opts.Journal = w
	opts.SimOpts.PrefixHook = func(netip.Prefix) {
		if sims++; sims == k {
			cancel()
		}
	}
	return core.RepairContext(ctx, p, opts)
}

// TestCancelResumeByteIdentical: a run canceled mid-simulation resumes
// from its journal to the uninterrupted run's result and counters. The
// points cut inc-000-Policy (a double fault, 188 per-prefix simulations)
// at its base verification, inside its first candidate checks, during the
// last preservation of an iteration (84–86: a checkpoint written after
// that cut would hold a member scored on canceled outcomes, or none) and
// near its end.
func TestCancelResumeByteIdentical(t *testing.T) {
	incs, err := incidents.GenerateCorpus(incidents.CorpusOptions{Size: 12, Seed: 5, DoubleFaultShare: 1})
	if err != nil {
		t.Fatal(err)
	}
	i := slices.IndexFunc(incs, func(inc *incidents.Incident) bool { return inc.ID == "inc-000-Policy" })
	if i < 0 {
		t.Fatal("inc-000-Policy is not in the corpus")
	}
	s := incs[i].Scenario
	p := core.Problem{Topo: s.Topo, Configs: s.Configs, Intents: s.Intents}
	opts := core.Options{Seed: 11, MaxIterations: 20}
	straight, _ := journaledRun(t, t.TempDir(), p, opts)
	want := straight.Canonical()
	total := 0
	counted := opts
	counted.SimOpts.PrefixHook = func(netip.Prefix) { total++ }
	core.Repair(p, counted)
	if total != 188 {
		t.Fatalf("the uninterrupted run simulates %d prefixes, the points assume 188", total)
	}
	for _, k := range []int{1, 20, 84, 85, 86, 187} {
		dir := t.TempDir()
		if res := cancelRun(t, dir, p, opts, k); res.Termination != "canceled" {
			t.Fatalf("cancel@%d: the run ended %q", k, res.Termination)
		}
		res := resumeRun(t, dir, p, opts)
		if got := res.Canonical(); got != want {
			t.Errorf("cancel@%d: resumed result diverges from uninterrupted run\n--- want ---\n%s\n--- got ---\n%s", k, want, got)
		}
		if res.Counters != straight.Counters {
			t.Errorf("cancel@%d: resumed counters %+v, uninterrupted %+v", k, res.Counters, straight.Counters)
		}
	}
}

// TestResumeRefusesWrongCase: a journal from one case must not silently
// steer a repair of another.
func TestResumeRefusesWrongCase(t *testing.T) {
	p := figure2Problem()
	opts := core.Options{Strategy: core.Evolutionary, Seed: 7, MaxIterations: 25}
	dir := t.TempDir()
	if !crashRun(t, dir, p, opts, Plan{CrashAfterAppends: 5}) {
		t.Fatal("crash point not reached")
	}
	sess, err := journal.Replay(dir)
	if err != nil {
		t.Fatal(err)
	}
	other := figure2Problem()
	for d, c := range other.Configs {
		other.Configs[d] = netcfg.FromLines(d, append(c.Lines(), "! tampered"))
		break
	}
	res := core.RepairContext(context.Background(), other, core.Options{
		Strategy: core.Evolutionary, Seed: 7, MaxIterations: 25, Resume: sess,
	})
	if res.Resumed {
		t.Fatal("resumed a session for a different case")
	}
	found := false
	for _, e := range res.Errors {
		if e.Kind == core.KindJournal {
			found = true
		}
	}
	if !found {
		t.Error("digest mismatch not surfaced as a KindJournal error")
	}
	// A different seed is likewise a different search.
	res = core.RepairContext(context.Background(), p, core.Options{
		Strategy: core.Evolutionary, Seed: 8, MaxIterations: 25, Resume: sess,
	})
	if res.Resumed {
		t.Fatal("resumed a session journaled under a different seed")
	}
}

// TestJournaledRunMatchesPlain: journaling is pure observation — it must
// not perturb the search.
func TestJournaledRunMatchesPlain(t *testing.T) {
	p := figure2Problem()
	opts := core.Options{Strategy: core.Evolutionary, Seed: 7, MaxIterations: 25}
	plain := core.RepairContext(context.Background(), p, opts)
	journaled, _ := journaledRun(t, t.TempDir(), p, opts)
	if plain.Canonical() != journaled.Canonical() {
		t.Errorf("journaling changed the result\n--- plain ---\n%s\n--- journaled ---\n%s",
			plain.Canonical(), journaled.Canonical())
	}
}
