// Package chaos is a deterministic fault-injection harness for the repair
// pipeline. It wraps the engine's two resilience seams — the per-prefix
// simulation hook (bgp.Options.PrefixHook) and the validation boundary
// (core.Options.Chaos) — with seeded fault plans: panics on the Nth
// prefix simulation, injected delays that trip a context deadline, and
// validator errors, each of which drops the candidate it hits.
//
// Plans are deterministic given their Seed and the engine's own
// determinism, so a chaos failure reproduces exactly. Typical use:
//
//	inj := chaos.New(chaos.Plan{Seed: 1, PanicEveryN: 10})
//	res := core.RepairContext(ctx, problem, inj.Wire(core.Options{}))
//	// res.CandidatesPanicked accounts for every injected panic that
//	// reached a candidate; inj.Stats() accounts for every injection.
package chaos

import (
	"encoding/binary"
	"fmt"
	"math/rand"
	"net/netip"
	"os"
	"sync"
	"time"

	"acr/internal/core"
	"acr/internal/journal"
)

// Plan is a seeded, deterministic fault plan.
type Plan struct {
	// Seed drives the probabilistic injections (PanicRate).
	Seed int64
	// PanicEveryN injects a panic into every Nth per-prefix simulation
	// (0 = off). The first injection happens on simulation number N.
	PanicEveryN int
	// PanicRate additionally injects a panic into each simulation with
	// this seeded probability (0 = off).
	PanicRate float64
	// MaxPanics caps the total injected panics (0 = unlimited).
	MaxPanics int
	// DelayPerSim sleeps this long at the start of every per-prefix
	// simulation — the knob for tripping deadlines mid-validation.
	DelayPerSim time.Duration
	// ValidateErrorEveryN fails every Nth validator invocation at the
	// engine boundary with a ValidateError (0 = off). The engine drops
	// the candidate being validated.
	ValidateErrorEveryN int
	// MaxValidateErrors caps the total injected validator errors
	// (0 = unlimited).
	MaxValidateErrors int

	// --- crash points (journal seam) ------------------------------------

	// CrashAfterAppends simulates a process crash once N journal records
	// have been appended (0 = off): the next append never reaches the
	// WAL. With CrashKill the injector SIGKILLs its own process — a real,
	// unmaskable crash for end-to-end recovery tests; otherwise it panics
	// with CrashPanic, which unwinds the engine (the emission points sit
	// outside every quarantine boundary) for in-process tests to recover.
	CrashAfterAppends int
	// CrashTornTail additionally writes a torn frame — a plausible length
	// prefix, a garbage checksum, and a truncated payload — to the WAL
	// before crashing, simulating a write cut mid-record by the kill.
	CrashTornTail bool
	// CrashKill selects SIGKILL over panic at the crash point.
	CrashKill bool
}

// Stats counts what the injector actually did.
type Stats struct {
	// Simulations counts per-prefix simulations observed.
	Simulations int
	// PanicsInjected counts panics raised into the simulator.
	PanicsInjected int
	// ValidateCalls counts validator invocations observed at the engine
	// boundary.
	ValidateCalls int
	// ValidateErrorsInjected counts validator errors handed to the engine.
	ValidateErrorsInjected int
	// JournalAppends counts journal appends observed.
	JournalAppends int
	// CrashesInjected counts simulated crashes raised at the journal seam
	// (0 or 1: a crash ends the run).
	CrashesInjected int
}

// PanicValue is the value an injected panic carries, so recovery sites
// (and tests) can tell harness panics from real bugs.
type PanicValue struct {
	// Sim is the 1-based simulation count at injection time.
	Sim int
	// Prefix is the prefix whose simulation was killed.
	Prefix netip.Prefix
}

// String renders the panic value.
func (v PanicValue) String() string {
	return fmt.Sprintf("chaos: injected panic on simulation %d (prefix %s)", v.Sim, v.Prefix)
}

// ValidateError is an injected validator fault.
type ValidateError struct {
	// Call is the 1-based validator-invocation count at injection time.
	Call int
}

// Error implements error.
func (e ValidateError) Error() string {
	return fmt.Sprintf("chaos: injected verifier error on call %d", e.Call)
}

// Injector executes a Plan. It is safe for concurrent use; its counters
// advance in the deterministic order the (deterministic, single-threaded)
// engine drives it.
type Injector struct {
	mu    sync.Mutex
	plan  Plan
	rng   *rand.Rand
	stats Stats
	// writer is the wired journal writer: a torn tail goes to its file,
	// and it is abandoned (lock released, nothing synced) when a simulated
	// in-process crash fires, as a real process death would leave it.
	writer *journal.Writer
}

// New builds an injector for the plan.
func New(plan Plan) *Injector {
	return &Injector{plan: plan, rng: rand.New(rand.NewSource(plan.Seed))}
}

// Wire installs the injector into repair options: the simulator seam
// (every per-prefix simulation the engine or its verifier performs), the
// validation boundary, and — when the options carry a journal writer —
// the journal-append seam for crash-point injection. It returns the
// modified options.
func (i *Injector) Wire(opts core.Options) core.Options {
	opts.SimOpts.PrefixHook = i.PrefixHook
	opts.Chaos = i
	if opts.Journal != nil {
		i.WireJournal(opts.Journal)
	}
	return opts
}

// WireJournal installs the crash-point seam on a journal writer.
func (i *Injector) WireJournal(w *journal.Writer) {
	i.mu.Lock()
	i.writer = w
	i.mu.Unlock()
	w.Hook = i.JournalHook
}

// CrashPanic is the value a simulated (non-SIGKILL) crash panics with.
// It deliberately unwinds the whole engine: journal emission points sit
// outside every candidate-quarantine boundary, so nothing absorbs it
// before the test harness does.
type CrashPanic struct {
	// Appends is the number of records durably appended before the crash.
	Appends int
}

// String renders the panic value.
func (c CrashPanic) String() string {
	return fmt.Sprintf("chaos: injected crash after %d journal appends", c.Appends)
}

// JournalHook is the journal seam (journal.AppendHook): called before the
// nth append, it simulates a crash once the plan's append budget is
// spent. Exactly CrashAfterAppends records reach the WAL.
func (i *Injector) JournalHook(n int, _ *journal.Record) error {
	i.mu.Lock()
	i.stats.JournalAppends = n
	crash := i.plan.CrashAfterAppends > 0 && n > i.plan.CrashAfterAppends
	if crash {
		i.stats.CrashesInjected++
	}
	torn, kill, w := i.plan.CrashTornTail, i.plan.CrashKill, i.writer
	appended := i.plan.CrashAfterAppends
	i.mu.Unlock()
	if !crash {
		return nil
	}
	if torn && w != nil {
		tearWAL(w.Path())
	}
	if kill {
		// A real SIGKILL: no deferred functions, no recovery — the
		// strongest possible crash for end-to-end resume tests.
		killSelf()
	}
	if w != nil {
		// Release the WAL descriptor and session lock the way process
		// death would, so the same process can replay and resume the dir.
		w.Abandon()
	}
	panic(CrashPanic{Appends: appended})
}

// KillSwitch is the daemon-scale crash point: a single counter shared by
// every journal writer of a multi-job process (the `acr serve` worker
// pool), SIGKILLing the whole process once the total number of appends —
// across all jobs, in whatever order the pool interleaves them — reaches
// its budget. Unlike Plan.CrashAfterAppends, which crashes one engine run,
// the KillSwitch takes down a daemon mid-flight so recovery tests can
// assert every in-flight job resumes on restart.
type KillSwitch struct {
	mu    sync.Mutex
	after int
	seen  int
	fired bool
}

// NewKillSwitch arms a switch that kills the process on append number
// after+1 (so exactly `after` records across all writers reach the WALs,
// mirroring Plan.CrashAfterAppends). after <= 0 disarms it.
func NewKillSwitch(after int) *KillSwitch {
	return &KillSwitch{after: after}
}

// killSelf SIGKILLs this process.
func killSelf() {
	if p, err := os.FindProcess(os.Getpid()); err == nil {
		p.Kill()
		select {} // Kill is asynchronous; never let the caller race ahead
	}
}

// Hook is the journal.AppendHook to install on every writer the process
// opens. The per-writer append count n is ignored: the switch counts
// process-wide.
func (k *KillSwitch) Hook(_ int, _ *journal.Record) error {
	k.mu.Lock()
	k.seen++
	fire := k.after > 0 && k.seen > k.after && !k.fired
	if fire {
		k.fired = true
	}
	k.mu.Unlock()
	if fire {
		killSelf()
	}
	return nil
}

// tearWAL appends a torn frame to the WAL: a header promising a 200-byte
// payload, a garbage checksum, and 24 bytes of debris — the on-disk shape
// of a record cut mid-write. Best effort: a tear that cannot be written
// is simply a clean crash.
func tearWAL(path string) {
	f, err := os.OpenFile(path, os.O_WRONLY|os.O_APPEND, 0o644)
	if err != nil {
		return
	}
	defer f.Close()
	tail := make([]byte, 8+24)
	binary.BigEndian.PutUint32(tail[0:4], 200)
	binary.BigEndian.PutUint32(tail[4:8], 0xDEADBEEF)
	copy(tail[8:], `{"seq":999,"type":"checkp`)
	f.Write(tail)
}

// PrefixHook is the simulator seam: it observes one per-prefix simulation
// and may sleep (DelayPerSim) or panic (PanicEveryN / PanicRate) per plan.
func (i *Injector) PrefixHook(p netip.Prefix) {
	i.mu.Lock()
	i.stats.Simulations++
	n := i.stats.Simulations
	inject := false
	if i.plan.PanicEveryN > 0 && n%i.plan.PanicEveryN == 0 {
		inject = true
	}
	if i.plan.PanicRate > 0 && i.rng.Float64() < i.plan.PanicRate {
		inject = true
	}
	if inject && i.plan.MaxPanics > 0 && i.stats.PanicsInjected >= i.plan.MaxPanics {
		inject = false
	}
	if inject {
		i.stats.PanicsInjected++
	}
	i.mu.Unlock()
	time.Sleep(i.plan.DelayPerSim) // the plan is immutable; a zero sleep returns at once
	if inject {
		panic(PanicValue{Sim: n, Prefix: p})
	}
}

// BeforeValidate is the engine-boundary seam (core.FaultInjector): it may
// return a ValidateError per plan, which drops the candidate.
func (i *Injector) BeforeValidate() error {
	i.mu.Lock()
	defer i.mu.Unlock()
	i.stats.ValidateCalls++
	n := i.stats.ValidateCalls
	if i.plan.ValidateErrorEveryN > 0 && n%i.plan.ValidateErrorEveryN == 0 {
		if i.plan.MaxValidateErrors == 0 || i.stats.ValidateErrorsInjected < i.plan.MaxValidateErrors {
			i.stats.ValidateErrorsInjected++
			return ValidateError{Call: n}
		}
	}
	return nil
}

// Stats returns a snapshot of the injection counters.
func (i *Injector) Stats() Stats {
	i.mu.Lock()
	defer i.mu.Unlock()
	return i.stats
}
