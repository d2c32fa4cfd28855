package chaos

import (
	"fmt"
	"os"
	"sync"
	"time"

	"acr/internal/evalstore"
)

// StorePlan is a deterministic fault plan for the persistent evaluation
// store (internal/evalstore). Counter-driven like Plan: the engine consults
// the store on a single goroutine in proposal order, so a plan's injection
// sequence reproduces exactly across runs.
type StorePlan struct {
	// ReadErrEveryN injects an I/O error (an EIO-shaped read failure) into
	// every Nth store read (0 = off). The store must answer with a miss.
	ReadErrEveryN int
	// WriteErrEveryN injects an I/O error into every Nth store write
	// (0 = off). The entry is simply never stored.
	WriteErrEveryN int
	// ENOSPCEveryN injects a no-space failure into every Nth store write
	// (0 = off). Semantically identical to WriteErrEveryN at the store's
	// contract boundary — both degrade to "the write did not happen" — but
	// kept separate so fault schedules can mix the two shapes.
	ENOSPCEveryN int
	// FlipBitEveryN flips one bit in the middle of the store's log after
	// every Nth write (0 = off): at-rest bit rot. The next read of the
	// damaged entry must detect it (CRC), report it corrupt, and fall back
	// to simulation.
	FlipBitEveryN int
	// TornTailEveryN truncates the store's log to half its length after
	// every Nth write (0 = off): damage that shrinks the log in place. The
	// entries lost must read as corrupt, never as another entry.
	TornTailEveryN int
	// SlowIO sleeps this long before every store read and write (0 = off):
	// a pathologically slow disk. Purely a latency tax — nothing about the
	// result may change.
	SlowIO time.Duration
}

// StoreStats counts what the store injector actually did.
type StoreStats struct {
	// Reads and Writes count store operations observed.
	Reads, Writes int
	// ReadErrsInjected and WriteErrsInjected count injected I/O failures
	// (WriteErrsInjected includes the ENOSPC shape).
	ReadErrsInjected, WriteErrsInjected int
	// FlipsInjected and TearsInjected count entries damaged at rest.
	FlipsInjected, TearsInjected int
}

// StoreError is an injected storage I/O failure.
type StoreError struct {
	// Op is "read" or "write"; N is the 1-based operation count.
	Op string
	N  int
	// NoSpace marks the ENOSPC shape.
	NoSpace bool
}

// Error implements error.
func (e StoreError) Error() string {
	if e.NoSpace {
		return fmt.Sprintf("chaos: injected ENOSPC on store %s %d", e.Op, e.N)
	}
	return fmt.Sprintf("chaos: injected I/O error on store %s %d", e.Op, e.N)
}

// StoreInjector executes a StorePlan against one evalstore.Store via its
// fault hooks. Safe for concurrent use; the engine drives it
// deterministically regardless.
type StoreInjector struct {
	mu    sync.Mutex
	plan  StorePlan
	stats StoreStats
}

// NewStore builds a store injector for the plan.
func NewStore(plan StorePlan) *StoreInjector {
	return &StoreInjector{plan: plan}
}

// Wire installs the injector's hooks on a store and returns the store, so
// call sites can wire inline: inj.Wire(mustOpen(dir)).
func (si *StoreInjector) Wire(s *evalstore.Store) *evalstore.Store {
	s.SetHooks(evalstore.Hooks{
		BeforeRead:  si.beforeRead,
		BeforeWrite: si.beforeWrite,
		AfterWrite:  si.afterWrite,
	})
	return s
}

func (si *StoreInjector) beforeRead(string) error {
	si.mu.Lock()
	si.stats.Reads++
	n := si.stats.Reads
	inject := si.plan.ReadErrEveryN > 0 && n%si.plan.ReadErrEveryN == 0
	if inject {
		si.stats.ReadErrsInjected++
	}
	si.mu.Unlock()
	time.Sleep(si.plan.SlowIO) // the plan is immutable; a zero sleep returns at once
	if inject {
		return StoreError{Op: "read", N: n}
	}
	return nil
}

func (si *StoreInjector) beforeWrite(string) error {
	si.mu.Lock()
	si.stats.Writes++
	n := si.stats.Writes
	var inject error
	if si.plan.WriteErrEveryN > 0 && n%si.plan.WriteErrEveryN == 0 {
		inject = StoreError{Op: "write", N: n}
	} else if si.plan.ENOSPCEveryN > 0 && n%si.plan.ENOSPCEveryN == 0 {
		inject = StoreError{Op: "write", N: n, NoSpace: true}
	}
	if inject != nil {
		si.stats.WriteErrsInjected++
	}
	si.mu.Unlock()
	time.Sleep(si.plan.SlowIO)
	return inject
}

// afterWrite damages the store's file in place after every Nth write: the
// on-disk state bit rot or a torn write would leave, applied right after
// the write so the very next read must already cope.
func (si *StoreInjector) afterWrite(path string) {
	si.mu.Lock()
	n := si.stats.Writes
	flip := si.plan.FlipBitEveryN > 0 && n%si.plan.FlipBitEveryN == 0
	tear := si.plan.TornTailEveryN > 0 && n%si.plan.TornTailEveryN == 0
	if flip {
		si.stats.FlipsInjected++
	}
	if tear && !flip {
		si.stats.TearsInjected++
	}
	si.mu.Unlock()
	if !flip && !tear {
		return
	}
	data, err := os.ReadFile(path)
	if err != nil || len(data) == 0 {
		return
	}
	if flip {
		data[len(data)/2] ^= 0x01
	} else {
		data = data[:len(data)/2]
	}
	os.WriteFile(path, data, 0o644)
}

// StoreStats returns a snapshot of the store-injection counters.
func (si *StoreInjector) StoreStats() StoreStats {
	si.mu.Lock()
	defer si.mu.Unlock()
	return si.stats
}
