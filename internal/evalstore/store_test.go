package evalstore

import (
	"crypto/sha256"
	"encoding/hex"
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"reflect"
	"sort"
	"sync"
	"testing"

	"acr/internal/journal"
)

// td returns a deterministic test digest for i.
func td(i int) string {
	sum := sha256.Sum256([]byte(fmt.Sprintf("digest-%d", i)))
	return hex.EncodeToString(sum[:])
}

func open(t *testing.T, dir string, maxBytes int64) *Store {
	t.Helper()
	s, err := Open(dir, maxBytes)
	if err != nil {
		t.Fatalf("Open: %v", err)
	}
	return s
}

func TestRoundTripAndPersistence(t *testing.T) {
	dir := t.TempDir()
	s := open(t, dir, 0)
	for i := 0; i < 10; i++ {
		s.Put(td(i), i)
	}
	for i := 0; i < 10; i++ {
		fit, ok, corrupt := s.Get(td(i))
		if !ok || corrupt || fit != i {
			t.Fatalf("Get(%d) = %d,%v,%v", i, fit, ok, corrupt)
		}
	}
	if _, ok, _ := s.Get(td(99)); ok {
		t.Fatal("absent digest reported ok")
	}
	st := s.Stats()
	if st.Hits != 10 || st.Misses != 1 || st.Entries != 10 || st.Corrupt != 0 {
		t.Fatalf("stats: %+v", st)
	}

	// A second Store on the same directory sees everything.
	s2 := open(t, dir, 0)
	for i := 0; i < 10; i++ {
		if fit, ok, _ := s2.Get(td(i)); !ok || fit != i {
			t.Fatalf("reopened Get(%d) = %d,%v", i, fit, ok)
		}
	}
}

func TestCrossStoreVisibilityWithoutReopen(t *testing.T) {
	// Two Stores open on the same directory (two workers, two processes):
	// an entry written through one is readable through the other without
	// any reindexing, because reads go to the filesystem.
	dir := t.TempDir()
	a := open(t, dir, 0)
	b := open(t, dir, 0)
	a.Put(td(1), 7)
	if fit, ok, _ := b.Get(td(1)); !ok || fit != 7 {
		t.Fatalf("cross-store Get = %d,%v", fit, ok)
	}
}

func TestFirstWriteWins(t *testing.T) {
	s := open(t, t.TempDir(), 0)
	s.Put(td(1), 3)
	s.Put(td(1), 9)
	if fit, ok, _ := s.Get(td(1)); !ok || fit != 3 {
		t.Fatalf("Get = %d,%v, want 3,true", fit, ok)
	}
}

func TestInvalidDigestsAreUnaddressable(t *testing.T) {
	s := open(t, t.TempDir(), 0)
	for _, d := range []string{"", "ab", "../../etc/passwd", "ABCDEF012345", "zzzz9999"} {
		s.Put(d, 1)
		if _, ok, corrupt := s.Get(d); ok || corrupt {
			t.Fatalf("digest %q: ok=%v corrupt=%v", d, ok, corrupt)
		}
	}
	if st := s.Stats(); st.Entries != 0 {
		t.Fatalf("unaddressable digests created entries: %+v", st)
	}
}

// logBytes returns the store's whole log.
func logBytes(t *testing.T, s *Store) []byte {
	t.Helper()
	data, err := os.ReadFile(s.path)
	if err != nil {
		t.Fatalf("read log: %v", err)
	}
	return data
}

// mangle damages digest's frame in the log in the given way. The frame is
// replaced by the damaged bytes, so shapes that change its length move
// whatever follows it.
func mangle(t *testing.T, s *Store, digest, how string) {
	t.Helper()
	at, ok := s.idx[digest]
	if !ok {
		t.Fatalf("mangle: %s is not indexed", digest[:8])
	}
	data := logBytes(t, s)
	frame := append([]byte(nil), data[at.off:at.off+at.n]...)
	switch how {
	case "bitflip":
		frame[len(frame)-2] ^= 0x40
	case "torn":
		frame = frame[:len(frame)/2]
	case "empty":
		frame = make([]byte, len(frame))
	case "garbage":
		frame = []byte("not a frame at all")
	case "alias":
		// A verbatim copy of another digest's (valid) frame: framing and
		// CRC pass, the embedded digest does not.
		other := s.idx[td(7777)]
		frame = append([]byte(nil), data[other.off:other.off+other.n]...)
	case "negative":
		var err error
		frame, err = journal.Frame([]byte(fmt.Sprintf(`{"digest":%q,"fitness":-5}`, digest)))
		if err != nil {
			t.Fatal(err)
		}
	default:
		t.Fatalf("unknown mangle %q", how)
	}
	out := append(append(append([]byte(nil), data[:at.off]...), frame...), data[at.off+at.n:]...)
	if err := os.WriteFile(s.path, out, 0o644); err != nil {
		t.Fatalf("mangle: %v", err)
	}
}

// TestCorruptEntriesQuarantine damages one frame of the log six ways: the
// read reports it corrupt exactly once and drops it from the index, and
// the digest can be stored again.
func TestCorruptEntriesQuarantine(t *testing.T) {
	for _, how := range []string{"bitflip", "torn", "empty", "garbage", "alias", "negative"} {
		t.Run(how, func(t *testing.T) {
			s := open(t, t.TempDir(), 0)
			s.Put(td(7777), 4) // alias source, as long as the victim's frame
			d := td(1)
			s.Put(d, 5)
			mangle(t, s, d, how)

			fit, ok, corrupt := s.Get(d)
			if ok || !corrupt || fit != 0 {
				t.Fatalf("corrupt Get = %d,%v,%v, want 0,false,true", fit, ok, corrupt)
			}
			// A second read is a plain miss, not a second corruption.
			if _, ok, corrupt := s.Get(d); ok || corrupt {
				t.Fatalf("second Get after corruption: ok=%v corrupt=%v", ok, corrupt)
			}
			if fit, ok, _ := s.Get(td(7777)); how != "alias" && (!ok || fit != 4) {
				t.Fatalf("undamaged neighbour: %d,%v", fit, ok)
			}
			if st := s.Stats(); st.Corrupt != 1 {
				t.Fatalf("stats after corruption: %+v", st)
			}
			// The slot is writable again. A fresh Store may lose frames
			// that follow damage it cannot frame past, but never answers
			// wrong.
			s.Put(d, 6)
			if fit, ok, _ := s.Get(d); !ok || fit != 6 {
				t.Fatalf("rewrite after corruption: %d,%v", fit, ok)
			}
			if fit, ok, _ := open(t, filepath.Dir(s.path), 0).Get(d); ok && fit != 6 {
				t.Fatalf("fresh Store answered %d for the rewritten entry", fit)
			}
		})
	}
}

// TestGenerationReset: an append that would pass the budget starts a new,
// empty generation. A Store still holding the old generation keeps reading
// it intact, and once it catches up the dropped entries are misses, never
// corruption.
func TestGenerationReset(t *testing.T) {
	dir := t.TempDir()
	s := open(t, dir, 0)
	s.Put(td(1), 1)
	entrySize := s.Stats().Bytes
	if entrySize <= 0 {
		t.Fatal("no bytes accounted")
	}
	s.maxBytes = 3 * entrySize // budget for exactly three entries
	s.Put(td(2), 2)
	s.Put(td(3), 3)
	reader := open(t, dir, 0)
	s.Put(td(4), 4)
	if st := s.Stats(); st.Evicted != 3 || st.Entries != 1 || st.Bytes != entrySize {
		t.Fatalf("stats after the reset: %+v", st)
	}
	for i := 1; i <= 3; i++ {
		if _, ok, corrupt := s.Get(td(i)); ok || corrupt {
			t.Fatalf("entry %d survived the reset: ok=%v corrupt=%v", i, ok, corrupt)
		}
		if fit, ok, _ := reader.Get(td(i)); !ok || fit != i {
			t.Fatalf("old generation unreadable to a Store holding it: %d,%v", fit, ok)
		}
	}
	if fit, ok, _ := reader.Get(td(4)); !ok || fit != 4 {
		t.Fatalf("reader did not catch up to the new generation: %d,%v", fit, ok)
	}
	if _, ok, corrupt := reader.Get(td(1)); ok || corrupt {
		t.Fatalf("evicted entry after catch-up: ok=%v corrupt=%v", ok, corrupt)
	}
	assertLayout(t, dir)
}

// assertLayout checks that dir holds the store's two files and nothing
// else.
func assertLayout(t *testing.T, dir string) {
	t.Helper()
	ents, err := os.ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	var names []string
	for _, e := range ents {
		names = append(names, e.Name())
	}
	if !reflect.DeepEqual(names, []string{"store.lock", "store.log"}) {
		t.Fatalf("cache directory holds %v, want [store.lock store.log]", names)
	}
}

func TestInjectedFaultsDegradeToMiss(t *testing.T) {
	s := open(t, t.TempDir(), 0)
	readErr, writeErr := errors.New("injected EIO"), errors.New("injected ENOSPC")
	var failReads, failWrites bool
	s.SetHooks(Hooks{
		BeforeRead: func(string) error {
			if failReads {
				return readErr
			}
			return nil
		},
		BeforeWrite: func(string) error {
			if failWrites {
				return writeErr
			}
			return nil
		},
	})

	failWrites = true
	s.Put(td(1), 1)
	failWrites = false
	if _, ok, _ := s.Get(td(1)); ok {
		t.Fatal("entry exists despite injected write failure")
	}
	s.Put(td(1), 1)
	failReads = true
	if _, ok, corrupt := s.Get(td(1)); ok || corrupt {
		t.Fatal("injected read failure did not degrade to a plain miss")
	}
	failReads = false
	if fit, ok, _ := s.Get(td(1)); !ok || fit != 1 {
		t.Fatal("store did not recover once faults cleared")
	}
	st := s.Stats()
	if st.ReadErrors != 1 || st.WriteErrors != 1 {
		t.Fatalf("error counters: %+v", st)
	}
}

func TestAtRestCorruptionViaAfterWrite(t *testing.T) {
	// The AfterWrite seam damages every frame as it lands; every read must
	// come back as a corruption, never a wrong answer.
	s := open(t, t.TempDir(), 0)
	s.SetHooks(Hooks{AfterWrite: func(path string) {
		data, err := os.ReadFile(path)
		if err != nil || len(data) == 0 {
			return
		}
		data[len(data)-1] ^= 0xff
		os.WriteFile(path, data, 0o644)
	}})
	for i := 0; i < 5; i++ {
		s.Put(td(i), i)
	}
	for i := 0; i < 5; i++ {
		if _, ok, corrupt := s.Get(td(i)); ok || !corrupt {
			t.Fatalf("entry %d: ok=%v corrupt=%v, want corruption", i, ok, corrupt)
		}
	}
	if st := s.Stats(); st.Corrupt != 5 {
		t.Fatalf("stats: %+v", st)
	}
}

func TestVerifyAndGC(t *testing.T) {
	dir := t.TempDir()
	s := open(t, dir, 0)
	for i := 0; i < 6; i++ {
		s.Put(td(i), i)
	}
	mangle(t, s, td(0), "bitflip") // a middle frame
	mangle(t, s, td(5), "torn")    // the tail

	rep := s.Verify()
	if rep.Checked != 6 || rep.Corrupt != 2 || rep.Intact != 4 || rep.Unreadable != 0 {
		t.Fatalf("verify: %+v", rep)
	}
	// Verify modifies nothing: a second pass finds the same damage.
	if again := s.Verify(); again != rep {
		t.Fatalf("second verify: %+v, want %+v", again, rep)
	}

	gc := s.GC()
	if gc.Purged != 2 || gc.Entries != 4 || gc.Evicted != 0 {
		t.Fatalf("gc: %+v", gc)
	}
	if rep := s.Verify(); rep.Corrupt != 0 || rep.Checked != 4 {
		t.Fatalf("verify after gc: %+v", rep)
	}
	for i := 1; i < 5; i++ {
		if fit, ok, _ := open(t, dir, 0).Get(td(i)); !ok || fit != i {
			t.Fatalf("entry %d lost by gc: %d,%v", i, fit, ok)
		}
	}

	// GC under a tight budget keeps what fits, at least one entry.
	s.maxBytes = 1
	if gc = s.GC(); gc.Entries != 1 || gc.Evicted != 3 {
		t.Fatalf("gc under budget: %+v", gc)
	}
	assertLayout(t, dir)
}

func TestClosedStoreIsInert(t *testing.T) {
	s := open(t, t.TempDir(), 0)
	s.Put(td(1), 1)
	before := len(logBytes(t, s))
	s.Close()
	s.Put(td(2), 2)
	if _, ok, _ := s.Get(td(1)); ok {
		t.Fatal("closed store answered a Get")
	}
	if after := len(logBytes(t, s)); after != before {
		t.Fatalf("closed store wrote: log grew from %d to %d bytes", before, after)
	}
}

// TestConcurrentStoreSharing is the in-process race test for multi-writer
// sharing: several goroutines across two Store instances on one directory
// hammer overlapping digests under a byte budget small enough to force
// constant eviction. Every successful Get must return the digest's one
// true fitness — torn or aliased reads would surface here under -race.
func TestConcurrentStoreSharing(t *testing.T) {
	dir := t.TempDir()
	a := open(t, dir, 8<<10)
	b := open(t, dir, 8<<10)
	stores := []*Store{a, b}
	const digests = 64
	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			s := stores[g%2]
			for i := 0; i < 200; i++ {
				d := (g*31 + i) % digests
				s.Put(td(d), d)
				if fit, ok, corrupt := s.Get(td(d)); ok && fit != d {
					t.Errorf("goroutine %d: Get(%d) returned %d", g, d, fit)
				} else if corrupt {
					t.Errorf("goroutine %d: clean store reported corruption on %d", g, d)
				}
			}
		}(g)
	}
	wg.Wait()
	// After settling, everything still on disk verifies clean.
	if rep := a.Verify(); rep.Corrupt != 0 || rep.Unreadable != 0 {
		t.Fatalf("post-race verify: %+v", rep)
	}
}

func TestEvictionRaceDegradesToMiss(t *testing.T) {
	// One store evicts aggressively while another reads: readers must only
	// ever see hits or misses, never corruption or wrong values.
	dir := t.TempDir()
	writer := open(t, dir, 1) // budget of one byte: every Put evicts the rest
	reader := open(t, dir, 1<<20)
	var wg sync.WaitGroup
	wg.Add(2)
	go func() {
		defer wg.Done()
		for i := 0; i < 300; i++ {
			writer.Put(td(i%8), i%8)
		}
	}()
	go func() {
		defer wg.Done()
		for i := 0; i < 300; i++ {
			if fit, ok, corrupt := reader.Get(td(i % 8)); corrupt {
				t.Error("eviction race surfaced as corruption")
			} else if ok && fit != i%8 {
				t.Errorf("eviction race returned wrong fitness %d for %d", fit, i%8)
			}
		}
	}()
	wg.Wait()
}

// TestTruncatedLogNeverAliases cuts a three-entry log at every byte
// offset. A fresh Store and one that indexed the whole log before the cut
// must both answer each digest with its own fitness or a miss, and a
// fresh Store must answer every frame the cut left whole.
func TestTruncatedLogNeverAliases(t *testing.T) {
	src := open(t, t.TempDir(), 0)
	want := map[string]int{td(1): 10, td(2): 20, td(3): 30}
	for _, i := range []int{1, 2, 3} {
		src.Put(td(i), want[td(i)])
	}
	full := logBytes(t, src)
	for cut := 0; cut <= len(full); cut++ {
		dir := t.TempDir()
		path := filepath.Join(dir, "store.log")
		if err := os.WriteFile(path, full, 0o644); err != nil {
			t.Fatal(err)
		}
		stale := open(t, dir, 0)
		if err := os.Truncate(path, int64(cut)); err != nil {
			t.Fatal(err)
		}
		fresh := open(t, dir, 0)
		for d, fitness := range want {
			at := src.idx[d]
			if fit, ok, _ := fresh.Get(d); ok != (at.off+at.n <= int64(cut)) || (ok && fit != fitness) {
				t.Fatalf("cut %d, fresh Store: Get = %d,%v, want %d (whole frame: %v)",
					cut, fit, ok, fitness, at.off+at.n <= int64(cut))
			}
			if fit, ok, _ := stale.Get(d); ok && fit != fitness {
				t.Fatalf("cut %d, stale Store: Get = %d, want %d", cut, fit, fitness)
			}
		}
		stale.Close()
		fresh.Close()
	}
}

// TestOlderLayoutMissesAndGCRemovesIt: a directory written by the older
// one-file-per-entry layout opens as an empty store (its entries are
// misses, not corruption), and GC deletes the old trees.
func TestOlderLayoutMissesAndGCRemovesIt(t *testing.T) {
	dir := t.TempDir()
	frame, err := journal.Frame([]byte(fmt.Sprintf(`{"digest":%q,"fitness":3}`, td(1))))
	if err != nil {
		t.Fatal(err)
	}
	for _, p := range []string{
		filepath.Join(dir, "entries", td(1)[:2], td(1)),
		filepath.Join(dir, "quarantine", td(2)),
	} {
		os.MkdirAll(filepath.Dir(p), 0o755)
		if err := os.WriteFile(p, frame, 0o644); err != nil {
			t.Fatal(err)
		}
	}
	s := open(t, dir, 0)
	if _, ok, corrupt := s.Get(td(1)); ok || corrupt {
		t.Fatalf("older-layout entry: ok=%v corrupt=%v, want a plain miss", ok, corrupt)
	}
	s.Put(td(1), 3)
	if gc := s.GC(); gc.Entries != 1 || gc.Purged != 0 {
		t.Fatalf("gc: %+v", gc)
	}
	assertLayout(t, dir)
	if fit, ok, _ := s.Get(td(1)); !ok || fit != 3 {
		t.Fatalf("entry lost by gc: %d,%v", fit, ok)
	}
}

// BenchmarkPut is one cold evaluation-store write: a distinct digest
// appended to a fresh store's log.
func BenchmarkPut(b *testing.B) {
	s, err := Open(b.TempDir(), 0)
	if err != nil {
		b.Fatal(err)
	}
	digests := make([]string, b.N)
	for i := range digests {
		digests[i] = td(i)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		s.Put(digests[i], i)
	}
	b.StopTimer()
	if st := s.Stats(); st.WriteErrors != 0 || st.Entries != b.N {
		b.Fatalf("stats after %d puts: %+v", b.N, st)
	}
}

// FuzzStoreRead opens arbitrary bytes as a store's log. Every Get the
// store answers must be backed by a frame in those bytes that verifies,
// with the digest asked for and the fitness answered.
func FuzzStoreRead(f *testing.F) {
	var valid []byte
	for i := 1; i <= 2; i++ {
		frame, _ := journal.Frame([]byte(fmt.Sprintf(`{"digest":%q,"fitness":%d}`, td(i), i)))
		valid = append(valid, frame...)
	}
	f.Add(valid)
	f.Add(valid[:len(valid)*3/4])
	f.Add([]byte{})
	f.Add([]byte{0xff, 0xff, 0xff, 0xff, 0, 0, 0, 0})
	f.Fuzz(func(t *testing.T, data []byte) {
		dir := t.TempDir()
		if err := os.WriteFile(filepath.Join(dir, "store.log"), data, 0o644); err != nil {
			t.Skip()
		}
		s, err := Open(dir, 0)
		if err != nil {
			t.Skip()
		}
		defer s.Close()
		backed := map[string]map[int]bool{}
		scan(data, func(_, _ int, rec record, intact bool) {
			if intact {
				if backed[rec.Digest] == nil {
					backed[rec.Digest] = map[int]bool{}
				}
				backed[rec.Digest][rec.Fitness] = true
			}
		})
		asked := []string{td(1), td(2)}
		for d := range s.idx {
			asked = append(asked, d)
		}
		sort.Strings(asked)
		for _, d := range asked {
			if fit, ok, _ := s.Get(d); ok && !backed[d][fit] {
				t.Fatalf("Get(%s) = %d with no verifying frame behind it", d, fit)
			}
		}
	})
}
