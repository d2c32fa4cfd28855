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

// mangle corrupts one on-disk entry in the given way and returns its path.
func mangle(t *testing.T, s *Store, digest, how string) string {
	t.Helper()
	path := s.entryPath(digest)
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatalf("read entry: %v", err)
	}
	switch how {
	case "bitflip":
		data[len(data)-2] ^= 0x40
	case "torn":
		data = data[:len(data)/2]
	case "empty":
		data = nil
	case "garbage":
		data = []byte("not a frame at all")
	case "alias":
		// A verbatim copy of another digest's (valid) entry: framing and
		// CRC pass, the embedded digest does not.
		other := s.entryPath(td(7777))
		data, err = os.ReadFile(other)
		if err != nil {
			t.Fatalf("read alias source: %v", err)
		}
	case "negative":
		payload, err := journal.Frame([]byte(fmt.Sprintf(`{"digest":%q,"fitness":-5}`, digest)))
		if err != nil {
			t.Fatal(err)
		}
		data = payload
	default:
		t.Fatalf("unknown mangle %q", how)
	}
	if err := os.WriteFile(path, data, 0o644); err != nil {
		t.Fatalf("mangle: %v", err)
	}
	return path
}

func TestCorruptEntriesQuarantine(t *testing.T) {
	for _, how := range []string{"bitflip", "torn", "empty", "garbage", "alias", "negative"} {
		t.Run(how, func(t *testing.T) {
			s := open(t, t.TempDir(), 0)
			s.Put(td(7777), 42) // alias source
			d := td(1)
			s.Put(d, 5)
			mangle(t, s, d, how)

			fit, ok, corrupt := s.Get(d)
			if ok || !corrupt || fit != 0 {
				t.Fatalf("corrupt Get = %d,%v,%v, want 0,false,true", fit, ok, corrupt)
			}
			if _, err := os.Stat(s.entryPath(d)); !os.IsNotExist(err) {
				t.Fatal("corrupt entry still present after quarantine")
			}
			if _, err := os.Stat(s.quarantinePath(d)); err != nil {
				t.Fatalf("quarantined copy missing: %v", err)
			}
			// A second read is a plain miss, not a second corruption.
			if _, ok, corrupt := s.Get(d); ok || corrupt {
				t.Fatalf("second Get after quarantine: ok=%v corrupt=%v", ok, corrupt)
			}
			st := s.Stats()
			if st.Corrupt != 1 || st.Quarantined != 1 {
				t.Fatalf("stats after quarantine: %+v", st)
			}
			// The slot is writable again.
			s.Put(d, 6)
			if fit, ok, _ := s.Get(d); !ok || fit != 6 {
				t.Fatalf("rewrite after quarantine: %d,%v", fit, ok)
			}
		})
	}
}

func TestLRUEviction(t *testing.T) {
	s := open(t, t.TempDir(), 0)
	s.Put(td(1), 1)
	entrySize := s.Stats().Bytes
	if entrySize <= 0 {
		t.Fatal("no bytes accounted")
	}
	// Budget for exactly three entries.
	s.maxBytes = 3 * entrySize
	s.Put(td(2), 2)
	s.Put(td(3), 3)
	// Touch 1 so 2 becomes the least recently used.
	if _, ok, _ := s.Get(td(1)); !ok {
		t.Fatal("warm Get missed")
	}
	s.Put(td(4), 4)
	if _, ok, _ := s.Get(td(2)); ok {
		t.Fatal("LRU entry survived eviction")
	}
	for _, i := range []int{1, 3, 4} {
		if _, ok, _ := s.Get(td(i)); !ok {
			t.Fatalf("entry %d evicted out of LRU order", i)
		}
	}
	if st := s.Stats(); st.Evicted != 1 || st.Entries != 3 {
		t.Fatalf("stats after eviction: %+v", st)
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
	// The AfterWrite seam damages every entry as it lands; every read must
	// come back as a quarantining corruption, never a wrong answer.
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
			t.Fatalf("entry %d: ok=%v corrupt=%v, want quarantine", i, ok, corrupt)
		}
	}
	if st := s.Stats(); st.Corrupt != 5 || st.Quarantined != 5 {
		t.Fatalf("stats: %+v", st)
	}
}

func TestVerifyAndGC(t *testing.T) {
	dir := t.TempDir()
	s := open(t, dir, 0)
	for i := 0; i < 6; i++ {
		s.Put(td(i), i)
	}
	mangle(t, s, td(0), "bitflip")
	mangle(t, s, td(1), "torn")

	rep := s.Verify()
	if rep.Checked != 6 || rep.Corrupt != 2 || rep.Intact != 4 || rep.Quarantined != 2 {
		t.Fatalf("verify: %+v", rep)
	}
	// Verify already quarantined the bad ones; a second pass is clean.
	if rep := s.Verify(); rep.Corrupt != 0 || rep.Checked != 4 {
		t.Fatalf("second verify: %+v", rep)
	}

	gc := s.GC()
	if gc.Purged != 2 || gc.Entries != 4 {
		t.Fatalf("gc: %+v", gc)
	}
	if st := s.Stats(); st.Quarantined != 0 {
		t.Fatalf("quarantine not emptied: %+v", st)
	}

	// GC under a tight budget evicts down to it.
	s.maxBytes = 1
	gc = s.GC()
	if gc.Entries != 1 || gc.Evicted != 3 {
		t.Fatalf("gc under budget: %+v", gc)
	}
}

func TestClosedStoreIsInert(t *testing.T) {
	s := open(t, t.TempDir(), 0)
	s.Put(td(1), 1)
	s.Close()
	s.Put(td(2), 2)
	if _, ok, _ := s.Get(td(1)); ok {
		t.Fatal("closed store answered a Get")
	}
	if _, err := os.Stat(s.entryPath(td(2))); !os.IsNotExist(err) {
		t.Fatal("closed store wrote an entry")
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

func TestScanSkipsTempFiles(t *testing.T) {
	dir := t.TempDir()
	s := open(t, dir, 0)
	s.Put(td(1), 1)
	// A crashed writer's leftover temp file must not be indexed.
	tmp := filepath.Join(dir, "entries", td(2)[:2], td(2)+".tmp123")
	os.MkdirAll(filepath.Dir(tmp), 0o755)
	os.WriteFile(tmp, []byte("partial"), 0o644)
	s2 := open(t, dir, 0)
	if st := s2.Stats(); st.Entries != 1 {
		t.Fatalf("temp file indexed: %+v", st)
	}
}

// TestPutPublishesWholeEntries pins the write discipline: a Put leaves the
// entry under its final name and nothing else — no temp file, in a shard
// directory made on demand — and a Store opened before the write reads it
// with no reindexing.
func TestPutPublishesWholeEntries(t *testing.T) {
	dir := t.TempDir()
	a := open(t, dir, 0)
	b := open(t, dir, 0)
	if shards, _ := os.ReadDir(filepath.Join(dir, "entries")); len(shards) != 0 {
		t.Fatalf("fresh store already has %d shard directories", len(shards))
	}
	var want, got []string
	for i := 0; i < 20; i++ {
		a.Put(td(i), i)
		want = append(want, filepath.Join(td(i)[:2], td(i)))
	}
	sort.Strings(want)
	root := filepath.Join(dir, "entries")
	err := filepath.WalkDir(root, func(path string, d os.DirEntry, err error) error {
		if err != nil || d.IsDir() {
			return err
		}
		fi, err := d.Info()
		if err != nil {
			return err
		}
		if fi.Mode().Perm() != 0o644 {
			t.Errorf("%s: mode %v, want 0644", path, fi.Mode().Perm())
		}
		rel, _ := filepath.Rel(root, path)
		got = append(got, rel) // WalkDir visits in lexical order
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("entries/ holds %v, want exactly %v", got, want)
	}
	for i := 0; i < 20; i++ {
		if fit, ok, corrupt := b.Get(td(i)); !ok || corrupt || fit != i {
			t.Fatalf("second store Get(%d) = %d,%v,%v", i, fit, ok, corrupt)
		}
	}
	if st := a.Stats(); st.WriteErrors != 0 || st.Entries != 20 {
		t.Fatalf("stats: %+v", st)
	}
}

// TestFailedPublishLeavesNoTempFile: a write that cannot be renamed into
// place is counted, forgotten, and cleans up after itself.
func TestFailedPublishLeavesNoTempFile(t *testing.T) {
	dir := t.TempDir()
	s := open(t, dir, 0)
	// A directory squatting on the entry's name makes the rename fail.
	if err := os.MkdirAll(filepath.Join(s.entryPath(td(1)), "x"), 0o755); err != nil {
		t.Fatal(err)
	}
	s.Put(td(1), 1)
	if st := s.Stats(); st.WriteErrors != 1 || st.Entries != 0 {
		t.Fatalf("stats: %+v", st)
	}
	ents, err := os.ReadDir(filepath.Dir(s.entryPath(td(1))))
	if err != nil {
		t.Fatal(err)
	}
	if len(ents) != 1 || ents[0].Name() != td(1) {
		t.Fatalf("shard after failed Put: %v", ents)
	}
}

// BenchmarkPut is one cold evaluation-store write: a distinct digest into
// a fresh store, so every iteration creates a file (and, for the first
// entry of a shard, its directory).
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

func FuzzStoreRead(f *testing.F) {
	// Seed with a valid entry, a truncation, and a few classic mutations;
	// the property is total: decodeRecord either returns a well-formed
	// record or an error, and Get on arbitrary bytes never reports ok with
	// a digest mismatch.
	d := td(1)
	payload, _ := journal.Frame([]byte(fmt.Sprintf(`{"digest":%q,"fitness":3}`, d)))
	f.Add(payload)
	f.Add(payload[:len(payload)/2])
	f.Add([]byte{})
	f.Add([]byte{0xff, 0xff, 0xff, 0xff, 0, 0, 0, 0})
	f.Fuzz(func(t *testing.T, data []byte) {
		rec, err := decodeRecord(data)
		if err == nil && rec.Digest == "" {
			// Decoded clean but carries no digest: Get must still reject it.
			_ = rec
		}
		dir := t.TempDir()
		s, err := Open(dir, 0)
		if err != nil {
			t.Skip()
		}
		path := s.entryPath(d)
		os.MkdirAll(filepath.Dir(path), 0o755)
		os.WriteFile(path, data, 0o644)
		fit, ok, _ := s.Get(d)
		if ok {
			rec, err := decodeRecord(data)
			if err != nil || rec.Digest != d || rec.Fitness != fit {
				t.Fatalf("Get accepted bytes that do not verify: fit=%d rec=%+v err=%v", fit, rec, err)
			}
		}
	})
}
