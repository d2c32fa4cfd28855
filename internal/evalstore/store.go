// Package evalstore is the durable layer under the engine's in-memory
// evaluation cache, shared by processes through one directory: it maps a
// SHA-256 key of a problem and a post-edit configuration set to fitness.
//
// The directory holds store.log, an append-only log of journal frames whose
// payloads repeat their digest, and store.lock, flock'd by writers; each
// Store indexes the log in memory. The store is advisory: a hit verifies
// its frame, and every failure — a damaged frame (reported corrupt), an
// I/O error, a lost entry — is a miss. Readers never lock or modify the
// log; nothing is fsync'd. An append that would pass the byte budget first
// renames an empty log over the old one, which other Stores keep reading,
// intact, until they see the new inode.
package evalstore

import (
	"encoding/binary"
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"sync"

	"acr/internal/journal"
)

// DefaultMaxBytes is the generation budget when none is configured.
const DefaultMaxBytes int64 = 256 << 20

// Hooks are the fault-injection seams internal/chaos wires. BeforeRead and
// BeforeWrite may return an error to inject an I/O failure; AfterWrite
// sees the log's path after an append and may damage it in place.
type Hooks struct {
	BeforeRead  func(digest string) error
	BeforeWrite func(digest string) error
	AfterWrite  func(path string)
}

// Stats snapshots one Store's counters, which count its own reads, and its
// view of the log as of its last look.
type Stats struct {
	Hits        int64 `json:"hits"`
	Misses      int64 `json:"misses"`
	Corrupt     int64 `json:"corrupt"`
	Evicted     int64 `json:"evicted"`
	ReadErrors  int64 `json:"readErrors"`
	WriteErrors int64 `json:"writeErrors"`
	Entries     int   `json:"entries"`
	Bytes       int64 `json:"bytes"`
}

// record is a frame's JSON payload.
type record struct {
	Digest  string `json:"digest"`
	Fitness int    `json:"fitness"`
}

type span struct{ off, n int64 } // one frame's place in the log

// Store is a log-backed evaluation store, safe for concurrent use. Any
// number of Stores in any number of processes may share one directory.
type Store struct {
	path     string
	maxBytes int64
	lock     *os.File // store.lock

	mu     sync.Mutex
	hooks  Hooks
	f      *os.File    // the generation of store.log being read
	fi     os.FileInfo // f's identity, to notice a new generation
	idx    map[string]span
	end    int64 // frames before this offset are indexed
	closed bool

	hits, misses, corrupt, evicted int64
	readErrs, writeErrs            int64
}

// Open opens (creating as needed) the store in dir with the given byte
// budget (<= 0 selects DefaultMaxBytes) and indexes its log.
func Open(dir string, maxBytes int64) (*Store, error) {
	if maxBytes <= 0 {
		maxBytes = DefaultMaxBytes
	}
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, fmt.Errorf("evalstore: %w", err)
	}
	lock, err := os.OpenFile(filepath.Join(dir, "store.lock"), os.O_CREATE|os.O_RDWR, 0o644)
	if err != nil {
		return nil, fmt.Errorf("evalstore: %w", err)
	}
	s := &Store{path: filepath.Join(dir, "store.log"), maxBytes: maxBytes, lock: lock}
	if _, err := s.catchUp(); err != nil {
		lock.Close()
		return nil, fmt.Errorf("evalstore: %w", err)
	}
	return s, nil
}

// SetHooks installs fault-injection seams (testing only).
func (s *Store) SetHooks(h Hooks) {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.hooks = h
}

// validDigest gates what the store will index: lowercase hex of a hash's
// length. Anything else is unaddressable and a miss.
func validDigest(d string) bool {
	return len(d) >= 4 && len(d) <= 128 && strings.Trim(d, "0123456789abcdef") == ""
}

// catchUp indexes the frames appended since the last look (one stat if
// none) and returns the log's size; s.end stops after the last frame that
// names its digest. A new generation is reopened. A log that shrank in
// place is rescanned, keeping entries past its end for Get to report.
func (s *Store) catchUp() (int64, error) {
	fi, err := os.Stat(s.path)
	if err != nil || !os.SameFile(fi, s.fi) {
		f, err := os.OpenFile(s.path, os.O_CREATE|os.O_RDWR, 0o644)
		if err != nil {
			return 0, err
		}
		if fi, err = f.Stat(); err != nil {
			f.Close()
			return 0, err
		}
		s.f.Close() // a no-op on the nil file of a fresh Store
		s.f, s.fi, s.idx, s.end = f, fi, map[string]span{}, 0
	}
	size := fi.Size()
	if size < s.end {
		s.end = 0
	}
	if size == s.end {
		return size, nil
	}
	buf := make([]byte, size-s.end)
	if _, err := s.f.ReadAt(buf, s.end); err != nil {
		return 0, err
	}
	base, good := s.end, 0
	scan(buf, func(off, n int, rec record, _ bool) {
		if rec.Digest == "" {
			return
		}
		if _, dup := s.idx[rec.Digest]; !dup {
			s.idx[rec.Digest] = span{base + int64(off), int64(n)}
		}
		good = off + n
	})
	s.end = base + int64(good)
	return size, nil
}

// scan hands fn each whole frame in buf and returns where it stopped, at a
// partial frame.
func scan(buf []byte, fn func(off, n int, rec record, intact bool)) int {
	off := 0
	for off+8 <= len(buf) {
		n := 8 + int64(binary.BigEndian.Uint32(buf[off:]))
		if int64(off)+n > int64(len(buf)) {
			break
		}
		rec, intact := decode(buf[off : off+int(n)])
		fn(off, int(n), rec, intact)
		off += int(n)
	}
	return off
}

// decode parses a frame of at least 8 bytes. rec names a valid digest even
// if the CRC fails, so damage is reported against it; intact adds that
// length, CRC and fitness verify.
func decode(frame []byte) (rec record, intact bool) {
	_, err := journal.Unframe(frame)
	if json.Unmarshal(frame[8:], &rec) != nil || !validDigest(rec.Digest) {
		return record{}, false
	}
	return rec, err == nil && rec.Fitness >= 0
}

// Get looks a digest up. ok reports a verified frame; corrupt, a frame for
// the digest that failed verification and is dropped. Failures are misses.
func (s *Store) Get(digest string) (fitness int, ok, corrupt bool) {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.misses++ // taken back on a hit
	if s.closed || !validDigest(digest) {
		return 0, false, false
	}
	if s.hooks.BeforeRead != nil && s.hooks.BeforeRead(digest) != nil {
		s.readErrs++
		return 0, false, false
	}
	at, found := s.idx[digest]
	if !found {
		if _, err := s.catchUp(); err != nil {
			s.readErrs++
		}
		if at, found = s.idx[digest]; !found {
			return 0, false, false
		}
	}
	// A frame that cannot be read back whole (truncated, unreadable) leaves
	// zeroes in buf and fails verification.
	buf := make([]byte, at.n)
	s.f.ReadAt(buf, at.off)
	rec, intact := decode(buf)
	if !intact || rec.Digest != digest {
		delete(s.idx, digest)
		s.corrupt++
		return 0, false, true
	}
	s.misses--
	s.hits++
	return rec.Fitness, true, false
}

// Put stores a fitness under its digest; first write wins. A failed write
// is counted and forgotten: the entry simply is not there next time.
func (s *Store) Put(digest string, fitness int) {
	s.mu.Lock()
	defer s.mu.Unlock()
	if _, ok := s.idx[digest]; ok || s.closed || !validDigest(digest) || fitness < 0 {
		return
	}
	if s.hooks.BeforeWrite != nil && s.hooks.BeforeWrite(digest) != nil {
		s.writeErrs++
		return
	}
	defer flock(s.lock)()
	// validDigest keeps the payload far below journal.Frame's limit.
	frame, _ := journal.Frame([]byte(fmt.Sprintf(`{"digest":%q,"fitness":%d}`, digest, fitness)))
	if err := s.append(digest, frame); err != nil {
		s.writeErrs++
	} else if s.hooks.AfterWrite != nil {
		s.hooks.AfterWrite(s.path)
	}
}

// append adds one frame to the log. The caller holds the store lock, so
// anything past the last frame that names its digest is a torn tail, cut.
func (s *Store) append(digest string, frame []byte) error {
	size, err := s.catchUp()
	if _, ok := s.idx[digest]; ok || err != nil {
		return err // another Store wrote it first, or the log is unreadable
	}
	if dropped := len(s.idx); s.end > 0 && s.end+int64(len(frame)) > s.maxBytes {
		if err := s.replace(nil); err != nil {
			return err
		}
		s.evicted += int64(dropped)
	} else if size > s.end {
		if err := s.f.Truncate(s.end); err != nil {
			return err
		}
	}
	if _, err := s.f.WriteAt(frame, s.end); err != nil {
		return err
	}
	s.idx[digest] = span{s.end, int64(len(frame))}
	s.end += int64(len(frame))
	return nil
}

// replace starts a new generation holding data, whole intact frames,
// written beside the log and renamed over it under the store lock.
func (s *Store) replace(data []byte) error {
	tmp := s.path + ".new"
	err := os.WriteFile(tmp, data, 0o644)
	if err == nil {
		err = os.Rename(tmp, s.path)
	}
	if err != nil {
		os.Remove(tmp)
		return err
	}
	_, err = s.catchUp()
	return err
}

// Stats snapshots the store's counters and footprint.
func (s *Store) Stats() Stats {
	s.mu.Lock()
	defer s.mu.Unlock()
	return Stats{Hits: s.hits, Misses: s.misses, Corrupt: s.corrupt, Evicted: s.evicted,
		ReadErrors: s.readErrs, WriteErrors: s.writeErrs, Entries: len(s.idx), Bytes: s.end}
}

// VerifyReport summarizes a full integrity pass over the log. A tail that
// is not a whole frame counts as one corrupt frame.
type VerifyReport struct {
	Checked    int `json:"checked"`
	Intact     int `json:"intact"`
	Corrupt    int `json:"corrupt"`
	Unreadable int `json:"unreadable"`
}

// Verify reads and verifies every frame of the log, modifying nothing.
func (s *Store) Verify() VerifyReport {
	rep, _, _ := s.audit()
	return rep
}

// audit counts the log's frames and gathers keep, the intact first
// occurrence of each digest while they fit the budget, and evicted, the rest.
func (s *Store) audit() (rep VerifyReport, keep []byte, evicted int64) {
	data, err := os.ReadFile(s.path)
	if err != nil {
		rep.Unreadable++
	}
	seen := map[string]bool{}
	if scan(data, func(off, n int, rec record, intact bool) {
		rep.Checked++
		if !intact {
			return
		}
		rep.Intact++
		if seen[rec.Digest] {
			return
		} else if len(keep) > 0 && int64(len(keep)+n) > s.maxBytes {
			evicted++
			return
		}
		seen[rec.Digest] = true
		keep = append(keep, data[off:off+n]...)
	}) < len(data) {
		rep.Checked++
	}
	rep.Corrupt = rep.Checked - rep.Intact
	return rep, keep, evicted
}

// GCReport summarizes a GC pass. Purged counts damaged frames dropped (a
// damaged tail as one); Evicted, intact entries the budget had no room for.
type GCReport struct {
	Entries int   `json:"entries"`
	Bytes   int64 `json:"bytes"`
	Evicted int64 `json:"evicted"`
	Purged  int   `json:"purged"`
}

// GC compacts the log into a new generation: the intact first occurrence
// of each digest, in log order, up to the budget. It deletes the entries/
// and quarantine/ trees an older one-file-per-entry layout left behind.
func (s *Store) GC() GCReport {
	s.mu.Lock()
	defer s.mu.Unlock()
	defer flock(s.lock)()
	v, keep, evicted := s.audit() // an unreadable log starts over empty
	if err := s.replace(keep); err != nil {
		s.writeErrs++
	}
	for _, legacy := range []string{"entries", "quarantine"} {
		os.RemoveAll(filepath.Join(filepath.Dir(s.path), legacy))
	}
	s.evicted += evicted
	return GCReport{Entries: len(s.idx), Bytes: s.end, Evicted: evicted, Purged: v.Corrupt}
}

// Close marks the store closed and releases its files; subsequent Gets
// miss and Puts drop.
func (s *Store) Close() error {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.closed = true
	s.lock.Close()
	return s.f.Close()
}
