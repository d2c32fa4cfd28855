// Package evalstore is the durable layer under the engine's in-memory
// evaluation cache: a disk-backed content-addressed store mapping the
// SHA-256 digest of a post-edit configuration set to the fitness
// (failing-intent count) validation computed for it. Fitness is a pure
// function of the configuration set under a fixed problem, so entries are
// exact and never expire — repair sessions and daemon workers sharing one
// cache directory pay for each distinct evaluation once.
//
// The store is advisory by contract. It may lose entries (eviction, ENOSPC,
// crashes), refuse them (I/O errors), or reject what it finds on disk (bit
// rot, torn writes, hostile files) — and none of that may ever change a
// repair's result, only its cost. Concretely:
//
//   - Every entry is one CRC-framed record (the journal's WAL framing,
//     [length][CRC-32C][JSON payload]) whose payload repeats the digest it
//     is stored under. A read verifies frame length, checksum, and digest;
//     any mismatch quarantines the file and reports a corruption-flagged
//     miss, falling back to simulation.
//   - A write is a temp file in the entry's shard renamed into place, under
//     a blocking flock on the store's lock file: concurrent writers — other
//     workers, other processes — serialize, and readers only
//     ever observe a whole entry or none. Nothing is fsync'd. A power cut
//     can therefore leave an entry empty or short, and that is the torn
//     write the read-side verification above already turns into a
//     quarantined miss; durability would buy a guarantee this package
//     disclaims, at two fsyncs an evaluation.
//   - Eviction is LRU by a logical recency clock seeded from entry mtimes,
//     bounded by a byte budget. A reader racing a concurrent eviction sees
//     ENOENT: a miss.
//   - Every failure path degrades to a cache miss and a counter bump; no
//     Store method can fail a repair.
//
// Layout of a cache directory:
//
//	cachedir/
//	  store.lock        # flock'd during writes and eviction
//	  entries/ab/<digest>   # one framed record per digest, sharded by prefix
//	  quarantine/<digest>   # entries that failed verification, kept for autopsy
package evalstore

import (
	"encoding/json"
	"errors"
	"fmt"
	"io/fs"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"sync"
	"time"

	"acr/internal/journal"
)

// DefaultMaxBytes is the eviction budget when none is configured: large
// enough that a busy daemon's working set never thrashes, small enough to
// forget about.
const DefaultMaxBytes int64 = 256 << 20

// Hooks are the storage fault-injection seams (internal/chaos wires them;
// production stores leave them nil). BeforeRead and BeforeWrite may return
// an error to inject an I/O failure; AfterWrite sees the entry path after a
// successful write and may corrupt it in place to simulate at-rest damage.
type Hooks struct {
	BeforeRead  func(digest string) error
	BeforeWrite func(digest string) error
	AfterWrite  func(path string)
}

// Stats is a point-in-time snapshot of one Store's counters and footprint.
// Hit/miss/corrupt count this process's reads; Entries/Bytes reflect the
// store's view of the directory (other processes may have added entries it
// has not observed yet).
type Stats struct {
	Hits        int64 `json:"hits"`
	Misses      int64 `json:"misses"`
	Corrupt     int64 `json:"corrupt"`
	Evicted     int64 `json:"evicted"`
	ReadErrors  int64 `json:"readErrors"`
	WriteErrors int64 `json:"writeErrors"`
	Entries     int   `json:"entries"`
	Bytes       int64 `json:"bytes"`
	Quarantined int   `json:"quarantined"`
}

// record is an entry's JSON payload. Digest repeats the name the entry is
// stored under so a renamed, copied, or hostile file cannot answer for a
// different configuration set: content addresses are verified, not trusted.
type record struct {
	Digest  string `json:"digest"`
	Fitness int    `json:"fitness"`
}

// entryInfo is the in-memory bookkeeping for one entry.
type entryInfo struct {
	size  int64
	stamp int64 // logical recency; higher = more recently used
}

// Store is a disk-backed content-addressed evaluation store. All methods
// are safe for concurrent use by multiple goroutines, and any number of
// Stores (in any number of processes) may share one directory.
type Store struct {
	dir      string
	maxBytes int64

	mu     sync.Mutex
	hooks  Hooks
	idx    map[string]entryInfo
	bytes  int64
	clock  int64 // logical recency clock (seeded from mtimes, not wall time)
	closed bool

	hits, misses, corrupt, evicted int64
	readErrs, writeErrs            int64
}

// Open opens (creating as needed) the store in dir with the given eviction
// budget in bytes (<= 0 selects DefaultMaxBytes). Existing entries are
// indexed with recency seeded from their mtimes; unreadable entries are
// simply not indexed — they will be verified (and quarantined if bad) when
// first read.
func Open(dir string, maxBytes int64) (*Store, error) {
	if maxBytes <= 0 {
		maxBytes = DefaultMaxBytes
	}
	if err := os.MkdirAll(filepath.Join(dir, "entries"), 0o755); err != nil {
		return nil, fmt.Errorf("evalstore: %w", err)
	}
	if err := os.MkdirAll(filepath.Join(dir, "quarantine"), 0o755); err != nil {
		return nil, fmt.Errorf("evalstore: %w", err)
	}
	s := &Store{dir: dir, maxBytes: maxBytes, idx: map[string]entryInfo{}}
	s.scan()
	return s, nil
}

// SetHooks installs fault-injection seams (testing only).
func (s *Store) SetHooks(h Hooks) {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.hooks = h
}

// Dir returns the store's directory.
func (s *Store) Dir() string { return s.dir }

// scan rebuilds the index from the directory. Caller holds no lock (Open)
// or s.mu (GC). Recency stamps come from file mtimes so LRU order survives
// restarts; the logical clock resumes past the newest stamp seen.
func (s *Store) scan() {
	idx := map[string]entryInfo{}
	var bytes, clock int64
	shards, _ := os.ReadDir(filepath.Join(s.dir, "entries")) // sorted
	for _, sh := range shards {
		if !sh.IsDir() {
			continue
		}
		ents, _ := os.ReadDir(filepath.Join(s.dir, "entries", sh.Name())) // sorted
		for _, e := range ents {
			if e.IsDir() || strings.Contains(e.Name(), ".tmp") {
				continue
			}
			fi, err := e.Info()
			if err != nil {
				continue
			}
			stamp := fi.ModTime().Unix()
			if stamp > clock {
				clock = stamp
			}
			idx[e.Name()] = entryInfo{size: fi.Size(), stamp: stamp}
			bytes += fi.Size()
		}
	}
	s.idx, s.bytes, s.clock = idx, bytes, clock
}

// validDigest gates what the store will use as a file name: lowercase hex,
// long enough to shard. Anything else is unaddressable and answered as a
// miss — a defense in depth against path escapes, not an expected input
// (core only produces 64-char SHA-256 hex digests).
func validDigest(d string) bool {
	if len(d) < 4 {
		return false
	}
	for _, c := range d {
		if (c < '0' || c > '9') && (c < 'a' || c > 'f') {
			return false
		}
	}
	return true
}

func (s *Store) entryPath(digest string) string {
	return filepath.Join(s.dir, "entries", digest[:2], digest)
}

func (s *Store) quarantinePath(digest string) string {
	return filepath.Join(s.dir, "quarantine", digest)
}

// Get looks a digest up. ok reports a verified entry; corrupt reports that
// a file existed under this digest but failed verification (it has been
// quarantined, and the lookup is a miss). Get never returns an error: every
// failure — injected or real — is a miss.
func (s *Store) Get(digest string) (fitness int, ok, corrupt bool) {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.closed || !validDigest(digest) {
		s.misses++
		return 0, false, false
	}
	if s.hooks.BeforeRead != nil {
		if err := s.hooks.BeforeRead(digest); err != nil {
			s.readErrs++
			s.misses++
			return 0, false, false
		}
	}
	path := s.entryPath(digest)
	data, err := os.ReadFile(path)
	if err != nil {
		if !os.IsNotExist(err) {
			s.readErrs++
		}
		s.misses++
		return 0, false, false
	}
	rec, err := decodeRecord(data)
	if err != nil || rec.Digest != digest || rec.Fitness < 0 {
		s.quarantineLocked(digest, path)
		s.misses++
		return 0, false, true
	}
	s.hits++
	s.touchLocked(digest, path, int64(len(data)))
	return rec.Fitness, true, false
}

// decodeRecord verifies framing and parses one entry payload.
func decodeRecord(data []byte) (record, error) {
	payload, err := journal.Unframe(data)
	if err != nil {
		return record{}, err
	}
	var rec record
	if err := json.Unmarshal(payload, &rec); err != nil {
		return record{}, err
	}
	return rec, nil
}

// quarantineLocked moves a failed entry aside (keeping it for autopsy) and
// forgets it. If even the rename fails, the entry is deleted outright: a
// corrupt file must never be read twice.
func (s *Store) quarantineLocked(digest, path string) {
	s.corrupt++
	if err := os.Rename(path, s.quarantinePath(digest)); err != nil {
		os.Remove(path)
	}
	if info, ok := s.idx[digest]; ok {
		s.bytes -= info.size
		delete(s.idx, digest)
	}
}

// touchLocked records a use of digest for LRU purposes. The stamp is a
// logical clock, not wall time (determinism lint bans time.Now in library
// paths, and logical order is all LRU needs); it is mirrored into the
// file's mtime best-effort so recency survives restarts and is shared
// across processes.
func (s *Store) touchLocked(digest, path string, size int64) {
	s.clock++
	prev, known := s.idx[digest]
	s.idx[digest] = entryInfo{size: size, stamp: s.clock}
	if known {
		s.bytes += size - prev.size
	} else {
		// First sighting of an entry another process wrote.
		s.bytes += size
	}
	_ = os.Chtimes(path, time.Unix(s.clock, 0), time.Unix(s.clock, 0))
}

// Put stores a fitness under its digest. First write wins; rewriting an
// identical record would be harmless but is skipped. Put never returns an
// error: a failed write (injected fault, ENOSPC, unwritable directory) is
// counted and forgotten — the entry simply is not there next time.
func (s *Store) Put(digest string, fitness int) {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.closed || !validDigest(digest) || fitness < 0 {
		return
	}
	if _, ok := s.idx[digest]; ok {
		return
	}
	if s.hooks.BeforeWrite != nil {
		if err := s.hooks.BeforeWrite(digest); err != nil {
			s.writeErrs++
			return
		}
	}
	payload, err := json.Marshal(record{Digest: digest, Fitness: fitness})
	if err != nil {
		s.writeErrs++
		return
	}
	frame, err := journal.Frame(payload)
	if err != nil {
		s.writeErrs++
		return
	}
	path := s.entryPath(digest)
	// Serialize against writers in other processes. A failed lock degrades
	// to an unserialized (still atomic) write rather than a lost entry.
	lock := s.flockStore()
	defer s.unflockStore(lock)
	if err := publish(path, frame); err != nil {
		s.writeErrs++
		return
	}
	if s.hooks.AfterWrite != nil {
		s.hooks.AfterWrite(path)
	}
	s.touchLocked(digest, path, int64(len(frame)))
	s.evictLocked()
}

// publish makes frame visible at path all at once: written to a temp file
// beside it (scan skips the name), then renamed. No fsync — see the package
// comment. The shard directory is made on first use rather than stat'd on
// every write.
func publish(path string, frame []byte) error {
	dir, pattern := filepath.Dir(path), filepath.Base(path)+".tmp*"
	tmp, err := os.CreateTemp(dir, pattern)
	if errors.Is(err, fs.ErrNotExist) {
		if err := os.MkdirAll(dir, 0o755); err != nil {
			return err
		}
		tmp, err = os.CreateTemp(dir, pattern)
	}
	if err != nil {
		return err
	}
	_, err = tmp.Write(frame)
	if err == nil {
		err = tmp.Chmod(0o644)
	}
	if cerr := tmp.Close(); err == nil {
		err = cerr
	}
	if err == nil {
		err = os.Rename(tmp.Name(), path)
	}
	if err != nil {
		os.Remove(tmp.Name())
	}
	return err
}

// flockStore takes the store's cross-process write lock (blocking).
func (s *Store) flockStore() *os.File {
	l, err := os.OpenFile(filepath.Join(s.dir, "store.lock"), os.O_CREATE|os.O_RDWR, 0o644)
	if err != nil {
		return nil
	}
	if err := flockWait(l.Fd()); err != nil {
		l.Close()
		return nil
	}
	return l
}

func (s *Store) unflockStore(l *os.File) {
	if l != nil {
		flockRelease(l.Fd())
		l.Close()
	}
}

// evictLocked enforces the byte budget: least-recently-used entries are
// deleted until the store fits, by (stamp, digest) so ties break the same
// way on every run. The newest entry is never evicted — a single record
// larger than the whole budget would otherwise thrash forever.
func (s *Store) evictLocked() {
	for s.bytes > s.maxBytes && len(s.idx) > 1 {
		victim := ""
		var oldest entryInfo
		for d, info := range s.idx { //acrvet:ordered — min-selection is iteration-order independent
			if victim == "" || info.stamp < oldest.stamp ||
				(info.stamp == oldest.stamp && d < victim) {
				victim, oldest = d, info
			}
		}
		if oldest.stamp >= s.clock {
			return
		}
		os.Remove(s.entryPath(victim))
		s.bytes -= oldest.size
		delete(s.idx, victim)
		s.evicted++
	}
}

// Stats snapshots the store's counters and footprint.
func (s *Store) Stats() Stats {
	s.mu.Lock()
	defer s.mu.Unlock()
	q, _ := os.ReadDir(filepath.Join(s.dir, "quarantine"))
	return Stats{
		Hits:        s.hits,
		Misses:      s.misses,
		Corrupt:     s.corrupt,
		Evicted:     s.evicted,
		ReadErrors:  s.readErrs,
		WriteErrors: s.writeErrs,
		Entries:     len(s.idx),
		Bytes:       s.bytes,
		Quarantined: len(q),
	}
}

// VerifyReport summarizes a full integrity pass.
type VerifyReport struct {
	Checked     int   `json:"checked"`
	Intact      int   `json:"intact"`
	Corrupt     int   `json:"corrupt"`
	Unreadable  int   `json:"unreadable"`
	Bytes       int64 `json:"bytes"`
	Quarantined int   `json:"quarantined"`
}

// Verify reads and verifies every entry in the directory (including ones
// this Store has not observed yet), quarantining failures exactly as a
// read-through would. It is the `acr cache verify` implementation.
func (s *Store) Verify() VerifyReport {
	s.mu.Lock()
	defer s.mu.Unlock()
	var rep VerifyReport
	s.scan()
	digests := make([]string, 0, len(s.idx))
	for d := range s.idx {
		digests = append(digests, d)
	}
	sort.Strings(digests)
	for _, d := range digests {
		rep.Checked++
		path := s.entryPath(d)
		data, err := os.ReadFile(path)
		if err != nil {
			rep.Unreadable++
			continue
		}
		rec, err := decodeRecord(data)
		if err != nil || rec.Digest != d || rec.Fitness < 0 {
			s.quarantineLocked(d, path)
			rep.Corrupt++
			continue
		}
		rep.Intact++
		rep.Bytes += int64(len(data))
	}
	q, _ := os.ReadDir(filepath.Join(s.dir, "quarantine"))
	rep.Quarantined = len(q)
	return rep
}

// GCReport summarizes a garbage-collection pass.
type GCReport struct {
	Entries    int   `json:"entries"`
	Bytes      int64 `json:"bytes"`
	Evicted    int64 `json:"evicted"`
	Purged     int   `json:"purgedQuarantine"`
	FreedBytes int64 `json:"freedBytes"`
}

// GC rebuilds the index from disk (adopting entries other processes wrote),
// enforces the byte budget, and empties the quarantine. It is the
// `acr cache gc` implementation.
func (s *Store) GC() GCReport {
	s.mu.Lock()
	defer s.mu.Unlock()
	lock := s.flockStore()
	defer s.unflockStore(lock)
	s.scan()
	var rep GCReport
	before, beforeEvicted := s.bytes, s.evicted
	s.evictLocked()
	rep.Evicted = s.evicted - beforeEvicted
	rep.FreedBytes = before - s.bytes
	qdir := filepath.Join(s.dir, "quarantine")
	q, _ := os.ReadDir(qdir) // sorted
	for _, e := range q {
		fi, err := e.Info()
		if err == nil {
			rep.FreedBytes += fi.Size()
		}
		if os.Remove(filepath.Join(qdir, e.Name())) == nil {
			rep.Purged++
		}
	}
	rep.Entries, rep.Bytes = len(s.idx), s.bytes
	return rep
}

// Close marks the store closed; subsequent Gets miss and Puts drop. The
// store holds no descriptors between calls, so there is nothing to flush.
func (s *Store) Close() error {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.closed = true
	return nil
}
