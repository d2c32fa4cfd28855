// Package journal is the durable session layer of the repair engine: an
// append-only write-ahead journal that makes long repair runs crash-safe.
//
// A session is one file in its directory:
//
//	journaldir/
//	  wal.log  # length-prefixed, CRC-checksummed JSON records
//
// The WAL is a sequence of framed records:
//
//	[4-byte big-endian payload length][4-byte big-endian CRC-32C][payload]
//
// The payload is one JSON-encoded Record. Records carry monotonically
// increasing sequence numbers; the first record of a session is always a
// header. The engine appends candidate and iteration events as it works
// and a full Checkpoint (population, best-effort state, counters, RNG-free
// restart state) at every iteration boundary; a graceful end appends a
// terminal record. Header, checkpoint and terminal records are fsynced,
// events are not: recovery restarts from the last checkpoint, so an
// event's durability buys nothing. A SIGKILL, OOM-kill, or power cut
// leaves at worst a torn final frame, which the replayer detects (short
// frame or CRC mismatch) and recovers past: Replay returns the state at
// the last valid record, never a partially applied one.
//
// A Writer holds an exclusive flock on the WAL's own descriptor. Older
// engines also left a lock file and a checkpoint.json copy of the newest
// checkpoint in the directory; the lock file is ignored, and Replay still
// reads checkpoint.json so their sessions recover. Nothing writes either.
package journal

import (
	"encoding/binary"
	"encoding/json"
	"errors"
	"fmt"
	"hash/crc32"
	"os"
	"path/filepath"
)

// Version is the on-disk format version written into headers.
const Version = 1

// maxRecordSize bounds a frame's declared payload length so a corrupt
// length prefix cannot make the replayer allocate gigabytes.
const maxRecordSize = 16 << 20

// castagnoli is the CRC-32C table (the WAL checksum polynomial).
var castagnoli = crc32.MakeTable(crc32.Castagnoli)

// Type discriminates WAL records.
type Type string

// Record types.
const (
	// TypeHeader opens a session: identity of the case and options.
	TypeHeader Type = "header"
	// TypeCandidate is one validated candidate and its fitness.
	TypeCandidate Type = "candidate"
	// TypeIteration closes one localize-fix-validate round.
	TypeIteration Type = "iteration"
	// TypeCheckpoint is a full engine-state snapshot at an iteration
	// boundary — the unit of recovery.
	TypeCheckpoint Type = "checkpoint"
	// TypeTerminal closes a session gracefully.
	TypeTerminal Type = "terminal"
	// TypeOwner is read-only: multi-node daemons appended one right after
	// the header, naming the node that ran the attempt. Replay skips it;
	// nothing writes it.
	TypeOwner Type = "owner"
)

// Record is the WAL envelope. Exactly one payload field matching Type is
// populated.
type Record struct {
	Seq  int  `json:"seq"`
	Type Type `json:"type"`

	Header     *Header     `json:"header,omitempty"`
	Candidate  *Candidate  `json:"candidate,omitempty"`
	Iteration  *Iteration  `json:"iteration,omitempty"`
	Checkpoint *Checkpoint `json:"checkpoint,omitempty"`
	Terminal   *Terminal   `json:"terminal,omitempty"`
	// Owner is TypeOwner's payload, kept undecoded: frames reject unknown
	// fields, so it stays for older WALs to replay.
	Owner json.RawMessage `json:"owner,omitempty"`
}

// Header identifies the session. Resume refuses to continue a session
// whose digests do not match the case and options it was started with:
// replaying a journal against a different problem would silently produce
// garbage.
type Header struct {
	Version int    `json:"version"`
	Case    string `json:"case"`
	// CaseDigest hashes the topology, configurations, and intents.
	CaseDigest string `json:"caseDigest"`
	// OptionsDigest hashes every option that steers the search.
	OptionsDigest string `json:"optionsDigest"`
	Seed          int64  `json:"seed"`
}

// Candidate is one validated candidate event (observability; recovery
// state lives in checkpoints — except Digest, which additionally lets a
// resumed run warm its content-addressed fitness cache).
type Candidate struct {
	Iteration int    `json:"iteration"`
	Desc      string `json:"desc"`
	Fitness   int    `json:"fitness"`
	// Digest is the content digest of the candidate's post-edit
	// configuration set (empty in journals written before the evaluation
	// cache existed, or when caching is disabled).
	Digest string `json:"digest,omitempty"`
	// Refuted records that the static impact analysis answered this
	// candidate without simulation (its impact set was disjoint from
	// every intent's dependencies).
	Refuted bool `json:"refuted,omitempty"`
}

// Iteration is one entry of the engine's Result.Logs: the event appended
// when an iteration closes, and each element of a checkpoint's Logs.
type Iteration struct {
	Iteration   int     `json:"iteration"`
	Generated   int     `json:"generated"`
	Validated   int     `json:"validated"`
	Kept        int     `json:"kept"`
	BestFitness int     `json:"bestFitness"`
	Top         []Score `json:"top,omitempty"`
}

// Score is one suspicious line in an iteration log (a dependency-free
// mirror of sbfl.Score).
type Score struct {
	Device string  `json:"device"`
	Line   int     `json:"line"`
	Susp   float64 `json:"susp"`
	Failed int     `json:"failed"`
	Passed int     `json:"passed"`
	Prior  float64 `json:"prior,omitempty"`
}

// Member is one preserved population member. Configurations are stored as
// raw line slices so restoration is byte-exact (text round-trips would
// drop trailing blank lines).
type Member struct {
	Configs map[string][]string `json:"configs"`
	Descs   []string            `json:"descs,omitempty"`
	Fitness int                 `json:"fitness"`
}

// BestEffort is the best configuration version seen so far.
type BestEffort struct {
	Fitness int                 `json:"fitness"`
	Configs map[string][]string `json:"configs"`
	Applied []string            `json:"applied,omitempty"`
}

// Counters snapshots the run's cumulative counters, so a resumed run's
// totals equal the uninterrupted run's.
type Counters struct {
	CandidatesValidated   int `json:"candidatesValidated"`
	PrefixSimulations     int `json:"prefixSimulations"`
	IntentChecks          int `json:"intentChecks"`
	TemplatesPrunedStatic int `json:"templatesPrunedStatic"`
	CandidatesPanicked    int `json:"candidatesPanicked"`
	CacheHits             int `json:"cacheHits,omitempty"`
	CacheMisses           int `json:"cacheMisses,omitempty"`
	StaticallyRefuted     int `json:"staticallyRefuted,omitempty"`
	ImpactScoped          int `json:"impactScoped,omitempty"`
	ImpactBroad           int `json:"impactBroad,omitempty"`
	DeltaReused           int `json:"deltaReused,omitempty"`
	DeltaResimulated      int `json:"deltaResimulated,omitempty"`
	SimActivations        int `json:"simActivations,omitempty"`

	// LeafDerivations, CandidatesTimedOut and ValidationRetries are
	// read-only: older engines wrote them, and frames reject unknown
	// fields, so they stay for their checkpoints to decode. They are read
	// and ignored; nothing writes them.
	LeafDerivations    int `json:"leafDerivations,omitempty"`
	CandidatesTimedOut int `json:"candidatesTimedOut,omitempty"`
	ValidationRetries  int `json:"validationRetries,omitempty"`
}

// ErrorEvent is a flattened engine error (stacks and wrapped causes do not
// survive serialization; messages and counts do).
type ErrorEvent struct {
	Kind      string `json:"kind"`
	Op        string `json:"op"`
	Candidate string `json:"candidate,omitempty"`
	Message   string `json:"message,omitempty"`
}

// Checkpoint is a complete restart point at an iteration boundary. The
// engine derives every random stream from (seed, iteration) and
// (seed, version descs), so no RNG state needs to be stored: restoring the
// fields below and re-entering the loop at Iteration+1 reproduces the
// straight-through run exactly.
type Checkpoint struct {
	// Iteration is the last completed iteration (0 = only the base version
	// has been verified).
	Iteration int `json:"iteration"`
	// PrevFitness, Widen, BestEver, Stagnant are the loop-control state at
	// the top of iteration Iteration+1.
	PrevFitness int `json:"prevFitness"`
	Widen       int `json:"widen"`
	BestEver    int `json:"bestEver"`
	Stagnant    int `json:"stagnant"`

	BaseFailing       int `json:"baseFailing"`
	StaticDiagnostics int `json:"staticDiagnostics"`
	PriorSeededLines  int `json:"priorSeededLines"`

	Population []Member     `json:"population"`
	Best       *BestEffort  `json:"best,omitempty"`
	Counters   Counters     `json:"counters"`
	Logs       []Iteration  `json:"logs,omitempty"`
	Errors     []ErrorEvent `json:"errors,omitempty"`
}

// Terminal closes a session. Terminations "deadline" and "canceled" leave
// the session resumable; "feasible", "exhausted", and "iteration-cap" do
// not (the search is over).
type Terminal struct {
	Termination string `json:"termination"`
	Feasible    bool   `json:"feasible"`
}

// AppendHook observes every WAL append before it is written; n is the
// 1-based append count of this Writer. The chaos harness uses it to
// simulate crashes (by panicking or killing the process) at exact points.
// A non-nil error aborts the append.
type AppendHook func(n int, rec *Record) error

// Writer appends to a session's WAL. It is not safe for concurrent use;
// the engine is single-threaded.
type Writer struct {
	dir string
	f   *os.File // the WAL, flocked for the Writer's lifetime
	seq int
	n   int // appends through this Writer
	// Hook, when non-nil, runs before every append (chaos seam).
	Hook AppendHook
}

// ErrLocked reports that another live Writer — usually another process —
// holds a session's exclusive lock. Two appenders interleaving frames in
// one WAL would corrupt it unrecoverably, so Create and Resume refuse
// instead.
var ErrLocked = errors.New("journal: session directory locked by another writer")

// WALPath returns the session's WAL file path.
func WALPath(dir string) string { return filepath.Join(dir, "wal.log") }

// checkpointPath is the checkpoint copy older engines wrote beside the
// WAL; Replay reads it, Create removes it, nothing writes it.
func checkpointPath(dir string) string { return filepath.Join(dir, "checkpoint.json") }

// openWAL opens the session's WAL and takes the exclusive flock on its
// descriptor. The lock dies with the process (so a SIGKILL never wedges
// the session) and conflicts with every other open of the file,
// in-process or not. openWAL never truncates: a refused open must leave a
// live Writer's WAL intact, so callers cut the file only once they hold
// the lock.
func openWAL(dir string, flag int) (*os.File, error) {
	f, err := os.OpenFile(WALPath(dir), flag|os.O_RDWR, 0o644)
	if err != nil {
		return nil, err
	}
	if err := flockExclusive(f.Fd()); err != nil {
		f.Close()
		return nil, fmt.Errorf("%w: %s", ErrLocked, dir)
	}
	return f, nil
}

// Create starts a fresh session in dir (creating it as needed), truncating
// any previous session, and appends the header record. The WAL's
// exclusive lock is held until Close (or process death): a second process
// appending to the same session would interleave frames, so Create fails
// with ErrLocked while another Writer is live.
func Create(dir string, hdr Header) (*Writer, error) {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, err
	}
	f, err := openWAL(dir, os.O_CREATE)
	if err != nil {
		return nil, err
	}
	w := &Writer{dir: dir, f: f}
	if err := f.Truncate(0); err != nil {
		return w.fail(err)
	}
	os.Remove(checkpointPath(dir)) // an older engine's copy must not lead the fresh WAL
	// Make the WAL's existence durable before its first record: a crash
	// right after Create must leave a replayable (if empty) directory, not
	// a directory whose WAL the filesystem forgot.
	if err := SyncDir(dir); err != nil {
		return w.fail(err)
	}
	hdr.Version = Version
	if err := w.append(Record{Type: TypeHeader, Header: &hdr}, true); err != nil {
		return w.fail(err)
	}
	return w, nil
}

// Resume reopens a session's WAL for appending after the given replayed
// session. The WAL is truncated to the end of the record the session
// resumes from — the last valid checkpoint (or the header when none
// exists) — discarding the torn tail and any events past the checkpoint:
// the resumed engine regenerates those events deterministically, so
// keeping them would double-log the replayed iterations. Like Create,
// Resume takes the WAL's exclusive lock first and fails with ErrLocked
// while another Writer is live.
func Resume(dir string, sess *Session) (*Writer, error) {
	f, err := openWAL(dir, 0)
	if err != nil {
		return nil, err
	}
	w := &Writer{dir: dir, f: f, seq: sess.ResumeSeq}
	if err := f.Truncate(sess.ResumeOffset); err != nil {
		return w.fail(err)
	}
	if _, err := f.Seek(sess.ResumeOffset, 0); err != nil {
		return w.fail(err)
	}
	if err := f.Sync(); err != nil {
		return w.fail(err)
	}
	return w, nil
}

// fail closes a Writer that never became usable, releasing its lock.
func (w *Writer) fail(err error) (*Writer, error) {
	w.f.Close()
	return nil, err
}

// append frames and writes one record, assigning its sequence number, and
// fsyncs the WAL when sync is set.
func (w *Writer) append(rec Record, sync bool) error {
	w.n++
	if w.Hook != nil {
		if err := w.Hook(w.n, &rec); err != nil {
			return err
		}
	}
	w.seq++
	rec.Seq = w.seq
	frame, err := encodeFrame(&rec)
	if err != nil {
		return err
	}
	if _, err := w.f.Write(frame); err != nil {
		return err
	}
	if sync {
		return w.f.Sync()
	}
	return nil
}

// AppendCandidate journals one validated candidate.
func (w *Writer) AppendCandidate(c Candidate) error {
	return w.append(Record{Type: TypeCandidate, Candidate: &c}, false)
}

// AppendIteration journals one completed iteration.
func (w *Writer) AppendIteration(it Iteration) error {
	return w.append(Record{Type: TypeIteration, Iteration: &it}, false)
}

// AppendCheckpoint journals a full restart point.
func (w *Writer) AppendCheckpoint(cp Checkpoint) error {
	return w.append(Record{Type: TypeCheckpoint, Checkpoint: &cp}, true)
}

// AppendTerminal journals the session's graceful end.
func (w *Writer) AppendTerminal(t Terminal) error {
	return w.append(Record{Type: TypeTerminal, Terminal: &t}, true)
}

// Appends reports how many records this Writer has appended.
func (w *Writer) Appends() int { return w.n }

// Dir returns the session directory.
func (w *Writer) Dir() string { return w.dir }

// Close syncs and closes the WAL, releasing the session lock.
func (w *Writer) Close() error {
	err := w.f.Sync()
	if cerr := w.f.Close(); err == nil {
		err = cerr
	}
	return err
}

// Abandon closes the WAL descriptor without syncing, releasing the
// session lock — the state a process crash leaves behind (whatever reached
// the page cache survives, nothing is flushed). In-process crash
// simulations (internal/chaos) call it at the crash point so the directory
// is replayable and re-lockable exactly as it would be after a real kill.
func (w *Writer) Abandon() { w.f.Close() }

// encodeFrame renders one framed record.
func encodeFrame(rec *Record) ([]byte, error) {
	payload, err := json.Marshal(rec)
	if err != nil {
		return nil, err
	}
	return Frame(payload)
}

// Frame wraps an arbitrary payload in the WAL's on-disk framing —
// [4-byte big-endian length][4-byte big-endian CRC-32C][payload] — so other
// durable stores (internal/evalstore) share the journal's corruption
// detection instead of inventing a second format.
func Frame(payload []byte) ([]byte, error) {
	if len(payload) > maxRecordSize {
		return nil, fmt.Errorf("journal: record of %d bytes exceeds frame limit", len(payload))
	}
	frame := make([]byte, 8+len(payload))
	binary.BigEndian.PutUint32(frame[0:4], uint32(len(payload)))
	binary.BigEndian.PutUint32(frame[4:8], crc32.Checksum(payload, castagnoli))
	copy(frame[8:], payload)
	return frame, nil
}

// Unframe verifies and strips exactly one frame: the buffer must hold one
// complete record and nothing else. It rejects short buffers, declared
// lengths that disagree with the buffer (a torn tail or appended garbage),
// and CRC mismatches (bit rot). The returned payload aliases b.
func Unframe(b []byte) ([]byte, error) {
	if len(b) < 8 {
		return nil, fmt.Errorf("journal: frame of %d bytes is shorter than its header", len(b))
	}
	n := binary.BigEndian.Uint32(b[0:4])
	if n > maxRecordSize {
		return nil, fmt.Errorf("journal: frame declares %d bytes, above the record limit", n)
	}
	if int(n) != len(b)-8 {
		return nil, fmt.Errorf("journal: frame declares %d payload bytes but holds %d", n, len(b)-8)
	}
	payload := b[8:]
	if got, want := crc32.Checksum(payload, castagnoli), binary.BigEndian.Uint32(b[4:8]); got != want {
		return nil, fmt.Errorf("journal: frame CRC mismatch (stored %08x, computed %08x)", want, got)
	}
	return payload, nil
}

// WriteFileAtomic writes data to path with the temp-file + rename + fsync
// discipline: a crash at any point leaves either the old file or the new
// one, never a torn mix.
func WriteFileAtomic(path string, data []byte, perm os.FileMode) error {
	dir := filepath.Dir(path)
	tmp, err := os.CreateTemp(dir, filepath.Base(path)+".tmp*")
	if err != nil {
		return err
	}
	tmpName := tmp.Name()
	cleanup := func(err error) error {
		tmp.Close()
		os.Remove(tmpName)
		return err
	}
	if _, err := tmp.Write(data); err != nil {
		return cleanup(err)
	}
	if err := tmp.Chmod(perm); err != nil {
		return cleanup(err)
	}
	if err := tmp.Sync(); err != nil {
		return cleanup(err)
	}
	if err := tmp.Close(); err != nil {
		os.Remove(tmpName)
		return err
	}
	if err := os.Rename(tmpName, path); err != nil {
		os.Remove(tmpName)
		return err
	}
	return SyncDir(dir)
}

// SyncDir fsyncs a directory so that a rename, or a file or directory
// created, in it is durable.
func SyncDir(dir string) error {
	d, err := os.Open(dir)
	if err != nil {
		return err
	}
	defer d.Close()
	// Some filesystems refuse to fsync directories; the rename itself is
	// still atomic there, so degrade silently.
	if err := d.Sync(); err != nil && !os.IsPermission(err) {
		return err
	}
	return nil
}
