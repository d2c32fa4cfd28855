// Package journal is the durable session layer of the repair engine: an
// append-only write-ahead journal that makes long repair runs crash-safe.
//
// A CLI session is one file, dir/wal.log (Create, Resume and Replay take
// the directory); a daemon job is one file of its own (CreateFile,
// OpenFile and LastJob take its path). Either is a sequence of frames,
//
//	[4-byte big-endian payload length][4-byte big-endian CRC-32C][payload]
//
// each payload one JSON Record with a sequence number one above the last.
// A session opens with a header; the engine appends candidate and
// iteration events, a full Checkpoint at every iteration boundary, and a
// terminal record at a graceful end. Header, checkpoint and terminal
// records are fsynced, events are not: recovery restarts from the last
// checkpoint. Job records, the daemon's own state, may sit anywhere. A
// SIGKILL, OOM-kill, or power cut leaves at worst a torn final frame,
// which replay detects (short frame or CRC mismatch) and stops before:
// it returns the state at the last valid record, never a partial one.
//
// A Writer holds an exclusive flock on the file's own descriptor. Older
// engines also left a lock file, which is ignored, and a checkpoint.json
// copy of the newest checkpoint, which Replay still reads. Nothing writes
// either.
package journal

import (
	"bytes"
	"encoding/binary"
	"encoding/json"
	"errors"
	"fmt"
	"hash/crc32"
	"io"
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
	// TypeJob is the embedding program's own record (the daemon's job
	// record), opaque to the journal: replay collects it wherever it sits.
	TypeJob Type = "job"
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
	Job   json.RawMessage `json:"job,omitempty"`
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

// Counters are the run's cumulative work counters: the engine's
// core.Result embeds them, every checkpoint carries them (so a resumed
// run's totals equal the uninterrupted run's), and the job API and
// `acr repair -o json` serialise them under these keys. A counter is
// added here and nowhere else.
//
// Only CandidatesValidated, TemplatesPrunedStatic, CandidatesPanicked,
// CacheHits and CacheMisses enter Result.Canonical(). The rest measure how
// much work validation did, not what it decided: a delta re-simulation and
// a cold one, a scoped check and a full one, decide identically.
type Counters struct {
	// CandidatesValidated counts candidates resolved by validation —
	// simulated or answered from the evaluation cache (it equals
	// CacheHits+CacheMisses).
	CandidatesValidated int `json:"candidatesValidated"`
	// PrefixSimulations counts per-prefix control-plane runs performed by
	// validation (the incremental verifier's and the cache's savings show
	// up here).
	PrefixSimulations int `json:"prefixSimulations"`
	// IntentChecks counts intent re-verifications.
	IntentChecks int `json:"intentChecks"`
	// TemplatesPrunedStatic counts template applications skipped because
	// the anchor line carried a diagnostic of a different error class.
	TemplatesPrunedStatic int `json:"templatesPrunedStatic"`
	// CandidatesPanicked counts candidates quarantined because a template,
	// parser edit, or simulator panicked while processing them.
	CandidatesPanicked int `json:"candidatesPanicked"`
	// CacheHits counts candidates answered by the content-addressed
	// evaluation cache without simulation.
	CacheHits int `json:"cacheHits,omitempty"`
	// CacheMisses counts candidates that were simulated and then stored.
	CacheMisses int `json:"cacheMisses,omitempty"`
	// StaticallyRefuted counts candidates whose impact set was disjoint
	// from every intent's dependencies: answered with the parent's
	// verdicts at zero prefix simulations.
	StaticallyRefuted int `json:"staticallyRefuted,omitempty"`
	// ImpactScoped counts candidates validated against a proper impact
	// slice (neither refuted nor broad).
	ImpactScoped int `json:"impactScoped,omitempty"`
	// ImpactBroad counts candidates where the impact analysis — or the
	// compiled-network cross-check guarding it — degraded to a full
	// re-simulation.
	ImpactBroad int `json:"impactBroad,omitempty"`
	// DeltaReused counts prefix evaluations answered by delta
	// re-simulation: seeded from the parent outcome, only the edit's wave
	// of routers re-activated.
	DeltaReused int `json:"deltaReused,omitempty"`
	// DeltaResimulated counts prefix evaluations where the delta path
	// refused the shortcut (non-converged base, new origination, pass
	// bound) and a cold simulation ran instead.
	DeltaResimulated int `json:"deltaResimulated,omitempty"`
	// SimActivations totals router activations across every prefix
	// simulation of the run — the device·prefix work unit delta
	// re-simulation saves.
	SimActivations int `json:"simActivations,omitempty"`
}

// Add adds every counter of d to c.
func (c *Counters) Add(d Counters) {
	c.CandidatesValidated += d.CandidatesValidated
	c.PrefixSimulations += d.PrefixSimulations
	c.IntentChecks += d.IntentChecks
	c.TemplatesPrunedStatic += d.TemplatesPrunedStatic
	c.CandidatesPanicked += d.CandidatesPanicked
	c.CacheHits += d.CacheHits
	c.CacheMisses += d.CacheMisses
	c.StaticallyRefuted += d.StaticallyRefuted
	c.ImpactScoped += d.ImpactScoped
	c.ImpactBroad += d.ImpactBroad
	c.DeltaReused += d.DeltaReused
	c.DeltaResimulated += d.DeltaResimulated
	c.SimActivations += d.SimActivations
}

// CheckpointCounters is Counters as a checkpoint carries them.
//
// LeafDerivations, CandidatesTimedOut and ValidationRetries are read-only:
// older engines wrote them, and frames reject unknown fields, so they stay
// for their checkpoints to decode. They are read and ignored; nothing
// writes them.
type CheckpointCounters struct {
	Counters
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

	Population []Member           `json:"population"`
	Best       *BestEffort        `json:"best,omitempty"`
	Counters   CheckpointCounters `json:"counters"`
	Logs       []Iteration        `json:"logs,omitempty"`
	Errors     []ErrorEvent       `json:"errors,omitempty"`
}

// Terminal closes a session. Terminations "deadline" and "canceled" leave
// the session resumable; "feasible", "exhausted", and "iteration-cap" do
// not (the search is over).
type Terminal struct {
	Termination string `json:"termination"`
	Feasible    bool   `json:"feasible"`
}

// AppendHook observes every engine record before it is appended; n is its
// 1-based count in this Writer. The chaos harness uses it to crash at
// exact points. A non-nil error aborts the append.
type AppendHook func(n int, rec *Record) error

// Writer appends to a journal file. It is not safe for concurrent use;
// the engine is single-threaded.
type Writer struct {
	path  string
	f     *os.File // flocked for the Writer's lifetime
	seq   int
	n     int  // engine records appended through this Writer
	dirty bool // appended to since the last fsync
	// Hook, when non-nil, runs before every engine record (chaos seam).
	Hook AppendHook
}

// ErrLocked reports that another live Writer, usually in another process,
// holds a journal's exclusive lock.
var ErrLocked = errors.New("journal: session directory locked by another writer")

// WALPath returns the WAL file path of the session directory dir.
func WALPath(dir string) string { return filepath.Join(dir, "wal.log") }

// checkpointPath is the checkpoint copy older engines wrote beside the
// WAL; Replay reads it, Create removes it, nothing writes it.
func checkpointPath(dir string) string { return filepath.Join(dir, "checkpoint.json") }

// open opens the file at path under an exclusive flock on its descriptor,
// which dies with the process and conflicts with every other open of the
// file. open never truncates: callers cut the file only once they hold
// the lock, so a refused open leaves a live Writer's file intact.
func open(path string, flag int) (*Writer, error) {
	f, err := os.OpenFile(path, flag|os.O_RDWR, 0o644)
	if err != nil {
		return nil, err
	}
	if err := flockExclusive(f.Fd()); err != nil {
		f.Close()
		return nil, fmt.Errorf("%w: %s", ErrLocked, path)
	}
	return &Writer{path: path, f: f}, nil
}

// Create starts a fresh session in dir (creating it as needed), truncating
// any previous session, and appends the header record. The WAL's lock is
// held until Close or process death: Create fails with ErrLocked while
// another Writer is live, since two appenders would interleave frames.
func Create(dir string, hdr Header) (*Writer, error) {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, err
	}
	os.Remove(checkpointPath(dir)) // an older engine's copy must not lead the fresh WAL
	hdr.Version = Version
	return create(WALPath(dir), Record{Type: TypeHeader, Header: &hdr})
}

// CreateFile starts a journal file at path, truncating whatever it held,
// with one job record carrying v. The lock is held until Close.
func CreateFile(path string, v any) (*Writer, error) {
	payload, err := marshal(v)
	if err != nil {
		return nil, err
	}
	return create(path, Record{Type: TypeJob, Job: payload})
}

// create opens the file at path under its lock, empties it, and appends
// first, fsynced. The directory is fsynced before the record: a crash
// right after must leave a replayable (if empty) file, not one the
// filesystem forgot.
func create(path string, first Record) (*Writer, error) {
	w, err := open(path, os.O_CREATE)
	if err != nil {
		return nil, err
	}
	err = w.f.Truncate(0)
	if err == nil {
		err = SyncDir(filepath.Dir(path))
	}
	if err == nil {
		err = w.append(first, true)
	}
	if err != nil {
		w.f.Close()
		return nil, err
	}
	return w, nil
}

// Resume reopens a session's WAL for appending after the given replayed
// session, rewound to its resume point: the resumed engine regenerates
// the events past the last checkpoint, so keeping them would double-log
// them. Like Create, Resume fails with ErrLocked while another Writer is
// live.
func Resume(dir string, sess *Session) (*Writer, error) {
	w, err := open(WALPath(dir), 0)
	if err != nil {
		return nil, err
	}
	if err := w.Rewind(sess.ResumeOffset, sess.ResumeSeq); err != nil {
		w.f.Close()
		return nil, err
	}
	return w, nil
}

// OpenFile opens the journal file at path under its lock, creating it
// when absent, replays it, and cuts it back to its last valid record.
// Unlike Replay's, its session may lack a header.
func OpenFile(path string) (*Writer, *Session, error) {
	w, err := open(path, os.O_CREATE)
	if err != nil {
		return nil, nil, err
	}
	data, err := io.ReadAll(w.f)
	sess := replay(data)
	w.seq = sess.Records
	if err == nil && sess.end < sess.WALBytes {
		err = w.Rewind(sess.end, sess.Records)
	}
	if err != nil {
		w.f.Close()
		return nil, nil, err
	}
	return w, sess, nil
}

// Rewind cuts the file back to offset, a record boundary a replay
// reported, and numbers the next append seq+1: ResumeOffset and ResumeSeq
// resume a session, HeaderOffset and HeaderSeq-1 start it over.
func (w *Writer) Rewind(offset int64, seq int) error {
	if err := w.f.Truncate(offset); err != nil {
		return err
	}
	if _, err := w.f.Seek(offset, io.SeekStart); err != nil {
		return err
	}
	w.seq, w.dirty = seq, false
	return w.f.Sync()
}

// append frames and writes one record, assigning its sequence number, and
// fsyncs the file when sync is set. Engine records count as appends and
// pass the hook first; job records do neither.
func (w *Writer) append(rec Record, sync bool) error {
	if rec.Type != TypeJob {
		w.n++
		if w.Hook != nil {
			if err := w.Hook(w.n, &rec); err != nil {
				return err
			}
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
	w.dirty = !sync
	if sync {
		return w.f.Sync()
	}
	return nil
}

// AppendHeader opens a session: hdr, stamped with the format version.
func (w *Writer) AppendHeader(hdr Header) error {
	hdr.Version = Version
	return w.append(Record{Type: TypeHeader, Header: &hdr}, true)
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

// AppendSession copies what a replayed session resumes from: its header,
// its candidates up to its checkpoint, and the checkpoint.
func (w *Writer) AppendSession(sess *Session) error {
	err := w.AppendHeader(*sess.Header)
	for _, c := range sess.Candidates {
		if err == nil && sess.Checkpoint != nil && c.Iteration <= sess.Checkpoint.Iteration {
			err = w.AppendCandidate(c)
		}
	}
	if err == nil && sess.Checkpoint != nil {
		err = w.AppendCheckpoint(*sess.Checkpoint)
	}
	return err
}

// AppendJob appends a job record carrying v, fsynced when sync is set.
func (w *Writer) AppendJob(v any, sync bool) error {
	payload, err := marshal(v)
	if err != nil {
		return err
	}
	return w.append(Record{Type: TypeJob, Job: payload}, sync)
}

// Appends reports how many engine records this Writer has appended.
func (w *Writer) Appends() int { return w.n }

// Path returns the journal file's path.
func (w *Writer) Path() string { return w.path }

// Close closes the file, releasing its lock, after an fsync if an append
// since the last one left something to flush.
func (w *Writer) Close() error {
	var err error
	if w.dirty {
		err = w.f.Sync()
	}
	if cerr := w.f.Close(); err == nil {
		err = cerr
	}
	return err
}

// Abandon closes the file without syncing, releasing its lock: the state
// a process crash leaves behind. In-process crash simulations
// (internal/chaos) call it at the crash point.
func (w *Writer) Abandon() { w.f.Close() }

// encodeFrame renders one framed record.
func encodeFrame(rec *Record) ([]byte, error) {
	payload, err := marshal(rec)
	if err != nil {
		return nil, err
	}
	return Frame(payload)
}

// marshal encodes v as JSON without HTML escaping, which would write each
// '<', '>' and '&' as six bytes: any upload the daemon admits must fit one
// frame.
func marshal(v any) ([]byte, error) {
	var buf bytes.Buffer
	enc := json.NewEncoder(&buf)
	enc.SetEscapeHTML(false)
	if err := enc.Encode(v); err != nil {
		return nil, err
	}
	return bytes.TrimSuffix(buf.Bytes(), []byte("\n")), nil
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
