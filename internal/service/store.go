package service

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io/fs"
	"os"
	"path/filepath"
	"slices"
	"sort"
	"strings"
	"sync"

	"acr/internal/caseio"
	"acr/internal/journal"
	"acr/internal/scenario"
)

// Store layout under the daemon's -state-dir: one journal file per job,
// statedir/jobs/<id>.wal, holding the job's engine session and, among its
// records, the daemon's job records. The first carries the wire Job and
// the upload (none for builtins); each lifecycle transition appends
// another. Boot keeps each file's last job record and requeues jobs found
// queued or running; a running job's session resumes from its last
// checkpoint.
//
// By code reading, an uploaded job that runs once creates one inode, makes
// no rename and no mkdir, and costs at most 5 fsyncs plus one per
// checkpoint: the first record and jobs/ (both before Submit answers 202),
// the session header, the engine's terminal record and the done record.
// The running record is not synced; losing it costs a rerun to the same
// result.
//
// Older daemons kept jobs/<id>/ with job.json, case.json (before that, a
// caseio.Save case/ directory) and journal/wal.log. Boot still lists those
// jobs. A live one is copied into its own file on its first attempt
// (migrate), and its directory is never read or written again.

// job is one repair job: the persisted wire record plus runtime-only
// state (cancellation, event stream). rec is guarded by mu; id, seq,
// priority, and events are immutable after construction.
type job struct {
	id       string
	seq      int
	priority int
	events   *eventLog

	mu     sync.Mutex
	rec    Job
	cancel context.CancelFunc
	// cancelRequested marks an operator DELETE that raced the worker
	// picking the job up; runJob honors it as soon as it has a context.
	cancelRequested bool
	drained         bool // shutdown drain, not operator cancel
	legacy          bool // booted from an older daemon's directory (boot and worker only)
}

// snapshot returns a copy of the wire record.
func (j *job) snapshot() Job {
	j.mu.Lock()
	defer j.mu.Unlock()
	return j.rec
}

// store owns the state directory and the in-memory job index.
type store struct {
	root string

	mu      sync.Mutex
	jobs    map[string]*job
	order   []*job // submission order (seq asc)
	nextSeq int
}

// retiredLiveStates are live states older daemons also wrote: each boots
// as queued, like a job left running.
var retiredLiveStates = map[JobState]bool{"leased": true, "orphaned": true, "adopted": true}

// logRecord is the payload of a job record: the wire Job and, in the
// first record only, the upload. That record leaves Job.Case to the
// upload's name, so that any upload the API admits fits one frame.
type logRecord struct {
	Job    Job            `json:"job"`
	Upload *caseio.Upload `json:"upload,omitempty"`
}

// openStore loads (or initializes) a state directory. Jobs found queued or
// running are normalized to queued; the caller enqueues them.
func openStore(root string) (*store, error) {
	s := &store{root: root, jobs: map[string]*job{}, nextSeq: 1}
	jobsDir := filepath.Join(root, "jobs")
	if err := os.MkdirAll(jobsDir, 0o755); err != nil {
		return nil, err
	}
	entries, err := os.ReadDir(jobsDir)
	if err != nil {
		return nil, err
	}
	for _, e := range entries {
		id, isLog := strings.CutSuffix(e.Name(), ".wal")
		if old := s.jobs[id]; isLog == e.IsDir() || old != nil && !old.legacy {
			continue // not a job, or one whose file supersedes its directory
		}
		// A file without a complete job record (a crash inside Submit)
		// holds nothing worth recovering: skip it rather than refuse to
		// boot, and let the next submission reuse its id.
		rec, err := currentRecord(filepath.Join(jobsDir, e.Name()), isLog)
		if err != nil || rec.ID != id {
			continue
		}
		switch {
		case rec.State == StateRunning || retiredLiveStates[rec.State]:
			// The previous process died mid-run: requeue for resume.
			rec.State = StateQueued
		case !rec.State.valid():
			continue
		}
		j := &job{id: rec.ID, seq: rec.Seq, priority: rec.Priority, events: newEventLog(), rec: rec, legacy: !isLog}
		j.events.append(Event{Type: "state", State: rec.State, Error: rec.Error})
		if rec.State.Terminal() {
			j.events.close()
		}
		s.jobs[j.id] = j
		s.nextSeq = max(s.nextSeq, rec.Seq+1)
	}
	for _, j := range s.jobs {
		s.order = append(s.order, j)
	}
	sort.Slice(s.order, func(i, k int) bool { return s.order[i].seq < s.order[k].seq })
	return s, nil
}

// currentRecord reads a job's record: the last job record of its file, or
// an older daemon's job.json.
func currentRecord(path string, isLog bool) (Job, error) {
	var r logRecord
	if !isLog {
		data, err := os.ReadFile(filepath.Join(path, "job.json"))
		if err == nil {
			err = json.Unmarshal(data, &r.Job)
		}
		return r.Job, err
	}
	last, err := journal.LastJob(path)
	if err != nil || last == nil {
		return r.Job, fs.ErrNotExist
	}
	err = json.Unmarshal(last, &r)
	if r.Upload != nil && r.Job.Case == "" {
		r.Job.Case = r.Upload.Name
	}
	return r.Job, err
}

// create allocates, persists, and indexes a new queued job: its file,
// holding the first job record. A failed write removes the file again.
func (s *store) create(req JobRequest, sc *scenario.Scenario) (*job, error) {
	s.mu.Lock()
	seq := s.nextSeq
	s.nextSeq++
	s.mu.Unlock()

	rec := Job{
		ID:             fmt.Sprintf("j%06d", seq),
		Seq:            seq,
		State:          StateQueued,
		Priority:       req.Priority,
		Case:           sc.Name,
		Builtin:        req.Builtin,
		Seed:           req.Seed,
		Strategy:       req.Strategy,
		MaxIterations:  req.MaxIterations,
		TimeoutSeconds: req.TimeoutSeconds,
	}
	first := logRecord{Job: rec, Upload: req.Case}
	if req.Case != nil && req.Case.Name == rec.Case {
		first.Job.Case = ""
	}
	w, err := journal.CreateFile(s.path(rec.ID), first)
	if err == nil {
		err = w.Close()
	}
	if err != nil {
		os.Remove(s.path(rec.ID))
		return nil, err
	}
	j := &job{id: rec.ID, seq: seq, priority: req.Priority, events: newEventLog(), rec: rec}
	j.events.append(Event{Type: "state", State: StateQueued})

	s.mu.Lock()
	s.jobs[j.id] = j
	s.order = append(s.order, j)
	s.mu.Unlock()
	return j, nil
}

// open opens the job's file for an attempt and loads its case: a builtin
// is rebuilt (generation is deterministic), an upload is decoded from the
// first job record as the submission was. A live job of an older daemon
// is first copied into a file of its own.
func (s *store) open(j *job) (*journal.Writer, *journal.Session, *scenario.Scenario, error) {
	if j.legacy {
		if err := s.migrate(j); err != nil {
			return nil, nil, nil, fmt.Errorf("migrate: %w", err)
		}
		j.legacy = false
	}
	w, sess, err := journal.OpenFile(s.path(j.id))
	if err != nil {
		return nil, nil, nil, journalErr(err)
	}
	var first logRecord
	if len(sess.Jobs) > 0 {
		err = json.Unmarshal(sess.Jobs[0], &first)
	}
	var sc *scenario.Scenario
	switch rec := j.snapshot(); {
	case rec.Builtin != "":
		sc, err = scenario.Builtin(rec.Builtin)
	case err == nil && first.Upload == nil:
		err = errors.New("no upload in the job's first record")
	case err == nil:
		sc, err = caseio.FromUpload(*first.Upload)
	}
	if err != nil {
		w.Close()
		return nil, nil, nil, fmt.Errorf("load case: %w", err)
	}
	return w, sess, sc, nil
}

// migrate copies a live job of an older daemon into a file of its own:
// its record, its case as an upload, and its session's resume state when
// the session can still resume. Its directory is only read.
func (s *store) migrate(j *job) error {
	dir := filepath.Join(s.root, "jobs", j.id)
	first := logRecord{Job: j.snapshot()}
	if first.Job.Builtin == "" {
		u, err := legacyUpload(dir, first.Job.Case)
		if err != nil {
			return err
		}
		first.Upload = &u
	}
	w, err := journal.CreateFile(s.path(j.id), first)
	if err != nil {
		return err
	}
	if sess, rerr := journal.Replay(filepath.Join(dir, "journal")); rerr == nil && sess.Resumable() {
		err = w.AppendSession(sess)
	}
	if cerr := w.Close(); err == nil {
		err = cerr
	}
	return err
}

// legacyUpload reads an older daemon's upload: case.json, or the earlier
// caseio.Save directory, whose load names the case "case" and so gets the
// submitted name back.
func legacyUpload(dir, name string) (u caseio.Upload, err error) {
	data, err := os.ReadFile(filepath.Join(dir, "case.json"))
	if errors.Is(err, fs.ErrNotExist) {
		sc, err := caseio.Load(filepath.Join(dir, "case"))
		if err != nil {
			return u, err
		}
		sc.Name = name
		return caseio.ToUpload(sc), nil
	}
	if err == nil {
		err = json.Unmarshal(data, &u)
	}
	return u, err
}

// path is the job's journal file.
func (s *store) path(id string) string { return filepath.Join(s.root, "jobs", id+".wal") }

// get looks a job up by id.
func (s *store) get(id string) *job {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.jobs[id]
}

// list returns every job in submission order.
func (s *store) list() []*job {
	s.mu.Lock()
	defer s.mu.Unlock()
	return slices.Clone(s.order)
}
