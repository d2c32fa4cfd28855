package service

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io/fs"
	"os"
	"path/filepath"
	"sort"
	"sync"

	"acr/internal/caseio"
	"acr/internal/journal"
	"acr/internal/scenario"
)

// Store layout, one directory per job under the daemon's -state-dir:
//
//	statedir/jobs/<id>/
//	  case.json  # the uploaded case in its wire form, caseio.Upload (absent for builtins)
//	  job.json   # the wire Job record, written atomically on every transition
//	  journal/   # the crash-safe session journal of the job's engine run
//
// Each of case.json and job.json is one journal.WriteFileAtomic; case.json
// is written once at submit and read back through caseio.FromUpload, the
// decoder that accepted the submission, so a reloaded case digests the same
// as the submitted one. (Daemons before case.json wrote a case/ directory
// with caseio.Save; loadCase still reads one, nothing writes one.)
//
// job.json is the recovery index: a rebooted daemon scans these, keeps
// terminal jobs for listing, and requeues every job found queued or
// running (running means the previous process died mid-run; the journal
// directory lets the next attempt resume from the last checkpoint instead
// of restarting the search).

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
}

// snapshot returns a copy of the wire record.
func (j *job) snapshot() Job {
	j.mu.Lock()
	defer j.mu.Unlock()
	return j.rec
}

// state returns the current lifecycle state.
func (j *job) state() JobState {
	j.mu.Lock()
	defer j.mu.Unlock()
	return j.rec.State
}

// store owns the state directory and the in-memory job index.
type store struct {
	root string

	mu      sync.Mutex
	jobs    map[string]*job
	order   []*job // submission order (seq asc)
	nextSeq int
}

// retiredLiveStates are live states older daemons also wrote to job.json.
// Each meant the job had not finished, so a record carrying one boots as
// queued, like one left running.
var retiredLiveStates = map[JobState]bool{"leased": true, "orphaned": true, "adopted": true}

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
		if !e.IsDir() {
			continue
		}
		data, err := os.ReadFile(filepath.Join(jobsDir, e.Name(), "job.json"))
		if err != nil {
			// A job dir without a readable record (crash between MkdirAll or
			// the case.json write and the first atomic job.json write) holds
			// nothing worth recovering: skip it rather than refuse to boot.
			continue
		}
		var rec Job
		if err := json.Unmarshal(data, &rec); err != nil || rec.ID != e.Name() {
			continue
		}
		switch {
		case rec.State == StateRunning || retiredLiveStates[rec.State]:
			// The previous process died mid-run: the journal under the job
			// dir carries the checkpointed search. Requeue for resume.
			rec.State = StateQueued
		case !rec.State.valid():
			continue
		}
		j := &job{id: rec.ID, seq: rec.Seq, priority: rec.Priority, events: newEventLog(), rec: rec}
		j.events.append(Event{Type: "state", State: rec.State, Error: rec.Error})
		if rec.State.Terminal() {
			j.events.close()
		}
		s.jobs[j.id] = j
		s.order = append(s.order, j)
		if rec.Seq >= s.nextSeq {
			s.nextSeq = rec.Seq + 1
		}
	}
	sort.Slice(s.order, func(i, k int) bool { return s.order[i].seq < s.order[k].seq })
	return s, nil
}

// create allocates, persists, and indexes a new queued job. An uploaded
// case is written to the job's case.json as submitted, before job.json, so
// a rebooted daemon can re-materialize it; a failed write removes the job
// directory again.
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
	j := &job{id: rec.ID, seq: seq, priority: req.Priority, events: newEventLog(), rec: rec}
	if err := s.writeJobDir(j, req.Case); err != nil {
		// Sequential ids never repeat, so nothing would ever reuse or
		// collect a half-written directory.
		os.RemoveAll(s.jobDir(j.id))
		return nil, err
	}
	j.events.append(Event{Type: "state", State: StateQueued})

	s.mu.Lock()
	s.jobs[j.id] = j
	s.order = append(s.order, j)
	s.mu.Unlock()
	return j, nil
}

// writeJobDir creates the job's directory and its first durable files:
// case.json for an uploaded case, then job.json. The file writes fsync the
// job's directory, and jobs/ is fsynced here, so the directory itself — and
// with it a job already acknowledged — survives a power loss.
func (s *store) writeJobDir(j *job, upload *caseio.Upload) error {
	dir := s.jobDir(j.id)
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return err
	}
	if err := journal.SyncDir(filepath.Dir(dir)); err != nil {
		return err
	}
	if upload != nil {
		data, err := json.Marshal(upload)
		if err != nil {
			return err
		}
		if err := journal.WriteFileAtomic(s.casePath(j.id), data, 0o644); err != nil {
			return err
		}
	}
	return s.persist(j)
}

// persist writes the job's current record atomically (temp file + rename
// + parent-dir fsync), so a crash at any point leaves the previous record
// or the new one, never a torn mix.
func (s *store) persist(j *job) error {
	data, err := json.MarshalIndent(j.snapshot(), "", "  ")
	if err != nil {
		return err
	}
	return journal.WriteFileAtomic(filepath.Join(s.jobDir(j.id), "job.json"), data, 0o644)
}

func (s *store) jobDir(id string) string     { return filepath.Join(s.root, "jobs", id) }
func (s *store) casePath(id string) string   { return filepath.Join(s.jobDir(id), "case.json") }
func (s *store) journalDir(id string) string { return filepath.Join(s.jobDir(id), "journal") }

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
	out := make([]*job, len(s.order))
	copy(out, s.order)
	return out
}

// loadCase re-materializes the job's repair case: builtins are rebuilt
// (generation is deterministic), uploads are decoded from the job's
// case.json exactly as the submission was.
func (s *store) loadCase(j *job) (*scenario.Scenario, error) {
	rec := j.snapshot()
	if rec.Builtin != "" {
		return builtinScenario(rec.Builtin)
	}
	data, err := os.ReadFile(s.casePath(j.id))
	if errors.Is(err, fs.ErrNotExist) {
		// State directory written before case.json: the case is a
		// caseio.Save directory. Directory loads name the case (and its
		// topology) after the directory ("case"); restore the submitted
		// name so the journal's case digest still matches.
		sc, lerr := caseio.Load(filepath.Join(s.jobDir(j.id), "case"))
		if lerr != nil {
			return nil, fmt.Errorf("%w (legacy case dir: %v)", err, lerr)
		}
		sc.Name = rec.Case
		sc.Topo.Name = rec.Case
		return sc, nil
	}
	if err != nil {
		return nil, err
	}
	var u caseio.Upload
	if err := json.Unmarshal(data, &u); err != nil {
		return nil, fmt.Errorf("case.json: %w", err)
	}
	return caseio.FromUpload(u)
}

// builtinScenario maps the builtin names the CLI accepts to generated
// cases. Generation is deterministic, so a job rerun after a reboot
// rebuilds the byte-identical problem (the journal's case digest checks
// this).
func builtinScenario(name string) (*scenario.Scenario, error) {
	switch name {
	case "figure2":
		return scenario.Figure2(), nil
	case "figure2-repaired":
		return scenario.Figure2Correct(), nil
	case "dcn4":
		return scenario.DCN(4, scenario.GenOptions{WithScrubber: true, StaticOriginEvery: 2}), nil
	case "wan":
		return scenario.WAN(6, 4, 3, scenario.GenOptions{StaticOriginEvery: 2}), nil
	}
	return nil, fmt.Errorf("unknown builtin case %q", name)
}
