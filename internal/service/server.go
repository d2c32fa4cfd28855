package service

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"
	"strconv"
	"sync"
	"sync/atomic"
	"time"

	"acr/internal/caseio"
	"acr/internal/evalstore"
	"acr/internal/journal"
	"acr/internal/scenario"
)

// Config sizes and wires a Server.
type Config struct {
	// StateDir is the daemon's persistence root; every job is one journal
	// file under jobs/, so the daemon survives SIGKILL.
	StateDir string
	// Workers is the worker-pool size (<=0 means 1).
	Workers int
	// QueueCap bounds the queued-job count for admission control
	// (<=0 means DefaultQueueCap). A full queue answers 429 + Retry-After.
	QueueCap int
	// JournalHook, when non-nil, is installed on every job's journal
	// writer before the event mirror — the seam crash tests use to SIGKILL
	// the daemon after N appends (chaos.KillSwitch) or to block appends.
	JournalHook journal.AppendHook
	// CacheDir, when non-empty, opens a persistent evaluation store there
	// and wires it under every job's in-memory cache, so repeated and
	// duplicate incidents are answered from disk instead of re-simulated.
	// Other processes may share the directory (acr repair -cache-dir). The
	// store is advisory: corrupt or unreadable entries degrade to cache
	// misses, never to failed jobs.
	CacheDir string
	// CacheMaxBytes bounds the store (<=0 means evalstore.DefaultMaxBytes).
	CacheMaxBytes int64
}

// DefaultQueueCap is the admission-control bound when Config leaves
// QueueCap zero.
const DefaultQueueCap = 64

// Server is the repair daemon: store + queue + worker pool + HTTP API.
type Server struct {
	cfg       Config
	store     *store
	queue     *queue
	evalStore *evalstore.Store // nil without Config.CacheDir

	baseCtx   context.Context
	cancelAll context.CancelFunc
	wg        sync.WaitGroup

	started, draining atomic.Bool

	// ready gates /healthz (readiness): false while the daemon is still
	// recovering journaled jobs on boot or once it starts draining, so
	// load balancers stop routing to a daemon that cannot admit.
	ready atomic.Bool

	busyWorkers atomic.Int64
	// counters totals the work counters of every job a worker finished,
	// under countersMu.
	countersMu sync.Mutex
	counters   journal.Counters

	startedAt time.Time
}

// New opens (or initializes) the state directory and reconstructs the job
// index. Jobs the previous process left queued or running are requeued —
// running ones carry a journal and resume from their last checkpoint.
// Call Start to launch the worker pool.
func New(cfg Config) (*Server, error) {
	if cfg.StateDir == "" {
		return nil, errors.New("service: Config.StateDir is required")
	}
	if cfg.Workers <= 0 {
		cfg.Workers = 1
	}
	if cfg.QueueCap <= 0 {
		cfg.QueueCap = DefaultQueueCap
	}
	st, err := openStore(cfg.StateDir)
	if err != nil {
		return nil, err
	}
	ctx, cancel := context.WithCancel(context.Background())
	s := &Server{
		cfg:       cfg,
		store:     st,
		queue:     newQueue(cfg.QueueCap),
		baseCtx:   ctx,
		cancelAll: cancel,
		startedAt: time.Now(),
	}
	if cfg.CacheDir != "" {
		es, err := evalstore.Open(cfg.CacheDir, cfg.CacheMaxBytes)
		if err != nil {
			cancel()
			return nil, fmt.Errorf("open evaluation store %s: %w", cfg.CacheDir, err)
		}
		s.evalStore = es
	}
	return s, nil
}

// Start requeues recovered jobs and launches the worker pool.
func (s *Server) Start() {
	if s.started.Swap(true) {
		return
	}
	// Recovered jobs bypass admission control: they were admitted once.
	for _, j := range s.store.list() {
		if j.snapshot().State == StateQueued {
			s.queue.push(j)
		}
	}
	for i := 0; i < s.cfg.Workers; i++ {
		s.wg.Add(1)
		go s.workerLoop()
	}
	s.ready.Store(true)
}

// Shutdown drains the daemon: admission stops, queued jobs stay queued on
// disk for the next boot, and running jobs are interrupted at the next
// engine checkpoint, journaled as resumable, and persisted back to
// "queued". It returns when every worker has exited or ctx expires.
func (s *Server) Shutdown(ctx context.Context) error {
	if s.draining.Swap(true) {
		return nil
	}
	s.ready.Store(false)

	s.queue.close()
	for _, j := range s.store.list() {
		j.mu.Lock()
		if j.rec.State == StateRunning && j.cancel != nil {
			j.drained = true
			j.cancel()
		}
		j.mu.Unlock()
	}
	done := make(chan struct{})
	go func() { s.wg.Wait(); close(done) }()
	// Once the pool has drained, the evaluation store goes inert: late
	// stragglers see misses, never errors.
	defer func() {
		if s.evalStore != nil {
			s.evalStore.Close()
		}
	}()
	select {
	case <-done:
		return nil
	case <-ctx.Done():
		s.cancelAll() // hard-cancel stragglers; journals stay resumable
		<-done
		return ctx.Err()
	}
}

// Handler returns the daemon's HTTP API.
func (s *Server) Handler() http.Handler {
	mux := http.NewServeMux()
	mux.HandleFunc("POST /v1/repairs", s.handleSubmit)
	mux.HandleFunc("GET /v1/repairs", s.handleList)
	mux.HandleFunc("GET /v1/repairs/{id}", s.handleGet)
	mux.HandleFunc("DELETE /v1/repairs/{id}", s.handleCancel)
	mux.HandleFunc("GET /v1/repairs/{id}/events", s.handleEvents)
	mux.HandleFunc("GET /healthz", s.handleHealthz)
	mux.HandleFunc("GET /livez", s.handleLivez)
	mux.HandleFunc("GET /varz", s.handleVarz)
	return mux
}

// prepare validates a request and materializes its scenario.
func prepare(req JobRequest) (*scenario.Scenario, error) {
	if (req.Builtin == "") == (req.Case == nil) {
		return nil, &apiError{http.StatusBadRequest,
			"exactly one of builtin and case must be set"}
	}
	if _, _, err := req.Options(); err != nil {
		return nil, &apiError{http.StatusBadRequest, err.Error()}
	}
	if req.Builtin != "" {
		sc, err := builtinScenario(req.Builtin)
		if err != nil {
			return nil, &apiError{http.StatusBadRequest, err.Error()}
		}
		return sc, nil
	}
	sc, err := caseio.FromUpload(*req.Case)
	if err != nil {
		return nil, &apiError{http.StatusBadRequest, fmt.Sprintf("bad case: %v", err)}
	}
	return sc, nil
}

// Submit validates, persists, and enqueues one job — the programmatic
// core of POST /v1/repairs, also used by tests. It returns the queued
// job's record.
func (s *Server) Submit(req JobRequest) (Job, error) {
	sc, err := prepare(req)
	if err != nil {
		return Job{}, err
	}
	// Reserve the admission slot before the (slow, fallible) persistence
	// work so concurrent submissions cannot overshoot the cap.
	if err := s.queue.reserve(); err != nil {
		if errors.Is(err, ErrQueueFull) {
			return Job{}, &apiError{http.StatusTooManyRequests, err.Error()}
		}
		return Job{}, &apiError{http.StatusServiceUnavailable, err.Error()}
	}
	j, err := s.store.create(req, sc)
	if err != nil {
		s.queue.unreserve()
		return Job{}, &apiError{http.StatusInternalServerError, err.Error()}
	}
	s.queue.pushReserved(j)
	return j.snapshot(), nil
}

// Cancel cancels a job: a queued job terminates immediately; a running
// one is interrupted cooperatively at the engine's next context check and
// terminates with its best-effort result attached.
func (s *Server) Cancel(id string) (Job, error) {
	j := s.store.get(id)
	if j == nil {
		return Job{}, &apiError{http.StatusNotFound, "no such job"}
	}
	j.mu.Lock()
	state := j.rec.State
	switch {
	case state.Terminal(): // idempotent
		j.mu.Unlock()
	case state == StateQueued && s.queue.remove(id):
		j.mu.Unlock()
		s.transition(j, nil, StateCanceled, "canceled by operator", nil)
	default:
		// Running, or popped by a worker a moment ago: flag the request
		// and fire the context if the worker already installed one.
		j.cancelRequested = true
		if j.cancel != nil {
			j.cancel()
		}
		j.mu.Unlock()
	}
	return j.snapshot(), nil
}

// Job returns one job's current record.
func (s *Server) Job(id string) (Job, bool) {
	j := s.store.get(id)
	if j == nil {
		return Job{}, false
	}
	return j.snapshot(), true
}

// Jobs returns every job in submission order.
func (s *Server) Jobs() []Job {
	var out []Job
	for _, j := range s.store.list() {
		out = append(out, j.snapshot())
	}
	return out
}

// --- HTTP handlers ---------------------------------------------------------

// apiError carries an HTTP status through the Submit/Cancel helpers.
type apiError struct {
	status int
	msg    string
}

func (e *apiError) Error() string { return e.msg }

func writeErr(w http.ResponseWriter, err error) {
	status := http.StatusInternalServerError
	var ae *apiError
	if errors.As(err, &ae) {
		status = ae.status
	}
	if status == http.StatusTooManyRequests {
		w.Header().Set("Retry-After", "1")
	}
	writeJSON(w, status, map[string]string{"error": err.Error()})
}

func writeJSON(w http.ResponseWriter, status int, v any) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(status)
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	enc.Encode(v)
}

func (s *Server) handleSubmit(w http.ResponseWriter, r *http.Request) {
	var req JobRequest
	dec := json.NewDecoder(http.MaxBytesReader(w, r.Body, 4<<20))
	dec.DisallowUnknownFields()
	err := dec.Decode(&req)
	if err == nil {
		// The body is one JSON value: anything after it but white space
		// is refused, not ignored.
		if _, err = dec.Token(); err == io.EOF {
			err = nil
		} else if err == nil {
			err = errors.New("more than one JSON value")
		}
	}
	if err != nil {
		code := http.StatusBadRequest
		if errors.As(err, new(*http.MaxBytesError)) {
			code = http.StatusRequestEntityTooLarge
		}
		writeErr(w, &apiError{code, fmt.Sprintf("bad request body: %v", err)})
		return
	}
	job, err := s.Submit(req)
	if err != nil {
		writeErr(w, err)
		return
	}
	w.Header().Set("Location", "/v1/repairs/"+job.ID)
	writeJSON(w, http.StatusAccepted, job)
}

func (s *Server) handleList(w http.ResponseWriter, r *http.Request) {
	filter := JobState(r.URL.Query().Get("state"))
	if filter != "" && !filter.valid() {
		writeErr(w, &apiError{http.StatusBadRequest, fmt.Sprintf("unknown state %q", filter)})
		return
	}
	jobs := []Job{}
	for _, rec := range s.Jobs() {
		if filter == "" || rec.State == filter {
			jobs = append(jobs, rec)
		}
	}
	writeJSON(w, http.StatusOK, map[string]any{"jobs": jobs})
}

func (s *Server) handleGet(w http.ResponseWriter, r *http.Request) {
	if job, ok := s.Job(r.PathValue("id")); ok {
		writeJSON(w, http.StatusOK, job)
		return
	}
	writeErr(w, &apiError{http.StatusNotFound, "no such job"})
}

func (s *Server) handleCancel(w http.ResponseWriter, r *http.Request) {
	job, err := s.Cancel(r.PathValue("id"))
	if err != nil {
		writeErr(w, err)
		return
	}
	writeJSON(w, http.StatusOK, job)
}

// handleEvents streams a job's event log as server-sent events, replaying
// history (from Last-Event-ID on reconnect) and then following the live
// stream until the job reaches a terminal state or the client leaves.
func (s *Server) handleEvents(w http.ResponseWriter, r *http.Request) {
	j := s.store.get(r.PathValue("id"))
	if j == nil {
		writeErr(w, &apiError{http.StatusNotFound, "no such job"})
		return
	}
	flusher, ok := w.(http.Flusher)
	if !ok {
		writeErr(w, &apiError{http.StatusNotImplemented, "streaming unsupported"})
		return
	}
	w.Header().Set("Content-Type", "text/event-stream")
	w.Header().Set("Cache-Control", "no-cache")
	w.WriteHeader(http.StatusOK)

	after := 0
	if v := r.Header.Get("Last-Event-ID"); v != "" {
		if n, err := strconv.Atoi(v); err == nil {
			after = n
		}
	}
	wake := j.events.subscribe()
	defer j.events.unsubscribe(wake)
	for {
		evs, closed := j.events.since(after)
		for _, e := range evs {
			data, err := json.Marshal(e)
			if err != nil {
				continue
			}
			fmt.Fprintf(w, "id: %d\nevent: %s\ndata: %s\n\n", e.Seq, e.Type, data)
			after = e.Seq
		}
		if len(evs) > 0 {
			flusher.Flush()
		}
		if closed {
			return
		}
		select {
		case <-wake:
		case <-r.Context().Done():
			return
		}
	}
}

// handleHealthz is the *readiness* probe: it answers 503 with a reason
// while the node cannot usefully take traffic — still recovering journaled
// jobs on boot, or draining for shutdown. Load balancers key off this. Liveness is /livez.
func (s *Server) handleHealthz(w http.ResponseWriter, _ *http.Request) {
	if !s.ready.Load() {
		status, reason := "booting", "recovering journaled jobs"
		if s.draining.Load() {
			status, reason = "draining", "shutting down; queued jobs persist for the next boot"
		}
		writeJSON(w, http.StatusServiceUnavailable, map[string]any{
			"status": status,
			"reason": reason,
		})
		return
	}
	writeJSON(w, http.StatusOK, map[string]any{
		"status":        "ok",
		"uptimeSeconds": time.Since(s.startedAt).Seconds(),
		"workers":       s.cfg.Workers,
		"busyWorkers":   s.busyWorkers.Load(),
		"queueDepth":    s.queue.depth(),
	})
}

// handleLivez is the *liveness* probe: if the process can answer HTTP at
// all it is alive, including while booting or draining. Supervisors
// restart on /livez failure; routers drop on /healthz failure.
func (s *Server) handleLivez(w http.ResponseWriter, _ *http.Request) {
	writeJSON(w, http.StatusOK, map[string]string{"status": "alive"})
}

// handleVarz serves the daemon's counters as one JSON object, rebuilt per
// request from live state.
func (s *Server) handleVarz(w http.ResponseWriter, _ *http.Request) {
	s.countersMu.Lock()
	c := s.counters
	s.countersMu.Unlock()
	m := map[string]int64{
		"queue_depth":             int64(s.queue.depth()),
		"workers":                 int64(s.cfg.Workers),
		"workers_busy":            s.busyWorkers.Load(),
		"candidates_validated":    int64(c.CandidatesValidated),
		"prefix_simulations":      int64(c.PrefixSimulations),
		"intent_checks":           int64(c.IntentChecks),
		"templates_pruned_static": int64(c.TemplatesPrunedStatic),
		"panics_quarantined":      int64(c.CandidatesPanicked),
		"cache_hits":              int64(c.CacheHits),
		"cache_misses":            int64(c.CacheMisses),
		"statically_refuted":      int64(c.StaticallyRefuted),
		"impact_scoped":           int64(c.ImpactScoped),
		"impact_broad":            int64(c.ImpactBroad),
		"delta_reused":            int64(c.DeltaReused),
		"delta_resimulated":       int64(c.DeltaResimulated),
		"sim_activations":         int64(c.SimActivations),
	}
	for _, st := range allStates {
		m["jobs_"+string(st)] = 0
	}
	for _, j := range s.store.list() {
		m["jobs_"+string(j.snapshot().State)]++
	}
	if s.evalStore != nil {
		st := s.evalStore.Stats()
		m["store_hits"], m["store_misses"], m["store_corrupt"] = st.Hits, st.Misses, st.Corrupt
		m["store_evicted"], m["store_bytes"] = st.Evicted, st.Bytes
	}
	writeJSON(w, http.StatusOK, m)
}
