package service

import (
	"context"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"errors"
	"expvar"
	"fmt"
	"io"
	"net/http"
	"sort"
	"strconv"
	"sync"
	"sync/atomic"
	"time"

	"acr/internal/caseio"
	"acr/internal/core"
	"acr/internal/evalstore"
	"acr/internal/journal"
	"acr/internal/scenario"
)

// Config sizes and wires a Server.
type Config struct {
	// StateDir is the daemon's persistence root; every job lives in a
	// subdirectory with its journal, so the daemon survives SIGKILL.
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
	// Fleet, when non-nil, joins this node to a peer fleet: jobs are
	// placed on a consistent-hash ring, leased while running, and adopted
	// from peers that go down (acr serve -peers).
	Fleet *FleetConfig
	// CacheDir, when non-empty, opens a persistent evaluation store there
	// and wires it under every job's in-memory cache, so repeated and
	// duplicate incidents are answered from disk instead of re-simulated.
	// In fleet mode the CLI points every peer at one shared directory. The
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
	fleet     *fleet           // nil outside fleet mode
	evalStore *evalstore.Store // nil without Config.CacheDir

	baseCtx   context.Context
	cancelAll context.CancelFunc
	wg        sync.WaitGroup

	mu       sync.Mutex
	started  bool
	draining bool

	// ready gates /healthz (readiness): false while the node is still
	// recovering journaled jobs on boot or once it starts draining, so
	// peers and load balancers stop routing to a node that cannot admit.
	ready atomic.Bool

	// creating guards in-flight keyed submissions, closing the window
	// between the dedup lookup and the store insert for duplicate keys.
	subMu    sync.Mutex
	creating map[string]chan struct{}

	busyWorkers         atomic.Int64
	candidatesValidated atomic.Int64
	panicsQuarantined   atomic.Int64
	deltaReused         atomic.Int64
	deltaResimulated    atomic.Int64
	simActivations      atomic.Int64

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
		creating:  map[string]chan struct{}{},
		baseCtx:   ctx,
		cancelAll: cancel,
		startedAt: time.Now(),
	}
	if cfg.Fleet != nil {
		f, err := newFleet(*cfg.Fleet)
		if err != nil {
			cancel()
			return nil, fmt.Errorf("%w: %v", ErrFleetSetup, err)
		}
		if err := f.register(cfg.StateDir); err != nil {
			cancel()
			return nil, fmt.Errorf("%w: registration: %v", ErrFleetSetup, err)
		}
		s.fleet = f
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
	s.mu.Lock()
	if s.started {
		s.mu.Unlock()
		return
	}
	s.started = true
	s.mu.Unlock()
	// Recovered jobs bypass admission control: they were admitted once.
	for _, j := range s.store.list() {
		if j.state() != StateQueued {
			continue
		}
		if s.fleet != nil {
			// Whatever node owned this job before, it is in our state dir
			// now (our own crash, or a crash mid-adoption after the
			// rename): claim it so peers see a live owner.
			j.mu.Lock()
			j.rec.Owner = s.fleet.cfg.Self
			j.mu.Unlock()
			s.store.persist(j)
		}
		s.queue.push(j)
	}
	for i := 0; i < s.cfg.Workers; i++ {
		s.wg.Add(1)
		go s.workerLoop()
	}
	if s.fleet != nil {
		s.fleet.wg.Add(2)
		go s.fleet.healthLoop()
		go s.adoptLoop()
	}
	s.ready.Store(true)
}

// Shutdown drains the daemon: admission stops, queued jobs stay queued on
// disk for the next boot, and running jobs are interrupted at the next
// engine checkpoint, journaled as resumable, and persisted back to
// "queued". It returns when every worker has exited or ctx expires.
func (s *Server) Shutdown(ctx context.Context) error {
	s.mu.Lock()
	if s.draining {
		s.mu.Unlock()
		return nil
	}
	s.draining = true
	s.mu.Unlock()
	s.ready.Store(false)

	if s.fleet != nil {
		s.fleet.shutdown()
	}
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
	select {
	case <-done:
		s.closeEvalStore()
		return nil
	case <-ctx.Done():
		s.cancelAll() // hard-cancel stragglers; journals stay resumable
		<-done
		s.closeEvalStore()
		return ctx.Err()
	}
}

// closeEvalStore marks the persistent evaluation store inert after the
// worker pool has drained; late stragglers see misses, never errors.
func (s *Server) closeEvalStore() {
	if s.evalStore != nil {
		s.evalStore.Close()
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
	mux.HandleFunc("GET /v1/peers", s.handlePeers)
	mux.HandleFunc("GET /healthz", s.handleHealthz)
	mux.HandleFunc("GET /livez", s.handleLivez)
	mux.HandleFunc("GET /varz", s.handleVarz)
	return mux
}

// submission is a validated, materialized job request: the decoded
// scenario plus (in fleet mode) the placement key and the key-derived ID.
type submission struct {
	req JobRequest
	sc  *scenario.Scenario
	key string
	id  string
}

// prepare validates a request and materializes its scenario. In fleet
// mode it also computes the placement key — the digest of the case and
// the search-steering options, i.e. the same identity the journal header
// carries — and the job ID derived from it.
func (s *Server) prepare(req JobRequest) (*submission, error) {
	if (req.Builtin == "") == (req.Case == nil) {
		return nil, &apiError{http.StatusBadRequest,
			"exactly one of builtin and case must be set"}
	}
	opts, _, err := req.Options()
	if err != nil {
		return nil, &apiError{http.StatusBadRequest, err.Error()}
	}
	var sc *scenario.Scenario
	if req.Builtin != "" {
		if sc, err = builtinScenario(req.Builtin); err != nil {
			return nil, &apiError{http.StatusBadRequest, err.Error()}
		}
	} else {
		if sc, err = caseio.FromUpload(*req.Case); err != nil {
			return nil, &apiError{http.StatusBadRequest, fmt.Sprintf("bad case: %v", err)}
		}
	}
	sub := &submission{req: req, sc: sc}
	if s.fleet != nil {
		hdr := core.SessionHeader(sc.Name, core.Problem{Topo: sc.Topo, Configs: sc.Configs, Intents: sc.Intents}, opts)
		sum := sha256.Sum256([]byte(hdr.CaseDigest + "|" + hdr.OptionsDigest))
		sub.key = hex.EncodeToString(sum[:])
		sub.id = "f" + sub.key[:16]
	}
	return sub, nil
}

// Submit validates, persists, and enqueues one job — the programmatic
// core of POST /v1/repairs, also used by tests. The bool reports whether
// a job was created: false means an equivalent job already existed (fleet
// dedup) and that one is returned.
func (s *Server) Submit(req JobRequest) (Job, error) {
	sub, err := s.prepare(req)
	if err != nil {
		return Job{}, err
	}
	job, _, err := s.admit(sub)
	return job, err
}

// admit runs keyed dedup and admission control, then persists and
// enqueues. In fleet mode two submissions with the same key are the same
// repair: a live duplicate returns the existing job, and a terminal one
// returns its cached result (duplicate incidents across a fleet cost one
// engine run). created is false for deduplicated returns.
func (s *Server) admit(sub *submission) (job Job, created bool, err error) {
	for {
		if sub.key != "" {
			if existing := s.store.findKey(sub.key, false); existing != nil {
				return existing.snapshot(), false, nil
			}
			// Claim the key against concurrent identical submissions; wait
			// and re-check if someone else holds it.
			s.subMu.Lock()
			if ch := s.creating[sub.key]; ch != nil {
				s.subMu.Unlock()
				<-ch
				continue
			}
			ch := make(chan struct{})
			s.creating[sub.key] = ch
			s.subMu.Unlock()
			defer func() {
				s.subMu.Lock()
				delete(s.creating, sub.key)
				s.subMu.Unlock()
				close(ch)
			}()
		}
		break
	}
	// Reserve the admission slot before the (slow, fallible) persistence
	// work so concurrent submissions cannot overshoot the cap.
	if err := s.queue.reserve(); err != nil {
		if errors.Is(err, ErrQueueFull) {
			return Job{}, false, &apiError{http.StatusTooManyRequests, err.Error()}
		}
		return Job{}, false, &apiError{http.StatusServiceUnavailable, err.Error()}
	}
	owner := ""
	if s.fleet != nil {
		owner = s.fleet.cfg.Self
	}
	j, err := s.store.create(sub.req, sub.sc, sub.id, sub.key, owner)
	if err != nil {
		s.queue.unreserve()
		return Job{}, false, &apiError{http.StatusInternalServerError, err.Error()}
	}
	s.queue.pushReserved(j)
	return j.snapshot(), true, nil
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
	case state.Terminal():
		rec := j.rec
		j.mu.Unlock()
		return rec, nil // idempotent
	case state == StateQueued && s.queue.remove(id):
		j.rec.State = StateCanceled
		j.rec.Error = "canceled by operator"
		j.mu.Unlock()
		s.persistAndEvent(j, Event{Type: "state", State: StateCanceled, Error: "canceled by operator"})
		j.events.close()
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
	if err := dec.Decode(&req); err != nil {
		writeErr(w, &apiError{http.StatusBadRequest, fmt.Sprintf("bad request body: %v", err)})
		return
	}
	sub, err := s.prepare(req)
	if err != nil {
		writeErr(w, err)
		return
	}
	// Fleet placement: route the job to its ring owner unless this request
	// was already forwarded once (one hop maximum — a membership
	// disagreement must not bounce a request around the ring) or the owner
	// walk lands back on self. When every preferred peer is unreachable
	// the job is admitted locally: a partitioned fleet degrades to
	// single-node service, never to refusal.
	if s.fleet != nil && r.Header.Get(forwardHeader) == "" {
		if prefs := s.fleet.placement(sub.key); prefs[0] != s.fleet.cfg.Self {
			if s.fleet.forwardSubmit(w, req, prefs) {
				return
			}
		}
	}
	job, created, err := s.admit(sub)
	if err != nil {
		writeErr(w, err)
		return
	}
	w.Header().Set("Location", "/v1/repairs/"+job.ID)
	status := http.StatusAccepted
	if !created {
		// Keyed duplicate: same repair, same record — report the existing
		// job rather than admitting twice.
		status = http.StatusOK
	}
	writeJSON(w, status, job)
}

// fanOut reports whether a read/cancel should consult peers: fleet mode,
// and neither forwarded nor explicitly scoped to this node.
func (s *Server) fanOut(r *http.Request) bool {
	return s.fleet != nil && r.Header.Get(forwardHeader) == "" &&
		r.URL.Query().Get("scope") != "local"
}

func (s *Server) handleList(w http.ResponseWriter, r *http.Request) {
	filter := JobState(r.URL.Query().Get("state"))
	if filter != "" && !filter.valid() {
		writeErr(w, &apiError{http.StatusBadRequest, fmt.Sprintf("unknown state %q", filter)})
		return
	}
	jobs := []Job{}
	for _, j := range s.store.list() {
		rec := j.snapshot()
		if filter == "" || rec.State == filter {
			jobs = append(jobs, rec)
		}
	}
	if s.fanOut(r) {
		// Merge every live peer's local view. Down peers are skipped — the
		// jobs they owned surface again once a peer adopts them.
		path := "/v1/repairs?scope=local"
		if filter != "" {
			path += "&state=" + string(filter)
		}
		for _, p := range s.fleet.upPeers() {
			body, status, err := s.fleet.peerGet(p, path)
			if err != nil || status != http.StatusOK {
				continue
			}
			peerJobs, err := decodePeerJobList(body)
			if err != nil {
				s.fleet.health.observe(p, false, fmt.Sprintf("bad list body: %v", err))
				continue
			}
			jobs = append(jobs, peerJobs...)
		}
		sort.Slice(jobs, func(i, k int) bool { return jobs[i].ID < jobs[k].ID })
	}
	writeJSON(w, http.StatusOK, map[string]any{"jobs": jobs})
}

func (s *Server) handleGet(w http.ResponseWriter, r *http.Request) {
	id := r.PathValue("id")
	if j := s.store.get(id); j != nil {
		writeJSON(w, http.StatusOK, j.snapshot())
		return
	}
	if s.fanOut(r) {
		for _, p := range s.fleet.upPeers() {
			body, status, err := s.fleet.peerGet(p, "/v1/repairs/"+id+"?scope=local")
			if err != nil || status != http.StatusOK {
				continue
			}
			job, err := decodePeerJob(body)
			if err != nil {
				s.fleet.health.observe(p, false, fmt.Sprintf("bad job body: %v", err))
				continue
			}
			writeJSON(w, http.StatusOK, job)
			return
		}
	}
	writeErr(w, &apiError{http.StatusNotFound, "no such job"})
}

func (s *Server) handleCancel(w http.ResponseWriter, r *http.Request) {
	id := r.PathValue("id")
	if s.store.get(id) == nil && s.fanOut(r) {
		// Not ours: relay the cancel to whichever live peer holds it.
		for _, p := range s.fleet.upPeers() {
			hreq, err := http.NewRequest(http.MethodDelete, "http://"+p+"/v1/repairs/"+id+"?scope=local", nil)
			if err != nil {
				break
			}
			hreq.Header.Set(forwardHeader, s.fleet.cfg.Self)
			resp, err := s.fleet.client.Do(hreq)
			if err != nil {
				s.fleet.health.observe(p, false, err.Error())
				continue
			}
			body, rerr := io.ReadAll(io.LimitReader(resp.Body, 8<<20))
			resp.Body.Close()
			if rerr != nil || resp.StatusCode == http.StatusNotFound {
				continue
			}
			s.fleet.forwarded.Add(1)
			w.Header().Set("Content-Type", "application/json")
			w.WriteHeader(resp.StatusCode)
			w.Write(body)
			return
		}
	}
	job, err := s.Cancel(id)
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
// jobs on boot, or draining for shutdown. Peer healthchecks and load
// balancers key off this. Liveness is /livez.
func (s *Server) handleHealthz(w http.ResponseWriter, _ *http.Request) {
	if !s.ready.Load() {
		s.mu.Lock()
		draining := s.draining
		s.mu.Unlock()
		status, reason := "booting", "recovering journaled jobs"
		if draining {
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

// handlePeers reports fleet membership as this node sees it: the static
// member list, each peer's health-probe state, and the fleet counters.
func (s *Server) handlePeers(w http.ResponseWriter, _ *http.Request) {
	if s.fleet == nil {
		writeJSON(w, http.StatusOK, map[string]any{
			"fleet": false,
			"self":  "",
			"peers": []peerStatus{},
		})
		return
	}
	up, down := s.fleet.health.counts()
	writeJSON(w, http.StatusOK, map[string]any{
		"fleet":             true,
		"self":              s.fleet.cfg.Self,
		"members":           s.fleet.members,
		"peers":             s.fleet.health.snapshot(),
		"peersUp":           up,
		"peersDown":         down,
		"requestsForwarded": s.fleet.forwarded.Load(),
		"leasesAdopted":     s.fleet.adopted.Load(),
		"leaseRenewals":     s.fleet.renewals.Load(),
	})
}

// handleVarz serves expvar-style counters. The map is rebuilt per request
// from live state and is deliberately unpublished (no expvar.Publish):
// publishing is process-global and would collide across test servers.
func (s *Server) handleVarz(w http.ResponseWriter, _ *http.Request) {
	byState := map[JobState]int{}
	for _, j := range s.store.list() {
		byState[j.state()]++
	}
	m := new(expvar.Map).Init()
	for _, st := range allStates {
		v := new(expvar.Int)
		v.Set(int64(byState[st]))
		m.Set("jobs_"+string(st), v)
	}
	set := func(name string, val int64) {
		v := new(expvar.Int)
		v.Set(val)
		m.Set(name, v)
	}
	set("queue_depth", int64(s.queue.depth()))
	set("workers", int64(s.cfg.Workers))
	set("workers_busy", s.busyWorkers.Load())
	set("candidates_validated", s.candidatesValidated.Load())
	set("panics_quarantined", s.panicsQuarantined.Load())
	set("delta_reused", s.deltaReused.Load())
	set("delta_resimulated", s.deltaResimulated.Load())
	set("sim_activations", s.simActivations.Load())
	if s.evalStore != nil {
		st := s.evalStore.Stats()
		set("store_hits", st.Hits)
		set("store_misses", st.Misses)
		set("store_corrupt", st.Corrupt)
		set("store_evicted", st.Evicted)
		set("store_bytes", st.Bytes)
	}
	if s.fleet != nil {
		up, down := s.fleet.health.counts()
		set("peers_up", int64(up))
		set("peers_down", int64(down))
		set("requests_forwarded", s.fleet.forwarded.Load())
		set("leases_adopted", s.fleet.adopted.Load())
		set("lease_renewals", s.fleet.renewals.Load())
	}
	w.Header().Set("Content-Type", "application/json")
	// expvar.Map renders itself as a JSON object.
	fmt.Fprintln(w, m.String())
}
