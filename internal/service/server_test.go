package service_test

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"reflect"
	"sort"
	"strings"
	"sync"
	"testing"
	"time"

	"acr/internal/caseio"
	"acr/internal/journal"
	"acr/internal/scenario"
	"acr/internal/service"
)

func newTestServer(t *testing.T, cfg service.Config) (*service.Server, *httptest.Server) {
	t.Helper()
	if cfg.StateDir == "" {
		cfg.StateDir = t.TempDir()
	}
	srv, err := service.New(cfg)
	if err != nil {
		t.Fatalf("New: %v", err)
	}
	srv.Start()
	ts := httptest.NewServer(srv.Handler())
	t.Cleanup(ts.Close)
	t.Cleanup(func() {
		ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
		defer cancel()
		srv.Shutdown(ctx)
	})
	return srv, ts
}

func submit(t *testing.T, ts *httptest.Server, req service.JobRequest) (service.Job, *http.Response) {
	t.Helper()
	body, _ := json.Marshal(req)
	resp, err := http.Post(ts.URL+"/v1/repairs", "application/json", bytes.NewReader(body))
	if err != nil {
		t.Fatalf("POST: %v", err)
	}
	defer resp.Body.Close()
	var job service.Job
	if resp.StatusCode == http.StatusAccepted {
		if err := json.NewDecoder(resp.Body).Decode(&job); err != nil {
			t.Fatalf("decode job: %v", err)
		}
	} else {
		io.Copy(io.Discard, resp.Body)
	}
	return job, resp
}

// getFrom GETs path from the daemon at addr and decodes the JSON body
// into v (when non-nil).
func getFrom(t *testing.T, addr, path string, v any) *http.Response {
	t.Helper()
	resp, err := http.Get("http://" + addr + path)
	if err != nil {
		t.Fatalf("GET %s%s: %v", addr, path, err)
	}
	defer resp.Body.Close()
	if v != nil {
		if err := json.NewDecoder(resp.Body).Decode(v); err != nil {
			t.Fatalf("decode %s%s: %v", addr, path, err)
		}
	}
	return resp
}

func getJob(t *testing.T, ts *httptest.Server, id string) service.Job {
	t.Helper()
	resp, err := http.Get(ts.URL + "/v1/repairs/" + id)
	if err != nil {
		t.Fatalf("GET: %v", err)
	}
	defer resp.Body.Close()
	var job service.Job
	if err := json.NewDecoder(resp.Body).Decode(&job); err != nil {
		t.Fatalf("decode: %v", err)
	}
	return job
}

func waitState(t *testing.T, ts *httptest.Server, id string, pred func(service.Job) bool) service.Job {
	t.Helper()
	deadline := time.Now().Add(30 * time.Second)
	for time.Now().Before(deadline) {
		job := getJob(t, ts, id)
		if pred(job) {
			return job
		}
		time.Sleep(10 * time.Millisecond)
	}
	t.Fatalf("job %s never reached wanted state (last: %+v)", id, getJob(t, ts, id))
	return service.Job{}
}

// unsatisfiableUpload is a case no repair can fix: it demands reachability
// to a prefix nothing originates, so the engine grinds until canceled or
// capped — the controllable long-running job the cancel and backpressure
// tests need.
func unsatisfiableUpload(t *testing.T) *caseio.Upload {
	t.Helper()
	u := caseio.ToUpload(scenario.Figure2())
	u.Name = "unsat"
	u.Intents = "reach impossible 10.0.1.0/24 203.0.113.0/24\n"
	return &u
}

func TestSubmitRunsToDone(t *testing.T) {
	_, ts := newTestServer(t, service.Config{Workers: 1})
	job, resp := submit(t, ts, service.JobRequest{Builtin: "figure2", Seed: 7})
	if resp.StatusCode != http.StatusAccepted {
		t.Fatalf("status = %d, want 202", resp.StatusCode)
	}
	if loc := resp.Header.Get("Location"); loc != "/v1/repairs/"+job.ID {
		t.Fatalf("Location = %q", loc)
	}
	done := waitState(t, ts, job.ID, func(j service.Job) bool { return j.State.Terminal() })
	if done.State != service.StateDone {
		t.Fatalf("state = %s (error %q), want done", done.State, done.Error)
	}
	if done.Result == nil {
		t.Fatal("terminal job has no result")
	}
	if !done.Result.Feasible || done.Result.Outcome != "feasible" || done.Result.ExitCode != 0 {
		t.Fatalf("result = %+v, want feasible/0", done.Result)
	}
	if done.Result.CanonicalSHA256 == "" || len(done.Result.Configs) == 0 {
		t.Fatalf("result missing canonical digest or configs: %+v", done.Result)
	}
}

func TestSubmitValidation(t *testing.T) {
	_, ts := newTestServer(t, service.Config{Workers: 1})
	for _, req := range []service.JobRequest{
		{},                                  // neither builtin nor case
		{Builtin: "nope"},                   // unknown builtin
		{Builtin: "figure2", Strategy: "x"}, // unknown strategy
	} {
		if _, resp := submit(t, ts, req); resp.StatusCode != http.StatusBadRequest {
			t.Errorf("submit(%+v) = %d, want 400", req, resp.StatusCode)
		}
	}
	// Fields the API does not define are refused, not ignored — including
	// "parallelism", which older daemons accepted.
	resp, err := http.Post(ts.URL+"/v1/repairs", "application/json",
		strings.NewReader(`{"builtin":"figure2","seed":7,"parallelism":4}`))
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusBadRequest {
		t.Errorf(`submit with "parallelism" = %d, want 400`, resp.StatusCode)
	}
	resp, err = http.Get(ts.URL + "/v1/repairs/nosuch")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusNotFound {
		t.Fatalf("GET nosuch = %d, want 404", resp.StatusCode)
	}
}

// TestSubmitOneJSONValue: a submission body is exactly one JSON value.
// Trailing garbage or a second object is a 400 and queues no job.
func TestSubmitOneJSONValue(t *testing.T) {
	srv, ts := newTestServer(t, service.Config{Workers: 1})
	for _, body := range []string{
		`{"builtin":"figure2"}garbage`,
		`{"builtin":"figure2"} {"builtin":"nonsense"}`,
		`{"builtin":"figure2"}}`,
	} {
		resp, err := http.Post(ts.URL+"/v1/repairs", "application/json", strings.NewReader(body))
		if err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		if resp.StatusCode != http.StatusBadRequest {
			t.Errorf("submit %s = %d, want 400", body, resp.StatusCode)
		}
	}
	if jobs := srv.Jobs(); len(jobs) != 0 {
		t.Fatalf("refused bodies queued %d jobs", len(jobs))
	}
	// Trailing white space is not a second value.
	resp, err := http.Post(ts.URL+"/v1/repairs", "application/json", strings.NewReader("{\"builtin\":\"figure2\"}\n \t"))
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusAccepted {
		t.Fatalf("submit with trailing white space = %d, want 202", resp.StatusCode)
	}
}

// TestSubmitOversizedBody413: a body over the 4 MiB cap is refused as
// too large, not as malformed, and queues no job.
func TestSubmitOversizedBody413(t *testing.T) {
	srv, ts := newTestServer(t, service.Config{Workers: 1})
	body := `{"builtin":"figure2","case":{"name":"` + strings.Repeat("x", 5<<20) + `"}}`
	resp, err := http.Post(ts.URL+"/v1/repairs", "application/json", strings.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusRequestEntityTooLarge {
		t.Fatalf("5 MiB body = %d, want 413", resp.StatusCode)
	}
	if jobs := srv.Jobs(); len(jobs) != 0 {
		t.Fatalf("oversized body queued %d jobs", len(jobs))
	}
}

// TestSubmitTimeoutSeconds: timeoutSeconds bounds the job's run. A 1ns
// budget ends Figure 2 on "deadline"; a negative budget, and one whose
// nanoseconds overflow an int64, are refused with 400.
func TestSubmitTimeoutSeconds(t *testing.T) {
	_, ts := newTestServer(t, service.Config{Workers: 1})
	job, resp := submit(t, ts, service.JobRequest{Builtin: "figure2", TimeoutSeconds: 1e-9})
	if resp.StatusCode != http.StatusAccepted {
		t.Fatalf("status = %d, want 202", resp.StatusCode)
	}
	done := waitState(t, ts, job.ID, func(j service.Job) bool { return j.State.Terminal() })
	if done.State != service.StateDone || done.Result == nil {
		t.Fatalf("state = %s (error %q), want done with a result", done.State, done.Error)
	}
	if done.Result.Termination != "deadline" {
		t.Fatalf("termination = %q, want deadline", done.Result.Termination)
	}
	for _, secs := range []float64{-1, 1e10} {
		if _, resp := submit(t, ts, service.JobRequest{Builtin: "figure2", TimeoutSeconds: secs}); resp.StatusCode != http.StatusBadRequest {
			t.Errorf("timeoutSeconds %g: status = %d, want 400", secs, resp.StatusCode)
		}
	}
}

func TestBackpressure429(t *testing.T) {
	release := make(chan struct{})
	defer func() {
		select {
		case <-release:
		default:
			close(release)
		}
	}()
	hook := func(int, *journal.Record) error { <-release; return nil }
	_, ts := newTestServer(t, service.Config{Workers: 1, QueueCap: 1, JournalHook: hook})

	unsat := unsatisfiableUpload(t)
	// Job A occupies the lone worker (blocked on its first journal append).
	a, _ := submit(t, ts, service.JobRequest{Case: unsat, Seed: 1})
	waitState(t, ts, a.ID, func(j service.Job) bool { return j.State == service.StateRunning })
	// Job B fills the queue (cap 1).
	b, respB := submit(t, ts, service.JobRequest{Case: unsat, Seed: 2})
	if respB.StatusCode != http.StatusAccepted {
		t.Fatalf("second submit = %d, want 202", respB.StatusCode)
	}
	// Job C must be refused with 429 + Retry-After.
	_, respC := submit(t, ts, service.JobRequest{Case: unsat, Seed: 3})
	if respC.StatusCode != http.StatusTooManyRequests {
		t.Fatalf("third submit = %d, want 429", respC.StatusCode)
	}
	if respC.Header.Get("Retry-After") == "" {
		t.Fatal("429 without Retry-After")
	}

	// Canceling queued job B frees its slot immediately.
	req, _ := http.NewRequest(http.MethodDelete, ts.URL+"/v1/repairs/"+b.ID, nil)
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if got := getJob(t, ts, b.ID); got.State != service.StateCanceled {
		t.Fatalf("canceled queued job state = %s", got.State)
	}
	if _, respD := submit(t, ts, service.JobRequest{Case: unsat, Seed: 4}); respD.StatusCode != http.StatusAccepted {
		t.Fatalf("submit after cancel = %d, want 202", respD.StatusCode)
	}

	// Unblock the worker and cancel the rest so Shutdown drains fast.
	close(release)
	for _, id := range []string{a.ID} {
		req, _ := http.NewRequest(http.MethodDelete, ts.URL+"/v1/repairs/"+id, nil)
		if resp, err := http.DefaultClient.Do(req); err == nil {
			resp.Body.Close()
		}
	}
}

func TestCancelMidRun(t *testing.T) {
	release := make(chan struct{})
	hook := func(int, *journal.Record) error { <-release; return nil }
	_, ts := newTestServer(t, service.Config{Workers: 1, JournalHook: hook})

	job, _ := submit(t, ts, service.JobRequest{Case: unsatisfiableUpload(t), Seed: 1, MaxIterations: 100000})
	waitState(t, ts, job.ID, func(j service.Job) bool { return j.State == service.StateRunning })

	req, _ := http.NewRequest(http.MethodDelete, ts.URL+"/v1/repairs/"+job.ID, nil)
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("DELETE = %d", resp.StatusCode)
	}
	close(release) // let the engine reach its next context check

	got := waitState(t, ts, job.ID, func(j service.Job) bool { return j.State.Terminal() })
	if got.State != service.StateCanceled {
		t.Fatalf("state = %s, want canceled", got.State)
	}
	if got.Result == nil || got.Result.Termination != "canceled" || got.Result.ExitCode != service.ExitDeadline {
		t.Fatalf("canceled result = %+v", got.Result)
	}
	// DELETE is idempotent on terminal jobs.
	req2, _ := http.NewRequest(http.MethodDelete, ts.URL+"/v1/repairs/"+job.ID, nil)
	resp2, err := http.DefaultClient.Do(req2)
	if err != nil {
		t.Fatal(err)
	}
	resp2.Body.Close()
	if resp2.StatusCode != http.StatusOK {
		t.Fatalf("second DELETE = %d", resp2.StatusCode)
	}
}

// sseEvent is one parsed server-sent event frame.
type sseEvent struct {
	id    int
	event string
	data  service.Event
}

func readSSE(t *testing.T, body io.Reader) []sseEvent {
	t.Helper()
	raw, err := io.ReadAll(body)
	if err != nil {
		t.Fatalf("read SSE: %v", err)
	}
	var out []sseEvent
	for _, frame := range strings.Split(string(raw), "\n\n") {
		if strings.TrimSpace(frame) == "" {
			continue
		}
		var e sseEvent
		for _, line := range strings.Split(frame, "\n") {
			switch {
			case strings.HasPrefix(line, "id: "):
				fmt.Sscanf(line, "id: %d", &e.id)
			case strings.HasPrefix(line, "event: "):
				e.event = strings.TrimPrefix(line, "event: ")
			case strings.HasPrefix(line, "data: "):
				if err := json.Unmarshal([]byte(strings.TrimPrefix(line, "data: ")), &e.data); err != nil {
					t.Fatalf("bad SSE data %q: %v", line, err)
				}
			}
		}
		out = append(out, e)
	}
	return out
}

func TestEventsSSEOrdering(t *testing.T) {
	_, ts := newTestServer(t, service.Config{Workers: 1})
	job, _ := submit(t, ts, service.JobRequest{Builtin: "figure2", Seed: 7})
	waitState(t, ts, job.ID, func(j service.Job) bool { return j.State.Terminal() })

	resp, err := http.Get(ts.URL + "/v1/repairs/" + job.ID + "/events")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if ct := resp.Header.Get("Content-Type"); ct != "text/event-stream" {
		t.Fatalf("Content-Type = %q", ct)
	}
	events := readSSE(t, resp.Body)
	if len(events) < 3 {
		t.Fatalf("got %d events, want at least queued/running/done", len(events))
	}
	// Seqs strictly increase and match the data payload.
	for i, e := range events {
		if e.id != e.data.Seq {
			t.Fatalf("event %d: id %d != data.seq %d", i, e.id, e.data.Seq)
		}
		if i > 0 && e.id <= events[i-1].id {
			t.Fatalf("event %d: seq %d not increasing after %d", i, e.id, events[i-1].id)
		}
		if e.event != e.data.Type {
			t.Fatalf("event %d: event name %q != data.type %q", i, e.event, e.data.Type)
		}
	}
	// Lifecycle bracketing: queued first, then running, done last, with
	// engine progress strictly between running and done.
	if events[0].data.Type != "state" || events[0].data.State != service.StateQueued {
		t.Fatalf("first event = %+v, want queued", events[0].data)
	}
	if events[1].data.Type != "state" || events[1].data.State != service.StateRunning {
		t.Fatalf("second event = %+v, want running", events[1].data)
	}
	last := events[len(events)-1].data
	if last.Type != "state" || last.State != service.StateDone {
		t.Fatalf("last event = %+v, want done", last)
	}
	engine := 0
	for _, e := range events[2 : len(events)-1] {
		switch e.data.Type {
		case "candidate", "iteration", "checkpoint":
			engine++
		default:
			t.Fatalf("unexpected mid-stream event %+v", e.data)
		}
	}
	if engine == 0 {
		t.Fatal("no engine progress events between running and done")
	}

	// Last-Event-ID resumes mid-stream.
	req, _ := http.NewRequest(http.MethodGet, ts.URL+"/v1/repairs/"+job.ID+"/events", nil)
	req.Header.Set("Last-Event-ID", fmt.Sprint(events[1].id))
	resp2, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	defer resp2.Body.Close()
	rest := readSSE(t, resp2.Body)
	if len(rest) != len(events)-2 {
		t.Fatalf("Last-Event-ID replay = %d events, want %d", len(rest), len(events)-2)
	}
	if rest[0].id != events[2].id {
		t.Fatalf("replay starts at %d, want %d", rest[0].id, events[2].id)
	}
}

func TestHealthzAndVarz(t *testing.T) {
	_, ts := newTestServer(t, service.Config{Workers: 3})
	job, _ := submit(t, ts, service.JobRequest{Builtin: "figure2", Seed: 7})
	done := waitState(t, ts, job.ID, func(j service.Job) bool { return j.State.Terminal() })
	if done.Result == nil {
		t.Fatalf("job %s ended %s without a result", done.ID, done.State)
	}

	resp, err := http.Get(ts.URL + "/healthz")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var health map[string]any
	if err := json.NewDecoder(resp.Body).Decode(&health); err != nil {
		t.Fatal(err)
	}
	if health["status"] != "ok" || health["workers"] != float64(3) {
		t.Fatalf("healthz = %v", health)
	}

	resp2, err := http.Get(ts.URL + "/varz")
	if err != nil {
		t.Fatal(err)
	}
	defer resp2.Body.Close()
	var varz map[string]int64
	if err := json.NewDecoder(resp2.Body).Decode(&varz); err != nil {
		t.Fatal(err)
	}
	if varz["jobs_done"] != 1 || varz["workers"] != 3 {
		t.Fatalf("varz = %v", varz)
	}
	if varz["candidates_validated"] == 0 {
		t.Fatalf("varz candidates_validated = 0: %v", varz)
	}
	// One job ran: every work counter on /varz is that job's.
	c := done.Result.Counters
	want := map[string]int{
		"candidates_validated":    c.CandidatesValidated,
		"prefix_simulations":      c.PrefixSimulations,
		"intent_checks":           c.IntentChecks,
		"templates_pruned_static": c.TemplatesPrunedStatic,
		"panics_quarantined":      c.CandidatesPanicked,
		"cache_hits":              c.CacheHits,
		"cache_misses":            c.CacheMisses,
		"statically_refuted":      c.StaticallyRefuted,
		"impact_scoped":           c.ImpactScoped,
		"impact_broad":            c.ImpactBroad,
		"delta_reused":            c.DeltaReused,
		"delta_resimulated":       c.DeltaResimulated,
		"sim_activations":         c.SimActivations,
	}
	if n := reflect.TypeOf(c).NumField(); len(want) != n {
		t.Fatalf("the test checks %d counters of %d", len(want), n)
	}
	for key, n := range want { //acrvet:ordered — independent checks
		if got, ok := varz[key]; !ok || got != int64(n) {
			t.Errorf("varz %s = %d (present %v), the job's counter is %d", key, got, ok, n)
		}
	}
}

// TestFleetSingleNodeVarzStates: a lone daemon's /varz exposes one
// jobs_<state> gauge per lifecycle state, and no others.
func TestFleetSingleNodeVarzStates(t *testing.T) {
	_, ts := newTestServer(t, service.Config{Workers: 1})
	var varz map[string]int64
	getFrom(t, ts.Listener.Addr().String(), "/varz", &varz)
	var gauges []string
	for name := range varz {
		if strings.HasPrefix(name, "jobs_") {
			gauges = append(gauges, name)
		}
	}
	sort.Strings(gauges)
	want := []string{"jobs_canceled", "jobs_done", "jobs_failed", "jobs_queued", "jobs_running"}
	if !reflect.DeepEqual(gauges, want) {
		t.Fatalf("varz state gauges = %v, want %v", gauges, want)
	}
}

// TestReadinessSplitsFromLiveness: /healthz is readiness (503 + reason
// while booting or draining), /livez is liveness (200 whenever the process
// answers at all).
func TestReadinessSplitsFromLiveness(t *testing.T) {
	srv, err := service.New(service.Config{StateDir: t.TempDir(), Workers: 1})
	if err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(srv.Handler())
	t.Cleanup(ts.Close)
	addr := ts.Listener.Addr().String()

	check := func(path string, wantStatus int, wantBody string) {
		t.Helper()
		var body map[string]any
		resp := getFrom(t, addr, path, &body)
		if resp.StatusCode != wantStatus {
			t.Fatalf("%s = %d (%v), want %d", path, resp.StatusCode, body, wantStatus)
		}
		if body["status"] != wantBody {
			t.Fatalf("%s status = %v, want %q", path, body["status"], wantBody)
		}
		if wantStatus == http.StatusServiceUnavailable && body["reason"] == "" {
			t.Fatalf("%s 503 without reason: %v", path, body)
		}
	}

	// Constructed but not started: alive, not ready.
	check("/livez", http.StatusOK, "alive")
	check("/healthz", http.StatusServiceUnavailable, "booting")

	srv.Start()
	check("/healthz", http.StatusOK, "ok")
	check("/livez", http.StatusOK, "alive")

	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	if err := srv.Shutdown(ctx); err != nil {
		t.Fatal(err)
	}
	check("/healthz", http.StatusServiceUnavailable, "draining")
	check("/livez", http.StatusOK, "alive")
}

// TestAdmissionRaceAtCapacity: concurrent POSTs cannot overshoot the
// reserve-before-persist queue bound.
func TestAdmissionRaceAtCapacity(t *testing.T) {
	release := make(chan struct{})
	defer func() {
		select {
		case <-release:
		default:
			close(release)
		}
	}()
	hook := func(int, *journal.Record) error { <-release; return nil }
	_, ts := newTestServer(t, service.Config{Workers: 1, QueueCap: 2, JournalHook: hook})

	// Occupy the lone worker (the job parks at its first engine append),
	// then one of the two queue slots.
	blocker, resp := submit(t, ts, service.JobRequest{Builtin: "figure2", Seed: 100})
	if resp.StatusCode != http.StatusAccepted {
		t.Fatalf("blocker = %d", resp.StatusCode)
	}
	waitState(t, ts, blocker.ID, func(j service.Job) bool { return j.State == service.StateRunning })
	if _, resp := submit(t, ts, service.JobRequest{Builtin: "figure2", Seed: 200}); resp.StatusCode != http.StatusAccepted {
		t.Fatalf("filler = %d", resp.StatusCode)
	}

	// Distinct submissions against the one remaining slot: exactly one
	// 202, the rest 429.
	const racers = 16
	var wg sync.WaitGroup
	statuses := make([]int, racers)
	for i := 0; i < racers; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			body, _ := json.Marshal(service.JobRequest{Builtin: "figure2", Seed: int64(300 + i)})
			resp, err := http.Post(ts.URL+"/v1/repairs", "application/json", bytes.NewReader(body))
			if err != nil {
				t.Error(err)
				return
			}
			io.Copy(io.Discard, resp.Body)
			resp.Body.Close()
			statuses[i] = resp.StatusCode
		}(i)
	}
	wg.Wait()
	counts := map[int]int{}
	for _, s := range statuses {
		counts[s]++
	}
	if counts[http.StatusAccepted] != 1 || counts[http.StatusTooManyRequests] != racers-1 {
		t.Fatalf("capacity race: %v, want 1x202 + %dx429 (reserve-before-persist bound)", counts, racers-1)
	}
}

func TestListFiltering(t *testing.T) {
	_, ts := newTestServer(t, service.Config{Workers: 1})
	job, _ := submit(t, ts, service.JobRequest{Builtin: "figure2", Seed: 7})
	waitState(t, ts, job.ID, func(j service.Job) bool { return j.State.Terminal() })

	var list struct {
		Jobs []service.Job `json:"jobs"`
	}
	resp, err := http.Get(ts.URL + "/v1/repairs?state=done")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if err := json.NewDecoder(resp.Body).Decode(&list); err != nil {
		t.Fatal(err)
	}
	if len(list.Jobs) != 1 || list.Jobs[0].ID != job.ID {
		t.Fatalf("list done = %+v", list.Jobs)
	}
	resp2, err := http.Get(ts.URL + "/v1/repairs?state=bogus")
	if err != nil {
		t.Fatal(err)
	}
	resp2.Body.Close()
	if resp2.StatusCode != http.StatusBadRequest {
		t.Fatalf("bogus filter = %d, want 400", resp2.StatusCode)
	}
}

// TestShutdownDrainRequeuesAndResumes exercises the graceful path the
// SIGKILL e2e exercises violently: a drain interrupts a running job at a
// checkpoint, persists it back to "queued", and the next boot on the same
// state directory resumes and finishes it.
func TestShutdownDrainRequeuesAndResumes(t *testing.T) {
	stateDir := t.TempDir()
	// Park the engine on its first append after a checkpoint, so the drain
	// interrupts a session the next boot can restore rather than restart.
	release, parked := make(chan struct{}), make(chan struct{})
	var park sync.Once
	checkpointed := false // only the lone worker's engine goroutine appends
	hook := func(_ int, r *journal.Record) error {
		if checkpointed {
			park.Do(func() { close(parked); <-release })
		}
		checkpointed = checkpointed || r.Type == journal.TypeCheckpoint
		return nil
	}
	srv1, err := service.New(service.Config{StateDir: stateDir, Workers: 1, JournalHook: hook})
	if err != nil {
		t.Fatal(err)
	}
	srv1.Start()
	ts1 := httptest.NewServer(srv1.Handler())
	job, _ := submit(t, ts1, service.JobRequest{Case: unsatisfiableUpload(t), Seed: 1, MaxIterations: 5})
	<-parked
	ts1.Close()

	done := make(chan error, 1)
	go func() {
		ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
		defer cancel()
		done <- srv1.Shutdown(ctx)
	}()
	// Let the drain reach its job-cancel step before unparking the engine;
	// released too early, the tiny unsatisfiable search can finish before
	// the cancel lands and the job goes terminal instead of requeueing.
	time.Sleep(250 * time.Millisecond)
	close(release) // the blocked engine wakes, sees the drain, checkpoints
	if err := <-done; err != nil {
		t.Fatalf("Shutdown: %v", err)
	}

	srv2, err := service.New(service.Config{StateDir: stateDir, Workers: 1})
	if err != nil {
		t.Fatal(err)
	}
	srv2.Start()
	ts2 := httptest.NewServer(srv2.Handler())
	defer ts2.Close()
	defer func() {
		ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
		defer cancel()
		srv2.Shutdown(ctx)
	}()
	got := waitState(t, ts2, job.ID, func(j service.Job) bool { return j.State.Terminal() })
	if got.State != service.StateDone {
		t.Fatalf("state after reboot = %s (error %q), want done", got.State, got.Error)
	}
	if got.Attempts != 2 {
		t.Fatalf("attempts = %d, want the drained attempt plus the resumed one", got.Attempts)
	}
	// The reloaded case must digest as the submitted one did: on a mismatch
	// the second daemon would silently truncate the journal and rerun.
	if !got.Resumed {
		t.Fatal("second daemon reran the job instead of resuming its journal")
	}
	if got.Result == nil || got.Result.Feasible {
		t.Fatalf("unsatisfiable case produced %+v", got.Result)
	}
}
