package service_test

import (
	"bytes"
	"context"
	"encoding/json"
	"net"
	"net/http"
	"sync"
	"testing"
	"time"

	"acr/internal/caseio"
	"acr/internal/core"
	"acr/internal/journal"
	"acr/internal/scenario"
	"acr/internal/service"
)

// fleetNode is one in-process fleet member serving on a real TCP listener
// (peers dial each other by address, so httptest's client-only server is
// not enough).
type fleetNode struct {
	srv  *service.Server
	hs   *http.Server
	addr string
}

// newFleetListeners reserves n real listeners up front so every node knows
// the full membership before any server is constructed.
func newFleetListeners(t *testing.T, n int) ([]net.Listener, []string) {
	t.Helper()
	lns := make([]net.Listener, n)
	addrs := make([]string, n)
	for i := range lns {
		ln, err := net.Listen("tcp", "127.0.0.1:0")
		if err != nil {
			t.Fatal(err)
		}
		lns[i] = ln
		addrs[i] = ln.Addr().String()
	}
	return lns, addrs
}

// startFleetNode builds, starts, and serves one member. Mutate cfg (hooks,
// workers) before passing it in; Fleet is filled here.
func startFleetNode(t *testing.T, cfg service.Config, ln net.Listener, self string, peers []string, fleetDir string) *fleetNode {
	t.Helper()
	if cfg.Workers == 0 {
		cfg.Workers = 1
	}
	cfg.Fleet = &service.FleetConfig{
		Self:           self,
		Peers:          peers,
		Dir:            fleetDir,
		LeaseTTL:       300 * time.Millisecond,
		HealthInterval: 50 * time.Millisecond,
	}
	srv, err := service.New(cfg)
	if err != nil {
		t.Fatalf("New(%s): %v", self, err)
	}
	srv.Start()
	hs := &http.Server{Handler: srv.Handler()}
	go hs.Serve(ln)
	n := &fleetNode{srv: srv, hs: hs, addr: self}
	t.Cleanup(func() { n.stop(t) })
	return n
}

// stop drains and closes a node; safe to call twice.
func (n *fleetNode) stop(t *testing.T) {
	t.Helper()
	n.hs.Close()
	ctx, cancel := context.WithTimeout(context.Background(), 15*time.Second)
	defer cancel()
	n.srv.Shutdown(ctx)
}

func postTo(t *testing.T, addr string, req service.JobRequest) (service.Job, *http.Response) {
	t.Helper()
	body, _ := json.Marshal(req)
	resp, err := http.Post("http://"+addr+"/v1/repairs", "application/json", bytes.NewReader(body))
	if err != nil {
		t.Fatalf("POST %s: %v", addr, err)
	}
	defer resp.Body.Close()
	var job service.Job
	if resp.StatusCode == http.StatusAccepted || resp.StatusCode == http.StatusOK {
		if err := json.NewDecoder(resp.Body).Decode(&job); err != nil {
			t.Fatalf("decode job: %v", err)
		}
	}
	return job, resp
}

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

// referenceSHA runs the submission uninterrupted in-process and returns the
// canonical result digest the fleet must reproduce.
func referenceSHA(t *testing.T, req service.JobRequest) string {
	t.Helper()
	opts, _, err := req.Options()
	if err != nil {
		t.Fatal(err)
	}
	var sc *scenario.Scenario
	if req.Builtin != "" {
		sc = scenario.Figure2()
	} else {
		if sc, err = caseio.FromUpload(*req.Case); err != nil {
			t.Fatal(err)
		}
	}
	p := core.Problem{Topo: sc.Topo, Configs: sc.Configs, Intents: sc.Intents}
	res := core.RepairContext(context.Background(), p, opts)
	return service.NewResultJSON(res).CanonicalSHA256
}

// TestFleetForwardDedupFanout: a two-node fleet routes each submission to
// its ring owner, answers duplicates with the existing job, and serves
// reads for any job from any node.
func TestFleetForwardDedupFanout(t *testing.T) {
	if testing.Short() {
		t.Skip("multi-node fleet; skipped in -short")
	}
	lns, addrs := newFleetListeners(t, 2)
	fleetDir := t.TempDir()
	n1 := startFleetNode(t, service.Config{StateDir: t.TempDir()}, lns[0], addrs[0], []string{addrs[1]}, fleetDir)
	_ = startFleetNode(t, service.Config{StateDir: t.TempDir()}, lns[1], addrs[1], []string{addrs[0]}, fleetDir)

	// Keys spread over the ring, so within a few seeds one job must land on
	// the remote node (each seed changes the options digest and the key).
	var forwarded service.Job
	var fwdReq service.JobRequest
	for seed := int64(1); seed <= 32; seed++ {
		req := service.JobRequest{Builtin: "figure2", Seed: seed}
		job, resp := postTo(t, addrs[0], req)
		if resp.StatusCode != http.StatusAccepted {
			t.Fatalf("seed %d: status %d, want 202", seed, resp.StatusCode)
		}
		if job.Owner == addrs[1] {
			if got := resp.Header.Get("X-Acr-Owner"); got != addrs[1] {
				t.Errorf("forwarded response lacks X-Acr-Owner (got %q)", got)
			}
			forwarded, fwdReq = job, req
			break
		}
	}
	if forwarded.ID == "" {
		t.Fatal("no submission was owned by the remote node in 32 seeds")
	}

	// The same submission again — to the *non-owner* — returns the existing
	// job, not a second admission.
	dup, resp := postTo(t, addrs[0], fwdReq)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("duplicate submit status = %d, want 200", resp.StatusCode)
	}
	if dup.ID != forwarded.ID {
		t.Fatalf("duplicate created new job %s, want %s", dup.ID, forwarded.ID)
	}

	// Fan-out read: node1 does not hold the job locally but finds it.
	deadline := time.Now().Add(60 * time.Second)
	var got service.Job
	for time.Now().Before(deadline) {
		if r := getFrom(t, addrs[0], "/v1/repairs/"+forwarded.ID, &got); r.StatusCode != http.StatusOK {
			t.Fatalf("fan-out GET = %d", r.StatusCode)
		}
		if got.State.Terminal() {
			break
		}
		time.Sleep(20 * time.Millisecond)
	}
	if got.State != service.StateDone {
		t.Fatalf("remote job state = %s (error %q), want done", got.State, got.Error)
	}
	if sha := referenceSHA(t, fwdReq); got.Result == nil || got.Result.CanonicalSHA256 != sha {
		t.Fatalf("forwarded job result = %+v, want canonical sha %s", got.Result, sha)
	}

	// Merged list view: every job exactly once, from either node.
	var list struct {
		Jobs []service.Job `json:"jobs"`
	}
	getFrom(t, addrs[0], "/v1/repairs", &list)
	seen := map[string]int{}
	for _, j := range list.Jobs {
		seen[j.ID]++
	}
	if seen[forwarded.ID] != 1 {
		t.Fatalf("merged list shows remote job %d times: %v", seen[forwarded.ID], seen)
	}

	// Fleet counters and membership.
	var varz map[string]int64
	getFrom(t, addrs[0], "/varz", &varz)
	if varz["requests_forwarded"] < 1 {
		t.Fatalf("varz requests_forwarded = %d, want >= 1 (%v)", varz["requests_forwarded"], varz)
	}
	if varz["peers_up"] != 1 || varz["peers_down"] != 0 {
		t.Fatalf("varz peers = up %d / down %d, want 1/0", varz["peers_up"], varz["peers_down"])
	}
	var peers struct {
		Fleet   bool     `json:"fleet"`
		Self    string   `json:"self"`
		Members []string `json:"members"`
		Peers   []struct {
			Addr string `json:"addr"`
			Up   bool   `json:"up"`
		} `json:"peers"`
	}
	getFrom(t, addrs[0], "/v1/peers", &peers)
	if !peers.Fleet || peers.Self != addrs[0] || len(peers.Members) != 2 {
		t.Fatalf("/v1/peers = %+v", peers)
	}
	if len(peers.Peers) != 1 || peers.Peers[0].Addr != addrs[1] || !peers.Peers[0].Up {
		t.Fatalf("/v1/peers peers = %+v", peers.Peers)
	}

	_ = n1
}

// TestFleetAdoptionResumesByteIdentical: node A is drained mid-run and its
// listener closed (the graceful twin of the SIGKILL e2e); node B must mark
// A down, adopt the orphaned job through the shared fleet dir, resume it,
// and produce the byte-identical canonical result of an uninterrupted run.
func TestFleetAdoptionResumesByteIdentical(t *testing.T) {
	if testing.Short() {
		t.Skip("multi-node fleet; skipped in -short")
	}
	lns, addrs := newFleetListeners(t, 2)
	fleetDir := t.TempDir()

	release := make(chan struct{})
	hook := func(int, *journal.Record) error { <-release; return nil }
	stateA, stateB := t.TempDir(), t.TempDir()
	nA := startFleetNode(t, service.Config{StateDir: stateA, JournalHook: hook},
		lns[0], addrs[0], []string{addrs[1]}, fleetDir)
	_ = startFleetNode(t, service.Config{StateDir: stateB},
		lns[1], addrs[1], []string{addrs[0]}, fleetDir)
	// If an assertion fires while A's worker is still parked in the hook,
	// unpark it before the node cleanups run — otherwise A's Shutdown waits
	// on the parked worker forever and a plain failure becomes a package
	// timeout. Registered after both nodes so it runs before their stops.
	released := false
	t.Cleanup(func() {
		if !released {
			released = true
			close(release)
		}
	})

	// Find a submission the ring places on node A. Submitting via node B
	// exercises the forward path; A's journal hook then parks the run at
	// its first engine append, with the lease already persisted. The case
	// must be one the engine cannot finish in the instant between the hook
	// releasing and the drain's context-cancel check: figure2's real
	// incident keeps candidate validation (and its context checks) busy,
	// while an added impossible intent makes feasibility unreachable, so
	// the run grinds to its iteration cap — deterministically — unless
	// interrupted. (A purely impossible intent is no good here: static
	// pruning kills every template and the engine "exhausts" in
	// milliseconds without a single context check.)
	unsat := unsatisfiableUpload(t)
	unsat.Intents = caseio.ToUpload(scenario.Figure2()).Intents +
		"reach impossible 10.0.1.0/24 203.0.113.0/24\n"
	var victim service.Job
	var victimReq service.JobRequest
	for seed := int64(1); seed <= 32; seed++ {
		req := service.JobRequest{Case: unsat, Seed: seed, MaxIterations: 25}
		job, resp := postTo(t, addrs[1], req)
		if resp.StatusCode != http.StatusAccepted {
			t.Fatalf("seed %d: status %d", seed, resp.StatusCode)
		}
		if job.Owner == addrs[0] {
			victim, victimReq = job, req
			break
		}
	}
	if victim.ID == "" {
		t.Fatal("no submission was owned by node A in 32 seeds")
	}
	// Wait until A's worker holds the job mid-run. Generous deadline: on a
	// small box under -race, node B grinding its share of the placement
	// probes can starve A's worker well past 30s before it pops the victim.
	deadline := time.Now().Add(120 * time.Second)
	for {
		var j service.Job
		getFrom(t, addrs[0], "/v1/repairs/"+victim.ID+"?scope=local", &j)
		if j.State == service.StateRunning {
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("victim never reached running (last %+v)", j)
		}
		time.Sleep(10 * time.Millisecond)
	}

	// "Crash" A: close its listener first (probes start failing), then
	// drain. The drained job checkpoints and returns to queued in A's state
	// dir with its lease cleared — adoptable the moment B calls A down.
	nA.hs.Close()
	done := make(chan error, 1)
	go func() {
		ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
		defer cancel()
		done <- nA.srv.Shutdown(ctx)
	}()
	// Let the drain reach the job-cancel step before unparking the engine:
	// in fleet mode Shutdown first waits out the health/adopt loop ticks, so
	// releasing immediately can race the cancel and let the run finish on A.
	time.Sleep(time.Second)
	released = true
	close(release)
	if err := <-done; err != nil {
		t.Fatalf("drain A: %v", err)
	}

	// B: down-detection (3 x 50ms), adoption scan, resume, completion.
	var adopted service.Job
	deadline = time.Now().Add(180 * time.Second)
	for time.Now().Before(deadline) {
		resp, err := http.Get("http://" + addrs[1] + "/v1/repairs/" + victim.ID + "?scope=local")
		if err != nil {
			t.Fatal(err)
		}
		if resp.StatusCode == http.StatusOK {
			err = json.NewDecoder(resp.Body).Decode(&adopted)
			resp.Body.Close()
			if err != nil {
				t.Fatal(err)
			}
			if adopted.State.Terminal() {
				break
			}
		} else {
			resp.Body.Close()
		}
		time.Sleep(20 * time.Millisecond)
	}
	if adopted.State != service.StateDone {
		t.Fatalf("adopted job = %+v, want done on node B", adopted)
	}
	if adopted.Owner != addrs[1] || adopted.AdoptedFrom != addrs[0] || adopted.Adoptions != 1 {
		t.Fatalf("custody = owner %q adoptedFrom %q adoptions %d, want B/A/1",
			adopted.Owner, adopted.AdoptedFrom, adopted.Adoptions)
	}
	if sha := referenceSHA(t, victimReq); adopted.Result == nil || adopted.Result.CanonicalSHA256 != sha {
		t.Fatalf("adopted result = %+v, want canonical sha %s (byte-identical resume)", adopted.Result, sha)
	}
	var varz map[string]int64
	getFrom(t, addrs[1], "/varz", &varz)
	if varz["leases_adopted"] != 1 {
		t.Fatalf("varz leases_adopted = %d, want 1", varz["leases_adopted"])
	}
	if varz["peers_down"] != 1 {
		t.Fatalf("varz peers_down = %d, want 1", varz["peers_down"])
	}
}

// TestReadinessSplitsFromLiveness: /healthz is readiness (503 + reason
// while booting or draining), /livez is liveness (200 whenever the process
// answers at all).
func TestReadinessSplitsFromLiveness(t *testing.T) {
	lns, addrs := newFleetListeners(t, 1)
	srv, err := service.New(service.Config{StateDir: t.TempDir(), Workers: 1})
	if err != nil {
		t.Fatal(err)
	}
	hs := &http.Server{Handler: srv.Handler()}
	go hs.Serve(lns[0])
	t.Cleanup(func() { hs.Close() })
	addr := addrs[0]

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

// TestAdmissionRaceAtCapacity: concurrent POSTs can neither overshoot the
// reserve-before-persist queue bound nor double-admit a duplicate key. A
// single-member fleet turns on keyed dedup without any peer machinery.
func TestAdmissionRaceAtCapacity(t *testing.T) {
	lns, addrs := newFleetListeners(t, 1)
	release := make(chan struct{})
	defer func() {
		select {
		case <-release:
		default:
			close(release)
		}
	}()
	hook := func(int, *journal.Record) error { <-release; return nil }
	node := startFleetNode(t,
		service.Config{StateDir: t.TempDir(), Workers: 1, QueueCap: 2, JournalHook: hook},
		lns[0], addrs[0], nil, t.TempDir())
	addr := addrs[0]

	// Occupy the lone worker: the job parks at its first engine append.
	blocker, resp := postTo(t, addr, service.JobRequest{Builtin: "figure2", Seed: 100})
	if resp.StatusCode != http.StatusAccepted {
		t.Fatalf("blocker = %d", resp.StatusCode)
	}
	deadline := time.Now().Add(30 * time.Second)
	for {
		var j service.Job
		getFrom(t, addr, "/v1/repairs/"+blocker.ID, &j)
		if j.State == service.StateRunning {
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("blocker never ran (last %+v)", j)
		}
		time.Sleep(10 * time.Millisecond)
	}

	const racers = 16
	post := func(seed int64) int {
		body, _ := json.Marshal(service.JobRequest{Builtin: "figure2", Seed: seed})
		resp, err := http.Post("http://"+addr+"/v1/repairs", "application/json", bytes.NewReader(body))
		if err != nil {
			t.Error(err)
			return 0
		}
		defer resp.Body.Close()
		var job service.Job
		json.NewDecoder(resp.Body).Decode(&job)
		return resp.StatusCode
	}

	// Phase 1: identical submissions — exactly one admission, the rest
	// deduplicated, never a 429 (a duplicate must not consume a slot).
	var wg sync.WaitGroup
	statuses := make([]int, racers)
	for i := 0; i < racers; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			statuses[i] = post(200)
		}(i)
	}
	wg.Wait()
	counts := map[int]int{}
	for _, s := range statuses {
		counts[s]++
	}
	if counts[http.StatusAccepted] != 1 || counts[http.StatusOK] != racers-1 {
		t.Fatalf("identical-submission race: %v, want 1x202 + %dx200", counts, racers-1)
	}
	var list struct {
		Jobs []service.Job `json:"jobs"`
	}
	getFrom(t, addr, "/v1/repairs", &list)
	dupes := 0
	for _, j := range list.Jobs {
		if j.Seed == 200 {
			dupes++
		}
	}
	if dupes != 1 {
		t.Fatalf("duplicate key admitted %d times", dupes)
	}

	// Phase 2: distinct submissions against one remaining slot (cap 2, one
	// held by the phase-1 job) — exactly one 202, the rest 429.
	for i := 0; i < racers; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			statuses[i] = post(int64(300 + i))
		}(i)
	}
	wg.Wait()
	counts = map[int]int{}
	for _, s := range statuses {
		counts[s]++
	}
	if counts[http.StatusAccepted] != 1 || counts[http.StatusTooManyRequests] != racers-1 {
		t.Fatalf("capacity race: %v, want 1x202 + %dx429 (reserve-before-persist bound)", counts, racers-1)
	}

	close(release)
	_ = node // cleanup drains it
}

// TestFleetSingleNodeVarzStates: /varz exposes a gauge for every lifecycle
// state, including the fleet-only ones.
func TestFleetSingleNodeVarzStates(t *testing.T) {
	lns, addrs := newFleetListeners(t, 1)
	node := startFleetNode(t, service.Config{StateDir: t.TempDir()},
		lns[0], addrs[0], nil, t.TempDir())
	_ = node
	var varz map[string]int64
	getFrom(t, addrs[0], "/varz", &varz)
	for _, g := range []string{"jobs_queued", "jobs_leased", "jobs_running", "jobs_orphaned",
		"jobs_adopted", "jobs_done", "jobs_failed", "jobs_canceled",
		"peers_up", "peers_down", "requests_forwarded", "leases_adopted", "lease_renewals"} {
		if _, ok := varz[g]; !ok {
			t.Errorf("varz missing gauge %q (%v)", g, varz)
		}
	}
}
