package main

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"math/rand"
	"net/http/httptest"
	"os"
	"path/filepath"
	"runtime"
	"strings"
	"sync"
	"sync/atomic"
	"syscall"
	"time"

	"acr/internal/core"
	"acr/internal/incidents"
	"acr/internal/service"
)

// daemon is an in-process repair service behind a loopback HTTP server,
// configured the way `acr serve` configures it: one worker per CPU and an
// evaluation store under the state directory.
type daemon struct {
	dir string
	srv *service.Server
	ts  *httptest.Server
}

func bootDaemon(dir string) (*daemon, error) {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, err
	}
	srv, err := service.New(service.Config{
		StateDir: dir,
		Workers:  runtime.NumCPU(),
		CacheDir: filepath.Join(dir, "evalstore"),
	})
	if err != nil {
		return nil, err
	}
	srv.Start()
	return &daemon{dir: dir, srv: srv, ts: httptest.NewServer(srv.Handler())}, nil
}

// stop drains the daemon, waits for its workers and removes its state.
func (d *daemon) stop() {
	d.ts.Close()
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	_ = d.srv.Shutdown(ctx) // on timeout the workers are hard-cancelled and still waited for
	os.RemoveAll(d.dir)
}

// jobTrace is what the client saw of one job: when it posted, when the
// daemon accepted, when the event stream first showed the job running and
// when it showed a terminal state. Times are taken as events arrive.
type jobTrace struct {
	post, accepted, running, terminal time.Time
	status                            int
	events                            int
	job                               service.Job
	err                               error
}

// runJobs submits every body once. The loop is closed: nproc clients each
// post a job, follow its event stream to the terminal state and only then
// post the next one.
func (d *daemon) runJobs(bodies [][]byte) []jobTrace {
	traces := make([]jobTrace, len(bodies))
	var next atomic.Int64
	var wg sync.WaitGroup
	for c := 0; c < runtime.NumCPU(); c++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				i := int(next.Add(1)) - 1
				if i >= len(bodies) {
					return
				}
				traces[i] = d.runJob(bodies[i])
			}
		}()
	}
	wg.Wait()
	return traces
}

func (d *daemon) runJob(body []byte) (tr jobTrace) {
	client := d.ts.Client()
	tr.post = time.Now()
	resp, err := client.Post(d.ts.URL+"/v1/repairs", "application/json", bytes.NewReader(body))
	if err != nil {
		tr.err = err
		return tr
	}
	tr.accepted = time.Now()
	tr.status = resp.StatusCode
	err = json.NewDecoder(resp.Body).Decode(&tr.job)
	resp.Body.Close()
	if tr.status/100 != 2 {
		tr.err = fmt.Errorf("POST /v1/repairs: HTTP %d", tr.status)
		return tr
	}
	if err != nil {
		tr.err = fmt.Errorf("decode job: %w", err)
		return tr
	}

	resp, err = client.Get(d.ts.URL + "/v1/repairs/" + tr.job.ID + "/events")
	if err != nil {
		tr.err = err
		return tr
	}
	sc := bufio.NewScanner(resp.Body)
	sc.Buffer(make([]byte, 0, 64<<10), 1<<20)
	for sc.Scan() {
		data, ok := strings.CutPrefix(sc.Text(), "data: ")
		if !ok {
			continue
		}
		var ev service.Event
		if json.Unmarshal([]byte(data), &ev) != nil {
			continue
		}
		tr.events++
		if ev.Type != "state" {
			continue
		}
		if ev.State == service.StateRunning && tr.running.IsZero() {
			tr.running = time.Now()
		}
		if ev.State.Terminal() {
			tr.terminal = time.Now()
			break
		}
	}
	io.Copy(io.Discard, resp.Body)
	resp.Body.Close()
	if tr.terminal.IsZero() {
		tr.err = fmt.Errorf("event stream of %s ended before a terminal state", tr.job.ID)
		return tr
	}

	resp, err = client.Get(d.ts.URL + "/v1/repairs/" + tr.job.ID)
	if err != nil {
		tr.err = err
		return tr
	}
	defer resp.Body.Close()
	if err := json.NewDecoder(resp.Body).Decode(&tr.job); err != nil {
		tr.err = fmt.Errorf("decode job: %w", err)
	}
	return tr
}

// jobOutcome turns a client-side trace into an op outcome: anything but a
// 2xx submission that ends in state done with a feasible result fails.
func jobOutcome(tr jobTrace) outcome {
	o := outcome{dur: tr.terminal.Sub(tr.post)}
	switch {
	case tr.err != nil:
		o.dur, o.fail = 0, tr.err.Error()
	case tr.job.State != service.StateDone || tr.job.Result == nil:
		o.fail = fmt.Sprintf("job %s ended %s: %s", tr.job.ID, tr.job.State, tr.job.Error)
	case !tr.job.Result.Feasible:
		o.digest, o.fail = tr.job.Result.CanonicalSHA256, "infeasible: "+tr.job.Result.Termination
	default:
		o.digest = tr.job.Result.CanonicalSHA256
	}
	return o
}

// serveInstance drives the corpus incidents through the daemon's HTTP API.
// Cold passes each get a fresh state directory and evaluation store; warm
// passes resubmit to the daemon that set-up already ran every job on.
type serveInstance struct {
	root   string
	incs   []*incidents.Incident
	bodies [][]byte
	warm   bool

	d      *daemon
	used   bool // the current daemon has served a pass
	boots  int
	traces []jobTrace // the latest pass, for the traced run's service metrics
	// warmed holds the digests of the warming pass; first those of the
	// first timed pass.
	warmed, first []string
}

func setupServe(seed int64, sc scale, dir string, warm bool) (instance, error) {
	incs, err := incidents.GenerateCorpus(incidents.CorpusOptions{Size: sc.corpusSize, Seed: seed})
	if err != nil {
		return nil, err
	}
	bodies, err := serviceBodies(incs, core.Options{})
	if err != nil {
		return nil, err
	}
	si := &serveInstance{root: dir, incs: incs, bodies: bodies, warm: warm}
	if err := si.boot(); err != nil {
		return nil, err
	}
	if warm {
		for _, o := range si.runPass(nil, 0) {
			if o.fail != "" {
				si.close()
				return nil, fmt.Errorf("serve-warm: warming pass: %s", o.fail)
			}
			si.warmed = append(si.warmed, o.digest)
		}
		si.first = nil
	}
	return si, nil
}

func (si *serveInstance) boot() error {
	si.boots++
	d, err := bootDaemon(filepath.Join(si.root, fmt.Sprintf("daemon-%d", si.boots)))
	si.d, si.used = d, false
	return err
}

// beforePass, outside the timed pass, gives a cold pass its fresh daemon
// and lets the file system settle: a pass is bound by the journal's fsyncs,
// and without the sync the previous daemon's deleted state made consecutive
// passes differ by up to a quarter.
func (si *serveInstance) beforePass() error {
	defer syscall.Sync()
	if si.warm || !si.used {
		return nil
	}
	si.d.stop()
	return si.boot()
}

func (si *serveInstance) numOps() int                  { return len(si.bodies) }
func (si *serveInstance) cases() []*incidents.Incident { return si.incs }
func (si *serveInstance) repairOptions() core.Options  { return core.Options{} }

func (si *serveInstance) close() {
	if si.d != nil {
		si.d.stop()
		si.d = nil
	}
}

func (si *serveInstance) runPass(rec *recorder, limit int) []outcome {
	si.used = true
	si.traces = si.d.runJobs(firstN(si.bodies, limit))
	out := make([]outcome, len(si.traces))
	for i, tr := range si.traces {
		out[i] = jobOutcome(tr)
		if tr.err == nil {
			rec.add("op.job", -1, i, tr.post, tr.terminal)
		}
	}
	if si.first == nil && len(out) == len(si.bodies) {
		for _, o := range out {
			si.first = append(si.first, o.digest)
		}
	}
	return out
}

// check repairs a seeded tenth of the incidents in process, without the
// service, and requires the daemon to have reported the same canonical
// SHA-256; the repaired configurations are re-verified from scratch. A
// warm pass must also reproduce the warming pass.
func (si *serveInstance) check(seed int64) []string {
	fails := make([]string, len(si.incs))
	for i := range si.warmed {
		if si.first[i] != si.warmed[i] {
			fails[i] = "warm result differs from the warming pass"
		}
	}
	n := (len(si.incs) + 9) / 10
	sample := rand.New(rand.NewSource(seed)).Perm(len(si.incs))[:n]
	parallelFor(len(sample), func(k int) {
		i := sample[k]
		res, err := safeRepair(problemOf(si.incs[i]), core.Options{Parallelism: 1})
		switch digest, fail := repairOutcome(res, err); {
		case fail != "":
			fails[i] = "in-process repair: " + fail
		case digest != si.first[i]:
			fails[i] = "service result differs from the in-process repair"
		default:
			fails[i] = verifyRepaired(si.incs[i], res)
		}
	})
	return fails
}
