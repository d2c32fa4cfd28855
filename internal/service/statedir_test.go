package service_test

import (
	"context"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"io/fs"
	"math/rand"
	"net/http"
	"os"
	"path/filepath"
	"reflect"
	"sort"
	"testing"
	"time"

	"acr/internal/caseio"
	"acr/internal/chaos"
	"acr/internal/core"
	"acr/internal/incidents"
	"acr/internal/journal"
	"acr/internal/scenario"
	"acr/internal/service"
)

// corpusUpload is one corpus incident of the given class as the daemon's
// wire form: a WAN class gives the 13-device WAN, a PBR class the 20-switch
// fat-tree.
func corpusUpload(tb testing.TB, class incidents.ErrorClass) *caseio.Upload {
	tb.Helper()
	inc, err := incidents.Inject(class, incidents.CorpusOptions{}, rand.New(rand.NewSource(1)))
	if err != nil {
		tb.Fatalf("inject %v: %v", class, err)
	}
	u := caseio.ToUpload(inc.Scenario)
	return &u
}

// caseDigest is the digest the journal header carries for a case.
func caseDigest(sc *scenario.Scenario) string {
	p := core.Problem{Topo: sc.Topo, Configs: sc.Configs, Intents: sc.Intents}
	return core.SessionHeader(sc.Name, p, core.Options{}).CaseDigest
}

// TestUploadedJobDirectory pins what a served job leaves on disk — the
// inode budget — and that case.json reloads to the case that was submitted:
// same decoder, so the same journal case digest.
func TestUploadedJobDirectory(t *testing.T) {
	for name, class := range map[string]incidents.ErrorClass{
		"wan":     incidents.MissingRedistribution,
		"fattree": incidents.MissingPBRPermit,
	} {
		t.Run(name, func(t *testing.T) {
			stateDir := t.TempDir()
			_, ts := newTestServer(t, service.Config{StateDir: stateDir, Workers: 1})
			upload := corpusUpload(t, class)
			job, resp := submit(t, ts, service.JobRequest{Case: upload, Seed: 1})
			if resp.StatusCode != http.StatusAccepted {
				t.Fatalf("submit = %d", resp.StatusCode)
			}
			done := waitState(t, ts, job.ID, func(j service.Job) bool { return j.State.Terminal() })
			if done.State != service.StateDone {
				t.Fatalf("state = %s (error %q), want done", done.State, done.Error)
			}
			// The record turns terminal in memory before its last job.json
			// write; the event stream closes after it.
			events, err := http.Get(ts.URL + "/v1/repairs/" + job.ID + "/events")
			if err != nil {
				t.Fatal(err)
			}
			readSSE(t, events.Body)
			events.Body.Close()

			jobDir := filepath.Join(stateDir, "jobs", job.ID)
			var files []string
			err = filepath.WalkDir(jobDir, func(path string, d fs.DirEntry, err error) error {
				if err != nil || d.IsDir() {
					return err
				}
				rel, _ := filepath.Rel(jobDir, path)
				files = append(files, filepath.ToSlash(rel))
				return nil
			})
			if err != nil {
				t.Fatal(err)
			}
			sort.Strings(files)
			want := []string{"case.json", "job.json", "journal/wal.log"}
			if !reflect.DeepEqual(files, want) {
				t.Fatalf("job directory holds %v, want %v", files, want)
			}

			data, err := os.ReadFile(filepath.Join(jobDir, "case.json"))
			if err != nil {
				t.Fatal(err)
			}
			var stored caseio.Upload
			if err := json.Unmarshal(data, &stored); err != nil {
				t.Fatalf("case.json: %v", err)
			}
			reloaded, err := caseio.FromUpload(stored)
			if err != nil {
				t.Fatalf("case.json does not decode: %v", err)
			}
			submitted, err := caseio.FromUpload(*upload)
			if err != nil {
				t.Fatal(err)
			}
			if got, want := caseDigest(reloaded), caseDigest(submitted); got != want {
				t.Fatalf("case.json digests %s, the submitted case %s", got, want)
			}
			sess, err := journal.Replay(filepath.Join(jobDir, "journal"))
			if err != nil {
				t.Fatal(err)
			}
			if got, want := sess.Header.CaseDigest, caseDigest(submitted); got != want {
				t.Fatalf("journal header digests %s, the submitted case %s", got, want)
			}
		})
	}
}

// TestLegacyCaseDirectoryResumes: a state directory written by a daemon
// from before case.json — the case as a caseio.Save directory beside a
// queued job.json — still boots, runs, and journals under the digest of
// the case as it was uploaded.
func TestLegacyCaseDirectoryResumes(t *testing.T) {
	upload := caseio.ToUpload(scenario.Figure2())
	upload.Name = "legacy-upload"
	sc, err := caseio.FromUpload(upload)
	if err != nil {
		t.Fatal(err)
	}
	stateDir := t.TempDir()
	legacyDir := filepath.Join(stateDir, "jobs", "j000001")
	if err := caseio.Save(filepath.Join(legacyDir, "case"), sc); err != nil {
		t.Fatal(err)
	}
	rec, _ := json.Marshal(service.Job{
		ID: "j000001", Seq: 1, State: service.StateQueued, Case: sc.Name, Seed: 3,
	})
	if err := os.WriteFile(filepath.Join(legacyDir, "job.json"), rec, 0o644); err != nil {
		t.Fatal(err)
	}

	_, ts := newTestServer(t, service.Config{StateDir: stateDir, Workers: 1})
	old := waitState(t, ts, "j000001", func(j service.Job) bool { return j.State.Terminal() })
	if old.State != service.StateDone || old.Result == nil {
		t.Fatalf("legacy job = %s (error %q), want done", old.State, old.Error)
	}
	fresh, resp := submit(t, ts, service.JobRequest{Case: &upload, Seed: 3})
	if resp.StatusCode != http.StatusAccepted {
		t.Fatalf("fresh submit = %d", resp.StatusCode)
	}
	fresh = waitState(t, ts, fresh.ID, func(j service.Job) bool { return j.State.Terminal() })
	if fresh.State != service.StateDone || fresh.Result == nil {
		t.Fatalf("fresh job = %s (error %q), want done", fresh.State, fresh.Error)
	}
	if old.Result.CanonicalSHA256 != fresh.Result.CanonicalSHA256 {
		t.Fatalf("legacy canonical sha %s != fresh %s", old.Result.CanonicalSHA256, fresh.Result.CanonicalSHA256)
	}
	oldSess, err := journal.Replay(filepath.Join(legacyDir, "journal"))
	if err != nil {
		t.Fatal(err)
	}
	if got, want := oldSess.Header.CaseDigest, caseDigest(sc); got != want {
		t.Fatalf("legacy job journaled case digest %s, the upload digests %s", got, want)
	}
	// The fallback only reads: the old layout is left as found.
	if _, err := os.Stat(filepath.Join(legacyDir, "case.json")); !os.IsNotExist(err) {
		t.Fatalf("case.json in a legacy job directory: %v", err)
	}
	if _, err := os.Stat(filepath.Join(legacyDir, "case", "topology.txt")); err != nil {
		t.Fatalf("legacy case directory disturbed: %v", err)
	}
}

// TestOlderJobRecordsResume: state directories written by older daemons
// boot, and a job that crashed mid-run resumes its journal to the
// uninterrupted run's result. The record decoder ignores retired fields;
// a retired live state boots as queued.
func TestOlderJobRecordsResume(t *testing.T) {
	sc := scenario.Figure2()
	p := core.Problem{Topo: sc.Topo, Configs: sc.Configs, Intents: sc.Intents}
	opts := core.Options{Seed: 7} // what {"builtin":"figure2","seed":7} runs
	sum := sha256.Sum256([]byte(core.Repair(p, opts).Canonical()))
	want := hex.EncodeToString(sum[:])

	for _, tc := range []struct {
		name, id, rec string
	}{
		// The job's requested validation parallelism.
		{"parallelism", "j000001",
			`{"id":"j000001","seq":1,"state":"running","case":"figure2","builtin":"figure2","seed":7,"parallelism":4,"attempts":1}`},
		// A multi-node daemon's claim: the "leased" state, a key-derived
		// id and the placement, lease and adoption fields.
		{"leased", "f5d41402abc4b2a76",
			`{"id":"f5d41402abc4b2a76","seq":1,"state":"leased","case":"figure2","builtin":"figure2","seed":7,"attempts":1,` +
				`"key":"5d41402abc4b2a76b9719d911017c592","owner":"127.0.0.1:7366","leaseUntilMs":1700000000000,` +
				`"adoptedFrom":"127.0.0.1:7367","adoptions":1}`},
	} {
		t.Run(tc.name, func(t *testing.T) {
			stateDir := t.TempDir()
			jobDir := filepath.Join(stateDir, "jobs", tc.id)
			opts := opts
			w, err := journal.Create(filepath.Join(jobDir, "journal"), core.SessionHeader(sc.Name, p, opts))
			if err != nil {
				t.Fatal(err)
			}
			chaos.New(chaos.Plan{CrashAfterAppends: 2}).WireJournal(w)
			opts.Journal = w
			func() {
				defer func() {
					if _, ok := recover().(chaos.CrashPanic); !ok {
						t.Fatal("journaled run did not crash")
					}
				}()
				core.Repair(p, opts)
			}()
			if err := os.WriteFile(filepath.Join(jobDir, "job.json"), []byte(tc.rec), 0o644); err != nil {
				t.Fatal(err)
			}

			srv, ts := newTestServer(t, service.Config{StateDir: stateDir, Workers: 1})
			if _, ok := srv.Job(tc.id); !ok {
				t.Fatal("boot skipped the job record")
			}
			got := waitState(t, ts, tc.id, func(j service.Job) bool { return j.State.Terminal() })
			if got.State != service.StateDone || got.Result == nil {
				t.Fatalf("job = %s (error %q), want done", got.State, got.Error)
			}
			if !got.Resumed {
				t.Fatal("daemon reran the job instead of resuming its journal")
			}
			if got.Result.CanonicalSHA256 != want {
				t.Fatalf("resumed canonical sha %s, uninterrupted run %s", got.Result.CanonicalSHA256, want)
			}
		})
	}
}

// TestCrashBeforeJobRecordIsSkipped: a crash between the case.json write
// and the first job.json leaves a directory with a case and no record.
// Boot skips it, and the next submission — which is handed the same
// sequential id — takes the directory over.
func TestCrashBeforeJobRecordIsSkipped(t *testing.T) {
	stateDir := t.TempDir()
	orphan := filepath.Join(stateDir, "jobs", "j000001")
	if err := os.MkdirAll(orphan, 0o755); err != nil {
		t.Fatal(err)
	}
	stale, _ := json.Marshal(unsatisfiableUpload(t))
	if err := os.WriteFile(filepath.Join(orphan, "case.json"), stale, 0o644); err != nil {
		t.Fatal(err)
	}

	srv, ts := newTestServer(t, service.Config{StateDir: stateDir, Workers: 1})
	if jobs := srv.Jobs(); len(jobs) != 0 {
		t.Fatalf("boot indexed %d jobs from a record-less directory", len(jobs))
	}
	upload := caseio.ToUpload(scenario.Figure2())
	job, resp := submit(t, ts, service.JobRequest{Case: &upload, Seed: 7})
	if resp.StatusCode != http.StatusAccepted {
		t.Fatalf("submit = %d, want 202", resp.StatusCode)
	}
	if job.ID != "j000001" {
		t.Fatalf("job id = %s, want the orphan's j000001", job.ID)
	}
	done := waitState(t, ts, job.ID, func(j service.Job) bool { return j.State.Terminal() })
	// The stale case is unsatisfiable; a feasible result means the new
	// submission's case.json replaced it.
	if done.State != service.StateDone || done.Result == nil || !done.Result.Feasible {
		t.Fatalf("job = %s, result %+v, want done and feasible", done.State, done.Result)
	}
}

// TestFailedPersistLeavesNothingBehind: a submission whose first durable
// write fails is a 500 that leaves no job directory, holds no admission
// slot, and does not get in the way of the next one.
func TestFailedPersistLeavesNothingBehind(t *testing.T) {
	stateDir := t.TempDir()
	// A directory where case.json must be renamed to makes the write fail.
	doomed := filepath.Join(stateDir, "jobs", "j000001")
	if err := os.MkdirAll(filepath.Join(doomed, "case.json"), 0o755); err != nil {
		t.Fatal(err)
	}
	srv, ts := newTestServer(t, service.Config{StateDir: stateDir, Workers: 1, QueueCap: 1})
	upload := caseio.ToUpload(scenario.Figure2())
	if _, resp := submit(t, ts, service.JobRequest{Case: &upload, Seed: 7}); resp.StatusCode != http.StatusInternalServerError {
		t.Fatalf("submit over an unwritable case.json = %d, want 500", resp.StatusCode)
	}
	if _, err := os.Stat(doomed); !os.IsNotExist(err) {
		t.Fatalf("failed submission left %s behind: %v", doomed, err)
	}
	if jobs := srv.Jobs(); len(jobs) != 0 {
		t.Fatalf("failed submission indexed: %+v", jobs)
	}
	// QueueCap is 1: a leaked reservation would turn this into a 429.
	job, resp := submit(t, ts, service.JobRequest{Case: &upload, Seed: 7})
	if resp.StatusCode != http.StatusAccepted {
		t.Fatalf("submit after a failed one = %d, want 202", resp.StatusCode)
	}
	done := waitState(t, ts, job.ID, func(j service.Job) bool { return j.State.Terminal() })
	if done.State != service.StateDone {
		t.Fatalf("state = %s (error %q), want done", done.State, done.Error)
	}
}

// BenchmarkSubmitUploaded is the daemon's whole per-job path for one WAN
// corpus incident: decode, admission, case.json and job.json, the journal,
// the engine and the terminal record — submit to done, one job at a time.
func BenchmarkSubmitUploaded(b *testing.B) {
	srv, err := service.New(service.Config{StateDir: b.TempDir(), Workers: 1})
	if err != nil {
		b.Fatal(err)
	}
	srv.Start()
	defer func() {
		ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
		defer cancel()
		srv.Shutdown(ctx)
	}()
	upload := corpusUpload(b, incidents.MissingRedistribution)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		job, err := srv.Submit(service.JobRequest{Case: upload, Seed: 1})
		if err != nil {
			b.Fatal(err)
		}
		for !job.State.Terminal() {
			time.Sleep(50 * time.Microsecond)
			job, _ = srv.Job(job.ID)
		}
		if job.State != service.StateDone {
			b.Fatalf("job %s = %s (%s)", job.ID, job.State, job.Error)
		}
	}
}

// TestOptionsDigestIndependentOfLinkGraph: this package's test binary does
// not link internal/tmplreg, and the default options must still hash, and
// journal a daemon job, under the digest the acr binary writes: the same
// options may not get a second journal identity from a different link
// graph.
func TestOptionsDigestIndependentOfLinkGraph(t *testing.T) {
	const want = "4e11203c04540eb565dd9dee844c30eb4e67665fcd2013f88aaa37339961dc10"
	if got := (core.Options{}).SearchDigest(); got != want {
		t.Fatalf("Options{}.SearchDigest() = %s, want %s", got, want)
	}
	stateDir := t.TempDir()
	_, ts := newTestServer(t, service.Config{StateDir: stateDir, Workers: 1})
	job, resp := submit(t, ts, service.JobRequest{Builtin: "figure2"})
	if resp.StatusCode != http.StatusAccepted {
		t.Fatalf("submit = %d", resp.StatusCode)
	}
	if done := waitState(t, ts, job.ID, func(j service.Job) bool { return j.State.Terminal() }); done.State != service.StateDone {
		t.Fatalf("state = %s (error %q), want done", done.State, done.Error)
	}
	sess, err := journal.Replay(filepath.Join(stateDir, "jobs", job.ID, "journal"))
	if err != nil {
		t.Fatal(err)
	}
	if got := sess.Header.OptionsDigest; got != want {
		t.Fatalf("journal header OptionsDigest = %s, want %s", got, want)
	}
}
