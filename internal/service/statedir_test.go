package service_test

import (
	"bytes"
	"context"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"io/fs"
	"math/rand"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"reflect"
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

// replayJobFile replays the session in a job's file.
func replayJobFile(t *testing.T, stateDir, id string) *journal.Session {
	t.Helper()
	data, err := os.ReadFile(filepath.Join(stateDir, "jobs", id+".wal"))
	if err != nil {
		t.Fatal(err)
	}
	sess, err := journal.ReplayBytes(data)
	if err != nil {
		t.Fatal(err)
	}
	return sess
}

// TestUploadedJobDirectory pins what a served job leaves on disk — one
// file, the inode budget — and that the upload in its first record reloads
// to the case that was submitted: same decoder, so the same journal case
// digest as the session header the file also holds.
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
			// The record turns terminal in memory before its done record
			// is appended; the event stream closes after it.
			events, err := http.Get(ts.URL + "/v1/repairs/" + job.ID + "/events")
			if err != nil {
				t.Fatal(err)
			}
			readSSE(t, events.Body)
			events.Body.Close()

			// Every entry under the state directory, directories marked
			// with a trailing slash: no per-job directory, one file.
			var entries []string
			err = filepath.WalkDir(stateDir, func(path string, d fs.DirEntry, err error) error {
				if err != nil || path == stateDir {
					return err
				}
				rel, _ := filepath.Rel(stateDir, path)
				if d.IsDir() {
					rel += "/"
				}
				entries = append(entries, filepath.ToSlash(rel))
				return nil
			})
			if err != nil {
				t.Fatal(err)
			}
			if want := []string{"jobs/", "jobs/" + job.ID + ".wal"}; !reflect.DeepEqual(entries, want) {
				t.Fatalf("state directory holds %v, want %v", entries, want)
			}

			sess := replayJobFile(t, stateDir, job.ID)
			if sess.Truncated || len(sess.Jobs) == 0 {
				t.Fatalf("job file replays truncated %v (%s) with %d job records", sess.Truncated, sess.TruncatedReason, len(sess.Jobs))
			}
			var first struct {
				Upload *caseio.Upload `json:"upload"`
			}
			if err := json.Unmarshal(sess.Jobs[0], &first); err != nil || first.Upload == nil {
				t.Fatalf("first job record carries no upload: %v", err)
			}
			reloaded, err := caseio.FromUpload(*first.Upload)
			if err != nil {
				t.Fatalf("stored upload does not decode: %v", err)
			}
			submitted, err := caseio.FromUpload(*upload)
			if err != nil {
				t.Fatal(err)
			}
			if got, want := caseDigest(reloaded), caseDigest(submitted); got != want {
				t.Fatalf("stored upload digests %s, the submitted case %s", got, want)
			}
			if got, want := sess.Header.CaseDigest, caseDigest(submitted); got != want {
				t.Fatalf("journal header digests %s, the submitted case %s", got, want)
			}
		})
	}
}

// TestLargestUploadFitsOneRecord: any body handleSubmit admits fits the
// job's first record. The body is at the 4 MiB limit, and its config text
// is '<' and invalid UTF-8: decoding turns each invalid byte into a
// three-byte U+FFFD, and HTML escaping would write each '<' as six bytes,
// which together would pass the journal's 16 MiB frame limit.
func TestLargestUploadFitsOneRecord(t *testing.T) {
	const limit = 4 << 20
	upload := caseio.ToUpload(scenario.Figure2())
	upload.Configs["A"] = "@FILL@"
	body, err := json.Marshal(service.JobRequest{Case: &upload, Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	fill := bytes.Repeat([]byte("<\xff"), limit/2)
	fill = fill[:limit-len(body)+len("@FILL@")]
	body = bytes.Replace(body, []byte("@FILL@"), fill, 1)
	if len(body) != limit {
		t.Fatalf("body is %d bytes, want %d", len(body), limit)
	}

	// Neither daemon starts its workers: the job stays queued.
	stateDir := t.TempDir()
	srv, err := service.New(service.Config{StateDir: stateDir})
	if err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(srv.Handler())
	resp, err := http.Post(ts.URL+"/v1/repairs", "application/json", bytes.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	var job service.Job
	json.NewDecoder(resp.Body).Decode(&job)
	resp.Body.Close()
	ts.Close()
	if resp.StatusCode != http.StatusAccepted {
		t.Fatalf("submit at the body limit = %d, want 202", resp.StatusCode)
	}
	rebooted, err := service.New(service.Config{StateDir: stateDir})
	if err != nil {
		t.Fatal(err)
	}
	if got, ok := rebooted.Job(job.ID); !ok || got.State != service.StateQueued || got.Case != upload.Name {
		t.Fatalf("rebooted daemon lists %+v (found %v), want %s queued", got, ok, job.ID)
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
	oldSess := replayJobFile(t, stateDir, "j000001")
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

// TestStateDirV1Boots boots testdata/statedir-v1, a state directory an
// older daemon wrote with a directory per job: j000001 is done, its result
// in job.json; j000002 is a queued upload in case.json; j000003 is a
// queued job of a daemon from before case.json, its case a case/
// directory. The done job lists with its stored result, the queued jobs
// finish as fresh submissions of the same requests do, and no file of the
// older layout changes.
func TestStateDirV1Boots(t *testing.T) {
	stateDir := t.TempDir()
	legacy := map[string][]byte{}
	src := filepath.Join("testdata", "statedir-v1")
	err := filepath.WalkDir(src, func(path string, d fs.DirEntry, err error) error {
		if err != nil || d.IsDir() {
			return err
		}
		rel, _ := filepath.Rel(src, path)
		data, err := os.ReadFile(path)
		if err != nil {
			return err
		}
		legacy[rel] = data
		if err := os.MkdirAll(filepath.Dir(filepath.Join(stateDir, rel)), 0o755); err != nil {
			return err
		}
		return os.WriteFile(filepath.Join(stateDir, rel), data, 0o644)
	})
	if err != nil {
		t.Fatal(err)
	}
	var stored service.Job
	if err := json.Unmarshal(legacy[filepath.Join("jobs", "j000001", "job.json")], &stored); err != nil {
		t.Fatal(err)
	}
	var uploaded caseio.Upload
	if err := json.Unmarshal(legacy[filepath.Join("jobs", "j000002", "case.json")], &uploaded); err != nil {
		t.Fatal(err)
	}
	sc, err := caseio.Load(filepath.Join(src, "jobs", "j000003", "case"))
	if err != nil {
		t.Fatal(err)
	}
	sc.Name = "legacy-dir"
	fromDir := caseio.ToUpload(sc)

	_, ts := newTestServer(t, service.Config{StateDir: stateDir, Workers: 1})
	if got := getJob(t, ts, "j000001"); got.State != service.StateDone || !reflect.DeepEqual(got, stored) {
		t.Fatalf("done job lists as %+v, stored %+v", got, stored)
	}
	for id, req := range map[string]service.JobRequest{
		"j000002": {Case: &uploaded, Seed: 3},
		"j000003": {Case: &fromDir, Seed: 5},
	} {
		old := waitState(t, ts, id, func(j service.Job) bool { return j.State.Terminal() })
		fresh, resp := submit(t, ts, req)
		if resp.StatusCode != http.StatusAccepted {
			t.Fatalf("fresh submit of %s = %d", id, resp.StatusCode)
		}
		fresh = waitState(t, ts, fresh.ID, func(j service.Job) bool { return j.State.Terminal() })
		if old.State != service.StateDone || fresh.State != service.StateDone {
			t.Fatalf("%s = %s (error %q), fresh submission %s (error %q), want both done", id, old.State, old.Error, fresh.State, fresh.Error)
		}
		if old.Result.CanonicalSHA256 != fresh.Result.CanonicalSHA256 {
			t.Fatalf("%s canonical sha %s, fresh submission %s", id, old.Result.CanonicalSHA256, fresh.Result.CanonicalSHA256)
		}
	}
	for rel, want := range legacy {
		if got, err := os.ReadFile(filepath.Join(stateDir, rel)); err != nil || !bytes.Equal(got, want) {
			t.Fatalf("older-layout file %s changed: %v", rel, err)
		}
	}
	err = filepath.WalkDir(stateDir, func(path string, d fs.DirEntry, err error) error {
		rel, _ := filepath.Rel(stateDir, path)
		if err == nil && !d.IsDir() && legacy[rel] == nil && filepath.Ext(rel) != ".wal" {
			err = fmt.Errorf("new file %s beside the older layout", rel)
		}
		return err
	})
	if err != nil {
		t.Fatal(err)
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

// TestCrashBeforeJobRecordIsSkipped: a crash inside Submit leaves a job
// file whose first record is torn. Boot skips it, and the next submission
// — which is handed the same sequential id — takes the file over.
func TestCrashBeforeJobRecordIsSkipped(t *testing.T) {
	stateDir := t.TempDir()
	orphan := filepath.Join(stateDir, "jobs", "j000001.wal")
	if err := os.MkdirAll(filepath.Dir(orphan), 0o755); err != nil {
		t.Fatal(err)
	}
	w, err := journal.CreateFile(orphan, map[string]any{
		"job":    service.Job{ID: "j000001", Seq: 1, State: service.StateQueued, Case: "unsat"},
		"upload": unsatisfiableUpload(t),
	})
	if err != nil {
		t.Fatal(err)
	}
	w.Close()
	info, err := os.Stat(orphan)
	if err != nil {
		t.Fatal(err)
	}
	if err := os.Truncate(orphan, info.Size()-5); err != nil {
		t.Fatal(err)
	}

	srv, ts := newTestServer(t, service.Config{StateDir: stateDir, Workers: 1})
	if jobs := srv.Jobs(); len(jobs) != 0 {
		t.Fatalf("boot indexed %d jobs from a file without a job record", len(jobs))
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
	// submission's record replaced it.
	if done.State != service.StateDone || done.Result == nil || !done.Result.Feasible {
		t.Fatalf("job = %s, result %+v, want done and feasible", done.State, done.Result)
	}
}

// TestFailedPersistLeavesNothingBehind: a submission whose first durable
// write fails is a 500 that leaves no job file, holds no admission slot,
// and does not get in the way of the next one.
func TestFailedPersistLeavesNothingBehind(t *testing.T) {
	stateDir := t.TempDir()
	// A directory where the job's file must be created makes the write fail.
	doomed := filepath.Join(stateDir, "jobs", "j000001.wal")
	if err := os.MkdirAll(doomed, 0o755); err != nil {
		t.Fatal(err)
	}
	srv, ts := newTestServer(t, service.Config{StateDir: stateDir, Workers: 1, QueueCap: 1})
	upload := caseio.ToUpload(scenario.Figure2())
	if _, resp := submit(t, ts, service.JobRequest{Case: &upload, Seed: 7}); resp.StatusCode != http.StatusInternalServerError {
		t.Fatalf("submit over an unwritable job file = %d, want 500", resp.StatusCode)
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
// corpus incident: decode, admission, the job's file, the engine and the
// done record — submit to done, one job at a time.
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
	const want = "26e3a00fce6e607d4e0e7613bcd292fb2cc3b32096b517b0bd42e7d6a0ff4a0a"
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
	sess := replayJobFile(t, stateDir, job.ID)
	if got := sess.Header.OptionsDigest; got != want {
		t.Fatalf("journal header OptionsDigest = %s, want %s", got, want)
	}
}
