package journal

import (
	"os"
	"path/filepath"
	"testing"
)

// FuzzJournalReplay asserts the replayer's recovery contract on arbitrary
// bytes: it never panics, and it never yields an invalid session — every
// successful replay has a header, a structurally valid checkpoint (when
// one is present), and a resume offset on a record boundary inside the
// input.
func FuzzJournalReplay(f *testing.F) {
	// Seed with a well-formed WAL and mutations of it.
	dir := f.TempDir()
	w, err := Create(dir, Header{Case: "fuzz", CaseDigest: "c", OptionsDigest: "o", Seed: 1})
	if err != nil {
		f.Fatal(err)
	}
	w.AppendCandidate(Candidate{Iteration: 1, Desc: "d", Fitness: 1})
	w.AppendIteration(Iteration{Iteration: 1, Validated: 1})
	w.AppendCheckpoint(Checkpoint{
		Iteration: 1, PrevFitness: 1, Widen: 1, BestEver: 1, BaseFailing: 1,
		Population: []Member{{Configs: map[string][]string{"A": {"line"}}, Fitness: 1}},
	})
	w.AppendTerminal(Terminal{Termination: "feasible", Feasible: true})
	w.Close()
	clean, err := os.ReadFile(WALPath(dir))
	if err != nil {
		f.Fatal(err)
	}
	f.Add(clean)
	f.Add(clean[:len(clean)-7])
	f.Add(append(clean, clean...))
	// Job records before the header, between events and after the
	// terminal.
	jobs, err := CreateFile(filepath.Join(f.TempDir(), "j.wal"), map[string]string{"state": "queued"})
	if err != nil {
		f.Fatal(err)
	}
	jobs.AppendHeader(Header{Case: "fuzz", CaseDigest: "c", OptionsDigest: "o", Seed: 1})
	jobs.AppendJob(map[string]string{"state": "running"}, false)
	jobs.AppendCandidate(Candidate{Iteration: 1, Desc: "d <&>", Fitness: 1})
	jobs.AppendTerminal(Terminal{Termination: "feasible", Feasible: true})
	jobs.AppendJob(map[string]string{"state": "done"}, true)
	jobs.Close()
	withJobs, err := os.ReadFile(jobs.Path())
	if err != nil {
		f.Fatal(err)
	}
	f.Add(withJobs)
	f.Add([]byte{})
	f.Add([]byte("\x00\x00\x00\x05\xff\xff\xff\xff{}j"))

	f.Fuzz(func(t *testing.T, data []byte) {
		sess, err := ReplayBytes(data)
		if err != nil {
			if sess != nil {
				t.Fatal("error with non-nil session")
			}
			return
		}
		if sess.Header == nil {
			t.Fatal("session without header")
		}
		if sess.Header.Version != Version {
			t.Fatalf("accepted header version %d", sess.Header.Version)
		}
		if cp := sess.Checkpoint; cp != nil && !validCheckpoint(cp) {
			t.Fatalf("invalid checkpoint accepted: %+v", cp)
		}
		if sess.ResumeOffset < 0 || sess.ResumeOffset > int64(len(data)) {
			t.Fatalf("resume offset %d outside input of %d bytes", sess.ResumeOffset, len(data))
		}
		if sess.ResumeSeq < 1 || sess.ResumeSeq > sess.Records {
			t.Fatalf("resume seq %d with %d records", sess.ResumeSeq, sess.Records)
		}
		// The resume offset must be a replayable prefix ending in the
		// same place: truncating there and replaying again is stable
		// (recovery past a torn tail converges, never loops).
		again, err := ReplayBytes(data[:sess.ResumeOffset])
		if err != nil {
			t.Fatalf("resume prefix does not replay: %v", err)
		}
		if again.Truncated {
			t.Fatalf("resume prefix still torn: %s", again.TruncatedReason)
		}
		if again.ResumeOffset != sess.ResumeOffset || again.ResumeSeq != sess.ResumeSeq {
			t.Fatalf("recovery not convergent: %d/%d vs %d/%d",
				again.ResumeOffset, again.ResumeSeq, sess.ResumeOffset, sess.ResumeSeq)
		}
	})
}
