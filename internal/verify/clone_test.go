package verify_test

import (
	"context"
	"net/netip"
	"reflect"
	"sync"
	"testing"

	"acr/internal/netcfg"
	"acr/internal/scenario"
	"acr/internal/verify"
)

// TestCloneConcurrentCheck exercises the parallel-validation contract: any
// number of clones may run CheckCtx concurrently (one clone per goroutine)
// and each must produce the same report the original produces serially.
// Run under -race, this is the proof that Clone shares no mutable state.
func TestCloneConcurrentCheck(t *testing.T) {
	s := scenario.Figure2()
	iv := newIV(t, s)
	edits := scenario.Figure2PaperRepair()
	want, _, err := iv.Check(edits)
	if err != nil {
		t.Fatal(err)
	}

	const workers = 8
	var wg sync.WaitGroup
	errs := make([]error, workers)
	reports := make([]*verify.Report, workers)
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			cl := iv.Clone()
			for i := 0; i < 5; i++ {
				rep, _, err := cl.CheckCtx(context.Background(), edits)
				if err != nil {
					errs[w] = err
					return
				}
				reports[w] = rep
			}
		}(w)
	}
	wg.Wait()
	for w := 0; w < workers; w++ {
		if errs[w] != nil {
			t.Fatalf("worker %d: %v", w, errs[w])
		}
		if !reportsEqual(reports[w], want) {
			t.Errorf("worker %d report disagrees with serial check:\ngot:\n%s\nwant:\n%s",
				w, reports[w].Summary(), want.Summary())
		}
	}
	// The original is untouched: same base report, same serial check.
	if iv.BaseReport().NumFailed() != 1 {
		t.Errorf("original base failing = %d after concurrent clone checks, want 1", iv.BaseReport().NumFailed())
	}
	again, _, err := iv.Check(edits)
	if err != nil {
		t.Fatal(err)
	}
	if !reportsEqual(again, want) {
		t.Error("original's check changed after concurrent clone checks")
	}
}

// TestCloneCommitIndependence checks that committing edits to a clone
// rebases only the clone: the original keeps its base configs and report,
// and vice versa.
func TestCloneCommitIndependence(t *testing.T) {
	s := scenario.Figure2()
	iv := newIV(t, s)
	cl := iv.Clone()
	if err := cl.Commit(scenario.Figure2PaperRepair()); err != nil {
		t.Fatal(err)
	}
	if got := cl.BaseReport().NumFailed(); got != 0 {
		t.Fatalf("clone after committing the paper repair: %d failing, want 0", got)
	}
	if got := iv.BaseReport().NumFailed(); got != 1 {
		t.Fatalf("original after clone commit: %d failing, want 1 (commit leaked)", got)
	}
	origText := iv.BaseConfigs()["A"].Text()
	if cl.BaseConfigs()["A"].Text() == origText {
		t.Fatal("clone's A config identical to original after a repair that edits A")
	}
}

// TestInfluenceGraphBuiltOnce: the influence graph depends on the topology
// alone, so NewIncremental builds it once and every clone and every Commit
// keeps that one graph. Both kinds of Commit are covered: the paper repair
// keeps the sessions (Derive reuses the base), and re-numbering A's peer
// toward B takes the A–B session down, so Derive compiles cold.
func TestInfluenceGraphBuiltOnce(t *testing.T) {
	s := scenario.Figure2()
	iv := newIV(t, s)
	g := iv.Graph()
	if g == nil {
		t.Fatal("NewIncremental built no influence graph")
	}
	cl := iv.Clone()
	if cl.Graph() != g {
		t.Fatal("Clone holds another influence graph")
	}
	sessions := func() int { return len(cl.BaseNet().Routers["A"].Sessions) }
	before := sessions()
	if err := cl.Commit(scenario.Figure2PaperRepair()); err != nil {
		t.Fatal(err)
	}
	if sessions() != before {
		t.Fatalf("the paper repair moved A's sessions: %d, was %d", sessions(), before)
	}
	if cl.Graph() != g {
		t.Fatal("a session-preserving Commit rebuilt the influence graph")
	}
	down := []netcfg.EditSet{{Device: "A", Edits: []netcfg.Edit{netcfg.ReplaceLine{At: 3, Text: " peer 172.16.0.2 as-number 65099"}}}}
	if err := cl.Commit(down); err != nil {
		t.Fatal(err)
	}
	if sessions() != before-1 {
		t.Fatalf("A has %d sessions after its peer toward B was re-numbered, want %d", sessions(), before-1)
	}
	if cl.Graph() != g || iv.Graph() != g {
		t.Fatal("a session-changing Commit rebuilt the influence graph")
	}
}

// TestCloneSharedLineIndexRace has clones of one verifier seal the base
// provenance graph's line sets for the first time concurrently: readers
// query them directly while checkers run the incremental check and the
// from-scratch FullCheck. Nothing touches the graph before the goroutines
// start, so under -race this covers the build itself, and every result
// must equal the one a second, serially used verifier gives.
func TestCloneSharedLineIndexRace(t *testing.T) {
	s := scenario.Figure2()
	edits := scenario.Figure2PaperRepair()
	serial := newIV(t, s)
	wantLines := map[netip.Prefix][]netcfg.LineRef{}
	for _, p := range serial.BaseProvenance().Prefixes() {
		wantLines[p] = serial.BaseProvenance().LinesForPrefix(p)
	}
	want, _, err := serial.Check(edits)
	if err != nil {
		t.Fatal(err)
	}

	iv := newIV(t, s)
	const workers = 9
	start := make(chan struct{})
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			cl := iv.Clone()
			<-start
			if w%3 == 0 {
				g := cl.BaseProvenance()
				for _, p := range g.Prefixes() {
					set := g.Section(p).LineSet()
					for _, l := range wantLines[p] {
						if !set.Has(l) {
							t.Errorf("reader %d: the set of %v lacks %v", w, p, l)
						}
					}
					if got := g.LinesForPrefix(p); !reflect.DeepEqual(got, wantLines[p]) {
						t.Errorf("reader %d: %d lines of %v, want %d", w, len(got), p, len(wantLines[p]))
					}
				}
				return
			}
			var rep *verify.Report
			var err error
			if w%3 == 1 {
				rep, err = cl.FullCheck(edits)
			} else {
				rep, _, err = cl.Check(edits)
			}
			if err != nil {
				t.Errorf("checker %d: %v", w, err)
			} else if !reportsEqual(rep, want) {
				t.Errorf("checker %d (full=%v) disagrees with the serial check", w, w%3 == 1)
			}
		}(w)
	}
	close(start)
	wg.Wait()
}

// TestCommitCloneRace is the engine's preservation pattern under -race:
// sibling versions are committed on clones of one parent — each commit reads
// the parent's outcomes and provenance sections and shares what the edit
// does not reach — while checks run on further clones of the same parent
// and readers seal its line index. Nothing
// touches the parent before the goroutines start, and every result must
// equal the one a second parent, used serially, gives.
func TestCommitCloneRace(t *testing.T) {
	s := scenario.WAN(6, 3, 2, scenario.GenOptions{})
	serial := newIV(t, s)
	order := serial.BaseNet().Order
	var edits [][]netcfg.EditSet
	for w := 0; w < 6; w++ {
		d := order[w%len(order)]
		es := netcfg.EditSet{Device: d, Edits: []netcfg.Edit{netcfg.InsertBefore{At: 1, Text: "# renumbers every line"}}}
		if origins := serial.BaseNet().Routers[d].Origins; w%2 == 1 && len(origins) > 0 {
			// Also withdraw an origination, so some prefix's outcome moves.
			es.Edits = append(es.Edits, netcfg.DeleteLine{At: origins[0].Lines[0].Line})
		}
		edits = append(edits, []netcfg.EditSet{es})
	}
	type result struct {
		failed int
		lines  map[netip.Prefix][]netcfg.LineRef
	}
	resultOf := func(iv *verify.Incremental) result {
		r := result{failed: iv.BaseReport().NumFailed(), lines: map[netip.Prefix][]netcfg.LineRef{}}
		for _, p := range iv.BaseProvenance().Prefixes() {
			r.lines[p] = iv.BaseProvenance().LinesForPrefix(p)
		}
		return r
	}
	want := make([]result, len(edits))
	wantCheck := make([]*verify.Report, len(edits))
	for w, e := range edits {
		cl := serial.Clone()
		if err := cl.Commit(e); err != nil {
			t.Fatal(err)
		}
		want[w] = resultOf(cl)
		rep, _, err := serial.Check(e)
		if err != nil {
			t.Fatal(err)
		}
		wantCheck[w] = rep
	}
	wantBase := resultOf(serial)

	parent := newIV(t, s)
	start := make(chan struct{})
	var wg sync.WaitGroup
	for w := range edits {
		wg.Add(2)
		go func(w int) { // a sibling version
			defer wg.Done()
			cl := parent.Clone()
			<-start
			if err := cl.Commit(edits[w]); err != nil {
				t.Errorf("commit %d: %v", w, err)
				return
			}
			if got := resultOf(cl); !reflect.DeepEqual(got, want[w]) {
				t.Errorf("commit %d under concurrency differs from the serial commit", w)
			}
		}(w)
		go func(w int) { // a checker, or a reader of the parent
			defer wg.Done()
			cl := parent.Clone()
			<-start
			if w%3 == 0 {
				if got := resultOf(cl); !reflect.DeepEqual(got, wantBase) {
					t.Errorf("reader %d: the parent's line index differs from the serial one", w)
				}
				return
			}
			rep, _, err := cl.Check(edits[w])
			if err != nil {
				t.Errorf("check %d: %v", w, err)
			} else if !reportsEqual(rep, wantCheck[w]) {
				t.Errorf("check %d disagrees with the serial check", w)
			}
		}(w)
	}
	close(start)
	wg.Wait()
	if got := resultOf(parent); !reflect.DeepEqual(got, wantBase) {
		t.Error("the parent changed under its clones' commits")
	}
}
