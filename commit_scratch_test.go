package acr_test

import (
	"fmt"
	"net/netip"
	"reflect"
	"strings"
	"testing"

	"acr"
	"acr/internal/bgp"
	"acr/internal/coverage"
	"acr/internal/incidents"
	"acr/internal/journal"
	"acr/internal/netcfg"
	"acr/internal/oracle"
	"acr/internal/sbfl"
	"acr/internal/scenario"
	"acr/internal/verify"
)

// wanPanel is the benchmark's wan-large population: 16 compound-fault
// incidents on the 26-device WAN, searched for up to 6 iterations.
func wanPanel(t testing.TB) []*acr.Incident {
	t.Helper()
	incs, err := acr.GenerateCorpus(incidents.CorpusOptions{Size: 16, Seed: 3,
		WANRouters: 12, WANPoPs: 8, WANDCNs: 6, DoubleFaultShare: 0.5})
	if err != nil {
		t.Fatal(err)
	}
	return incs
}

// keptVersions repairs c and returns the population the engine preserved
// after each iteration, read off the session journal as it is written.
func keptVersions(t *testing.T, c *acr.Case, opts acr.RepairOptions) [][]journal.Member {
	t.Helper()
	w, err := acr.CreateJournal(t.TempDir(), c, opts)
	if err != nil {
		t.Fatal(err)
	}
	var pops [][]journal.Member
	w.Hook = func(_ int, rec *journal.Record) error {
		if rec.Checkpoint != nil {
			pops = append(pops, rec.Checkpoint.Population)
		}
		return nil
	}
	opts.Journal = w
	acr.Repair(c, opts)
	if err := w.Close(); err != nil {
		t.Fatal(err)
	}
	return pops
}

// editsBetween returns an edit script turning one device's lines into
// another's: the lines between the common head and tail are replaced pairwise,
// the surplus deleted or the shortfall inserted.
func editsBetween(device string, from, to []string) netcfg.EditSet {
	head := 0
	for head < len(from) && head < len(to) && from[head] == to[head] {
		head++
	}
	tail := 0
	for tail < len(from)-head && tail < len(to)-head && from[len(from)-1-tail] == to[len(to)-1-tail] {
		tail++
	}
	old, repl := from[head:len(from)-tail], to[head:len(to)-tail]
	es := netcfg.EditSet{Device: device}
	for k := 0; k < len(old) || k < len(repl); k++ {
		switch {
		case k < len(old) && k < len(repl):
			es.Edits = append(es.Edits, netcfg.ReplaceLine{At: head + k + 1, Text: repl[k]})
		case k < len(old):
			es.Edits = append(es.Edits, netcfg.DeleteLine{At: head + k + 1})
		default:
			es.Edits = append(es.Edits, netcfg.InsertBefore{At: head + len(old) + 1, Text: repl[k]})
		}
	}
	return es
}

// commitTo commits, on a clone of parent, the edits that turn its texts
// into the given ones, and checks they did.
func commitTo(t *testing.T, label string, parent *verify.Incremental, texts map[string][]string) *verify.Incremental {
	t.Helper()
	var edits []netcfg.EditSet
	for _, d := range parent.BaseNet().Order {
		if from := parent.BaseConfigs()[d].Lines(); !reflect.DeepEqual(from, texts[d]) {
			edits = append(edits, editsBetween(d, from, texts[d]))
		}
	}
	child := parent.Clone()
	if err := child.Commit(edits); err != nil {
		t.Fatalf("%s: commit: %v", label, err)
	}
	for d, c := range child.BaseConfigs() {
		if !reflect.DeepEqual(c.Lines(), texts[d]) {
			t.Fatalf("%s: the committed text of %s is not the version's", label, d)
		}
	}
	return child
}

func configsOf(texts map[string][]string) map[string]*netcfg.Config {
	out := make(map[string]*netcfg.Config, len(texts))
	for d, lines := range texts {
		out[d] = netcfg.FromLines(d, lines)
	}
	return out
}

// routeID is everything about a route that later behaviour can depend on.
func routeID(r *bgp.Route) string {
	if r == nil {
		return "-"
	}
	return r.Key() + "|rid" + r.PeerRID.String()
}

// sameVerifier fails the test unless a committed verifier equals the one
// NewIncremental builds on the same texts: convergence and the stable routes
// per (prefix, router), every verdict, the provenance graph node for node and
// its line index, the coverage spectrum and the SBFL ranking.
func sameVerifier(t *testing.T, label string, got, want *verify.Incremental) {
	t.Helper()
	order := want.BaseNet().Order
	prefixes := want.BaseNet().AllPrefixes()
	if g := got.BaseNet().AllPrefixes(); !reflect.DeepEqual(g, prefixes) {
		t.Fatalf("%s: prefixes %v, scratch %v", label, g, prefixes)
	}
	if g, w := len(got.BaseOutcome().ByPrefix), len(want.BaseOutcome().ByPrefix); g != w {
		t.Fatalf("%s: %d prefix outcomes, scratch %d", label, g, w)
	}
	for _, p := range prefixes {
		g, w := got.BaseOutcome().ByPrefix[p], want.BaseOutcome().ByPrefix[p]
		if g.Converged != w.Converged || len(g.Cycle) != len(w.Cycle) {
			t.Fatalf("%s: %v converged=%v cycle=%d, scratch converged=%v cycle=%d",
				label, p, g.Converged, len(g.Cycle), w.Converged, len(w.Cycle))
		}
		if (g.AdjIn == nil) != (w.AdjIn == nil) || len(g.AdjIn) != len(w.AdjIn) {
			t.Fatalf("%s: %v has adj-in rows for %d routers (nil: %v), scratch %d (nil: %v)",
				label, p, len(g.AdjIn), g.AdjIn == nil, len(w.AdjIn), w.AdjIn == nil)
		}
		for i, name := range order {
			if routeID(g.Final[name]) != routeID(w.Final[name]) {
				t.Fatalf("%s: %v at %s: %s, scratch %s", label, p, name, routeID(g.Final[name]), routeID(w.Final[name]))
			}
			for k := range w.Cycle {
				if routeID(g.Cycle[k][name]) != routeID(w.Cycle[k][name]) {
					t.Fatalf("%s: %v phase %d at %s differs from scratch", label, p, k, name)
				}
			}
			if w.AdjIn == nil {
				continue
			}
			if len(g.AdjIn[i]) != len(w.AdjIn[i]) {
				t.Fatalf("%s: %v at %s: %d adj-in slots, scratch %d", label, p, name, len(g.AdjIn[i]), len(w.AdjIn[i]))
			}
			for j := range w.AdjIn[i] {
				gr, wr := routeID(g.AdjInAt(got.BaseNet(), i, j)), routeID(w.AdjInAt(want.BaseNet(), i, j))
				if gr != wr {
					t.Fatalf("%s: %v at %s, session slot %d: %s, scratch %s", label, p, name, j, gr, wr)
				}
			}
		}
	}

	if !reflect.DeepEqual(got.BaseReport().Verdicts, want.BaseReport().Verdicts) {
		for i, w := range want.BaseReport().Verdicts {
			if g := got.BaseReport().Verdicts[i]; !reflect.DeepEqual(g, w) {
				t.Fatalf("%s: verdict %d (%s): pass=%v prefix=%v lines=%v, scratch pass=%v prefix=%v lines=%v",
					label, i, w.Intent.ID, g.Pass, g.Prefix, g.Lines(), w.Pass, w.Prefix, w.Lines())
			}
		}
	}

	gp, wp := got.BaseProvenance(), want.BaseProvenance()
	if gp.Len() != wp.Len() || !reflect.DeepEqual(gp.Prefixes(), wp.Prefixes()) {
		t.Fatalf("%s: provenance has %d derivations over %v, scratch %d over %v", label, gp.Len(), gp.Prefixes(), wp.Len(), wp.Prefixes())
	}
	for _, p := range wp.Prefixes() {
		gs, ws := gp.Section(p).Stored(), wp.Section(p).Stored()
		if len(gs) != len(ws) || gp.Section(p).Len() != wp.Section(p).Len() {
			t.Fatalf("%s: %v stores %d of %d derivations, scratch %d of %d", label, p, len(gs), gp.Section(p).Len(), len(ws), wp.Section(p).Len())
		}
		for i, w := range ws {
			if g := gs[i]; g.Router != w.Router || g.Peer != w.Peer || g.PeerRouter != w.PeerRouter || !sameLines(g.Lines, w.Lines) {
				t.Fatalf("%s: %v site %d:\n  %s/%s %v lines=%v\nscratch\n  %s/%s %v lines=%v", label, p, i,
					g.Router, g.PeerRouter, g.Peer, g.Lines, w.Router, w.PeerRouter, w.Peer, w.Lines)
			}
		}
		if g, w := gp.LinesForPrefix(p), wp.LinesForPrefix(p); !sameLines(g, w) {
			t.Fatalf("%s: LinesForPrefix(%v) = %v, scratch %v", label, p, g, w)
		}
	}

	gm := coverage.Build(got.BaseNet(), gp, got.BaseReport())
	wm := coverage.Build(want.BaseNet(), wp, want.BaseReport())
	if !reflect.DeepEqual(gm.Tests, wm.Tests) {
		t.Fatalf("%s: coverage rows differ from scratch", label)
	}
	if !reflect.DeepEqual(sbfl.Rank(gm, sbfl.Tarantula), sbfl.Rank(wm, sbfl.Tarantula)) {
		t.Fatalf("%s: SBFL ranking differs from scratch", label)
	}
}

// commitTally counts, over the commits a test made, the prefixes that kept
// the parent's outcome (partial provenance replay) and those that did not,
// and the traced verdicts that stood from the parent (they share its
// traces) and those checked again.
type commitTally struct{ versions, kept, moved, reused, reverified int }

func (ct *commitTally) add(parent, child *verify.Incremental) {
	ct.versions++
	for p, po := range child.BaseOutcome().ByPrefix {
		if po == parent.BaseOutcome().ByPrefix[p] {
			ct.kept++
		} else {
			ct.moved++
		}
	}
	for i, v := range child.BaseReport().Verdicts {
		switch pv := parent.BaseReport().Verdicts[i]; {
		case len(v.Traces) == 0:
		case len(pv.Traces) > 0 && &v.Traces[0] == &pv.Traces[0]:
			ct.reused++
		default:
			ct.reverified++
		}
	}
}

// TestCommitMatchesScratch is the differential evidence for derived
// preservation. It follows real searches — Figure 2, a corpus slice, the
// wan-large panel; all 120 corpus incidents unless -short — and rebuilds
// every version the engine kept the way the engine does, by committing on a
// clone of the parent's (itself committed) verifier; each must equal the
// verifier built from scratch on the same texts, and every prefix of its
// outcome must pass the reference simulator (oracle.Tally.Reference). The
// full sweep is a step of the soundness CI job.
func TestCommitMatchesScratch(t *testing.T) {
	type search struct {
		c    *acr.Case
		opts acr.RepairOptions
	}
	searches := map[string]search{"figure2": {c: acr.Figure2Incident()}}
	slice, err := acr.GenerateCorpus(acr.CorpusOptions{Size: 24, Seed: 3})
	if err != nil {
		t.Fatal(err)
	}
	for _, inc := range slice {
		searches["slice/"+inc.ID] = search{c: acr.IncidentCase(inc)}
	}
	for _, inc := range wanPanel(t) {
		searches["wan/"+inc.ID] = search{c: acr.IncidentCase(inc), opts: acr.RepairOptions{MaxIterations: 6}}
	}
	if !testing.Short() {
		corpus, err := acr.GenerateCorpus(acr.CorpusOptions{Size: 120, Seed: 1})
		if err != nil {
			t.Fatal(err)
		}
		for _, inc := range corpus {
			searches["corpus/"+inc.ID] = search{c: acr.IncidentCase(inc)}
		}
	}

	var tally commitTally
	var ref oracle.Tally
	deepest := 0
	for name, s := range searches {
		key := func(descs []string) string { return strings.Join(descs, "\x00") }
		committed := map[string]*verify.Incremental{
			key(nil): verify.NewIncremental(s.c.Topo, s.c.Configs, s.c.Intents, bgp.Options{}),
		}
		for iter, pop := range keptVersions(t, s.c, s.opts) {
			for _, m := range pop {
				if committed[key(m.Descs)] != nil {
					continue // the base, or a population carried over a widening retry
				}
				label := fmt.Sprintf("%s iteration %d %q", name, iter, m.Descs)
				parent := committed[key(m.Descs[:len(m.Descs)-1])]
				if parent == nil {
					t.Fatalf("%s: its parent version was never kept", label)
				}
				child := commitTo(t, label, parent, m.Configs)
				sameVerifier(t, label, child, verify.NewIncremental(s.c.Topo, configsOf(m.Configs), s.c.Intents, bgp.Options{}))
				if err := ref.Reference(child.BaseOutcome()); err != nil {
					t.Fatalf("%s: %v", label, err)
				}
				if got := child.BaseReport().NumFailed(); got != m.Fitness {
					t.Fatalf("%s: %d failing intents, the engine journaled %d", label, got, m.Fitness)
				}
				committed[key(m.Descs)] = child
				tally.add(parent, child)
				deepest = max(deepest, len(m.Descs))
			}
		}
	}
	t.Logf("%d searches, %d kept versions (deepest chain %d): %d prefixes kept the parent's outcome, %d moved; %d traced verdicts reused, %d re-verified; reference-checked %d converged and %d flapping prefixes",
		len(searches), tally.versions, deepest, tally.kept, tally.moved, tally.reused, tally.reverified, ref.Converged, ref.Flapping)
	if tally.kept == 0 || tally.moved == 0 || deepest < 3 || ref.Converged == 0 {
		t.Errorf("the sweep is vacuous: %d kept prefixes, %d moved, deepest chain %d, %d reference-checked", tally.kept, tally.moved, deepest, ref.Converged)
	}
	if tally.reused == 0 || tally.reverified == 0 {
		t.Errorf("Commit's verdict reuse is untested: %d traced verdicts reused, %d re-verified", tally.reused, tally.reverified)
	}
}

// TestCommitChainAndSessionChange commits by hand what the searches above
// may not reach: a chain of three commits whose middle one inserts and
// deletes on one device, and an edit that takes a session down, which sends
// Commit down its cold path.
func TestCommitChainAndSessionChange(t *testing.T) {
	s := scenario.Figure2()
	texts := func(iv *verify.Incremental) map[string][]string {
		out := map[string][]string{}
		for d, c := range iv.BaseConfigs() {
			out[d] = c.Lines()
		}
		return out
	}
	scratch := func(cfgs map[string]*netcfg.Config) *verify.Incremental {
		return verify.NewIncremental(s.Topo, cfgs, s.Intents, bgp.Options{})
	}
	step := func(label string, parent *verify.Incremental, edits ...netcfg.EditSet) *verify.Incremental {
		t.Helper()
		child := parent.Clone()
		if err := child.Commit(edits); err != nil {
			t.Fatalf("%s: %v", label, err)
		}
		sameVerifier(t, label, child, scratch(configsOf(texts(child))))
		return child
	}
	base := scratch(s.Configs)
	fA := base.BaseFiles()["A"]
	entry := fA.PrefixListEntries("default_all")[0]

	// Depth 1: a comment at the top of C renumbers every line of C.
	v1 := step("depth 1", base, netcfg.EditSet{Device: "C", Edits: []netcfg.Edit{netcfg.InsertBefore{At: 1, Text: "# shifted"}}})
	// Depth 2: on A, insert a comment above the prefix list and delete the
	// list's first entry below it.
	v2 := step("depth 2", v1, netcfg.EditSet{Device: "A", Edits: []netcfg.Edit{
		netcfg.InsertBefore{At: 1, Text: "# shifted"},
		netcfg.DeleteLine{At: entry.Line},
	}})
	// Depth 3: put the entry back, one line lower than it started.
	v3 := step("depth 3", v2, netcfg.EditSet{Device: "A", Edits: []netcfg.Edit{
		netcfg.InsertBefore{At: entry.Line + 1, Text: base.BaseConfigs()["A"].Line(entry.Line)},
	}})
	if v3.BaseReport().NumFailed() != base.BaseReport().NumFailed() {
		t.Errorf("after deleting and restoring the entry %d intents fail, the base had %d",
			v3.BaseReport().NumFailed(), base.BaseReport().NumFailed())
	}

	// A session-changing edit on the committed chain: A drops its peer
	// stanza toward B.
	var peerLine int
	for _, sess := range v3.BaseNet().Routers["A"].Sessions {
		if sess.PeerName == "B" {
			peerLine = sess.LocalLines[0].Line
		}
	}
	if peerLine == 0 {
		t.Fatal("A has no session toward B to take down")
	}
	down := step("session down", v3, netcfg.EditSet{Device: "A", Edits: []netcfg.Edit{netcfg.DeleteLine{At: peerLine}}})
	if down.BaseNet().SessionBetween("A", "B") != nil {
		t.Fatal("the edit left the A–B session up; the cold path was not exercised")
	}
	for p, po := range down.BaseOutcome().ByPrefix {
		if po == v3.BaseOutcome().ByPrefix[p] {
			t.Errorf("%v kept its parent's outcome across a session change", p)
		}
	}
	// And back up, from a base that was itself built cold.
	step("session up", down, netcfg.EditSet{Device: "A", Edits: []netcfg.Edit{
		netcfg.InsertBefore{At: peerLine, Text: v3.BaseConfigs()["A"].Line(peerLine)},
	}})
}

// TestCommitReverifiesReachedVerdicts: Commit keeps a parent's flow verdict
// when its covering prefix's outcome did not move and its traces visit no
// edited device, and checks global intents again. On the repaired Figure 2
// with loop-free and blackhole-free intents added, S gains a null0 static
// toward PoP-A's prefix. S redistributes no statics, so every prefix keeps
// its outcome, yet the flow through S and the blackhole-freedom of that
// prefix now fail: the first is caught only by its trace visiting S, the
// second only by global intents always being checked. Deleting the static
// must restore both. Then B originates a /24 of PoP-A's prefix, which
// leaves the /16's outcome alone but covers the flow's destination more
// specifically: the flow must be checked against the new prefix.
func TestCommitReverifiesReachedVerdicts(t *testing.T) {
	s := scenario.Figure2Correct()
	intents := append([]verify.Intent(nil), s.Intents...)
	for _, p := range []netip.Prefix{scenario.PrefixPoPA, scenario.PrefixPoPB, scenario.PrefixDCNS} {
		intents = append(intents, verify.LoopFreeIntent("lf-"+p.String(), p), verify.BlackholeFreeIntent("bh-"+p.String(), p))
	}
	scratch := func(cfgs map[string]*netcfg.Config) *verify.Incremental {
		return verify.NewIncremental(s.Topo, cfgs, intents, bgp.Options{})
	}
	base := scratch(s.Configs)
	if base.BaseReport().NumFailed() != 0 {
		t.Fatalf("the repaired Figure 2 fails:\n%s", base.BaseReport().Summary())
	}
	null0 := netcfg.EditSet{Device: "S", Edits: []netcfg.Edit{netcfg.InsertBefore{
		At: s.Configs["S"].NumLines() + 1, Text: "ip route static " + scenario.PrefixPoPA.String() + " null0"}}}
	blackholed := base.Clone()
	if err := blackholed.Commit([]netcfg.EditSet{null0}); err != nil {
		t.Fatal(err)
	}
	cfgs := blackholed.BaseConfigs()
	sameVerifier(t, "null0 on S", blackholed, scratch(cfgs))
	for p, po := range blackholed.BaseOutcome().ByPrefix {
		if po != base.BaseOutcome().ByPrefix[p] {
			t.Errorf("%v moved; the static was to leave every outcome alone", p)
		}
	}
	for _, id := range []string{"reach-pop-a", "bh-" + scenario.PrefixPoPA.String()} {
		if v := blackholed.BaseReport().ByID(id); v == nil || v.Pass {
			t.Errorf("%s passes with a null0 static on S:\n%s", id, blackholed.BaseReport().Summary())
		}
	}
	restored := blackholed.Clone()
	if err := restored.Commit([]netcfg.EditSet{{Device: "S", Edits: []netcfg.Edit{netcfg.DeleteLine{At: cfgs["S"].NumLines()}}}}); err != nil {
		t.Fatal(err)
	}
	sameVerifier(t, "null0 deleted", restored, scratch(restored.BaseConfigs()))
	if n := restored.BaseReport().NumFailed(); n != 0 {
		t.Errorf("%d intents fail once the static is gone:\n%s", n, restored.BaseReport().Summary())
	}

	specific := netip.PrefixFrom(scenario.PrefixPoPA.Addr(), 24)
	hijacked := restored.Clone()
	if err := hijacked.Commit([]netcfg.EditSet{{Device: "B", Edits: []netcfg.Edit{netcfg.InsertBefore{
		At: 2, Text: " network " + specific.String()}}}}); err != nil {
		t.Fatal(err)
	}
	sameVerifier(t, "B originates "+specific.String(), hijacked, scratch(hijacked.BaseConfigs()))
	if po := hijacked.BaseOutcome().ByPrefix[scenario.PrefixPoPA]; po != restored.BaseOutcome().ByPrefix[scenario.PrefixPoPA] {
		t.Errorf("%v moved; the origination was to leave it alone", scenario.PrefixPoPA)
	}
	if v := hijacked.BaseReport().ByID("reach-pop-a"); v == nil || v.Pass || v.Prefix != specific {
		t.Errorf("reach-pop-a is not checked against %v:\n%s", specific, hijacked.BaseReport().Summary())
	}
}
