package core

import (
	"context"
	"math/rand"
	"net/netip"
	"strings"
	"testing"

	"acr/internal/bgp"
	"acr/internal/errclass"
	"acr/internal/journal"
	"acr/internal/netcfg"
	"acr/internal/sbfl"
	"acr/internal/scenario"
	"acr/internal/verify"
)

// ctxFor builds a Context for a scenario (unit-level template testing).
func ctxFor(t *testing.T, s *scenario.Scenario) *Context {
	t.Helper()
	p := Problem{Topo: s.Topo, Configs: s.Configs, Intents: s.Intents}
	iv := verify.NewIncremental(p.Topo, p.Configs, p.Intents, bgp.Options{})
	return buildContext(p, iv, sbfl.Tarantula, rand.New(rand.NewSource(1)), false)
}

func TestBuiltinTemplatesCoverAllClasses(t *testing.T) {
	ts := BuiltinTemplates()
	if len(ts) < 9 {
		t.Fatalf("only %d templates", len(ts))
	}
	names := map[string]bool{}
	classes := map[errclass.Class]bool{}
	for _, tm := range ts {
		if names[tm.Name()] {
			t.Errorf("duplicate template name %q", tm.Name())
		}
		names[tm.Name()] = true
		classes[tm.ErrorClass()] = true
	}
	// All Table 1 class labels appear.
	for _, want := range errclass.All() {
		if !classes[want] {
			t.Errorf("no template for class %q", want)
		}
	}
}

// TestTemplateDigestsPinLibrary: every library template, Table 1's and the
// universal operators', has a distinct pinned identity, and the table pins
// nothing else.
func TestTemplateDigestsPinLibrary(t *testing.T) {
	lib := append(BuiltinTemplates(), UniversalTemplates()...)
	seen := map[string]string{}
	for _, tm := range lib {
		d := TemplateDigest(tm.Name())
		if len(d) != 64 {
			t.Errorf("%s: pinned identity %q is not a sha256", tm.Name(), d)
		}
		if other, dup := seen[d]; dup {
			t.Errorf("%s and %s share the identity %s", tm.Name(), other, d)
		}
		seen[d] = tm.Name()
	}
	if len(templateDigests) != len(lib) {
		t.Errorf("templateDigests pins %d names, the library has %d templates", len(templateDigests), len(lib))
	}
	if TemplateDigest("no-such-template") != "" {
		t.Error("a name outside the library has a pinned identity")
	}
}

// TestResumeRefusesChangedTemplateSet is the library/journal contract: a
// session journaled under one template identity refuses to resume once a
// template's pinned identity changes, with a KindJournal error naming the
// digest mismatch, although names, order and the rest of the options are
// equal. The same journal resumes cleanly under the unchanged table, so the
// refusal is the identity and nothing else.
func TestResumeRefusesChangedTemplateSet(t *testing.T) {
	s := scenario.Figure2()
	p := Problem{Topo: s.Topo, Configs: s.Configs, Intents: s.Intents}
	opts := Options{Seed: 7, MaxIterations: 10}

	// Journal only the session header: a run that died before its first
	// checkpoint. The digest check precedes any checkpoint logic, so this
	// is the minimal resumable artifact.
	dir := t.TempDir()
	w, err := journal.Create(dir, SessionHeader("template-identity", p, opts))
	if err != nil {
		t.Fatal(err)
	}
	if err := w.Close(); err != nil {
		t.Fatal(err)
	}
	sess, err := journal.Replay(dir)
	if err != nil {
		t.Fatal(err)
	}
	if !sess.Resumable() {
		t.Fatal("header-only session not resumable")
	}

	// Same case, seed and template names, but fix-peer-asn's generation
	// logic changed, and with it its pinned identity.
	const name = "fix-peer-asn"
	pinned := templateDigests[name]
	templateDigests[name] = strings.Repeat("0", 64)
	resumed := opts
	resumed.Resume = sess
	res := RepairContext(context.Background(), p, resumed)
	templateDigests[name] = pinned
	if res.Resumed {
		t.Fatal("resumed a session journaled under a different template identity")
	}
	found := false
	for _, e := range res.Errors {
		if e.Kind == KindJournal && strings.Contains(e.Err.Error(), "options digest") {
			found = true
		}
	}
	if !found {
		t.Errorf("template identity mismatch not surfaced as a KindJournal digest error: %v", res.Errors)
	}

	// Control: the unchanged table resumes without complaint (the run
	// restarts fresh, having no checkpoint, but records no journal error).
	res = RepairContext(context.Background(), p, resumed)
	for _, e := range res.Errors {
		if e.Kind == KindJournal {
			t.Errorf("unchanged template identity refused: %v", e)
		}
	}
}

func TestSymbolizePrefixListSolvesPaperValues(t *testing.T) {
	ctx := ctxFor(t, scenario.Figure2())
	anchor := netcfg.LineRef{Device: "A", Line: scenario.FigureALinePrefixList}
	ups := SymbolizePrefixList{}.Generate(ctx, anchor)
	if len(ups) != 1 {
		t.Fatalf("got %d updates, want 1", len(ups))
	}
	up := ups[0]
	for _, want := range []string{"10.70.0.0/16 ∈ var", "20.0.0.0/16 ∈ var", "¬(10.0.0.0/16 ∈ var)"} {
		if !strings.Contains(up.Desc, want) {
			t.Errorf("desc %q missing constraint %q", up.Desc, want)
		}
	}
	// Applying the edit yields permits for exactly the two prefixes.
	next, err := up.Edits[0].Apply(ctx.Configs["A"])
	if err != nil {
		t.Fatal(err)
	}
	f := netcfg.MustParse(next)
	entries := f.PrefixListEntries("default_all")
	if len(entries) != 2 || entries[0].Prefix != scenario.PrefixPoPA || entries[1].Prefix != scenario.PrefixDCNS {
		t.Errorf("entries = %+v", entries)
	}
}

func TestSymbolizePrefixListAnchorsFromPolicyLines(t *testing.T) {
	ctx := ctxFor(t, scenario.Figure2())
	anchors := []netcfg.LineRef{
		{Device: "A", Line: scenario.FigureALineDCNImport}, // attach
		{Device: "A", Line: scenario.FigureALinePolicy},    // node
		{Device: "A", Line: scenario.FigureALineOverwrite}, // apply
		{Device: "A", Line: 14},                            // match
	}
	for _, a := range anchors {
		ups := SymbolizePrefixList{}.Generate(ctx, a)
		if len(ups) == 0 {
			t.Errorf("anchor %v produced no updates", a)
		}
	}
}

func TestSymbolizePrefixListNoFailingInvolvement(t *testing.T) {
	// On a correct network nothing should be generated (no failing
	// constraints → rewriting cannot help).
	ctx := ctxFor(t, scenario.Figure2Correct())
	anchor := netcfg.LineRef{Device: "A", Line: scenario.FigureALinePrefixList}
	if ups := (SymbolizePrefixList{}).Generate(ctx, anchor); len(ups) != 0 {
		t.Errorf("correct network produced %d updates", len(ups))
	}
}

func TestFixPeerASNOnlyOnFailedSessions(t *testing.T) {
	s := scenario.WAN(6, 3, 2, scenario.GenOptions{})
	f := netcfg.MustParse(s.Configs["pop0"])
	peer := f.BGP.Peers[0]
	// Healthy session: no update.
	ctx := ctxFor(t, s)
	anchor := netcfg.LineRef{Device: "pop0", Line: peer.ASNLine}
	if ups := (FixPeerASN{}).Generate(ctx, anchor); len(ups) != 0 {
		t.Fatalf("healthy session produced %d ASN fixes", len(ups))
	}
	// Break it.
	next, err := netcfg.EditSet{Edits: []netcfg.Edit{netcfg.ReplaceLine{
		At: peer.ASNLine, Text: " peer " + peer.Addr.String() + " as-number 63000",
	}}}.Apply(s.Configs["pop0"])
	if err != nil {
		t.Fatal(err)
	}
	s.Configs["pop0"] = next
	ctx = ctxFor(t, s)
	ups := FixPeerASN{}.Generate(ctx, anchor)
	if len(ups) != 1 {
		t.Fatalf("broken session produced %d fixes, want 1", len(ups))
	}
	fixed, err := ups[0].Edits[0].Apply(s.Configs["pop0"])
	if err != nil {
		t.Fatal(err)
	}
	f2 := netcfg.MustParse(fixed)
	// The solved ASN equals the neighbor's actual AS.
	var neighborASN uint32
	for _, adj := range s.Topo.Adjacencies("pop0") {
		if adj.PeerAddr == peer.Addr {
			neighborASN = netcfg.MustParse(s.Configs[adj.PeerNode]).BGP.ASN
		}
	}
	if f2.BGP.Peers[0].ASN != neighborASN {
		t.Errorf("solved ASN = %d, want %d", f2.BGP.Peers[0].ASN, neighborASN)
	}
}

func TestAddRedistributeRequiresRelevantFailure(t *testing.T) {
	// Statics exist and redistribution missing, but no failing intent
	// overlaps them → no candidate.
	s := scenario.Figure2() // failing test is 10.0/16, unrelated to statics
	cfg := s.Configs["PoP-A"]
	next, err := netcfg.EditSet{Edits: []netcfg.Edit{
		netcfg.InsertBefore{At: cfg.NumLines() + 1, Text: "ip route static 77.0.0.0/16 null0"},
	}}.Apply(cfg)
	if err != nil {
		t.Fatal(err)
	}
	s.Configs["PoP-A"] = next
	ctx := ctxFor(t, s)
	f := ctx.Files["PoP-A"]
	anchor := netcfg.LineRef{Device: "PoP-A", Line: f.Statics[0].Line}
	if ups := (AddRedistribute{}).Generate(ctx, anchor); len(ups) != 0 {
		t.Errorf("irrelevant static produced %d redistribute candidates", len(ups))
	}
}

func TestRemovePBRRuleDeletesWholeBlock(t *testing.T) {
	s := scenario.DCN(4, scenario.GenOptions{WithScrubber: true})
	ctx := ctxFor(t, s)
	f := ctx.Files["spine0-0"]
	pol := f.PBRPolicyByName("Scrub")
	r := pol.Rules[0]
	ups := RemovePBRRule{}.Generate(ctx, netcfg.LineRef{Device: "spine0-0", Line: r.Line + 1})
	if len(ups) != 1 {
		t.Fatalf("updates = %d", len(ups))
	}
	if got := len(ups[0].Edits[0].Edits); got != r.End-r.Line+1 {
		t.Errorf("deleted %d lines, want %d", got, r.End-r.Line+1)
	}
}

func TestAddPeerToGroupGeneratesPerGroup(t *testing.T) {
	s := scenario.WAN(6, 3, 2, scenario.GenOptions{})
	// Remove pop0's membership on its backbone router to create an
	// ungrouped peer.
	var victim string
	var memberLine, asnLine int
	for d, c := range s.Configs {
		f := netcfg.MustParse(c)
		if f.BGP == nil {
			continue
		}
		for _, pe := range f.BGP.Peers {
			if pe.Group == scenario.WANGroupPoPFacing {
				victim, memberLine, asnLine = d, pe.GroupLine, pe.ASNLine
			}
		}
		if victim != "" {
			break
		}
	}
	next, err := netcfg.EditSet{Edits: []netcfg.Edit{netcfg.DeleteLine{At: memberLine}}}.Apply(s.Configs[victim])
	if err != nil {
		t.Fatal(err)
	}
	s.Configs[victim] = next
	ctx := ctxFor(t, s)
	f := ctx.Files[victim]
	nGroups := len(f.BGP.Groups)
	if asnLine > memberLine {
		asnLine--
	}
	ups := AddPeerToGroup{}.Generate(ctx, netcfg.LineRef{Device: victim, Line: asnLine})
	if len(ups) != nGroups {
		t.Errorf("updates = %d, want one per group (%d)", len(ups), nGroups)
	}
}

func TestCopyPolicyFromRoleReconstructsBlock(t *testing.T) {
	s := scenario.WAN(6, 3, 2, scenario.GenOptions{})
	// Find a backbone router with the NoLeak policy attached and delete
	// the definition (both nodes), leaving a dangling attach.
	var victim string
	for d, c := range s.Configs {
		f := netcfg.MustParse(c)
		if g := f.GroupByName(scenario.WANGroupPoPFacing); g != nil && len(g.Policies) > 0 && len(f.PolicyNodes(scenario.WANPolicyNoLeak)) > 0 {
			victim = d
			break
		}
	}
	if victim == "" {
		t.Fatal("no victim")
	}
	f := netcfg.MustParse(s.Configs[victim])
	var dels []netcfg.Edit
	for _, node := range f.PolicyNodes(scenario.WANPolicyNoLeak) {
		for l := node.Line; l <= node.End; l++ {
			dels = append(dels, netcfg.DeleteLine{At: l})
		}
	}
	next, err := netcfg.EditSet{Edits: dels}.Apply(s.Configs[victim])
	if err != nil {
		t.Fatal(err)
	}
	s.Configs[victim] = next
	ctx := ctxFor(t, s)
	f2 := ctx.Files[victim]
	g := f2.GroupByName(scenario.WANGroupPoPFacing)
	anchor := netcfg.LineRef{Device: victim, Line: g.Policies[0].Line}
	ups := CopyPolicyFromRole{}.Generate(ctx, anchor)
	if len(ups) != 1 {
		t.Fatalf("updates = %d, want 1", len(ups))
	}
	fixed, err := ups[0].Edits[0].Apply(s.Configs[victim])
	if err != nil {
		t.Fatal(err)
	}
	f3 := netcfg.MustParse(fixed)
	if len(f3.PolicyNodes(scenario.WANPolicyNoLeak)) == 0 {
		t.Error("policy not reconstructed")
	}
	if !strings.Contains(ups[0].Desc, "copied from") {
		t.Errorf("desc = %q", ups[0].Desc)
	}
}

func TestMergeUpdates(t *testing.T) {
	a := Update{Edits: []netcfg.EditSet{{Device: "A", Edits: []netcfg.Edit{netcfg.DeleteLine{At: 1}}}}, Desc: "a"}
	b := Update{Edits: []netcfg.EditSet{{Device: "B", Edits: []netcfg.Edit{netcfg.DeleteLine{At: 2}}}}, Desc: "b"}
	c := Update{Edits: []netcfg.EditSet{{Device: "A", Edits: []netcfg.Edit{netcfg.DeleteLine{At: 3}}}}, Desc: "c"}
	if m, ok := mergeUpdates(a, b); !ok || len(m.Edits) != 2 {
		t.Errorf("disjoint merge failed: %v %v", m, ok)
	}
	if _, ok := mergeUpdates(a, c); ok {
		t.Error("same-device merge should fail")
	}
	if _, ok := mergeUpdates(a, a); ok {
		t.Error("self merge should fail")
	}
}

func TestApplyUpdateIsolation(t *testing.T) {
	base := map[string]*netcfg.Config{"A": netcfg.NewConfig("A", "x\ny\n")}
	up := Update{Edits: []netcfg.EditSet{{Device: "A", Edits: []netcfg.Edit{netcfg.DeleteLine{At: 1}}}}}
	out := applyUpdate(base, up)
	if out["A"].NumLines() != 1 || base["A"].NumLines() != 2 {
		t.Error("applyUpdate mutated base or failed")
	}
}

func TestContextUniverseIncludesIntentPrefixes(t *testing.T) {
	s := scenario.Figure2()
	s.Intents = append(s.Intents, verify.ReachIntent("extra", scenario.PrefixDCNS, netip.MustParsePrefix("44.0.0.0/16")))
	ctx := ctxFor(t, s)
	found := false
	for _, p := range ctx.Universe {
		if p == netip.MustParsePrefix("44.0.0.0/16") {
			found = true
		}
	}
	if !found {
		t.Errorf("universe %v missing intent prefix", ctx.Universe)
	}
}
