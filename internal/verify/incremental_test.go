package verify_test

import (
	"context"
	"fmt"
	"maps"
	"net/netip"
	"strings"
	"testing"

	"acr/internal/analysis"
	"acr/internal/bgp"
	"acr/internal/netcfg"
	"acr/internal/oracle"
	"acr/internal/scenario"
	"acr/internal/topo"
	"acr/internal/verify"
)

func newIV(t *testing.T, s *scenario.Scenario) *verify.Incremental {
	t.Helper()
	return verify.NewIncremental(s.Topo, s.Configs, s.Intents, bgp.Options{})
}

// reportsEqual compares pass/fail vectors.
func reportsEqual(a, b *verify.Report) bool {
	if len(a.Verdicts) != len(b.Verdicts) {
		return false
	}
	for i := range a.Verdicts {
		if a.Verdicts[i].Pass != b.Verdicts[i].Pass {
			return false
		}
	}
	return true
}

func TestIncrementalBaseMatchesFull(t *testing.T) {
	s := scenario.Figure2()
	iv := newIV(t, s)
	if got := iv.BaseReport().NumFailed(); got != 1 {
		t.Fatalf("base failed = %d, want 1", got)
	}
}

func TestIncrementalCheckMatchesFullCheck(t *testing.T) {
	s := scenario.Figure2()
	iv := newIV(t, s)
	edits := scenario.Figure2PaperRepair()

	inc, stats, err := iv.Check(edits)
	if err != nil {
		t.Fatal(err)
	}
	full, err := iv.FullCheck(edits)
	if err != nil {
		t.Fatal(err)
	}
	if !reportsEqual(inc, full) {
		t.Fatalf("incremental and full reports disagree:\ninc:\n%s\nfull:\n%s", inc.Summary(), full.Summary())
	}
	if inc.NumFailed() != 0 {
		t.Fatalf("paper repair should pass all intents:\n%s", inc.Summary())
	}
	if stats.Broad {
		t.Errorf("prefix-list replacements should not be broad: %s", stats)
	}
	if stats.PrefixesSimulated >= stats.PrefixesTotal && stats.PrefixesTotal > 1 {
		t.Logf("note: all prefixes re-simulated (%s)", stats)
	}
}

func TestIncrementalScopesPrefixListEdit(t *testing.T) {
	// Repairing only A's prefix-list (which mentions 10.70/16) must not
	// re-verify... it mentions prefixes overlapping everything relevant
	// here; instead test a genuinely narrow edit on a large WAN: replace
	// one stub's static with itself (text identical semantics, distinct
	// prefix) — only that prefix re-simulates.
	s := scenario.WAN(8, 4, 3, scenario.GenOptions{StaticOriginEvery: 1})
	iv := newIV(t, s)
	if iv.BaseReport().NumFailed() != 0 {
		t.Fatalf("base WAN broken:\n%s", iv.BaseReport().Summary())
	}
	// pop0 originates 10.100.0.0/16 via a static; touch that static line.
	f := netcfg.MustParse(s.Configs["pop0"])
	if len(f.Statics) == 0 {
		t.Fatal("pop0 has no static")
	}
	line := f.Statics[0].Line
	text := s.Configs["pop0"].Line(line)
	rep, stats, err := iv.Check([]netcfg.EditSet{{Device: "pop0", Edits: []netcfg.Edit{
		netcfg.ReplaceLine{At: line, Text: text}, // no-op rewrite
	}}})
	if err != nil {
		t.Fatal(err)
	}
	if rep.NumFailed() != 0 {
		t.Fatalf("no-op edit broke verification:\n%s", rep.Summary())
	}
	if stats.Broad {
		t.Fatalf("static line edit classified broad: %s", stats)
	}
	// The impact analysis sees a semantically identical AST and statically
	// refutes the no-op: zero simulations.
	if !stats.Refuted || stats.PrefixesSimulated != 0 {
		t.Errorf("no-op rewrite not statically refuted (%s)", stats)
	}
}

func TestIncrementalDetectsNewViolation(t *testing.T) {
	s := scenario.Figure2Correct()
	iv := newIV(t, s)
	if iv.BaseReport().NumFailed() != 0 {
		t.Fatal("repaired base should pass")
	}
	// Break A again: widen its prefix-list back to everything.
	edits := []netcfg.EditSet{{Device: "A", Edits: []netcfg.Edit{netcfg.ReplaceLine{
		At:   scenario.FigureALinePrefixList,
		Text: "ip prefix-list default_all index 10 permit 0.0.0.0/0 le 32",
	}}}}
	rep, _, err := iv.Check(edits)
	if err != nil {
		t.Fatal(err)
	}
	full, err := iv.FullCheck(edits)
	if err != nil {
		t.Fatal(err)
	}
	if !reportsEqual(rep, full) {
		t.Fatalf("incremental misses the regression:\ninc:\n%s\nfull:\n%s", rep.Summary(), full.Summary())
	}
}

// TestPoPExportDetachAnsweredByDelta: detaching a backbone router's export
// policy toward its PoP group scopes the DCN prefixes the policy matches,
// like any policy delta, and the isolation intents injected at the PoPs
// read those prefixes. They are answered by delta re-simulation over the
// edited router alone: no cold simulation, no fallback, verdicts equal to
// a full check, and a clean audit (oracle.Audit).
func TestPoPExportDetachAnsweredByDelta(t *testing.T) {
	s := scenario.WAN(6, 3, 2, scenario.GenOptions{})
	iv := newIV(t, s)
	attach := "route-policy " + scenario.WANPolicyNoLeak + " export"
	var edits []netcfg.EditSet
	for _, d := range iv.BaseNet().Order {
		cfg := s.Configs[d]
		for l := 1; l <= cfg.NumLines() && edits == nil; l++ {
			if strings.Contains(cfg.Line(l), attach) {
				edits = []netcfg.EditSet{{Device: d, Edits: []netcfg.Edit{netcfg.DeleteLine{At: l}}}}
			}
		}
		if edits != nil {
			break
		}
	}
	if edits == nil {
		t.Fatal("no backbone router attaches the PoP export policy")
	}
	rep, stats, err := iv.Check(edits)
	if err != nil {
		t.Fatal(err)
	}
	if stats.Refuted || stats.Broad || stats.PrefixesDelta < 1 || stats.PrefixesSimulated != 0 || stats.DeltaFallbacks != 0 {
		t.Fatalf("export detach not answered by delta alone: %s", stats)
	}
	if want := fmt.Sprintf("simulated 0/%d prefixes cold (delta=%d),", stats.PrefixesTotal, stats.PrefixesDelta); !strings.HasPrefix(stats.String(), want) {
		t.Errorf("stats render %q, want prefix %q", stats, want)
	}
	full, err := iv.FullCheck(edits)
	if err != nil {
		t.Fatal(err)
	}
	if !reportsEqual(rep, full) {
		t.Fatalf("delta-answered check disagrees with the full check:\ninc:\n%s\nfull:\n%s", rep.Summary(), full.Summary())
	}
	if rep.NumFailed() == 0 {
		t.Errorf("removing the DCN-isolation export policy leaked nothing:\n%s", rep.Summary())
	}
	if err := oracle.Audit(context.Background(), iv, edits); err != nil {
		t.Error(err)
	}
}

// TestPoPRouterIDEditScopedToLeaf pins the leaf control-plane scope: a
// router-id edit on a WAN PoP, a leaf, reaches the rest of the network
// only through the prefixes the PoP originates, so the impact set holds
// exactly those prefixes and LocalDevices = {PoP}, not the component's
// prefixes. The check must equal the full check and pass oracle.Audit.
func TestPoPRouterIDEditScopedToLeaf(t *testing.T) {
	s := scenario.WAN(6, 3, 2, scenario.GenOptions{})
	iv := newIV(t, s)
	var pop string
	for _, nd := range s.Topo.Nodes() {
		if nd.Kind == topo.PoP {
			pop = nd.Name
			break
		}
	}
	cfg := s.Configs[pop]
	var edits []netcfg.EditSet
	for l := 1; l <= cfg.NumLines(); l++ {
		if strings.HasPrefix(strings.TrimSpace(cfg.Line(l)), "router-id ") {
			edits = []netcfg.EditSet{{Device: pop, Edits: []netcfg.Edit{netcfg.ReplaceLine{At: l, Text: " router-id 9.9.9.9"}}}}
		}
	}
	if edits == nil {
		t.Fatalf("%s has no router-id line", pop)
	}

	n := iv.BaseNet()
	origins := map[netip.Prefix][]string{}
	own := map[netip.Prefix]bool{}
	for _, name := range n.Order {
		for _, o := range n.Routers[name].Origins {
			origins[o.Prefix] = append(origins[o.Prefix], name)
			own[o.Prefix] = own[o.Prefix] || name == pop
		}
	}
	maps.DeleteFunc(own, func(_ netip.Prefix, mine bool) bool { return !mine })
	a := analysis.NewImpactAnalyzer(iv.BaseFiles(), n.AllPrefixes(), origins, topo.NewInfluenceGraph(s.Topo))
	newConfigs, err := iv.Apply(edits)
	if err != nil {
		t.Fatal(err)
	}
	files := maps.Clone(iv.BaseFiles())
	files[pop], _ = netcfg.Parse(newConfigs[pop])
	im := a.Compare(files)
	if im.Broad || im.SessionsMayChange || len(own) == 0 || len(own) == len(n.AllPrefixes()) {
		t.Fatalf("impact %s; want a scoped, session-preserving change (%d own of %d prefixes)", im, len(own), len(n.AllPrefixes()))
	}
	if !maps.Equal(im.Prefixes, own) {
		t.Errorf("Prefixes = %v, want %s's originations %v", im.Prefixes, pop, own)
	}
	if !maps.Equal(im.LocalDevices, map[string]bool{pop: true}) {
		t.Errorf("LocalDevices = %v, want {%s}", im.LocalDevices, pop)
	}

	rep, stats, err := iv.Check(edits)
	if err != nil {
		t.Fatal(err)
	}
	if stats.Broad {
		t.Errorf("leaf router-id edit checked broad: %s", stats)
	}
	full, err := iv.FullCheck(edits)
	if err != nil {
		t.Fatal(err)
	}
	if !reportsEqual(rep, full) {
		t.Fatalf("incremental and full reports disagree:\ninc:\n%s\nfull:\n%s", rep.Summary(), full.Summary())
	}
	if err := oracle.Audit(context.Background(), iv, edits); err != nil {
		t.Error(err)
	}
}

func TestIncrementalSessionEditIsBroad(t *testing.T) {
	s := scenario.Figure2()
	iv := newIV(t, s)
	// Breaking a peer's AS number takes the session down — a broad change.
	f := netcfg.MustParse(s.Configs["S"])
	var asnLine int
	for _, p := range f.BGP.Peers {
		if p.ASN == 65003 { // the S–C session
			asnLine = p.ASNLine
		}
	}
	if asnLine == 0 {
		t.Fatal("S's peer stanza for C not found")
	}
	edits := []netcfg.EditSet{{Device: "S", Edits: []netcfg.Edit{
		netcfg.ReplaceLine{At: asnLine, Text: " peer " + f.BGP.Peers[1].Addr.String() + " as-number 64999"},
	}}}
	_, stats, err := iv.Check(edits)
	if err != nil {
		t.Fatal(err)
	}
	// The impact analysis scopes the session edit to S's connected
	// component rather than declaring it broad; on Figure 2 that is the
	// whole network, so nothing may be pruned.
	if stats.Refuted {
		t.Fatalf("session-affecting edit statically refuted: %s", stats)
	}
	if !stats.Broad && stats.PrefixesSimulated != stats.PrefixesTotal {
		t.Errorf("session-affecting edit under-scoped: %s", stats)
	}
	if !stats.Broad && stats.IntentsReverified != stats.IntentsTotal {
		t.Errorf("session-affecting edit skipped intents: %s", stats)
	}
}

// TestFullCheckCountsCandidatePrefixes: a full check simulates the
// candidate's prefixes, not the base's, so its Stats count an origination
// the edit adds.
func TestFullCheckCountsCandidatePrefixes(t *testing.T) {
	s := scenario.Figure2Correct()
	iv := newIV(t, s)
	f := netcfg.MustParse(s.Configs["PoP-A"])
	edits := []netcfg.EditSet{{Device: "PoP-A", Edits: []netcfg.Edit{
		netcfg.InsertBefore{At: f.BGP.End + 1, Text: " network 10.71.0.0/16"},
	}}}
	candidate := iv.Clone()
	if err := candidate.Commit(edits); err != nil {
		t.Fatal(err)
	}
	want := len(candidate.BaseNet().AllPrefixes())
	if base := len(iv.BaseNet().AllPrefixes()); want != base+1 {
		t.Fatalf("the edit takes the prefix count from %d to %d, want one origination more", base, want)
	}
	_, stats, err := iv.FullCheckCtx(context.Background(), edits)
	if err != nil {
		t.Fatal(err)
	}
	if stats.PrefixesTotal != want || stats.PrefixesSimulated != want {
		t.Errorf("full check counts %d/%d prefixes, want the candidate's %d", stats.PrefixesSimulated, stats.PrefixesTotal, want)
	}
	if stats.IntentsReverified != len(s.Intents) || stats.Activations == 0 {
		t.Errorf("full check reverified %d of %d intents in %d activations", stats.IntentsReverified, len(s.Intents), stats.Activations)
	}
}

func TestIncrementalCommitAdvancesBase(t *testing.T) {
	s := scenario.Figure2()
	iv := newIV(t, s)
	if err := iv.Commit(scenario.Figure2PaperRepair()); err != nil {
		t.Fatal(err)
	}
	if got := iv.BaseReport().NumFailed(); got != 0 {
		t.Fatalf("after commit, base failed = %d, want 0", got)
	}
	// A further no-op check against the new base.
	rep, _, err := iv.Check(nil)
	if err != nil {
		t.Fatal(err)
	}
	if rep.NumFailed() != 0 {
		t.Error("check against committed base should pass")
	}
}

func TestIncrementalInsertNewOrigination(t *testing.T) {
	s := scenario.Figure2Correct()
	iv := newIV(t, s)
	// Give PoP-A a second prefix and an intent for it; the insert mentions
	// the new prefix so it must be simulated and the new intent verified.
	s2 := s.Clone()
	_ = s2
	f := netcfg.MustParse(s.Configs["PoP-A"])
	ivWith := verify.NewIncremental(s.Topo, s.Configs,
		append(append([]verify.Intent{}, s.Intents...),
			verify.ReachIntent("reach-new", scenario.PrefixDCNS, netip.MustParsePrefix("10.71.0.0/16"))),
		bgp.Options{})
	if ivWith.BaseReport().NumFailed() != 1 {
		t.Fatalf("new intent should fail before origination exists:\n%s", ivWith.BaseReport().Summary())
	}
	insertAt := f.BGP.End + 1
	rep, stats, err := ivWith.Check([]netcfg.EditSet{{Device: "PoP-A", Edits: []netcfg.Edit{
		netcfg.InsertBefore{At: insertAt, Text: " network 10.71.0.0/16"},
	}}})
	if err != nil {
		t.Fatal(err)
	}
	// The prefix is now originated by PoP-A... but PoP-A's node does not
	// own it in the topology, so delivery still fails at PoP-A — what
	// matters here is that the incremental verifier re-checked it.
	v := rep.ByID("reach-new")
	if v == nil {
		t.Fatal("new intent verdict missing")
	}
	if stats.PrefixesSimulated == 0 {
		t.Errorf("new origination not simulated: %s", stats)
	}
	_ = iv
}

// TestOriginationJoinsOtherComponent: on a network of two components, X1–Y1
// and X2–Y2, Y2 originates 10.9.0.0/16 and a blackhole-free intent guards
// it. Y1 then starts originating the same prefix. It was in the universe
// already, but only the other component originated it, so the edit must
// still mark it affected: X1 now holds a route toward it, and Y1, which
// does not own the prefix, blackholes it.
func TestOriginationJoinsOtherComponent(t *testing.T) {
	pfx := netip.MustParsePrefix("10.9.0.0/16")
	nw := topo.New("split")
	nw.AddNode("X1", topo.Backbone, 65001, netip.MustParseAddr("1.0.0.1"))
	nw.AddNode("Y1", topo.Backbone, 65002, netip.MustParseAddr("1.0.0.2"))
	nw.AddNode("X2", topo.Backbone, 65003, netip.MustParseAddr("1.0.0.3"))
	nw.AddNode("Y2", topo.Backbone, 65004, netip.MustParseAddr("1.0.0.4")).Originates = []netip.Prefix{pfx}
	nw.Connect("X1", "Y1")
	nw.Connect("X2", "Y2")
	configs := map[string]*netcfg.Config{
		"X1": netcfg.NewConfig("X1", "bgp 65001\n peer 172.16.0.2 as-number 65002\n"),
		"Y1": netcfg.NewConfig("Y1", "bgp 65002\n peer 172.16.0.1 as-number 65001\n"),
		"X2": netcfg.NewConfig("X2", "bgp 65003\n peer 172.16.0.6 as-number 65004\n"),
		"Y2": netcfg.NewConfig("Y2", "bgp 65004\n peer 172.16.0.5 as-number 65003\n network 10.9.0.0/16\n"),
	}
	iv := verify.NewIncremental(nw, configs, []verify.Intent{verify.BlackholeFreeIntent("bh", pfx)}, bgp.Options{})
	if iv.BaseReport().NumFailed() != 0 {
		t.Fatalf("base fails:\n%s", iv.BaseReport().Summary())
	}
	edits := []netcfg.EditSet{{Device: "Y1", Edits: []netcfg.Edit{netcfg.InsertBefore{At: 3, Text: " network 10.9.0.0/16"}}}}
	rep, stats, err := iv.Check(edits)
	if err != nil {
		t.Fatal(err)
	}
	if rep.NumFailed() != 1 {
		t.Errorf("the check passes Y1's origination (%s):\n%s", stats, rep.Summary())
	}
	if err := oracle.Audit(context.Background(), iv, edits); err != nil {
		t.Error(err)
	}
}
