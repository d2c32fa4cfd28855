package scenario

import (
	"net/netip"
	"strings"
	"testing"

	"acr/internal/analysis"
	"acr/internal/bgp"
	"acr/internal/netcfg"
	"acr/internal/topo"
	"acr/internal/verify"
)

func verifyScenario(t *testing.T, s *Scenario) (*bgp.Net, *bgp.Outcome, *verify.Report) {
	t.Helper()
	n := bgp.Compile(s.Topo, s.Files())
	out := bgp.Simulate(n, bgp.Options{})
	return n, out, verify.Verify(n, out, s.Intents)
}

func TestFigure2LineAnchors(t *testing.T) {
	s := Figure2()
	a := s.Configs["A"]
	cases := []struct {
		line int
		want string
	}{
		{FigureALineBGP, "bgp 65001"},
		{FigureALineDCNImport, "peer-group DCNSide route-policy Override_All import"},
		{FigureALinePoPImport, "peer-group PoPSide route-policy Override_All import"},
		{FigureALinePrefixList, "ip prefix-list default_all index 10 permit 0.0.0.0/0 le 32"},
		{FigureALinePolicy, "route-policy Override_All permit node 10"},
		{FigureALineOverwrite, "apply as-path overwrite 65001"},
	}
	for _, tc := range cases {
		got := strings.TrimSpace(a.Line(tc.line))
		if got != tc.want {
			t.Errorf("A line %d = %q, want %q", tc.line, got, tc.want)
		}
	}
	c := s.Configs["C"]
	if got := strings.TrimSpace(c.Line(FigureCLineDCNImport)); got != "peer-group DCNSide route-policy Override_All import" {
		t.Errorf("C line %d = %q", FigureCLineDCNImport, got)
	}
	if got := strings.TrimSpace(c.Line(FigureCLinePrefixList)); !strings.HasPrefix(got, "ip prefix-list default_all index 10 permit 0.0.0.0/0") {
		t.Errorf("C line %d = %q", FigureCLinePrefixList, got)
	}
	// Line 16 is the explicit pass-through node closing the policy span
	// 13-16, matching the paper's "lines 13-16".
	if got := strings.TrimSpace(a.Line(16)); got != "route-policy Override_All permit node 20" {
		t.Errorf("A line 16 = %q", got)
	}
}

func TestFigure2ConfigsParseClean(t *testing.T) {
	s := Figure2()
	for d, c := range s.Configs {
		f, err := netcfg.Parse(c)
		if err != nil {
			t.Fatalf("%s: %v", d, err)
		}
		probs := analysis.Validate(f)
		// Static analysis correctly flags the seeded shadowed prefix-list
		// entry on A and C; every other device must be clean.
		wantFaulty := d == "A" || d == "C"
		if wantFaulty && len(probs) == 0 {
			t.Errorf("%s: expected the shadowed prefix-list finding, got none", d)
		}
		if !wantFaulty && len(probs) != 0 {
			t.Errorf("%s: validate: %v", d, probs)
		}
	}
}

func TestFigure2IncidentBehavior(t *testing.T) {
	s := Figure2()
	_, out, rep := verifyScenario(t, s)

	po := out.ByPrefix[PrefixPoPB]
	if po == nil || po.Converged {
		t.Fatalf("10.0.0.0/16 should flap; outcome: %+v", po)
	}
	// The other two prefixes are stable.
	for _, p := range []netip.Prefix{PrefixPoPA, PrefixDCNS} {
		if !out.ByPrefix[p].Converged {
			t.Errorf("%s should converge", p)
		}
	}
	if got := rep.NumFailed(); got != 1 {
		t.Fatalf("failed intents = %d, want exactly 1 (the paper's single failed case)\n%s", got, rep.Summary())
	}
	v := rep.ByID("reach-pop-b")
	if v == nil || v.Pass {
		t.Fatalf("reach-pop-b should be the failing intent\n%s", rep.Summary())
	}
	if !v.Flapping {
		t.Error("failing verdict should be marked flapping")
	}
}

func TestFigure2CorrectAllPass(t *testing.T) {
	s := Figure2Correct()
	_, out, rep := verifyScenario(t, s)
	if !out.Converged() {
		t.Fatalf("repaired network must converge: %v", out.FlappingPrefixes())
	}
	if rep.NumFailed() != 0 {
		t.Fatalf("repaired network must pass all intents:\n%s", rep.Summary())
	}
}

func TestFigure2PaperRepairFixes(t *testing.T) {
	s := Figure2()
	configs := map[string]*netcfg.Config{}
	for d, c := range s.Configs {
		configs[d] = c
	}
	for _, es := range Figure2PaperRepair() {
		next, err := es.Apply(configs[es.Device])
		if err != nil {
			t.Fatal(err)
		}
		configs[es.Device] = next
	}
	files := map[string]*netcfg.File{}
	for d, c := range configs {
		files[d] = netcfg.MustParse(c)
	}
	n := bgp.Compile(s.Topo, files)
	out := bgp.Simulate(n, bgp.Options{})
	rep := verify.Verify(n, out, s.Intents)
	if !out.Converged() || rep.NumFailed() != 0 {
		t.Fatalf("paper repair does not fix the network:\n%s\n%s", out.Describe(), rep.Summary())
	}
}

func TestFigure2PartialRepairLeavesCSProblem(t *testing.T) {
	// Repair only A (the provenance baselines' mistake, §2.3): the flap
	// persists through C and S, and some phase exhibits the C–S loop.
	s := Figure2()
	es := Figure2PaperRepair()[0] // A only
	next, err := es.Apply(s.Configs["A"])
	if err != nil {
		t.Fatal(err)
	}
	s.Configs["A"] = next
	_, out, rep := verifyScenario(t, s)
	po := out.ByPrefix[PrefixPoPB]
	if po.Converged {
		t.Fatal("partial repair should not stabilize 10.0.0.0/16")
	}
	if got := rep.NumFailed(); got != 1 {
		t.Fatalf("failed intents after partial repair = %d, want 1 (unchanged)\n%s", got, rep.Summary())
	}
	flapping := po.FlappingRouters()
	hasC, hasS := false, false
	for _, r := range flapping {
		if r == "C" {
			hasC = true
		}
		if r == "S" {
			hasS = true
		}
	}
	if !hasC || !hasS {
		t.Errorf("flapping routers = %v, want C and S involved", flapping)
	}
	// The C–S forwarding loop phase from the paper.
	foundLoop := false
	for _, ph := range po.Phases() {
		c, sr := ph["C"], ph["S"]
		if c == nil || sr == nil {
			continue
		}
		if c.PeerAddr == adjacencyAddr(s.Topo, "C", "S") && sr.PeerAddr == adjacencyAddr(s.Topo, "S", "C") {
			foundLoop = true
		}
	}
	if !foundLoop {
		t.Error("no phase exhibits the C–S forwarding loop the paper describes")
	}
}

func TestFigure2GroundTruthLines(t *testing.T) {
	s := Figure2()
	for _, ref := range s.FaultyLines {
		text := s.Configs[ref.Device].Line(ref.Line)
		if !strings.Contains(text, "0.0.0.0/0") {
			t.Errorf("ground-truth line %v = %q, want the overbroad prefix-list entry", ref, text)
		}
	}
	_ = s.lineText(s.FaultyLines[0]) // exercise the debug helper
}

func TestDCNScenarioCorrect(t *testing.T) {
	s := DCN(4, GenOptions{StaticOriginEvery: 2, WithScrubber: true, WithGlobalIntents: true})
	if len(s.Intents) == 0 {
		t.Fatal("no intents generated")
	}
	_, out, rep := verifyScenario(t, s)
	if !out.Converged() {
		t.Fatalf("correct DCN must converge: %v", out.FlappingPrefixes())
	}
	if rep.NumFailed() != 0 {
		t.Fatalf("correct DCN must pass:\n%s", rep.Summary())
	}
	var hasWaypoint bool
	for _, in := range s.Intents {
		if in.Kind == verify.Waypoint {
			hasWaypoint = true
		}
	}
	if !hasWaypoint {
		t.Error("scrubber scenario generated no waypoint intents")
	}
}

func TestDCNWaypointActuallyTraverses(t *testing.T) {
	s := DCN(4, GenOptions{WithScrubber: true})
	_, _, rep := verifyScenario(t, s)
	for _, v := range rep.Verdicts {
		if v.Intent.Kind != verify.Waypoint {
			continue
		}
		if !v.Pass {
			t.Fatalf("waypoint intent failed: %s (%s)", v.Intent, v.Reason())
		}
		for _, tr := range v.Traces {
			if !tr.Visits("scrubber") {
				t.Errorf("trace %s does not visit scrubber", tr.PathString())
			}
		}
	}
}

func TestWANScenarioCorrect(t *testing.T) {
	s := WAN(6, 3, 2, GenOptions{StaticOriginEvery: 3, WithGlobalIntents: true})
	_, out, rep := verifyScenario(t, s)
	if !out.Converged() {
		t.Fatalf("correct WAN must converge: %v", out.FlappingPrefixes())
	}
	if rep.NumFailed() != 0 {
		t.Fatalf("correct WAN must pass:\n%s", rep.Summary())
	}
	var isolations int
	for _, in := range s.Intents {
		if in.Kind == verify.Isolation {
			isolations++
		}
	}
	if isolations == 0 {
		t.Error("WAN generated no isolation intents")
	}
}

func TestWANIsolationEnforced(t *testing.T) {
	// Remove the NoLeak attachment on one backbone router: its PoP must
	// now reach DCN prefixes — isolation intents fail.
	s := WAN(6, 3, 2, GenOptions{})
	var victim string
	var attachLine int
	for d, c := range s.Configs {
		f := netcfg.MustParse(c)
		if g := f.GroupByName(WANGroupPoPFacing); g != nil && len(g.Policies) > 0 {
			victim = d
			attachLine = g.Policies[0].Line
			break
		}
	}
	if victim == "" {
		t.Fatal("no backbone router with PoPFacing policy found")
	}
	next, err := netcfg.EditSet{Edits: []netcfg.Edit{netcfg.DeleteLine{At: attachLine}}}.Apply(s.Configs[victim])
	if err != nil {
		t.Fatal(err)
	}
	s.Configs[victim] = next
	_, _, rep := verifyScenario(t, s)
	if rep.NumFailed() == 0 {
		t.Fatalf("deleting NoLeak attachment on %s should break isolation\n%s", victim, rep.Summary())
	}
	for _, v := range rep.Failed() {
		if v.Intent.Kind != verify.Isolation {
			t.Errorf("unexpected non-isolation failure: %s (%s)", v.Intent, v.Reason())
		}
	}
}

func TestScenarioClone(t *testing.T) {
	s := Figure2()
	c := s.Clone()
	c.Configs["A"] = netcfg.NewConfig("A", "bgp 1\n")
	c.Intents = c.Intents[:1]
	if s.Configs["A"].NumLines() < 10 || len(s.Intents) != 3 {
		t.Error("Clone shares state with original")
	}
	if s.TotalConfigLines() == 0 {
		t.Error("TotalConfigLines = 0")
	}
}

func TestStubStaticOrigination(t *testing.T) {
	s := WAN(4, 2, 2, GenOptions{StaticOriginEvery: 1}) // every stub static
	for _, nd := range s.Topo.Nodes() {
		if nd.Kind != topo.PoP && nd.Kind != topo.DCN {
			continue
		}
		f := netcfg.MustParse(s.Configs[nd.Name])
		if f.BGP.Redistribute == nil {
			t.Errorf("%s: static origination missing redistribute", nd.Name)
		}
		if len(f.Statics) != len(nd.Originates) {
			t.Errorf("%s: %d statics for %d prefixes", nd.Name, len(f.Statics), len(nd.Originates))
		}
	}
	_, out, rep := verifyScenario(t, s)
	if !out.Converged() || rep.NumFailed() != 0 {
		t.Fatalf("static-origin WAN broken:\n%s", rep.Summary())
	}
}

// TestHostRouteIntentsPass: a network that delivers a /32 ending in an even
// octet passes its reachability, loop-free and blackhole-free intents. Each
// samples the /32's own address; sampling the address above it traces a
// packet no route covers.
func TestHostRouteIntentsPass(t *testing.T) {
	host := netip.MustParsePrefix("30.0.0.2/32")
	tn := topo.New("host-route")
	tn.AddNode("R", topo.Backbone, 65001, netip.MustParseAddr("1.0.0.1"))
	tn.AddNode("S", topo.PoP, 64601, netip.MustParseAddr("1.0.0.2")).Originates = []netip.Prefix{netip.MustParsePrefix("20.0.0.0/24")}
	tn.AddNode("H", topo.PoP, 64602, netip.MustParseAddr("1.0.0.3")).Originates = []netip.Prefix{host}
	tn.Connect("S", "R")
	tn.Connect("R", "H")
	s := &Scenario{Name: "host-route", Topo: tn, Configs: map[string]*netcfg.Config{}, Intents: []verify.Intent{
		verify.ReachIntent("reach-host", netip.MustParsePrefix("20.0.0.0/24"), host),
		{ID: "loop-free-host", Kind: verify.LoopFree, DstPrefix: host},
		{ID: "blackhole-free-host", Kind: verify.BlackholeFree, DstPrefix: host},
	}}
	for _, nd := range tn.Nodes() {
		s.Configs[nd.Name] = stubConfig(tn, nd.Name, false)
	}
	_, _, rep := verifyScenario(t, s)
	if rep.NumFailed() != 0 {
		t.Errorf("the /32 network fails intents:\n%s", rep.Summary())
	}
}
