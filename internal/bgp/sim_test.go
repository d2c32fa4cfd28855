package bgp

import (
	"net/netip"
	"slices"
	"sort"
	"testing"

	"acr/internal/netcfg"
	"acr/internal/topo"
)

// testNetBuilder assembles configurations for a topo network in tests.
type testNetBuilder struct {
	net      *topo.Network
	builders map[string]*netcfg.Builder
	bgps     map[string]*netcfg.BGPBuilder
}

// newTestNet creates standard configs for every node: a bgp block with the
// node's ASN and router-id, a plain peer stanza per adjacency, and network
// statements for originated prefixes. Tests then customize via bgp()/raw().
func newTestNet(net *topo.Network) *testNetBuilder {
	tb := &testNetBuilder{net: net, builders: map[string]*netcfg.Builder{}, bgps: map[string]*netcfg.BGPBuilder{}}
	for _, nd := range net.Nodes() {
		b := netcfg.NewBuilder(nd.Name)
		g := b.BGP(nd.ASN).RouterID(nd.RouterID)
		for _, adj := range net.Adjacencies(nd.Name) {
			g.Peer(adj.PeerAddr, net.Node(adj.PeerNode).ASN)
		}
		for _, p := range nd.Originates {
			g.Network(p)
		}
		tb.builders[nd.Name] = b
		tb.bgps[nd.Name] = g
	}
	return tb
}

// bgp exposes the node's open bgp block for customization.
func (tb *testNetBuilder) bgp(name string) *netcfg.BGPBuilder { return tb.bgps[name] }

// builder exposes the node's top-level builder (the bgp block stays open
// until compile; top-level statements added here land after it).
func (tb *testNetBuilder) builder(name string) *netcfg.Builder { return tb.builders[name] }

// peerAddr returns the interface address of `peer` on its link to `name`.
func (tb *testNetBuilder) peerAddr(name, peer string) netip.Addr {
	for _, adj := range tb.net.Adjacencies(name) {
		if adj.PeerNode == peer {
			return adj.PeerAddr
		}
	}
	panic("no adjacency " + name + "-" + peer)
}

// compile finishes interface blocks and compiles the network.
func (tb *testNetBuilder) compile(t *testing.T) *Net {
	t.Helper()
	files := map[string]*netcfg.File{}
	for _, nd := range tb.net.Nodes() {
		b := tb.builders[nd.Name]
		names := make([]string, 0, len(nd.Ifaces))
		for ifn := range nd.Ifaces {
			names = append(names, ifn)
		}
		sort.Strings(names)
		for _, ifn := range names {
			b.Interface(ifn).Address(nd.Ifaces[ifn]).End()
		}
		cfg := b.Build()
		f, err := netcfg.Parse(cfg)
		if err != nil {
			t.Fatalf("config for %s does not parse: %v\n%s", nd.Name, err, cfg.Text())
		}
		files[nd.Name] = f
	}
	return Compile(tb.net, files)
}

// chainNet builds O(origin of 10.0.0.0/16) — X — Y.
func chainNet() *topo.Network {
	n := topo.New("chain")
	o := n.AddNode("O", topo.PoP, 64500, netip.MustParseAddr("1.0.0.1"))
	o.Originates = []netip.Prefix{netip.MustParsePrefix("10.0.0.0/16")}
	n.AddNode("X", topo.Backbone, 65001, netip.MustParseAddr("1.0.0.2"))
	n.AddNode("Y", topo.Backbone, 65002, netip.MustParseAddr("1.0.0.3"))
	n.Connect("O", "X")
	n.Connect("X", "Y")
	return n
}

func TestChainPropagation(t *testing.T) {
	net := chainNet()
	bn := newTestNet(net).compile(t)
	out := Simulate(bn, Options{})
	p := netip.MustParsePrefix("10.0.0.0/16")
	po := out.ByPrefix[p]
	if po == nil || !po.Converged {
		t.Fatalf("prefix did not converge: %+v", po)
	}
	rO, rX, rY := po.Final["O"], po.Final["X"], po.Final["Y"]
	if rO == nil || rO.Src != SrcLocal {
		t.Fatalf("O best = %+v, want local origination", rO)
	}
	if rX == nil || !slices.Equal(rX.ASPath, []uint32{64500}) {
		t.Fatalf("X best = %+v, want path [64500]", rX)
	}
	if rY == nil || !slices.Equal(rY.ASPath, []uint32{65001, 64500}) {
		t.Fatalf("Y best = %+v, want path [65001 64500]", rY)
	}
	if rY.NextHop != bnAddr(net, "Y", "X") {
		t.Errorf("Y next hop = %v, want X's address", rY.NextHop)
	}
}

func bnAddr(net *topo.Network, from, to string) netip.Addr {
	for _, adj := range net.Adjacencies(from) {
		if adj.PeerNode == to {
			return adj.PeerAddr
		}
	}
	panic("no adjacency")
}

func TestSessionWrongASNFails(t *testing.T) {
	net := chainNet()
	tb := newTestNet(net)
	// Rebuild X's config with a wrong as-number toward O.
	nd := net.Node("X")
	b := netcfg.NewBuilder("X")
	g := b.BGP(nd.ASN).RouterID(nd.RouterID)
	for _, adj := range net.Adjacencies("X") {
		asn := net.Node(adj.PeerNode).ASN
		if adj.PeerNode == "O" {
			asn = 64999 // wrong
		}
		g.Peer(adj.PeerAddr, asn)
	}
	tb.builders["X"] = b
	tb.bgps["X"] = g
	bn := tb.compile(t)

	if s := bn.SessionBetween("X", "O"); s != nil {
		t.Fatal("session X–O established despite wrong as-number")
	}
	found := false
	for _, fs := range bn.Failed {
		if fs.Router == "X" && fs.PeerName == "O" {
			found = true
			if len(fs.Lines) == 0 {
				t.Error("failed session carries no config lines")
			}
		}
	}
	if !found {
		t.Error("no FailedSession recorded for X–O")
	}
	// And the prefix never reaches Y.
	out := Simulate(bn, Options{})
	po := out.ByPrefix[netip.MustParsePrefix("10.0.0.0/16")]
	if !po.Converged {
		t.Fatal("expected convergence")
	}
	if po.Final["Y"] != nil {
		t.Errorf("Y unexpectedly has route %v", po.Final["Y"])
	}
}

func TestSessionShutdownInterfaceFails(t *testing.T) {
	net := chainNet()
	tb := newTestNet(net)
	// Shut down O's interface: override the standard interface emission by
	// building O's config manually.
	nd := net.Node("O")
	b := netcfg.NewBuilder("O")
	g := b.BGP(nd.ASN).RouterID(nd.RouterID)
	for _, adj := range net.Adjacencies("O") {
		g.Peer(adj.PeerAddr, net.Node(adj.PeerNode).ASN)
	}
	for _, p := range nd.Originates {
		g.Network(p)
	}
	b = g.End()
	for ifn, addr := range nd.Ifaces {
		b.Interface(ifn).Address(addr).Shutdown().End()
	}
	f, err := netcfg.Parse(b.Build())
	if err != nil {
		t.Fatal(err)
	}
	files := map[string]*netcfg.File{"O": f}
	for _, other := range []string{"X", "Y"} {
		onb := tb.builders[other]
		for ifn, addr := range net.Node(other).Ifaces {
			onb.Interface(ifn).Address(addr).End()
		}
		of, err := netcfg.Parse(onb.Build())
		if err != nil {
			t.Fatal(err)
		}
		files[other] = of
	}
	bn := Compile(net, files)
	if bn.SessionBetween("O", "X") != nil {
		t.Error("session up despite shutdown interface")
	}
}

func TestImportPolicyDeny(t *testing.T) {
	net := chainNet()
	tb := newTestNet(net)
	// Y denies 10.0.0.0/16 on import from X.
	tb.bgp("Y").PeerPolicy(tb.peerAddr("Y", "X"), "Block", netcfg.Import)
	tb.builder("Y").
		RoutePolicy("Block", false, 10).
		MatchIPPrefix("bad").
		End().
		PrefixListEntry("bad", 10, true, netip.MustParsePrefix("10.0.0.0/16"), 0, 0)
	bn := tb.compile(t)
	out := Simulate(bn, Options{})
	po := out.ByPrefix[netip.MustParsePrefix("10.0.0.0/16")]
	if !po.Converged {
		t.Fatal("expected convergence")
	}
	if po.Final["Y"] != nil {
		t.Errorf("Y has route %v despite import deny", po.Final["Y"])
	}
	if po.Final["X"] == nil {
		t.Error("X lost its route")
	}
}

func TestExportPolicySuppresses(t *testing.T) {
	net := chainNet()
	tb := newTestNet(net)
	// X refuses to export 10.0.0.0/16 to Y.
	tb.bgp("X").PeerPolicy(tb.peerAddr("X", "Y"), "NoLeak", netcfg.Export)
	tb.builder("X").
		RoutePolicy("NoLeak", false, 10).
		MatchIPPrefix("priv").
		End().
		PrefixListEntry("priv", 10, true, netip.MustParsePrefix("10.0.0.0/16"), 0, 0)
	bn := tb.compile(t)
	out := Simulate(bn, Options{})
	po := out.ByPrefix[netip.MustParsePrefix("10.0.0.0/16")]
	if po.Final["Y"] != nil {
		t.Errorf("Y has route %v despite export suppression", po.Final["Y"])
	}
}

func TestLocalPrefSteersSelection(t *testing.T) {
	// Diamond: O — X — D and O — Y — D; D prefers via Y by local-pref even
	// though router-id would pick X.
	n := topo.New("diamond")
	o := n.AddNode("O", topo.PoP, 64500, netip.MustParseAddr("1.0.0.1"))
	o.Originates = []netip.Prefix{netip.MustParsePrefix("10.0.0.0/16")}
	n.AddNode("X", topo.Backbone, 65001, netip.MustParseAddr("1.0.0.2"))
	n.AddNode("Y", topo.Backbone, 65002, netip.MustParseAddr("1.0.0.3"))
	n.AddNode("D", topo.Backbone, 65003, netip.MustParseAddr("1.0.0.4"))
	n.Connect("O", "X")
	n.Connect("O", "Y")
	n.Connect("X", "D")
	n.Connect("Y", "D")
	tb := newTestNet(n)
	tb.bgp("D").PeerPolicy(tb.peerAddr("D", "Y"), "Prefer", netcfg.Import)
	tb.builder("D").
		RoutePolicy("Prefer", true, 10).
		ApplyLocalPref(200).
		End()
	bn := tb.compile(t)
	out := Simulate(bn, Options{})
	po := out.ByPrefix[netip.MustParsePrefix("10.0.0.0/16")]
	if !po.Converged {
		t.Fatal("diamond did not converge")
	}
	d := po.Final["D"]
	if d == nil || d.PeerAddr != tb.peerAddr("D", "Y") {
		t.Fatalf("D best = %+v, want via Y", d)
	}
	if d.LocalPref != 200 {
		t.Errorf("D local-pref = %d, want 200", d.LocalPref)
	}
}

func TestASPathPrependLengthens(t *testing.T) {
	// Diamond again: X prepends on export to D, so D picks via Y.
	n := topo.New("diamond2")
	o := n.AddNode("O", topo.PoP, 64500, netip.MustParseAddr("1.0.0.1"))
	o.Originates = []netip.Prefix{netip.MustParsePrefix("10.0.0.0/16")}
	n.AddNode("X", topo.Backbone, 65001, netip.MustParseAddr("1.0.0.2"))
	n.AddNode("Y", topo.Backbone, 65002, netip.MustParseAddr("1.0.0.3"))
	n.AddNode("D", topo.Backbone, 65003, netip.MustParseAddr("1.0.0.4"))
	n.Connect("O", "X")
	n.Connect("O", "Y")
	n.Connect("X", "D")
	n.Connect("Y", "D")
	tb := newTestNet(n)
	tb.bgp("X").PeerPolicy(tb.peerAddr("X", "D"), "Depref", netcfg.Export)
	tb.builder("X").
		RoutePolicy("Depref", true, 10).
		ApplyASPathPrepend(65001, 3).
		End()
	bn := tb.compile(t)
	out := Simulate(bn, Options{})
	d := out.ByPrefix[netip.MustParsePrefix("10.0.0.0/16")].Final["D"]
	if d == nil || d.PeerAddr != tb.peerAddr("D", "Y") {
		t.Fatalf("D best = %+v, want via Y after X's prepend", d)
	}
}

func TestLoopPreventionRejectsOwnAS(t *testing.T) {
	// Triangle: all plain. Route must not loop; every router converges with
	// a loop-free path.
	n := topo.New("tri")
	o := n.AddNode("O", topo.PoP, 64500, netip.MustParseAddr("1.0.0.1"))
	o.Originates = []netip.Prefix{netip.MustParsePrefix("10.0.0.0/16")}
	n.AddNode("X", topo.Backbone, 65001, netip.MustParseAddr("1.0.0.2"))
	n.AddNode("Y", topo.Backbone, 65002, netip.MustParseAddr("1.0.0.3"))
	n.Connect("O", "X")
	n.Connect("X", "Y")
	n.Connect("Y", "O")
	bn := newTestNet(n).compile(t)
	out := Simulate(bn, Options{})
	po := out.ByPrefix[netip.MustParsePrefix("10.0.0.0/16")]
	if !po.Converged {
		t.Fatal("triangle did not converge")
	}
	for name, r := range po.Final {
		asn := bn.Routers[name].ASN
		if r.Src == SrcPeer && r.HasAS(asn) {
			t.Errorf("%s selected a route containing its own AS: %v", name, r.ASPath)
		}
	}
}

// overrideGadget builds the minimal version of the Figure 2 incident: a
// square A–B–C–S–A with the origin stub PB behind B, and AS-path override
// on A's and C's imports from S. As analyzed in the paper (§2.2), this
// instance has no stable state: the prefix flaps.
func overrideGadget(t *testing.T) (*Net, *testNetBuilder, *topo.Network) {
	t.Helper()
	n := topo.New("gadget")
	n.AddNode("A", topo.Backbone, 65001, netip.MustParseAddr("1.0.0.1"))
	n.AddNode("B", topo.Backbone, 65002, netip.MustParseAddr("1.0.0.2"))
	n.AddNode("C", topo.Backbone, 65003, netip.MustParseAddr("1.0.0.3"))
	n.AddNode("S", topo.Backbone, 65004, netip.MustParseAddr("1.0.0.4"))
	pb := n.AddNode("PB", topo.PoP, 64602, netip.MustParseAddr("1.0.0.6"))
	pb.Originates = []netip.Prefix{netip.MustParsePrefix("10.0.0.0/16")}
	n.Connect("A", "B")
	n.Connect("B", "C")
	n.Connect("A", "S")
	n.Connect("C", "S")
	n.Connect("PB", "B")

	tb := newTestNet(n)
	for _, router := range []string{"A", "C"} {
		asn := n.Node(router).ASN
		tb.bgp(router).PeerPolicy(tb.peerAddr(router, "S"), "Override_All", netcfg.Import)
		tb.builder(router).
			RoutePolicy("Override_All", true, 10).
			MatchIPPrefix("default_all").
			ApplyASPathOverwrite(asn).
			End().
			PrefixListEntry("default_all", 10, true, netip.MustParsePrefix("0.0.0.0/0"), 0, 32)
	}
	return tb.compile(t), tb, n
}

func TestOverrideGadgetFlaps(t *testing.T) {
	bn, _, _ := overrideGadget(t)
	out := Simulate(bn, Options{})
	p := netip.MustParsePrefix("10.0.0.0/16")
	po := out.ByPrefix[p]
	if po.Converged {
		t.Fatalf("override gadget converged; want route flapping. final: %+v", po.Final)
	}
	if len(po.Cycle) < 2 {
		t.Fatalf("cycle has %d states, want >= 2", len(po.Cycle))
	}
	flapping := po.FlappingRouters()
	if len(flapping) == 0 {
		t.Fatal("no flapping routers identified")
	}
	// The paper's transient C–S forwarding loop: some phase has C's best
	// via S while S's best is via C.
	sAddrOfC := bnAddr(out.Net.Topo, "C", "S")
	cAddrOfS := bnAddr(out.Net.Topo, "S", "C")
	foundLoopPhase := false
	for _, ph := range po.Cycle {
		c, s := ph["C"], ph["S"]
		if c != nil && s != nil && c.PeerAddr == sAddrOfC && s.PeerAddr == cAddrOfS {
			foundLoopPhase = true
		}
	}
	if !foundLoopPhase {
		t.Error("no cycle phase exhibits the C–S forwarding loop")
	}
}

func TestOverrideGadgetRepairConverges(t *testing.T) {
	// The repaired configuration (the paper's fix): restrict the override
	// prefix-lists so 10.0.0.0/16 is no longer rewritten. Here nothing
	// legitimate needs rewriting, so the list matches only a harmless
	// prefix; the gadget must converge loop-free.
	n := topo.New("gadget-fixed")
	n.AddNode("A", topo.Backbone, 65001, netip.MustParseAddr("1.0.0.1"))
	n.AddNode("B", topo.Backbone, 65002, netip.MustParseAddr("1.0.0.2"))
	n.AddNode("C", topo.Backbone, 65003, netip.MustParseAddr("1.0.0.3"))
	n.AddNode("S", topo.Backbone, 65004, netip.MustParseAddr("1.0.0.4"))
	pb := n.AddNode("PB", topo.PoP, 64602, netip.MustParseAddr("1.0.0.6"))
	pb.Originates = []netip.Prefix{netip.MustParsePrefix("10.0.0.0/16")}
	n.Connect("A", "B")
	n.Connect("B", "C")
	n.Connect("A", "S")
	n.Connect("C", "S")
	n.Connect("PB", "B")
	tb := newTestNet(n)
	for _, router := range []string{"A", "C"} {
		asn := n.Node(router).ASN
		tb.bgp(router).PeerPolicy(tb.peerAddr(router, "S"), "Override_All", netcfg.Import)
		tb.builder(router).
			RoutePolicy("Override_All", true, 10).
			MatchIPPrefix("default_all").
			ApplyASPathOverwrite(asn).
			End().
			PrefixListEntry("default_all", 10, true, netip.MustParsePrefix("20.0.0.0/16"), 0, 0)
	}
	bn := tb.compile(t)
	out := Simulate(bn, Options{})
	po := out.ByPrefix[netip.MustParsePrefix("10.0.0.0/16")]
	if !po.Converged {
		t.Fatalf("repaired gadget still flapping after %d passes", po.Passes)
	}
	// S ties between via A and via C (both length 3); A's lower router-id
	// must win deterministically.
	s := po.Final["S"]
	if s == nil || s.PeerAddr != bnAddr(n, "S", "A") {
		t.Errorf("S best = %+v, want via A by router-id tie-break", s)
	}
}

func TestSimulateAllPrefixesIndependent(t *testing.T) {
	// Two prefixes; one flaps (gadget), one converges (plain origin at S).
	n := topo.New("gadget-two")
	n.AddNode("A", topo.Backbone, 65001, netip.MustParseAddr("1.0.0.1"))
	n.AddNode("B", topo.Backbone, 65002, netip.MustParseAddr("1.0.0.2"))
	n.AddNode("C", topo.Backbone, 65003, netip.MustParseAddr("1.0.0.3"))
	s := n.AddNode("S", topo.Backbone, 65004, netip.MustParseAddr("1.0.0.4"))
	s.Originates = []netip.Prefix{netip.MustParsePrefix("20.0.0.0/16")}
	pb := n.AddNode("PB", topo.PoP, 64602, netip.MustParseAddr("1.0.0.6"))
	pb.Originates = []netip.Prefix{netip.MustParsePrefix("10.0.0.0/16")}
	n.Connect("A", "B")
	n.Connect("B", "C")
	n.Connect("A", "S")
	n.Connect("C", "S")
	n.Connect("PB", "B")
	tb := newTestNet(n)
	for _, router := range []string{"A", "C"} {
		asn := n.Node(router).ASN
		tb.bgp(router).PeerPolicy(tb.peerAddr(router, "S"), "Override_All", netcfg.Import)
		tb.builder(router).
			RoutePolicy("Override_All", true, 10).
			MatchIPPrefix("default_all").
			ApplyASPathOverwrite(asn).
			End().
			PrefixListEntry("default_all", 10, true, netip.MustParsePrefix("0.0.0.0/0"), 0, 32)
	}
	bn2 := tb.compile(t)
	out := Simulate(bn2, Options{})
	if out.ByPrefix[netip.MustParsePrefix("10.0.0.0/16")].Converged {
		t.Error("gadget prefix should flap")
	}
	if !out.ByPrefix[netip.MustParsePrefix("20.0.0.0/16")].Converged {
		t.Error("independent prefix should converge")
	}
	if out.Converged() {
		t.Error("Outcome.Converged should be false")
	}
	if got := out.FlappingPrefixes(); len(got) != 1 || got[0] != netip.MustParsePrefix("10.0.0.0/16") {
		t.Errorf("FlappingPrefixes = %v", got)
	}
}

func TestSimulateDeterministic(t *testing.T) {
	for i := 0; i < 3; i++ {
		bn, _, _ := overrideGadget(t)
		out := Simulate(bn, Options{})
		po := out.ByPrefix[netip.MustParsePrefix("10.0.0.0/16")]
		if po.Converged {
			t.Fatal("nondeterministic: converged on some run")
		}
		if len(po.Cycle) != 2 {
			t.Fatalf("run %d: cycle length %d, want 2 (deterministic)", i, len(po.Cycle))
		}
	}
}

func TestRedistributeStatic(t *testing.T) {
	net := chainNet()
	tb := newTestNet(net)
	// X redistributes a static route for 30.0.0.0/16.
	tb.bgp("X").RedistributeStatic("")
	tb.builder("X").StaticRoute(netip.MustParsePrefix("30.0.0.0/16"), tb.peerAddr("X", "O"))
	bn := tb.compile(t)
	out := Simulate(bn, Options{})
	po := out.ByPrefix[netip.MustParsePrefix("30.0.0.0/16")]
	if po == nil || !po.Converged {
		t.Fatal("redistributed prefix missing or flapping")
	}
	x := po.Final["X"]
	if x == nil || x.Src != SrcLocal || x.Origin != OriginIncomplete {
		t.Fatalf("X best = %+v, want local incomplete", x)
	}
	y := po.Final["Y"]
	if y == nil || !slices.Equal(y.ASPath, []uint32{65001}) {
		t.Fatalf("Y best = %+v, want [65001]", y)
	}
}

func TestNoRedistributeNoOrigin(t *testing.T) {
	net := chainNet()
	tb := newTestNet(net)
	// Static exists but redistribution is missing — the paper's most common
	// misconfiguration (20.8% of incidents).
	tb.builder("X").StaticRoute(netip.MustParsePrefix("30.0.0.0/16"), tb.peerAddr("X", "O"))
	bn := tb.compile(t)
	out := Simulate(bn, Options{})
	if out.ByPrefix[netip.MustParsePrefix("30.0.0.0/16")] != nil {
		t.Error("prefix originated despite missing redistribution")
	}
	lines := MissingOriginLines(bn, netip.MustParsePrefix("30.0.0.0/16"))
	if len(lines) == 0 {
		t.Fatal("MissingOriginLines empty; negative provenance lost")
	}
	foundStatic := false
	for _, l := range lines {
		if l.Device == "X" {
			foundStatic = true
		}
	}
	if !foundStatic {
		t.Errorf("negative provenance does not reference X: %v", lines)
	}
}

// TestPrefixListingsOrderAggregateBeforeSpecific pins the (address, bits)
// order of FlappingPrefixes and Describe: an aggregate and a specific that
// share an address used to come out in map order.
func TestPrefixListingsOrderAggregateBeforeSpecific(t *testing.T) {
	want := []netip.Prefix{
		netip.MustParsePrefix("10.0.0.0/8"),
		netip.MustParsePrefix("10.0.0.0/16"),
		netip.MustParsePrefix("10.0.0.0/24"),
		netip.MustParsePrefix("20.0.0.0/16"),
	}
	const wantDesc = "10.0.0.0/8: FLAPPING (cycle of 0 states; unstable routers: )\n" +
		"10.0.0.0/16: FLAPPING (cycle of 0 states; unstable routers: )\n" +
		"10.0.0.0/24: FLAPPING (cycle of 0 states; unstable routers: )\n" +
		"20.0.0.0/16: FLAPPING (cycle of 0 states; unstable routers: )\n"
	for round := 0; round < 32; round++ { // map order varies per map
		out := &Outcome{ByPrefix: map[netip.Prefix]*PrefixOutcome{}}
		for _, p := range want {
			out.ByPrefix[p] = &PrefixOutcome{Prefix: p}
		}
		got := out.FlappingPrefixes()
		if len(got) != len(want) {
			t.Fatalf("FlappingPrefixes = %v, want %v", got, want)
		}
		for i := range want {
			if got[i] != want[i] {
				t.Fatalf("FlappingPrefixes = %v, want %v", got, want)
			}
		}
		if desc := out.Describe(); desc != wantDesc {
			t.Fatalf("Describe =\n%s\nwant\n%s", desc, wantDesc)
		}
	}
}
