package dataplane

import (
	"net/netip"
	"sort"
	"testing"

	"acr/internal/bgp"
	"acr/internal/netcfg"
	"acr/internal/topo"
)

// build compiles and simulates a small network whose configs are produced
// by mk (called once per node with an open bgp block).
func build(t *testing.T, net *topo.Network, mk func(name string, b *netcfg.Builder, g *netcfg.BGPBuilder)) (*bgp.Net, *bgp.Outcome) {
	t.Helper()
	files := map[string]*netcfg.File{}
	for _, nd := range net.Nodes() {
		b := netcfg.NewBuilder(nd.Name)
		g := b.BGP(nd.ASN).RouterID(nd.RouterID)
		for _, adj := range net.Adjacencies(nd.Name) {
			g.Peer(adj.PeerAddr, net.Node(adj.PeerNode).ASN)
		}
		for _, p := range nd.Originates {
			g.Network(p)
		}
		if mk != nil {
			mk(nd.Name, b, g)
		}
		names := make([]string, 0, len(nd.Ifaces))
		for ifn := range nd.Ifaces {
			names = append(names, ifn)
		}
		sort.Strings(names)
		for _, ifn := range names {
			b.Interface(ifn).Address(nd.Ifaces[ifn]).End()
		}
		f, err := netcfg.Parse(b.Build())
		if err != nil {
			t.Fatalf("config %s: %v", nd.Name, err)
		}
		files[nd.Name] = f
	}
	n := bgp.Compile(net, files)
	return n, bgp.Simulate(n, bgp.Options{})
}

func lineNet() *topo.Network {
	n := topo.New("line")
	src := n.AddNode("SRC", topo.PoP, 64500, netip.MustParseAddr("1.0.0.1"))
	src.Originates = []netip.Prefix{netip.MustParsePrefix("10.1.0.0/16")}
	n.AddNode("M", topo.Backbone, 65001, netip.MustParseAddr("1.0.0.2"))
	dst := n.AddNode("DST", topo.PoP, 64501, netip.MustParseAddr("1.0.0.3"))
	dst.Originates = []netip.Prefix{netip.MustParsePrefix("10.2.0.0/16")}
	n.Connect("SRC", "M")
	n.Connect("M", "DST")
	return n
}

func phaseFor(t *testing.T, out *bgp.Outcome, p string) (map[string]*bgp.Route, netip.Prefix) {
	t.Helper()
	pre := netip.MustParsePrefix(p)
	po := out.ByPrefix[pre]
	if po == nil {
		return nil, pre
	}
	return po.Phases()[0], pre
}

func TestTraceDelivered(t *testing.T) {
	net := lineNet()
	n, out := build(t, net, nil)
	routes, pre := phaseFor(t, out, "10.2.0.0/16")
	pkt := SamplePacket(netip.MustParsePrefix("10.1.0.0/16"), netip.MustParsePrefix("10.2.0.0/16"))
	res := Trace(n, routes, pre, pkt, "SRC")
	if res.Outcome != Delivered {
		t.Fatalf("outcome = %s (%s), want delivered; path %s", res.Outcome, res.Reason(), res.PathString())
	}
	if res.PathString() != "SRC -> M -> DST" {
		t.Errorf("path = %s", res.PathString())
	}
}

func TestTraceBlackholeNoRoute(t *testing.T) {
	net := lineNet()
	n, out := build(t, net, nil)
	routes, pre := phaseFor(t, out, "10.2.0.0/16")
	pkt := SamplePacket(netip.MustParsePrefix("10.1.0.0/16"), netip.MustParsePrefix("99.0.0.0/16"))
	// Destination outside every originated prefix: no route anywhere.
	res := Trace(n, routes, netip.Prefix{}, pkt, "SRC")
	if res.Outcome != Blackholed {
		t.Fatalf("outcome = %s, want blackholed", res.Outcome)
	}
	_ = pre
}

func TestTraceStaticNull0(t *testing.T) {
	net := lineNet()
	n, out := build(t, net, func(name string, b *netcfg.Builder, g *netcfg.BGPBuilder) {
		if name == "M" {
			g.End().StaticNull(netip.MustParsePrefix("10.2.0.0/16"))
		}
	})
	routes, pre := phaseFor(t, out, "10.2.0.0/16")
	pkt := SamplePacket(netip.MustParsePrefix("10.1.0.0/16"), netip.MustParsePrefix("10.2.0.0/16"))
	res := Trace(n, routes, pre, pkt, "SRC")
	// The /16 static ties the /16 BGP route and statics win.
	if res.Outcome != Blackholed {
		t.Fatalf("outcome = %s, want blackholed by static null0; path %s", res.Outcome, res.PathString())
	}
	if len(res.Lines) == 0 || res.Lines[len(res.Lines)-1].Device != "M" {
		t.Errorf("static line not recorded: %v", res.Lines)
	}
}

func TestTraceStaticLongerPrefixWins(t *testing.T) {
	// A /24 static inside the /16 BGP prefix diverts those packets only.
	net := lineNet()
	n, out := build(t, net, func(name string, b *netcfg.Builder, g *netcfg.BGPBuilder) {
		if name == "M" {
			g.End().StaticNull(netip.MustParsePrefix("10.2.5.0/24"))
		}
	})
	routes, pre := phaseFor(t, out, "10.2.0.0/16")
	in := Packet{Src: netip.MustParseAddr("10.1.0.1"), Dst: netip.MustParseAddr("10.2.5.9"), Proto: "tcp", DstPort: 80}
	outPkt := Packet{Src: netip.MustParseAddr("10.1.0.1"), Dst: netip.MustParseAddr("10.2.9.9"), Proto: "tcp", DstPort: 80}
	if res := Trace(n, routes, pre, in, "SRC"); res.Outcome != Blackholed {
		t.Errorf("/24 packet: outcome = %s, want blackholed", res.Outcome)
	}
	if res := Trace(n, routes, pre, outPkt, "SRC"); res.Outcome != Delivered {
		t.Errorf("/16 packet: outcome = %s (%s), want delivered", res.Outcome, res.Reason())
	}
}

func TestTracePBRRedirectAndDrop(t *testing.T) {
	// Square: SRC—M—DST plus waypoint W hanging off M. PBR on M's ingress
	// from SRC redirects port-443 traffic to W; W sends it back (it has a
	// BGP route via M). Port-22 traffic is dropped.
	net := topo.New("pbr")
	src := net.AddNode("SRC", topo.PoP, 64500, netip.MustParseAddr("1.0.0.1"))
	src.Originates = []netip.Prefix{netip.MustParsePrefix("10.1.0.0/16")}
	net.AddNode("M", topo.Backbone, 65001, netip.MustParseAddr("1.0.0.2"))
	dst := net.AddNode("DST", topo.PoP, 64501, netip.MustParseAddr("1.0.0.3"))
	dst.Originates = []netip.Prefix{netip.MustParsePrefix("10.2.0.0/16")}
	net.AddNode("W", topo.Backbone, 65002, netip.MustParseAddr("1.0.0.4"))
	net.Connect("SRC", "M")
	net.Connect("M", "DST")
	net.Connect("M", "W")

	var wAddr netip.Addr
	for _, adj := range net.Adjacencies("M") {
		if adj.PeerNode == "W" {
			wAddr = adj.PeerAddr
		}
	}
	n, out := build(t, net, func(name string, b *netcfg.Builder, g *netcfg.BGPBuilder) {
		if name != "M" {
			return
		}
		b2 := g.End()
		b2.PBRPolicy("Steer").
			Rule(10, true).
			MatchDstPort(443).
			ApplyNextHop(wAddr).
			Rule(20, true).
			MatchDstPort(22).
			ApplyDrop().
			End()
		// Bind on M's ingress from SRC (eth0: first connection).
		b2.Interface("eth0").Address(net.Node("M").Ifaces["eth0"]).PBR("Steer").End()
	})
	routes, pre := phaseFor(t, out, "10.2.0.0/16")

	norm := Packet{Src: netip.MustParseAddr("10.1.0.1"), Dst: netip.MustParseAddr("10.2.0.1"), Proto: "tcp", DstPort: 80}
	res := Trace(n, routes, pre, norm, "SRC")
	if res.Outcome != Delivered || res.Visits("W") {
		t.Errorf("port 80: %s via %s, want direct delivery", res.Outcome, res.PathString())
	}

	way := Packet{Src: netip.MustParseAddr("10.1.0.1"), Dst: netip.MustParseAddr("10.2.0.1"), Proto: "tcp", DstPort: 443}
	res = Trace(n, routes, pre, way, "SRC")
	if res.Outcome != Delivered {
		t.Fatalf("port 443: outcome = %s (%s), path %s", res.Outcome, res.Reason(), res.PathString())
	}
	if !res.Visits("W") {
		t.Errorf("port 443 skipped waypoint: %s", res.PathString())
	}
	if len(res.Lines) == 0 {
		t.Error("PBR lines not recorded")
	}

	drop := Packet{Src: netip.MustParseAddr("10.1.0.1"), Dst: netip.MustParseAddr("10.2.0.1"), Proto: "tcp", DstPort: 22}
	res = Trace(n, routes, pre, drop, "SRC")
	if res.Outcome != Dropped {
		t.Errorf("port 22: outcome = %s, want dropped", res.Outcome)
	}
}

func TestTracePBRDenyExempts(t *testing.T) {
	net := lineNet()
	n, out := build(t, net, func(name string, b *netcfg.Builder, g *netcfg.BGPBuilder) {
		if name != "M" {
			return
		}
		b2 := g.End()
		b2.PBRPolicy("Steer").
			Rule(5, false). // deny exempts everything
			Rule(10, true).
			ApplyDrop().
			End()
		b2.Interface("eth0").Address(net.Node("M").Ifaces["eth0"]).PBR("Steer").End()
	})
	routes, pre := phaseFor(t, out, "10.2.0.0/16")
	pkt := SamplePacket(netip.MustParsePrefix("10.1.0.0/16"), netip.MustParsePrefix("10.2.0.0/16"))
	res := Trace(n, routes, pre, pkt, "SRC")
	if res.Outcome != Delivered {
		t.Errorf("deny rule should exempt: got %s", res.Outcome)
	}
}

func TestTraceForwardingLoop(t *testing.T) {
	// Two routers with statics pointing at each other.
	net := topo.New("looper")
	src := net.AddNode("SRC", topo.PoP, 64500, netip.MustParseAddr("1.0.0.1"))
	src.Originates = []netip.Prefix{netip.MustParsePrefix("10.1.0.0/16")}
	net.AddNode("X", topo.Backbone, 65001, netip.MustParseAddr("1.0.0.2"))
	net.AddNode("Y", topo.Backbone, 65002, netip.MustParseAddr("1.0.0.3"))
	net.Connect("SRC", "X")
	net.Connect("X", "Y")
	var xAddrOnY, yAddrOnX netip.Addr
	for _, adj := range net.Adjacencies("X") {
		if adj.PeerNode == "Y" {
			yAddrOnX = adj.PeerAddr
		}
	}
	for _, adj := range net.Adjacencies("Y") {
		if adj.PeerNode == "X" {
			xAddrOnY = adj.PeerAddr
		}
	}
	n, out := build(t, net, func(name string, b *netcfg.Builder, g *netcfg.BGPBuilder) {
		switch name {
		case "X":
			g.End().StaticRoute(netip.MustParsePrefix("10.9.0.0/16"), yAddrOnX)
		case "Y":
			g.End().StaticRoute(netip.MustParsePrefix("10.9.0.0/16"), xAddrOnY)
		}
	})
	_ = out
	pkt := Packet{Src: netip.MustParseAddr("10.1.0.1"), Dst: netip.MustParseAddr("10.9.0.1"), Proto: "tcp", DstPort: 80}
	res := Trace(n, nil, netip.Prefix{}, pkt, "X")
	if res.Outcome != Looped {
		t.Fatalf("outcome = %s (%s), want looped; path %s", res.Outcome, res.Reason(), res.PathString())
	}
	// Forwarding state is (router, ingress), so the loop closes when Y is
	// revisited with the same ingress interface.
	if got := res.PathString(); got != "X -> Y -> X -> Y" {
		t.Errorf("loop path = %s", got)
	}
}

func TestTraceBadNextHopBlackholes(t *testing.T) {
	net := lineNet()
	n, _ := build(t, net, func(name string, b *netcfg.Builder, g *netcfg.BGPBuilder) {
		if name == "M" {
			g.End().StaticRoute(netip.MustParsePrefix("10.9.0.0/16"), netip.MustParseAddr("9.9.9.9"))
		}
	})
	pkt := Packet{Src: netip.MustParseAddr("10.1.0.1"), Dst: netip.MustParseAddr("10.9.0.1"), Proto: "tcp", DstPort: 80}
	res := Trace(n, nil, netip.Prefix{}, pkt, "SRC")
	if res.Outcome != Blackholed {
		t.Fatalf("outcome = %s, want blackholed on unresolvable next hop", res.Outcome)
	}
}

func TestSamplePacketDeterministic(t *testing.T) {
	a := SamplePacket(netip.MustParsePrefix("10.1.0.0/16"), netip.MustParsePrefix("10.2.0.0/16"))
	b := SamplePacket(netip.MustParsePrefix("10.1.0.0/16"), netip.MustParsePrefix("10.2.0.0/16"))
	if a != b {
		t.Error("SamplePacket not deterministic")
	}
	if !netip.MustParsePrefix("10.1.0.0/16").Contains(a.Src) {
		t.Errorf("sample src %v outside prefix", a.Src)
	}
	if !netip.MustParsePrefix("10.2.0.0/16").Contains(a.Dst) {
		t.Errorf("sample dst %v outside prefix", a.Dst)
	}
}

func TestInjectionPoint(t *testing.T) {
	net := lineNet()
	if got := InjectionPoint(net, netip.MustParseAddr("10.1.3.4")); got != "SRC" {
		t.Errorf("InjectionPoint = %q, want SRC", got)
	}
	if got := InjectionPoint(net, netip.MustParseAddr("99.0.0.1")); got != "" {
		t.Errorf("InjectionPoint = %q, want empty", got)
	}
}

func TestTraceFlappingPhases(t *testing.T) {
	// The override gadget from the bgp tests: tracing in the loop phase
	// must report a loop, in the other phase delivery.
	net := topo.New("gadget")
	net.AddNode("A", topo.Backbone, 65001, netip.MustParseAddr("1.0.0.1"))
	net.AddNode("B", topo.Backbone, 65002, netip.MustParseAddr("1.0.0.2"))
	net.AddNode("C", topo.Backbone, 65003, netip.MustParseAddr("1.0.0.3"))
	net.AddNode("S", topo.Backbone, 65004, netip.MustParseAddr("1.0.0.4"))
	pb := net.AddNode("PB", topo.PoP, 64602, netip.MustParseAddr("1.0.0.6"))
	pb.Originates = []netip.Prefix{netip.MustParsePrefix("10.0.0.0/16")}
	ds := net.AddNode("DS", topo.DCN, 64701, netip.MustParseAddr("1.0.0.7"))
	ds.Originates = []netip.Prefix{netip.MustParsePrefix("20.0.0.0/16")}
	net.Connect("A", "B")
	net.Connect("B", "C")
	net.Connect("A", "S")
	net.Connect("C", "S")
	net.Connect("PB", "B")
	net.Connect("DS", "S")
	n, out := build(t, net, func(name string, b *netcfg.Builder, g *netcfg.BGPBuilder) {
		if name != "A" && name != "C" {
			return
		}
		var sAddr netip.Addr
		for _, adj := range net.Adjacencies(name) {
			if adj.PeerNode == "S" {
				sAddr = adj.PeerAddr
			}
		}
		g.PeerPolicy(sAddr, "Override_All", netcfg.Import)
		g.End().
			RoutePolicy("Override_All", true, 10).
			MatchIPPrefix("default_all").
			ApplyASPathOverwrite(net.Node(name).ASN).
			End().
			PrefixListEntry("default_all", 10, true, netip.MustParsePrefix("0.0.0.0/0"), 0, 32)
	})
	pre := netip.MustParsePrefix("10.0.0.0/16")
	po := out.ByPrefix[pre]
	if po.Converged {
		t.Fatal("gadget should flap")
	}
	// Pre-repair, every cycle phase loops: one phase has the A–S loop, the
	// other the C–S loop (the paper's §2.2 mechanics).
	pkt := SamplePacket(netip.MustParsePrefix("20.0.0.0/16"), pre)
	var loops int
	var loopRouters []string
	for _, phase := range po.Phases() {
		res := Trace(n, phase, pre, pkt, "DS")
		if res.Outcome != Looped {
			t.Errorf("phase outcome = %s (%s), want looped; path %s", res.Outcome, res.Reason(), res.PathString())
			continue
		}
		loops++
		loopRouters = append(loopRouters, res.Path[len(res.Path)-1])
	}
	if loops != len(po.Phases()) {
		t.Fatalf("only %d of %d phases looped", loops, len(po.Phases()))
	}
	// The two phases must close their loops at different routers (A vs C).
	if len(loopRouters) == 2 && loopRouters[0] == loopRouters[1] {
		t.Errorf("both phases loop at %s; want distinct loop sites", loopRouters[0])
	}
}
