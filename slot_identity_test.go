package acr_test

import (
	"net/netip"
	"reflect"
	"sort"
	"testing"

	"acr/internal/bgp"
	"acr/internal/netcfg"
	"acr/internal/topo"
	"acr/internal/verify"
)

// An adj-in slot holds the advertisement as imported and takes its next
// hop, peer address and router ID from the session at the slot, so the
// sessions without a policy at either end share one route. These tests hold
// delta re-simulation and Commit to a cold simulation and NewIncremental
// where that identity is all that tells two routes apart: parallel sessions
// to one neighbour, and a router-ID edit that flips a tie-break one hop
// away without changing any advertisement.

// identityTexts renders a configuration per node of net: a bgp block with
// the node's ASN and router ID (rid overrides it), a plain peer stanza per
// adjacency, the node's originations, then whatever bgpExtra and extra add
// inside and after the block, and an interface block per interface.
func identityTexts(net *topo.Network, rid map[string]netip.Addr,
	bgpExtra func(name string, g *netcfg.BGPBuilder), extra func(name string, b *netcfg.Builder)) map[string][]string {
	out := map[string][]string{}
	for _, nd := range net.Nodes() {
		b := netcfg.NewBuilder(nd.Name)
		id := nd.RouterID
		if a, ok := rid[nd.Name]; ok {
			id = a
		}
		g := b.BGP(nd.ASN).RouterID(id)
		for _, adj := range net.Adjacencies(nd.Name) {
			g.Peer(adj.PeerAddr, net.Node(adj.PeerNode).ASN)
		}
		for _, p := range nd.Originates {
			g.Network(p)
		}
		if bgpExtra != nil {
			bgpExtra(nd.Name, g)
		}
		if extra != nil {
			extra(nd.Name, b)
		}
		names := make([]string, 0, len(nd.Ifaces))
		for ifn := range nd.Ifaces {
			names = append(names, ifn)
		}
		sort.Strings(names)
		for _, ifn := range names {
			b.Interface(ifn).Address(nd.Ifaces[ifn]).End()
		}
		out[nd.Name] = b.Build().Lines()
	}
	return out
}

// stepMatchesScratch moves parent to texts both ways the engine can — per
// prefix by DeltaSimulatePrefix on the net parent's derives, and by Commit
// on a clone of parent — and holds each to its cold counterpart: every
// prefix's best and adj-in routes, router IDs included, against
// SimulatePrefix on a compiled net, and the committed verifier against
// NewIncremental on the same texts. It returns the committed verifier.
func stepMatchesScratch(t *testing.T, label string, net *topo.Network, intents []verify.Intent,
	parent *verify.Incremental, texts map[string][]string) *verify.Incremental {
	t.Helper()
	cfgs := configsOf(texts)
	files := map[string]*netcfg.File{}
	var dirty []string
	for _, d := range parent.BaseNet().Order {
		f, err := netcfg.Parse(cfgs[d])
		if err != nil {
			t.Fatalf("%s: %s does not parse: %v", label, d, err)
		}
		files[d] = f
		if !reflect.DeepEqual(parent.BaseConfigs()[d].Lines(), texts[d]) {
			dirty = append(dirty, d)
		}
	}
	dn, same := parent.BaseNet().Derive(files, dirty)
	if !same || len(dirty) == 0 {
		t.Fatalf("%s: the step changes sessions or nothing (dirty %v); it exercises no delta run", label, dirty)
	}
	cn := bgp.Compile(net, files)
	for _, p := range cn.AllPrefixes() {
		delta, ok := bgp.DeltaSimulatePrefix(dn, parent.BaseOutcome().ByPrefix[p], dirty, p, bgp.Options{})
		if !ok {
			t.Fatalf("%s: delta refused %v", label, p)
		}
		cold := bgp.SimulatePrefix(cn, p, bgp.Options{})
		if !cold.Converged {
			t.Fatalf("%s: %v does not converge", label, p)
		}
		for i, name := range cn.Order {
			if g, w := routeID(delta.Final[name]), routeID(cold.Final[name]); g != w {
				t.Errorf("%s: %v at %s: delta %s, cold %s", label, p, name, g, w)
			}
			for j := range cold.AdjIn[i] {
				if g, w := routeID(delta.AdjInAt(dn, i, j)), routeID(cold.AdjInAt(cn, i, j)); g != w {
					t.Errorf("%s: %v at %s, slot %d: delta %s, cold %s", label, p, name, j, g, w)
				}
			}
		}
	}
	child := commitTo(t, label, parent, texts)
	sameVerifier(t, label, child, verify.NewIncremental(net, cfgs, intents, bgp.Options{}))
	return child
}

// TestParallelSessionsMatchScratch: X and Y share two links, so Y holds two
// sessions to one neighbour, with one router ID, whose routes differ only in
// next hop and peer address. Plain, both carry the one advertisement X
// exports and Y prefers the lower peer address. X then attaches to the
// first link an export policy that changes nothing, so that session carries
// a copy of its own, value-identical to the shared one, and Y's choice
// stands; then the policy sets a MED, and Y moves to the second link; then
// the policy goes. Each step must equal scratch.
func TestParallelSessionsMatchScratch(t *testing.T) {
	net := topo.New("parallel")
	o := net.AddNode("O", topo.PoP, 64500, netip.MustParseAddr("1.0.0.1"))
	o.Originates = []netip.Prefix{netip.MustParsePrefix("10.0.0.0/16")}
	x := net.AddNode("X", topo.Backbone, 65001, netip.MustParseAddr("1.0.0.2"))
	x.Originates = []netip.Prefix{netip.MustParsePrefix("10.1.0.0/16")}
	y := net.AddNode("Y", topo.Backbone, 65002, netip.MustParseAddr("1.0.0.3"))
	y.Originates = []netip.Prefix{netip.MustParsePrefix("10.2.0.0/16")}
	net.Connect("O", "X")
	first := net.Connect("X", "Y")
	second := net.Connect("X", "Y")
	intents := []verify.Intent{
		verify.ReachIntent("y-o", y.Originates[0], o.Originates[0]),
		verify.ReachIntent("o-y", o.Originates[0], y.Originates[0]),
		verify.LoopFreeIntent("lf-o", o.Originates[0]),
	}
	policy := func(apply func(*netcfg.PolicyBuilder)) map[string][]string {
		return identityTexts(net, nil, func(name string, g *netcfg.BGPBuilder) {
			if name == "X" {
				g.PeerPolicy(first.AddrB, "toY", netcfg.Export)
			}
		}, func(name string, b *netcfg.Builder) {
			if name == "X" {
				pb := b.RoutePolicy("toY", true, 10)
				apply(pb)
				pb.End()
			}
		})
	}

	plain := identityTexts(net, nil, nil, nil)
	base := verify.NewIncremental(net, configsOf(plain), intents, bgp.Options{})
	p := o.Originates[0]
	po := base.BaseOutcome().ByPrefix[p]
	yi := 2 // Y's position in Order
	if len(po.AdjIn[yi]) != 2 || po.AdjIn[yi][0] == nil || po.AdjIn[yi][0] != po.AdjIn[yi][1] {
		t.Fatalf("Y's two sessions to X do not share X's advertisement: %v", po.AdjIn[yi])
	}
	if nh := po.Final["Y"].NextHop; nh != first.AddrA {
		t.Fatalf("Y forwards %v to %v, want the first link's %v", p, nh, first.AddrA)
	}

	noop := policy(func(*netcfg.PolicyBuilder) {})
	v1 := stepMatchesScratch(t, "no-op export policy", net, intents, base, noop)
	if v1.BaseOutcome().ByPrefix[p] != po {
		t.Errorf("a no-op policy moved %v", p)
	}
	cold := verify.NewIncremental(net, configsOf(noop), intents, bgp.Options{}).BaseOutcome().ByPrefix[p]
	if a, b := cold.AdjIn[yi][0], cold.AdjIn[yi][1]; a == b || !reflect.DeepEqual(*a, *b) {
		t.Errorf("with a no-op policy on the first link Y holds %+v and %+v; want a value-identical copy of its own", a, b)
	}
	v2 := stepMatchesScratch(t, "MED on the first link", net, intents, v1, policy(func(pb *netcfg.PolicyBuilder) { pb.ApplyMED(50) }))
	if nh := v2.BaseOutcome().ByPrefix[p].Final["Y"].NextHop; nh != second.AddrA {
		t.Errorf("with a MED on the first link Y forwards to %v, want the second link's %v", nh, second.AddrA)
	}
	stepMatchesScratch(t, "policy removed", net, intents, v2, plain)
}

// TestRouterIDEditMatchesScratch: on the square O—A—D, O—B—D, D hears O's
// prefix from A and B with equal paths and picks A, whose router ID is
// lower; O picks A for D's prefix the same way. Raising A's router ID above
// B's changes no advertisement, yet both tie-breaks one hop from A must flip
// to B, and the waypoint intent through A must start failing. Lowering it
// again must flip them back.
func TestRouterIDEditMatchesScratch(t *testing.T) {
	net := topo.New("square")
	o := net.AddNode("O", topo.PoP, 64500, netip.MustParseAddr("1.0.0.1"))
	o.Originates = []netip.Prefix{netip.MustParsePrefix("10.0.0.0/16")}
	net.AddNode("A", topo.Backbone, 65001, netip.MustParseAddr("1.0.0.2"))
	net.AddNode("B", topo.Backbone, 65002, netip.MustParseAddr("1.0.0.3"))
	d := net.AddNode("D", topo.Backbone, 65003, netip.MustParseAddr("1.0.0.4"))
	d.Originates = []netip.Prefix{netip.MustParsePrefix("10.9.0.0/16")}
	net.Connect("O", "A")
	net.Connect("O", "B")
	net.Connect("A", "D")
	net.Connect("B", "D")
	intents := []verify.Intent{
		verify.WaypointIntent("d-o-via-a", d.Originates[0], o.Originates[0], "A"),
		verify.ReachIntent("o-d", o.Originates[0], d.Originates[0]),
	}
	peerRIDs := func(iv *verify.Incremental) [2]netip.Addr {
		return [2]netip.Addr{
			iv.BaseOutcome().ByPrefix[o.Originates[0]].Final["D"].PeerRID,
			iv.BaseOutcome().ByPrefix[d.Originates[0]].Final["O"].PeerRID,
		}
	}
	viaA := [2]netip.Addr{net.Node("A").RouterID, net.Node("A").RouterID}
	viaB := [2]netip.Addr{net.Node("B").RouterID, net.Node("B").RouterID}

	base := verify.NewIncremental(net, configsOf(identityTexts(net, nil, nil, nil)), intents, bgp.Options{})
	if got := peerRIDs(base); got != viaA || base.BaseReport().NumFailed() != 0 {
		t.Fatalf("the square's tie-breaks pick %v with %d failing intents; want A and none", got, base.BaseReport().NumFailed())
	}
	raised := stepMatchesScratch(t, "A's router ID raised", net, intents, base,
		identityTexts(net, map[string]netip.Addr{"A": netip.MustParseAddr("9.9.9.9")}, nil, nil))
	if got := peerRIDs(raised); got != viaB {
		t.Errorf("with A's router ID raised the tie-breaks pick %v, want B's %v", got, viaB)
	}
	if v := raised.BaseReport().ByID("d-o-via-a"); v == nil || v.Pass {
		t.Errorf("the waypoint through A still passes with A's router ID raised:\n%s", raised.BaseReport().Summary())
	}
	lowered := stepMatchesScratch(t, "A's router ID lowered", net, intents, raised,
		identityTexts(net, map[string]netip.Addr{"A": netip.MustParseAddr("1.0.0.0")}, nil, nil))
	if got := peerRIDs(lowered); got != [2]netip.Addr{netip.MustParseAddr("1.0.0.0"), netip.MustParseAddr("1.0.0.0")} {
		t.Errorf("with A's router ID lowered the tie-breaks pick %v, want A", got)
	}
}
