package scenario

import (
	"fmt"
	"net/netip"

	"acr/internal/netcfg"
	"acr/internal/topo"
	"acr/internal/verify"
)

// GenOptions parameterizes the correct-scenario generators.
type GenOptions struct {
	// StaticOriginEvery makes every Nth originating stub use the
	// static-route + `redistribute static` origination style instead of a
	// network statement (0 disables). This is the configuration idiom
	// whose missing redistribution line is the paper's most common
	// misconfiguration (Table 1, 20.8%).
	StaticOriginEvery int
	// ReachPerPrefix is the number of reachability intents generated per
	// originated prefix (sources rotate across other stubs). Default 2.
	ReachPerPrefix int
	// WithScrubber (DCN only) attaches a scrubber appliance to spine0-0
	// and steers dst-port-9999 flows from leaf0-0 through it with PBR,
	// plus the waypoint intents asserting that.
	WithScrubber bool
	// WithGlobalIntents adds loop-free intents per prefix.
	WithGlobalIntents bool
	// FullIsolation (WAN only) generates an isolation intent for EVERY
	// PoP×DCN pair instead of two rotating pairs per PoP, so any single
	// leak is visible to the test suite (the incident corpus needs this).
	FullIsolation bool
}

func (o GenOptions) reachPerPrefix() int {
	if o.ReachPerPrefix <= 0 {
		return 2
	}
	return o.ReachPerPrefix
}

// ScrubberPort is the destination port steered through the scrubber.
const ScrubberPort = 9999

// DCN builds a correct k-ary fat-tree scenario.
func DCN(k int, opts GenOptions) *Scenario {
	t := topo.FatTree(topo.FatTreeOpts{K: k})
	var scrubHost string
	if opts.WithScrubber {
		sc := t.AddNode("scrubber", topo.DCN, 62000, netip.MustParseAddr("1.0.200.1"))
		_ = sc
		t.Connect("scrubber", "spine0-0")
		scrubHost = "scrubber"
	}
	s := &Scenario{
		Name:    fmt.Sprintf("dcn-k%d", k),
		Topo:    t,
		Configs: map[string]*netcfg.Config{},
		Notes:   fmt.Sprintf("correct %d-ary fat-tree; eBGP everywhere", k),
	}

	// Leaf origination styles alternate per StaticOriginEvery.
	leafIdx := 0
	for _, nd := range t.Nodes() {
		switch nd.Kind {
		case topo.Leaf:
			static := opts.StaticOriginEvery > 0 && leafIdx%opts.StaticOriginEvery == 0
			s.Configs[nd.Name] = fabricConfig(t, nd.Name, static, opts, scrubHost)
			leafIdx++
		case topo.Spine, topo.Core:
			s.Configs[nd.Name] = fabricConfig(t, nd.Name, false, opts, scrubHost)
		case topo.DCN: // the scrubber
			s.Configs[nd.Name] = stubConfig(t, nd.Name, false)
		}
	}

	s.Intents = genReachIntents(t, opts)
	if opts.WithScrubber {
		src := t.Node("leaf0-0").Originates[0]
		for l := 1; l < k/2; l++ {
			dst := t.Node(fmt.Sprintf("leaf0-%d", l)).Originates[0]
			s.Intents = append(s.Intents, verify.Intent{
				ID:        fmt.Sprintf("waypoint-scrub-%d", l),
				Kind:      verify.Waypoint,
				SrcPrefix: src,
				DstPrefix: dst,
				Via:       "scrubber",
				DstPort:   ScrubberPort,
			})
		}
	}
	if opts.WithGlobalIntents {
		for i, p := range t.AllOriginated() {
			s.Intents = append(s.Intents, verify.LoopFreeIntent(fmt.Sprintf("loopfree-%d", i), p))
		}
	}
	return s
}

// fabricConfig emits a fat-tree node's configuration: plain eBGP to every
// adjacency, origination for leaves, and the scrubber PBR on spine0-0.
func fabricConfig(t *topo.Network, name string, originStatic bool, opts GenOptions, scrubHost string) *netcfg.Config {
	nd := t.Node(name)
	b := netcfg.NewBuilder(name)
	g := b.BGP(nd.ASN).RouterID(nd.RouterID)
	for _, adj := range t.Adjacencies(name) {
		g.Peer(adj.PeerAddr, t.Node(adj.PeerNode).ASN)
	}
	if originStatic {
		g.RedistributeStatic("")
	} else {
		for _, p := range nd.Originates {
			g.Network(p)
		}
	}
	b = g.End()
	if originStatic {
		for _, p := range nd.Originates {
			b.StaticNull(p)
		}
	}
	pbrBind := map[string]string{}
	if scrubHost != "" && name == "spine0-0" {
		scrubAddr := adjacencyAddr(t, name, scrubHost)
		pb := b.PBRPolicy("Scrub")
		idx := 10
		for _, adj := range t.Adjacencies(name) {
			leaf := t.Node(adj.PeerNode)
			if leaf.Kind != topo.Leaf || leaf.Name == "leaf0-0" {
				continue
			}
			pb.Rule(idx, true).
				MatchDest(leaf.Originates[0]).
				MatchDstPort(ScrubberPort).
				ApplyNextHop(scrubAddr)
			idx += 10
		}
		b = pb.End()
		// Bind on the ingress from leaf0-0.
		for _, adj := range t.Adjacencies(name) {
			if adj.PeerNode == "leaf0-0" {
				pbrBind[adj.Iface] = "Scrub"
			}
		}
	}
	emitInterfaces(b, nd, pbrBind)
	return b.Build()
}

// WANGroupPoPFacing and friends name the peer groups of WAN backbone
// routers; the incident injector targets their lines.
const (
	WANGroupPoPFacing = "PoPFacing"
	WANGroupDCNFacing = "DCNFacing"
	WANPolicyNoLeak   = "NoLeakDCN"
	WANPolicyMaint    = "Maintenance"
	WANListDCN        = "DCN_PREFIXES"
)

// WAN builds a correct wide-area scenario: a backbone ring with chords,
// PoP and DCN stubs, and the isolation policy structure of a production
// WAN — DCN prefixes must never be announced toward PoPs, enforced by a
// deny route-policy attached to the PoPFacing peer group on every
// backbone router. A dormant Maintenance deny-all policy is defined (but
// not attached) everywhere, mirroring the paper's "fail to dis-enable
// route map" error class.
func WAN(routers, pops, dcns int, opts GenOptions) *Scenario {
	t := topo.BackboneMesh(topo.BackboneOpts{Routers: routers, Chord: 2, PoPs: pops, DCNs: dcns})
	s := &Scenario{
		Name:    fmt.Sprintf("wan-%dx%dx%d", routers, pops, dcns),
		Topo:    t,
		Configs: map[string]*netcfg.Config{},
		Notes:   "correct WAN backbone with DCN-isolation export policies",
	}
	var dcnPrefixes []netip.Prefix
	for _, nd := range t.Nodes() {
		if nd.Kind == topo.DCN {
			dcnPrefixes = append(dcnPrefixes, nd.Originates...)
		}
	}
	stubIdx := 0
	for _, nd := range t.Nodes() {
		switch nd.Kind {
		case topo.Backbone:
			s.Configs[nd.Name] = wanBackboneConfig(t, nd.Name, dcnPrefixes)
		case topo.PoP, topo.DCN:
			static := opts.StaticOriginEvery > 0 && stubIdx%opts.StaticOriginEvery == 0
			s.Configs[nd.Name] = stubConfig(t, nd.Name, static)
			stubIdx++
		}
	}
	s.Intents = genReachIntents(t, opts)
	// Isolation: every PoP must be unable to reach every DCN (rotating
	// pairs to bound the suite size).
	popNodes, dcnNodes := stubsOf(t, topo.PoP), stubsOf(t, topo.DCN)
	pairsPerPoP := min(2, len(dcnNodes))
	if opts.FullIsolation {
		pairsPerPoP = len(dcnNodes)
	}
	for i, pop := range popNodes {
		for j := 0; j < pairsPerPoP; j++ {
			dcn := dcnNodes[(i+j)%len(dcnNodes)]
			s.Intents = append(s.Intents, verify.IsolationIntent(
				fmt.Sprintf("isolate-%s-%s", pop.Name, dcn.Name),
				pop.Originates[0], dcn.Originates[0]))
		}
	}
	if opts.WithGlobalIntents {
		for i, p := range t.AllOriginated() {
			s.Intents = append(s.Intents, verify.LoopFreeIntent(fmt.Sprintf("loopfree-%d", i), p))
		}
	}
	return s
}

func wanBackboneConfig(t *topo.Network, name string, dcnPrefixes []netip.Prefix) *netcfg.Config {
	nd := t.Node(name)
	b := netcfg.NewBuilder(name)
	g := b.BGP(nd.ASN).RouterID(nd.RouterID)
	hasPoP := false
	for _, adj := range t.Adjacencies(name) {
		peer := t.Node(adj.PeerNode)
		g.Peer(adj.PeerAddr, peer.ASN)
		switch peer.Kind {
		case topo.PoP:
			g.PeerInGroup(adj.PeerAddr, WANGroupPoPFacing)
			hasPoP = true
		case topo.DCN:
			g.PeerInGroup(adj.PeerAddr, WANGroupDCNFacing)
		}
	}
	if hasPoP {
		g.GroupPolicy(WANGroupPoPFacing, WANPolicyNoLeak, netcfg.Export)
	}
	b = g.End()
	for i, p := range dcnPrefixes {
		b.PrefixListEntry(WANListDCN, 10*(i+1), true, p, 0, 0)
	}
	b.RoutePolicy(WANPolicyNoLeak, false, 10).
		MatchIPPrefix(WANListDCN).
		End().
		RoutePolicy(WANPolicyNoLeak, true, 20).
		End()
	// Dormant maintenance policy: deny everything; attaching it to a peer
	// kills that session's routes. Correct configs leave it unattached.
	b.RoutePolicy(WANPolicyMaint, false, 10).End()
	emitInterfaces(b, nd, nil)
	return b.Build()
}

// genReachIntents creates ReachPerPrefix reachability intents per
// originated prefix, rotating sources among the other originating stubs
// of a compatible side (PoPs reach PoPs, DCNs reach DCNs, leaves reach
// leaves), so a correct WAN passes despite isolation policies.
func genReachIntents(t *topo.Network, opts GenOptions) []verify.Intent {
	var intents []verify.Intent
	origins := originators(t)
	for i, nd := range origins {
		picked := 0
		for r := 1; r < len(origins) && picked < opts.reachPerPrefix(); r++ {
			src := origins[(i+r)%len(origins)]
			if src.Name == nd.Name || !compatible(src.Kind, nd.Kind) {
				continue
			}
			picked++
			intents = append(intents, verify.ReachIntent(
				fmt.Sprintf("reach-%s-from-%s", nd.Name, src.Name),
				src.Originates[0], nd.Originates[0]))
		}
	}
	return intents
}

// compatible reports whether a flow from kind a to kind b is expected to
// be reachable in a correct network.
func compatible(a, b topo.Kind) bool {
	if a == topo.PoP && b == topo.DCN || a == topo.DCN && b == topo.PoP {
		return false // isolated by policy in WAN scenarios
	}
	return true
}

func originators(t *topo.Network) []*topo.Node {
	var out []*topo.Node
	for _, nd := range t.Nodes() {
		if len(nd.Originates) > 0 {
			out = append(out, nd)
		}
	}
	return out
}

func stubsOf(t *topo.Network, k topo.Kind) []*topo.Node {
	var out []*topo.Node
	for _, nd := range t.Nodes() {
		if nd.Kind == k {
			out = append(out, nd)
		}
	}
	return out
}
