package bgp

import (
	"net/netip"
	"slices"
	"testing"

	"acr/internal/netcfg"
	"acr/internal/topo"
)

// squareNet builds O (origin of 10.0.0.0/16) with two equal-length paths
// to D: O—A—D and O—B—D. D's choice between them comes down to the
// advertising peers' router IDs.
func squareNet() *topo.Network {
	n := topo.New("square")
	o := n.AddNode("O", topo.PoP, 64500, netip.MustParseAddr("1.0.0.1"))
	o.Originates = []netip.Prefix{netip.MustParsePrefix("10.0.0.0/16")}
	n.AddNode("A", topo.Backbone, 65001, netip.MustParseAddr("1.0.0.2"))
	n.AddNode("B", topo.Backbone, 65002, netip.MustParseAddr("1.0.0.3"))
	n.AddNode("D", topo.Backbone, 65003, netip.MustParseAddr("1.0.0.4"))
	n.Connect("O", "A")
	n.Connect("O", "B")
	n.Connect("A", "D")
	n.Connect("B", "D")
	return n
}

// assertDeltaMatchesCold runs the prefix cold and via delta from base on
// the candidate net and requires identical stable state, down to the
// tie-breaking router IDs Key() omits (sameRoute compares them). Returns
// the delta outcome.
func assertDeltaMatchesCold(t *testing.T, cand *Net, base *PrefixOutcome, dirty []string, p netip.Prefix) *PrefixOutcome {
	t.Helper()
	cold := SimulatePrefix(cand, p, Options{})
	po, ok := DeltaSimulatePrefix(cand, base, dirty, p, Options{})
	if !ok {
		t.Fatalf("delta refused the shortcut for %s (dirty %v)", p, dirty)
	}
	if po.Converged != cold.Converged {
		t.Fatalf("delta converged=%v, cold converged=%v", po.Converged, cold.Converged)
	}
	for _, name := range cand.Order {
		d, c := po.Final[name], cold.Final[name]
		if !sameRoute(d, c) {
			t.Errorf("%s: delta %+v vs cold %+v", name, d, c)
		}
	}
	return po
}

func TestDeltaImportPolicyChange(t *testing.T) {
	net := chainNet()
	p := netip.MustParsePrefix("10.0.0.0/16")
	base := Simulate(newTestNet(net).compile(t), Options{})

	// Candidate: Y raises local-preference on routes imported from X.
	tb := newTestNet(net)
	tb.bgp("Y").PeerPolicy(tb.peerAddr("Y", "X"), "lp200", netcfg.Import)
	tb.builder("Y").RoutePolicy("lp200", true, 10).ApplyLocalPref(200).End()
	cand := tb.compile(t)

	po := assertDeltaMatchesCold(t, cand, base.ByPrefix[p], []string{"Y"}, p)
	if r := po.Final["Y"]; r == nil || r.LocalPref != 200 {
		t.Errorf("Y best after delta = %+v, want local-pref 200", r)
	}
}

func TestDeltaExportPolicyOnlyChange(t *testing.T) {
	// X prepends toward Y: X's own best is untouched, so only the forced
	// push of the dirty device can surface the change at Y.
	net := chainNet()
	p := netip.MustParsePrefix("10.0.0.0/16")
	base := Simulate(newTestNet(net).compile(t), Options{})

	tb := newTestNet(net)
	tb.bgp("X").PeerPolicy(tb.peerAddr("X", "Y"), "prep", netcfg.Export)
	tb.builder("X").RoutePolicy("prep", true, 10).ApplyASPathPrepend(65001, 2).End()
	cand := tb.compile(t)

	po := assertDeltaMatchesCold(t, cand, base.ByPrefix[p], []string{"X"}, p)
	if r := po.Final["Y"]; r == nil || !slices.Equal(r.ASPath, []uint32{65001, 65001, 65001, 64500}) {
		t.Errorf("Y best after delta = %+v, want twice-prepended path", r)
	}
}

func TestDeltaRouterIDChangeFlipsTieBreak(t *testing.T) {
	net := squareNet()
	p := netip.MustParsePrefix("10.0.0.0/16")
	base := Simulate(newTestNet(net).compile(t), Options{})
	if got := base.ByPrefix[p].Final["D"]; got == nil || got.PeerRID != netip.MustParseAddr("1.0.0.2") {
		t.Fatalf("base D best = %+v, want via A (RID 1.0.0.2)", got)
	}

	// Candidate: A's router ID jumps above B's, so D's RID tie-break must
	// flip to B. Key() omits PeerRID — this is exactly the staleness the
	// delta path's stronger change predicate exists for.
	tb := newTestNet(net)
	nd := net.Node("A")
	b := netcfg.NewBuilder("A")
	g := b.BGP(nd.ASN).RouterID(netip.MustParseAddr("9.9.9.9"))
	for _, adj := range net.Adjacencies("A") {
		g.Peer(adj.PeerAddr, net.Node(adj.PeerNode).ASN)
	}
	tb.builders["A"] = b
	tb.bgps["A"] = g
	cand := tb.compile(t)

	po := assertDeltaMatchesCold(t, cand, base.ByPrefix[p], []string{"A"}, p)
	if r := po.Final["D"]; r == nil || r.PeerRID != netip.MustParseAddr("1.0.0.3") {
		t.Errorf("D best after delta = %+v, want via B (RID 1.0.0.3)", r)
	}
}

func TestDeltaInertEditTouchesOnlyDirtyDevices(t *testing.T) {
	// A behaviorally inert change (an unattached route-policy) must leave
	// the wave at the dirty device: seed activations only, base state
	// reused structurally everywhere else.
	net := chainNet()
	p := netip.MustParsePrefix("10.0.0.0/16")
	base := Simulate(newTestNet(net).compile(t), Options{})

	tb := newTestNet(net)
	tb.builder("X").RoutePolicy("unused", true, 10).ApplyMED(7).End()
	cand := tb.compile(t)

	po := assertDeltaMatchesCold(t, cand, base.ByPrefix[p], []string{"X"}, p)
	if po.Activations != 1 {
		t.Errorf("inert edit cost %d activations, want 1 (the dirty device's forced pass)", po.Activations)
	}
	cold := SimulatePrefix(cand, p, Options{})
	if po.Activations >= cold.Activations {
		t.Errorf("delta did %d activations, cold %d — no work saved", po.Activations, cold.Activations)
	}
	// Untouched routers share the base outcome's route pointers.
	if po.Final["Y"] != base.ByPrefix[p].Final["Y"] {
		t.Error("Y's route was rebuilt instead of structurally reused")
	}
}

func TestDeltaRefusals(t *testing.T) {
	net := chainNet()
	cand := newTestNet(net).compile(t)
	p := netip.MustParsePrefix("10.0.0.0/16")
	if _, ok := DeltaSimulatePrefix(cand, nil, []string{"X"}, p, Options{}); ok {
		t.Error("delta accepted a nil base")
	}
	if _, ok := DeltaSimulatePrefix(cand, &PrefixOutcome{Prefix: p}, []string{"X"}, p, Options{}); ok {
		t.Error("delta accepted a non-converged base")
	}
	conv := SimulatePrefix(cand, p, Options{})
	noAdj := &PrefixOutcome{Prefix: p, Converged: true, Final: conv.Final}
	if _, ok := DeltaSimulatePrefix(cand, noAdj, []string{"X"}, p, Options{}); ok {
		t.Error("delta accepted a base without AdjIn")
	}
	if _, ok := DeltaSimulatePrefix(cand, conv, []string{"nosuch"}, p, Options{}); ok {
		t.Error("delta accepted an unknown dirty router")
	}
}

// TestDeltaBaseOutcomeUnmutated: a delta run shares the base outcome's
// adj-in rows until its first write into one, so the base must come out of
// every run with the same best routes and the same route in every adj-in
// slot. One candidate rebuilds only its own row (Y's import policy); the
// other's forced push writes into clean Y's row (X's export prepend), which
// is the copy-on-write under test.
func TestDeltaBaseOutcomeUnmutated(t *testing.T) {
	net := chainNet()
	p := netip.MustParsePrefix("10.0.0.0/16")
	base := Simulate(newTestNet(net).compile(t), Options{})
	bp := base.ByPrefix[p]
	beforeBest := make(map[string]string)
	for d, r := range bp.Final { //acrvet:ordered — test snapshot
		beforeBest[d] = r.Key()
	}
	beforeAdj := make([][]*Route, len(bp.AdjIn))
	for i, row := range bp.AdjIn {
		beforeAdj[i] = slices.Clone(row)
	}

	importLP := newTestNet(net)
	importLP.bgp("Y").PeerPolicy(importLP.peerAddr("Y", "X"), "lp200", netcfg.Import)
	importLP.builder("Y").RoutePolicy("lp200", true, 10).ApplyLocalPref(200).End()
	exportPrepend := newTestNet(net)
	exportPrepend.bgp("X").PeerPolicy(exportPrepend.peerAddr("X", "Y"), "prep", netcfg.Export)
	exportPrepend.builder("X").RoutePolicy("prep", true, 10).ApplyASPathPrepend(65001, 2).End()
	sharedWrites := 0
	for _, c := range []struct {
		dirty string
		tb    *testNetBuilder
	}{{"Y", importLP}, {"X", exportPrepend}} {
		cand := c.tb.compile(t)
		po, ok := DeltaSimulatePrefix(cand, bp, []string{c.dirty}, p, Options{})
		if !ok {
			t.Fatalf("delta refused with %s dirty", c.dirty)
		}
		for i, row := range po.AdjIn {
			if cand.Order[i] != c.dirty && !slices.Equal(row, beforeAdj[i]) {
				sharedWrites++
			}
		}
	}
	if sharedWrites == 0 {
		t.Fatal("no delta run wrote into a row shared with the base; the check below is vacuous")
	}

	for d, k := range beforeBest {
		if bp.Final[d] == nil || bp.Final[d].Key() != k {
			t.Errorf("delta mutated base Final[%s]", d)
		}
	}
	for i, row := range beforeAdj {
		if !slices.Equal(bp.AdjIn[i], row) {
			t.Errorf("delta mutated base AdjIn of %s: %v, was %v", net.Nodes()[i].Name, bp.AdjIn[i], row)
		}
	}
}
