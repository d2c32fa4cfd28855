package topo

import (
	"net/netip"
	"testing"
	"testing/quick"
)

func TestConnectAssignsDistinctSubnets(t *testing.T) {
	n := New("t")
	n.AddNode("a", Backbone, 1, ridFor(1))
	n.AddNode("b", Backbone, 2, ridFor(2))
	n.AddNode("c", Backbone, 3, ridFor(3))
	l1 := n.Connect("a", "b")
	l2 := n.Connect("b", "c")
	if l1.Subnet == l2.Subnet {
		t.Errorf("links share subnet %v", l1.Subnet)
	}
	if !l1.Subnet.Contains(l1.AddrA) || !l1.Subnet.Contains(l1.AddrB) {
		t.Errorf("addresses %v %v outside subnet %v", l1.AddrA, l1.AddrB, l1.Subnet)
	}
	if l1.AddrA == l1.AddrB {
		t.Error("link endpoints share an address")
	}
}

func TestConnectInterfaceNaming(t *testing.T) {
	n := New("t")
	n.AddNode("a", Backbone, 1, ridFor(1))
	n.AddNode("b", Backbone, 2, ridFor(2))
	n.AddNode("c", Backbone, 3, ridFor(3))
	n.Connect("a", "b")
	l := n.Connect("a", "c")
	if l.A.Iface != "eth1" {
		t.Errorf("second interface on a = %q, want eth1", l.A.Iface)
	}
	if l.B.Iface != "eth0" {
		t.Errorf("first interface on c = %q, want eth0", l.B.Iface)
	}
}

func TestAdjacencies(t *testing.T) {
	n := ExampleGraph(true)
	adj := n.Adjacencies("A")
	peers := map[string]bool{}
	for _, a := range adj {
		peers[a.PeerNode] = true
		if got := n.NodeByAddr(a.PeerAddr); got == nil || got.Name != a.PeerNode {
			t.Errorf("NodeByAddr(%v) = %v, want %s", a.PeerAddr, got, a.PeerNode)
		}
		if got := n.NodeByAddr(a.LocalAddr); got == nil || got.Name != "A" {
			t.Errorf("NodeByAddr(%v) = %v, want A", a.LocalAddr, got)
		}
	}
	for _, want := range []string{"B", "S", "PoP-A"} {
		if !peers[want] {
			t.Errorf("A missing adjacency to %s (got %v)", want, peers)
		}
	}
	if peers["C"] {
		t.Error("A should not be adjacent to C")
	}
}

func TestExampleGraphSC(t *testing.T) {
	without := ExampleGraph(false)
	with := ExampleGraph(true)
	if len(with.Links) != len(without.Links)+1 {
		t.Errorf("withSC adds %d links, want 1", len(with.Links)-len(without.Links))
	}
	found := false
	for _, l := range with.Links {
		if (l.A.Node == "C" && l.B.Node == "S") || (l.A.Node == "S" && l.B.Node == "C") {
			found = true
		}
	}
	if !found {
		t.Error("S–C link missing from withSC graph")
	}
	if err := with.Validate(); err != nil {
		t.Errorf("Validate: %v", err)
	}
}

func TestExampleGraphOrigins(t *testing.T) {
	n := ExampleGraph(true)
	cases := []struct{ prefix, origin string }{
		{"10.70.0.0/16", "PoP-A"},
		{"10.0.0.0/16", "PoP-B"},
		{"20.0.0.0/16", "DCN-S"},
	}
	for _, tc := range cases {
		nd := n.OriginOfPrefix(netip.MustParsePrefix(tc.prefix))
		if nd == nil || nd.Name != tc.origin {
			t.Errorf("OriginOfPrefix(%s) = %v, want %s", tc.prefix, nd, tc.origin)
		}
	}
	if got := n.OriginOf(netip.MustParseAddr("10.0.3.7")); got == nil || got.Name != "PoP-B" {
		t.Errorf("OriginOf(10.0.3.7) = %v, want PoP-B", got)
	}
	if got := len(n.AllOriginated()); got != 3 {
		t.Errorf("AllOriginated count = %d, want 3", got)
	}
}

func TestOriginOfLongestMatch(t *testing.T) {
	n := New("t")
	a := n.AddNode("a", Leaf, 1, ridFor(1))
	a.Originates = []netip.Prefix{netip.MustParsePrefix("10.0.0.0/8")}
	b := n.AddNode("b", Leaf, 2, ridFor(2))
	b.Originates = []netip.Prefix{netip.MustParsePrefix("10.5.0.0/16")}
	if got := n.OriginOf(netip.MustParseAddr("10.5.1.1")); got.Name != "b" {
		t.Errorf("longest match = %s, want b", got.Name)
	}
	if got := n.OriginOf(netip.MustParseAddr("10.6.1.1")); got.Name != "a" {
		t.Errorf("fallback = %s, want a", got.Name)
	}
	if got := n.OriginOf(netip.MustParseAddr("99.0.0.1")); got != nil {
		t.Errorf("no-match = %v, want nil", got)
	}
}

func TestFatTreeStructure(t *testing.T) {
	for _, k := range []int{2, 4, 8} {
		n := FatTree(FatTreeOpts{K: k})
		if err := n.Validate(); err != nil {
			t.Fatalf("k=%d: Validate: %v", k, err)
		}
		half := k / 2
		var cores, spines, leaves int
		for _, nd := range n.Nodes() {
			switch nd.Kind {
			case Core:
				cores++
			case Spine:
				spines++
			case Leaf:
				leaves++
				if len(nd.Originates) != 1 {
					t.Errorf("k=%d: leaf %s originates %d prefixes, want 1", k, nd.Name, len(nd.Originates))
				}
			}
		}
		if cores != half*half {
			t.Errorf("k=%d: %d cores, want %d", k, cores, half*half)
		}
		if spines != k*half || leaves != k*half {
			t.Errorf("k=%d: spines=%d leaves=%d, want %d each", k, spines, leaves, k*half)
		}
		wantLinks := k * half * half * 2 // leaf-spine + spine-core
		if len(n.Links) != wantLinks {
			t.Errorf("k=%d: %d links, want %d", k, len(n.Links), wantLinks)
		}
	}
}

func TestFatTreeRejectsOddK(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("FatTree(K=3) did not panic")
		}
	}()
	FatTree(FatTreeOpts{K: 3})
}

func TestBackboneStructure(t *testing.T) {
	n := BackboneMesh(BackboneOpts{Routers: 6, Chord: 2, PoPs: 3, DCNs: 2})
	if err := n.Validate(); err != nil {
		t.Fatalf("Validate: %v", err)
	}
	var bbs, pops, dcns int
	for _, nd := range n.Nodes() {
		switch nd.Kind {
		case Backbone:
			bbs++
		case PoP:
			pops++
			if len(nd.Originates) != 1 {
				t.Errorf("pop %s originates %d, want 1", nd.Name, len(nd.Originates))
			}
		case DCN:
			dcns++
		}
	}
	if bbs != 6 || pops != 3 || dcns != 2 {
		t.Errorf("counts = %d/%d/%d, want 6/3/2", bbs, pops, dcns)
	}
}

func TestValidateCatchesDuplicateASN(t *testing.T) {
	n := New("t")
	n.AddNode("a", Backbone, 7, ridFor(1))
	n.AddNode("b", Backbone, 7, ridFor(2))
	if err := n.Validate(); err == nil {
		t.Error("duplicate ASN not caught")
	}
}

func TestValidateCatchesDuplicateRouterID(t *testing.T) {
	n := New("t")
	n.AddNode("a", Backbone, 1, ridFor(1))
	n.AddNode("b", Backbone, 2, ridFor(1))
	if err := n.Validate(); err == nil {
		t.Error("duplicate router-id not caught")
	}
}

// Property: for any fat-tree size, every generated link subnet is unique
// and every interface address is unique network-wide.
func TestQuickAddressUniqueness(t *testing.T) {
	f := func(kRaw uint8) bool {
		k := int(kRaw%4)*2 + 2 // 2,4,6,8
		n := FatTree(FatTreeOpts{K: k})
		subnets := map[netip.Prefix]bool{}
		addrs := map[netip.Addr]bool{}
		for _, l := range n.Links {
			if subnets[l.Subnet] || addrs[l.AddrA] || addrs[l.AddrB] {
				return false
			}
			subnets[l.Subnet] = true
			addrs[l.AddrA] = true
			addrs[l.AddrB] = true
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 20}); err != nil {
		t.Error(err)
	}
}

// Property: ridFor is injective over a large ordinal range.
func TestQuickRidInjective(t *testing.T) {
	seen := map[netip.Addr]int{}
	for i := 1; i < 70000; i += 7 {
		r := ridFor(i)
		if prev, ok := seen[r]; ok {
			t.Fatalf("ridFor(%d) == ridFor(%d) == %v", i, prev, r)
		}
		seen[r] = i
	}
}

// TestAdjacenciesMatchLinkScan checks the per-node index Connect maintains
// against its definition — a scan of Links from the node's point of view.
func TestAdjacenciesMatchLinkScan(t *testing.T) {
	scan := func(n *Network, name string) []Adjacency {
		var out []Adjacency
		for _, l := range n.Links {
			switch name {
			case l.A.Node:
				out = append(out, Adjacency{Link: l, Iface: l.A.Iface, LocalAddr: l.AddrA, PeerNode: l.B.Node, PeerIface: l.B.Iface, PeerAddr: l.AddrB})
			case l.B.Node:
				out = append(out, Adjacency{Link: l, Iface: l.B.Iface, LocalAddr: l.AddrB, PeerNode: l.A.Node, PeerIface: l.A.Iface, PeerAddr: l.AddrA})
			}
		}
		return out
	}
	for _, n := range []*Network{
		ExampleGraph(true),
		FatTree(FatTreeOpts{K: 4}),
		BackboneMesh(BackboneOpts{Routers: 12, Chord: 3, PoPs: 8, DCNs: 6}),
	} {
		for _, nd := range n.Nodes() {
			got, want := n.Adjacencies(nd.Name), scan(n, nd.Name)
			if len(got) != len(want) {
				t.Fatalf("%s: Adjacencies(%s) has %d entries, the link scan %d", n.Name, nd.Name, len(got), len(want))
			}
			for i := range want {
				if got[i] != want[i] {
					t.Errorf("%s: Adjacencies(%s)[%d] = %+v, the link scan gives %+v", n.Name, nd.Name, i, got[i], want[i])
				}
			}
		}
		if got := n.Adjacencies("no-such-node"); len(got) != 0 {
			t.Errorf("%s: Adjacencies of an unknown node = %v, want none", n.Name, got)
		}
	}
}
