// Package topo models network structure: routers, interfaces, point-to-point
// links, and deterministic address assignment. It is purely structural —
// configurations are generated on top of it by the scenario package — and
// provides the graph generators used throughout the evaluation: the
// four-router backbone of Figure 2, fat-tree data centers, and backbone
// meshes.
package topo

import (
	"fmt"
	"net/netip"
	"sort"
)

// Kind classifies a node's role. Roles matter to the paper: "devices in
// DCNs are grouped into several roles, and devices with the same role often
// have similar configurations" (§6), which is what makes template-based
// repair plausible.
type Kind uint8

// Node roles.
const (
	Backbone Kind = iota // backbone/core router
	PoP                  // point-of-presence edge (stub that originates prefixes)
	DCN                  // data-center edge (stub that originates prefixes)
	Spine                // fat-tree spine
	Leaf                 // fat-tree leaf (originates rack prefixes)
	Core                 // fat-tree core
)

// String names the role.
func (k Kind) String() string {
	switch k {
	case Backbone:
		return "backbone"
	case PoP:
		return "pop"
	case DCN:
		return "dcn"
	case Spine:
		return "spine"
	case Leaf:
		return "leaf"
	case Core:
		return "core"
	}
	return fmt.Sprintf("kind(%d)", uint8(k))
}

// Node is a router.
type Node struct {
	Name     string
	Kind     Kind
	ASN      uint32
	RouterID netip.Addr
	// Originates lists the prefixes this node is responsible for
	// originating into BGP (stub networks behind it).
	Originates []netip.Prefix
	// Ifaces maps interface name to its assigned address (with the /30
	// prefix length of the link subnet).
	Ifaces map[string]netip.Prefix
}

// Endpoint names one side of a link.
type Endpoint struct {
	Node  string
	Iface string
}

// Link is a point-to-point link with its /30 subnet.
type Link struct {
	A, B   Endpoint
	Subnet netip.Prefix
	// AddrA and AddrB are the host addresses assigned to each side.
	AddrA, AddrB netip.Addr
}

// Network is a set of nodes and links with consistent addressing.
type Network struct {
	Name  string
	nodes map[string]*Node
	order []string // insertion order, for deterministic iteration
	// Links lists every link in creation order. Only Connect appends to it;
	// it also maintains adj, so a link added any other way would be missing
	// from Adjacencies.
	Links []*Link
	// adj indexes Links by endpoint: each node's adjacencies in link order.
	adj map[string][]Adjacency

	linkSeq int // next /30 block index
}

// New returns an empty network.
func New(name string) *Network {
	return &Network{Name: name, nodes: map[string]*Node{}, adj: map[string][]Adjacency{}}
}

// AddNode creates a node. ASN and RouterID must be unique per node; the
// generators guarantee this, and Validate checks it.
func (n *Network) AddNode(name string, kind Kind, asn uint32, routerID netip.Addr) *Node {
	if _, ok := n.nodes[name]; ok {
		panic(fmt.Sprintf("topo: duplicate node %q", name))
	}
	nd := &Node{Name: name, Kind: kind, ASN: asn, RouterID: routerID, Ifaces: map[string]netip.Prefix{}}
	n.nodes[name] = nd
	n.order = append(n.order, name)
	return nd
}

// Node returns the named node, or nil.
func (n *Network) Node(name string) *Node { return n.nodes[name] }

// Nodes returns all nodes in insertion order.
func (n *Network) Nodes() []*Node {
	out := make([]*Node, len(n.order))
	for i, name := range n.order {
		out[i] = n.nodes[name]
	}
	return out
}

// NumNodes reports the node count.
func (n *Network) NumNodes() int { return len(n.order) }

// linkBase is the pool point-to-point subnets are carved from. It is
// disjoint from the prefix pools scenarios originate (10/8, 20/8) so that
// infrastructure addresses never collide with customer prefixes.
var linkBase = netip.MustParseAddr("172.16.0.0")

// Connect links two nodes, allocating the next /30 and the next free
// interface name (ethN) on each side. It returns the created link.
func (n *Network) Connect(a, b string) *Link {
	na, nb := n.nodes[a], n.nodes[b]
	if na == nil || nb == nil {
		panic(fmt.Sprintf("topo: Connect(%q, %q): unknown node", a, b))
	}
	block := n.linkSeq
	n.linkSeq++
	base4 := linkBase.As4()
	off := uint32(base4[0])<<24 | uint32(base4[1])<<16 | uint32(base4[2])<<8 | uint32(base4[3])
	off += uint32(block * 4)
	subnetAddr := netip.AddrFrom4([4]byte{byte(off >> 24), byte(off >> 16), byte(off >> 8), byte(off)})
	subnet := netip.PrefixFrom(subnetAddr, 30)
	addrA := netip.AddrFrom4([4]byte{byte(off >> 24), byte(off >> 16), byte(off >> 8), byte(off + 1)})
	addrB := netip.AddrFrom4([4]byte{byte(off >> 24), byte(off >> 16), byte(off >> 8), byte(off + 2)})
	ifA := fmt.Sprintf("eth%d", len(na.Ifaces))
	ifB := fmt.Sprintf("eth%d", len(nb.Ifaces))
	na.Ifaces[ifA] = netip.PrefixFrom(addrA, 30)
	nb.Ifaces[ifB] = netip.PrefixFrom(addrB, 30)
	l := &Link{
		A: Endpoint{Node: a, Iface: ifA}, B: Endpoint{Node: b, Iface: ifB},
		Subnet: subnet, AddrA: addrA, AddrB: addrB,
	}
	n.Links = append(n.Links, l)
	n.adj[a] = append(n.adj[a], Adjacency{Link: l, Iface: ifA, LocalAddr: addrA, PeerNode: b, PeerIface: ifB, PeerAddr: addrB})
	if b != a { // a self-link (Validate rejects it) is listed once, from its A side
		n.adj[b] = append(n.adj[b], Adjacency{Link: l, Iface: ifB, LocalAddr: addrB, PeerNode: a, PeerIface: ifA, PeerAddr: addrA})
	}
	return l
}

// Adjacency is one end's view of a link: the link, the local interface and
// address, and the peer node, interface and address.
type Adjacency struct {
	Link      *Link
	Iface     string
	LocalAddr netip.Addr
	PeerNode  string
	PeerIface string
	PeerAddr  netip.Addr
}

// Adjacencies lists the adjacencies of node name in link order. The slice
// is the network's own index, shared by every caller: read-only.
func (n *Network) Adjacencies(name string) []Adjacency { return n.adj[name] }

// NodeByAddr returns the node owning the given interface address, or nil.
func (n *Network) NodeByAddr(a netip.Addr) *Node {
	for _, l := range n.Links {
		if l.AddrA == a {
			return n.nodes[l.A.Node]
		}
		if l.AddrB == a {
			return n.nodes[l.B.Node]
		}
	}
	return nil
}

// OriginOf returns the node originating the longest-matching prefix that
// covers addr, or nil. Used to map a test packet's addresses to edge nodes.
func (n *Network) OriginOf(addr netip.Addr) *Node {
	var best *Node
	bestBits := -1
	for _, name := range n.order {
		nd := n.nodes[name]
		for _, p := range nd.Originates {
			if p.Contains(addr) && p.Bits() > bestBits {
				best, bestBits = nd, p.Bits()
			}
		}
	}
	return best
}

// OriginOfPrefix returns the node originating exactly prefix p, or nil.
func (n *Network) OriginOfPrefix(p netip.Prefix) *Node {
	for _, name := range n.order {
		nd := n.nodes[name]
		for _, op := range nd.Originates {
			if op == p {
				return nd
			}
		}
	}
	return nil
}

// AllOriginated returns every originated prefix in the network, sorted.
func (n *Network) AllOriginated() []netip.Prefix {
	var out []netip.Prefix
	for _, name := range n.order {
		out = append(out, n.nodes[name].Originates...)
	}
	sort.Slice(out, func(i, j int) bool {
		if out[i].Addr() != out[j].Addr() {
			return out[i].Addr().Less(out[j].Addr())
		}
		return out[i].Bits() < out[j].Bits()
	})
	return out
}

// Validate checks structural invariants: unique ASNs and router IDs,
// links referencing known nodes, no self-links.
func (n *Network) Validate() error {
	asns := map[uint32]string{}
	rids := map[netip.Addr]string{}
	for _, name := range n.order {
		nd := n.nodes[name]
		if prev, ok := asns[nd.ASN]; ok {
			return fmt.Errorf("topo %s: ASN %d reused by %s and %s", n.Name, nd.ASN, prev, name)
		}
		asns[nd.ASN] = name
		if prev, ok := rids[nd.RouterID]; ok {
			return fmt.Errorf("topo %s: router-id %s reused by %s and %s", n.Name, nd.RouterID, prev, name)
		}
		rids[nd.RouterID] = name
	}
	for _, l := range n.Links {
		if n.nodes[l.A.Node] == nil || n.nodes[l.B.Node] == nil {
			return fmt.Errorf("topo %s: link %v references unknown node", n.Name, l)
		}
		if l.A.Node == l.B.Node {
			return fmt.Errorf("topo %s: self-link on %s", n.Name, l.A.Node)
		}
	}
	return nil
}
