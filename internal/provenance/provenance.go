// Package provenance records route-derivation graphs: which advertisement
// was derived from which, and — crucially for this paper — which lines of
// configuration each derivation "executed". It plays the role of network
// provenance systems like Y! [Wu et al., SIGCOMM '14] and of configuration
// coverage à la NetCov [Xu et al., NSDI '23]: the coverage matrix that
// spectrum-based fault localization consumes is built from slices of this
// graph, and the MetaProv baseline's search space is its set of leaf
// configuration predicates.
//
// A graph stores only the derivations its outcome cannot regenerate. The
// rest of a section is its Implicit part, which yields those derivations
// on demand: their lines when the section is sealed, the nodes themselves
// when a reader walks the section.
package provenance

import (
	"fmt"
	"net/netip"
	"sort"
	"sync"

	"acr/internal/netcfg"
)

// Kind classifies a derivation node.
type Kind uint8

// Derivation kinds.
const (
	// Origination: a router injects a prefix into BGP (network statement or
	// static redistribution).
	Origination Kind = iota
	// Import: a router accepts a neighbor's advertisement (after import
	// policy), deriving a candidate route.
	Import
	// Rejection: a router drops a neighbor's advertisement (loop check or
	// policy deny). Negative provenance — why a route is absent.
	Rejection
	// Selection: a router selects a best route among candidates.
	Selection
	// StaticInstall: a static route installed into the FIB.
	StaticInstall
	// PBRApply: a PBR rule steered a packet.
	PBRApply
)

// String names the kind.
func (k Kind) String() string {
	switch k {
	case Origination:
		return "origination"
	case Import:
		return "import"
	case Rejection:
		return "rejection"
	case Selection:
		return "selection"
	case StaticInstall:
		return "static-install"
	case PBRApply:
		return "pbr-apply"
	}
	return "unknown"
}

// RouteInfo is what a node's description needs of the route it concerns.
// bgp.Route implements it; storing the route itself instead of a rendered
// string is what lets Detail be produced on demand.
type RouteInfo interface {
	// PathString renders the AS path, e.g. "[65001 65002]".
	PathString() string
	// Via names where the route was learned: "local" or the advertising
	// peer's address.
	Via() string
}

// Node is one derivation of its Section's prefix. Its ID is its position
// in the section's ID order, which counts the implicit derivations too; a
// stored node does not hold it.
type Node struct {
	Kind   Kind
	Router string
	// Peer is the address of the session's other end for Import/Rejection
	// nodes, PeerRouter that end's device.
	Peer       netip.Addr
	PeerRouter string
	// Route is the route originated, selected, imported or rejected; nil
	// for an export suppression, which has no advertisement to show.
	Route RouteInfo
	// Reason says why a Rejection dropped the route.
	Reason string
	// Lines are the configuration lines this derivation executed.
	Lines []netcfg.LineRef
	// Parents are the IDs of the derivations of the same section this one
	// was derived from (e.g. an Import's parent is the neighbor's
	// Selection).
	Parents []int
}

// Detail renders a short human-readable description for reports.
func (n *Node) Detail() string {
	switch n.Kind {
	case Origination:
		return "originates " + n.Route.PathString()
	case Selection:
		return fmt.Sprintf("selects %s via %s", n.Route.PathString(), n.Route.Via())
	case Import:
		return fmt.Sprintf("imports %s from %s", n.Route.PathString(), n.PeerRouter)
	case Rejection:
		if n.Route == nil {
			return n.Reason
		}
		return fmt.Sprintf("rejects %s from %s: %s", n.Route.PathString(), n.PeerRouter, n.Reason)
	}
	return n.Kind.String()
}

// Section holds the derivations of one prefix: the stored nodes and, when
// the section has one, an Implicit part that regenerates the others. Node
// IDs count both, in the order the section was built. The section is
// append-only while it is being built and immutable afterwards, which is
// what lets a configuration version copy stored nodes out of it into the
// versions derived from it, and verify.Incremental clones, which callers
// may check on concurrently, share a whole graph.
//
// The first line query seals the section: it sets, once under sealOnce,
// the bits of its derivations' lines in a LineSet over the version's line
// space, and every later query — from any goroutine — reads that
// immutable set. Add on a sealed section panics.
type Section struct {
	prefix netip.Prefix
	// nodes are the stored derivations in ID order, n the number of
	// derivations, implicit ones included.
	nodes    []Node
	n        int
	implicit Implicit
	// space yields the line space of the version the section belongs to.
	space func() *netcfg.LineSpace

	sealOnce sync.Once
	lines    netcfg.LineSet // over space(); the zero LineSet until sealed
}

// Implicit is the part of a section its outcome regenerates instead of
// storing: in internal/bgp, a converged prefix's selections and its
// derivations over sessions without policies. Its nodes have IDs among the
// stored ones; Section.Reserve numbers them while the section is built.
type Implicit interface {
	// AddLines adds the lines of the implicit derivations to set.
	AddLines(set *netcfg.LineSet)
	// Nodes returns every derivation of the section in ID order, the
	// stored ones included.
	Nodes() []Node
}

// NewSection returns an empty section for prefix p of the version whose
// line space space yields, with room for sizeHint stored nodes. implicit,
// when non-nil, is the part of the section that is not stored.
func NewSection(p netip.Prefix, space func() *netcfg.LineSpace, sizeHint int, implicit Implicit) *Section {
	return &Section{prefix: p, space: space, nodes: make([]Node, 0, sizeHint), implicit: implicit}
}

// Add stores a node and returns its ID. It panics once a line query has
// sealed the section: the set the readers share would silently miss the
// node.
func (s *Section) Add(n Node) int {
	if s.lines.Space() != nil {
		panic("provenance: Add on a section sealed by a line query")
	}
	s.nodes = append(s.nodes, n)
	s.n++
	return s.n - 1
}

// Reserve returns the ID of the next derivation, one the implicit part
// regenerates.
func (s *Section) Reserve() int {
	s.n++
	return s.n - 1
}

// Len reports the number of nodes, implicit ones included.
func (s *Section) Len() int { return s.n }

// Stored returns the stored nodes in ID order. The slice is the section's:
// callers must not modify it.
func (s *Section) Stored() []Node { return s.nodes }

// Node returns the node with the given ID, or nil. While the section is
// still being built the pointer is valid only until the next Add. On a
// section with an implicit part, every call regenerates the section's
// nodes.
func (s *Section) Node(id int) *Node {
	if id < 0 || id >= s.n {
		return nil
	}
	return &s.all()[id]
}

// all returns every node in ID order.
func (s *Section) all() []Node {
	if s.implicit == nil {
		return s.nodes
	}
	return s.implicit.Nodes()
}

// LineSet returns the set of configuration lines the section's derivations
// executed — the coverage a test over its prefix contributes to the SBFL
// spectrum — sealing the section. The set is shared: callers must not add
// to it.
func (s *Section) LineSet() netcfg.LineSet {
	s.sealOnce.Do(func() {
		s.lines = s.space().NewSet()
		for i := range s.nodes {
			s.lines.Add(s.nodes[i].Lines...)
		}
		if s.implicit != nil {
			s.implicit.AddLines(&s.lines)
		}
	})
	return s.lines
}

// Lines returns the configuration lines the section's derivations
// executed, deduplicated and sorted by (device, line).
func (s *Section) Lines() []netcfg.LineRef { return s.LineSet().Refs() }

// Graph is the derivation DAG of one configuration version: one Section
// per prefix, fixed at construction.
type Graph struct {
	sections map[netip.Prefix]*Section
	nodes    int
}

// NewGraph returns the graph made of the given sections, at most one per
// prefix. Sections without nodes are left out, so Prefixes lists exactly
// the prefixes with a derivation.
func NewGraph(sections ...*Section) *Graph {
	g := &Graph{sections: make(map[netip.Prefix]*Section, len(sections))}
	for _, s := range sections {
		if s.Len() == 0 {
			continue
		}
		if g.sections[s.prefix] != nil {
			panic(fmt.Sprintf("provenance: two sections for prefix %s", s.prefix))
		}
		g.sections[s.prefix] = s
		g.nodes += s.Len()
	}
	return g
}

// Len reports the number of nodes.
func (g *Graph) Len() int { return g.nodes }

// Section returns prefix p's section, or nil when p has no derivation.
func (g *Graph) Section(p netip.Prefix) *Section { return g.sections[p] }

// ForPrefix returns all derivations concerning prefix p, in insertion order.
func (g *Graph) ForPrefix(p netip.Prefix) []*Node {
	s := g.sections[p]
	if s == nil {
		return nil
	}
	nodes := s.all()
	out := make([]*Node, len(nodes))
	for i := range nodes {
		out[i] = &nodes[i]
	}
	return out
}

// Prefixes returns every prefix with at least one derivation, sorted.
func (g *Graph) Prefixes() []netip.Prefix {
	out := make([]netip.Prefix, 0, len(g.sections))
	for p := range g.sections {
		out = append(out, p)
	}
	sort.Slice(out, func(i, j int) bool { return netcfg.PrefixLess(out[i], out[j]) })
	return out
}

// LinesForPrefix returns the deduplicated, sorted set of configuration
// lines executed by any derivation for prefix p.
func (g *Graph) LinesForPrefix(p netip.Prefix) []netcfg.LineRef {
	if s := g.sections[p]; s != nil {
		return s.Lines()
	}
	return nil
}

// LinesAtDevice returns the lines of LinesForPrefix(p) that belong to one
// device, sorted by line number: the sealed set's bits in the device's
// span of the line space.
func (g *Graph) LinesAtDevice(p netip.Prefix, device string) []netcfg.LineRef {
	s := g.sections[p]
	if s == nil {
		return nil
	}
	set := s.LineSet()
	lo, hi := set.Space().Span(device)
	var out []netcfg.LineRef
	for id := set.Next(lo); id >= 0 && id < hi; id = set.Next(id + 1) {
		out = append(out, netcfg.LineRef{Device: device, Line: id - lo + 1})
	}
	return out
}
