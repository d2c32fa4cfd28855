// Package provenance records route-derivation graphs: which advertisement
// was derived from which, and — crucially for this paper — which lines of
// configuration each derivation "executed". It plays the role of network
// provenance systems like Y! [Wu et al., SIGCOMM '14] and of configuration
// coverage à la NetCov [Xu et al., NSDI '23]: the coverage matrix that
// spectrum-based fault localization consumes is built from slices of this
// graph, and the MetaProv baseline's search space is its set of leaf
// configuration predicates.
package provenance

import (
	"fmt"
	"net/netip"
	"slices"
	"sort"
	"strings"
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

// Node is one derivation.
type Node struct {
	// ID is the node's index within its prefix's Section; Parents refer to
	// nodes of the same section.
	ID     int
	Kind   Kind
	Router string
	Prefix netip.Prefix
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
	// Parents are the IDs of the derivations this one was derived from
	// (e.g. an Import's parent is the neighbor's Selection).
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

// Section holds the derivations of one prefix. It is append-only while it
// is being built and immutable afterwards, which is what lets a
// configuration version share a section — or copy nodes out of one — with
// the versions derived from it, and verify.Incremental clones share a whole
// graph across concurrently validating workers.
//
// The first Lines call seals the section: it builds the line index once,
// under sealOnce, and every later call — from any goroutine — reads that
// immutable index. Add on a sealed section panics.
type Section struct {
	prefix netip.Prefix
	nodes  []Node

	sealOnce sync.Once
	// lines holds the deduplicated provenance lines sorted by (device,
	// line), so one device's lines are a contiguous run. Non-nil once sealed.
	lines []netcfg.LineRef
}

// sealScratch recycles the deduplication set from one seal to the next: it
// keeps the size its use gave it, which spares every section of every
// version growing a map of its own.
var sealScratch = sync.Pool{New: func() any { return map[netcfg.LineRef]struct{}{} }}

// NewSection returns an empty section for prefix p with room for sizeHint
// nodes.
func NewSection(p netip.Prefix, sizeHint int) *Section {
	return &Section{prefix: p, nodes: make([]Node, 0, sizeHint)}
}

// Add appends a node, assigning its ID and Prefix, and returns the ID. It
// panics once Lines has sealed the section: the index the readers share
// would silently miss the node.
func (s *Section) Add(n Node) int {
	if s.lines != nil {
		panic("provenance: Add on a section sealed by a line query")
	}
	n.ID = len(s.nodes)
	n.Prefix = s.prefix
	s.nodes = append(s.nodes, n)
	return n.ID
}

// Len reports the number of nodes.
func (s *Section) Len() int { return len(s.nodes) }

// Node returns the node with the given ID, or nil. While the section is
// still being built the pointer is valid only until the next Add.
func (s *Section) Node(id int) *Node {
	if id < 0 || id >= len(s.nodes) {
		return nil
	}
	return &s.nodes[id]
}

// Lines returns the deduplicated, sorted set of configuration lines the
// section's derivations executed. The slice is the sealed index's own:
// callers must not modify it.
func (s *Section) Lines() []netcfg.LineRef {
	s.sealOnce.Do(func() {
		// Sessions and policies are shared between derivations, so most
		// lines repeat: deduplicate, then sort the distinct ones.
		seen := sealScratch.Get().(map[netcfg.LineRef]struct{})
		for i := range s.nodes {
			for _, l := range s.nodes[i].Lines {
				seen[l] = struct{}{}
			}
		}
		lines := make([]netcfg.LineRef, 0, len(seen))
		for l := range seen {
			lines = append(lines, l)
		}
		clear(seen)
		sealScratch.Put(seen)
		slices.SortFunc(lines, func(a, b netcfg.LineRef) int {
			if c := strings.Compare(a.Device, b.Device); c != 0 {
				return c
			}
			return a.Line - b.Line
		})
		s.lines = lines
	})
	return s.lines
}

// Graph is the derivation DAG of one configuration version: one Section
// per prefix, fixed at construction. Sections may be shared with the graphs
// of other versions.
type Graph struct {
	sections map[netip.Prefix]*Section
	nodes    int

	invertOnce sync.Once
	// byLine inverts the sections' line indexes: the prefixes whose
	// provenance executed a line. Only the verifier's line-dependency
	// heuristic reads it, so it is built on that first read.
	byLine map[netcfg.LineRef][]netip.Prefix
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
	out := make([]*Node, len(s.nodes))
	for i := range s.nodes {
		out[i] = &s.nodes[i]
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
// lines executed by any derivation for prefix p. This is the coverage set
// a test over p contributes to the SBFL spectrum. The slice is the sealed
// index's own: callers must not modify it.
func (g *Graph) LinesForPrefix(p netip.Prefix) []netcfg.LineRef {
	if s := g.sections[p]; s != nil {
		return s.Lines()
	}
	return nil
}

// LinesAtDevice returns the lines of LinesForPrefix(p) that belong to one
// device, sorted by line number — a sub-slice of the sealed index found by
// binary search. Callers must not modify it.
func (g *Graph) LinesAtDevice(p netip.Prefix, device string) []netcfg.LineRef {
	lines := g.LinesForPrefix(p)
	lo := sort.Search(len(lines), func(i int) bool { return lines[i].Device >= device })
	hi := lo
	for hi < len(lines) && lines[hi].Device == device {
		hi++
	}
	return lines[lo:hi:hi]
}

// PrefixesForLine returns the prefixes whose provenance executed line l,
// sorted. It reads an inverse of the line indexes built on first use;
// callers must not modify the slice.
func (g *Graph) PrefixesForLine(l netcfg.LineRef) []netip.Prefix {
	g.invertOnce.Do(func() {
		byLine := map[netcfg.LineRef][]netip.Prefix{}
		for _, p := range g.Prefixes() {
			for _, covered := range g.LinesForPrefix(p) {
				byLine[covered] = append(byLine[covered], p)
			}
		}
		g.byLine = byLine
	})
	return g.byLine[l]
}
