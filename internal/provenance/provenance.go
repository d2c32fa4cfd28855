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

// Node is one derivation.
type Node struct {
	ID     int
	Kind   Kind
	Router string
	Prefix netip.Prefix
	// Peer is the advertising neighbor for Import/Rejection nodes.
	Peer netip.Addr
	// Detail is a short human-readable description for reports.
	Detail string
	// Lines are the configuration lines this derivation executed.
	Lines []netcfg.LineRef
	// Parents are the IDs of the derivations this one was derived from
	// (e.g. an Import's parent is the neighbor's Selection).
	Parents []int
}

// Graph is an append-only derivation DAG: nodes are only ever added
// (during BuildProvenance), never modified or removed. A fully built
// graph is therefore read-only, which is what lets verify.Incremental
// clones share one base graph across concurrently validating workers.
//
// The first line query (LinesForPrefix, LinesAtDevice) seals the graph: it
// builds the line index once, under sealOnce, and every later query — from
// any goroutine — reads that immutable index. Add on a sealed graph panics.
type Graph struct {
	nodes    []*Node
	byPrefix map[netip.Prefix][]int

	sealOnce sync.Once
	// lines holds each prefix's deduplicated provenance lines sorted by
	// (device, line), so one device's lines are a contiguous run. Non-nil
	// once sealed.
	lines map[netip.Prefix][]netcfg.LineRef

	invertOnce sync.Once
	// byLine inverts lines: the prefixes whose provenance executed a line.
	// Only the verifier's line-dependency heuristic reads it, so it is built
	// on that first read rather than at seal time.
	byLine map[netcfg.LineRef][]netip.Prefix
}

// NewGraph returns an empty graph.
func NewGraph() *Graph {
	return &Graph{byPrefix: map[netip.Prefix][]int{}}
}

// Add appends a node, assigning and returning its ID. It panics once a
// line query has sealed the graph: the index the readers share would
// silently miss the node.
func (g *Graph) Add(n Node) int {
	if g.lines != nil {
		panic("provenance: Add on a graph sealed by a line query")
	}
	n.ID = len(g.nodes)
	g.nodes = append(g.nodes, &n)
	g.byPrefix[n.Prefix] = append(g.byPrefix[n.Prefix], n.ID)
	return n.ID
}

// Len reports the number of nodes.
func (g *Graph) Len() int { return len(g.nodes) }

// Node returns the node with the given ID, or nil.
func (g *Graph) Node(id int) *Node {
	if id < 0 || id >= len(g.nodes) {
		return nil
	}
	return g.nodes[id]
}

// ForPrefix returns all derivations concerning prefix p, in insertion order.
func (g *Graph) ForPrefix(p netip.Prefix) []*Node {
	ids := g.byPrefix[p]
	out := make([]*Node, len(ids))
	for i, id := range ids {
		out[i] = g.nodes[id]
	}
	return out
}

// Prefixes returns every prefix with at least one derivation, sorted.
func (g *Graph) Prefixes() []netip.Prefix {
	out := make([]netip.Prefix, 0, len(g.byPrefix))
	for p := range g.byPrefix {
		out = append(out, p)
	}
	sort.Slice(out, func(i, j int) bool {
		if out[i].Addr() != out[j].Addr() {
			return out[i].Addr().Less(out[j].Addr())
		}
		return out[i].Bits() < out[j].Bits()
	})
	return out
}

// LinesForPrefix returns the deduplicated, sorted set of configuration
// lines executed by any derivation for prefix p. This is the coverage set
// a test over p contributes to the SBFL spectrum. The slice is the sealed
// index's own: callers must not modify it.
func (g *Graph) LinesForPrefix(p netip.Prefix) []netcfg.LineRef {
	g.sealOnce.Do(g.seal)
	return g.lines[p]
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
// sorted. It reads an inverse of the sealed line index built on first use;
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

// seal builds the line index: per prefix, the lines of its derivations,
// deduplicated and sorted.
func (g *Graph) seal() {
	lines := make(map[netip.Prefix][]netcfg.LineRef, len(g.byPrefix))
	seen := map[netcfg.LineRef]struct{}{}
	for p, ids := range g.byPrefix {
		clear(seen)
		for _, id := range ids {
			for _, l := range g.nodes[id].Lines {
				seen[l] = struct{}{}
			}
		}
		out := make([]netcfg.LineRef, 0, len(seen))
		for l := range seen {
			out = append(out, l)
		}
		sort.Slice(out, func(i, j int) bool { return out[i].Less(out[j]) })
		lines[p] = out
	}
	g.lines = lines
}

// Slice returns the ancestor closure of root (root included), i.e. the
// provenance tree of one event.
func (g *Graph) Slice(root int) []*Node {
	if g.Node(root) == nil {
		return nil
	}
	seen := map[int]bool{}
	var out []*Node
	stack := []int{root}
	for len(stack) > 0 {
		id := stack[len(stack)-1]
		stack = stack[:len(stack)-1]
		if seen[id] {
			continue
		}
		seen[id] = true
		n := g.nodes[id]
		out = append(out, n)
		stack = append(stack, n.Parents...)
	}
	sort.Slice(out, func(i, j int) bool { return out[i].ID < out[j].ID })
	return out
}

// LeafLines returns the distinct configuration-line predicates at the
// leaves of the provenance slice rooted at root. In MetaProv's framing
// (Figure 3a of the paper) these leaves ARE the search space: each is a
// candidate single-line repair site.
func LeafLines(g *Graph, root int) []netcfg.LineRef {
	seen := map[netcfg.LineRef]bool{}
	var out []netcfg.LineRef
	for _, n := range g.Slice(root) {
		for _, l := range n.Lines {
			if !seen[l] {
				seen[l] = true
				out = append(out, l)
			}
		}
	}
	sort.Slice(out, func(i, j int) bool { return out[i].Less(out[j]) })
	return out
}

// LeafLinesForPrefix is LeafLines over every derivation of prefix p — the
// union of the provenance trees of all events concerning p.
func LeafLinesForPrefix(g *Graph, p netip.Prefix) []netcfg.LineRef {
	return g.LinesForPrefix(p)
}
