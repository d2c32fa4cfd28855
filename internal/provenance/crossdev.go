package provenance

import (
	"sort"

	"acr/internal/netcfg"
)

// This file extends the per-prefix provenance with a device-level
// influence graph: which routers can affect which other routers' routing
// state, and through which configuration lines. The per-prefix Graph
// answers "which lines did this route execute"; the DeviceGraph answers
// the dual static question "which routers could a change to this router's
// configuration possibly reach" — the reachability relation the candidate
// impact analysis (internal/analysis) uses to over-approximate the blast
// radius of an edit before any simulation runs.

// EdgeKind classifies a cross-device influence edge.
type EdgeKind uint8

// Edge kinds.
const (
	// SessionEdge connects two routers that share a physical adjacency over
	// which a BGP session runs — or could run after an edit (a configured
	// link is an influence channel whether or not the session is currently
	// established; edits can bring it up).
	SessionEdge EdgeKind = iota
	// RedistributeEdge is a self-edge recording that a router's static
	// routes flow into BGP (redistribute static): the channel through which
	// a dataplane-only construct influences control-plane state.
	RedistributeEdge
)

// String names the kind.
func (k EdgeKind) String() string {
	if k == RedistributeEdge {
		return "redistribute"
	}
	return "session"
}

// DeviceEdge is one influence channel between two devices (or a
// redistribution self-edge). Established distinguishes a live session from
// a potential one (adjacency with no session, or a failed session); both
// count for reachability, because an edit can change session state.
type DeviceEdge struct {
	From, To    string
	Kind        EdgeKind
	Established bool
	// Lines are the configuration lines realizing the channel: the session
	// stanzas of both ends (established or failed), or the redistribute
	// statement. Empty for a bare adjacency with no configuration.
	Lines []netcfg.LineRef
}

// DeviceGraph is the cross-device influence graph. Like the per-prefix
// Graph it is append-only: build it once per compiled network, then only
// read it — clones of verify.Incremental share one instance by pointer.
type DeviceGraph struct {
	order []string
	edges map[string][]DeviceEdge
	comp  map[string]int // device -> connected-component id; built lazily
	ncomp int            // the number of components comp numbers
}

// NewDeviceGraph returns a graph over the given devices (insertion order
// is preserved for deterministic iteration).
func NewDeviceGraph(devices []string) *DeviceGraph {
	g := &DeviceGraph{edges: map[string][]DeviceEdge{}}
	g.order = append(g.order, devices...)
	for _, d := range devices {
		if _, ok := g.edges[d]; !ok {
			g.edges[d] = nil
		}
	}
	return g
}

// AddEdge records an influence channel. Session edges are stored on both
// endpoints (influence through a session flows both ways: imports in, and
// the session's existence shapes what the peer hears back).
func (g *DeviceGraph) AddEdge(e DeviceEdge) {
	g.comp = nil
	g.edges[e.From] = append(g.edges[e.From], e)
	if e.From != e.To {
		rev := e
		rev.From, rev.To = e.To, e.From
		g.edges[rev.From] = append(g.edges[rev.From], rev)
	}
}

// Seal precomputes the component index so subsequent read-only queries
// (Component, SameComponent, Reachable) are safe for concurrent use —
// clones of the incremental verifier, which callers may check on
// concurrently, share one sealed graph.
// Call it after the last AddEdge; it returns the receiver for chaining.
func (g *DeviceGraph) Seal() *DeviceGraph {
	g.components()
	return g
}

// Devices returns the device set in insertion order.
func (g *DeviceGraph) Devices() []string { return append([]string(nil), g.order...) }

// components computes connected components over every edge (established or
// not) and memoizes the result.
func (g *DeviceGraph) components() map[string]int {
	if g.comp != nil {
		return g.comp
	}
	comp := map[string]int{}
	next := 0
	for _, root := range g.order {
		if _, done := comp[root]; done {
			continue
		}
		stack := []string{root}
		comp[root] = next
		for len(stack) > 0 {
			d := stack[len(stack)-1]
			stack = stack[:len(stack)-1]
			for _, e := range g.edges[d] {
				if _, done := comp[e.To]; !done {
					comp[e.To] = next
					stack = append(stack, e.To)
				}
			}
		}
		next++
	}
	g.comp, g.ncomp = comp, next
	return comp
}

// Component returns dev's connected-component id, in [0, NumComponents):
// components are numbered in the order of their first device. ok is false
// for a device outside the graph.
func (g *DeviceGraph) Component(dev string) (id int, ok bool) {
	id, ok = g.components()[dev]
	return id, ok
}

// NumComponents reports the number of connected components.
func (g *DeviceGraph) NumComponents() int {
	g.components()
	return g.ncomp
}

// SameComponent reports whether a change on device a can, through any
// chain of session edges, influence routing state on device b. Unknown
// devices are conservatively reported as connected.
func (g *DeviceGraph) SameComponent(a, b string) bool {
	if a == b {
		return true
	}
	comp := g.components()
	ca, oka := comp[a]
	cb, okb := comp[b]
	if !oka || !okb {
		return true
	}
	return ca == cb
}

// Transit reports whether dev can carry routes *between* other devices:
// it has session channels to at least two distinct neighbors. A non-transit
// (leaf) device re-advertises routes only back toward its single neighbor,
// where AS-path loop detection rejects them (export prepends the leaf's
// ASN), so its control-plane changes reach the rest of the network only
// through routes it originates itself. Unknown devices are conservatively
// transit. Read-only over a sealed graph; safe for concurrent use.
func (g *DeviceGraph) Transit(dev string) bool {
	edges, ok := g.edges[dev]
	if !ok {
		return true
	}
	seen := map[string]bool{}
	for _, e := range edges {
		if e.Kind != SessionEdge || e.To == dev {
			continue
		}
		seen[e.To] = true
		if len(seen) >= 2 {
			return true
		}
	}
	return false
}

// Reachable returns every device in dev's component, sorted. This is the
// static over-approximation of "routers whose state an edit on dev can
// touch": BGP routes only propagate over adjacencies, so the component is
// a sound influence bound under any single-component edit.
func (g *DeviceGraph) Reachable(dev string) []string {
	comp := g.components()
	id, ok := comp[dev]
	if !ok {
		return append([]string(nil), g.order...)
	}
	var out []string
	for d, c := range comp {
		if c == id {
			out = append(out, d)
		}
	}
	sort.Strings(out)
	return out
}
