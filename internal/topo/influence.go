package topo

// InfluenceGraph is what static impact analysis needs of the links: BGP
// routes travel only over adjacencies, so a device's connected component
// bounds what an edit on it can reach, and a device with fewer than two
// distinct neighbours is a leaf that carries no routes between others.
// Both are facts of the links alone: an edit can bring a session up or
// down but never create a link. The graph is a snapshot of the links when
// built; it is read-only after, and safe for concurrent use.
type InfluenceGraph struct {
	nodes map[string]influenceNode
	ncomp int
}

type influenceNode struct {
	comp    int
	transit bool
}

// NewInfluenceGraph builds the influence graph of n from its adjacencies.
// Components are numbered in the order of their first node.
func NewInfluenceGraph(n *Network) *InfluenceGraph {
	g := &InfluenceGraph{nodes: make(map[string]influenceNode, len(n.order))}
	for _, root := range n.order {
		if _, done := g.nodes[root]; done {
			continue
		}
		g.nodes[root] = influenceNode{comp: g.ncomp}
		for stack := []string{root}; len(stack) > 0; {
			d := stack[len(stack)-1]
			stack = stack[:len(stack)-1]
			g.nodes[d] = influenceNode{comp: g.ncomp, transit: distinctPeers(d, n.adj[d]) >= 2}
			for _, a := range n.adj[d] {
				if _, done := g.nodes[a.PeerNode]; !done {
					g.nodes[a.PeerNode] = influenceNode{comp: g.ncomp}
					stack = append(stack, a.PeerNode)
				}
			}
		}
		g.ncomp++
	}
	return g
}

// distinctPeers counts d's distinct neighbours other than itself, up to two.
func distinctPeers(d string, adj []Adjacency) int {
	var first string
	peers := 0
	for _, a := range adj {
		if a.PeerNode == d || (peers == 1 && a.PeerNode == first) {
			continue
		}
		if first, peers = a.PeerNode, peers+1; peers == 2 {
			break
		}
	}
	return peers
}

// Component returns dev's component id, in [0, NumComponents). ok is false
// for a device outside the network.
func (g *InfluenceGraph) Component(dev string) (id int, ok bool) {
	nd, ok := g.nodes[dev]
	return nd.comp, ok
}

// NumComponents reports the number of connected components.
func (g *InfluenceGraph) NumComponents() int { return g.ncomp }

// Transit reports whether dev can carry routes between other devices: it
// has at least two distinct neighbours. A leaf re-advertises routes only
// back toward its single neighbour, where AS-path loop detection rejects
// them (export prepends the leaf's ASN), so its control-plane changes reach
// the rest of the network only through routes it originates. A device
// outside the network is conservatively transit.
func (g *InfluenceGraph) Transit(dev string) bool {
	nd, ok := g.nodes[dev]
	return nd.transit || !ok
}
