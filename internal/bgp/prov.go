package bgp

import (
	"net/netip"
	"slices"

	"acr/internal/netcfg"
	"acr/internal/provenance"
)

// BuildProvenance reconstructs the derivation graph of an outcome. It is a
// post-convergence analysis pass (the simulation itself carries no
// tracing): for every prefix and every phase of its outcome, it replays
// each router's originations, each session's export→import processing, and
// each best-route selection, with line tracing enabled — producing exactly
// the provenance that systems like Y! record online. Derivations identical
// across phases are deduplicated, so a flapping prefix's graph is the
// union of the derivations of all its cycle states.
//
// A converged outcome with an AdjIn determines most of its section, which
// therefore stores only the originations and the sites of sessions with a
// policy at either end; implicitSites regenerates the rest on demand, with
// the IDs, parents, routes and lines the traced replay gives.
func BuildProvenance(n *Net, out *Outcome) *provenance.Graph {
	return DeriveProvenance(n, out, nil, nil, nil)
}

// DeriveProvenance is BuildProvenance for out = DeltaSimulate(n, base,
// dirty), given baseProv, the graph of base. A prefix that kept base's
// outcome replays, against n's files, only the originations at dirty
// routers and the sessions with a dirty router at either end — export
// lines live on the sender, import lines on the receiver, and an edit
// renumbers both — and copies every other stored node from base's section:
// it involves no dirty router, so it is what the replay would produce. A
// prefix whose outcome moved is replayed in full. The result equals
// BuildProvenance(n, out) node for node.
func DeriveProvenance(n *Net, out, base *Outcome, baseProv *provenance.Graph, dirty []string) *provenance.Graph {
	dirtySet := make(map[string]bool, len(dirty))
	for _, d := range dirty {
		dirtySet[d] = true
	}
	// A traced section stores a selection per router, a node per session and
	// an origination or two; an implicit one only the policy-session nodes.
	traced, stored := tracedHint(n), 2
	for _, r := range n.routers {
		for _, s := range r.Sessions {
			if s.plainLines == nil {
				stored++
			}
		}
	}
	space := n.LineSpace // built on a section's first line query
	sections := make([]*provenance.Section, 0, len(n.AllPrefixes()))
	bests, sel := make([]*Route, len(n.routers)), make([]int, len(n.routers))
	for _, p := range n.AllPrefixes() {
		po := out.ByPrefix[p]
		if po == nil {
			continue
		}
		b := sectionBuilder{n: n, prefix: p, dirty: dirtySet, bests: bests, sel: sel, hint: traced}
		if base != nil && po.Converged && po == base.ByPrefix[p] {
			b.from = baseProv.Section(p)
		}
		phases := po.Phases()
		if len(phases) > 1 {
			b.ids = map[nodeKey]int{}
		}
		var implicit provenance.Implicit
		if po.Converged && po.AdjIn != nil {
			b.implicit, b.hint = true, stored
			implicit = newImplicitSites(n, po)
		}
		b.sec = provenance.NewSection(p, space, b.hint, implicit)
		for _, phase := range phases {
			b.replay(phase)
		}
		sections = append(sections, b.sec)
	}
	return provenance.NewGraph(sections...)
}

// nodeKey identifies a derivation across the phases of a flapping prefix:
// the node's own kind, router, peer and reason, and the processed route.
type nodeKey struct {
	kind   provenance.Kind
	router string
	peer   netip.Addr
	route  string
	reason string
}

// Rejection reasons. An export suppression carries no route, which is how
// its node is told from an import rejection over the same session.
const (
	reasonLoop       = "as-path loop"
	reasonImportDeny = "import policy deny"
	reasonExportDeny = "export policy suppressed advertisement"
)

// sectionBuilder builds one prefix's section.
type sectionBuilder struct {
	n      *Net
	prefix netip.Prefix
	sec    *provenance.Section
	// ids deduplicates derivations across phases; nil for a converged
	// prefix, whose single phase visits every site once.
	ids map[nodeKey]int
	// implicit is set when the section has an implicitSites part: its
	// selections and policy-free session sites are reserved, not stored.
	implicit bool

	// from, when non-nil, is the section of the version n was derived from,
	// for the same outcome: stored nodes that involve no dirty router are
	// copied from it in step with the replay, cur being the next one to
	// consider.
	from  *provenance.Section
	cur   int
	dirty map[string]bool

	// adj is the outcome's AdjIn, which accepted imports over policy-free
	// sessions are read off, resolved through their sessions, when an
	// implicit part regenerates its section; nil otherwise.
	adj [][]*Route

	// bests and sel index a phase by router position: its best routes and
	// their selection nodes. Scratch shared by every section of a version.
	bests []*Route
	sel   []int
	// mem holds the routes the replayed exports make, ints the parent
	// lists. hint bounds a converged section's stored nodes and parent
	// links.
	mem  arena
	ints []int
	hint int
}

// add stores nd unless, on a flapping prefix, an earlier phase derived it
// already; route is the route the derivation processed, rendered only for
// that dedup.
func (b *sectionBuilder) add(route *Route, nd provenance.Node) int {
	if b.ids == nil {
		return b.sec.Add(nd)
	}
	k := nodeKey{kind: nd.Kind, router: nd.Router, peer: nd.Peer, route: route.Key(), reason: nd.Reason}
	if id, ok := b.ids[k]; ok {
		return id
	}
	id := b.sec.Add(nd)
	b.ids[k] = id
	return id
}

// addParent records parent as a parent of node id, which a section
// without an implicit part stores at index id.
func (b *sectionBuilder) addParent(id, parent int) {
	nd := b.sec.Node(id)
	switch {
	case len(nd.Parents) == 0:
		nd.Parents = b.parent(parent)
	case !slices.Contains(nd.Parents, parent):
		nd.Parents = append(nd.Parents, parent)
	}
}

// parent returns the parent list [id], carved from the section's chunk.
// Its len is its cap, so addParent's append reallocates instead of writing
// into the next list.
func (b *sectionBuilder) parent(id int) []int {
	p := carve(&b.ints, 1, b.hint)
	p[0] = id
	return p
}

// selected reports whether rt, derived at router i, is the route the phase
// selects there, which makes its node a parent of a stored selection. The
// phases of a flapping prefix are compared by value; an implicit section
// stores no selection.
func (b *sectionBuilder) selected(i int, rt *Route) bool {
	return !b.implicit && sameRoute(b.bests[i], rt)
}

// reusable reports whether the nodes of a site involving routers x and y
// (x == y for an origination) are copied from b.from instead of replayed.
func (b *sectionBuilder) reusable(x, y string) bool {
	return b.from != nil && !b.dirty[x] && !b.dirty[y]
}

// next returns the next stored node of b.from that the derived section
// copies — it is no selection (those are rebuilt: they carry no lines) and
// involves no dirty router — without consuming it, or nil.
func (b *sectionBuilder) next() *provenance.Node {
	stored := b.from.Stored()
	for ; b.cur < len(stored); b.cur++ {
		nd := &stored[b.cur]
		if nd.Kind != provenance.Selection && !b.dirty[nd.Router] && !b.dirty[nd.PeerRouter] {
			return nd
		}
	}
	return nil
}

// copyNode consumes the node next returned and adds it to the section,
// re-parented.
func (b *sectionBuilder) copyNode(nd *provenance.Node, parents []int) int {
	b.cur++
	cp := *nd
	cp.Parents = parents
	return b.sec.Add(cp)
}

// replay adds the derivations of one phase.
func (b *sectionBuilder) replay(phase map[string]*Route) {
	n, prefix, bests, sel := b.n, b.prefix, b.bests, b.sel
	for i, r := range n.routers {
		bests[i] = phase[r.Name]
	}
	// Origination and selection nodes first, so imports can reference the
	// advertising neighbor's selection as a parent.
	for i, r := range n.routers {
		name := r.Name
		local := -1 // the origination a stored selection was selected from
		if b.reusable(name, name) {
			for nd := b.next(); nd != nil && nd.Kind == provenance.Origination && nd.Router == name; nd = b.next() {
				id := b.copyNode(nd, nil)
				if b.selected(i, nd.Route.(*Route)) {
					local = id
				}
			}
		} else {
			first := len(b.sec.Stored())
			for _, o := range r.Origins {
				if o.Prefix != prefix {
					continue
				}
				var tr lineRefs
				rt, ok := originRoute(r, o, &tr)
				if !ok || (b.ids == nil && b.originated(first, rt)) {
					continue
				}
				id := b.add(rt, provenance.Node{
					Kind: provenance.Origination, Router: name, Route: rt, Lines: tr.refs,
				})
				if b.selected(i, rt) {
					local = id
				}
			}
		}
		sel[i] = -1
		switch best := bests[i]; {
		case best == nil:
		case b.implicit:
			sel[i] = b.sec.Reserve()
		default:
			sel[i] = b.add(best, provenance.Node{
				Kind: provenance.Selection, Router: name, Route: best,
			})
			if local >= 0 {
				b.addParent(sel[i], local)
			}
		}
	}
	// Import / rejection derivations: replay each established session.
	for i, r := range n.routers {
		name := r.Name
		for _, s := range r.Sessions {
			nbBest := bests[s.peer]
			nbSess := s.reverse
			if nbBest == nil || nbSess == nil {
				continue
			}
			if b.implicit && s.plainLines != nil {
				b.sec.Reserve() // an import or an AS-path loop rejection
				continue
			}
			parents := b.parent(sel[s.peer])
			if b.reusable(name, s.PeerName) {
				nd := b.next()
				atReceiver := nd != nil && nd.Router == name && nd.Peer == s.PeerAddr
				atSender := nd != nil && nd.Router == s.PeerName && nd.Peer == s.LocalAddr // an export suppression
				if !atReceiver && !atSender {
					panic("bgp: the parent version's provenance section is out of step with the replay of " + prefix.String())
				}
				id := b.copyNode(nd, parents)
				if nd.Kind == provenance.Import && b.selected(i, nd.Route.(*Route)) {
					b.addParent(sel[i], id)
				}
				continue
			}
			if in := b.plainImport(i, s); in != nil {
				id := b.add(in, provenance.Node{
					Kind: provenance.Import, Router: name, Peer: s.PeerAddr, PeerRouter: s.PeerName,
					Route: in, Lines: s.plainLines, Parents: parents,
				})
				if b.selected(i, in) {
					b.addParent(sel[i], id)
				}
				continue
			}
			var exTr lineRefs
			adv, ok := processExport(n.routers[s.peer], nbSess, nbBest, &exTr, &b.mem)
			if !ok {
				// Export suppressed: negative provenance on the sender.
				b.add(nbBest, provenance.Node{
					Kind: provenance.Rejection, Router: s.PeerName, Peer: s.LocalAddr, PeerRouter: name,
					Reason: reasonExportDeny, Lines: exTr.refs, Parents: parents,
				})
				continue
			}
			imTr := lineRefs{refs: exTr.refs}
			in, accepted, reason := processImport(r, s, b.mem.clone(adv), &imTr)
			if !accepted {
				b.add(adv, provenance.Node{
					Kind: provenance.Rejection, Router: name, Peer: s.PeerAddr, PeerRouter: s.PeerName,
					Route: adv, Reason: reason, Lines: imTr.refs, Parents: parents,
				})
				continue
			}
			s.stamp(in) // the import's own copy
			id := b.add(in, provenance.Node{
				Kind: provenance.Import, Router: name, Peer: s.PeerAddr, PeerRouter: s.PeerName,
				Route: in, Lines: imTr.refs, Parents: parents,
			})
			if b.selected(i, in) {
				b.addParent(sel[i], id)
			}
		}
	}
}

// plainImport returns the route router i accepted over its policy-free
// session s, read off the converged adj-in and resolved through s, or nil
// when the import must be replayed.
func (b *sectionBuilder) plainImport(i int, s *Session) *Route {
	if b.adj == nil || s.plainLines == nil {
		return nil
	}
	return held{b.adj[i][s.slot], s}.resolve(&b.mem)
}

// originated reports whether a stored node from index first on already
// originates rt: a router configured with the same origination twice
// derives it once.
func (b *sectionBuilder) originated(first int, rt *Route) bool {
	stored := b.sec.Stored()
	for k := first; k < len(stored); k++ {
		if nd := &stored[k]; nd.Kind == provenance.Origination && sameRoute(nd.Route.(*Route), rt) {
			return true
		}
	}
	return false
}

// implicitSites is the implicit part of the section of a converged outcome
// po with an AdjIn: the derivations that po and the net n determine, which
// the section does not store. They are every selection and every site of a
// session without policies whose sender has a best. Such an export cannot
// fail and such an import fails only on an AS-path loop, so the site is
// the import the adj-in slot holds, with the session's plainLines, or, the
// slot being empty, the loop rejection of the sender's best, with the
// sender's session lines.
type implicitSites struct {
	n  *Net
	po *PrefixOutcome
	// bests are po's best routes by router position.
	bests []*Route
}

// newImplicitSites returns the implicit part of po's section.
func newImplicitSites(n *Net, po *PrefixOutcome) *implicitSites {
	bests := make([]*Route, len(n.routers))
	for i, r := range n.routers {
		bests[i] = po.Final[r.Name]
	}
	return &implicitSites{n: n, po: po, bests: bests}
}

// AddLines adds the lines of the implicit session sites; selections have
// none. Each session's lines are added by device, with the span the net
// recorded for it: the plainLines of an accepted import are the peer's
// LocalLines, the router's own LocalLines and its RemoteLines, which are
// the peer's.
func (im *implicitSites) AddLines(set *netcfg.LineSet) {
	im.n.LineSpace() // records the spans
	spans := im.n.spans
	for i, r := range im.n.routers {
		own := spans[i]
		for _, s := range r.Sessions {
			peer := spans[s.peer]
			switch {
			case s.plainLines == nil || s.reverse == nil || im.bests[s.peer] == nil:
			case im.po.AdjIn[i][s.slot] != nil:
				set.AddSpan(peer[0], peer[1], s.reverse.LocalLines)
				set.AddSpan(own[0], own[1], s.LocalLines)
				set.AddSpan(peer[0], peer[1], s.RemoteLines)
			default:
				set.AddSpan(peer[0], peer[1], s.reverse.LocalLines)
			}
		}
	}
}

// Nodes replays the section's only phase, storing every derivation, which
// gives the nodes the section stores as well as the implicit ones. The
// accepted imports over policy-free sessions are read off the adj-in.
func (im *implicitSites) Nodes() []provenance.Node {
	n := im.n
	b := sectionBuilder{n: n, prefix: im.po.Prefix, adj: im.po.AdjIn, hint: tracedHint(n),
		bests: make([]*Route, len(n.routers)), sel: make([]int, len(n.routers))}
	b.sec = provenance.NewSection(b.prefix, n.LineSpace, b.hint, nil)
	b.replay(im.po.Final)
	return b.sec.Stored()
}

// tracedHint bounds the nodes and parent links of a converged section that
// stores every derivation: a selection per router, a node per session, and
// an origination or two.
func tracedHint(n *Net) int { return len(n.Order) + n.sessions + 2 }

// MissingOriginLines computes negative provenance for a prefix that has no
// derivation at all — typically a missing origination (the paper's most
// common error class, "missing redistribution of static route", 20.8% of
// incidents). It returns the lines an operator would inspect: static
// routes covering the prefix anywhere, the would-be origin router's bgp
// block header, and its redistribute statement if present.
func MissingOriginLines(n *Net, prefix netip.Prefix) []netcfg.LineRef {
	var out []netcfg.LineRef
	origin := n.Topo.OriginOfPrefix(prefix)
	for _, name := range n.Order {
		r := n.Routers[name]
		for _, s := range r.Statics {
			if s.Prefix == prefix || (s.Prefix.IsValid() && s.Prefix.Overlaps(prefix)) {
				out = append(out, netcfg.LineRef{Device: name, Line: s.Line})
				if b := r.File.BGP; b != nil {
					out = append(out, netcfg.LineRef{Device: name, Line: b.Line})
					if b.Redistribute != nil {
						out = append(out, netcfg.LineRef{Device: name, Line: b.Redistribute.Line})
					}
				}
			}
		}
	}
	if origin != nil {
		if b := n.Routers[origin.Name].File.BGP; b != nil {
			out = append(out, netcfg.LineRef{Device: origin.Name, Line: b.Line})
			if b.Redistribute != nil {
				out = append(out, netcfg.LineRef{Device: origin.Name, Line: b.Redistribute.Line})
			}
		}
	}
	return out
}
