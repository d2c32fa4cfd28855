package bgp

import (
	"net/netip"
	"slices"

	"acr/internal/netcfg"
	"acr/internal/provenance"
)

// BuildProvenance reconstructs the provenance of an outcome. It is a
// post-convergence analysis pass (the simulation itself carries no
// tracing): for every prefix and every phase of its outcome, it replays
// each router's originations and each session's export→import processing
// with line tracing enabled, recording where each derivation happened and
// the lines it executed — the coverage that systems like Y! record online.
// A flapping prefix's section holds the derivations of all its cycle
// states, each phase counting its own.
//
// A converged outcome with an AdjIn determines most of its section, which
// therefore stores only the originations and the sites of sessions with a
// policy at either end; implicitLines adds the lines of the rest when the
// section is sealed.
func BuildProvenance(n *Net, out *Outcome) *provenance.Graph {
	return DeriveProvenance(n, out, nil, nil, nil)
}

// DeriveProvenance is BuildProvenance for out, the outcome of a version
// derived from base with base's sessions kept and the dirty routers edited,
// every prefix re-simulated by ResimulatePrefix, given baseProv, the graph
// of base. A prefix that kept base's outcome replays, against n's files,
// only the originations at dirty routers and the sessions with a dirty
// router at either end — export lines live on the sender, import lines on
// the receiver, and an edit renumbers both — and copies every other stored
// site from base's section: it involves no dirty router, so it is what the
// replay would produce. A prefix whose outcome moved is replayed in full.
// The result equals BuildProvenance(n, out) site for site.
func DeriveProvenance(n *Net, out, base *Outcome, baseProv *provenance.Graph, dirty []string) *provenance.Graph {
	dirtySet := make(map[string]bool, len(dirty))
	for _, d := range dirty {
		dirtySet[d] = true
	}
	// A traced section stores a site per session and an origination or
	// two; an implicit one only the policy-session sites.
	traced, stored := n.sessions+2, 2
	for _, r := range n.routers {
		for _, s := range r.Sessions {
			if s.plainLines == nil {
				stored++
			}
		}
	}
	space := n.LineSpace // built on a section's first line query
	sections := make([]*provenance.Section, 0, len(n.AllPrefixes()))
	b := sectionBuilder{n: n, dirty: dirtySet, bests: make([]*Route, len(n.routers))}
	for _, p := range n.AllPrefixes() {
		po := out.ByPrefix[p]
		if po == nil {
			continue
		}
		b.prefix, b.from, b.cur, b.implicit = p, nil, 0, po.Converged && po.AdjIn != nil
		if base != nil && po.Converged && po == base.ByPrefix[p] {
			b.from = baseProv.Section(p)
		}
		var sends []bool // by router position: whether it has a best
		if b.implicit {
			sends = carve(&b.sends, len(n.routers), len(n.routers)*len(n.AllPrefixes()))
			b.sec = provenance.NewSection(p, space, stored, implicitLines(n, po, sends))
		} else {
			b.sec = provenance.NewSection(p, space, traced, nil)
		}
		for _, phase := range po.Phases() {
			b.replay(phase)
		}
		for i := range sends {
			sends[i] = b.bests[i] != nil
		}
		b.mem.reset()
		sections = append(sections, b.sec)
	}
	return provenance.NewGraph(sections...)
}

// sectionBuilder builds the sections of one version, one prefix at a time.
type sectionBuilder struct {
	n      *Net
	prefix netip.Prefix
	sec    *provenance.Section
	// implicit is set when the section has an implicitLines part: its
	// policy-free session sites are counted, not stored.
	implicit bool

	// from, when non-nil, is the section of the version n was derived from,
	// for the same outcome: stored sites that involve no dirty router are
	// copied from it in step with the replay, cur being the next one to
	// consider.
	from  *provenance.Section
	cur   int
	dirty map[string]bool

	// bests are a phase's best routes by router position, origins the
	// routes one router originated in it. mem holds the routes the
	// replayed exports make while one prefix is replayed, tr the lines of
	// the site being traced. lines and sends are the chunks the sections
	// carve their sites' lines and their senders from.
	bests   []*Route
	origins []*Route
	mem     arena
	tr      lineRefs
	lines   []netcfg.LineRef
	sends   []bool
}

// reusable reports whether the sites involving routers x and y (x == y
// for an origination) are copied from b.from instead of replayed.
func (b *sectionBuilder) reusable(x, y string) bool {
	return b.from != nil && !b.dirty[x] && !b.dirty[y]
}

// next returns the next stored site of b.from that the derived section
// copies — one involving no dirty router — without consuming it, or nil.
func (b *sectionBuilder) next() *provenance.Site {
	stored := b.from.Stored()
	for ; b.cur < len(stored); b.cur++ {
		if site := &stored[b.cur]; !b.dirty[site.Router] && !b.dirty[site.PeerRouter] {
			return site
		}
	}
	return nil
}

// siteLines returns the lines b.tr traced, carved from the version's chunk,
// and empties b.tr for the next site.
func (b *sectionBuilder) siteLines() []netcfg.LineRef {
	lines := carve(&b.lines, len(b.tr.refs), min(max(2*cap(b.lines), 64), 1024))
	copy(lines, b.tr.refs)
	b.tr.refs = b.tr.refs[:0]
	return lines
}

// copySite consumes the site next returned and adds it to the section.
func (b *sectionBuilder) copySite(site *provenance.Site) {
	b.cur++
	b.sec.Add(*site)
}

// replay adds the derivations of one phase: a selection per router with a
// best, which executes no line and is only counted, the originations, and
// a site per session whose sender has a best.
func (b *sectionBuilder) replay(phase map[string]*Route) {
	n, bests := b.n, b.bests
	for i, r := range n.routers {
		if bests[i] = phase[r.Name]; bests[i] != nil {
			b.sec.Count()
		}
	}
	for _, r := range n.routers {
		if !b.reusable(r.Name, r.Name) {
			b.originate(r)
			continue
		}
		for site := b.next(); site != nil && !site.Peer.IsValid() && site.Router == r.Name; site = b.next() {
			b.copySite(site)
		}
	}
	for _, r := range n.routers {
		for _, s := range r.Sessions {
			best := bests[s.peer]
			if best == nil || s.reverse == nil {
				continue
			}
			if b.implicit && s.plainLines != nil {
				b.sec.Count() // an import or an AS-path loop rejection
				continue
			}
			if !b.reusable(r.Name, s.PeerName) {
				b.sec.Add(b.trace(r, s, best))
				continue
			}
			site := b.next()
			atReceiver := site != nil && site.Router == r.Name && site.Peer == s.PeerAddr
			atSender := site != nil && site.Router == s.PeerName && site.Peer == s.LocalAddr // an export suppression
			if !atReceiver && !atSender {
				panic("bgp: the parent version's provenance section is out of step with the replay of " + b.prefix.String())
			}
			b.copySite(site)
		}
	}
}

// originate adds router r's originations of the prefix. A router
// configured with the same origination twice derives it once.
func (b *sectionBuilder) originate(r *Router) {
	b.origins = b.origins[:0]
	for _, o := range r.Origins {
		if o.Prefix != b.prefix {
			continue
		}
		rt, ok := originRoute(r, o, &b.tr)
		if !ok || slices.ContainsFunc(b.origins, func(x *Route) bool { return sameRoute(x, rt) }) {
			b.tr.refs = b.tr.refs[:0]
			continue
		}
		b.origins = append(b.origins, rt)
		b.sec.Add(provenance.Site{Router: r.Name, Lines: b.siteLines()})
	}
}

// trace replays the export of best over the reverse of router r's session
// s and its import at r, with line tracing. An export the sender's policy
// suppresses is a site at the sender: negative provenance.
func (b *sectionBuilder) trace(r *Router, s *Session, best *Route) provenance.Site {
	adv, ok := processExport(b.n.routers[s.peer], s.reverse, best, &b.tr, &b.mem)
	if !ok {
		return provenance.Site{Router: s.PeerName, PeerRouter: r.Name, Peer: s.LocalAddr, Lines: b.siteLines()}
	}
	processImport(r, s, adv, &b.tr)
	return provenance.Site{Router: r.Name, PeerRouter: s.PeerName, Peer: s.PeerAddr, Lines: b.siteLines()}
}

// implicitLines is the implicit part of the section of a converged outcome
// po with an AdjIn: the lines of the sites of sessions without policies
// whose sender has a best (sends, by router position), which po and the
// net n determine. Such an export cannot fail and executes the sender's
// session lines; such an import fails only on an AS-path loop, and when
// the adj-in slot holds it, it also executes the receiver's session lines.
// Each session's lines are added by device, with the span the net recorded
// for it.
func implicitLines(n *Net, po *PrefixOutcome, sends []bool) provenance.Implicit {
	return func(set *netcfg.LineSet) {
		n.LineSpace() // records the spans
		for i, r := range n.routers {
			for _, s := range r.Sessions {
				if s.plainLines == nil || s.reverse == nil || !sends[s.peer] {
					continue
				}
				peer := n.spans[s.peer]
				set.AddSpan(peer[0], peer[1], s.reverse.LocalLines)
				if po.AdjIn[i][s.slot] != nil {
					set.AddSpan(n.spans[i][0], n.spans[i][1], s.LocalLines)
				}
			}
		}
	}
}

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
