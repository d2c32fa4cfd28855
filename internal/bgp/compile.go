package bgp

import (
	"net/netip"
	"slices"
	"sort"
	"sync"

	"acr/internal/netcfg"
	"acr/internal/topo"
)

// Session is an established eBGP session as seen from one router. Sessions
// are directional views: an A–B session yields one Session on A and one on
// B.
type Session struct {
	LocalAddr netip.Addr
	PeerName  string
	// ident holds PeerAddr and PeerRID, the peer's address and router ID,
	// and NextHop, which is PeerAddr: it is the ident of the routes learned
	// over the session.
	ident
	PeerASN uint32
	// LocalLines are the config lines on this router establishing the
	// session. The traced export→import of an advertisement adds the
	// sender's (reverse.LocalLines) and then the receiver's, so coverage
	// reaches the session predicates of both ends.
	LocalLines []netcfg.LineRef
	// exportPols and importPols are the policy attachments of the local
	// peer statement in each direction, resolved once at Compile.
	exportPols, importPols []*netcfg.PolicyAttach
	// slot is the session's position in its router's Sessions, peer the
	// peer's position in the Net's Order: together they address a
	// prefixState's adj-in rows.
	slot, peer int
	// reverse is the peer's view of this session: the Session on PeerName
	// whose PeerAddr is LocalAddr. Establishment is symmetric, so it is set
	// for every session Compile and Derive build; callers still guard
	// against nil.
	reverse *Session
	// plainLines, set when neither the peer's export toward this router
	// nor this router's import attaches a policy, are the lines the traced
	// export→import of an accepted advertisement yields: the peer's
	// LocalLines, then LocalLines. Shared read-only.
	plainLines []netcfg.LineRef
}

// stamp gives rt, a route the caller owns, the ident of the routes learned
// over s.
func (s *Session) stamp(rt *Route) {
	rt.ident = &s.ident
}

// FailedSession records a configured-but-down session. The repair
// pipeline uses these as negative provenance: a failing test's coverage
// includes the lines of sessions that should have carried its routes.
type FailedSession struct {
	Router   string
	PeerName string
	PeerAddr netip.Addr
	Lines    []netcfg.LineRef
}

// Origination is one locally injected prefix.
type Origination struct {
	Prefix  netip.Prefix
	Origin  RouteOrigin
	NextHop netip.Addr // static next hop; invalid for network statements
	Policy  string     // redistribute policy, "" when none
	Lines   []netcfg.LineRef
	// id is the ident of the route it originates: next hop NextHop, the
	// router's own ID.
	id *ident
}

// Router is one compiled router.
type Router struct {
	Name string
	ASN  uint32
	RID  netip.Addr
	File *netcfg.File

	Sessions []*Session
	Origins  []Origination
	Statics  []*netcfg.StaticRoute

	// index is the router's position in the owning Net's Order, slotBase
	// the number of sessions the routers before it hold: its adj-in slot j
	// is the state digest's slot len(Order)+slotBase+j.
	index, slotBase int
}

// Net is a compiled network: topology plus parsed configurations resolved
// into sessions and originations. Compile it once per configuration
// version; simulation runs against it. A Net is immutable after Compile,
// but for the line space it builds once, on first use (LineSpace).
type Net struct {
	Topo    *topo.Network
	Files   map[string]*netcfg.File
	Routers map[string]*Router
	Order   []string // deterministic activation order (topology insertion order)
	Failed  []*FailedSession

	// routers is Routers in Order order; sessions counts their Sessions.
	routers  []*Router
	sessions int
	// rids are the routers' IDs by position. Read-only: outcomes share it.
	rids []netip.Addr

	// prefixes is every originated prefix, sorted; see AllPrefixes.
	prefixes []netip.Prefix

	spaceOnce sync.Once
	space     *netcfg.LineSpace // see LineSpace
	// spans are the routers' spans in space, by position in Order.
	spans [][2]int
}

// DeviceGraphOf returns the influence graph of n's topology. The verifier
// builds it from the topology directly; this form stays for the benchmark
// harness, which calls it on a compiled base.
func DeviceGraphOf(n *Net) *topo.InfluenceGraph { return topo.NewInfluenceGraph(n.Topo) }

// Compile resolves configurations against the topology. Configurations
// that fail to parse entirely are treated as empty (their router runs no
// BGP); callers interested in parse errors should Parse first.
func Compile(t *topo.Network, files map[string]*netcfg.File) *Net {
	n := &Net{Topo: t, Files: files, Routers: map[string]*Router{}}
	for _, nd := range t.Nodes() {
		r := newRouter(nd, files[nd.Name], len(n.Order))
		r.Origins = originsOf(r)
		n.Routers[nd.Name] = r
		n.Order = append(n.Order, nd.Name)
		n.routers = append(n.routers, r)
	}
	for _, r := range n.routers {
		if r.File.BGP == nil {
			continue
		}
		for _, adj := range n.Topo.Adjacencies(r.Name) {
			s, fs := n.resolveSession(r, adj)
			if fs != nil {
				n.Failed = append(n.Failed, fs)
			}
			if s != nil {
				r.Sessions = append(r.Sessions, s)
			}
		}
		sortSessions(r.Sessions)
	}
	for _, r := range n.routers {
		r.slotBase = n.sessions
		n.sessions += len(r.Sessions)
		for i, s := range r.Sessions {
			s.slot = i
			n.link(s)
		}
	}
	n.prefixes = prefixesOf(n.routers)
	n.rids = make([]netip.Addr, len(n.routers))
	for i, r := range n.routers {
		n.rids[i] = r.RID
	}
	return n
}

// Derive compiles files, a version of n's configurations that differs
// only on the dirty devices of n's topology, and reuses what the edit
// cannot reach. A
// router neither dirty nor adjacent to a dirty device is n's own. A session
// or failure with two clean ends is n's by pointer, so its reverse link
// stays valid; only sessions with a dirty end are re-resolved, and only
// dirty routers' origins; AllPrefixes is recollected when those moved. The
// result equals Compile(n.Topo, files).
//
// Slots address adj-in rows by a session's position among its router's
// sessions, and n's shared sessions keep theirs. When a router's
// established peer addresses change, those positions would move: Derive
// then compiles cold and returns false.
func (n *Net) Derive(files map[string]*netcfg.File, dirty []string) (*Net, bool) {
	// state[i] is 0 for an untouched router, 1 for a clean neighbour of a
	// dirty device and 2 for a dirty one.
	state := make([]uint8, len(n.routers))
	for _, d := range dirty {
		state[n.Routers[d].index] = 2
		for _, adj := range n.Topo.Adjacencies(d) {
			if i := n.Routers[adj.PeerNode].index; state[i] == 0 {
				state[i] = 1
			}
		}
	}
	m := &Net{Topo: n.Topo, Files: files, Routers: make(map[string]*Router, len(n.routers)),
		Order: n.Order, routers: make([]*Router, len(n.routers)), sessions: n.sessions,
		Failed: make([]*FailedSession, 0, len(n.Failed)), rids: n.rids}
	originsMoved := false // whether a dirty router's originated prefixes changed
	ridMoved := false     // whether m.rids is m's own copy of n's
	for i, old := range n.routers {
		r := old
		switch state[i] {
		case 1:
			cp := *old // sessions are rebuilt below
			r = &cp
		case 2:
			r = newRouter(n.Topo.Node(old.Name), files[old.Name], i)
			r.slotBase = old.slotBase
			r.Origins = originsOf(r)
			originsMoved = originsMoved || !slices.EqualFunc(r.Origins, old.Origins,
				func(a, b Origination) bool { return a.Prefix == b.Prefix })
			if r.RID != old.RID {
				if !ridMoved {
					m.rids, ridMoved = slices.Clone(n.rids), true
				}
				m.rids[i] = r.RID
			}
		}
		m.routers[i] = r
		m.Routers[r.Name] = r
	}
	rest := n.Failed // n's failures not yet passed, in Compile's order
	for i, r := range m.routers {
		old := n.routers[i]
		k := 0
		for k < len(rest) && rest[k].Router == r.Name {
			k++
		}
		oldFailed := rest[:k]
		rest = rest[k:]
		if state[i] == 0 {
			m.Failed = append(m.Failed, oldFailed...)
			continue
		}
		if r.File.BGP != nil {
			r.Sessions = make([]*Session, 0, len(old.Sessions))
			for _, adj := range n.Topo.Adjacencies(r.Name) {
				if state[i] == 1 && state[n.Routers[adj.PeerNode].index] != 2 {
					if s := sessionTo(old.Sessions, adj.PeerAddr); s != nil {
						r.Sessions = append(r.Sessions, s)
					} else if fs := failedTo(oldFailed, adj.PeerAddr); fs != nil {
						m.Failed = append(m.Failed, fs)
					}
					continue
				}
				s, fs := m.resolveSession(r, adj)
				if fs != nil {
					m.Failed = append(m.Failed, fs)
				}
				if s != nil {
					r.Sessions = append(r.Sessions, s)
				}
			}
			sortSessions(r.Sessions)
		}
		if len(r.Sessions) != len(old.Sessions) {
			return Compile(n.Topo, files), false
		}
		for j, s := range r.Sessions {
			if s.PeerAddr != old.Sessions[j].PeerAddr {
				return Compile(n.Topo, files), false
			}
			if s != old.Sessions[j] {
				s.slot = j
			}
		}
	}
	for i, r := range m.routers {
		if state[i] == 0 {
			continue
		}
		for j, s := range r.Sessions {
			if s != n.routers[i].Sessions[j] {
				m.link(s)
			}
		}
	}
	m.prefixes = n.prefixes
	if originsMoved {
		m.prefixes = prefixesOf(m.routers)
	}
	return m, true
}

// newRouter is the router a topology node compiles to from its
// configuration, without sessions or origins; a nil file runs no BGP.
func newRouter(nd *topo.Node, f *netcfg.File, index int) *Router {
	if f == nil {
		f = &netcfg.File{Device: nd.Name}
	}
	r := &Router{Name: nd.Name, RID: nd.RouterID, File: f, Statics: f.Statics, index: index}
	if f.BGP != nil {
		r.ASN = f.BGP.ASN
		if f.BGP.RouterID.IsValid() {
			r.RID = f.BGP.RouterID
		}
	}
	return r
}

// ifaceUp reports whether the interface carrying adj on router r is
// administratively up in its configuration. An interface with no config
// block is considered up (the generators always emit blocks, but analyses
// on partial configs should not lose links).
func ifaceUp(f *netcfg.File, iface string) bool {
	itf := f.InterfaceByName(iface)
	return itf == nil || !itf.Shutdown
}

// resolveSession resolves the session a BGP router r configures over adj:
// the established session, the configured-but-down one, or neither
// when r configures no peer toward the neighbour. The session's slot and
// reverse link are the caller's to set.
func (n *Net) resolveSession(r *Router, adj topo.Adjacency) (*Session, *FailedSession) {
	stanza := r.File.PeerByAddr(adj.PeerAddr)
	if stanza == nil || stanza.ASNLine == 0 {
		return nil, nil // no session configured toward this neighbor
	}
	peer := n.Routers[adj.PeerNode]
	remote := peer.File.PeerByAddr(adj.LocalAddr) // nil when the peer runs no BGP
	if stanza.ASN != peer.ASN || remote == nil || remote.ASNLine == 0 || remote.ASN != r.ASN ||
		!ifaceUp(r.File, adj.Iface) || !ifaceUp(peer.File, adj.PeerIface) {
		return nil, &FailedSession{Router: r.Name, PeerName: adj.PeerNode, PeerAddr: adj.PeerAddr, Lines: r.File.PeerSessionLines(stanza)}
	}
	return &Session{
		LocalAddr:  adj.LocalAddr,
		PeerName:   adj.PeerNode,
		ident:      ident{NextHop: adj.PeerAddr, PeerAddr: adj.PeerAddr, PeerRID: peer.RID},
		PeerASN:    peer.ASN,
		LocalLines: r.File.PeerSessionLines(stanza),
		exportPols: r.File.EffectivePolicies(stanza, netcfg.Export),
		importPols: r.File.EffectivePolicies(stanza, netcfg.Import),
		peer:       peer.index,
	}, nil
}

// sortSessions orders a router's sessions by peer address: a session's
// position is its slot.
func sortSessions(ss []*Session) {
	slices.SortFunc(ss, func(a, b *Session) int { return a.PeerAddr.Compare(b.PeerAddr) })
}

// link sets s's reverse view and, for a session whose reverse exports and
// whose own import attach no policy, its plainLines. The peer's sessions
// must be resolved.
func (n *Net) link(s *Session) {
	s.reverse = sessionTo(n.routers[s.peer].Sessions, s.LocalAddr)
	if s.reverse != nil && len(s.reverse.exportPols) == 0 && len(s.importPols) == 0 {
		s.plainLines = make([]netcfg.LineRef, 0, len(s.reverse.LocalLines)+len(s.LocalLines))
		s.plainLines = append(append(s.plainLines, s.reverse.LocalLines...), s.LocalLines...)
	}
}

// sessionTo returns the session among ss whose peer address is addr, or nil.
func sessionTo(ss []*Session, addr netip.Addr) *Session {
	for _, s := range ss {
		if s.PeerAddr == addr {
			return s
		}
	}
	return nil
}

// failedTo returns the failure among fs whose peer address is addr, or nil.
func failedTo(fs []*FailedSession, addr netip.Addr) *FailedSession {
	for _, f := range fs {
		if f.PeerAddr == addr {
			return f
		}
	}
	return nil
}

// originsOf resolves a router's originations: its network statements, then
// its statics when it redistributes them.
func originsOf(r *Router) []Origination {
	b := r.File.BGP
	if b == nil {
		return nil
	}
	var out []Origination
	for _, ns := range b.Networks {
		if !ns.Prefix.IsValid() {
			continue
		}
		out = append(out, Origination{
			Prefix: ns.Prefix,
			Origin: OriginIGP,
			Lines:  []netcfg.LineRef{{Device: r.Name, Line: ns.Line}},
			id:     &ident{PeerRID: r.RID},
		})
	}
	if b.Redistribute != nil {
		for _, s := range r.File.Statics {
			if !s.Prefix.IsValid() {
				continue
			}
			out = append(out, Origination{
				Prefix:  s.Prefix,
				Origin:  OriginIncomplete,
				NextHop: s.NextHop,
				Policy:  b.Redistribute.Policy,
				Lines: []netcfg.LineRef{
					{Device: r.Name, Line: s.Line},
					{Device: r.Name, Line: b.Redistribute.Line},
				},
				id: &ident{NextHop: s.NextHop, PeerRID: r.RID},
			})
		}
	}
	return out
}

// prefixesOf returns the sorted set of the routers' originated prefixes.
func prefixesOf(routers []*Router) []netip.Prefix {
	var out []netip.Prefix
	seen := map[netip.Prefix]bool{}
	for _, r := range routers {
		for _, o := range r.Origins {
			if !seen[o.Prefix] {
				seen[o.Prefix] = true
				out = append(out, o.Prefix)
			}
		}
	}
	sort.Slice(out, func(i, j int) bool { return netcfg.PrefixLess(out[i], out[j]) })
	return out
}

// AllPrefixes returns every prefix originated anywhere, sorted. The
// simulator runs once per prefix. The slice is computed once at Compile and
// shared by every caller: read-only.
func (n *Net) AllPrefixes() []netip.Prefix { return n.prefixes }

// LineSpace returns the numbering of the routers' lines that localization's
// line sets are over, built on first use: a net only checked never pays.
func (n *Net) LineSpace() *netcfg.LineSpace {
	n.spaceOnce.Do(func() {
		numLines := make(map[string]int, len(n.routers))
		for _, r := range n.routers {
			numLines[r.Name] = r.File.NumLines
		}
		n.space = netcfg.NewLineSpace(numLines)
		n.spans = make([][2]int, len(n.routers))
		for i, r := range n.routers {
			n.spans[i][0], n.spans[i][1] = n.space.Span(r.Name)
		}
	})
	return n.space
}

// SessionBetween returns the session from a to b, or nil.
func (n *Net) SessionBetween(a, b string) *Session {
	ra := n.Routers[a]
	if ra == nil {
		return nil
	}
	for _, s := range ra.Sessions {
		if s.PeerName == b {
			return s
		}
	}
	return nil
}

// FailedSessionLines returns the negative-provenance line set of every
// failed session, on both sides where available.
func (n *Net) FailedSessionLines() []netcfg.LineRef {
	var out []netcfg.LineRef
	for _, fs := range n.Failed {
		out = append(out, fs.Lines...)
	}
	return out
}
