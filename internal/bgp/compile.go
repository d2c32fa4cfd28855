package bgp

import (
	"fmt"
	"net/netip"
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
	PeerAddr  netip.Addr
	PeerASN   uint32
	PeerRID   netip.Addr
	// LocalLines are the config lines on this router establishing the
	// session; RemoteLines the peer's counterpart lines. Both are tagged on
	// import derivations so coverage reaches the session predicates of both
	// ends.
	LocalLines  []netcfg.LineRef
	RemoteLines []netcfg.LineRef
	// exportPols and importPols are the policy attachments of the local
	// peer statement in each direction, resolved once at Compile.
	exportPols, importPols []*netcfg.PolicyAttach
	// slot is the session's position in its router's Sessions, peer the
	// peer's position in the Net's Order: together they address a
	// prefixState's adj-in rows.
	slot, peer int
	// reverse is the peer's view of this session: the Session on PeerName
	// whose PeerAddr is LocalAddr. Establishment is symmetric, so it is set
	// for every session Compile builds; callers still guard against nil.
	reverse *Session
	// plainLines, set when neither the peer's export toward this router
	// nor this router's import attaches a policy, are the lines the traced
	// export→import of an accepted advertisement yields: the peer's
	// LocalLines, then LocalLines, then RemoteLines. Shared read-only.
	plainLines []netcfg.LineRef
}

// FailedSession records a configured-but-down session and why. The repair
// pipeline uses these as negative provenance: a failing test's coverage
// includes the lines of sessions that should have carried its routes.
type FailedSession struct {
	Router   string
	PeerName string
	PeerAddr netip.Addr
	Reason   string
	Lines    []netcfg.LineRef
}

// Origination is one locally injected prefix.
type Origination struct {
	Prefix  netip.Prefix
	Origin  RouteOrigin
	NextHop netip.Addr // static next hop; invalid for network statements
	Policy  string     // redistribute policy, "" when none
	Lines   []netcfg.LineRef
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

	// prefixes is every originated prefix, sorted; see AllPrefixes.
	prefixes []netip.Prefix

	spaceOnce sync.Once
	space     *netcfg.LineSpace // see LineSpace
}

// Compile resolves configurations against the topology. Configurations
// that fail to parse entirely are treated as empty (their router runs no
// BGP); callers interested in parse errors should Parse first.
func Compile(t *topo.Network, files map[string]*netcfg.File) *Net {
	n := &Net{Topo: t, Files: files, Routers: map[string]*Router{}}
	for _, nd := range t.Nodes() {
		f := files[nd.Name]
		if f == nil {
			f = &netcfg.File{Device: nd.Name}
		}
		r := &Router{Name: nd.Name, RID: nd.RouterID, File: f, index: len(n.Order)}
		if f.BGP != nil {
			r.ASN = f.BGP.ASN
			if f.BGP.RouterID.IsValid() {
				r.RID = f.BGP.RouterID
			}
		}
		r.Statics = f.Statics
		n.Routers[nd.Name] = r
		n.Order = append(n.Order, nd.Name)
		n.routers = append(n.routers, r)
	}
	n.resolveSessions()
	n.resolveOrigins()
	return n
}

// ifaceUp reports whether the interface carrying adj on router r is
// administratively up in its configuration. An interface with no config
// block is considered up (the generators always emit blocks, but analyses
// on partial configs should not lose links).
func ifaceUp(f *netcfg.File, iface string) bool {
	itf := f.InterfaceByName(iface)
	return itf == nil || !itf.Shutdown
}

func (n *Net) resolveSessions() {
	for _, name := range n.Order {
		r := n.Routers[name]
		if r.File.BGP == nil {
			continue
		}
		for _, adj := range n.Topo.Adjacencies(name) {
			stanza := r.File.PeerByAddr(adj.PeerAddr)
			if stanza == nil || stanza.ASNLine == 0 {
				continue // no session configured toward this neighbor
			}
			peer := n.Routers[adj.PeerNode]
			fail := func(reason string) {
				n.Failed = append(n.Failed, &FailedSession{
					Router:   name,
					PeerName: adj.PeerNode,
					PeerAddr: adj.PeerAddr,
					Reason:   reason,
					Lines:    r.File.PeerSessionLines(stanza),
				})
			}
			if !ifaceUp(r.File, adj.Iface) {
				fail(fmt.Sprintf("local interface %s is shut down", adj.Iface))
				continue
			}
			if peer.File.BGP == nil {
				fail(fmt.Sprintf("neighbor %s runs no BGP", adj.PeerNode))
				continue
			}
			if stanza.ASN != peer.ASN {
				fail(fmt.Sprintf("configured as-number %d but neighbor %s is AS %d", stanza.ASN, adj.PeerNode, peer.ASN))
				continue
			}
			remote := peer.File.PeerByAddr(adj.LocalAddr)
			if remote == nil || remote.ASNLine == 0 {
				fail(fmt.Sprintf("neighbor %s has no peer stanza for %s", adj.PeerNode, adj.LocalAddr))
				continue
			}
			if remote.ASN != r.ASN {
				fail(fmt.Sprintf("neighbor %s configures as-number %d for us but we are AS %d", adj.PeerNode, remote.ASN, r.ASN))
				continue
			}
			if !ifaceUp(peer.File, adj.PeerIface) {
				fail(fmt.Sprintf("neighbor interface %s is shut down", adj.PeerIface))
				continue
			}
			r.Sessions = append(r.Sessions, &Session{
				LocalAddr:   adj.LocalAddr,
				PeerName:    adj.PeerNode,
				PeerAddr:    adj.PeerAddr,
				PeerASN:     peer.ASN,
				PeerRID:     peer.RID,
				LocalLines:  r.File.PeerSessionLines(stanza),
				RemoteLines: peer.File.PeerSessionLines(remote),
				exportPols:  r.File.EffectivePolicies(stanza, netcfg.Export),
				importPols:  r.File.EffectivePolicies(stanza, netcfg.Import),
				peer:        peer.index,
			})
		}
		sort.Slice(r.Sessions, func(i, j int) bool {
			return r.Sessions[i].PeerAddr.Less(r.Sessions[j].PeerAddr)
		})
	}
	for _, r := range n.routers {
		r.slotBase = n.sessions
		n.sessions += len(r.Sessions)
		for i, s := range r.Sessions {
			s.slot = i
			for _, ps := range n.routers[s.peer].Sessions {
				if ps.PeerAddr == s.LocalAddr {
					s.reverse = ps
					break
				}
			}
			if s.reverse != nil && len(s.reverse.exportPols) == 0 && len(s.importPols) == 0 {
				s.plainLines = append(append(append([]netcfg.LineRef{}, s.reverse.LocalLines...), s.LocalLines...), s.RemoteLines...)
			}
		}
	}
}

func (n *Net) resolveOrigins() {
	for _, name := range n.Order {
		r := n.Routers[name]
		b := r.File.BGP
		if b == nil {
			continue
		}
		for _, ns := range b.Networks {
			if !ns.Prefix.IsValid() {
				continue
			}
			r.Origins = append(r.Origins, Origination{
				Prefix: ns.Prefix,
				Origin: OriginIGP,
				Lines:  []netcfg.LineRef{{Device: name, Line: ns.Line}},
			})
		}
		if b.Redistribute != nil {
			for _, s := range r.File.Statics {
				if !s.Prefix.IsValid() {
					continue
				}
				r.Origins = append(r.Origins, Origination{
					Prefix:  s.Prefix,
					Origin:  OriginIncomplete,
					NextHop: s.NextHop,
					Policy:  b.Redistribute.Policy,
					Lines: []netcfg.LineRef{
						{Device: name, Line: s.Line},
						{Device: name, Line: b.Redistribute.Line},
					},
				})
			}
		}
	}
	seen := map[netip.Prefix]bool{}
	for _, name := range n.Order {
		for _, o := range n.Routers[name].Origins {
			if !seen[o.Prefix] {
				seen[o.Prefix] = true
				n.prefixes = append(n.prefixes, o.Prefix)
			}
		}
	}
	sort.Slice(n.prefixes, func(i, j int) bool { return netcfg.PrefixLess(n.prefixes[i], n.prefixes[j]) })
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
