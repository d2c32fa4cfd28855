// Package oracle holds the soundness references the tests hold the engine
// to. refsim.go is a deliberately naive BGP model written against the
// configuration AST alone: it shares no code with internal/bgp, so a
// semantics bug the simulator's cold and delta paths have in common still
// shows. audit.go is the per-candidate audit: the incremental check against
// a from-scratch one, delta re-simulation against a cold replay, and every
// outcome against the reference. Only _test.go files import this package.
package oracle

import (
	"cmp"
	"fmt"
	"net/netip"
	"slices"

	"acr/internal/netcfg"
	"acr/internal/topo"
)

// Route is the reference's view of a BGP route: every attribute the
// decision process or a later hop reads.
type Route struct {
	Prefix    netip.Prefix
	Path      []uint32
	LocalPref uint32
	MED       uint32
	// Origin is 0 for a network statement, 2 for a redistributed static.
	Origin  uint8
	NextHop netip.Addr
	// Local marks a route originated at the router holding it.
	Local bool
	// PeerAddr is the advertising neighbour's address (learned routes);
	// PeerRID its router ID, or the holder's own for a local route.
	PeerAddr netip.Addr
	PeerRID  netip.Addr
}

// String renders every attribute, for divergence messages.
func (r *Route) String() string {
	if r == nil {
		return "no route"
	}
	return fmt.Sprintf("%s path %v lp %d med %d origin %d nh %s local %v peer %s rid %s",
		r.Prefix, r.Path, r.LocalPref, r.MED, r.Origin, r.NextHop, r.Local, r.PeerAddr, r.PeerRID)
}

func equal(a, b *Route) bool {
	if a == nil || b == nil {
		return a == b
	}
	return a.Prefix == b.Prefix && slices.Equal(a.Path, b.Path) && a.LocalPref == b.LocalPref &&
		a.MED == b.MED && a.Origin == b.Origin && a.NextHop == b.NextHop && a.Local == b.Local &&
		a.PeerAddr == b.PeerAddr && a.PeerRID == b.PeerRID
}

// prefer reports whether a wins over b: higher local preference, then
// local over learned, shorter AS path, lower origin, lower MED, lower
// advertising router ID, lower peer address. Anything beats no route.
func prefer(a, b *Route) bool {
	if a == nil || b == nil {
		return b == nil && a != nil
	}
	learned := func(r *Route) int {
		if r.Local {
			return 0
		}
		return 1
	}
	return cmp.Or(
		cmp.Compare(b.LocalPref, a.LocalPref),
		cmp.Compare(learned(a), learned(b)),
		cmp.Compare(len(a.Path), len(b.Path)),
		cmp.Compare(a.Origin, b.Origin),
		cmp.Compare(a.MED, b.MED),
		a.PeerRID.Compare(b.PeerRID),
		a.PeerAddr.Compare(b.PeerAddr),
	) < 0
}

// speaker returns the BGP block of device d, nil when it runs no BGP.
func speaker(files map[string]*netcfg.File, d string) *netcfg.BGPBlock {
	if f := files[d]; f != nil {
		return f.BGP
	}
	return nil
}

// routerID is the configured router ID, else the topology's.
func routerID(t *topo.Network, files map[string]*netcfg.File, d string) netip.Addr {
	if b := speaker(files, d); b != nil && b.RouterID.IsValid() {
		return b.RouterID
	}
	return t.Node(d).RouterID
}

// session is an established session seen from its receiving end.
type session struct {
	sender     string
	senderAddr netip.Addr // the receiver's peer address for it
	exports    []*netcfg.PolicyAttach
	imports    []*netcfg.PolicyAttach
}

// sessionsInto lists the established sessions router d hears over. A link
// carries one when both ends run BGP, each configures a peer stanza with an
// as-number for the other's address, each as-number is the other end's,
// and neither interface is shut down.
func sessionsInto(t *topo.Network, files map[string]*netcfg.File, d string) []session {
	var out []session
	for _, adj := range t.Adjacencies(d) {
		mine, theirs := speaker(files, d), speaker(files, adj.PeerNode)
		if mine == nil || theirs == nil {
			continue
		}
		fd, fp := files[d], files[adj.PeerNode]
		toPeer, toMe := fd.PeerByAddr(adj.PeerAddr), fp.PeerByAddr(adj.LocalAddr)
		if toPeer == nil || toMe == nil || toPeer.ASNLine == 0 || toMe.ASNLine == 0 ||
			toPeer.ASN != theirs.ASN || toMe.ASN != mine.ASN ||
			shut(fd, adj.Iface) || shut(fp, adj.PeerIface) {
			continue
		}
		out = append(out, session{
			sender:     adj.PeerNode,
			senderAddr: adj.PeerAddr,
			exports:    fp.EffectivePolicies(toMe, netcfg.Export),
			imports:    fd.EffectivePolicies(toPeer, netcfg.Import),
		})
	}
	return out
}

func shut(f *netcfg.File, iface string) bool {
	itf := f.InterfaceByName(iface)
	return itf != nil && itf.Shutdown
}

// originations are router d's own routes for p, in the order it considers
// them: its network statements, then its statics when it redistributes
// them, each through the redistribute policy.
func originations(t *topo.Network, files map[string]*netcfg.File, d string, p netip.Prefix) []*Route {
	b := speaker(files, d)
	if b == nil {
		return nil
	}
	rid := routerID(t, files, d)
	var out []*Route
	for _, ns := range b.Networks {
		if ns.Prefix.IsValid() && ns.Prefix == p {
			out = append(out, &Route{Prefix: p, LocalPref: 100, Local: true, PeerRID: rid})
		}
	}
	if b.Redistribute == nil {
		return out
	}
	for _, st := range files[d].Statics {
		if !st.Prefix.IsValid() || st.Prefix != p {
			continue
		}
		r := &Route{Prefix: p, LocalPref: 100, Origin: 2, NextHop: st.NextHop, Local: true, PeerRID: rid}
		if b.Redistribute.Policy != "" {
			r = policy(files[d], b.Redistribute.Policy, r)
		}
		if r != nil {
			out = append(out, r)
		}
	}
	return out
}

// originated is every prefix some router originates, whatever its
// redistribute policy does to the route.
func originated(t *topo.Network, files map[string]*netcfg.File) map[netip.Prefix]bool {
	out := map[netip.Prefix]bool{}
	for _, nd := range t.Nodes() {
		b := speaker(files, nd.Name)
		if b == nil {
			continue
		}
		for _, ns := range b.Networks {
			if ns.Prefix.IsValid() {
				out[ns.Prefix] = true
			}
		}
		if b.Redistribute != nil {
			for _, st := range files[nd.Name].Statics {
				if st.Prefix.IsValid() {
					out[st.Prefix] = true
				}
			}
		}
	}
	return out
}

// policy runs route-policy name of f on r. The first node, in node order,
// whose prefix-list matches all hold decides: permit applies its clauses to
// a copy, deny drops the route (nil). No matching node, or no such policy,
// passes r unchanged.
func policy(f *netcfg.File, name string, r *Route) *Route {
	for _, node := range f.PolicyNodes(name) {
		matched := true
		for _, m := range node.Matches {
			if m.Kind == netcfg.MatchIPPrefix && !listPermits(f, m.PrefixList, r.Prefix) {
				matched = false
			}
		}
		if !matched {
			continue
		}
		if !node.Permit {
			return nil
		}
		out := *r
		for _, a := range node.Applies {
			switch a.Kind {
			case netcfg.ApplyASPathOverwrite:
				out.Path = []uint32{a.ASN}
			case netcfg.ApplyASPathPrepend:
				pre := make([]uint32, max(a.Count, 0), max(a.Count, 0)+len(out.Path))
				for i := range pre {
					pre[i] = a.ASN
				}
				out.Path = append(pre, out.Path...)
			case netcfg.ApplyLocalPref:
				out.LocalPref = a.Value
			case netcfg.ApplyMED:
				out.MED = a.Value
			}
		}
		return &out
	}
	return r
}

// policies runs each attachment in turn; the first drop wins.
func policies(f *netcfg.File, attaches []*netcfg.PolicyAttach, r *Route) *Route {
	for _, a := range attaches {
		if r = policy(f, a.Policy, r); r == nil {
			return nil
		}
	}
	return r
}

// listPermits evaluates prefix-list name on p: the first entry, in index
// order, that matches decides, and a list nothing matches denies. An entry
// without ge/le matches its own prefix exactly; with either, a prefix inside
// it whose length is within [ge, le], ge defaulting to the entry's length
// and le to the address length.
func listPermits(f *netcfg.File, name string, p netip.Prefix) bool {
	for _, e := range f.PrefixListEntries(name) {
		base := e.Prefix.Masked()
		var hit bool
		if e.GE == 0 && e.LE == 0 {
			hit = p == base
		} else {
			lo, hi := e.GE, e.LE
			if lo == 0 {
				lo = base.Bits()
			}
			if hi == 0 {
				hi = p.Addr().BitLen()
			}
			hit = base.IsValid() && base.Contains(p.Addr()) && p.Bits() >= base.Bits() &&
				p.Bits() >= lo && p.Bits() <= hi
		}
		if hit {
			return e.Permit
		}
	}
	return false
}

// carry is what router d holds from s when its sender's best is best: the
// sender's export policies and its AS prepended (local preference does not
// cross the session); then at d the loop check on the path as received,
// local preference set to the default, the import policies, and the
// session's next hop and peer identity. Nil when any step drops it.
func carry(t *topo.Network, files map[string]*netcfg.File, d string, s session, best *Route) *Route {
	if best == nil {
		return nil
	}
	adv := policies(files[s.sender], s.exports, best)
	if adv == nil {
		return nil
	}
	sent := *adv
	sent.Path = append([]uint32{speaker(files, s.sender).ASN}, adv.Path...)
	if slices.Contains(sent.Path, speaker(files, d).ASN) {
		return nil
	}
	sent.LocalPref = 100
	in := policies(files[d], s.imports, &sent)
	if in == nil {
		return nil
	}
	got := *in
	got.Local = false
	got.PeerAddr = s.senderAddr
	got.PeerRID = routerID(t, files, s.sender)
	got.NextHop = s.senderAddr
	return &got
}

// Stable returns nil when final, a router → best route map with routers
// holding no route absent, is a fixpoint of prefix p's control plane on t
// under files: every router's route is the one it prefers among its own
// originations of p and what each established session carries from the
// sender's route in final. Otherwise it names the first router, in topology
// order, whose route the reference would change.
func Stable(t *topo.Network, files map[string]*netcfg.File, p netip.Prefix, final map[string]*Route) error {
	known := 0
	for _, nd := range t.Nodes() {
		d := nd.Name
		if final[d] != nil {
			known++
		}
		var want *Route
		for _, r := range originations(t, files, d, p) {
			if prefer(r, want) {
				want = r
			}
		}
		for _, s := range sessionsInto(t, files, d) {
			if r := carry(t, files, d, s, final[s.sender]); prefer(r, want) {
				want = r
			}
		}
		if !equal(want, final[d]) {
			return fmt.Errorf("%s at %s: holds %v, the reference selects %v", p, d, final[d], want)
		}
	}
	if known != len(final) {
		return fmt.Errorf("%s: routes held by %d routers the topology does not have", p, len(final)-known)
	}
	return nil
}
