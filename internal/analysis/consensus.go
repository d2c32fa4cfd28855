package analysis

import (
	"net/netip"
	"sort"

	"acr/internal/netcfg"
	"acr/internal/topo"
)

// The analyzers in this file compare a device's configuration against its
// peers' — session symmetry and "devices in the same role configure the
// same thing" consensus. All of them no-op without a topology: with one
// device there is no consensus to check against.

// SessionASNMismatch flags a `peer <ip> as-number <asn>` whose ASN differs
// from the AS the adjacent device actually runs: the session will never
// establish. This is the direct signature of the "override to wrong AS
// number" incidents.
var SessionASNMismatch = &Analyzer{
	Name:  "session-asn-mismatch",
	Doc:   "a peer statement names an AS the adjacent device does not run",
	Class: ClassWrongASNumber,
	Run: func(p *Pass) {
		if p.Topo == nil {
			return
		}
		for _, dev := range p.Devices() {
			f := p.File(dev)
			if f == nil || f.BGP == nil {
				continue
			}
			for _, pe := range f.BGP.Peers {
				other := p.PeerNodeOf(dev, pe)
				if other == "" || pe.ASN == 0 || pe.ASNLine <= 0 {
					continue
				}
				of := p.File(other)
				if of == nil || of.BGP == nil || of.BGP.ASN == 0 {
					continue
				}
				if pe.ASN != of.BGP.ASN {
					p.Report(Diagnostic{
						Line: netcfg.LineRef{Device: dev, Line: pe.ASNLine},
						Message: sprintf("peer %s is configured as AS %d, but %s runs AS %d: the session cannot establish",
							pe.Addr, pe.ASN, other, of.BGP.ASN),
						Related: []netcfg.LineRef{{Device: other, Line: of.BGP.Line}},
					})
				}
			}
		}
	},
}

// peerObservation is one (device, peer) edge annotated with both ends'
// topology kinds and the peer's grouping state.
type peerObservation struct {
	device  string
	peer    *netcfg.Peer
	grouped bool
}

// edgeKinds keys observations by the (local kind, remote kind) pair so
// consensus is computed among like-for-like sessions only.
type edgeKinds struct{ local, remote topo.Kind }

// collectPeerObservations gathers every resolvable BGP peer edge, bucketed
// by kind pair.
func collectPeerObservations(p *Pass) map[edgeKinds][]peerObservation {
	out := map[edgeKinds][]peerObservation{}
	for _, dev := range p.Devices() {
		f := p.File(dev)
		lk, ok := p.NodeKind(dev)
		if f == nil || f.BGP == nil || !ok {
			continue
		}
		for _, pe := range f.BGP.Peers {
			other := p.PeerNodeOf(dev, pe)
			if other == "" {
				continue
			}
			rk, ok := p.NodeKind(other)
			if !ok {
				continue
			}
			k := edgeKinds{local: lk, remote: rk}
			out[k] = append(out[k], peerObservation{device: dev, peer: pe, grouped: pe.Group != ""})
		}
	}
	return out
}

// MissingPeerGroup flags an ungrouped peer whose like-for-like sessions
// elsewhere in the network are all grouped. The quorum is strict — at
// least two grouped sessions on OTHER devices and zero ungrouped ones —
// because many designs legitimately leave a session class ungrouped
// (e.g. backbone-to-backbone), and those classes then carry ungrouped
// witnesses that veto the finding.
var MissingPeerGroup = &Analyzer{
	Name:  "missing-peer-group",
	Doc:   "an ungrouped peer where all comparable sessions use a peer group",
	Class: ClassMissingPeerGroup,
	Run: func(p *Pass) {
		if p.Topo == nil {
			return
		}
		byKinds := collectPeerObservations(p)
		keys := make([]edgeKinds, 0, len(byKinds))
		for k := range byKinds {
			keys = append(keys, k)
		}
		sort.Slice(keys, func(i, j int) bool {
			if keys[i].local != keys[j].local {
				return keys[i].local < keys[j].local
			}
			return keys[i].remote < keys[j].remote
		})
		for _, k := range keys {
			// The witnesses on other devices are the kind's counts less the
			// observation's own device's.
			obs := byKinds[k]
			type tally struct{ grouped, ungrouped int }
			var all tally
			byDevice := map[string]tally{}
			for _, w := range obs {
				t := byDevice[w.device]
				if w.grouped {
					all.grouped++
					t.grouped++
				} else {
					all.ungrouped++
					t.ungrouped++
				}
				byDevice[w.device] = t
			}
			for _, o := range obs {
				if o.grouped || o.peer.ASNLine <= 0 {
					continue
				}
				own := byDevice[o.device]
				groupedOthers, ungroupedOthers := all.grouped-own.grouped, all.ungrouped-own.ungrouped
				if groupedOthers >= 2 && ungroupedOthers == 0 {
					p.Report(Diagnostic{
						Line:     netcfg.LineRef{Device: o.device, Line: o.peer.ASNLine},
						Severity: Warning,
						Message: sprintf("peer %s is not in a peer group, but all %d comparable sessions on other devices are",
							o.peer.Addr, groupedOthers),
					})
				}
			}
		}
	},
}

// ExtraGroupItem flags a peer placed into a group whose other members
// (network-wide, by group name) face a different kind of neighbor. Quorum:
// the dominant neighbor kind must hold at least three members and at
// least 75% of the group before minority members are flagged, so small
// legitimately-mixed groups stay quiet.
var ExtraGroupItem = &Analyzer{
	Name:  "extra-group-item",
	Doc:   "a peer group member faces a different neighbor kind than the rest of the group",
	Class: ClassExtraPeerGroupItem,
	Run: func(p *Pass) {
		if p.Topo == nil {
			return
		}
		type member struct {
			device string
			peer   *netcfg.Peer
			kind   topo.Kind
		}
		byGroup := map[string][]member{}
		for _, dev := range p.Devices() {
			f := p.File(dev)
			if f == nil || f.BGP == nil {
				continue
			}
			for _, pe := range f.BGP.Peers {
				if pe.Group == "" {
					continue
				}
				other := p.PeerNodeOf(dev, pe)
				if other == "" {
					continue
				}
				rk, ok := p.NodeKind(other)
				if !ok {
					continue
				}
				byGroup[pe.Group] = append(byGroup[pe.Group], member{device: dev, peer: pe, kind: rk})
			}
		}
		names := make([]string, 0, len(byGroup))
		for g := range byGroup {
			names = append(names, g)
		}
		sort.Strings(names)
		for _, g := range names {
			members := byGroup[g]
			counts := map[topo.Kind]int{}
			for _, m := range members {
				counts[m.kind]++
			}
			var domKind topo.Kind
			dom := 0
			// Ties break toward the smaller Kind so the dominant kind — and
			// therefore which members get flagged — never depends on map
			// iteration order.
			for k, c := range counts { //acrvet:ordered
				if c > dom || (c == dom && k < domKind) {
					domKind, dom = k, c
				}
			}
			if dom < 3 || dom*4 < len(members)*3 {
				continue
			}
			for _, m := range members {
				if m.kind != domKind && m.peer.GroupLine > 0 {
					p.Report(Diagnostic{
						Line:     netcfg.LineRef{Device: m.device, Line: m.peer.GroupLine},
						Severity: Warning,
						Message: sprintf("peer %s joins group %q, but %d of %d members of that group face %s neighbors and this one faces a %s",
							m.peer.Addr, g, dom, len(members), domKind, m.kind),
					})
				}
			}
		}
	},
}

// PrefixListConsistency flags a prefix-list that is missing an entry its
// same-kind siblings agree on: when the same-named list appears on at
// least three devices of one kind and an entry shape (action, prefix,
// ge/le) is present on at least two others covering at least 75% of them,
// a device without it is flagged. The finding anchors at the attach sites
// of the policies that match the list — the lines whose behavior the
// missing entry changes — falling back to the list's first entry.
var PrefixListConsistency = &Analyzer{
	Name:  "prefix-list-consistency",
	Doc:   "a prefix-list lacks an entry its same-kind siblings agree on",
	Class: ClassMissingPrefixListItem,
	Run: func(p *Pass) {
		if p.Topo == nil {
			return
		}
		// holders[kind][list name] = devices of that kind defining the list.
		holders := map[topo.Kind]map[string][]string{}
		for _, dev := range p.Devices() {
			f := p.File(dev)
			k, ok := p.NodeKind(dev)
			if f == nil || !ok {
				continue
			}
			for name := range f.PrefixListNames() {
				if holders[k] == nil {
					holders[k] = map[string][]string{}
				}
				holders[k][name] = append(holders[k][name], dev)
			}
		}
		kinds := make([]topo.Kind, 0, len(holders))
		for k := range holders {
			kinds = append(kinds, k)
		}
		sort.Slice(kinds, func(i, j int) bool { return kinds[i] < kinds[j] })
		for _, k := range kinds {
			names := make([]string, 0, len(holders[k]))
			for n := range holders[k] {
				names = append(names, n)
			}
			sort.Strings(names)
			for _, name := range names {
				devs := holders[k][name]
				if len(devs) < 3 {
					continue
				}
				shapes := map[entryContent]map[string][]string{} // shape -> dev set (sorted later)
				for _, dev := range devs {
					for _, e := range p.File(dev).PrefixListEntries(name) {
						key := contentOf(e)
						if shapes[key] == nil {
							shapes[key] = map[string][]string{}
						}
						shapes[key][dev] = nil
					}
				}
				for _, dev := range devs {
					var missing []string
					for key, on := range shapes { //acrvet:ordered — collected then sorted below
						if _, ok := on[dev]; ok {
							continue
						}
						others := len(on)
						if others >= 2 && others*4 >= (len(devs)-1)*3 {
							missing = append(missing, key.String())
						}
					}
					if len(missing) == 0 {
						continue
					}
					sort.Strings(missing)
					f := p.File(dev)
					for _, line := range listAnchorLines(f, name) {
						p.Report(Diagnostic{
							Line:     netcfg.LineRef{Device: dev, Line: line},
							Severity: Warning,
							Message: sprintf("prefix-list %q is missing %d entr%s its peer %s devices agree on (e.g. %s)",
								name, len(missing), plural(len(missing), "y", "ies"), k, missing[0]),
						})
					}
				}
			}
		}
	},
}

// entryContent is the content identity of a prefix-list entry: action,
// masked prefix, and bounds — the Index is layout, not meaning.
type entryContent struct {
	permit bool
	prefix netip.Prefix
	ge, le int
}

func contentOf(e *netcfg.PrefixList) entryContent {
	return entryContent{e.Permit, e.Prefix.Masked(), e.GE, e.LE}
}

// String renders the content in findings: "permit 10.0.0.0/8 ge=0 le=24".
func (s entryContent) String() string {
	action := "deny"
	if s.permit {
		action = "permit"
	}
	return sprintf("%s %s ge=%d le=%d", action, s.prefix, s.ge, s.le)
}

// listAnchorLines returns where a finding about the named list should
// anchor on device f: the attach sites of every policy that matches the
// list, else the list's first entry line.
func listAnchorLines(f *netcfg.File, name string) []int {
	matching := map[string]bool{}
	for _, pol := range f.Policies {
		for _, m := range pol.Matches {
			if m.Kind == netcfg.MatchIPPrefix && m.PrefixList == name {
				matching[pol.Name] = true
			}
		}
	}
	var lines []int
	for _, site := range f.PolicyAttachSites() {
		if matching[site.Policy] && site.Line > 0 {
			lines = append(lines, site.Line)
		}
	}
	if len(lines) == 0 {
		if entries := f.PrefixListEntries(name); len(entries) > 0 && entries[0].Line > 0 {
			lines = append(lines, entries[0].Line)
		}
	}
	sort.Ints(lines)
	return lines
}

func plural(n int, one, many string) string {
	if n == 1 {
		return one
	}
	return many
}
