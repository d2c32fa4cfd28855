package netcfg

import (
	"cmp"
	"net/netip"
	"slices"
	"strings"
)

// File is the parsed form of one device's configuration. Every node records
// the 1-based line (and for blocks, the end line) it was parsed from, so
// analyses can translate between semantic constructs and LineRefs.
type File struct {
	Device string
	// NumLines is the length of the parsed document, blank and comment
	// lines included: the device's extent in a LineSpace.
	NumLines int

	BGP         *BGPBlock
	Policies    []*RoutePolicy // in file order; one entry per "node"
	PrefixLists []*PrefixList  // in file order, grouped by name on demand
	Statics     []*StaticRoute
	PBRPolicies []*PBRPolicy
	Interfaces  []*Interface

	// lists and policies are PrefixLists and Policies sorted by name, then
	// by index or node, stable on file order: the index the lookup helpers
	// below search. Parse builds them once; a File is not modified after
	// Parse returns, so they need no lock.
	lists    []*PrefixList
	policies []*RoutePolicy
}

// index builds the lookup indexes over the parsed file: the sorted lists
// and policies, and each peer's session lines.
func (f *File) index() {
	f.lists = slices.Clone(f.PrefixLists)
	slices.SortStableFunc(f.lists, func(a, b *PrefixList) int {
		return cmp.Or(strings.Compare(a.Name, b.Name), cmp.Compare(a.Index, b.Index))
	})
	f.policies = slices.Clone(f.Policies)
	slices.SortStableFunc(f.policies, func(a, b *RoutePolicy) int {
		return cmp.Or(strings.Compare(a.Name, b.Name), cmp.Compare(a.Node, b.Node))
	})
	if f.BGP == nil {
		return
	}
	lines := make([]LineRef, 0, 3*len(f.BGP.Peers))
	for _, p := range f.BGP.Peers {
		start := len(lines)
		if p.ASNLine > 0 {
			lines = append(lines, LineRef{f.Device, p.ASNLine})
		}
		if p.GroupLine > 0 {
			lines = append(lines, LineRef{f.Device, p.GroupLine})
		}
		if p.Group != "" {
			if g := f.GroupByName(p.Group); g != nil {
				lines = append(lines, LineRef{f.Device, g.Line})
			}
		}
		if len(lines) > start {
			p.sessionLines = lines[start:len(lines):len(lines)]
		}
	}
}

// named returns the run of s whose names equal name, s being sorted by
// name, capacity-clipped so that appending to it copies.
func named[T any](s []T, nameOf func(T) string, name string) []T {
	i, ok := slices.BinarySearchFunc(s, name, func(x T, name string) int { return strings.Compare(nameOf(x), name) })
	if !ok {
		return nil
	}
	j := i + 1
	for j < len(s) && nameOf(s[j]) == name {
		j++
	}
	return s[i:j:j]
}

// BGPBlock is the `bgp <asn>` block.
type BGPBlock struct {
	Line, End    int
	ASN          uint32
	RouterID     netip.Addr
	RouterIDLine int

	Groups       []*PeerGroup
	Peers        []*Peer
	Networks     []*NetworkStmt
	Redistribute *RedistributeStmt // nil when absent
}

// PeerGroup is a named peer group with optional attached policies.
type PeerGroup struct {
	Line     int
	Name     string
	External bool
	Policies []*PolicyAttach
}

// Peer is a single BGP neighbor assembled from its `peer <ip> ...` lines.
type Peer struct {
	Addr      netip.Addr
	ASN       uint32
	ASNLine   int // line of `peer <ip> as-number <asn>`
	Group     string
	GroupLine int // 0 when the peer is not in a group
	Policies  []*PolicyAttach

	// sessionLines are what PeerSessionLines returns, built by Parse.
	sessionLines []LineRef
}

// PolicyAttach records a `... route-policy <name> (import|export)` line.
type PolicyAttach struct {
	Line      int
	Policy    string
	Direction Direction
}

// Direction distinguishes import from export policy application.
type Direction uint8

// Policy application directions.
const (
	Import Direction = iota
	Export
)

// String renders the direction keyword.
func (d Direction) String() string {
	if d == Export {
		return "export"
	}
	return "import"
}

// NetworkStmt is a `network <prefix>` origination line.
type NetworkStmt struct {
	Line   int
	Prefix netip.Prefix
}

// RedistributeStmt is a `redistribute static [route-policy <name>]` line.
type RedistributeStmt struct {
	Line   int
	Policy string // empty when no policy is attached
}

// RoutePolicy is one `route-policy <name> <action> node <n>` block. A policy
// with several nodes parses into several RoutePolicy values sharing a Name;
// nodes evaluate in ascending Node order, first matching node wins.
type RoutePolicy struct {
	Line, End int
	Name      string
	Permit    bool
	Node      int
	Matches   []*MatchClause
	Applies   []*ApplyClause
}

// MatchKind enumerates match clause types.
type MatchKind uint8

// Match clause kinds.
const (
	MatchIPPrefix MatchKind = iota // match ip-prefix <list>
)

// MatchClause is one `match ...` line inside a route-policy node.
type MatchClause struct {
	Line       int
	Kind       MatchKind
	PrefixList string
}

// ApplyKind enumerates apply clause types.
type ApplyKind uint8

// Apply clause kinds.
const (
	ApplyASPathOverwrite ApplyKind = iota // apply as-path overwrite <asn>
	ApplyASPathPrepend                    // apply as-path prepend <asn> [count]
	ApplyLocalPref                        // apply local-preference <n>
	ApplyMED                              // apply med <n>
)

// ApplyClause is one `apply ...` line inside a route-policy node.
type ApplyClause struct {
	Line  int
	Kind  ApplyKind
	ASN   uint32 // for as-path clauses
	Count int    // for prepend
	Value uint32 // for local-preference / med
}

// PrefixList is one `ip prefix-list ...` entry line. Entries with the same
// Name form a list evaluated in ascending Index order, first match wins; a
// list with no matching entry denies.
type PrefixList struct {
	Line   int
	Name   string
	Index  int
	Permit bool
	Prefix netip.Prefix
	GE     int // 0 means unset
	LE     int // 0 means unset
}

// Matches reports whether this single entry matches prefix p, honoring the
// ge/le bounds: with neither, the entry matches only exactly; with bounds,
// p must be contained in Prefix and have length within [ge, le] (a missing
// bound defaults to the entry's own length for ge and to the max for le
// only when ge is present — mirroring common vendor semantics).
func (e *PrefixList) Matches(p netip.Prefix) bool {
	if e.GE == 0 && e.LE == 0 {
		return p == e.Prefix.Masked()
	}
	base := e.Prefix.Masked()
	if !base.Contains(p.Addr()) || p.Bits() < base.Bits() {
		return false
	}
	ge := e.GE
	if ge == 0 {
		ge = base.Bits()
	}
	le := e.LE
	if le == 0 {
		le = p.Addr().BitLen()
	}
	return p.Bits() >= ge && p.Bits() <= le
}

// StaticRoute is an `ip route static ...` line.
type StaticRoute struct {
	Line    int
	Prefix  netip.Prefix
	NextHop netip.Addr // invalid (zero) when Null0
	Null0   bool
}

// PBRPolicy is a `pbr policy <name>` block.
type PBRPolicy struct {
	Line, End int
	Name      string
	Rules     []*PBRRule
}

// PBRRule is a `rule <n> (permit|deny)` block inside a PBR policy. Rules
// evaluate in ascending Index order; the first rule whose matches all hold
// applies. A permit rule applies its action; a deny rule exempts the packet
// from the policy.
type PBRRule struct {
	Line, End int
	Index     int
	Permit    bool

	MatchSource  *PrefixMatch // nil when absent
	MatchDest    *PrefixMatch
	MatchProto   *ProtoMatch
	MatchDstPort *PortMatch

	ApplyNextHop *NextHopApply
	ApplyDrop    *DropApply
}

// PrefixMatch is a `match source|destination <prefix>` line.
type PrefixMatch struct {
	Line   int
	Prefix netip.Prefix
}

// ProtoMatch is a `match protocol <tcp|udp|any>` line.
type ProtoMatch struct {
	Line  int
	Proto string
}

// PortMatch is a `match dst-port <n>` line.
type PortMatch struct {
	Line int
	Port uint16
}

// NextHopApply is an `apply next-hop <ip>` line.
type NextHopApply struct {
	Line    int
	NextHop netip.Addr
}

// DropApply is an `apply drop` line.
type DropApply struct {
	Line int
}

// Interface is an `interface <name>` block.
type Interface struct {
	Line, End int
	Name      string
	Addr      netip.Prefix // invalid when no address configured
	AddrLine  int
	PBRPolicy string // policy applied to traffic entering this interface
	PBRLine   int
	Shutdown  bool
	ShutLine  int
}

// --- lookup helpers -------------------------------------------------------

// PrefixListEntries returns the entries of the named prefix list in
// ascending index order (stable on line number for equal indexes). The
// slice is the file's own index, read-only: appending to it copies.
func (f *File) PrefixListEntries(name string) []*PrefixList {
	return named(f.lists, func(e *PrefixList) string { return e.Name }, name)
}

// PolicyNodes returns the nodes of the named route-policy in ascending node
// order (stable on line number for equal nodes). The slice is the file's
// own index, read-only: appending to it copies.
func (f *File) PolicyNodes(name string) []*RoutePolicy {
	return named(f.policies, func(p *RoutePolicy) string { return p.Name }, name)
}

// PBRPolicy returns the named PBR policy, or nil.
func (f *File) PBRPolicyByName(name string) *PBRPolicy {
	for _, p := range f.PBRPolicies {
		if p.Name == name {
			return p
		}
	}
	return nil
}

// InterfaceByName returns the named interface block, or nil.
func (f *File) InterfaceByName(name string) *Interface {
	for _, i := range f.Interfaces {
		if i.Name == name {
			return i
		}
	}
	return nil
}

// PeerByAddr returns the peer with the given neighbor address, or nil.
func (f *File) PeerByAddr(a netip.Addr) *Peer {
	if f.BGP == nil {
		return nil
	}
	for _, p := range f.BGP.Peers {
		if p.Addr == a {
			return p
		}
	}
	return nil
}

// GroupByName returns the named peer group, or nil.
func (f *File) GroupByName(name string) *PeerGroup {
	if f.BGP == nil {
		return nil
	}
	for _, g := range f.BGP.Groups {
		if g.Name == name {
			return g
		}
	}
	return nil
}

// EffectivePolicies returns the policy attachments that apply to peer p in
// direction d: the peer's own attachments first, then its group's. This is
// the order the simulator evaluates them in (first attachment that changes
// or rejects the route wins per clause semantics; in practice our policies
// are evaluated in sequence).
func (f *File) EffectivePolicies(p *Peer, d Direction) []*PolicyAttach {
	var out []*PolicyAttach
	for _, a := range p.Policies {
		if a.Direction == d {
			out = append(out, a)
		}
	}
	if p.Group != "" {
		if g := f.GroupByName(p.Group); g != nil {
			for _, a := range g.Policies {
				if a.Direction == d {
					out = append(out, a)
				}
			}
		}
	}
	return out
}

// PeerSessionLines returns the LineRefs that establish the session with
// peer p, one of f's peers: its as-number line and, when grouped, the group
// membership line and the group declaration line. Provenance tags route
// imports with these. The slice is read-only and capacity-clipped.
func (f *File) PeerSessionLines(p *Peer) []LineRef { return p.sessionLines }

// --- reference-resolution helpers ------------------------------------------
//
// Static checks (dangling references, shadowing, cross-device consistency)
// live in internal/analysis; the helpers below give analyses a uniform view
// of the file's name spaces and reference sites. The former File.Validate
// is now analysis.Validate, a thin wrapper over the analyzer registry.

// PolicyNames returns the set of route-policy names defined in the file.
func (f *File) PolicyNames() map[string]bool {
	out := map[string]bool{}
	for _, p := range f.Policies {
		out[p.Name] = true
	}
	return out
}

// PrefixListNames returns the set of prefix-list names with at least one
// entry in the file.
func (f *File) PrefixListNames() map[string]bool {
	out := map[string]bool{}
	for _, e := range f.PrefixLists {
		out[e.Name] = true
	}
	return out
}

// AttachSite is one place a route-policy is referenced from: a peer, a
// peer group, or the redistribute statement.
type AttachSite struct {
	// Where describes the attachment point for messages, e.g.
	// `peer 10.0.0.2` or `peer-group PoPFacing`.
	Where string
	// Line is the attachment line; Policy the referenced policy name.
	Line   int
	Policy string
	// Direction is meaningful for peer/group attaches only.
	Direction Direction
}

// PolicyAttachSites enumerates every route-policy reference in the file, in
// declaration order: per-peer attaches, per-group attaches, and the
// redistribute statement's policy (when present).
func (f *File) PolicyAttachSites() []AttachSite {
	var out []AttachSite
	if f.BGP == nil {
		return out
	}
	for _, p := range f.BGP.Peers {
		for _, a := range p.Policies {
			out = append(out, AttachSite{Where: "peer " + p.Addr.String(), Line: a.Line, Policy: a.Policy, Direction: a.Direction})
		}
	}
	for _, g := range f.BGP.Groups {
		for _, a := range g.Policies {
			out = append(out, AttachSite{Where: "peer-group " + g.Name, Line: a.Line, Policy: a.Policy, Direction: a.Direction})
		}
	}
	if r := f.BGP.Redistribute; r != nil && r.Policy != "" {
		out = append(out, AttachSite{Where: "redistribute static", Line: r.Line, Policy: r.Policy, Direction: Export})
	}
	return out
}

// EffectiveRange returns the closed range of prefix lengths this entry can
// match, mirroring Matches: an entry without bounds matches only its own
// exact prefix; with bounds, lengths run from ge (default: the entry's own
// length) to le (default: the address family's bit length).
func (e *PrefixList) EffectiveRange() (ge, le int) {
	if !e.Prefix.IsValid() {
		return 0, -1 // empty range: matches nothing
	}
	bits := e.Prefix.Masked().Bits()
	if e.GE == 0 && e.LE == 0 {
		return bits, bits
	}
	ge, le = e.GE, e.LE
	if ge < bits {
		ge = bits // containment already forces p.Bits() >= base.Bits()
	}
	if le == 0 {
		le = e.Prefix.Addr().BitLen()
	}
	return ge, le
}

// Covers reports whether every prefix matched by entry o is also matched by
// entry e — the shadowing relation: when e precedes o in a first-match-wins
// list and e.Covers(o), entry o is unreachable.
func (e *PrefixList) Covers(o *PrefixList) bool {
	if !e.Prefix.IsValid() || !o.Prefix.IsValid() {
		return false
	}
	eBase, oBase := e.Prefix.Masked(), o.Prefix.Masked()
	if eBase.Addr().Is4() != oBase.Addr().Is4() {
		return false
	}
	if !eBase.Contains(oBase.Addr()) || oBase.Bits() < eBase.Bits() {
		return false
	}
	ege, ele := e.EffectiveRange()
	oge, ole := o.EffectiveRange()
	if ole < oge {
		return false // o matches nothing; nothing to shadow
	}
	return oge >= ege && ole <= ele
}
