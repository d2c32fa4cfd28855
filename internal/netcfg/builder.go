package netcfg

import (
	"fmt"
	"net/netip"
	"strconv"
)

// Builder constructs well-formed configurations programmatically. Topology
// generators use it so that generated text always parses cleanly; it is
// also the printer for synthesized repairs when a whole block is inserted.
type Builder struct {
	device string
	lines  []string
}

// NewBuilder returns a Builder for the named device.
func NewBuilder(device string) *Builder {
	return &Builder{device: device}
}

// Raw appends a raw top-level line (used sparingly, e.g. comments).
func (b *Builder) Raw(line string) *Builder {
	b.lines = append(b.lines, line)
	return b
}

// Comment appends a '# ...' comment line.
func (b *Builder) Comment(format string, args ...any) *Builder {
	return b.Raw("# " + fmt.Sprintf(format, args...))
}

// Build returns the accumulated Config.
func (b *Builder) Build() *Config { return FromLines(b.device, b.lines) }

// BGPBuilder accumulates the body of a `bgp` block.
type BGPBuilder struct {
	parent *Builder
}

// BGP opens a `bgp <asn>` block; statements added through the returned
// BGPBuilder are indented one level.
func (b *Builder) BGP(asn uint32) *BGPBuilder {
	b.lines = append(b.lines, "bgp "+strconv.FormatUint(uint64(asn), 10))
	return &BGPBuilder{parent: b}
}

// add appends a body line, indented one level.
func (g *BGPBuilder) add(line string) *BGPBuilder {
	g.parent.lines = append(g.parent.lines, " "+line)
	return g
}

// RouterID emits `router-id <ip>`.
func (g *BGPBuilder) RouterID(a netip.Addr) *BGPBuilder { return g.add("router-id " + a.String()) }

// PeerGroup emits `peer-group <name> [external]`.
func (g *BGPBuilder) PeerGroup(name string, external bool) *BGPBuilder {
	if external {
		return g.add("peer-group " + name + " external")
	}
	return g.add("peer-group " + name)
}

// GroupPolicy emits `peer-group <name> route-policy <pol> <dir>`.
func (g *BGPBuilder) GroupPolicy(group, policy string, d Direction) *BGPBuilder {
	return g.add("peer-group " + group + " route-policy " + policy + " " + d.String())
}

// Peer emits `peer <ip> as-number <asn>`.
func (g *BGPBuilder) Peer(addr netip.Addr, asn uint32) *BGPBuilder {
	return g.add("peer " + addr.String() + " as-number " + strconv.FormatUint(uint64(asn), 10))
}

// PeerInGroup emits `peer <ip> group <name>`.
func (g *BGPBuilder) PeerInGroup(addr netip.Addr, group string) *BGPBuilder {
	return g.add("peer " + addr.String() + " group " + group)
}

// PeerPolicy emits `peer <ip> route-policy <pol> <dir>`.
func (g *BGPBuilder) PeerPolicy(addr netip.Addr, policy string, d Direction) *BGPBuilder {
	return g.add("peer " + addr.String() + " route-policy " + policy + " " + d.String())
}

// Network emits `network <prefix>`.
func (g *BGPBuilder) Network(p netip.Prefix) *BGPBuilder { return g.add("network " + p.String()) }

// RedistributeStatic emits `redistribute static [route-policy <pol>]`.
func (g *BGPBuilder) RedistributeStatic(policy string) *BGPBuilder {
	if policy == "" {
		return g.add("redistribute static")
	}
	return g.add("redistribute static route-policy " + policy)
}

// End closes the block, returning the parent Builder.
func (g *BGPBuilder) End() *Builder { return g.parent }

// PolicyBuilder accumulates one route-policy node.
type PolicyBuilder struct {
	parent *Builder
}

// RoutePolicy opens a `route-policy <name> <action> node <n>` block.
func (b *Builder) RoutePolicy(name string, permit bool, node int) *PolicyBuilder {
	action := "deny"
	if permit {
		action = "permit"
	}
	b.lines = append(b.lines, "route-policy "+name+" "+action+" node "+strconv.Itoa(node))
	return &PolicyBuilder{parent: b}
}

// add appends a body line, indented one level.
func (pb *PolicyBuilder) add(line string) *PolicyBuilder {
	pb.parent.lines = append(pb.parent.lines, " "+line)
	return pb
}

// MatchIPPrefix emits `match ip-prefix <list>`.
func (pb *PolicyBuilder) MatchIPPrefix(list string) *PolicyBuilder {
	return pb.add("match ip-prefix " + list)
}

// ApplyASPathOverwrite emits `apply as-path overwrite <asn>`.
func (pb *PolicyBuilder) ApplyASPathOverwrite(asn uint32) *PolicyBuilder {
	return pb.add("apply as-path overwrite " + strconv.FormatUint(uint64(asn), 10))
}

// ApplyASPathPrepend emits `apply as-path prepend <asn> [count]`.
func (pb *PolicyBuilder) ApplyASPathPrepend(asn uint32, count int) *PolicyBuilder {
	if count == 1 {
		return pb.add("apply as-path prepend " + strconv.FormatUint(uint64(asn), 10))
	}
	return pb.add("apply as-path prepend " + strconv.FormatUint(uint64(asn), 10) + " " + strconv.Itoa(count))
}

// ApplyLocalPref emits `apply local-preference <n>`.
func (pb *PolicyBuilder) ApplyLocalPref(v uint32) *PolicyBuilder {
	return pb.add("apply local-preference " + strconv.FormatUint(uint64(v), 10))
}

// ApplyMED emits `apply med <n>`.
func (pb *PolicyBuilder) ApplyMED(v uint32) *PolicyBuilder {
	return pb.add("apply med " + strconv.FormatUint(uint64(v), 10))
}

// End closes the block.
func (pb *PolicyBuilder) End() *Builder { return pb.parent }

// PrefixListEntry emits a single prefix-list entry line.
func (b *Builder) PrefixListEntry(name string, index int, permit bool, p netip.Prefix, ge, le int) *Builder {
	b.lines = append(b.lines, FormatPrefixListEntry(name, index, permit, p, ge, le))
	return b
}

// FormatPrefixListEntry renders a prefix-list entry line; change operators
// use it to synthesize insertions.
func FormatPrefixListEntry(name string, index int, permit bool, p netip.Prefix, ge, le int) string {
	action := " deny "
	if permit {
		action = " permit "
	}
	var buf [96]byte // the line is built on the stack, then copied once
	b := append(append(buf[:0], "ip prefix-list "...), name...)
	b = strconv.AppendInt(append(b, " index "...), int64(index), 10)
	b = appendPrefix(append(b, action...), p)
	if ge > 0 {
		b = strconv.AppendInt(append(b, " ge "...), int64(ge), 10)
	}
	if le > 0 {
		b = strconv.AppendInt(append(b, " le "...), int64(le), 10)
	}
	return string(b)
}

// appendPrefix appends p as fmt's %s verb renders it: p.String(), which
// names an invalid prefix "invalid Prefix".
func appendPrefix(b []byte, p netip.Prefix) []byte {
	if !p.IsValid() {
		return append(b, "invalid Prefix"...)
	}
	return p.AppendTo(b)
}

// StaticRoute emits `ip route static <prefix> next-hop <ip>`.
func (b *Builder) StaticRoute(p netip.Prefix, nh netip.Addr) *Builder {
	b.lines = append(b.lines, "ip route static "+p.String()+" next-hop "+nh.String())
	return b
}

// StaticNull emits `ip route static <prefix> null0`.
func (b *Builder) StaticNull(p netip.Prefix) *Builder {
	b.lines = append(b.lines, "ip route static "+p.String()+" null0")
	return b
}

// PBRBuilder accumulates a PBR policy block.
type PBRBuilder struct {
	parent *Builder
}

// PBRPolicy opens a `pbr policy <name>` block.
func (b *Builder) PBRPolicy(name string) *PBRBuilder {
	b.lines = append(b.lines, "pbr policy "+name)
	return &PBRBuilder{parent: b}
}

// Rule opens a `rule <n> (permit|deny)` sub-block (indent level 1).
func (pb *PBRBuilder) Rule(index int, permit bool) *PBRBuilder {
	action := "deny"
	if permit {
		action = "permit"
	}
	pb.parent.lines = append(pb.parent.lines, " rule "+strconv.Itoa(index)+" "+action)
	return pb
}

// add appends a rule body line, indented two levels.
func (pb *PBRBuilder) add(line string) *PBRBuilder {
	pb.parent.lines = append(pb.parent.lines, "  "+line)
	return pb
}

// MatchSource emits `match source <prefix>` in the current rule.
func (pb *PBRBuilder) MatchSource(p netip.Prefix) *PBRBuilder {
	return pb.add("match source " + p.String())
}

// MatchDest emits `match destination <prefix>` in the current rule.
func (pb *PBRBuilder) MatchDest(p netip.Prefix) *PBRBuilder {
	return pb.add("match destination " + p.String())
}

// MatchProtocol emits `match protocol <proto>` in the current rule.
func (pb *PBRBuilder) MatchProtocol(proto string) *PBRBuilder {
	return pb.add("match protocol " + proto)
}

// MatchDstPort emits `match dst-port <n>` in the current rule.
func (pb *PBRBuilder) MatchDstPort(port uint16) *PBRBuilder {
	return pb.add("match dst-port " + strconv.Itoa(int(port)))
}

// ApplyNextHop emits `apply next-hop <ip>` in the current rule.
func (pb *PBRBuilder) ApplyNextHop(nh netip.Addr) *PBRBuilder {
	return pb.add("apply next-hop " + nh.String())
}

// ApplyDrop emits `apply drop` in the current rule.
func (pb *PBRBuilder) ApplyDrop() *PBRBuilder { return pb.add("apply drop") }

// End closes the policy block.
func (pb *PBRBuilder) End() *Builder { return pb.parent }

// InterfaceBuilder accumulates an interface block.
type InterfaceBuilder struct {
	parent *Builder
}

// Interface opens an `interface <name>` block.
func (b *Builder) Interface(name string) *InterfaceBuilder {
	b.lines = append(b.lines, "interface "+name)
	return &InterfaceBuilder{parent: b}
}

// add appends a body line, indented one level.
func (ib *InterfaceBuilder) add(line string) *InterfaceBuilder {
	ib.parent.lines = append(ib.parent.lines, " "+line)
	return ib
}

// Address emits `ip address <prefix>` (prefix keeps its host bits).
func (ib *InterfaceBuilder) Address(p netip.Prefix) *InterfaceBuilder {
	return ib.add("ip address " + p.String())
}

// PBR emits `pbr policy <name>`.
func (ib *InterfaceBuilder) PBR(name string) *InterfaceBuilder { return ib.add("pbr policy " + name) }

// Shutdown emits `shutdown`.
func (ib *InterfaceBuilder) Shutdown() *InterfaceBuilder { return ib.add("shutdown") }

// End closes the block.
func (ib *InterfaceBuilder) End() *Builder { return ib.parent }

// FormatPeerPolicyLine renders a `peer ... route-policy ...` body line used
// by change templates when attaching a policy to a peer or group. The
// returned text includes the single-space bgp-block indentation.
func FormatPeerPolicyLine(target string, policy string, d Direction) string {
	return " peer " + target + " route-policy " + policy + " " + d.String()
}

// FormatGroupPolicyLine renders a `peer-group <g> route-policy ...` body
// line (with bgp-block indentation).
func FormatGroupPolicyLine(group, policy string, d Direction) string {
	return " peer-group " + group + " route-policy " + policy + " " + d.String()
}
