// Package dataplane forwards model packets over a simulated control-plane
// state: longest-prefix match across BGP-selected routes and static routes
// (statics win ties, as with administrative distance), policy-based
// routing applied at ingress interfaces, local delivery at originating
// edge nodes, and loop/blackhole detection on traces. Traces record the
// configuration lines they execute (PBR rules, static routes), extending
// the provenance-based coverage the SBFL localizer consumes to dataplane
// behavior.
package dataplane

import (
	"fmt"
	"net/netip"
	"strings"

	"acr/internal/bgp"
	"acr/internal/netcfg"
	"acr/internal/topo"
)

// Packet is the 5-tuple the paper samples from each property's header
// space (§4.1).
type Packet struct {
	Src, Dst netip.Addr
	Proto    string // "tcp" or "udp"
	SrcPort  uint16
	DstPort  uint16
}

// String renders the packet for reports.
func (p Packet) String() string {
	return fmt.Sprintf("%s:%d->%s:%d/%s", p.Src, p.SrcPort, p.Dst, p.DstPort, p.Proto)
}

// Disposition is a trace's final outcome.
type Disposition uint8

// Trace outcomes.
const (
	Delivered Disposition = iota
	Looped
	Blackholed
	Dropped // explicit PBR drop
)

// String names the disposition.
func (d Disposition) String() string {
	switch d {
	case Delivered:
		return "delivered"
	case Looped:
		return "looped"
	case Blackholed:
		return "blackholed"
	case Dropped:
		return "dropped"
	}
	return "unknown"
}

// TraceResult is the outcome of forwarding one packet.
type TraceResult struct {
	Outcome Disposition
	// Path lists the routers traversed in order, starting at the injection
	// point; the final element is where the packet was delivered, dropped,
	// blackholed, or where the loop closed.
	Path []string
	// Lines are the dataplane configuration lines executed (PBR and static
	// routes); control-plane lines come from provenance.
	Lines []netcfg.LineRef

	// why is what ends a non-delivered trace; Reason renders it.
	why reason
}

// reason records why a trace was not delivered: a code and the operands
// its text names. The router is where the trace ended.
type reason struct {
	code   reasonCode
	router string
	what   string       // the next-hop kind, for the next-hop codes
	prefix netip.Prefix // noAttachment: the originated prefix
	addr   netip.Addr   // the destination, or the unusable next hop
}

type reasonCode uint8

const (
	noReason reasonCode = iota
	forwardingLoop
	ttlExceeded
	pbrDrop
	noAttachment
	staticNull0
	noRoute
	invalidNextHop
	foreignNextHop
)

// Reason is a human-readable explanation for non-delivery ("" for a
// delivered trace). It is rendered on each call.
func (t *TraceResult) Reason() string {
	w := t.why
	switch w.code {
	case forwardingLoop:
		return "forwarding loop at " + w.router
	case ttlExceeded:
		return "TTL exceeded"
	case pbrDrop:
		return "PBR drop at " + w.router
	case noAttachment:
		return fmt.Sprintf("%s originates %s but has no attachment for %s", w.router, w.prefix, w.addr)
	case staticNull0:
		return "static null0 at " + w.router
	case noRoute:
		return fmt.Sprintf("no route for %s at %s", w.addr, w.router)
	case invalidNextHop:
		return fmt.Sprintf("invalid %s at %s", w.what, w.router)
	case foreignNextHop:
		return fmt.Sprintf("%s %s at %s is not a connected neighbor", w.what, w.addr, w.router)
	}
	return ""
}

// PathString renders the path as "A -> B -> C".
func (t *TraceResult) PathString() string { return strings.Join(t.Path, " -> ") }

// Visits reports whether router name is on the path.
func (t *TraceResult) Visits(name string) bool {
	for _, n := range t.Path {
		if n == name {
			return true
		}
	}
	return false
}

const maxTTL = 64

// Trace forwards pkt starting at router `from`, under the per-prefix
// control-plane state `routes` (best route per router for the prefix
// containing pkt.Dst; nil entries mean no BGP route). The prefix argument
// is that covering prefix (invalid when the destination is in no
// originated prefix — statics may still forward it).
func Trace(n *bgp.Net, routes map[string]*bgp.Route, prefix netip.Prefix, pkt Packet, from string) *TraceResult {
	// The result and room for a short path are one allocation.
	buf := &struct {
		res  TraceResult
		path [8]string
	}{}
	res := &buf.res
	res.Path = buf.path[:0]
	// ingresses[i] is the interface the packet entered res.Path[i] on: a
	// hop seen before closes a loop.
	var ingressBuf [16]string
	ingresses := ingressBuf[:0]
	cur := from
	ingress := ""
	for ttl := 0; ttl < maxTTL; ttl++ {
		for i, r := range res.Path {
			if r == cur && ingresses[i] == ingress {
				res.Path = append(res.Path, cur)
				res.Outcome = Looped
				res.why = reason{code: forwardingLoop, router: cur}
				return res
			}
		}
		res.Path = append(res.Path, cur)
		ingresses = append(ingresses, ingress)

		next, nextIngress, done := step(n, routes, prefix, pkt, cur, ingress, res)
		if done {
			return res
		}
		cur, ingress = next, nextIngress
	}
	res.Outcome = Looped
	res.why = reason{code: ttlExceeded}
	return res
}

// step executes one forwarding decision. When the packet's journey ends it
// fills res and returns done=true; otherwise it returns the next router
// and the ingress interface there.
func step(n *bgp.Net, routes map[string]*bgp.Route, prefix netip.Prefix, pkt Packet, router, ingress string, res *TraceResult) (string, string, bool) {
	r := n.Routers[router]
	f := r.File
	node := n.Topo.Node(router)

	// 1. Policy-based routing on the ingress interface.
	if ingress != "" {
		if itf := f.InterfaceByName(ingress); itf != nil && itf.PBRPolicy != "" {
			if pol := f.PBRPolicyByName(itf.PBRPolicy); pol != nil {
				if nh, disp, hit := evalPBR(f, itf, pol, pkt, res); hit {
					switch disp {
					case Dropped:
						res.Outcome = Dropped
						res.why = reason{code: pbrDrop, router: router}
						return "", "", true
					default:
						return forwardTo(n, router, nh, "PBR next-hop", res)
					}
				}
			}
		}
	}

	// 2. Local delivery at the node that owns the destination.
	for _, p := range node.Originates {
		if p.Contains(pkt.Dst) {
			res.Outcome = Delivered
			return "", "", true
		}
	}

	// 3. Longest-prefix match across statics and the BGP route; statics
	// win equal-length ties (administrative distance).
	var (
		bestBits   = -1
		bestStatic *netcfg.StaticRoute
		useBGP     bool
	)
	for _, s := range f.Statics {
		if s.Prefix.IsValid() && s.Prefix.Contains(pkt.Dst) && s.Prefix.Bits() > bestBits {
			bestBits = s.Prefix.Bits()
			bestStatic = s
		}
	}
	if rt := routes[router]; rt != nil && prefix.IsValid() && prefix.Contains(pkt.Dst) && prefix.Bits() > bestBits {
		useBGP = true
	}
	switch {
	case useBGP:
		rt := routes[router]
		if rt.Src == bgp.SrcLocal {
			if rt.NextHop.IsValid() {
				return forwardTo(n, router, rt.NextHop, "redistributed static next-hop", res)
			}
			// Originated here but the destination is not locally attached:
			// the router advertises a prefix it cannot deliver.
			res.Outcome = Blackholed
			res.why = reason{code: noAttachment, router: router, prefix: prefix, addr: pkt.Dst}
			return "", "", true
		}
		return forwardTo(n, router, rt.NextHop, "BGP next-hop", res)
	case bestStatic != nil:
		res.Lines = append(res.Lines, netcfg.LineRef{Device: router, Line: bestStatic.Line})
		if bestStatic.Null0 {
			res.Outcome = Blackholed
			res.why = reason{code: staticNull0, router: router}
			return "", "", true
		}
		return forwardTo(n, router, bestStatic.NextHop, "static next-hop", res)
	default:
		res.Outcome = Blackholed
		res.why = reason{code: noRoute, router: router, addr: pkt.Dst}
		return "", "", true
	}
}

// evalPBR evaluates the rules of pol for pkt. hit reports whether a permit
// rule applied; the returned disposition is Dropped for `apply drop`,
// otherwise the next hop is returned. Deny rules exempt the packet (no
// hit). Matching and deciding lines are recorded.
func evalPBR(f *netcfg.File, itf *netcfg.Interface, pol *netcfg.PBRPolicy, pkt Packet, res *TraceResult) (netip.Addr, Disposition, bool) {
	for _, rule := range pol.Rules {
		if !ruleMatches(rule, pkt) {
			continue
		}
		res.Lines = append(res.Lines,
			netcfg.LineRef{Device: f.Device, Line: itf.PBRLine},
			netcfg.LineRef{Device: f.Device, Line: pol.Line},
			netcfg.LineRef{Device: f.Device, Line: rule.Line},
		)
		if !rule.Permit {
			return netip.Addr{}, Delivered, false
		}
		if rule.ApplyDrop != nil {
			res.Lines = append(res.Lines, netcfg.LineRef{Device: f.Device, Line: rule.ApplyDrop.Line})
			return netip.Addr{}, Dropped, true
		}
		if rule.ApplyNextHop != nil {
			res.Lines = append(res.Lines, netcfg.LineRef{Device: f.Device, Line: rule.ApplyNextHop.Line})
			return rule.ApplyNextHop.NextHop, Delivered, true
		}
		// Permit with no action: exempt.
		return netip.Addr{}, Delivered, false
	}
	return netip.Addr{}, Delivered, false
}

func ruleMatches(rule *netcfg.PBRRule, pkt Packet) bool {
	if rule.MatchSource != nil && !rule.MatchSource.Prefix.Contains(pkt.Src) {
		return false
	}
	if rule.MatchDest != nil && !rule.MatchDest.Prefix.Contains(pkt.Dst) {
		return false
	}
	if rule.MatchProto != nil && rule.MatchProto.Proto != "any" && rule.MatchProto.Proto != pkt.Proto {
		return false
	}
	if rule.MatchDstPort != nil && rule.MatchDstPort.Port != pkt.DstPort {
		return false
	}
	return true
}

// forwardTo resolves a next-hop address to a directly connected neighbor.
func forwardTo(n *bgp.Net, router string, nh netip.Addr, what string, res *TraceResult) (string, string, bool) {
	if !nh.IsValid() {
		res.Outcome = Blackholed
		res.why = reason{code: invalidNextHop, router: router, what: what}
		return "", "", true
	}
	for _, adj := range n.Topo.Adjacencies(router) {
		if adj.PeerAddr == nh {
			return adj.PeerNode, adj.PeerIface, false
		}
	}
	res.Outcome = Blackholed
	res.why = reason{code: foreignNextHop, router: router, what: what, addr: nh}
	return "", "", true
}

// SamplePacket draws a deterministic representative packet for a flow from
// src prefix to dst prefix: the first host address on each side (the .1 of
// a subnet, the address itself of a single-address prefix such as a /32),
// TCP to port 80. This is the paper's "sample a packet from its header
// space" (§4.1). A zero prefix (a global intent has no source) samples the
// zero address.
func SamplePacket(src, dst netip.Prefix) Packet {
	return Packet{
		Src:     hostAddr(src),
		Dst:     hostAddr(dst),
		Proto:   "tcp",
		SrcPort: 40000,
		DstPort: 80,
	}
}

func hostAddr(p netip.Prefix) netip.Addr {
	if !p.IsValid() {
		return netip.Addr{}
	}
	a := p.Masked().Addr()
	if p.Bits() < a.BitLen() {
		return a.Next()
	}
	return a
}

// InjectionPoint maps a packet source address to the router where the
// packet enters the network: the node originating the longest matching
// prefix. Returns "" when no node owns the source.
func InjectionPoint(t *topo.Network, src netip.Addr) string {
	if nd := t.OriginOf(src); nd != nil {
		return nd.Name
	}
	return ""
}
