// Package bgp implements a deterministic path-vector BGP control-plane
// simulator over topo networks and netcfg configurations. It reproduces
// the semantics the HotNets '24 ACR paper's worked incident depends on:
//
//   - eBGP sessions established from `peer` stanzas (a session only comes
//     up when both ends configure each other with the correct AS numbers —
//     so the "override to wrong AS number" misconfiguration manifests as a
//     session that never establishes);
//   - import/export route-policies with prefix-list matching and, in
//     particular, `apply as-path overwrite`, the policy at the heart of the
//     Figure 2 incident;
//   - receiver-side AS-path loop detection as the only loop prevention
//     (senders advertise their best route to every peer) — which is exactly
//     what AS-path overwrite silently disables, making both the route flap
//     and the transient C–S forwarding loop of the paper reproducible;
//   - deterministic sequential (round-robin) activation to a fixpoint, with
//     state-cycle detection: a prefix whose state sequence repeats without
//     converging is reported as flapping, per prefix — BGP computation is
//     independent across prefixes, which also enables DNA-style incremental
//     re-verification at prefix granularity.
package bgp

import (
	"net/netip"
	"slices"
	"strconv"

	"acr/internal/netcfg"
)

// RouteOrigin is the BGP origin attribute (lower is preferred).
type RouteOrigin uint8

// Origin values.
const (
	OriginIGP        RouteOrigin = 0 // network statement
	OriginIncomplete RouteOrigin = 2 // redistributed static
)

// SourceKind says where a route came from.
type SourceKind uint8

// Route sources.
const (
	SrcLocal SourceKind = iota // originated on this router
	SrcPeer                    // learned from a neighbor
)

// Route is one BGP route. A route is immutable once processImport,
// processExport, originRoute or an arena hands it out, and routes are
// compared by value (sameRoute), never by identity. processExport and
// originRoute write only to copies they make; processImport finishes in
// place the advertisement processExport copied for it, so a hop copies a
// route once (twice when a policy rewrites it).
//
// A route's next hop, peer address and router ID (NextHop, PeerAddr and
// PeerRID, read through the embedded ident) are shared with every route of
// the same source: built once per Session and once per Origination, never
// written through. A resolved route carries its source's: originations,
// Final and Cycle hold resolved routes. An adj-in slot holds the
// advertisement as imported, whose ident is unset: the session at the slot
// supplies it (held, PrefixOutcome.AdjInAt), so every policy-free session a
// best route crosses shares one route.
type Route struct {
	Prefix    netip.Prefix
	ASPath    []uint32
	LocalPref uint32
	MED       uint32
	Origin    RouteOrigin
	Src       SourceKind
	*ident
}

// ident is who a route came from. Every route the package hands out points
// at one; an advertisement points at unset, the shared zero value.
type ident struct {
	// NextHop is the address packets are forwarded to: the advertising
	// peer's interface address for learned routes, the static next hop for
	// redistributed statics, or invalid for locally attached prefixes.
	NextHop netip.Addr
	// PeerAddr is the advertising neighbor (SrcPeer only).
	PeerAddr netip.Addr
	// PeerRID is the advertising neighbor's router ID, used in best-path
	// tie-breaking (SrcPeer only; for local routes the router's own ID).
	PeerRID netip.Addr
}

// unset is the ident of an advertisement: nothing stamped yet.
var unset = &ident{}

// DefaultLocalPref is the local preference assigned when no policy sets one.
const DefaultLocalPref = 100

// clone returns a mutable copy. The AS path and the ident are shared, not
// copied: every mutation site (policy overwrite/prepend, the export
// prepend, a stamp) replaces the slice or pointer with a freshly built one
// rather than writing through it, so structural sharing is safe and the
// hot path stops allocating a slice per clone.
func (r *Route) clone() *Route {
	cp := *r
	return &cp
}

// arena hands out the routes and AS paths one prefix's computation makes,
// carved from chunks, so a hop costs no allocation of its own. Chunks start
// small (a delta run writes a handful of routes) and double up to a cap. A
// route or path handed out is immutable like any other and lives as long as
// something points into its chunk.
type arena struct {
	routes []Route
	words  []uint32
}

// route returns a fresh route out of the arena.
func (a *arena) route() *Route {
	return &carve(&a.routes, 1, min(max(2*cap(a.routes), 4), 256))[0]
}

// clone is r.clone() out of the arena.
func (a *arena) clone(r *Route) *Route {
	cp := a.route()
	*cp = *r
	return cp
}

// imported is best as the receiver of a session without a policy at either
// end holds it: the export's prepend of the sender's AS and the import's
// default local preference, learned, with the identity the slot's session
// supplies left unset. It is what processExport and processImport make of
// best over such a session, built in one step.
func (a *arena) imported(asn uint32, best *Route) *Route {
	path := a.path(len(best.ASPath) + 1)
	path[0] = asn
	copy(path[1:], best.ASPath)
	rt := a.route()
	*rt = Route{Prefix: best.Prefix, ASPath: path, LocalPref: DefaultLocalPref,
		MED: best.MED, Origin: best.Origin, Src: SrcPeer, ident: unset}
	return rt
}

// reset empties the arena's chunks for reuse: every route and path it
// handed out must be dead.
func (a *arena) reset() { a.routes, a.words = a.routes[:0], a.words[:0] }

// path returns a fresh AS path of n words out of the arena.
func (a *arena) path(n int) []uint32 {
	return carve(&a.words, n, min(max(2*cap(a.words), 16), 1024))
}

// carve returns n fresh elements from the end of *chunk, first replacing a
// chunk without room for them by a new one of capacity max(next, n). The
// slice's len is its cap, so an append to it reallocates instead of writing
// into the next slice carved.
func carve[T any](chunk *[]T, n, next int) []T {
	c := *chunk
	if cap(c)-len(c) < n {
		c = make([]T, 0, max(next, n))
	}
	start := len(c)
	*chunk = c[:start+n]
	return c[start : start+n : start+n]
}

// sameRoute is the one route-equality predicate: every field that can
// influence future behavior — the fields Key renders, plus the advertising
// router ID. Key omits PeerRID because within one net the adj-in slot
// determines it, but a delta run seeds a candidate net's state with a base
// net's resolved best routes, where a router-ID edit would otherwise leave a
// key-equal, RID-stale best in place and corrupt tie-breaking. A nil and an
// empty AS path are the same path.
func sameRoute(a, b *Route) bool {
	return a == b || sameHeld(held{rt: a}, held{rt: b})
}

// sameAttrs reports whether a and b, both non-nil, agree on every field
// but their idents.
func sameAttrs(a, b *Route) bool {
	return a.Prefix == b.Prefix && a.LocalPref == b.LocalPref && a.MED == b.MED &&
		a.Origin == b.Origin && a.Src == b.Src && slices.Equal(a.ASPath, b.ASPath)
}

// held is a route as a prefix's state holds it: the route and, for one
// learned over a session, the session whose adj-in slot it sits in, which
// supplies its ident. via is nil for a resolved route: an origination, or a
// best a delta run seeds from its base outcome's Final. A zero held is no
// route.
type held struct {
	rt  *Route
	via *Session
}

// id is the ident of the route h resolves to.
func (h held) id() *ident {
	if h.via != nil {
		return &h.via.ident
	}
	return h.rt.ident
}

// sameHeld is sameRoute over the routes a and b resolve to.
func sameHeld(a, b held) bool {
	if a.rt == nil || b.rt == nil {
		return a.rt == b.rt
	}
	x, y := a.id(), b.id()
	return (a.rt == b.rt || sameAttrs(a.rt, b.rt)) && (x == y || *x == *y)
}

// resolve returns the route h resolves to: h.rt itself when resolved, else
// a copy carved from a (allocated when a is nil) with the session's ident.
func (h held) resolve(a *arena) *Route {
	if h.rt == nil || h.via == nil {
		return h.rt
	}
	var cp *Route
	if a != nil {
		cp = a.clone(h.rt)
	} else {
		cp = h.rt.clone()
	}
	h.via.stamp(cp)
	return cp
}

// HasAS reports whether asn appears in the route's AS path.
func (r *Route) HasAS(asn uint32) bool {
	for _, a := range r.ASPath {
		if a == asn {
			return true
		}
	}
	return false
}

// Key renders the route's canonical text: every field sameRoute compares
// except PeerRID. It is rendered on demand and not stored, for tests and
// diagnostics; the simulator compares routes with sameRoute.
// TestBuildKeyFormat pins the format.
func (r *Route) Key() string {
	b := make([]byte, 0, 96)
	if r.Prefix.IsValid() {
		b = r.Prefix.AppendTo(b)
	} else {
		b = append(b, r.Prefix.String()...)
	}
	b = append(b, '|', '[')
	for i, a := range r.ASPath {
		if i > 0 {
			b = append(b, ' ')
		}
		b = strconv.AppendUint(b, uint64(a), 10)
	}
	b = append(b, "]|lp"...)
	b = strconv.AppendUint(b, uint64(r.LocalPref), 10)
	b = append(b, "|med"...)
	b = strconv.AppendUint(b, uint64(r.MED), 10)
	b = append(b, "|o"...)
	b = strconv.AppendUint(b, uint64(r.Origin), 10)
	b = append(b, "|nh"...)
	b = appendAddr(b, r.NextHop)
	b = append(b, "|s"...)
	b = strconv.AppendUint(b, uint64(r.Src), 10)
	b = append(b, "|p"...)
	b = appendAddr(b, r.PeerAddr)
	return string(b)
}

// appendAddr appends a.String() without the intermediate string. An unset
// address (an originated route's next hop, an exported route's peer) is
// where AppendTo and String differ: AppendTo appends nothing.
func appendAddr(b []byte, a netip.Addr) []byte {
	if !a.IsValid() {
		return append(b, a.String()...)
	}
	return a.AppendTo(b)
}

// Better reports whether route a is preferred over b under the standard
// decision process:
//
//  1. higher LocalPref
//  2. locally originated over learned
//  3. shorter AS path
//  4. lower origin (IGP < incomplete)
//  5. lower MED
//  6. lower advertising-peer router ID
//  7. lower peer address (final deterministic tie break)
//
// b may be nil, in which case a wins.
func Better(a, b *Route) bool {
	return better(held{rt: a}, held{rt: b})
}

// better is Better over the routes a and b resolve to.
func better(a, b held) bool {
	if b.rt == nil {
		return true
	}
	if a.rt == nil {
		return false
	}
	ar, br := a.rt, b.rt
	if ar.LocalPref != br.LocalPref {
		return ar.LocalPref > br.LocalPref
	}
	if ar.Src != br.Src {
		return ar.Src == SrcLocal
	}
	if len(ar.ASPath) != len(br.ASPath) {
		return len(ar.ASPath) < len(br.ASPath)
	}
	if ar.Origin != br.Origin {
		return ar.Origin < br.Origin
	}
	if ar.MED != br.MED {
		return ar.MED < br.MED
	}
	x, y := a.id(), b.id()
	if x.PeerRID != y.PeerRID {
		return x.PeerRID.Less(y.PeerRID)
	}
	if x.PeerAddr != y.PeerAddr {
		return x.PeerAddr.Less(y.PeerAddr)
	}
	return false
}

// SelectBest returns the most preferred route, or nil for an empty slice.
// Selection is deterministic regardless of input order.
func SelectBest(routes []*Route) *Route {
	var best *Route
	for _, r := range routes {
		if Better(r, best) {
			best = r
		}
	}
	return best
}

// lineRefs is a tiny helper collecting LineRefs during policy evaluation
// and session compilation.
type lineRefs struct {
	refs []netcfg.LineRef
}

func (t *lineRefs) add(device string, line int) {
	if t == nil || line == 0 {
		return
	}
	t.refs = append(t.refs, netcfg.LineRef{Device: device, Line: line})
}

func (t *lineRefs) addRefs(rs []netcfg.LineRef) {
	if t == nil {
		return
	}
	t.refs = append(t.refs, rs...)
}
