package bgp

import (
	"context"
	"encoding/binary"
	"fmt"
	"net/netip"
	"slices"
	"sort"
	"strings"

	"acr/internal/netcfg"
)

// PrefixOutcome is the control-plane result for one prefix. Once
// SimulatePrefix returns, the outcome (including its Route values) is
// immutable: the incremental verifier shares base outcomes by pointer
// across candidate checks, across verifier clones, which callers may check
// on concurrently (verify.Incremental.Clone), and across derived versions
// (ResimulatePrefix carries unmoved routes and whole outcomes into the next
// version) — so nothing may mutate one in place, and nothing caches on a
// Route.
type PrefixOutcome struct {
	Prefix    netip.Prefix
	Converged bool
	// Canceled marks an outcome abandoned by cooperative cancellation
	// (Options.Ctx): neither converged nor genuinely flapping.
	Canceled bool
	// Passes is the number of full activation passes executed.
	Passes int
	// Final is the stable best-route map (router name → route, absent when
	// the router has no route). Nil when not converged.
	Final map[string]*Route
	// AdjIn is the stable adj-RIB-in at convergence: AdjIn[i][j] is the
	// advertisement as imported that the router at Net.Order position i
	// holds from the peer of its session j, nil when none. Its next hop,
	// peer address and router ID are unset: AdjInAt resolves a slot through
	// the session at it. Retained so delta re-simulation can seed a
	// candidate's fixpoint from it and provenance can read accepted imports
	// off it. Nil when not converged. Immutable like the rest of the
	// outcome.
	AdjIn [][]*Route
	// Cycle holds the repeating sequence of best-route maps when the
	// prefix flaps: the control plane visits these states forever. Nil
	// when converged.
	Cycle []map[string]*Route
	// Activations counts router activations executed to reach this
	// outcome: the unit of simulation work the delta benchmark compares.
	// Observational only — never part of Canonical() or verdicts.
	Activations int
	// rids are the router IDs, by position, of the net the outcome is the
	// fixpoint of: the identities its learned routes were selected under.
	// Shared with the net, read-only.
	rids []netip.Addr
}

// AdjInAt returns the route router i holds in adj-in slot j of n's version
// of a converged outcome, resolved through n's session at that slot, or nil
// when the slot is empty. The route is a fresh copy.
func (po *PrefixOutcome) AdjInAt(n *Net, i, j int) *Route {
	return held{po.AdjIn[i][j], n.routers[i].Sessions[j]}.resolve(nil)
}

// Phases returns the dataplane-relevant states: the single final state
// when converged, or every state of the cycle when flapping.
func (po *PrefixOutcome) Phases() []map[string]*Route {
	if po.Converged {
		return []map[string]*Route{po.Final}
	}
	return po.Cycle
}

// FlappingRouters lists routers whose best route differs across cycle
// phases (empty when converged).
func (po *PrefixOutcome) FlappingRouters() []string {
	if po.Converged || len(po.Cycle) == 0 {
		return nil
	}
	var out []string
	for name := range po.Cycle[0] {
		first := po.Cycle[0][name]
		for _, ph := range po.Cycle[1:] {
			if !sameRoute(ph[name], first) {
				out = append(out, name)
				break
			}
		}
	}
	// Routers absent from phase 0 but present later also flap.
	seen := map[string]bool{}
	for _, n := range out {
		seen[n] = true
	}
	for _, ph := range po.Cycle[1:] {
		for name := range ph {
			if _, ok := po.Cycle[0][name]; !ok && !seen[name] {
				out = append(out, name)
				seen[name] = true
			}
		}
	}
	sort.Strings(out)
	return out
}

// Outcome is the control-plane result for every originated prefix.
type Outcome struct {
	Net      *Net
	ByPrefix map[netip.Prefix]*PrefixOutcome
}

// Canceled reports whether any prefix outcome was abandoned by
// cooperative cancellation. A canceled Outcome reflects a partial
// computation and must not feed verification decisions.
func (o *Outcome) Canceled() bool {
	for _, po := range o.ByPrefix { //acrvet:ordered boolean any-reduction; order cannot change the result

		if po.Canceled {
			return true
		}
	}
	return false
}

// Converged reports whether every prefix converged.
func (o *Outcome) Converged() bool {
	for _, po := range o.ByPrefix { //acrvet:ordered boolean all-reduction; order cannot change the result

		if !po.Converged {
			return false
		}
	}
	return true
}

// FlappingPrefixes lists prefixes that failed to converge, sorted.
func (o *Outcome) FlappingPrefixes() []netip.Prefix {
	var out []netip.Prefix
	for p, po := range o.ByPrefix {
		if !po.Converged {
			out = append(out, p)
		}
	}
	sort.Slice(out, func(i, j int) bool { return netcfg.PrefixLess(out[i], out[j]) })
	return out
}

// Options tunes simulation.
type Options struct {
	// Ctx, when non-nil, is checked cooperatively between activation
	// passes and between prefixes; on cancellation the simulation stops
	// early and the outcome is marked Canceled. Callers that set a
	// deadline must treat canceled outcomes as unusable, not as flapping.
	Ctx context.Context
	// PrefixHook, when non-nil, runs at the start of every per-prefix
	// simulation. It exists as a seam for the chaos harness (injected
	// panics and delays) and for instrumentation; production runs leave
	// it nil.
	PrefixHook func(netip.Prefix)
}

// maxPasses bounds the activation passes per prefix on net n. A prefix that
// neither converges nor revisits a state within the bound is reported as
// not converged with the tail of observed states as its Cycle.
func maxPasses(n *Net) int {
	return max(2*len(n.Order)+20, 32)
}

// canceled reports whether the options' context is done.
func (o Options) canceled() bool {
	return o.Ctx != nil && o.Ctx.Err() != nil
}

// Simulate runs the control plane for every originated prefix.
// BGP computation is independent across prefixes (policies here never
// couple prefixes), which is what makes per-prefix incremental
// re-simulation sound — the DNA-style validator exploits that.
func Simulate(n *Net, opts Options) *Outcome {
	out := &Outcome{Net: n, ByPrefix: map[netip.Prefix]*PrefixOutcome{}}
	var sc coldScratch
	for _, p := range n.AllPrefixes() {
		if opts.canceled() {
			out.ByPrefix[p] = &PrefixOutcome{Prefix: p, Canceled: true}
			continue
		}
		out.ByPrefix[p] = sc.run(n, p, opts, maxPasses(n))
	}
	return out
}

// prefixState is the full dynamic state of one prefix's computation,
// indexed by router position in the Net's Order: best[i] is the router's
// selected route, adj[i][j] the advertisement as imported it holds from the
// peer of its session j, which supplies the rest of its identity.
type prefixState struct {
	best []held
	adj  [][]*Route
	// owned, when non-nil, marks the adj rows this state may write; the
	// others are shared with a base outcome and copied on first write.
	owned []bool
	// mem is where the prefix's hops copy their routes and paths.
	mem arena
	// h digests the complete state as the sum of its slots' terms, kept
	// up to date by setBest and setAdj: contrib[k] is slot k's term, best
	// i being slot i and adj[i][j] slot len(best)+slotBase+j. Only a cold
	// state keeps them; a delta run never hashes.
	h       uint64
	contrib []uint64
}

func newPrefixState(n *Net) *prefixState {
	return new(coldScratch).state(n)
}

// coldScratch is the memory a cold run uses only while it runs, which
// Simulate reuses from prefix to prefix: the state's best routes and slot
// terms, and the digest and best routes after each pass.
type coldScratch struct {
	best    []held
	contrib []uint64
	hashes  []uint64
	snaps   []held // pass after pass, len(Order) each
}

// state returns a cold state for n with empty slots, its best routes and
// terms in sc's memory.
func (sc *coldScratch) state(n *Net) *prefixState {
	k := len(n.routers)
	sc.best, sc.contrib = zeroed(sc.best, k), zeroed(sc.contrib, k+n.sessions)
	slots := make([]*Route, n.sessions)
	st := &prefixState{best: sc.best, adj: make([][]*Route, k), contrib: sc.contrib}
	for i, r := range n.routers {
		st.adj[i], slots = slots[:len(r.Sessions):len(r.Sessions)], slots[len(r.Sessions):]
	}
	return st
}

// zeroed returns s resized to n zero elements, reallocated only when too
// small.
func zeroed[T any](s []T, n int) []T {
	if cap(s) < n {
		return make([]T, n)
	}
	s = s[:n]
	clear(s)
	return s
}

// row returns router i's adj row for writing.
func (st *prefixState) row(i int) []*Route {
	if st.owned != nil && !st.owned[i] {
		st.adj[i] = slices.Clone(st.adj[i])
		st.owned[i] = true
	}
	return st.adj[i]
}

// setBest installs b as router i's best route.
func (st *prefixState) setBest(i int, b held) {
	st.best[i] = b
	if st.contrib != nil {
		st.digest(i, bestTerm(i, b))
	}
}

// setAdj installs rt, whose hash (advHash) is rh, in router r's adj-in
// slot j. A delta run, which never hashes, passes 0.
func (st *prefixState) setAdj(r *Router, j int, rt *Route, rh uint64) {
	st.row(r.index)[j] = rt
	if k := len(st.best) + r.slotBase + j; st.contrib != nil {
		st.digest(k, adjTerm(k, rt, rh))
	}
}

// digest moves h to slot k's new term t.
func (st *prefixState) digest(k int, t uint64) {
	st.h += t - st.contrib[k]
	st.contrib[k] = t
}

// A slot's term is its share of the state digest: zero while it is empty,
// else a hash of its number and of every field of the route it resolves to
// that can influence future transitions. Summing terms lets a write re-hash
// one slot, not the state, and puts no order on the slots beyond their
// numbers. An adj-in slot's session is fixed by its number, so its term
// mixes only the advertisement's hash, which is computed once however many
// slots share the advertisement; a best slot's term also mixes the identity
// its session or route supplies.

// bestTerm is best slot i's term while it holds b.
func bestTerm(i int, b held) uint64 {
	if b.rt == nil {
		return 0
	}
	return slotTerm(i, routeHash(b.rt, b.id()))
}

// adjTerm is adj-in slot k's term while it holds rt, whose hash is rh.
func adjTerm(k int, rt *Route, rh uint64) uint64 {
	if rt == nil {
		return 0
	}
	return slotTerm(k, rh)
}

// advHash is rt's hash as an adj-in slot holds it, its own (unset) ident
// included.
func advHash(rt *Route) uint64 {
	return routeHash(rt, rt.ident)
}

// routeHash hashes every field sameRoute compares of rt with ident id.
func routeHash(rt *Route, id *ident) uint64 {
	var h stateHash
	h.word(1 | uint64(rt.Origin)<<8 | uint64(rt.Src)<<16 | uint64(len(rt.ASPath))<<32)
	h.word(uint64(rt.LocalPref)<<32 | uint64(rt.MED))
	for _, a := range rt.ASPath {
		h.word(uint64(a))
	}
	h.addr(rt.Prefix.Addr())
	h.word(uint64(int64(rt.Prefix.Bits())))
	h.addr(id.NextHop)
	h.addr(id.PeerAddr)
	h.addr(id.PeerRID)
	return uint64(h)
}

// slotTerm mixes slot number k with the hash rh of what the slot holds.
func slotTerm(k int, rh uint64) uint64 {
	var h stateHash
	h.word(uint64(k))
	h.word(rh)
	return uint64(h)
}

// stateHash accumulates a slot's term from fixed-width words.
type stateHash uint64

func (h *stateHash) word(v uint64) {
	x := (uint64(*h) ^ v) * 0xff51afd7ed558ccd
	*h = stateHash(x ^ x>>33)
}

// addr mixes an address: an IPv4 address as one word, its bit length
// above it; an IPv6 or the unset address as its bit length, then its two
// halves. The first word tells the three apart, which is what separates
// 1.2.3.4 from ::ffff:1.2.3.4 and the unset address from :: and ::80.
func (h *stateHash) addr(a netip.Addr) {
	if a.Is4() {
		b := a.As4()
		h.word(uint64(binary.BigEndian.Uint32(b[:])) | 32<<32)
		return
	}
	b := a.As16()
	h.word(uint64(a.BitLen()))
	h.word(binary.BigEndian.Uint64(b[:8]))
	h.word(binary.BigEndian.Uint64(b[8:]))
}

// snapshot returns best routes indexed by router position as a router
// name → route map, resolving learned ones with copies carved from a.
func (n *Net) snapshot(best []held, a *arena) map[string]*Route {
	snap := make(map[string]*Route, len(n.Order))
	for i, b := range best {
		if b.rt != nil {
			snap[n.Order[i]] = b.resolve(a)
		}
	}
	return snap
}

// SimulatePrefix runs one prefix to fixpoint or detected oscillation,
// using deterministic sequential (round-robin) activation: each full pass
// activates every router in topology order; a router that changes its best
// route immediately sends updates (or withdrawals) to every established
// session — BGP has no sender-side split horizon for eBGP; receivers rely
// on AS-path loop detection, applied inside processImport.
func SimulatePrefix(n *Net, prefix netip.Prefix, opts Options) *PrefixOutcome {
	return simulatePrefix(n, prefix, opts, maxPasses(n))
}

// simulatePrefix is SimulatePrefix under an explicit pass bound.
func simulatePrefix(n *Net, prefix netip.Prefix, opts Options, bound int) *PrefixOutcome {
	return new(coldScratch).run(n, prefix, opts, bound)
}

// run is simulatePrefix in sc's memory.
func (sc *coldScratch) run(n *Net, prefix netip.Prefix, opts Options, bound int) *PrefixOutcome {
	if opts.PrefixHook != nil {
		opts.PrefixHook(prefix)
	}
	st := sc.state(n)
	hashes, snaps := sc.hashes[:0], sc.snaps[:0]
	defer func() { sc.hashes, sc.snaps = hashes, snaps }()
	k := len(n.routers)
	acts := 0

	for pass := 1; pass <= bound; pass++ {
		if opts.canceled() {
			return &PrefixOutcome{Prefix: prefix, Canceled: true, Passes: pass, Activations: acts}
		}
		changed := false
		for _, r := range n.routers {
			acts++
			if n.activate(st, r, prefix, false, nil) {
				changed = true
			}
		}
		if !changed {
			// The state is stable; hand the adj-RIB-in over to the outcome
			// (st is dead from here) so delta re-simulation can seed from it.
			return &PrefixOutcome{Prefix: prefix, Converged: true, Passes: pass,
				Final: n.snapshot(st.best, &st.mem), AdjIn: st.adj, Activations: acts, rids: n.rids}
		}
		if first := slices.Index(hashes, st.h); first >= 0 {
			// States after passes first..pass-1 repeat forever.
			return &PrefixOutcome{Prefix: prefix, Converged: false, Passes: pass,
				Cycle: n.snapshots(snaps[first*k:], &st.mem), Activations: acts, rids: n.rids}
		}
		hashes = append(hashes, st.h)
		snaps = append(snaps, st.best...)
	}
	// Bound hit without repeat: report the tail as the observed unstable
	// behavior. This indicates the bound is too small for the topology.
	tail := snaps[max(len(hashes)-8, 0)*k:]
	return &PrefixOutcome{Prefix: prefix, Converged: false, Passes: bound,
		Cycle: n.snapshots(tail, &st.mem), Activations: acts, rids: n.rids}
}

// snapshots maps snapshot over a sequence of states laid end to end,
// len(Order) best routes each.
func (n *Net) snapshots(states []held, a *arena) []map[string]*Route {
	k := len(n.routers)
	out := make([]map[string]*Route, len(states)/k)
	for i := range out {
		out[i] = n.snapshot(states[i*k:(i+1)*k], a)
	}
	return out
}

// selectBest runs the decision process at router r: its originations of
// prefix and everything in its adj-RIB-in, each slot's route identified by
// the session at the slot.
func (st *prefixState) selectBest(r *Router, prefix netip.Prefix) held {
	var best held
	for _, o := range r.Origins {
		if o.Prefix != prefix {
			continue
		}
		if rt, ok := originRoute(r, o, nil); ok && better(held{rt: rt}, best) {
			best = held{rt: rt}
		}
	}
	for j, rt := range st.adj[r.index] {
		if c := (held{rt, r.Sessions[j]}); rt != nil && better(c, best) {
			best = c
		}
	}
	return best
}

// activate recomputes router r's best route for prefix and, when it
// changed or force is set, pushes it (or its withdrawal) over every
// session, marking in frontier, when non-nil, each neighbor whose adj-in
// changed. Reports whether the best changed. The sessions without a policy
// at either end share one advertisement, hashed once.
func (n *Net) activate(st *prefixState, r *Router, prefix netip.Prefix, force bool, frontier []bool) bool {
	best := st.selectBest(r, prefix)
	changed := !sameHeld(best, st.best[r.index])
	if !changed && !force {
		return false
	}
	st.setBest(r.index, best)
	ex := export{n: n, from: r, best: best.rt, mem: &st.mem}
	var last *Route // the route rh hashes
	var rh uint64
	for _, s := range r.Sessions {
		if s.reverse == nil {
			continue
		}
		next := ex.over(s)
		if sameRoute(st.adj[s.peer][s.reverse.slot], next) {
			continue
		}
		if next != last && next != nil && st.contrib != nil {
			last, rh = next, advHash(next)
		}
		st.setAdj(n.routers[s.peer], s.reverse.slot, next, rh)
		if frontier != nil {
			frontier[s.peer] = true
		}
	}
	return changed
}

// export carries router from's best route over its sessions. The sessions
// without a policy at either end share shared, built on first use.
type export struct {
	n      *Net
	from   *Router
	best   *Route
	mem    *arena
	shared *Route
}

// over returns the route the peer of from's session s holds for best in
// its adj-in slot, or nil when there is nothing to carry or export policy,
// loop detection or import policy drops it. A loop rejection over a
// policy-free session builds nothing.
func (e *export) over(s *Session) *Route {
	if e.best == nil || s == nil || s.reverse == nil {
		return nil
	}
	to := e.n.routers[s.peer]
	if s.reverse.plainLines == nil {
		adv, ok := processExport(e.from, s, e.best, nil, e.mem)
		if !ok {
			return nil
		}
		in, _ := processImport(to, s.reverse, adv, nil)
		return in
	}
	if to.ASN == e.from.ASN || e.best.HasAS(to.ASN) {
		return nil
	}
	if e.shared == nil {
		e.shared = e.mem.imported(e.from.ASN, e.best)
	}
	return e.shared
}

// Describe renders a compact multi-line report of an outcome, used by the
// CLI tools and examples.
func (o *Outcome) Describe() string {
	var sb strings.Builder
	prefixes := make([]netip.Prefix, 0, len(o.ByPrefix))
	for p := range o.ByPrefix {
		prefixes = append(prefixes, p)
	}
	sort.Slice(prefixes, func(i, j int) bool { return netcfg.PrefixLess(prefixes[i], prefixes[j]) })
	for _, p := range prefixes {
		po := o.ByPrefix[p]
		if po.Converged {
			fmt.Fprintf(&sb, "%s: converged in %d passes\n", p, po.Passes)
		} else {
			fmt.Fprintf(&sb, "%s: FLAPPING (cycle of %d states; unstable routers: %s)\n",
				p, len(po.Cycle), strings.Join(po.FlappingRouters(), ", "))
		}
	}
	return sb.String()
}
