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
// (DeltaSimulate carries unmoved routes and whole outcomes into the next
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
	// post-import route the router at Net.Order position i holds from the
	// peer of its session j, nil when none. Retained so delta
	// re-simulation can seed a candidate's fixpoint from it and provenance
	// can read accepted imports off it. Nil when not converged. Immutable
	// like the rest of the outcome.
	AdjIn [][]*Route
	// Cycle holds the repeating sequence of best-route maps when the
	// prefix flaps: the control plane visits these states forever. Nil
	// when converged.
	Cycle []map[string]*Route
	// Activations counts router activations executed to reach this
	// outcome: the unit of simulation work the delta benchmark compares.
	// Observational only — never part of Canonical() or verdicts.
	Activations int
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
	for _, p := range n.AllPrefixes() {
		if opts.canceled() {
			out.ByPrefix[p] = &PrefixOutcome{Prefix: p, Canceled: true}
			continue
		}
		out.ByPrefix[p] = SimulatePrefix(n, p, opts)
	}
	return out
}

// prefixState is the full dynamic state of one prefix's computation,
// indexed by router position in the Net's Order: best[i] is the router's
// selected route, adj[i][j] the post-import route it holds from the peer of
// its session j.
type prefixState struct {
	best []*Route
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
	k := len(n.routers)
	slots := make([]*Route, k+n.sessions)
	st := &prefixState{best: slots[:k:k], adj: make([][]*Route, k), contrib: make([]uint64, k+n.sessions)}
	slots = slots[k:]
	for i, r := range n.routers {
		st.adj[i], slots = slots[:len(r.Sessions):len(r.Sessions)], slots[len(r.Sessions):]
	}
	return st
}

// row returns router i's adj row for writing.
func (st *prefixState) row(i int) []*Route {
	if st.owned != nil && !st.owned[i] {
		st.adj[i] = slices.Clone(st.adj[i])
		st.owned[i] = true
	}
	return st.adj[i]
}

// setBest installs rt as router i's best route.
func (st *prefixState) setBest(i int, rt *Route) {
	st.best[i] = rt
	st.digest(i, rt)
}

// setAdj installs rt in router r's adj-in slot j.
func (st *prefixState) setAdj(r *Router, j int, rt *Route) {
	st.row(r.index)[j] = rt
	st.digest(len(st.best)+r.slotBase+j, rt)
}

// digest moves h by slot k's change of term.
func (st *prefixState) digest(k int, rt *Route) {
	if st.contrib == nil {
		return
	}
	t := term(k, rt)
	st.h += t - st.contrib[k]
	st.contrib[k] = t
}

// term is slot k's share of the state digest while it holds rt: zero for
// an empty slot, else a hash of k and every field that can influence
// future transitions. Summing terms lets a write re-hash one slot, not the
// state, and puts no order on the slots beyond their numbers.
func term(k int, rt *Route) uint64 {
	if rt == nil {
		return 0
	}
	var h stateHash
	h.word(uint64(k))
	h.route(rt)
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

// route mixes every field sameRoute compares.
func (h *stateHash) route(r *Route) {
	h.word(1 | uint64(r.Origin)<<8 | uint64(r.Src)<<16 | uint64(len(r.ASPath))<<32)
	h.word(uint64(r.LocalPref)<<32 | uint64(r.MED))
	for _, a := range r.ASPath {
		h.word(uint64(a))
	}
	h.addr(r.Prefix.Addr())
	h.word(uint64(int64(r.Prefix.Bits())))
	h.addr(r.NextHop)
	h.addr(r.PeerAddr)
	h.addr(r.PeerRID)
}

// snapshot returns best routes indexed by router position as a router
// name → route map.
func (n *Net) snapshot(best []*Route) map[string]*Route {
	snap := make(map[string]*Route, len(n.Order))
	for i, r := range best {
		if r != nil {
			snap[n.Order[i]] = r
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
	if opts.PrefixHook != nil {
		opts.PrefixHook(prefix)
	}
	st := newPrefixState(n)
	var hashes []uint64  // state digest after each pass
	var snaps [][]*Route // best routes after each pass
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
				Final: n.snapshot(st.best), AdjIn: st.adj, Activations: acts}
		}
		if first := slices.Index(hashes, st.h); first >= 0 {
			// States after passes first..pass-1 repeat forever.
			return &PrefixOutcome{Prefix: prefix, Converged: false, Passes: pass, Cycle: n.snapshots(snaps[first:]), Activations: acts}
		}
		hashes = append(hashes, st.h)
		snaps = append(snaps, slices.Clone(st.best))
	}
	// Bound hit without repeat: report the tail as the observed unstable
	// behavior. This indicates the bound is too small for the topology.
	tail := snaps[max(len(snaps)-8, 0):]
	return &PrefixOutcome{Prefix: prefix, Converged: false, Passes: bound, Cycle: n.snapshots(tail), Activations: acts}
}

// snapshots maps snapshot over a sequence of states.
func (n *Net) snapshots(states [][]*Route) []map[string]*Route {
	out := make([]map[string]*Route, len(states))
	for i, best := range states {
		out[i] = n.snapshot(best)
	}
	return out
}

// selectBest runs the decision process at router r: its originations of
// prefix and everything in its adj-RIB-in.
func (st *prefixState) selectBest(r *Router, prefix netip.Prefix) *Route {
	var best *Route
	for _, o := range r.Origins {
		if o.Prefix != prefix {
			continue
		}
		if rt, ok := originRoute(r, o, nil); ok && Better(rt, best) {
			best = rt
		}
	}
	for _, rt := range st.adj[r.index] {
		if rt != nil && Better(rt, best) {
			best = rt
		}
	}
	return best
}

// activate recomputes router r's best route for prefix and, when it
// changed or force is set, pushes it (or its withdrawal) over every
// session, marking in frontier, when non-nil, each neighbor whose adj-in
// changed. Reports whether the best changed.
func (n *Net) activate(st *prefixState, r *Router, prefix netip.Prefix, force bool, frontier []bool) bool {
	best := st.selectBest(r, prefix)
	changed := !sameRoute(best, st.best[r.index])
	if !changed && !force {
		return false
	}
	st.setBest(r.index, best)
	for _, s := range r.Sessions {
		if s.reverse == nil {
			continue
		}
		if next := n.hop(s, best, &st.mem); !sameRoute(st.adj[s.peer][s.reverse.slot], next) {
			st.setAdj(n.routers[s.peer], s.reverse.slot, next)
			if frontier != nil {
				frontier[s.peer] = true
			}
		}
	}
	return changed
}

// hop carries best over session s, from s's router to its peer: the route
// the peer's adj-in holds for it, or nil when there is nothing to carry or
// export policy, loop detection or import policy drops it. The route is
// carved from arena a.
func (n *Net) hop(s *Session, best *Route, a *arena) *Route {
	if best == nil || s == nil || s.reverse == nil {
		return nil
	}
	adv, ok := processExport(n.routers[s.reverse.peer], s, best, nil, a)
	if !ok {
		return nil
	}
	in, _, _ := processImport(n.routers[s.peer], s.reverse, adv, nil)
	return in
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
