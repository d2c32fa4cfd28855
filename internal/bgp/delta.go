package bgp

import (
	"net/netip"
	"slices"
)

// This file implements delta re-simulation: running a candidate
// configuration's per-prefix fixpoint from the base outcome instead of
// from a cold start. The base outcome's stable RIBs (Final + AdjIn) seed
// the state; only the edited ("dirty") devices are re-derived and
// force-activated; from there a worklist propagates re-activations to
// exactly the routers whose inputs actually changed, and the run
// terminates when the frontier goes quiet. Routers the wave never reaches
// keep their base state by structural sharing — their route pointers are
// carried into the candidate outcome untouched.
//
// Soundness rests on two facts. First, a router whose configuration, whose
// entire adj-RIB-in and whose neighbors' router IDs are unchanged
// recomputes exactly the same best route (selection is a pure function of
// origins, adj-in and the sessions' identities), so skipping its
// activation cannot lose a transition: an adj-in change reaches it through
// a neighbor's push, which enqueues it, and a moved router ID enqueues the
// moved router's receivers. Second, the caller only
// uses delta when Net.Derive kept every router's established peers (see
// verify.Incremental), so the base adj-in's session structure is the
// candidate's session structure and stale entries can only differ in
// route content, which the dirty-device re-derivation and forced pushes
// rewrite. The one caveat is multi-stability: a network with several
// fixpoints could converge to a different one when started warm. The
// soundness audit (internal/oracle: TestSoundnessAudit, FuzzDeltaSim) and
// the corpus byte-identity gate against full validation exist to catch
// that class; every divergence found is a bug.

// DeltaSimulate is Simulate for a net n that differs from base's only in
// the configuration of the dirty routers and establishes the same sessions
// (the DeltaSimulatePrefix precondition): every prefix is re-simulated from
// its base outcome, cold where base has none, did not converge, or the
// delta run refuses. A prefix whose stable state — Final, AdjIn and the
// router IDs its sessions resolve AdjIn with — came out equal to base's
// keeps base's *PrefixOutcome, so the caller recognises an unmoved prefix by
// pointer.
func DeltaSimulate(n *Net, base *Outcome, dirty []string, opts Options) *Outcome {
	out := &Outcome{Net: n, ByPrefix: make(map[netip.Prefix]*PrefixOutcome, len(base.ByPrefix))}
	for _, p := range n.AllPrefixes() {
		if opts.canceled() {
			out.ByPrefix[p] = &PrefixOutcome{Prefix: p, Canceled: true}
			continue
		}
		old := base.ByPrefix[p]
		po, ok := DeltaSimulatePrefix(n, old, dirty, p, opts)
		if !ok {
			po = SimulatePrefix(n, p, opts)
		}
		if sameStableState(po, old, n.Order) {
			po = old
		}
		out.ByPrefix[p] = po
	}
	return out
}

// sameStableState reports whether two outcomes converged to the same
// routes, best and adj-in, on every router, under the same router IDs.
func sameStableState(a, b *PrefixOutcome, order []string) bool {
	if a == nil || b == nil || !a.Converged || !b.Converged || len(a.AdjIn) != len(b.AdjIn) ||
		!sameRIDs(a.rids, b.rids) {
		return false
	}
	for i, name := range order {
		if !sameRoute(a.Final[name], b.Final[name]) || len(a.AdjIn[i]) != len(b.AdjIn[i]) {
			return false
		}
		for j, rt := range a.AdjIn[i] {
			if !sameRoute(rt, b.AdjIn[i][j]) {
				return false
			}
		}
	}
	return true
}

// sameRIDs reports whether two outcomes' router IDs agree; nil (an outcome
// no simulation made) agrees with nothing.
func sameRIDs(a, b []netip.Addr) bool {
	if a == nil || b == nil || len(a) != len(b) {
		return false
	}
	return &a[0] == &b[0] || slices.Equal(a, b)
}

// DeltaSimulatePrefix re-simulates one prefix for net n (the candidate
// compilation) starting from base (the converged outcome of the
// pre-edit net), re-deriving and force-activating only the dirty
// routers — the devices whose configuration text changed. The false
// return refuses the shortcut (non-converged or AdjIn-less base, unknown
// dirty router, a clean router whose sessions changed, cancellation, pass
// bound exhausted) and the caller must fall back to a cold SimulatePrefix.
func DeltaSimulatePrefix(n *Net, base *PrefixOutcome, dirty []string, prefix netip.Prefix, opts Options) (*PrefixOutcome, bool) {
	if base == nil || !base.Converged || base.Final == nil || len(base.AdjIn) != len(n.routers) {
		return nil, false
	}
	dirtyAt := make([]bool, len(n.routers))
	for _, d := range dirty {
		r := n.Routers[d]
		if r == nil {
			return nil, false
		}
		dirtyAt[r.index] = true
	}
	if opts.PrefixHook != nil {
		opts.PrefixHook(prefix)
	}
	bound := maxPasses(n)

	// Seed the state from the base outcome, copy-on-write: best is a fresh
	// slice, clean routers' adj rows stay shared with the immutable base
	// until their first write.
	st := &prefixState{
		best:  make([]held, len(n.routers)),
		adj:   make([][]*Route, len(n.routers)),
		owned: make([]bool, len(n.routers)),
	}
	for i, r := range n.routers {
		st.best[i] = held{rt: base.Final[r.Name]}
		switch {
		case dirtyAt[i]:
			st.adj[i] = make([]*Route, len(r.Sessions))
			st.owned[i] = true
		case len(base.AdjIn[i]) == len(r.Sessions):
			st.adj[i] = base.AdjIn[i]
		default:
			return nil, false
		}
	}

	// Phase 1: rebuild each dirty router's entire adj-RIB-in under the
	// candidate's policies from the neighbors' (still-base) best routes.
	// Base entries import through the OLD import policies, so every entry
	// is stale on a device whose config changed.
	for i, r := range n.routers {
		if dirtyAt[i] {
			for _, ls := range r.Sessions {
				e := export{n: n, from: n.routers[ls.peer], best: st.best[ls.peer].rt, mem: &st.mem}
				st.adj[i][ls.slot] = e.over(ls.reverse)
			}
		}
	}

	// Phase 2: force-activate the dirty routers. Forcing runs the push
	// loop even when the best route is unchanged, because a changed
	// EXPORT policy (or origination attribute) alters what neighbors hear
	// without moving the local best. Receivers whose adj-in actually
	// changed form the first frontier, and so does every receiver of a
	// router whose ID moved: an adj-in slot holds no identity, so the new
	// ID reaches the receiver's tie-break through its session, not a push.
	acts := 0
	pending, next := make([]bool, len(n.routers)), make([]bool, len(n.routers))
	for i, r := range n.routers {
		if !dirtyAt[i] {
			continue
		}
		acts++
		n.activate(st, r, prefix, true, pending)
		if len(base.rids) != len(n.rids) || base.rids[i] != n.rids[i] {
			for _, s := range r.Sessions {
				if s.reverse != nil {
					pending[s.peer] = true
				}
			}
		}
	}

	// Phase 3: worklist to fixpoint. Each pass activates the frontier in
	// topology order; a router re-enters the frontier only when a push
	// changed its adj-in. Quiet frontier = converged.
	for pass := 1; slices.Contains(pending, true); pass++ {
		if pass > bound || opts.canceled() {
			return nil, false
		}
		for i, r := range n.routers {
			if pending[i] {
				acts++
				n.activate(st, r, prefix, false, next)
			}
		}
		pending, next = next, pending
		clear(next)
	}
	return &PrefixOutcome{Prefix: prefix, Converged: true, Passes: base.Passes,
		Final: n.snapshot(st.best, &st.mem), AdjIn: st.adj, Activations: acts, rids: n.rids}, true
}
