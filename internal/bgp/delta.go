package bgp

import "net/netip"

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
// Soundness rests on two facts. First, a router whose configuration and
// whose entire adj-RIB-in are unchanged recomputes exactly the same best
// route (selection is a pure function of origins + adj-in), so skipping
// its activation cannot lose a transition: any input change reaches it
// through a neighbor's push, which enqueues it. Second, the caller only
// uses delta when the session fingerprint is unchanged (see
// verify.Incremental), so the base adj-in's session structure is the
// candidate's session structure and stale entries can only differ in
// route content, which the dirty-device re-derivation and forced pushes
// rewrite. The one caveat is multi-stability: a network with several
// fixpoints could converge to a different one when started warm. The
// -delta-differential mode, FuzzDeltaSim, and the corpus byte-identity
// gate exist to catch that class; every divergence found is a bug.

// DeltaSimulate is Simulate for a net n that differs from base's only in
// the configuration of the dirty routers and establishes the same sessions
// (the DeltaSimulatePrefix precondition): every prefix is re-simulated from
// its base outcome, cold where base has none, did not converge, or the
// delta run refuses. A prefix whose stable state — Final and AdjIn on every
// router — came out equal to base's keeps base's *PrefixOutcome, so the
// caller recognises an unmoved prefix by pointer.
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
// routes, best and adj-in, on every router.
func sameStableState(a, b *PrefixOutcome, order []string) bool {
	if a == nil || b == nil || !a.Converged || !b.Converged {
		return false
	}
	for _, name := range order {
		if !sameRoute(a.Final[name], b.Final[name]) || len(a.AdjIn[name]) != len(b.AdjIn[name]) {
			return false
		}
		for addr, rt := range a.AdjIn[name] { //acrvet:ordered boolean all-reduction
			if !sameRoute(rt, b.AdjIn[name][addr]) {
				return false
			}
		}
	}
	return true
}

// DeltaSimulatePrefix re-simulates one prefix for net n (the candidate
// compilation) starting from base (the converged outcome of the
// pre-edit net), re-deriving and force-activating only the dirty
// routers — the devices whose configuration text changed. The false
// return refuses the shortcut (non-converged or AdjIn-less base, unknown
// dirty router, cancellation, pass bound exhausted) and the caller must
// fall back to a cold SimulatePrefix.
func DeltaSimulatePrefix(n *Net, base *PrefixOutcome, dirty []string, prefix netip.Prefix, opts Options) (*PrefixOutcome, bool) {
	if base == nil || !base.Converged || base.Final == nil || base.AdjIn == nil {
		return nil, false
	}
	for _, d := range dirty {
		if n.Routers[d] == nil {
			return nil, false
		}
	}
	if opts.PrefixHook != nil {
		opts.PrefixHook(prefix)
	}
	maxPasses := opts.maxPasses(n)

	// Seed the state from the base outcome, copy-on-write: best is a
	// fresh map (snapshots alias it), adj-in inner maps stay shared with
	// the immutable base until a router's first write.
	st := &prefixState{
		adjIn: make(map[string]map[netip.Addr]*Route, len(n.Order)),
		best:  make(map[string]*Route, len(n.Order)),
	}
	owned := make(map[string]bool, len(dirty))
	for _, name := range n.Order {
		if m := base.AdjIn[name]; m != nil {
			st.adjIn[name] = m
		} else {
			st.adjIn[name] = map[netip.Addr]*Route{}
			owned[name] = true
		}
		if r := base.Final[name]; r != nil {
			st.best[name] = r
		}
	}
	ownAdj := func(name string) map[netip.Addr]*Route {
		if !owned[name] {
			cp := make(map[netip.Addr]*Route, len(st.adjIn[name]))
			for a, rt := range st.adjIn[name] { //acrvet:ordered — map copy
				cp[a] = rt
			}
			st.adjIn[name] = cp
			owned[name] = true
		}
		return st.adjIn[name]
	}

	// Phase 1: rebuild each dirty router's entire adj-RIB-in under the
	// candidate's policies from the neighbors' (still-base) best routes —
	// the same reconstruction RederiveLeaves performs. Base entries import
	// through the OLD import policies, so every entry is stale on a device
	// whose config changed.
	acts := 0
	dirtySet := make(map[string]bool, len(dirty))
	for _, d := range dirty {
		dirtySet[d] = true
	}
	for _, name := range n.Order {
		if !dirtySet[name] {
			continue
		}
		r := n.Routers[name]
		adj := ownAdj(name)
		for a := range adj { //acrvet:ordered — clearing for rebuild
			delete(adj, a)
		}
		for _, ls := range r.Sessions {
			ns := ls.reverse
			if ns == nil {
				continue
			}
			nbBest := st.best[ls.PeerName]
			if nbBest == nil {
				continue
			}
			adv, ok := processExport(n.Routers[ls.PeerName], ns, nbBest, nil)
			if !ok {
				continue
			}
			in, ok, _ := processImport(r, ls, adv, nil)
			if !ok {
				continue
			}
			adj[ns.LocalAddr] = in
		}
	}

	// Phase 2: force-activate the dirty routers. Forcing runs the push
	// loop even when the best route is unchanged, because a changed
	// EXPORT policy (or origination attribute, or router ID stamped by
	// the neighbor's import) alters what neighbors hear without moving
	// the local best. Receivers whose adj-in actually changed form the
	// first frontier.
	pending := map[string]bool{}
	for _, name := range n.Order {
		if !dirtySet[name] {
			continue
		}
		acts++
		n.activateDelta(st, name, prefix, true, ownAdj, pending)
	}

	// Phase 3: worklist to fixpoint. Each pass activates the frontier in
	// topology order; a router re-enters the frontier only when a push
	// changed its adj-in. Quiet frontier = converged.
	for pass := 1; len(pending) > 0; pass++ {
		if pass > maxPasses || opts.canceled() {
			return nil, false
		}
		next := map[string]bool{}
		for _, name := range n.Order {
			if !pending[name] {
				continue
			}
			acts++
			n.activateDelta(st, name, prefix, false, ownAdj, next)
		}
		pending = next
	}
	return &PrefixOutcome{Prefix: prefix, Converged: true, Passes: base.Passes,
		Final: st.snapshot(n.Order), AdjIn: st.adjIn, Activations: acts}, true
}

// activateDelta is activate() for the delta run: it recomputes router
// name's best route and pushes changes to neighbors, marking every
// neighbor whose adj-in changed in frontier. With force set the push loop
// runs even when the best is unchanged (see DeltaSimulatePrefix phase 2).
// Writes to a neighbor's adj-in go through ownAdj to preserve the base
// outcome's immutability.
func (n *Net) activateDelta(st *prefixState, name string, prefix netip.Prefix, force bool, ownAdj func(string) map[netip.Addr]*Route, frontier map[string]bool) {
	r := n.Routers[name]
	best := st.selectBest(r, prefix)
	if !force && sameRoute(best, st.best[name]) {
		return
	}
	if best != nil {
		st.best[name] = best
	} else {
		delete(st.best, name)
	}
	for _, s := range r.Sessions {
		nb := s.PeerName
		prev := st.adjIn[nb][s.LocalAddr]
		var next *Route
		if best != nil && s.reverse != nil {
			if adv, ok := processExport(r, s, best, nil); ok {
				if in, ok, _ := processImport(n.Routers[nb], s.reverse, adv, nil); ok {
					next = in
				}
			}
		}
		if !sameRoute(prev, next) {
			adj := ownAdj(nb)
			if next == nil {
				delete(adj, s.LocalAddr)
			} else {
				adj[s.LocalAddr] = next
			}
			frontier[nb] = true
		}
	}
}
