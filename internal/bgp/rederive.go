package bgp

import "net/netip"

// RederiveLeaves recomputes, against network n, the best routes of the
// given non-transit (leaf) routers from an already-converged base outcome
// for prefix, leaving every other router's entry untouched. It exists for
// the impact analysis's leaf-local slices: when a candidate edit can only
// change what a leaf hears (an export-policy delta on its neighbor), the
// global fixed point is identical to the base everywhere else, so the
// candidate outcome is the base outcome with just the leaf entries
// re-derived — no full prefix simulation needed.
//
// Exactness, not approximation: a leaf that originates nothing for prefix
// only ever holds learned routes, and every route it re-exports carries
// its neighbor's ASN (processExport prepends the sender's AS), so AS-path
// loop detection rejects it at the neighbor in any simulation trajectory.
// The non-leaf part of the candidate run therefore evolves exactly as the
// base run did, and each leaf's stable state is the one computed here:
// imports of its neighbors' stable exports, selected by the same best-path
// function the simulator uses.
//
// The false return refuses the shortcut and the caller must fall back to
// a full simulation: a non-converged base, an unknown router, a leaf that
// originates the prefix (its best-route flip could leak back out), or a
// leaf session terminating at another router in the patch set (whose
// entry is itself being replaced) all break the argument above.
func RederiveLeaves(n *Net, base *PrefixOutcome, prefix netip.Prefix, leaves []string) (*PrefixOutcome, bool) {
	if base == nil || !base.Converged || base.Final == nil {
		return nil, false
	}
	patched := map[string]bool{}
	for _, l := range leaves {
		patched[l] = true
	}
	final := make(map[string]*Route, len(base.Final))
	for d, r := range base.Final { //acrvet:ordered — map copy
		final[d] = r
	}
	var mem arena
	for _, leaf := range leaves {
		r := n.Routers[leaf]
		if r == nil {
			return nil, false
		}
		for _, o := range r.Origins {
			if o.Prefix == prefix {
				return nil, false
			}
		}
		// Rebuild the leaf's stable adj-in exactly as the simulator's
		// activation step fills it: one route per session, carried over
		// from the neighbor's stable best.
		candidates := make([]*Route, 0, len(r.Sessions))
		for _, ls := range r.Sessions {
			if patched[ls.PeerName] {
				return nil, false
			}
			if in := n.hop(ls.reverse, base.Final[ls.PeerName], &mem); in != nil {
				candidates = append(candidates, in)
			}
		}
		if best := SelectBest(candidates); best != nil {
			final[leaf] = best
		} else {
			delete(final, leaf)
		}
	}
	return &PrefixOutcome{Prefix: prefix, Converged: true, Passes: base.Passes, Final: final}, true
}
