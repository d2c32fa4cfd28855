package bgp

import (
	"context"
	"encoding/binary"
	"fmt"
	"net/netip"
	"sort"
	"strings"

	"acr/internal/netcfg"
)

// PrefixOutcome is the control-plane result for one prefix. Once
// SimulatePrefix returns, the outcome (including its Route values) is
// immutable: the incremental verifier shares base outcomes by pointer
// across candidate checks, across concurrently validating workers
// (verify.Incremental.Clone) and across derived versions (DeltaSimulate
// carries unmoved routes and whole outcomes into the next version) — so
// nothing may mutate one in place, and nothing caches on a Route.
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
	// AdjIn is the stable adj-RIB-in at convergence
	// (router → sender's local address → post-import route), retained so
	// delta re-simulation can seed a candidate's fixpoint from it. Nil
	// when not converged. Immutable like the rest of the outcome.
	AdjIn map[string]map[netip.Addr]*Route
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
	// MaxPasses bounds activation passes per prefix; 0 means automatic
	// (2×routers+20, minimum 32). A prefix that neither converges nor
	// revisits a state within the bound is reported as not converged with
	// the tail of observed states as its Cycle.
	MaxPasses int
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

// maxPasses is the activation-pass bound for net n: MaxPasses, or the
// automatic bound when it is unset.
func (o Options) maxPasses(n *Net) int {
	if o.MaxPasses > 0 {
		return o.MaxPasses
	}
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

// prefixState is the full dynamic state of one prefix's computation.
type prefixState struct {
	// adjIn[router][peerAddr] is the post-import route the router holds
	// from that neighbor.
	adjIn map[string]map[netip.Addr]*Route
	best  map[string]*Route
}

func newPrefixState(n *Net) *prefixState {
	st := &prefixState{adjIn: map[string]map[netip.Addr]*Route{}, best: map[string]*Route{}}
	for _, name := range n.Order {
		st.adjIn[name] = map[netip.Addr]*Route{}
	}
	return st
}

// stateHash accumulates a prefixState digest from fixed-width words.
type stateHash uint64

func (h *stateHash) word(v uint64) {
	x := (uint64(*h) ^ v) * 0xff51afd7ed558ccd
	*h = stateHash(x ^ x>>33)
}

// addr mixes an address; the bit length tells 1.2.3.4 from ::ffff:1.2.3.4
// and the unset address from ::.
func (h *stateHash) addr(a netip.Addr) {
	b := a.As16()
	h.word(binary.BigEndian.Uint64(b[:8]))
	h.word(binary.BigEndian.Uint64(b[8:]))
	h.word(uint64(a.BitLen()))
}

// route mixes every field sameRoute compares; nil is a word of its own.
func (h *stateHash) route(r *Route) {
	if r == nil {
		h.word(0)
		return
	}
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

// hash digests the complete state; any field that can influence future
// transitions must be included. Routers go in activation order and each
// router's adj-in in session order (an adj-in slot is keyed by the
// sender's address, which is the receiving session's PeerAddr), so every
// router contributes a fixed number of slots and nothing is sorted,
// rendered or allocated.
func (st *prefixState) hash(n *Net) uint64 {
	var h stateHash
	for _, name := range n.Order {
		h.route(st.best[name])
		adj := st.adjIn[name]
		for _, s := range n.Routers[name].Sessions {
			h.route(adj[s.PeerAddr])
		}
	}
	return uint64(h)
}

func (st *prefixState) snapshot(order []string) map[string]*Route {
	snap := make(map[string]*Route, len(order))
	for _, name := range order {
		if r := st.best[name]; r != nil {
			snap[name] = r
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
	if opts.PrefixHook != nil {
		opts.PrefixHook(prefix)
	}
	maxPasses := opts.maxPasses(n)
	st := newPrefixState(n)
	seen := map[uint64]int{}       // state hash → pass index it was first seen after
	snaps := []map[string]*Route{} // snapshot after each pass
	acts := 0

	for pass := 1; pass <= maxPasses; pass++ {
		if opts.canceled() {
			return &PrefixOutcome{Prefix: prefix, Canceled: true, Passes: pass, Activations: acts}
		}
		changed := false
		for _, name := range n.Order {
			acts++
			if n.activate(st, name, prefix) {
				changed = true
			}
		}
		if !changed {
			// The state is stable; hand the adj-RIB-in over to the outcome
			// (st is dead from here) so delta re-simulation can seed from it.
			return &PrefixOutcome{Prefix: prefix, Converged: true, Passes: pass,
				Final: st.snapshot(n.Order), AdjIn: st.adjIn, Activations: acts}
		}
		h := st.hash(n)
		if first, ok := seen[h]; ok {
			// States after passes first..pass-1 repeat forever.
			return &PrefixOutcome{Prefix: prefix, Converged: false, Passes: pass, Cycle: snaps[first:], Activations: acts}
		}
		seen[h] = len(snaps)
		snaps = append(snaps, st.snapshot(n.Order))
	}
	// Bound hit without repeat: report the tail as the observed unstable
	// behavior. This indicates maxPasses is too small for the topology.
	tail := snaps
	if len(tail) > 8 {
		tail = tail[len(tail)-8:]
	}
	return &PrefixOutcome{Prefix: prefix, Converged: false, Passes: maxPasses, Cycle: tail, Activations: acts}
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
	for _, rt := range st.adjIn[r.Name] { //acrvet:ordered Better is a total order over one router's candidates, so the maximum does not depend on visiting order
		if Better(rt, best) {
			best = rt
		}
	}
	return best
}

// activate recomputes router name's best route for prefix and, on change,
// pushes updates to neighbors. Reports whether anything changed (best or
// any neighbor's adj-in).
func (n *Net) activate(st *prefixState, name string, prefix netip.Prefix) bool {
	r := n.Routers[name]
	best := st.selectBest(r, prefix)
	if sameRoute(best, st.best[name]) {
		return false
	}
	st.best[name] = best
	// Push the new best (or withdrawal) to every session.
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
			if next == nil {
				delete(st.adjIn[nb], s.LocalAddr)
			} else {
				st.adjIn[nb][s.LocalAddr] = next
			}
		}
	}
	return true
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
