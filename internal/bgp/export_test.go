package bgp

import (
	"fmt"
	"net/netip"
	"reflect"
	"testing"

	"acr/internal/provenance"
	"acr/internal/topo"
)

// Reverse exposes a session's reverse view to the external tests.
func (s *Session) Reverse() *Session { return s.reverse }

// TracedProvenance is BuildProvenance with every session replayed through
// the traced export→import pipeline: the outcomes are handed over without
// their AdjIn, so no import is read off.
func TracedProvenance(n *Net, out *Outcome) *provenance.Graph {
	bare := &Outcome{Net: out.Net, ByPrefix: make(map[netip.Prefix]*PrefixOutcome, len(out.ByPrefix))}
	for _, p := range n.AllPrefixes() {
		if po := out.ByPrefix[p]; po != nil {
			cp := *po
			cp.AdjIn = nil
			bare.ByPrefix[p] = &cp
		}
	}
	return BuildProvenance(n, bare)
}

// ASReuseChain compiles the chain A–B–C in which A and C share AS 65001
// and A originates 10.0.0.0/16. C rejects B's route on an AS-path loop and
// has none of its own, so only that rejection executes B's session lines
// toward C.
func ASReuseChain(t *testing.T) *Net {
	net := topo.New("as-reuse")
	net.AddNode("A", topo.PoP, 65001, netip.MustParseAddr("1.0.0.1")).Originates = []netip.Prefix{netip.MustParsePrefix("10.0.0.0/16")}
	net.AddNode("B", topo.Backbone, 65002, netip.MustParseAddr("1.0.0.2"))
	net.AddNode("C", topo.PoP, 65001, netip.MustParseAddr("1.0.0.3"))
	net.Connect("A", "B")
	net.Connect("B", "C")
	return newTestNet(net).compile(t)
}

// rehash is the state digest recomputed from scratch: Σ term over every
// slot of st, best i at slot i and adj[i][j] at len(routers)+slotBase+j,
// every advertisement hashed anew.
func (st *prefixState) rehash(n *Net) uint64 {
	var h uint64
	for i, r := range n.routers {
		h += bestTerm(i, st.best[i])
		for j, rt := range st.adj[i] {
			if rt != nil {
				h += adjTerm(len(n.routers)+r.slotBase+j, rt, advHash(rt))
			}
		}
	}
	return h
}

// StateDigests drives the cold simulation of prefix p by hand, pass by
// pass, until a pass changes nothing or passes have run. After every pass
// it reports the digest the state kept up to date on its writes and the
// digest recomputed from scratch over its slots.
func StateDigests(n *Net, p netip.Prefix, passes int) (kept, scratch []uint64) {
	st := newPrefixState(n)
	for pass := 0; pass < passes; pass++ {
		changed := false
		for _, r := range n.routers {
			changed = n.activate(st, r, p, false, nil) || changed
		}
		kept, scratch = append(kept, st.h), append(scratch, st.rehash(n))
		if !changed {
			break
		}
	}
	return kept, scratch
}

// NetDiff names the first way in which got differs from want, "" when it
// does not: per router ASN, RID, index, slotBase, origins and statics; per
// session every exported field, its ident, its policies, slot, peer, the
// reverse session's (router, slot) — which must be got's own session there
// — and plainLines; then Failed in order, AllPrefixes and the router IDs
// outcomes share.
func NetDiff(got, want *Net) string {
	if !reflect.DeepEqual(got.Order, want.Order) || len(got.routers) != len(want.routers) {
		return "router order"
	}
	if got.sessions != want.sessions {
		return fmt.Sprintf("%d sessions, want %d", got.sessions, want.sessions)
	}
	for i, w := range want.routers {
		g := got.routers[i]
		switch {
		case got.Routers[w.Name] != g:
			return w.Name + ": Routers and Order disagree"
		case g.Name != w.Name || g.ASN != w.ASN || g.RID != w.RID || g.index != w.index || g.slotBase != w.slotBase:
			return fmt.Sprintf("%s: identity %d/%v/%d/%d, want %d/%v/%d/%d", w.Name, g.ASN, g.RID, g.index, g.slotBase, w.ASN, w.RID, w.index, w.slotBase)
		case !reflect.DeepEqual(g.Origins, w.Origins):
			return w.Name + ": origins"
		case !reflect.DeepEqual(g.Statics, w.Statics):
			return w.Name + ": statics"
		case len(g.Sessions) != len(w.Sessions):
			return fmt.Sprintf("%s: %d sessions, want %d", w.Name, len(g.Sessions), len(w.Sessions))
		}
		for j, ws := range w.Sessions {
			gs := g.Sessions[j]
			at := fmt.Sprintf("%s session %d (%v)", w.Name, j, ws.PeerAddr)
			switch {
			case gs.LocalAddr != ws.LocalAddr || gs.PeerName != ws.PeerName || gs.PeerAddr != ws.PeerAddr ||
				gs.PeerASN != ws.PeerASN || gs.PeerRID != ws.PeerRID || gs.NextHop != ws.NextHop:
				return at + ": identity"
			case !reflect.DeepEqual(gs.LocalLines, ws.LocalLines):
				return at + ": lines"
			case !reflect.DeepEqual(gs.exportPols, ws.exportPols) || !reflect.DeepEqual(gs.importPols, ws.importPols):
				return at + ": policies"
			case gs.slot != ws.slot || gs.peer != ws.peer:
				return fmt.Sprintf("%s: slot %d peer %d, want %d %d", at, gs.slot, gs.peer, ws.slot, ws.peer)
			case (gs.reverse == nil) != (ws.reverse == nil):
				return at + ": reverse presence"
			case ws.reverse != nil && (gs.reverse.slot != ws.reverse.slot || gs.reverse.slot >= len(got.routers[gs.peer].Sessions) ||
				got.routers[gs.peer].Sessions[gs.reverse.slot] != gs.reverse):
				return at + ": reverse is not the peer's session at its slot"
			case !reflect.DeepEqual(gs.plainLines, ws.plainLines):
				return at + ": plainLines"
			}
		}
	}
	if len(got.Failed) != len(want.Failed) {
		return fmt.Sprintf("%d failed sessions, want %d", len(got.Failed), len(want.Failed))
	}
	for i, w := range want.Failed {
		if !reflect.DeepEqual(got.Failed[i], w) {
			return fmt.Sprintf("failed session %d (%s to %s)", i, w.Router, w.PeerName)
		}
	}
	if !reflect.DeepEqual(got.AllPrefixes(), want.AllPrefixes()) {
		return "prefixes"
	}
	if !reflect.DeepEqual(got.rids, want.rids) {
		return "router IDs"
	}
	return ""
}
