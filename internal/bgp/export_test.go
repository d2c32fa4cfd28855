package bgp

import (
	"net/netip"

	"acr/internal/provenance"
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

// rehash is the state digest recomputed from scratch: Σ term over every
// slot of st, best i at slot i and adj[i][j] at len(routers)+slotBase+j.
func (st *prefixState) rehash(n *Net) uint64 {
	var h uint64
	for i, r := range n.routers {
		h += term(i, st.best[i])
		for j, rt := range st.adj[i] {
			h += term(len(n.routers)+r.slotBase+j, rt)
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

// ReadOff reports whether node nd is an import read off the adj-in: its
// lines are its session's shared plainLines, not a traced copy.
func ReadOff(n *Net, nd *provenance.Node) bool {
	if nd.Kind != provenance.Import || len(nd.Lines) == 0 {
		return false
	}
	for _, s := range n.Routers[nd.Router].Sessions {
		if s.PeerAddr == nd.Peer {
			return len(s.plainLines) > 0 && &s.plainLines[0] == &nd.Lines[0]
		}
	}
	return false
}
