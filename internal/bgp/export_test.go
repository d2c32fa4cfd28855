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
