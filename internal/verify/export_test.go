package verify

import (
	"acr/internal/dataplane"
	"acr/internal/topo"
)

// Probes returns the sampled packets and injection points the verifier
// memoized, by intent.
func (iv *Incremental) Probes() (pkts []dataplane.Packet, froms []string) {
	for _, pr := range iv.probes {
		pkts = append(pkts, pr.pkt)
		froms = append(froms, pr.from)
	}
	return pkts, froms
}

// Graph returns the topology's influence graph the verifier holds.
func (iv *Incremental) Graph() *topo.InfluenceGraph { return iv.graph }
