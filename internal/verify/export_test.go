package verify

import "acr/internal/dataplane"

// Probes returns the sampled packets and injection points the verifier
// memoized, by intent.
func (iv *Incremental) Probes() (pkts []dataplane.Packet, froms []string) {
	for _, pr := range iv.probes {
		pkts = append(pkts, pr.pkt)
		froms = append(froms, pr.from)
	}
	return pkts, froms
}
