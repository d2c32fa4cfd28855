package verify_test

import (
	"reflect"
	"testing"

	"acr/internal/bgp"
	"acr/internal/dataplane"
	"acr/internal/incidents"
	"acr/internal/verify"
)

// TestProbesMatchDefinition: a verifier samples each intent's packet and
// resolves its injection point once, and its clones share them. On every
// incident of the seed-1 corpus each must equal Intent.Packet and
// dataplane.InjectionPoint over the case's topology, on the verifier and
// on a clone.
func TestProbesMatchDefinition(t *testing.T) {
	incs, err := incidents.GenerateCorpus(incidents.CorpusOptions{Size: 120, Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	injected, intents := 0, 0
	for _, inc := range incs {
		s := inc.Scenario
		iv := verify.NewIncremental(s.Topo, s.Configs, s.Intents, bgp.Options{})
		for _, v := range []*verify.Incremental{iv, iv.Clone()} {
			pkts, froms := v.Probes()
			if len(pkts) != len(s.Intents) || len(froms) != len(s.Intents) {
				t.Fatalf("%s: %d packets and %d injection points for %d intents", inc.ID, len(pkts), len(froms), len(s.Intents))
			}
			for i, in := range s.Intents {
				want := in.Packet()
				if !reflect.DeepEqual(pkts[i], want) {
					t.Fatalf("%s: %s: memoized packet %v, Intent.Packet %v", inc.ID, in.ID, pkts[i], want)
				}
				if from := dataplane.InjectionPoint(s.Topo, want.Src); froms[i] != from {
					t.Fatalf("%s: %s: memoized injection point %q, dataplane.InjectionPoint %q", inc.ID, in.ID, froms[i], from)
				}
			}
		}
		_, froms := iv.Probes()
		for _, from := range froms {
			if from != "" {
				injected++
			}
		}
		intents += len(s.Intents)
	}
	t.Logf("%d incidents, %d intents, %d with an injection point", len(incs), intents, injected)
	if injected == 0 {
		t.Error("no intent has an injection point; the comparison is vacuous")
	}
}
