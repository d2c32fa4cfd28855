package bgp

import (
	"fmt"
	"math/rand"
	"net/netip"
	"testing"
	"testing/quick"

	"acr/internal/topo"
)

// randomStubNet builds a random tree-ish network of backbone routers with
// stubs, all plainly configured (no policies) — such networks must always
// converge loop-free.
func randomStubNet(t *testing.T, rng *rand.Rand) *Net {
	t.Helper()
	n := topo.New("rand")
	nBB := rng.Intn(5) + 2
	for i := 0; i < nBB; i++ {
		n.AddNode(fmt.Sprintf("bb%d", i), topo.Backbone, uint32(65001+i),
			netip.AddrFrom4([4]byte{1, 0, 0, byte(i + 1)}))
	}
	// Random connected backbone: spanning chain + extra random links.
	for i := 1; i < nBB; i++ {
		n.Connect(fmt.Sprintf("bb%d", i), fmt.Sprintf("bb%d", rng.Intn(i)))
	}
	extra := rng.Intn(nBB)
	for e := 0; e < extra; e++ {
		a, b := rng.Intn(nBB), rng.Intn(nBB)
		if a == b {
			continue
		}
		// Avoid duplicate links (parallel links are legal in topo but make
		// the session model ambiguous; production generators avoid them).
		dup := false
		for _, l := range n.Links {
			if (l.A.Node == fmt.Sprintf("bb%d", a) && l.B.Node == fmt.Sprintf("bb%d", b)) ||
				(l.B.Node == fmt.Sprintf("bb%d", a) && l.A.Node == fmt.Sprintf("bb%d", b)) {
				dup = true
			}
		}
		if !dup {
			n.Connect(fmt.Sprintf("bb%d", a), fmt.Sprintf("bb%d", b))
		}
	}
	nStub := rng.Intn(4) + 1
	for i := 0; i < nStub; i++ {
		name := fmt.Sprintf("stub%d", i)
		st := n.AddNode(name, topo.PoP, uint32(64500+i),
			netip.AddrFrom4([4]byte{1, 0, 1, byte(i + 1)}))
		st.Originates = []netip.Prefix{netip.MustParsePrefix(fmt.Sprintf("10.%d.0.0/16", i))}
		n.Connect(name, fmt.Sprintf("bb%d", rng.Intn(nBB)))
	}
	tb := newTestNet(n)
	return tb.compile(t)
}

// Property: policy-free networks always converge, and every selected
// route is loop-free (no router's own AS in its path).
func TestQuickPlainNetworksConverge(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		bn := randomStubNet(t, rng)
		out := Simulate(bn, Options{})
		if !out.Converged() {
			return false
		}
		for _, po := range out.ByPrefix {
			for name, r := range po.Final {
				if r.Src == SrcPeer && r.HasAS(bn.Routers[name].ASN) {
					return false
				}
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 60}); err != nil {
		t.Error(err)
	}
}

// Property: every router in a connected policy-free network learns every
// originated prefix.
func TestQuickPlainNetworksFullReachability(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		bn := randomStubNet(t, rng)
		out := Simulate(bn, Options{})
		if !out.Converged() {
			return false
		}
		for _, po := range out.ByPrefix {
			for _, name := range bn.Order {
				if po.Final[name] == nil {
					return false
				}
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 60}); err != nil {
		t.Error(err)
	}
}

// Property: simulation is deterministic — identical nets produce
// identical outcomes.
func TestQuickSimulationDeterministic(t *testing.T) {
	f := func(seed int64) bool {
		rng1 := rand.New(rand.NewSource(seed))
		rng2 := rand.New(rand.NewSource(seed))
		a := Simulate(randomStubNet(t, rng1), Options{})
		b := Simulate(randomStubNet(t, rng2), Options{})
		if len(a.ByPrefix) != len(b.ByPrefix) {
			return false
		}
		for p, pa := range a.ByPrefix {
			pb := b.ByPrefix[p]
			if pb == nil || pa.Converged != pb.Converged || pa.Passes != pb.Passes {
				return false
			}
			for name, ra := range pa.Final {
				rb := pb.Final[name]
				if rb == nil || ra.Key() != rb.Key() {
					return false
				}
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 30}); err != nil {
		t.Error(err)
	}
}

func TestOutcomeDescribeMentionsEverything(t *testing.T) {
	bn, _, _ := overrideGadget(t)
	out := Simulate(bn, Options{})
	desc := out.Describe()
	if desc == "" {
		t.Fatal("empty description")
	}
	for _, want := range []string{"FLAPPING", "10.0.0.0/16"} {
		if !containsStr(desc, want) {
			t.Errorf("Describe() missing %q:\n%s", want, desc)
		}
	}
}

func containsStr(s, sub string) bool {
	for i := 0; i+len(sub) <= len(s); i++ {
		if s[i:i+len(sub)] == sub {
			return true
		}
	}
	return false
}

func TestMaxPassesBound(t *testing.T) {
	bn, _, _ := overrideGadget(t)
	// With a tiny pass budget the cycle cannot be detected; the outcome
	// must still report non-convergence with a bounded tail.
	po := simulatePrefix(bn, netip.MustParsePrefix("10.0.0.0/16"), Options{}, 3)
	if po.Converged {
		t.Fatal("converged under flapping gadget")
	}
	if len(po.Cycle) == 0 || len(po.Cycle) > 8 {
		t.Errorf("tail length = %d, want 1..8", len(po.Cycle))
	}
}

func TestSessionBetweenAndFailedLines(t *testing.T) {
	bn, _, _ := overrideGadget(t)
	if bn.SessionBetween("A", "B") == nil {
		t.Error("A–B session missing")
	}
	if bn.SessionBetween("A", "PB") != nil {
		t.Error("phantom session A–PB")
	}
	if bn.SessionBetween("nope", "B") != nil {
		t.Error("unknown router session")
	}
	if len(bn.FailedSessionLines()) != 0 {
		t.Error("healthy net reports failed-session lines")
	}
}
