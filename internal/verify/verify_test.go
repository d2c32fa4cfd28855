package verify_test

import (
	"net/netip"
	"testing"

	"acr/internal/bgp"
	"acr/internal/netcfg"
	"acr/internal/scenario"
	"acr/internal/verify"
)

func run(t *testing.T, s *scenario.Scenario) (*bgp.Net, *bgp.Outcome, *verify.Report) {
	t.Helper()
	n := bgp.Compile(s.Topo, s.Files())
	out := bgp.Simulate(n, bgp.Options{})
	return n, out, verify.Verify(n, out, s.Intents)
}

// TestGenerateTests: the packet sampled for each Figure 2 intent lies inside
// the intent's source and destination prefixes.
func TestGenerateTests(t *testing.T) {
	intents := scenario.Figure2Intents()
	if len(intents) == 0 {
		t.Fatal("no Figure 2 intents")
	}
	for i, in := range intents {
		pkt := in.Packet()
		if !in.SrcPrefix.Contains(pkt.Src) {
			t.Errorf("test %d: src %v outside %v", i, pkt.Src, in.SrcPrefix)
		}
		if !in.DstPrefix.Contains(pkt.Dst) {
			t.Errorf("test %d: dst %v outside %v", i, pkt.Dst, in.DstPrefix)
		}
	}
}

func TestIntentPacketHonorsHeaderSpace(t *testing.T) {
	in := verify.Intent{
		Kind:      verify.Waypoint,
		SrcPrefix: netip.MustParsePrefix("10.0.0.0/16"),
		DstPrefix: netip.MustParsePrefix("10.1.0.0/16"),
		Proto:     "udp",
		DstPort:   53,
	}
	pkt := in.Packet()
	if pkt.Proto != "udp" || pkt.DstPort != 53 {
		t.Errorf("packet = %v, want udp/53", pkt)
	}
}

func TestVerifyFigure2(t *testing.T) {
	_, _, rep := run(t, scenario.Figure2())
	if rep.NumFailed() != 1 {
		t.Fatalf("failed = %d, want 1\n%s", rep.NumFailed(), rep.Summary())
	}
	failed := rep.Failed()
	if failed[0].Intent.ID != "reach-pop-b" {
		t.Errorf("failing intent = %s", failed[0].Intent.ID)
	}
	if len(rep.Passed()) != 2 {
		t.Errorf("passed = %d, want 2", len(rep.Passed()))
	}
	if rep.ByID("nope") != nil {
		t.Error("ByID of unknown intent should be nil")
	}
	if rep.ByID("reach-pop-b") == nil {
		t.Error("ByID lost the failing intent")
	}
}

func TestVerdictPrefixDependency(t *testing.T) {
	_, _, rep := run(t, scenario.Figure2())
	v := rep.ByID("reach-pop-b")
	if v.Prefix != scenario.PrefixPoPB {
		t.Errorf("verdict prefix = %v, want %v", v.Prefix, scenario.PrefixPoPB)
	}
	if len(v.Traces) < 2 {
		t.Errorf("flapping verdict has %d traces, want one per phase (>=2)", len(v.Traces))
	}
}

func TestIsolationVerdicts(t *testing.T) {
	s := scenario.WAN(6, 3, 2, scenario.GenOptions{})
	_, _, rep := run(t, s)
	sawIsolation := false
	for _, v := range rep.Verdicts {
		if v.Intent.Kind == verify.Isolation {
			sawIsolation = true
			if !v.Pass {
				t.Errorf("isolation intent failed in correct WAN: %s (%s)", v.Intent, v.Reason())
			}
		}
	}
	if !sawIsolation {
		t.Fatal("no isolation intents in WAN scenario")
	}
}

func TestLoopFreeIntentOnFlappingPrefix(t *testing.T) {
	s := scenario.Figure2()
	s.Intents = append(s.Intents, verify.LoopFreeIntent("loopfree-10.0", scenario.PrefixPoPB))
	_, _, rep := run(t, s)
	v := rep.ByID("loopfree-10.0")
	if v == nil || v.Pass {
		t.Fatalf("loop-free intent on the flapping prefix must fail (transient loops exist): %+v", v)
	}
}

func TestLoopFreeOnUnoriginatedPrefix(t *testing.T) {
	s := scenario.Figure2Correct()
	s.Intents = []verify.Intent{verify.LoopFreeIntent("lf", netip.MustParsePrefix("99.0.0.0/16"))}
	_, _, rep := run(t, s)
	if !rep.Verdicts[0].Pass {
		t.Error("loop-freedom of an unoriginated prefix is trivially true")
	}
}

func TestBlackholeFreeIntent(t *testing.T) {
	// A backbone router originating a prefix it cannot deliver (network
	// statement without attachment) blackholes — BlackholeFree catches it.
	s := scenario.Figure2Correct()
	cfg := s.Configs["B"]
	f := netcfg.MustParse(cfg)
	insertAt := f.BGP.End + 1 // append inside the bgp block
	next, err := netcfg.EditSet{Edits: []netcfg.Edit{
		netcfg.InsertBefore{At: insertAt, Text: " network 33.0.0.0/16"},
	}}.Apply(cfg)
	if err != nil {
		t.Fatal(err)
	}
	s.Configs["B"] = next
	s.Intents = []verify.Intent{verify.BlackholeFreeIntent("bh", netip.MustParsePrefix("33.0.0.0/16"))}
	_, _, rep := run(t, s)
	if rep.Verdicts[0].Pass {
		t.Error("blackhole-free intent should fail for an undeliverable origination")
	}
}

func TestReachabilityToUnknownDestinationFails(t *testing.T) {
	s := scenario.Figure2Correct()
	s.Intents = []verify.Intent{verify.ReachIntent("unknown", scenario.PrefixDCNS, netip.MustParsePrefix("99.0.0.0/16"))}
	_, _, rep := run(t, s)
	if rep.Verdicts[0].Pass {
		t.Error("reachability to an unoriginated prefix should fail")
	}
}

func TestIsolationOfUnknownSourcePasses(t *testing.T) {
	s := scenario.Figure2Correct()
	s.Intents = []verify.Intent{verify.IsolationIntent("iso", netip.MustParsePrefix("99.0.0.0/16"), scenario.PrefixDCNS)}
	_, _, rep := run(t, s)
	if !rep.Verdicts[0].Pass {
		t.Error("isolation with no injection point is vacuously true")
	}
}
