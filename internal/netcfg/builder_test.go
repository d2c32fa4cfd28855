package netcfg

import (
	"fmt"
	"math/rand"
	"net/netip"
	"testing"
)

// randomConfig builds a random but well-formed configuration, used by
// property tests.
func randomConfig(rng *rand.Rand) *Config {
	b := NewBuilder(fmt.Sprintf("R%d", rng.Intn(100)))
	asn := uint32(rng.Intn(60000) + 1)
	g := b.BGP(asn).RouterID(randAddr(rng))
	nGroups := rng.Intn(3)
	for i := 0; i < nGroups; i++ {
		g.PeerGroup(fmt.Sprintf("G%d", i), rng.Intn(2) == 0)
	}
	nPeers := rng.Intn(4)
	for i := 0; i < nPeers; i++ {
		addr := randAddr(rng)
		g.Peer(addr, uint32(rng.Intn(60000)+1))
		if nGroups > 0 && rng.Intn(2) == 0 {
			g.PeerInGroup(addr, fmt.Sprintf("G%d", rng.Intn(nGroups)))
		}
		if rng.Intn(2) == 0 {
			g.PeerPolicy(addr, "Pol", Import)
		}
	}
	if rng.Intn(2) == 0 {
		g.Network(randPrefix(rng))
	}
	if rng.Intn(2) == 0 {
		g.RedistributeStatic("")
	}
	b = g.End()
	pb := b.RoutePolicy("Pol", true, 10).MatchIPPrefix("L")
	switch rng.Intn(3) {
	case 0:
		pb.ApplyASPathOverwrite(asn)
	case 1:
		pb.ApplyASPathPrepend(asn, rng.Intn(3)+1)
	default:
		pb.ApplyLocalPref(uint32(rng.Intn(300)))
	}
	b = pb.End()
	b.PrefixListEntry("L", 10, true, randPrefix(rng), 0, 32)
	if rng.Intn(2) == 0 {
		b.StaticRoute(randPrefix(rng), randAddr(rng))
	}
	ifb := b.Interface("eth0").Address(netip.PrefixFrom(randAddr(rng), 30))
	if rng.Intn(3) == 0 {
		ifb.Shutdown()
	}
	b = ifb.End()
	return b.Build()
}

func randAddr(rng *rand.Rand) netip.Addr {
	return netip.AddrFrom4([4]byte{byte(rng.Intn(223) + 1), byte(rng.Intn(256)), byte(rng.Intn(256)), byte(rng.Intn(254) + 1)})
}

func randPrefix(rng *rand.Rand) netip.Prefix {
	bits := rng.Intn(17) + 8
	return netip.PrefixFrom(randAddr(rng), bits).Masked()
}

func TestBuilderOutputParses(t *testing.T) {
	for seed := int64(0); seed < 50; seed++ {
		cfg := randomConfig(rand.New(rand.NewSource(seed)))
		if _, err := Parse(cfg); err != nil {
			t.Fatalf("seed %d: builder output does not parse: %v\n%s", seed, err, cfg.Text())
		}
	}
}

func TestBuilderRoundTrip(t *testing.T) {
	addr := netip.MustParseAddr("10.1.1.2")
	cfg := NewBuilder("A").
		Comment("router A").
		BGP(65001).
		RouterID(netip.MustParseAddr("1.0.0.1")).
		PeerGroup("PoPSide", true).
		Peer(addr, 64601).
		PeerInGroup(addr, "PoPSide").
		GroupPolicy("PoPSide", "Override_All", Import).
		Network(netip.MustParsePrefix("10.70.0.0/16")).
		RedistributeStatic("RedistPol").
		End().
		RoutePolicy("Override_All", true, 10).
		MatchIPPrefix("default_all").
		ApplyASPathOverwrite(65001).
		End().
		PrefixListEntry("default_all", 10, true, netip.MustParsePrefix("0.0.0.0/0"), 0, 32).
		StaticRoute(netip.MustParsePrefix("10.70.0.0/16"), addr).
		Build()

	f, err := Parse(cfg)
	if err != nil {
		t.Fatalf("Parse: %v", err)
	}
	if f.BGP.ASN != 65001 {
		t.Errorf("ASN = %d", f.BGP.ASN)
	}
	p := f.PeerByAddr(addr)
	if p == nil || p.ASN != 64601 || p.Group != "PoPSide" {
		t.Fatalf("peer = %+v", p)
	}
	if f.BGP.Redistribute == nil || f.BGP.Redistribute.Policy != "RedistPol" {
		t.Errorf("redistribute = %+v", f.BGP.Redistribute)
	}
	g := f.GroupByName("PoPSide")
	if g == nil || !g.External || len(g.Policies) != 1 {
		t.Fatalf("group = %+v", g)
	}
	if len(f.PolicyNodes("Override_All")) != 1 {
		t.Error("policy missing")
	}
}

func TestBuilderPBR(t *testing.T) {
	cfg := NewBuilder("X").
		PBRPolicy("Redirect").
		Rule(10, true).
		MatchSource(netip.MustParsePrefix("10.0.0.0/16")).
		MatchDest(netip.MustParsePrefix("20.0.0.0/16")).
		MatchProtocol("udp").
		MatchDstPort(53).
		ApplyNextHop(netip.MustParseAddr("10.1.1.2")).
		Rule(20, false).
		ApplyDrop().
		End().
		Interface("eth0").
		Address(netip.MustParsePrefix("10.1.1.1/30")).
		PBR("Redirect").
		End().
		Build()
	f, err := Parse(cfg)
	if err != nil {
		t.Fatalf("Parse: %v\n%s", err, cfg.Text())
	}
	pol := f.PBRPolicyByName("Redirect")
	if pol == nil || len(pol.Rules) != 2 {
		t.Fatalf("pbr = %+v", pol)
	}
	if pol.Rules[0].MatchDstPort.Port != 53 {
		t.Errorf("port = %d", pol.Rules[0].MatchDstPort.Port)
	}
	if pol.Rules[1].ApplyDrop == nil {
		t.Error("rule 20 missing drop")
	}
	if f.InterfaceByName("eth0").PBRPolicy != "Redirect" {
		t.Error("interface PBR binding lost")
	}
}

func TestFormatHelpers(t *testing.T) {
	got := FormatPrefixListEntry("L", 5, true, netip.MustParsePrefix("10.70.0.0/16"), 0, 0)
	if want := "ip prefix-list L index 5 permit 10.70.0.0/16"; got != want {
		t.Errorf("FormatPrefixListEntry = %q, want %q", got, want)
	}
	got = FormatPrefixListEntry("L", 10, false, netip.MustParsePrefix("0.0.0.0/0"), 8, 24)
	if want := "ip prefix-list L index 10 deny 0.0.0.0/0 ge 8 le 24"; got != want {
		t.Errorf("FormatPrefixListEntry = %q, want %q", got, want)
	}
	if got := FormatGroupPolicyLine("G", "P", Export); got != " peer-group G route-policy P export" {
		t.Errorf("FormatGroupPolicyLine = %q", got)
	}
	if got := FormatPeerPolicyLine("1.2.3.4", "P", Import); got != " peer 1.2.3.4 route-policy P import" {
		t.Errorf("FormatPeerPolicyLine = %q", got)
	}
}
