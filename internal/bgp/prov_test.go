package bgp

import (
	"net/netip"
	"slices"
	"testing"

	"acr/internal/netcfg"
)

func TestProvenanceChainCoverage(t *testing.T) {
	net := chainNet()
	tb := newTestNet(net)
	bn := tb.compile(t)
	out := Simulate(bn, Options{})
	g := BuildProvenance(bn, out)
	p := netip.MustParsePrefix("10.0.0.0/16")

	lines := g.LinesForPrefix(p)
	if len(lines) == 0 {
		t.Fatal("no coverage lines for propagated prefix")
	}
	// Coverage must include O's network statement and the peer stanzas of
	// every hop.
	wantDevices := map[string]bool{"O": false, "X": false, "Y": false}
	for _, l := range lines {
		if _, ok := wantDevices[l.Device]; ok {
			wantDevices[l.Device] = true
		}
	}
	for d, seen := range wantDevices {
		if !seen {
			t.Errorf("coverage has no lines on %s: %v", d, lines)
		}
	}
	// The network statement line on O.
	netLine := bn.Routers["O"].Origins[0].Lines[0]
	found := false
	for _, l := range lines {
		if l == netLine {
			found = true
		}
	}
	if !found {
		t.Errorf("origination line %v missing from coverage", netLine)
	}
}

// TestProvenanceChainSites: on the chain O–X–Y the traced replay stores
// O's origination, with no peer and O's network statement, and a site per
// session whose sender has a best — imports at X and Y, AS-path loop
// rejections at O and X — and counts the three selections besides. The
// converged section stores only the origination, with the same count.
func TestProvenanceChainSites(t *testing.T) {
	bn := newTestNet(chainNet()).compile(t)
	out := Simulate(bn, Options{})
	p := netip.MustParsePrefix("10.0.0.0/16")
	traced, sec := TracedProvenance(bn, out).Section(p), BuildProvenance(bn, out).Section(p)
	want := []string{"O", "O<X", "X<O", "X<Y", "Y<X"} // router<peer router
	var got []string
	for _, site := range traced.Stored() {
		if !site.Peer.IsValid() {
			got = append(got, site.Router)
			continue
		}
		if s := sessionTo(bn.Routers[site.Router].Sessions, site.Peer); s == nil || s.PeerName != site.PeerRouter {
			t.Errorf("the site at %s from %s names no session of %s", site.Router, site.PeerRouter, site.Router)
		}
		got = append(got, site.Router+"<"+site.PeerRouter)
	}
	if !slices.Equal(got, want) {
		t.Errorf("traced sites %v, want %v", got, want)
	}
	if st := traced.Stored(); len(st) == 0 || !slices.Equal(st[0].Lines, bn.Routers["O"].Origins[0].Lines) {
		t.Errorf("O's origination site does not carry its network statement")
	}
	if traced.Len() != len(want)+3 || sec.Len() != traced.Len() || len(sec.Stored()) != 1 {
		t.Errorf("Len %d (converged %d with %d stored), want %d (1 stored)", traced.Len(), sec.Len(), len(sec.Stored()), len(want)+3)
	}
}

func TestProvenancePolicyLinesTraced(t *testing.T) {
	// The override gadget: the policy attach line, route-policy node line,
	// apply line, and prefix-list entry line on A must all appear in the
	// flapping prefix's coverage.
	bn, tb, _ := overrideGadget(t)
	out := Simulate(bn, Options{})
	g := BuildProvenance(bn, out)
	p := netip.MustParsePrefix("10.0.0.0/16")
	lines := map[netcfg.LineRef]bool{}
	for _, l := range g.LinesForPrefix(p) {
		lines[l] = true
	}
	fA := bn.Routers["A"].File
	// Attach line on A's peer toward S.
	peerS := fA.PeerByAddr(tb.peerAddr("A", "S"))
	if peerS == nil || len(peerS.Policies) != 1 {
		t.Fatal("test setup: A's peer S policy attach missing")
	}
	checks := []netcfg.LineRef{{Device: "A", Line: peerS.Policies[0].Line}}
	pol := fA.PolicyNodes("Override_All")[0]
	checks = append(checks, netcfg.LineRef{Device: "A", Line: pol.Line})
	checks = append(checks, netcfg.LineRef{Device: "A", Line: pol.Applies[0].Line})
	ple := fA.PrefixListEntries("default_all")[0]
	checks = append(checks, netcfg.LineRef{Device: "A", Line: ple.Line})
	for _, c := range checks {
		if !lines[c] {
			t.Errorf("coverage missing policy line %v", c)
		}
	}
}
