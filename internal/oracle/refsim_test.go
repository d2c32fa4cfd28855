package oracle

import (
	"fmt"
	"net/netip"
	"testing"

	"acr/internal/bgp"
	"acr/internal/netcfg"
	"acr/internal/scenario"
	"acr/internal/topo"
)

var (
	pfx  = netip.MustParsePrefix("10.1.0.0/16")
	xRID = netip.MustParseAddr("1.0.0.1")
	xIf  = netip.MustParseAddr("172.16.0.1") // X's end of the X–Y link
	// xRoute and yRoute are the converged routes of pair's prefix: X's own
	// network statement, and what Y learns of it from X.
	xRoute = &Route{Prefix: pfx, LocalPref: 100, Local: true, PeerRID: xRID}
	yRoute = &Route{Prefix: pfx, Path: []uint32{65001}, LocalPref: 100, NextHop: xIf, PeerAddr: xIf, PeerRID: xRID}
)

// pair links X (AS 65001, originating pfx) and Y (AS 65002). Y configures
// X as AS yPeerASN; yBGP is appended to Y's bgp block and yTail after it.
func pair(yPeerASN uint32, yBGP, yTail string) (*topo.Network, map[string]*netcfg.File) {
	nw := topo.New("pair")
	nw.AddNode("X", topo.Backbone, 65001, xRID)
	nw.AddNode("Y", topo.Backbone, 65002, netip.MustParseAddr("1.0.0.2"))
	nw.Connect("X", "Y")
	x := "bgp 65001\n peer 172.16.0.2 as-number 65002\n network 10.1.0.0/16\n"
	y := fmt.Sprintf("bgp 65002\n peer 172.16.0.1 as-number %d\n%s%s", yPeerASN, yBGP, yTail)
	return nw, map[string]*netcfg.File{
		"X": netcfg.MustParse(netcfg.NewConfig("X", x)),
		"Y": netcfg.MustParse(netcfg.NewConfig("Y", y)),
	}
}

func TestStableOnHandComputedRoutes(t *testing.T) {
	nw, files := pair(65001, "", "")
	if err := Stable(nw, files, pfx, map[string]*Route{"X": xRoute, "Y": yRoute}); err != nil {
		t.Fatal(err)
	}
	if Stable(nw, files, pfx, map[string]*Route{"X": xRoute}) == nil {
		t.Error("Y holding no route is stable, but X advertises one to it")
	}
}

func TestWrongASNSessionCarriesNoRoute(t *testing.T) {
	nw, files := pair(65099, "", "")
	if err := Stable(nw, files, pfx, map[string]*Route{"X": xRoute}); err != nil {
		t.Fatal(err)
	}
	if Stable(nw, files, pfx, map[string]*Route{"X": xRoute, "Y": yRoute}) == nil {
		t.Error("Y learns X's route over a session configured with the wrong as-number")
	}
}

func TestImportDenyDropsRoute(t *testing.T) {
	nw, files := pair(65001, " peer 172.16.0.1 route-policy Block import\n",
		"ip prefix-list all index 10 permit 0.0.0.0/0 le 32\nroute-policy Block deny node 10\n match ip-prefix all\n")
	if err := Stable(nw, files, pfx, map[string]*Route{"X": xRoute}); err != nil {
		t.Fatal(err)
	}
	if Stable(nw, files, pfx, map[string]*Route{"X": xRoute, "Y": yRoute}) == nil {
		t.Error("Y imports a route its import policy denies")
	}
}

// TestOverwriteDefeatsLoopCheck: Y re-advertising X's route back to X
// carries X's AS and is dropped on receipt, unless Y's export policy
// overwrites the path first — the Figure 2 mechanism.
func TestOverwriteDefeatsLoopCheck(t *testing.T) {
	toX := func(nw *topo.Network, files map[string]*netcfg.File) *Route {
		ss := sessionsInto(nw, files, "X")
		if len(ss) != 1 {
			t.Fatalf("X hears over %d sessions, want 1", len(ss))
		}
		return carry(nw, files, "X", ss[0], yRoute)
	}
	nw, files := pair(65001, "", "")
	if r := toX(nw, files); r != nil {
		t.Errorf("X accepts its own route back: %v", r)
	}
	nw, files = pair(65001, " peer 172.16.0.1 route-policy Hide export\n",
		"route-policy Hide permit node 10\n apply as-path overwrite 65002\n")
	r := toX(nw, files)
	if r == nil || fmt.Sprint(r.Path) != "[65002 65002]" {
		t.Errorf("with the path overwritten on export, X holds %v, want path [65002 65002]", r)
	}
}

// simulate compiles and simulates s cold.
func simulate(s *scenario.Scenario) *bgp.Outcome {
	files := map[string]*netcfg.File{}
	for d, c := range s.Configs {
		files[d], _ = netcfg.Parse(c)
	}
	return bgp.Simulate(bgp.Compile(s.Topo, files), bgp.Options{})
}

func TestFigure2FlapHasNoStablePhase(t *testing.T) {
	out := simulate(scenario.Figure2())
	po := out.ByPrefix[scenario.PrefixPoPB]
	if po == nil || po.Converged {
		t.Fatalf("Figure 2's %s does not flap", scenario.PrefixPoPB)
	}
	var tally Tally
	if err := tally.Reference(out); err != nil {
		t.Fatal(err)
	}
	if tally.Flapping != 1 || tally.Converged != len(out.ByPrefix)-1 {
		t.Errorf("reference-checked %+v, want the one flapping prefix and every other converged", tally)
	}
}

// TestStableRejectsTamperedFinal: dropping any router's route from a
// converged Final, or raising its local preference, is not a fixpoint.
func TestStableRejectsTamperedFinal(t *testing.T) {
	out := simulate(scenario.Figure2Correct())
	n := out.Net
	tampered := 0
	for _, p := range n.AllPrefixes() {
		final := fromBGPMap(out.ByPrefix[p].Final)
		if err := Stable(n.Topo, n.Files, p, final); err != nil {
			t.Fatal(err)
		}
		for _, d := range n.Order {
			r := final[d]
			if r == nil {
				continue
			}
			delete(final, d)
			if Stable(n.Topo, n.Files, p, final) == nil {
				t.Errorf("%s with %s's route removed is stable", p, d)
			}
			raised := *r
			raised.LocalPref++
			final[d] = &raised
			if Stable(n.Topo, n.Files, p, final) == nil {
				t.Errorf("%s with %s's local preference raised is stable", p, d)
			}
			final[d] = r
			tampered++
		}
	}
	if tampered == 0 {
		t.Fatal("no route to tamper with")
	}
}
