package bgp

import (
	"net/netip"
	"strings"
	"testing"

	"acr/internal/netcfg"
	"acr/internal/provenance"
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

func TestProvenanceNodeKinds(t *testing.T) {
	net := chainNet()
	bn := newTestNet(net).compile(t)
	out := Simulate(bn, Options{})
	g := BuildProvenance(bn, out)
	p := netip.MustParsePrefix("10.0.0.0/16")
	kinds := map[provenance.Kind]int{}
	for _, n := range g.ForPrefix(p) {
		kinds[n.Kind]++
		// Details are rendered on demand from the route the node keeps.
		switch d := n.Detail(); {
		case n.Kind == provenance.Origination && d != "originates []":
			t.Errorf("origination detail = %q", d)
		case n.Kind == provenance.Selection && n.Router == "O" && d != "selects [] via local":
			t.Errorf("O's selection detail = %q", d)
		case n.Kind == provenance.Import && !(strings.HasPrefix(d, "imports [") && strings.HasSuffix(d, " from "+n.PeerRouter)):
			t.Errorf("import detail = %q", d)
		case n.Kind == provenance.Rejection && !strings.HasSuffix(d, " from "+n.PeerRouter+": as-path loop"):
			t.Errorf("rejection detail = %q", d)
		}
	}
	if kinds[provenance.Origination] != 1 {
		t.Errorf("originations = %d, want 1", kinds[provenance.Origination])
	}
	if kinds[provenance.Selection] != 3 {
		t.Errorf("selections = %d, want 3 (O, X, Y)", kinds[provenance.Selection])
	}
	if kinds[provenance.Import] < 2 {
		t.Errorf("imports = %d, want >= 2", kinds[provenance.Import])
	}
	// Y's advertisement back to X carries X's own AS → a rejection node.
	if kinds[provenance.Rejection] < 1 {
		t.Errorf("rejections = %d, want >= 1 (loop prevention)", kinds[provenance.Rejection])
	}
}

func TestProvenanceSelectionParents(t *testing.T) {
	net := chainNet()
	bn := newTestNet(net).compile(t)
	out := Simulate(bn, Options{})
	g := BuildProvenance(bn, out)
	p := netip.MustParsePrefix("10.0.0.0/16")
	// Y's selection must trace (transitively) back to O's origination.
	ySel := -1
	for id, n := range g.ForPrefix(p) {
		if n.Kind == provenance.Selection && n.Router == "Y" {
			ySel = id
		}
	}
	if ySel < 0 {
		t.Fatal("no selection node for Y")
	}
	// Walk the ancestor closure of Y's selection within the prefix's section.
	sec := g.Section(p)
	seen := map[int]bool{}
	foundOrig, leafLines := false, 0
	for stack := []int{ySel}; len(stack) > 0; {
		id := stack[len(stack)-1]
		stack = stack[:len(stack)-1]
		if seen[id] {
			continue
		}
		seen[id] = true
		n := sec.Node(id)
		if n.Kind == provenance.Origination && n.Router == "O" {
			foundOrig = true
		}
		leafLines += len(n.Lines)
		stack = append(stack, n.Parents...)
	}
	if !foundOrig {
		t.Errorf("Y's provenance slice does not reach O's origination; slice has %d nodes", len(seen))
	}
	if leafLines == 0 {
		t.Error("no config lines in Y's provenance slice")
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

func TestProvenanceDedupAcrossPhases(t *testing.T) {
	bn, _, _ := overrideGadget(t)
	out := Simulate(bn, Options{})
	g := BuildProvenance(bn, out)
	p := netip.MustParsePrefix("10.0.0.0/16")
	seen := map[string]bool{}
	for _, n := range g.ForPrefix(p) {
		key := n.Kind.String() + "|" + n.Router + "|" + n.Peer.String() + "|" + n.Detail()
		if seen[key] {
			t.Errorf("duplicate derivation: %s", key)
		}
		seen[key] = true
	}
}
