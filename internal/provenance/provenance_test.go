package provenance

import (
	"net/netip"
	"testing"

	"acr/internal/netcfg"
)

var (
	p1 = netip.MustParsePrefix("10.0.0.0/16")
	p2 = netip.MustParsePrefix("20.0.0.0/16")
)

func lr(d string, n int) netcfg.LineRef { return netcfg.LineRef{Device: d, Line: n} }

// buildSample constructs: orig(A) -> sel(A) -> imp(B) -> sel(B) and a
// rejection for p1, plus an unrelated origination for p2. The sections are
// returned unsealed so a test can add to them before building its graph.
func buildSample() (s1, s2 *Section, ids map[string]int) {
	s1, s2 = NewSection(p1, 8), NewSection(p2, 0)
	ids = map[string]int{}
	ids["origA"] = s1.Add(Node{Kind: Origination, Router: "A", Lines: []netcfg.LineRef{lr("A", 5)}})
	ids["selA"] = s1.Add(Node{Kind: Selection, Router: "A", Parents: []int{ids["origA"]}})
	ids["impB"] = s1.Add(Node{Kind: Import, Router: "B",
		Lines: []netcfg.LineRef{lr("B", 3), lr("A", 2)}, Parents: []int{ids["selA"]}})
	ids["selB"] = s1.Add(Node{Kind: Selection, Router: "B", Parents: []int{ids["impB"]}})
	ids["rejC"] = s1.Add(Node{Kind: Rejection, Router: "C",
		Lines: []netcfg.LineRef{lr("C", 9)}, Parents: []int{ids["selB"]}})
	ids["origX"] = s2.Add(Node{Kind: Origination, Router: "X", Lines: []netcfg.LineRef{lr("X", 1)}})
	return s1, s2, ids
}

func TestAddAssignsSequentialIDs(t *testing.T) {
	s1, s2, ids := buildSample()
	if g := NewGraph(s1, s2); g.Len() != 6 {
		t.Fatalf("Len = %d, want 6", g.Len())
	}
	// IDs are per section: p2's only node starts again at 0.
	if ids["origA"] != 0 || ids["selB"] != 3 || ids["origX"] != 0 {
		t.Errorf("unexpected IDs: %v", ids)
	}
	if n := s1.Node(ids["impB"]); n == nil || n.ID != ids["impB"] || n.Prefix != p1 {
		t.Errorf("Node(impB) = %+v, want ID %d for %v", n, ids["impB"], p1)
	}
	if s1.Node(99) != nil || s1.Node(-1) != nil {
		t.Error("out-of-range Node should be nil")
	}
}

func TestForPrefixSeparation(t *testing.T) {
	s1, s2, _ := buildSample()
	g := NewGraph(s1, s2, NewSection(netip.MustParsePrefix("30.0.0.0/8"), 0))
	if got := len(g.ForPrefix(p1)); got != 5 {
		t.Errorf("ForPrefix(p1) = %d nodes, want 5", got)
	}
	if got := len(g.ForPrefix(p2)); got != 1 {
		t.Errorf("ForPrefix(p2) = %d nodes, want 1", got)
	}
	if got := g.Prefixes(); len(got) != 2 || got[0] != p1 || got[1] != p2 {
		t.Errorf("Prefixes = %v, want [%v %v] (the empty section left out)", got, p1, p2)
	}
	if g.Section(p1) != s1 || g.Section(netip.MustParsePrefix("30.0.0.0/8")) != nil {
		t.Error("Section does not return the attached section, or returns an empty one")
	}
}

func TestLinesForPrefixDedupSorted(t *testing.T) {
	s1, s2, _ := buildSample()
	s1.Add(Node{Kind: Import, Router: "D", Lines: []netcfg.LineRef{lr("A", 2), lr("A", 2)}})
	lines := NewGraph(s1, s2).LinesForPrefix(p1)
	want := []netcfg.LineRef{lr("A", 2), lr("A", 5), lr("B", 3), lr("C", 9)}
	if len(lines) != len(want) {
		t.Fatalf("lines = %v, want %v", lines, want)
	}
	for i := range want {
		if lines[i] != want[i] {
			t.Fatalf("lines[%d] = %v, want %v (sorted, deduplicated)", i, lines[i], want[i])
		}
	}
}

func TestLinesAtDeviceIsTheDeviceRun(t *testing.T) {
	s1, s2, _ := buildSample()
	s1.Add(Node{Kind: Import, Router: "B", Lines: []netcfg.LineRef{lr("A", 9), lr("AA", 1), lr("B", 1)}})
	g := NewGraph(s1, s2)
	for device, want := range map[string][]netcfg.LineRef{
		"A":  {lr("A", 2), lr("A", 5), lr("A", 9)},
		"AA": {lr("AA", 1)},
		"B":  {lr("B", 1), lr("B", 3)},
		"C":  {lr("C", 9)},
		"0":  nil, // sorts before every device
		"AB": nil, // sorts between two devices
		"Z":  nil, // sorts after every device
	} {
		got := g.LinesAtDevice(p1, device)
		if len(got) != len(want) {
			t.Errorf("LinesAtDevice(p1, %q) = %v, want %v", device, got, want)
			continue
		}
		for i := range want {
			if got[i] != want[i] {
				t.Errorf("LinesAtDevice(p1, %q) = %v, want %v", device, got, want)
				break
			}
		}
	}
	if got := g.LinesAtDevice(netip.MustParsePrefix("30.0.0.0/8"), "A"); len(got) != 0 {
		t.Errorf("LinesAtDevice of an unknown prefix = %v, want none", got)
	}
}

// TestAddAfterLineQueryPanics pins the sealing choice: the first line query
// builds the index every reader shares, so a later Add — which that index
// would silently miss — is a bug and panics rather than invalidating. A
// section without lines seals like any other.
func TestAddAfterLineQueryPanics(t *testing.T) {
	_, s2, _ := buildSample()
	empty := NewSection(p1, 0)
	empty.Add(Node{Kind: Selection, Router: "A"}) // unsealed: fine
	s2.Add(Node{Kind: Selection, Router: "A"})
	NewGraph(s2).LinesForPrefix(p2)
	empty.Lines()
	for _, s := range []*Section{s2, empty} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("Add on the sealed section of %v did not panic", s.prefix)
				}
			}()
			s.Add(Node{Kind: Selection, Router: "A"})
		}()
	}
}

// TestNewGraphRejectsTwoSectionsForOnePrefix: a graph holds one section per
// prefix; a second would shadow the first's nodes.
func TestNewGraphRejectsTwoSectionsForOnePrefix(t *testing.T) {
	s1, _, _ := buildSample()
	dup := NewSection(p1, 1)
	dup.Add(Node{Kind: Selection, Router: "A"})
	defer func() {
		if recover() == nil {
			t.Error("NewGraph accepted two sections for one prefix")
		}
	}()
	NewGraph(s1, dup)
}

type fakeRoute struct{ path, via string }

func (r fakeRoute) PathString() string { return r.path }
func (r fakeRoute) Via() string        { return r.via }

func TestDetailRendersOnDemand(t *testing.T) {
	rt := fakeRoute{path: "[65001]", via: "10.1.0.1"}
	for _, tc := range []struct {
		n    Node
		want string
	}{
		{Node{Kind: Origination, Route: fakeRoute{path: "[]"}}, "originates []"},
		{Node{Kind: Selection, Route: rt}, "selects [65001] via 10.1.0.1"},
		{Node{Kind: Import, Route: rt, PeerRouter: "B"}, "imports [65001] from B"},
		{Node{Kind: Rejection, Route: rt, PeerRouter: "B", Reason: "as-path loop"}, "rejects [65001] from B: as-path loop"},
		{Node{Kind: Rejection, Reason: "export policy suppressed advertisement"}, "export policy suppressed advertisement"},
	} {
		if got := tc.n.Detail(); got != tc.want {
			t.Errorf("%v Detail = %q, want %q", tc.n.Kind, got, tc.want)
		}
	}
}

func TestKindStrings(t *testing.T) {
	kinds := []Kind{Origination, Import, Rejection, Selection, StaticInstall, PBRApply}
	seen := map[string]bool{}
	for _, k := range kinds {
		s := k.String()
		if s == "unknown" || seen[s] {
			t.Errorf("Kind %d has bad or duplicate name %q", k, s)
		}
		seen[s] = true
	}
}
