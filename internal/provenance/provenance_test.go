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

// buildSample constructs: orig(A) -> sel(A) -> imp(B) -> sel(B), plus an
// unrelated origination for p2 and a rejection for p1.
func buildSample() (*Graph, map[string]int) {
	g := NewGraph()
	ids := map[string]int{}
	ids["origA"] = g.Add(Node{Kind: Origination, Router: "A", Prefix: p1, Lines: []netcfg.LineRef{lr("A", 5)}})
	ids["selA"] = g.Add(Node{Kind: Selection, Router: "A", Prefix: p1, Parents: []int{ids["origA"]}})
	ids["impB"] = g.Add(Node{Kind: Import, Router: "B", Prefix: p1,
		Lines: []netcfg.LineRef{lr("B", 3), lr("A", 2)}, Parents: []int{ids["selA"]}})
	ids["selB"] = g.Add(Node{Kind: Selection, Router: "B", Prefix: p1, Parents: []int{ids["impB"]}})
	ids["rejC"] = g.Add(Node{Kind: Rejection, Router: "C", Prefix: p1,
		Lines: []netcfg.LineRef{lr("C", 9)}, Parents: []int{ids["selB"]}})
	ids["origX"] = g.Add(Node{Kind: Origination, Router: "X", Prefix: p2, Lines: []netcfg.LineRef{lr("X", 1)}})
	return g, ids
}

func TestAddAssignsSequentialIDs(t *testing.T) {
	g, ids := buildSample()
	if g.Len() != 6 {
		t.Fatalf("Len = %d, want 6", g.Len())
	}
	if ids["origA"] != 0 || ids["selB"] != 3 {
		t.Errorf("unexpected IDs: %v", ids)
	}
	if g.Node(99) != nil || g.Node(-1) != nil {
		t.Error("out-of-range Node should be nil")
	}
}

func TestForPrefixSeparation(t *testing.T) {
	g, _ := buildSample()
	if got := len(g.ForPrefix(p1)); got != 5 {
		t.Errorf("ForPrefix(p1) = %d nodes, want 5", got)
	}
	if got := len(g.ForPrefix(p2)); got != 1 {
		t.Errorf("ForPrefix(p2) = %d nodes, want 1", got)
	}
	if got := len(g.Prefixes()); got != 2 {
		t.Errorf("Prefixes = %d, want 2", got)
	}
}

func TestLinesForPrefixDedupSorted(t *testing.T) {
	g, _ := buildSample()
	g.Add(Node{Kind: Import, Router: "D", Prefix: p1, Lines: []netcfg.LineRef{lr("A", 2), lr("A", 2)}})
	lines := g.LinesForPrefix(p1)
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
	g, _ := buildSample()
	g.Add(Node{Kind: Import, Router: "B", Prefix: p1, Lines: []netcfg.LineRef{lr("A", 9), lr("AA", 1), lr("B", 1)}})
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

func TestPrefixesForLine(t *testing.T) {
	g, _ := buildSample()
	g.Add(Node{Kind: Import, Router: "X", Prefix: p2, Lines: []netcfg.LineRef{lr("A", 2)}})
	if got := g.PrefixesForLine(lr("A", 2)); len(got) != 2 || got[0] != p1 || got[1] != p2 {
		t.Errorf("PrefixesForLine(A:2) = %v, want [%v %v]", got, p1, p2)
	}
	if got := g.PrefixesForLine(lr("X", 1)); len(got) != 1 || got[0] != p2 {
		t.Errorf("PrefixesForLine(X:1) = %v, want [%v]", got, p2)
	}
	if got := g.PrefixesForLine(lr("A", 99)); got != nil {
		t.Errorf("PrefixesForLine of an unexecuted line = %v, want none", got)
	}
}

// TestAddAfterLineQueryPanics pins the sealing choice: the first line query
// builds the index every reader shares, so a later Add — which that index
// would silently miss — is a bug and panics rather than invalidating.
func TestAddAfterLineQueryPanics(t *testing.T) {
	g, _ := buildSample()
	g.Add(Node{Kind: Selection, Router: "A", Prefix: p2}) // unsealed: fine
	g.LinesForPrefix(p2)
	defer func() {
		if recover() == nil {
			t.Error("Add on a sealed graph did not panic")
		}
	}()
	g.Add(Node{Kind: Selection, Router: "A", Prefix: p2})
}

func TestSliceAncestorClosure(t *testing.T) {
	g, ids := buildSample()
	slice := g.Slice(ids["selB"])
	if len(slice) != 4 {
		t.Fatalf("slice of selB has %d nodes, want 4", len(slice))
	}
	for _, n := range slice {
		if n.Router == "C" || n.Router == "X" {
			t.Errorf("slice contains unrelated node %+v", n)
		}
	}
	if got := g.Slice(-5); got != nil {
		t.Errorf("Slice of invalid root = %v, want nil", got)
	}
}

func TestLeafLines(t *testing.T) {
	g, ids := buildSample()
	leaves := LeafLines(g, ids["selB"])
	want := map[netcfg.LineRef]bool{lr("A", 5): true, lr("B", 3): true, lr("A", 2): true}
	if len(leaves) != len(want) {
		t.Fatalf("leaves = %v", leaves)
	}
	for _, l := range leaves {
		if !want[l] {
			t.Errorf("unexpected leaf %v", l)
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
