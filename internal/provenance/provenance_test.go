package provenance

import (
	"net/netip"
	"strings"
	"testing"

	"acr/internal/netcfg"
)

var (
	p1 = netip.MustParsePrefix("10.0.0.0/16")
	p2 = netip.MustParsePrefix("20.0.0.0/16")
)

func lr(d string, n int) netcfg.LineRef { return netcfg.LineRef{Device: d, Line: n} }

// sampleSpace numbers the sample's lines; A and AA prefix each other's names.
var sampleSpace = netcfg.NewLineSpace(map[string]int{"A": 9, "AA": 1, "B": 3, "C": 9, "X": 1})

func space() *netcfg.LineSpace { return sampleSpace }

// buildSample constructs, for p1, A's origination, B's import from A and
// a site at C, plus an unrelated origination for p2. The sections are
// returned unsealed so a test can add to them before building its graph.
func buildSample() (s1, s2 *Section) {
	s1, s2 = NewSection(p1, space, 8, nil), NewSection(p2, space, 0, nil)
	s1.Add(Site{Router: "A", Lines: []netcfg.LineRef{lr("A", 5)}})
	s1.Add(Site{Router: "B", PeerRouter: "A", Lines: []netcfg.LineRef{lr("B", 3), lr("A", 2)}})
	s1.Add(Site{Router: "C", PeerRouter: "B", Lines: []netcfg.LineRef{lr("C", 9)}})
	s1.Count() // A's selection
	s1.Count() // B's selection
	s2.Add(Site{Router: "X", Lines: []netcfg.LineRef{lr("X", 1)}})
	return s1, s2
}

func TestForPrefixSeparation(t *testing.T) {
	s1, s2 := buildSample()
	g := NewGraph(s1, s2, NewSection(netip.MustParsePrefix("30.0.0.0/8"), space, 0, nil))
	if g.Len() != 6 || s1.Len() != 5 || len(s1.Stored()) != 3 || s2.Len() != 1 {
		t.Errorf("Len = %d (p1 %d with %d stored, p2 %d), want 6 (5 with 3 stored, 1)", g.Len(), s1.Len(), len(s1.Stored()), s2.Len())
	}
	if st := s1.Stored(); st[0].Router != "A" || st[1].Router != "B" || st[2].Router != "C" {
		t.Errorf("p1 stores %+v, want A, B, C in order", st)
	}
	if got := g.Prefixes(); len(got) != 2 || got[0] != p1 || got[1] != p2 {
		t.Errorf("Prefixes = %v, want [%v %v] (the empty section left out)", got, p1, p2)
	}
	if g.Section(p1) != s1 || g.Section(netip.MustParsePrefix("30.0.0.0/8")) != nil {
		t.Error("Section does not return the attached section, or returns an empty one")
	}
}

func TestLinesForPrefixDedupSorted(t *testing.T) {
	s1, s2 := buildSample()
	s1.Add(Site{Router: "D", PeerRouter: "A", Lines: []netcfg.LineRef{lr("A", 2), lr("A", 2)}})
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

// TestAddAfterLineQueryPanics pins the sealing choice: the first line query
// builds the set every reader shares, so a later Add — which that set
// would silently miss — is a bug and panics rather than invalidating. A
// section without lines seals like any other.
func TestAddAfterLineQueryPanics(t *testing.T) {
	_, s2 := buildSample()
	empty := NewSection(p1, space, 0, nil)
	empty.Add(Site{Router: "A"}) // unsealed: fine
	s2.Add(Site{Router: "A"})
	NewGraph(s2).LinesForPrefix(p2)
	empty.Lines()
	for _, s := range []*Section{s2, empty} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("Add on the sealed section of %v did not panic", s.prefix)
				}
			}()
			s.Add(Site{Router: "A"})
		}()
	}
}

// TestSealPanicsOutsideTheLineSpace: a derivation line the version's line
// space does not number — past the device's last line, line 0, an unknown
// device — would drop out of the sealed set, so the seal panics and names it.
func TestSealPanicsOutsideTheLineSpace(t *testing.T) {
	for _, bad := range []netcfg.LineRef{lr("A", 10), lr("B", 0), lr("Q", 1)} {
		s := NewSection(p1, space, 1, nil)
		s.Add(Site{Router: "A", Lines: []netcfg.LineRef{lr("A", 1), bad}})
		func() {
			defer func() {
				if msg, _ := recover().(string); !strings.Contains(msg, bad.String()) {
					t.Errorf("sealing a section with line %v: panic %q, want one naming the line", bad, msg)
				}
			}()
			s.Lines()
		}()
	}
}

// TestNewGraphRejectsTwoSectionsForOnePrefix: a graph holds one section per
// prefix; a second would shadow the first's derivations.
func TestNewGraphRejectsTwoSectionsForOnePrefix(t *testing.T) {
	s1, _ := buildSample()
	dup := NewSection(p1, space, 1, nil)
	dup.Count()
	defer func() {
		if recover() == nil {
			t.Error("NewGraph accepted two sections for one prefix")
		}
	}()
	NewGraph(s1, dup)
}

// TestImplicitLinesSealWithStored: the lines an implicit part adds are
// sealed with the stored sites' lines, and its derivations, counted but not
// stored, are in Len.
func TestImplicitLinesSealWithStored(t *testing.T) {
	s := NewSection(p1, space, 2, func(set *netcfg.LineSet) { set.Add(lr("B", 2)) })
	s.Add(Site{Router: "A", Lines: []netcfg.LineRef{lr("A", 5)}})
	s.Count() // B's import from A
	s.Count() // B's selection
	s.Add(Site{Router: "C", PeerRouter: "B", Lines: []netcfg.LineRef{lr("C", 1)}})
	g := NewGraph(s)
	if g.Len() != 4 || len(s.Stored()) != 2 {
		t.Fatalf("Len %d with %d stored, want 4 with 2", g.Len(), len(s.Stored()))
	}
	if got := g.LinesForPrefix(p1); len(got) != 3 || got[0] != lr("A", 5) || got[1] != lr("B", 2) || got[2] != lr("C", 1) {
		t.Errorf("LinesForPrefix = %v, want A:5, B:2, C:1", got)
	}
}
