package netcfg

import (
	"reflect"
	"strings"
	"testing"
)

// testSpace has device names that prefix each other (A, AA, AB) and carry
// digits (R1, R10, R2), where name order is not length or numeric order,
// and devices without lines, one between two with lines.
func testSpace() (*LineSpace, map[string]int) {
	numLines := map[string]int{"A": 3, "AA": 2, "AB": 1, "AZ": 0, "B": 70, "R1": 2, "R10": 1, "R2": 2, "Z": 0}
	return NewLineSpace(numLines), numLines
}

// inSpace lists every line the space numbers.
func inSpace(numLines map[string]int) []LineRef {
	var out []LineRef
	for d, n := range numLines {
		for l := 1; l <= n; l++ {
			out = append(out, LineRef{Device: d, Line: l})
		}
	}
	return out
}

func TestLineSpaceOrder(t *testing.T) {
	s, numLines := testSpace()
	refs := inSpace(numLines)
	if s.Len() != len(refs) {
		t.Fatalf("Len = %d, want %d", s.Len(), len(refs))
	}
	seen := make([]bool, s.Len())
	for _, a := range refs {
		id := s.ID(a)
		if id < 0 || id >= s.Len() || seen[id] {
			t.Fatalf("ID(%v) = %d: out of [0, %d) or taken twice", a, id, s.Len())
		}
		seen[id] = true
		if got := s.Ref(id); got != a {
			t.Errorf("Ref(ID(%v)) = %v", a, got)
		}
		for _, b := range refs {
			if (id < s.ID(b)) != a.Less(b) {
				t.Errorf("ID(%v) = %d, ID(%v) = %d, but %v.Less(%v) = %v", a, id, b, s.ID(b), a, b, a.Less(b))
			}
		}
	}
}

// outside lists lines the space does not number: an unknown device (a
// prefix of a known one among them), line 0, a line past the device's last,
// a line of the device without lines.
var outside = []LineRef{{"Q", 1}, {"R", 1}, {"A", 0}, {"A", -1}, {"A", 4}, {"B", 71}, {"AZ", 1}, {"Z", 1}}

func TestLineSpaceOutside(t *testing.T) {
	s, _ := testSpace()
	full := s.NewSet()
	for id := 0; id < s.Len(); id++ {
		full.Add(s.Ref(id))
	}
	for _, l := range outside {
		if id := s.ID(l); id != -1 {
			t.Errorf("ID(%v) = %d, want -1", l, id)
		}
		if full.Has(l) || (LineSet{}).Has(l) {
			t.Errorf("Has(%v) = true on a line outside the space", l)
		}
		func() {
			defer func() {
				if msg, _ := recover().(string); !strings.Contains(msg, l.String()) {
					t.Errorf("Add(%v): panic %q, want one naming the line", l, msg)
				}
			}()
			set := s.NewSet()
			set.Add(LineRef{"A", 1}, l)
		}()
	}
}

func TestLineSetOps(t *testing.T) {
	s, _ := testSpace()
	a, b := s.NewSet(), s.NewSet()
	a.Add(LineRef{"B", 70}, LineRef{"A", 1}, LineRef{"B", 70})
	b.Add(LineRef{"R10", 1}, LineRef{"AA", 2})
	a.Union(b)
	want := []LineRef{{"A", 1}, {"AA", 2}, {"B", 70}, {"R10", 1}}
	if got := a.Refs(); !reflect.DeepEqual(got, want) {
		t.Errorf("Refs = %v, want %v", got, want)
	}
	if !a.Has(LineRef{"AA", 2}) || a.Has(LineRef{"AA", 1}) {
		t.Errorf("Has disagrees with Refs %v", want)
	}
	if got := a.Next(s.ID(LineRef{"B", 70}) + 1); got != s.ID(LineRef{"R10", 1}) {
		t.Errorf("Next past B:70 = %d, want R10:1's ID", got)
	}
	if got := a.Next(s.Len()); got != -1 {
		t.Errorf("Next(Len) = %d, want -1", got)
	}
	if s.NewSet().Refs() != nil {
		t.Error("an empty set renders a non-nil slice")
	}
	defer func() {
		if recover() == nil {
			t.Error("Union across two spaces did not panic")
		}
	}()
	other, _ := testSpace()
	a.Union(other.NewSet())
}
