package netcfg

import (
	"fmt"
	"math/rand"
	"net/netip"
	"reflect"
	"strings"
	"testing"
	"testing/quick"
)

func linesOf(t *testing.T, c *Config) []string {
	t.Helper()
	return c.Lines()
}

func TestNewConfigLineAccounting(t *testing.T) {
	c := NewConfig("X", "a\nb\nc\n")
	if c.NumLines() != 3 {
		t.Fatalf("NumLines = %d, want 3", c.NumLines())
	}
	if c.Line(1) != "a" || c.Line(3) != "c" {
		t.Errorf("Line() wrong: %q %q", c.Line(1), c.Line(3))
	}
	if got := c.Text(); got != "a\nb\nc\n" {
		t.Errorf("Text() = %q", got)
	}
}

func TestConfigLinePanicsOutOfRange(t *testing.T) {
	c := NewConfig("X", "a\n")
	defer func() {
		if recover() == nil {
			t.Error("Line(0) did not panic")
		}
	}()
	c.Line(0)
}

func TestInsertBefore(t *testing.T) {
	c := NewConfig("X", "a\nb\n")
	got, err := EditSet{Edits: []Edit{InsertBefore{At: 2, Text: "mid"}}}.Apply(c)
	if err != nil {
		t.Fatal(err)
	}
	if want := []string{"a", "mid", "b"}; !reflect.DeepEqual(linesOf(t, got), want) {
		t.Errorf("lines = %v, want %v", linesOf(t, got), want)
	}
	// Original untouched.
	if c.NumLines() != 2 {
		t.Error("source config mutated")
	}
}

func TestInsertAppend(t *testing.T) {
	c := NewConfig("X", "a\n")
	got, err := EditSet{Edits: []Edit{InsertBefore{At: 2, Text: "z"}}}.Apply(c)
	if err != nil {
		t.Fatal(err)
	}
	if want := []string{"a", "z"}; !reflect.DeepEqual(linesOf(t, got), want) {
		t.Errorf("lines = %v, want %v", linesOf(t, got), want)
	}
}

func TestDeleteAndReplace(t *testing.T) {
	c := NewConfig("X", "a\nb\nc\n")
	got, err := EditSet{Edits: []Edit{DeleteLine{At: 2}, ReplaceLine{At: 3, Text: "C"}}}.Apply(c)
	if err != nil {
		t.Fatal(err)
	}
	if want := []string{"a", "C"}; !reflect.DeepEqual(linesOf(t, got), want) {
		t.Errorf("lines = %v, want %v", linesOf(t, got), want)
	}
}

func TestEditSetAnchorsAreOriginalLines(t *testing.T) {
	// Insert at 2 and delete original line 4; the delete must remove "d"
	// even though the insert shifted it.
	c := NewConfig("X", "a\nb\nc\nd\ne\n")
	got, err := EditSet{Edits: []Edit{
		InsertBefore{At: 2, Text: "x"},
		DeleteLine{At: 4},
	}}.Apply(c)
	if err != nil {
		t.Fatal(err)
	}
	if want := []string{"a", "x", "b", "c", "e"}; !reflect.DeepEqual(linesOf(t, got), want) {
		t.Errorf("lines = %v, want %v", linesOf(t, got), want)
	}
}

func TestEditSetMultipleInsertsSameAnchorKeepOrder(t *testing.T) {
	c := NewConfig("X", "a\nb\n")
	got, err := EditSet{Edits: []Edit{
		InsertBefore{At: 2, Text: "first"},
		InsertBefore{At: 2, Text: "second"},
	}}.Apply(c)
	if err != nil {
		t.Fatal(err)
	}
	if want := []string{"a", "first", "second", "b"}; !reflect.DeepEqual(linesOf(t, got), want) {
		t.Errorf("lines = %v, want %v", linesOf(t, got), want)
	}
}

func TestEditSetConflictRejected(t *testing.T) {
	c := NewConfig("X", "a\nb\n")
	_, err := EditSet{Edits: []Edit{
		DeleteLine{At: 2},
		ReplaceLine{At: 2, Text: "B"},
	}}.Apply(c)
	if err == nil || !strings.Contains(err.Error(), "conflicting edits") {
		t.Errorf("err = %v, want conflicting-edits error", err)
	}
}

func TestEditSetDeviceMismatch(t *testing.T) {
	c := NewConfig("X", "a\n")
	_, err := EditSet{Device: "Y", Edits: []Edit{DeleteLine{At: 1}}}.Apply(c)
	if err == nil {
		t.Error("want device-mismatch error")
	}
}

func TestEditOutOfRange(t *testing.T) {
	c := NewConfig("X", "a\n")
	for _, e := range []Edit{InsertBefore{At: 3, Text: "z"}, DeleteLine{At: 2}, ReplaceLine{At: 0, Text: "q"}} {
		if _, err := (EditSet{Edits: []Edit{e}}).Apply(c); err == nil {
			t.Errorf("edit %v out of range accepted", e)
		}
	}
}

func TestDiffOutput(t *testing.T) {
	before := NewConfig("A", "keep\nold\nkeep2\n")
	after := NewConfig("A", "keep\nnew\nkeep2\nadded\n")
	d := Diff(before, after)
	for _, want := range []string{"-   2 old", "+   2 new", "+   4 added"} {
		if !strings.Contains(d, want) {
			t.Errorf("diff missing %q:\n%s", want, d)
		}
	}
	if strings.Contains(d, "keep2\n-") || strings.Contains(d, "-   1 keep") {
		t.Errorf("diff touched unchanged lines:\n%s", d)
	}
}

func TestDiffIdentical(t *testing.T) {
	c := NewConfig("A", "a\nb\n")
	d := Diff(c, c)
	if strings.Count(d, "\n") != 2 { // only the two header lines
		t.Errorf("diff of identical configs not empty:\n%s", d)
	}
}

// Property: applying InsertBefore then DeleteLine of the inserted line is
// the identity.
func TestQuickInsertDeleteIdentity(t *testing.T) {
	f := func(seed int64, n uint8) bool {
		rng := rand.New(rand.NewSource(seed))
		size := int(n%20) + 1
		lines := make([]string, size)
		for i := range lines {
			lines[i] = strings.Repeat("x", rng.Intn(5)+1)
		}
		c := FromLines("X", lines)
		at := rng.Intn(size+1) + 1
		ins, err := EditSet{Edits: []Edit{InsertBefore{At: at, Text: "INSERTED"}}}.Apply(c)
		if err != nil {
			return false
		}
		back, err := EditSet{Edits: []Edit{DeleteLine{At: at}}}.Apply(ins)
		if err != nil {
			return false
		}
		return reflect.DeepEqual(back.Lines(), c.Lines())
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Error(err)
	}
}

// Property: parse(Canonical(parse(x))) produces the same Canonical text —
// canonicalization is a fixed point.
func TestQuickCanonicalFixedPoint(t *testing.T) {
	f := func(seed int64) bool {
		cfg := randomConfig(rand.New(rand.NewSource(seed)))
		ast, err := Parse(cfg)
		if err != nil {
			return false // randomConfig must produce well-formed text
		}
		canon := Canonical(ast)
		ast2, err := Parse(NewConfig(cfg.Device, canon))
		if err != nil {
			return false
		}
		return Canonical(ast2) == canon
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Error(err)
	}
}

// Property: EditSet with a single ReplaceLine preserves line count.
func TestQuickReplacePreservesCount(t *testing.T) {
	f := func(seed int64, n uint8) bool {
		rng := rand.New(rand.NewSource(seed))
		size := int(n%30) + 1
		lines := make([]string, size)
		for i := range lines {
			lines[i] = "line"
		}
		c := FromLines("X", lines)
		got, err := EditSet{Edits: []Edit{ReplaceLine{At: rng.Intn(size) + 1, Text: "changed"}}}.Apply(c)
		return err == nil && got.NumLines() == size
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Error(err)
	}
}

// TestTextMatchesFmt holds the text built with strconv and appends to the
// fmt forms it replaced, byte for byte, including invalid prefixes, quoted
// and non-ASCII text, negative numbers and empty edit sets.
func TestTextMatchesFmt(t *testing.T) {
	for _, r := range []LineRef{{"A", 1}, {"spine0-0", 1234}, {"", -3}} {
		if got, want := r.String(), fmt.Sprintf("%s:%d", r.Device, r.Line); got != want {
			t.Errorf("LineRef.String() = %q, want %q", got, want)
		}
	}
	for _, text := range []string{"", " peer 10.0.0.2 as-number 65001", `quote " and \ backslash`, "tab\tnewline\n", "ünïcode ∈", "\xff"} {
		for _, e := range []Edit{InsertBefore{At: 7, Text: text}, ReplaceLine{At: -1, Text: text}, DeleteLine{At: 12}} {
			var want string
			switch e := e.(type) {
			case InsertBefore:
				want = fmt.Sprintf("insert@%d %q", e.At, e.Text)
			case ReplaceLine:
				want = fmt.Sprintf("replace@%d %q", e.At, e.Text)
			case DeleteLine:
				want = fmt.Sprintf("delete@%d", e.At)
			}
			if got := e.String(); got != want {
				t.Errorf("%T.String() = %q, want %q", e, got, want)
			}
		}
	}
	for _, es := range []EditSet{{Device: "A"}, {Device: "B", Edits: []Edit{DeleteLine{At: 2}, InsertBefore{At: 3, Text: `x "y"`}}}} {
		parts := make([]string, len(es.Edits))
		for i, e := range es.Edits {
			parts[i] = e.String()
		}
		if got, want := es.String(), fmt.Sprintf("%s{%s}", es.Device, strings.Join(parts, ", ")); got != want {
			t.Errorf("EditSet.String() = %q, want %q", got, want)
		}
	}
	for _, c := range []struct {
		p      netip.Prefix
		ge, le int
	}{
		{netip.MustParsePrefix("10.1.0.0/16"), 0, 0},
		{netip.MustParsePrefix("10.1.2.3/16"), 17, 24},
		{netip.Prefix{}, 0, 32},
		{netip.MustParsePrefix("2001:db8::/32"), -1, 0},
	} {
		for _, permit := range []bool{true, false} {
			action := "deny"
			if permit {
				action = "permit"
			}
			want := fmt.Sprintf("ip prefix-list %s index %d %s %s", "DCN_PREFIXES", 30, action, c.p)
			if c.ge > 0 {
				want += fmt.Sprintf(" ge %d", c.ge)
			}
			if c.le > 0 {
				want += fmt.Sprintf(" le %d", c.le)
			}
			if got := FormatPrefixListEntry("DCN_PREFIXES", 30, permit, c.p, c.ge, c.le); got != want {
				t.Errorf("FormatPrefixListEntry = %q, want %q", got, want)
			}
		}
	}
}
