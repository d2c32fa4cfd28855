package netcfg

import (
	"fmt"
	"net/netip"
	"slices"
	"sort"
	"strconv"
	"strings"
)

// LineRef identifies one line of configuration on one device. Line numbers
// are 1-based, matching how the paper (and operators) talk about
// configuration lines.
type LineRef struct {
	Device string
	Line   int
}

// String renders the reference as "device:line".
func (r LineRef) String() string {
	var buf [48]byte
	return string(r.AppendTo(buf[:0]))
}

// AppendTo appends the String form of r to b.
func (r LineRef) AppendTo(b []byte) []byte {
	b = append(append(b, r.Device...), ':')
	return strconv.AppendInt(b, int64(r.Line), 10)
}

// Less orders references by device name, then line number.
func (r LineRef) Less(o LineRef) bool {
	if r.Device != o.Device {
		return r.Device < o.Device
	}
	return r.Line < o.Line
}

// PrefixLess orders prefixes by address, then by length, so an aggregate
// sorts before the specifics sharing its address. It is the one order every
// sorted prefix listing uses (bgp.Net.AllPrefixes, bgp.Outcome.Describe,
// provenance.Graph.Prefixes).
func PrefixLess(a, b netip.Prefix) bool {
	if a.Addr() != b.Addr() {
		return a.Addr().Less(b.Addr())
	}
	return a.Bits() < b.Bits()
}

// Config is an immutable, line-addressable configuration document for a
// single device. Mutating operations return a new Config.
type Config struct {
	Device string
	lines  []string
}

// NewConfig builds a Config for device from raw text. Trailing newlines are
// tolerated; interior line structure is preserved exactly.
func NewConfig(device, text string) *Config {
	text = strings.TrimRight(text, "\n")
	var lines []string
	if text != "" {
		lines = strings.Split(text, "\n")
	}
	return &Config{Device: device, lines: lines}
}

// FromLines builds a Config from a slice of lines (copied).
func FromLines(device string, lines []string) *Config {
	cp := make([]string, len(lines))
	copy(cp, lines)
	return &Config{Device: device, lines: cp}
}

// NumLines reports the number of lines in the document.
func (c *Config) NumLines() int { return len(c.lines) }

// Line returns the text of the 1-based line n. It panics if n is out of
// range, mirroring slice semantics: callers hold LineRefs they obtained
// from this same document.
func (c *Config) Line(n int) string {
	if n < 1 || n > len(c.lines) {
		panic(fmt.Sprintf("netcfg: line %d out of range [1,%d] on %s", n, len(c.lines), c.Device))
	}
	return c.lines[n-1]
}

// Lines returns a copy of all lines.
func (c *Config) Lines() []string {
	cp := make([]string, len(c.lines))
	copy(cp, c.lines)
	return cp
}

// Text renders the whole document.
func (c *Config) Text() string { return strings.Join(c.lines, "\n") + "\n" }

// SameText reports whether c and o render the same Text, without rendering
// them when they are one document or hold the same lines. Documents whose
// lines differ are rendered and compared: lines holding a newline can
// still join to the same text.
func (c *Config) SameText(o *Config) bool {
	if c == o {
		return true
	}
	if slices.Equal(c.lines, o.lines) {
		return true
	}
	return c.Text() == o.Text()
}

// Refs returns a LineRef for every line in the document.
func (c *Config) Refs() []LineRef {
	refs := make([]LineRef, len(c.lines))
	for i := range c.lines {
		refs[i] = LineRef{Device: c.Device, Line: i + 1}
	}
	return refs
}

// Edit is a single line-level change to a Config.
type Edit interface {
	// apply returns lines with the edit applied, in a new slice: it never
	// writes to lines, which may be a Config's own.
	apply(lines []string) ([]string, error)
	// anchor is the 1-based line this edit is keyed on, used to order
	// edits within an EditSet.
	anchor() int
	// String renders a human-readable description for repair reports.
	String() string
}

// InsertBefore inserts Text so that it becomes line At; the previous line
// At (and everything after) shifts down. At may be NumLines+1 to append.
type InsertBefore struct {
	At   int
	Text string
}

func (e InsertBefore) anchor() int { return e.At }

func (e InsertBefore) apply(lines []string) ([]string, error) {
	if e.At < 1 || e.At > len(lines)+1 {
		return nil, fmt.Errorf("insert at line %d out of range [1,%d]", e.At, len(lines)+1)
	}
	out := make([]string, 0, len(lines)+1)
	out = append(out, lines[:e.At-1]...)
	out = append(out, e.Text)
	out = append(out, lines[e.At-1:]...)
	return out, nil
}

func (e InsertBefore) String() string { return editString("insert@", e.At, e.Text, true) }

// DeleteLine removes the 1-based line At.
type DeleteLine struct {
	At int
}

func (e DeleteLine) anchor() int { return e.At }

func (e DeleteLine) apply(lines []string) ([]string, error) {
	if e.At < 1 || e.At > len(lines) {
		return nil, fmt.Errorf("delete line %d out of range [1,%d]", e.At, len(lines))
	}
	out := make([]string, 0, len(lines)-1)
	out = append(out, lines[:e.At-1]...)
	out = append(out, lines[e.At:]...)
	return out, nil
}

func (e DeleteLine) String() string { return editString("delete@", e.At, "", false) }

// ReplaceLine substitutes the text of the 1-based line At.
type ReplaceLine struct {
	At   int
	Text string
}

func (e ReplaceLine) anchor() int { return e.At }

func (e ReplaceLine) apply(lines []string) ([]string, error) {
	if e.At < 1 || e.At > len(lines) {
		return nil, fmt.Errorf("replace line %d out of range [1,%d]", e.At, len(lines))
	}
	out := make([]string, len(lines))
	copy(out, lines)
	out[e.At-1] = e.Text
	return out, nil
}

func (e ReplaceLine) String() string { return editString("replace@", e.At, e.Text, true) }

// editString renders an edit as its verb, its anchor and, with quote, its
// text as a Go string literal: "replace@7 \"text\"".
func editString(verb string, at int, text string, quote bool) string {
	var buf [96]byte
	b := strconv.AppendInt(append(buf[:0], verb...), int64(at), 10)
	if quote {
		b = strconv.AppendQuote(append(b, ' '), text)
	}
	return string(b)
}

// EditSet is an ordered set of edits against one base document. All line
// numbers refer to the ORIGINAL document; Apply sorts edits bottom-up so
// earlier anchors are unaffected by later insertions or deletions. Two
// edits may not share an anchor line unless both are inserts (multiple
// inserts at the same anchor apply in the order given).
type EditSet struct {
	Device string
	Edits  []Edit
}

// Apply produces a new Config with every edit applied, or an error if any
// edit is out of range or the set is internally conflicting.
func (s EditSet) Apply(c *Config) (*Config, error) {
	if s.Device != "" && s.Device != c.Device {
		return nil, fmt.Errorf("edit set for %s applied to config of %s", s.Device, c.Device)
	}
	if err := s.validate(); err != nil {
		return nil, err
	}
	// Sort by anchor descending, preserving relative order of same-anchor
	// inserts (stable sort on the reversed comparison keeps the original
	// order for equal anchors; we then apply in that order).
	idx := make([]int, len(s.Edits))
	for i := range idx {
		idx[i] = i
	}
	sort.SliceStable(idx, func(a, b int) bool {
		return s.Edits[idx[a]].anchor() > s.Edits[idx[b]].anchor()
	})
	lines := c.lines // each apply copies, so c is never written
	// Same-anchor inserts must apply in declaration order; after the stable
	// descending sort they are adjacent and in declaration order already,
	// but applying the first insert shifts nothing at the same anchor (we
	// insert before), so apply them in reverse to keep declaration order in
	// the output.
	for a := 0; a < len(idx); {
		b := a
		for b+1 < len(idx) && s.Edits[idx[b+1]].anchor() == s.Edits[idx[a]].anchor() {
			b++
		}
		for j := b; j >= a; j-- {
			var err error
			lines, err = s.Edits[idx[j]].apply(lines)
			if err != nil {
				return nil, fmt.Errorf("device %s: %w", c.Device, err)
			}
		}
		a = b + 1
	}
	return &Config{Device: c.Device, lines: lines}, nil
}

func (s EditSet) validate() error {
	seen := map[int]Edit{}
	for _, e := range s.Edits {
		_, isInsert := e.(InsertBefore)
		if prev, ok := seen[e.anchor()]; ok {
			_, prevInsert := prev.(InsertBefore)
			if !isInsert || !prevInsert {
				return fmt.Errorf("conflicting edits at line %d: %s vs %s", e.anchor(), prev, e)
			}
		}
		if !isInsert {
			seen[e.anchor()] = e
		} else if _, ok := seen[e.anchor()]; !ok {
			seen[e.anchor()] = e
		}
	}
	return nil
}

// String renders the edit set for reports.
func (s EditSet) String() string {
	var sb strings.Builder
	sb.WriteString(s.Device)
	sb.WriteByte('{')
	for i, e := range s.Edits {
		if i > 0 {
			sb.WriteString(", ")
		}
		sb.WriteString(e.String())
	}
	sb.WriteByte('}')
	return sb.String()
}

// Diff renders a minimal unified-style diff between two configurations of
// the same device, using an LCS alignment. It is used in repair reports.
func Diff(before, after *Config) string {
	a, b := before.lines, after.lines
	// LCS table.
	n, m := len(a), len(b)
	lcs := make([][]int, n+1)
	for i := range lcs {
		lcs[i] = make([]int, m+1)
	}
	for i := n - 1; i >= 0; i-- {
		for j := m - 1; j >= 0; j-- {
			if a[i] == b[j] {
				lcs[i][j] = lcs[i+1][j+1] + 1
			} else if lcs[i+1][j] >= lcs[i][j+1] {
				lcs[i][j] = lcs[i+1][j]
			} else {
				lcs[i][j] = lcs[i][j+1]
			}
		}
	}
	var sb strings.Builder
	fmt.Fprintf(&sb, "--- %s (before)\n+++ %s (after)\n", before.Device, after.Device)
	i, j := 0, 0
	for i < n && j < m {
		switch {
		case a[i] == b[j]:
			i++
			j++
		case lcs[i+1][j] >= lcs[i][j+1]:
			fmt.Fprintf(&sb, "-%4d %s\n", i+1, a[i])
			i++
		default:
			fmt.Fprintf(&sb, "+%4d %s\n", j+1, b[j])
			j++
		}
	}
	for ; i < n; i++ {
		fmt.Fprintf(&sb, "-%4d %s\n", i+1, a[i])
	}
	for ; j < m; j++ {
		fmt.Fprintf(&sb, "+%4d %s\n", j+1, b[j])
	}
	return sb.String()
}
