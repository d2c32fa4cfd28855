package netcfg

import (
	"fmt"
	"math/bits"
	"sort"
)

// LineSpace numbers the lines of one configuration version densely: the
// devices in name order, each device's lines 1..NumLines on consecutive
// IDs, so ID order is LineRef.Less order. A set of lines over the space is
// a LineSet, one bit per ID. An edit renumbers every device named after
// the edited one, so a space, and every set over it, belongs to one
// version. A space is immutable and safe for concurrent use.
type LineSpace struct {
	devices []string
	// first[i] is the ID of devices[i]'s line 1; first[len(devices)] is Len.
	first []int
	index map[string]int // device → its position in devices
}

// NewLineSpace numbers the lines of devices with the given line counts.
func NewLineSpace(numLines map[string]int) *LineSpace {
	s := &LineSpace{devices: make([]string, 0, len(numLines)), index: make(map[string]int, len(numLines))}
	for d := range numLines {
		s.devices = append(s.devices, d)
	}
	sort.Strings(s.devices)
	s.first = make([]int, len(s.devices)+1)
	for i, d := range s.devices {
		s.index[d] = i
		s.first[i+1] = s.first[i] + numLines[d]
	}
	return s
}

// Len reports the number of lines in the space.
func (s *LineSpace) Len() int { return s.first[len(s.devices)] }

// Span returns the IDs of device's lines, [lo, hi); empty for a device
// outside the space.
func (s *LineSpace) Span(device string) (lo, hi int) {
	if i, ok := s.index[device]; ok {
		return s.first[i], s.first[i+1]
	}
	return 0, 0
}

// ID returns l's ID, or -1 when l is outside the space: an unknown device,
// line 0, or a line past the device's last.
func (s *LineSpace) ID(l LineRef) int {
	lo, hi := s.Span(l.Device)
	if id := lo + l.Line - 1; l.Line >= 1 && id < hi {
		return id
	}
	return -1
}

// Ref returns the line with the given ID, which must be in [0, Len).
func (s *LineSpace) Ref(id int) LineRef {
	i := sort.SearchInts(s.first, id+1) - 1
	return LineRef{Device: s.devices[i], Line: id - s.first[i] + 1}
}

// NewSet returns an empty set over the space.
func (s *LineSpace) NewSet() LineSet {
	return LineSet{space: s, words: make([]uint64, (s.Len()+63)/64)}
}

// LineSet is a set of lines of one LineSpace: bit i stands for line ID i.
// The zero LineSet is empty and belongs to no space.
type LineSet struct {
	space *LineSpace
	words []uint64
}

// Space returns the space the set is over, nil for the zero LineSet.
func (ls LineSet) Space() *LineSpace { return ls.space }

// Has reports whether l is in the set; a line outside the space is not.
func (ls LineSet) Has(l LineRef) bool {
	if ls.space == nil {
		return false
	}
	id := ls.space.ID(l)
	return id >= 0 && ls.words[id>>6]&(1<<(id&63)) != 0
}

// Add puts lines into the set. It panics on a line outside the space: the
// set would silently drop it.
func (ls *LineSet) Add(lines ...LineRef) {
	for len(lines) > 0 {
		run := 1 // lines[:run] are on one device
		for run < len(lines) && lines[run].Device == lines[0].Device {
			run++
		}
		lo, hi := ls.space.Span(lines[0].Device)
		ls.AddSpan(lo, hi, lines[:run])
		lines = lines[run:]
	}
}

// AddSpan puts lines of one device into the set, given the device's span
// [lo, hi) in the space: a caller that knows the span saves Add its
// lookup. It panics on a line outside the span.
func (ls *LineSet) AddSpan(lo, hi int, lines []LineRef) {
	for _, l := range lines {
		id := lo + l.Line - 1
		if l.Line < 1 || id >= hi {
			panic(fmt.Sprintf("netcfg: line %s is outside the line space", l))
		}
		ls.words[id>>6] |= 1 << (id & 63)
	}
}

// Union adds every line of o, which must be over the same space.
func (ls *LineSet) Union(o LineSet) {
	if o.space != ls.space {
		panic("netcfg: union of line sets over different line spaces")
	}
	for i, w := range o.words {
		ls.words[i] |= w
	}
}

// Next returns the smallest ID >= from in the set, or -1.
func (ls LineSet) Next(from int) int {
	for i, mask := from>>6, ^uint64(0)<<(from&63); i < len(ls.words); i, mask = i+1, ^uint64(0) {
		if w := ls.words[i] & mask; w != 0 {
			return i<<6 + bits.TrailingZeros64(w)
		}
	}
	return -1
}

// Refs returns the set's lines in ID order, which is LineRef.Less order;
// nil when the set is empty.
func (ls LineSet) Refs() []LineRef {
	var out []LineRef
	for id := ls.Next(0); id >= 0; id = ls.Next(id + 1) {
		out = append(out, ls.space.Ref(id))
	}
	return out
}
