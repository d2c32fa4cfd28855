// Package provenance records, per prefix, which lines of configuration the
// route derivations of one configuration version executed. It plays the
// role of network provenance systems like Y! [Wu et al., SIGCOMM '14] and
// of configuration coverage à la NetCov [Xu et al., NSDI '23], reduced to
// what spectrum-based fault localization reads: a test's row of the
// coverage matrix starts from its prefix's lines, and the MetaProv
// baseline's search space is the lines of the failing tests' prefixes.
//
// A section stores the derivation sites its outcome cannot regenerate:
// where each derivation happened and the lines it executed. The rest of a
// section is its Implicit part, which adds the other derivations' lines
// when the section is sealed.
package provenance

import (
	"fmt"
	"net/netip"
	"sort"
	"sync"

	"acr/internal/netcfg"
)

// Site is a stored derivation of its Section's prefix: an origination at
// Router, which has no peer, or the processing of an advertisement over the
// session between Router and PeerRouter, Peer being the address of the
// session's other end. Lines are the configuration lines it executed.
type Site struct {
	Router     string
	PeerRouter string
	Peer       netip.Addr
	Lines      []netcfg.LineRef
}

// Section holds the derivations of one prefix: the stored sites, the
// number of derivations, and, when the section has one, an Implicit part
// that adds the lines of the derivations it does not store. The section is
// append-only while it is being built and immutable afterwards, which is
// what lets a configuration version copy stored sites out of it into the
// versions derived from it, and verify.Incremental clones, which callers
// may check on concurrently, share a whole graph.
//
// The first line query seals the section: it sets, once under sealOnce,
// the bits of its derivations' lines in a LineSet over the version's line
// space, and every later query — from any goroutine — reads that
// immutable set. Add on a sealed section panics.
type Section struct {
	prefix netip.Prefix
	// sites are the stored derivations in build order, n the number of
	// derivations, unstored ones included.
	sites    []Site
	n        int
	implicit Implicit
	// space yields the line space of the version the section belongs to.
	space func() *netcfg.LineSpace

	sealOnce sync.Once
	lines    netcfg.LineSet // over space(); the zero LineSet until sealed
}

// Implicit adds to set the lines of the derivations a section does not
// store because its outcome determines them: in internal/bgp, a converged
// prefix's derivations over sessions without policies.
type Implicit func(set *netcfg.LineSet)

// NewSection returns an empty section for prefix p of the version whose
// line space space yields, with room for sizeHint stored sites. implicit,
// when non-nil, is the part of the section that is not stored.
func NewSection(p netip.Prefix, space func() *netcfg.LineSpace, sizeHint int, implicit Implicit) *Section {
	return &Section{prefix: p, space: space, sites: make([]Site, 0, sizeHint), implicit: implicit}
}

// Add stores a derivation. It panics once a line query has sealed the
// section: the set the readers share would silently miss the site.
func (s *Section) Add(site Site) {
	if s.lines.Space() != nil {
		panic("provenance: Add on a section sealed by a line query")
	}
	s.sites = append(s.sites, site)
	s.n++
}

// Count records a derivation the section does not store: a selection,
// which executes no line, or a derivation of the implicit part.
func (s *Section) Count() { s.n++ }

// Len reports the number of derivations, unstored ones included.
func (s *Section) Len() int { return s.n }

// Stored returns the stored sites in build order. The slice is the
// section's: callers must not modify it.
func (s *Section) Stored() []Site { return s.sites }

// LineSet returns the set of configuration lines the section's derivations
// executed — the coverage a test over its prefix contributes to the SBFL
// spectrum — sealing the section. The set is shared: callers must not add
// to it.
func (s *Section) LineSet() netcfg.LineSet {
	s.sealOnce.Do(func() {
		s.lines = s.space().NewSet()
		for i := range s.sites {
			s.lines.Add(s.sites[i].Lines...)
		}
		if s.implicit != nil {
			s.implicit(&s.lines)
		}
	})
	return s.lines
}

// Lines returns the configuration lines the section's derivations
// executed, deduplicated and sorted by (device, line).
func (s *Section) Lines() []netcfg.LineRef { return s.LineSet().Refs() }

// Graph is the provenance of one configuration version: one Section per
// prefix, fixed at construction.
type Graph struct {
	sections    map[netip.Prefix]*Section
	derivations int
}

// NewGraph returns the graph made of the given sections, at most one per
// prefix. Sections without derivations are left out, so Prefixes lists
// exactly the prefixes with a derivation.
func NewGraph(sections ...*Section) *Graph {
	g := &Graph{sections: make(map[netip.Prefix]*Section, len(sections))}
	for _, s := range sections {
		if s.Len() == 0 {
			continue
		}
		if g.sections[s.prefix] != nil {
			panic(fmt.Sprintf("provenance: two sections for prefix %s", s.prefix))
		}
		g.sections[s.prefix] = s
		g.derivations += s.Len()
	}
	return g
}

// Len reports the number of derivations.
func (g *Graph) Len() int { return g.derivations }

// Section returns prefix p's section, or nil when p has no derivation.
func (g *Graph) Section(p netip.Prefix) *Section { return g.sections[p] }

// Prefixes returns every prefix with at least one derivation, sorted.
func (g *Graph) Prefixes() []netip.Prefix {
	out := make([]netip.Prefix, 0, len(g.sections))
	for p := range g.sections {
		out = append(out, p)
	}
	sort.Slice(out, func(i, j int) bool { return netcfg.PrefixLess(out[i], out[j]) })
	return out
}

// LinesForPrefix returns the deduplicated, sorted set of configuration
// lines executed by any derivation for prefix p.
func (g *Graph) LinesForPrefix(p netip.Prefix) []netcfg.LineRef {
	if s := g.sections[p]; s != nil {
		return s.Lines()
	}
	return nil
}
