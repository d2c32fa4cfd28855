// Package coverage builds the test×line coverage matrix (the "spectrum")
// that spectrum-based fault localization consumes. Following the paper's
// §3.2/§4.1: each intent is a test case; a test covers the configuration
// lines executed by the derivations of its destination prefix (computed
// from provenance, as Y!/NetCov would) plus the dataplane lines its trace
// executed. Failing tests additionally cover negative provenance: the
// lines of sessions that failed to establish and the would-be origination
// sites of prefixes that were never injected.
package coverage

import (
	"sort"

	"acr/internal/bgp"
	"acr/internal/netcfg"
	"acr/internal/provenance"
	"acr/internal/verify"
)

// TestCoverage is one row of the spectrum.
type TestCoverage struct {
	ID    string
	Pass  bool
	Lines map[netcfg.LineRef]bool
}

// Matrix is the full spectrum.
type Matrix struct {
	Tests []TestCoverage
}

// TotalPassed counts passing tests.
func (m *Matrix) TotalPassed() int {
	n := 0
	for _, t := range m.Tests {
		if t.Pass {
			n++
		}
	}
	return n
}

// TotalFailed counts failing tests.
func (m *Matrix) TotalFailed() int { return len(m.Tests) - m.TotalPassed() }

// Counts returns (failed, passed) coverage counts for one line.
func (m *Matrix) Counts(l netcfg.LineRef) (failed, passed int) {
	for _, t := range m.Tests {
		if !t.Lines[l] {
			continue
		}
		if t.Pass {
			passed++
		} else {
			failed++
		}
	}
	return failed, passed
}

// CoveredLines returns every line covered by at least one test, sorted.
func (m *Matrix) CoveredLines() []netcfg.LineRef {
	seen := map[netcfg.LineRef]bool{}
	var out []netcfg.LineRef
	for _, t := range m.Tests {
		for l := range t.Lines {
			if !seen[l] {
				seen[l] = true
				out = append(out, l)
			}
		}
	}
	sort.Slice(out, func(i, j int) bool { return out[i].Less(out[j]) })
	return out
}

// Build constructs the spectrum from a verified outcome.
func Build(n *bgp.Net, g *provenance.Graph, rep *verify.Report) *Matrix {
	m := &Matrix{}
	failedSessionLines := n.FailedSessionLines()
	for _, v := range rep.Verdicts {
		var prefixLines []netcfg.LineRef
		if v.Prefix.IsValid() {
			prefixLines = g.LinesForPrefix(v.Prefix)
		}
		tc := TestCoverage{ID: v.Intent.ID, Pass: v.Pass, Lines: make(map[netcfg.LineRef]bool, len(prefixLines))}
		for _, l := range prefixLines {
			tc.Lines[l] = true
		}
		for _, l := range v.Lines() {
			tc.Lines[l] = true
		}
		if !v.Pass {
			// Negative provenance: explain absence.
			if !v.Prefix.IsValid() {
				for _, l := range bgp.MissingOriginLines(n, v.Intent.DstPrefix) {
					tc.Lines[l] = true
				}
			}
			for _, l := range failedSessionLines {
				tc.Lines[l] = true
			}
			if v.Intent.Kind == verify.Waypoint {
				// A bypassed waypoint implicates the PBR machinery along
				// the actual path: the rules that should have redirected
				// the flow live (or are missing) there.
				for _, tr := range v.Traces {
					for _, router := range tr.Path {
						addPBRShell(n, router, tc.Lines)
					}
				}
			}
		}
		m.Tests = append(m.Tests, tc)
	}
	return m
}

// addPBRShell marks the PBR binding and policy-header lines of a router.
func addPBRShell(n *bgp.Net, router string, lines map[netcfg.LineRef]bool) {
	r := n.Routers[router]
	if r == nil || r.File == nil {
		return
	}
	for _, itf := range r.File.Interfaces {
		if itf.PBRPolicy == "" {
			continue
		}
		lines[netcfg.LineRef{Device: router, Line: itf.PBRLine}] = true
		if pol := r.File.PBRPolicyByName(itf.PBRPolicy); pol != nil {
			lines[netcfg.LineRef{Device: router, Line: pol.Line}] = true
		}
	}
}
