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
	"acr/internal/bgp"
	"acr/internal/netcfg"
	"acr/internal/provenance"
	"acr/internal/verify"
)

// TestCoverage is one row of the spectrum.
type TestCoverage struct {
	ID    string
	Pass  bool
	Lines netcfg.LineSet // over the version's line space
}

// Matrix is the full spectrum.
type Matrix struct {
	Space *netcfg.LineSpace // the version's line space, every row's
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
		if !t.Lines.Has(l) {
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
	all := m.Space.NewSet()
	for _, t := range m.Tests {
		all.Union(t.Lines)
	}
	return all.Refs()
}

// Build constructs the spectrum from a verified outcome. A row starts as a
// copy of its prefix section's line set; a line outside n's line space
// panics, naming the line.
func Build(n *bgp.Net, g *provenance.Graph, rep *verify.Report) *Matrix {
	m := &Matrix{Space: n.LineSpace(), Tests: make([]TestCoverage, 0, len(rep.Verdicts))}
	failedSessionLines := n.FailedSessionLines()
	for _, v := range rep.Verdicts {
		tc := TestCoverage{ID: v.Intent.ID, Pass: v.Pass, Lines: m.Space.NewSet()}
		if s := g.Section(v.Prefix); s != nil {
			tc.Lines.Union(s.LineSet())
		}
		for _, tr := range v.Traces {
			tc.Lines.Add(tr.Lines...)
		}
		if !v.Pass {
			// Negative provenance: explain absence.
			if !v.Prefix.IsValid() {
				tc.Lines.Add(bgp.MissingOriginLines(n, v.Intent.DstPrefix)...)
			}
			tc.Lines.Add(failedSessionLines...)
			if v.Intent.Kind == verify.Waypoint {
				// A bypassed waypoint implicates the PBR machinery along
				// the actual path: the rules that should have redirected
				// the flow live (or are missing) there.
				for _, tr := range v.Traces {
					for _, router := range tr.Path {
						addPBRShell(n, router, &tc.Lines)
					}
				}
			}
		}
		m.Tests = append(m.Tests, tc)
	}
	return m
}

// addPBRShell adds the PBR binding and policy-header lines of a router.
func addPBRShell(n *bgp.Net, router string, lines *netcfg.LineSet) {
	r := n.Routers[router]
	if r == nil || r.File == nil {
		return
	}
	for _, itf := range r.File.Interfaces {
		if itf.PBRPolicy == "" {
			continue
		}
		lines.Add(netcfg.LineRef{Device: router, Line: itf.PBRLine})
		if pol := r.File.PBRPolicyByName(itf.PBRPolicy); pol != nil {
			lines.Add(netcfg.LineRef{Device: router, Line: pol.Line})
		}
	}
}
