package coverage_test

import (
	"reflect"
	"strings"
	"sync"
	"testing"

	"acr/internal/bgp"
	"acr/internal/coverage"
	"acr/internal/dataplane"
	"acr/internal/netcfg"
	"acr/internal/sbfl"
	"acr/internal/scenario"
	"acr/internal/verify"
)

func build(t *testing.T, s *scenario.Scenario) (*bgp.Net, *coverage.Matrix) {
	t.Helper()
	n := bgp.Compile(s.Topo, s.Files())
	out := bgp.Simulate(n, bgp.Options{})
	g := bgp.BuildProvenance(n, out)
	rep := verify.Verify(n, out, s.Intents)
	return n, coverage.Build(n, g, rep)
}

func TestMatrixTotals(t *testing.T) {
	_, m := build(t, scenario.Figure2())
	if m.TotalFailed() != 1 || m.TotalPassed() != 2 {
		t.Fatalf("totals = %d/%d, want 1 failed / 2 passed", m.TotalFailed(), m.TotalPassed())
	}
	if len(m.CoveredLines()) == 0 {
		t.Fatal("no lines covered")
	}
}

func TestFailingTestCoversOverridePolicyOnA(t *testing.T) {
	_, m := build(t, scenario.Figure2())
	var failing *coverage.TestCoverage
	for i := range m.Tests {
		if !m.Tests[i].Pass {
			failing = &m.Tests[i]
		}
	}
	if failing == nil {
		t.Fatal("no failing test")
	}
	for _, want := range []netcfg.LineRef{
		{Device: "A", Line: scenario.FigureALineDCNImport},
		{Device: "A", Line: scenario.FigureALinePrefixList},
		{Device: "A", Line: scenario.FigureALinePolicy},
		{Device: "A", Line: scenario.FigureALineOverwrite},
		{Device: "C", Line: scenario.FigureCLineDCNImport},
	} {
		if !failing.Lines.Has(want) {
			t.Errorf("failing test does not cover %v", want)
		}
	}
	// The PoP-side attachment on A is only exercised by PoP-A's prefix.
	if failing.Lines.Has(netcfg.LineRef{Device: "A", Line: scenario.FigureALinePoPImport}) {
		t.Error("failing test should not cover A's PoP-side attachment")
	}
}

func TestMissingOriginNegativeCoverage(t *testing.T) {
	// Delete the redistribute line of a static-originating stub: the
	// failing reachability test must cover the remaining static line.
	s := scenario.WAN(6, 3, 2, scenario.GenOptions{StaticOriginEvery: 1})
	f := netcfg.MustParse(s.Configs["pop0"])
	if f.BGP.Redistribute == nil {
		t.Fatal("pop0 does not use static origination")
	}
	redisLine := f.BGP.Redistribute.Line
	staticLine := f.Statics[0].Line
	next, err := netcfg.EditSet{Edits: []netcfg.Edit{netcfg.DeleteLine{At: redisLine}}}.Apply(s.Configs["pop0"])
	if err != nil {
		t.Fatal(err)
	}
	s.Configs["pop0"] = next
	_, m := build(t, s)
	if m.TotalFailed() == 0 {
		t.Fatal("missing redistribution caused no failures")
	}
	// The static line shifted up by one if it followed the redistribute
	// line; recompute from the edited config.
	f2 := netcfg.MustParse(s.Configs["pop0"])
	staticLine = f2.Statics[0].Line
	covered := false
	for _, tc := range m.Tests {
		if !tc.Pass && tc.Lines.Has(netcfg.LineRef{Device: "pop0", Line: staticLine}) {
			covered = true
		}
	}
	if !covered {
		t.Error("failing tests do not cover the orphaned static route line (negative provenance)")
	}
}

func TestFailedSessionNegativeCoverage(t *testing.T) {
	s := scenario.WAN(6, 3, 2, scenario.GenOptions{})
	f := netcfg.MustParse(s.Configs["pop1"])
	asnLine := f.BGP.Peers[0].ASNLine
	next, err := netcfg.EditSet{Edits: []netcfg.Edit{netcfg.ReplaceLine{
		At:   asnLine,
		Text: " peer " + f.BGP.Peers[0].Addr.String() + " as-number 63999",
	}}}.Apply(s.Configs["pop1"])
	if err != nil {
		t.Fatal(err)
	}
	s.Configs["pop1"] = next
	n, m := build(t, s)
	if len(n.Failed) == 0 {
		t.Fatal("session should have failed")
	}
	ref := netcfg.LineRef{Device: "pop1", Line: asnLine}
	for _, tc := range m.Tests {
		if tc.Pass && tc.Lines.Has(ref) {
			t.Errorf("passing test %s covers the failed-session line", tc.ID)
		}
		if !tc.Pass && !tc.Lines.Has(ref) {
			t.Errorf("failing test %s misses the failed-session line", tc.ID)
		}
	}
}

func TestCountsConsistency(t *testing.T) {
	_, m := build(t, scenario.Figure2())
	for _, l := range m.CoveredLines() {
		f, p := m.Counts(l)
		if f+p == 0 {
			t.Errorf("covered line %v has zero counts", l)
		}
		if f > m.TotalFailed() || p > m.TotalPassed() {
			t.Errorf("line %v counts (%d,%d) exceed totals", l, f, p)
		}
	}
}

// TestBuildPanicsOutsideTheLineSpace: a row is a bit set over the version's
// line space, which would silently drop a line it does not number, so Build
// panics and names the line.
func TestBuildPanicsOutsideTheLineSpace(t *testing.T) {
	s := scenario.Figure2()
	n := bgp.Compile(s.Topo, s.Files())
	out := bgp.Simulate(n, bgp.Options{})
	bad := netcfg.LineRef{Device: "A", Line: n.Files["A"].NumLines + 1}
	rep := &verify.Report{Verdicts: []verify.Verdict{{Pass: true,
		Traces: []*dataplane.TraceResult{{Lines: []netcfg.LineRef{{Device: "A", Line: 1}, bad}}}}}}
	defer func() {
		if msg, _ := recover().(string); !strings.Contains(msg, bad.String()) {
			t.Errorf("Build with trace line %v: panic %q, want one naming the line", bad, msg)
		}
	}()
	coverage.Build(n, bgp.BuildProvenance(n, out), rep)
}

// TestConcurrentSealRace: clones of one verifier share its net and its
// provenance graph, so their workers race to build the net's line space on
// first use, to seal the same sections and to copy them into spectra. Every
// worker must see one space and build the spectrum and ranking a verifier
// of its own builds.
func TestConcurrentSealRace(t *testing.T) {
	s := scenario.Figure2()
	base := verify.NewIncremental(s.Topo, s.Configs, s.Intents, bgp.Options{})
	const workers = 4
	spaces := make([]*netcfg.LineSpace, workers)
	ranks := make([][]sbfl.Score, workers)
	start := make(chan struct{})
	var wg sync.WaitGroup
	for i := 0; i < workers; i++ {
		iv := base.Clone()
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			<-start
			spaces[i] = iv.BaseNet().LineSpace()
			for _, p := range iv.BaseProvenance().Prefixes() {
				iv.BaseProvenance().Section(p).LineSet()
			}
			ranks[i] = sbfl.Rank(coverage.Build(iv.BaseNet(), iv.BaseProvenance(), iv.BaseReport()), sbfl.Tarantula)
		}(i)
	}
	close(start)
	wg.Wait()
	own := verify.NewIncremental(s.Topo, s.Configs, s.Intents, bgp.Options{})
	want := sbfl.Rank(coverage.Build(own.BaseNet(), own.BaseProvenance(), own.BaseReport()), sbfl.Tarantula)
	for i := range ranks {
		if spaces[i] != spaces[0] {
			t.Errorf("worker %d built a line space of its own", i)
		}
		if !reflect.DeepEqual(ranks[i], want) {
			t.Errorf("worker %d ranks differently from a verifier of its own", i)
		}
	}
}
