package sbfl_test

import (
	"math"
	"reflect"
	"sort"
	"testing"

	"acr/internal/bgp"
	"acr/internal/coverage"
	"acr/internal/incidents"
	"acr/internal/netcfg"
	"acr/internal/sbfl"
	"acr/internal/scenario"
	"acr/internal/verify"
)

func spectrum(t *testing.T, s *scenario.Scenario) *coverage.Matrix {
	t.Helper()
	n := bgp.Compile(s.Topo, s.Files())
	out := bgp.Simulate(n, bgp.Options{})
	g := bgp.BuildProvenance(n, out)
	rep := verify.Verify(n, out, s.Intents)
	return coverage.Build(n, g, rep)
}

func TestFormulaValues(t *testing.T) {
	// Hand-checked values: f=1, p=1, tf=1, tp=2 → Tarantula 2/3.
	cases := []struct {
		f       sbfl.Formula
		fc, pc  int
		tf, tp  int
		want    float64
		withinE float64
	}{
		{sbfl.Tarantula, 1, 1, 1, 2, 2.0 / 3.0, 1e-9},
		{sbfl.Tarantula, 1, 2, 1, 2, 0.5, 1e-9},
		{sbfl.Tarantula, 0, 5, 1, 10, 0, 0},
		{sbfl.Tarantula, 1, 0, 1, 2, 1.0, 1e-9},
		{sbfl.Ochiai, 1, 1, 1, 2, 1 / math.Sqrt(2), 1e-9},
		{sbfl.Ochiai, 2, 0, 2, 5, 1.0, 1e-9},
		{sbfl.Jaccard, 1, 1, 1, 2, 0.5, 1e-9},
		{sbfl.Jaccard, 2, 2, 4, 9, 2.0 / 6.0, 1e-9},
		{sbfl.DStar, 2, 1, 3, 9, 4.0 / 2.0, 1e-9},
		{sbfl.DStar, 0, 1, 3, 9, 0, 0},
	}
	for _, tc := range cases {
		got := tc.f.Fn(tc.fc, tc.pc, tc.tf, tc.tp)
		if math.Abs(got-tc.want) > tc.withinE {
			t.Errorf("%s(%d,%d,%d,%d) = %v, want %v", tc.f.Name, tc.fc, tc.pc, tc.tf, tc.tp, got, tc.want)
		}
	}
}

func TestDStarDivZeroBounded(t *testing.T) {
	got := sbfl.DStar.Fn(3, 0, 3, 5)
	if math.IsInf(got, 1) || math.IsNaN(got) || got <= 0 {
		t.Errorf("DStar 0-denominator = %v, want large finite", got)
	}
}

// TestFigure2TarantulaPaperNumbers reproduces §5 step 1: in the Figure 2
// incident, three tests run (one per subnetwork), only 10.0.0.0/16 fails,
// and router A's most suspicious line is line 9 — the DCN-side import
// attachment — with susp = 0.67 (failed=1, passed=1 of totalpassed=2).
func TestFigure2TarantulaPaperNumbers(t *testing.T) {
	s := scenario.Figure2()
	m := spectrum(t, s)
	if m.TotalFailed() != 1 || m.TotalPassed() != 2 {
		t.Fatalf("spectrum totals = %d failed / %d passed, want 1/2", m.TotalFailed(), m.TotalPassed())
	}
	ranks := sbfl.Rank(m, sbfl.Tarantula)

	line9 := netcfg.LineRef{Device: "A", Line: scenario.FigureALineDCNImport}
	sc := sbfl.ScoreOf(ranks, line9)
	if sc == nil {
		t.Fatalf("A line 9 not covered; ranking:\n%s", sbfl.Format(ranks, 20))
	}
	if math.Abs(sc.Susp-2.0/3.0) > 1e-9 {
		t.Errorf("A:9 susp = %.4f, want 0.6667 (the paper's 0.67)", sc.Susp)
	}
	if sc.Failed != 1 || sc.Passed != 1 {
		t.Errorf("A:9 counts = failed %d passed %d, want 1/1 (per the paper)", sc.Failed, sc.Passed)
	}
	// Line 9 is the TOP suspiciousness on router A, as the paper reports.
	for _, r := range ranks {
		if r.Line.Device != "A" {
			continue
		}
		if r.Susp > sc.Susp+1e-9 {
			t.Errorf("line %v on A scores %.3f > line 9's %.3f; paper says 0.67 is A's highest",
				r.Line, r.Susp, sc.Susp)
		}
	}
	// The PoP-side attachment (line 10) is never covered by the failing
	// test; its suspiciousness must be 0.
	line10 := netcfg.LineRef{Device: "A", Line: scenario.FigureALinePoPImport}
	if sc10 := sbfl.ScoreOf(ranks, line10); sc10 != nil && sc10.Susp != 0 {
		t.Errorf("A:10 susp = %.3f, want 0", sc10.Susp)
	}
	// The prefix-list line 11 (the actual root cause) scores 0.5: covered
	// by the failing test and both passing tests.
	line11 := netcfg.LineRef{Device: "A", Line: scenario.FigureALinePrefixList}
	sc11 := sbfl.ScoreOf(ranks, line11)
	if sc11 == nil || math.Abs(sc11.Susp-0.5) > 1e-9 {
		t.Errorf("A:11 = %+v, want susp 0.5", sc11)
	}
}

// TestFigure2SecondIterationLocalizesC reproduces §5's second iteration:
// after repairing A only, C's DCN-side import attachment scores 0.5
// (covered by the failing test and both passing tests).
func TestFigure2SecondIterationLocalizesC(t *testing.T) {
	s := scenario.Figure2()
	es := scenario.Figure2PaperRepair()[0] // repair A only
	next, err := es.Apply(s.Configs["A"])
	if err != nil {
		t.Fatal(err)
	}
	s.Configs["A"] = next
	m := spectrum(t, s)
	if m.TotalFailed() != 1 {
		t.Fatalf("failed = %d, want 1 after partial repair", m.TotalFailed())
	}
	ranks := sbfl.Rank(m, sbfl.Tarantula)
	lineC := netcfg.LineRef{Device: "C", Line: scenario.FigureCLineDCNImport}
	sc := sbfl.ScoreOf(ranks, lineC)
	if sc == nil {
		t.Fatalf("C's DCNSide import line not covered; ranking:\n%s", sbfl.Format(ranks, 25))
	}
	if math.Abs(sc.Susp-0.5) > 1e-9 {
		t.Errorf("C:%d susp = %.4f, want 0.5 (the paper's value)", scenario.FigureCLineDCNImport, sc.Susp)
	}
	if sc.Failed != 1 || sc.Passed != 2 {
		t.Errorf("C attach counts = %d/%d, want failed 1, passed 2", sc.Failed, sc.Passed)
	}
	// A's repaired line 9 drops: its overrides now only touch passing
	// prefixes... it is still covered by the failing test only through the
	// (non-matching) policy attachment execution, so it may retain 0.67;
	// what matters is C's line is now among the suspicious set.
	sus := sbfl.Suspicious(ranks, 32, 0.5)
	found := false
	for _, s := range sus {
		if s.Line == lineC {
			found = true
		}
	}
	if !found {
		t.Errorf("C's attach line missing from suspicious set:\n%s", sbfl.Format(sus, 32))
	}
}

func TestRankDeterministicAndSorted(t *testing.T) {
	s := scenario.Figure2()
	m := spectrum(t, s)
	a := sbfl.Rank(m, sbfl.Tarantula)
	b := sbfl.Rank(m, sbfl.Tarantula)
	if len(a) != len(b) || len(a) == 0 {
		t.Fatalf("rank lengths differ or empty: %d vs %d", len(a), len(b))
	}
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("rank not deterministic at %d: %+v vs %+v", i, a[i], b[i])
		}
		if i > 0 && a[i].Susp > a[i-1].Susp {
			t.Fatalf("rank not sorted at %d", i)
		}
	}
}

// rankByCounts is Rank as defined: one Matrix.Counts query per covered
// line, then the stable sort. Rank accumulates the counts in one pass
// instead; the ranking must not change by a byte, ties included.
func rankByCounts(m *coverage.Matrix, f sbfl.Formula) []sbfl.Score {
	tf, tp := m.TotalFailed(), m.TotalPassed()
	var out []sbfl.Score
	for _, l := range m.CoveredLines() {
		fc, pc := m.Counts(l)
		out = append(out, sbfl.Score{Line: l, Susp: f.Fn(fc, pc, tf, tp), Failed: fc, Passed: pc})
	}
	sort.SliceStable(out, func(i, j int) bool {
		if out[i].Susp != out[j].Susp {
			return out[i].Susp > out[j].Susp
		}
		return out[i].Line.Less(out[j].Line)
	})
	return out
}

func TestRankMatchesPerLineCounts(t *testing.T) {
	incs, err := incidents.GenerateCorpus(incidents.CorpusOptions{Size: 24, Seed: 3})
	if err != nil {
		t.Fatal(err)
	}
	cases := []*scenario.Scenario{scenario.Figure2()}
	for _, inc := range incs {
		cases = append(cases, inc.Scenario)
	}
	for i, s := range cases {
		m := spectrum(t, s)
		for _, f := range sbfl.Formulas {
			if got, want := sbfl.Rank(m, f), rankByCounts(m, f); !reflect.DeepEqual(got, want) {
				t.Fatalf("case %d, %s: one-pass ranking differs from per-line counts\ngot:  %v\nwant: %v", i, f.Name, got, want)
			}
		}
	}
}

func TestSuspiciousFiltering(t *testing.T) {
	scores := []sbfl.Score{
		{Line: netcfg.LineRef{Device: "A", Line: 1}, Susp: 1.0},
		{Line: netcfg.LineRef{Device: "A", Line: 2}, Susp: 0.8},
		{Line: netcfg.LineRef{Device: "A", Line: 3}, Susp: 0.5},
		{Line: netcfg.LineRef{Device: "A", Line: 4}, Susp: 0.2},
		{Line: netcfg.LineRef{Device: "A", Line: 5}, Susp: 0},
	}
	got := sbfl.Suspicious(scores, 0, 0.5)
	if len(got) != 3 {
		t.Errorf("Suspicious(minSusp=0.5) = %d entries, want 3", len(got))
	}
	got = sbfl.Suspicious(scores, 2, 0.1)
	if len(got) != 2 {
		t.Errorf("Suspicious(k=2) = %d entries, want 2", len(got))
	}
}

func TestRankOf(t *testing.T) {
	scores := []sbfl.Score{
		{Line: netcfg.LineRef{Device: "A", Line: 1}, Susp: 1.0},
		{Line: netcfg.LineRef{Device: "A", Line: 2}, Susp: 0.8},
		{Line: netcfg.LineRef{Device: "A", Line: 3}, Susp: 0.8},
		{Line: netcfg.LineRef{Device: "A", Line: 4}, Susp: 0.2},
	}
	if got := sbfl.RankOf(scores, netcfg.LineRef{Device: "A", Line: 3}); got != 3 {
		t.Errorf("RankOf tied line = %d, want 3 (worst-case rank)", got)
	}
	if got := sbfl.RankOf(scores, netcfg.LineRef{Device: "Z", Line: 9}); got != 0 {
		t.Errorf("RankOf missing line = %d, want 0", got)
	}
}

func TestAllFormulasRankFaultHighOnWrongASN(t *testing.T) {
	// Break a stub's uplink AS number in the WAN; every formula must rank
	// the faulty session line within the top 10.
	s := scenario.WAN(6, 3, 2, scenario.GenOptions{})
	f := netcfg.MustParse(s.Configs["pop0"])
	asnLine := f.BGP.Peers[0].ASNLine
	bad := " peer " + f.BGP.Peers[0].Addr.String() + " as-number 64999"
	next, err := netcfg.EditSet{Edits: []netcfg.Edit{netcfg.ReplaceLine{At: asnLine, Text: bad}}}.Apply(s.Configs["pop0"])
	if err != nil {
		t.Fatal(err)
	}
	s.Configs["pop0"] = next
	m := spectrum(t, s)
	if m.TotalFailed() == 0 {
		t.Fatal("wrong ASN caused no failures; scenario broken")
	}
	faulty := netcfg.LineRef{Device: "pop0", Line: asnLine}
	for _, formula := range sbfl.Formulas {
		ranks := sbfl.Rank(m, formula)
		r := sbfl.RankOf(ranks, faulty)
		if r == 0 || r > 10 {
			t.Errorf("%s ranks faulty line at %d, want top-10\n%s", formula.Name, r, sbfl.Format(ranks, 12))
		}
	}
}
