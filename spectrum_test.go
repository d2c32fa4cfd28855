package acr_test

import (
	"fmt"
	"math/rand"
	"reflect"
	"sort"
	"testing"

	"acr"
	"acr/internal/bgp"
	"acr/internal/core"
	"acr/internal/coverage"
	"acr/internal/incidents"
	"acr/internal/netcfg"
	"acr/internal/provenance"
	"acr/internal/sbfl"
	"acr/internal/verify"
)

// dcnIncidents draws n PBR incidents on the k-ary fat-tree as the dcn-scale
// workload does: every fourth an extra redirect, the others a missing permit.
func dcnIncidents(t testing.TB, k, n int) []*acr.Incident {
	t.Helper()
	rng := rand.New(rand.NewSource(1))
	var out []*acr.Incident
	for i := 0; i < n; i++ {
		class := incidents.MissingPBRPermit
		if i%4 == 3 {
			class = incidents.ExtraPBRRedirect
		}
		inc, err := incidents.Inject(class, incidents.CorpusOptions{FatTreeK: k}, rng)
		if err != nil {
			t.Fatal(err)
		}
		inc.ID = fmt.Sprintf("dcn-k%d-%d", k, i)
		out = append(out, inc)
	}
	return out
}

// definitionalRow is one test's coverage as the spectrum defines it: a map
// of the lines executed by its prefix's derivations, by its traces and, for
// a failing test, by its negative provenance.
type definitionalRow struct {
	pass  bool
	lines map[netcfg.LineRef]bool
}

// definitionalSpectrum builds the spectrum with maps, reading the sites of
// traced, a graph that stores every derivation, one by one; it shares no
// code with the line sets.
func definitionalSpectrum(n *bgp.Net, traced *provenance.Graph, rep *verify.Report) []definitionalRow {
	var rows []definitionalRow
	for _, v := range rep.Verdicts {
		lines := map[netcfg.LineRef]bool{}
		if sec := traced.Section(v.Prefix); v.Prefix.IsValid() && sec != nil {
			for _, site := range sec.Stored() {
				for _, l := range site.Lines {
					lines[l] = true
				}
			}
		}
		for _, l := range v.Lines() {
			lines[l] = true
		}
		if !v.Pass {
			if !v.Prefix.IsValid() {
				for _, l := range bgp.MissingOriginLines(n, v.Intent.DstPrefix) {
					lines[l] = true
				}
			}
			for _, l := range n.FailedSessionLines() {
				lines[l] = true
			}
			if v.Intent.Kind == verify.Waypoint {
				for _, tr := range v.Traces {
					for _, router := range tr.Path {
						f := n.Routers[router].File
						for _, itf := range f.Interfaces {
							if itf.PBRPolicy == "" {
								continue
							}
							lines[netcfg.LineRef{Device: router, Line: itf.PBRLine}] = true
							if pol := f.PBRPolicyByName(itf.PBRPolicy); pol != nil {
								lines[netcfg.LineRef{Device: router, Line: pol.Line}] = true
							}
						}
					}
				}
			}
		}
		rows = append(rows, definitionalRow{pass: v.Pass, lines: lines})
	}
	return rows
}

// definitionalRank scores every line some row holds by its per-line counts
// and sorts by (suspiciousness descending, line).
func definitionalRank(rows []definitionalRow, f sbfl.Formula) []sbfl.Score {
	tf, tp := 0, 0
	at := map[netcfg.LineRef]*sbfl.Score{}
	for _, r := range rows {
		if r.pass {
			tp++
		} else {
			tf++
		}
		for l := range r.lines { //acrvet:ordered — counts, sorted below
			if at[l] == nil {
				at[l] = &sbfl.Score{Line: l}
			}
			if r.pass {
				at[l].Passed++
			} else {
				at[l].Failed++
			}
		}
	}
	var out []sbfl.Score
	for _, s := range at { //acrvet:ordered — sorted below by a total order
		s.Susp = f.Fn(s.Failed, s.Passed, tf, tp)
		out = append(out, *s)
	}
	sort.Slice(out, func(i, j int) bool {
		if out[i].Susp != out[j].Susp {
			return out[i].Susp > out[j].Susp
		}
		return out[i].Line.Less(out[j].Line)
	})
	return out
}

// TestSpectrumMatchesDefinition holds the bit-set spectrum — rows copied
// from sealed section sets, counts indexed by line ID — to the map-based
// definition on the base versions of Figure 2, a 24-incident corpus slice,
// the wan-large panel and two k=10 dcn-scale incidents: every row answers
// Has like its map over the union of all rows' lines, CoveredLines and
// Counts agree, and every formula ranks byte for byte as the definition.
func TestSpectrumMatchesDefinition(t *testing.T) {
	cases := map[string]*acr.Case{"figure2": acr.Figure2Incident()}
	slice, err := acr.GenerateCorpus(acr.CorpusOptions{Size: 24, Seed: 3})
	if err != nil {
		t.Fatal(err)
	}
	for _, inc := range append(append(slice, wanPanel(t)...), dcnIncidents(t, 10, 2)...) {
		cases[inc.ID] = acr.IncidentCase(inc)
	}
	lines := 0
	for name, c := range cases {
		iv := verify.NewIncremental(c.Topo, c.Configs, c.Intents, bgp.Options{})
		m := coverage.Build(iv.BaseNet(), iv.BaseProvenance(), iv.BaseReport())
		rows := definitionalSpectrum(iv.BaseNet(), tracedProvenance(iv.BaseNet(), iv.BaseOutcome()), iv.BaseReport())
		if len(m.Tests) != len(rows) {
			t.Fatalf("%s: %d rows, the definition has %d", name, len(m.Tests), len(rows))
		}
		union := map[netcfg.LineRef]bool{}
		for _, r := range rows {
			for l := range r.lines { //acrvet:ordered — set union
				union[l] = true
			}
		}
		var want []netcfg.LineRef
		for l := range union { //acrvet:ordered — sorted below
			want = append(want, l)
		}
		sort.Slice(want, func(i, j int) bool { return want[i].Less(want[j]) })
		if got := m.CoveredLines(); !sameLines(got, want) {
			t.Fatalf("%s: CoveredLines = %d lines, the definition %d", name, len(got), len(want))
		}
		for i, r := range rows {
			if m.Tests[i].Pass != r.pass || len(m.Tests[i].Lines.Refs()) != len(r.lines) {
				t.Fatalf("%s: row %d pass=%v with %d lines, the definition pass=%v with %d",
					name, i, m.Tests[i].Pass, len(m.Tests[i].Lines.Refs()), r.pass, len(r.lines))
			}
			for _, l := range want {
				if m.Tests[i].Lines.Has(l) != r.lines[l] {
					t.Fatalf("%s: row %d Has(%v) = %v, the definition %v", name, i, l, !r.lines[l], r.lines[l])
				}
			}
		}
		for _, l := range want {
			f, p := m.Counts(l)
			var wf, wp int
			for _, r := range rows {
				if r.lines[l] && r.pass {
					wp++
				} else if r.lines[l] {
					wf++
				}
			}
			if f != wf || p != wp {
				t.Fatalf("%s: Counts(%v) = (%d, %d), the definition (%d, %d)", name, l, f, p, wf, wp)
			}
		}
		for _, f := range sbfl.Formulas {
			if got, want := sbfl.Rank(m, f), definitionalRank(rows, f); !reflect.DeepEqual(got, want) {
				t.Fatalf("%s, %s: the ranking differs from the definition's", name, f.Name)
			}
		}
		lines += len(want)
	}
	t.Logf("%d cases, %d covered lines: spectra and rankings equal to the definition", len(cases), lines)
}

// TestContextAllocBudget is the allocation budget on localization: a
// Context over a fresh k=6 fat-tree base — its sections sealed, its
// spectrum built and ranked — cost 218 allocations with a deduplicated,
// sorted slice per sealed section and a map per spectrum row; with bit sets
// over the version's line space, 93; with the routers' spans recorded
// beside the line space, 94. The budget is 94 with 10 % headroom.
func TestContextAllocBudget(t *testing.T) {
	const budget = 94 * 11 / 10
	inc := dcnIncidents(t, 6, 1)[0]
	p := core.Problem{Topo: inc.Scenario.Topo, Configs: inc.Scenario.Configs, Intents: inc.Scenario.Intents}
	const runs = 3
	var fresh []*verify.Incremental // one per call: a verifier's sections seal once
	for i := 0; i <= runs; i++ {
		fresh = append(fresh, verify.NewIncremental(p.Topo, p.Configs, p.Intents, bgp.Options{}))
	}
	var ctx *core.Context
	got := testing.AllocsPerRun(runs, func() {
		ctx = core.NewContext(p, fresh[0], sbfl.Tarantula, rand.New(rand.NewSource(1)))
		fresh = fresh[1:]
	})
	t.Logf("a Context over the k=6 fat-tree base (%d tests, %d ranked lines): %.0f allocations, budget %d",
		len(ctx.Matrix.Tests), len(ctx.Ranks), got, budget)
	if ctx.Report.NumFailed() == 0 || len(ctx.Ranks) == 0 {
		t.Fatal("nothing fails or nothing ranks; the budget is vacuous")
	}
	if got > budget {
		t.Errorf("a Context over the k=6 fat-tree base allocates %.0f times, budget %d", got, budget)
	}
}
