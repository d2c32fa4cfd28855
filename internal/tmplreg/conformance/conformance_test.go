package conformance

import (
	"testing"

	"acr/internal/analysis"
	"acr/internal/core"
	"acr/internal/errclass"
	"acr/internal/incidents"
	"acr/internal/netcfg"
)

// quick keeps test runs fast: one seed, modest iteration budget.
var quick = Options{Seeds: []int64{1}, MaxIterations: 30}

// library is every template the engine ships: Table 1's and the universal
// operators.
func library() []core.Template {
	return append(core.BuiltinTemplates(), core.UniversalTemplates()...)
}

// TestAllBuiltinsConform is the acceptance gate: every builtin template —
// the nine Table 1 families (11 structs) and the two universal operators —
// passes conformance.
func TestAllBuiltinsConform(t *testing.T) {
	results, err := Run(library(), quick)
	if err != nil {
		t.Fatal(err)
	}
	if len(results) != 13 {
		t.Fatalf("checked %d templates, want 13", len(results))
	}
	for _, tr := range results {
		if !tr.Conformant {
			t.Errorf("%s (%s): not conformant: %v %v", tr.Name, tr.Class, tr.Reasons, tr.GenerateErrors)
			continue
		}
		if tr.Class.Table1() && (tr.Attempts == 0 || tr.Repaired == 0) {
			t.Errorf("%s: power check did not run (%d/%d)", tr.Name, tr.Repaired, tr.Attempts)
		}
	}
}

// brokenTemplate emits an edit far past the end of every file — the
// deliberately broken fixture the harness must reject.
type brokenTemplate struct{}

func (brokenTemplate) Name() string               { return "fixture-broken-edit" }
func (brokenTemplate) ErrorClass() errclass.Class { return errclass.MissingPeerGroup }
func (brokenTemplate) Generate(ctx *core.Context, line netcfg.LineRef) []core.Update {
	return []core.Update{{
		Edits: []netcfg.EditSet{{Device: line.Device, Edits: []netcfg.Edit{
			netcfg.DeleteLine{At: 99999},
		}}},
		Desc: "fixture-broken-edit " + line.String(),
	}}
}

// uselessTemplate never generates anything, so it cannot repair its
// declared class.
type uselessTemplate struct{}

func (uselessTemplate) Name() string               { return "fixture-useless" }
func (uselessTemplate) ErrorClass() errclass.Class { return errclass.WrongASNumber }
func (uselessTemplate) Generate(*core.Context, netcfg.LineRef) []core.Update {
	return nil
}

// panickyTemplate panics on any backbone anchor.
type panickyTemplate struct{}

func (panickyTemplate) Name() string               { return "fixture-panicky" }
func (panickyTemplate) ErrorClass() errclass.Class { return errclass.LeftoverRouteMap }
func (panickyTemplate) Generate(ctx *core.Context, line netcfg.LineRef) []core.Update {
	panic("fixture bug at " + line.String())
}

// TestBrokenFixturesRejected: malformed-edit, powerless, and panicking
// templates are all refused admission, each with a reason, while a builtin
// checked in the same run still passes.
func TestBrokenFixturesRejected(t *testing.T) {
	results, err := Run([]core.Template{brokenTemplate{}, uselessTemplate{}, panickyTemplate{}, core.FixPeerASN{}}, quick)
	if err != nil {
		t.Fatal(err)
	}
	verdicts := map[string]TemplateResult{}
	var rejected []string
	for _, tr := range results {
		verdicts[tr.Name] = tr
		if !tr.Conformant {
			rejected = append(rejected, tr.Name)
		}
	}
	if tr := verdicts["fixture-broken-edit"]; tr.Conformant || len(tr.GenerateErrors) == 0 {
		t.Errorf("broken-edit fixture admitted: %+v", tr)
	}
	if tr := verdicts["fixture-useless"]; tr.Conformant || tr.Repaired != 0 || len(tr.Reasons) == 0 {
		t.Errorf("useless fixture admitted: %+v", tr)
	}
	if tr := verdicts["fixture-panicky"]; tr.Conformant || len(tr.GenerateErrors) == 0 {
		t.Errorf("panicky fixture admitted: %+v", tr)
	}
	if tr := verdicts["fix-peer-asn"]; !tr.Conformant {
		t.Errorf("builtin rejected alongside fixtures: %+v", tr)
	}
	if len(rejected) != 3 {
		t.Errorf("rejected %v, want the three fixtures", rejected)
	}
}

// TestRunUnknownName: restricting to a template the run was not given is
// an error, not a silent skip, and the error names every unknown template
// in sorted order, the same text on every run.
func TestRunUnknownName(t *testing.T) {
	if _, err := Run(library(), Options{Names: []string{"no-such"}}); err == nil {
		t.Fatal("unknown name accepted")
	}
	names := []string{"no-such-b", "fix-peer-asn", "no-such-a"}
	const want = `conformance: unknown template(s) "no-such-a", "no-such-b"`
	for i := 0; i < 20; i++ {
		_, err := Run(library(), Options{Names: names})
		if err == nil || err.Error() != want {
			t.Fatalf("run %d: err = %v, want %s", i, err, want)
		}
	}
}

// TestEveryClassFullyCovered is the Table 1 closure cross-check: each of
// the paper's nine error classes has at least one static analyzer, at
// least one incident injector, and at least one conformant change
// template. A class missing any leg would silently degrade the
// localize–fix–validate loop.
func TestEveryClassFullyCovered(t *testing.T) {
	results, err := Run(library(), quick)
	if err != nil {
		t.Fatal(err)
	}
	conformant := map[errclass.Class]int{}
	for _, tr := range results {
		if tr.Conformant {
			conformant[tr.Class]++
		}
	}
	analyzers := map[errclass.Class]int{}
	for _, a := range analysis.Analyzers() {
		if a.Class != "" {
			analyzers[a.Class]++
		}
	}
	for _, class := range errclass.All() {
		if analyzers[class] == 0 {
			t.Errorf("%s: no static analyzer declares this class", class)
		}
		if _, ok := incidents.ByClass(class); !ok {
			t.Errorf("%s: no incident injector for this class", class)
		}
		if conformant[class] == 0 {
			t.Errorf("%s: no conformant template repairs this class", class)
		}
	}
}
