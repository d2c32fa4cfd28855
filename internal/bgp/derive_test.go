package bgp_test

import (
	"maps"
	"slices"
	"testing"

	"acr/internal/bgp"
	"acr/internal/core"
	"acr/internal/incidents"
	"acr/internal/netcfg"
	"acr/internal/scenario"
)

// deriveOracle holds every candidate a template proposes to
// Net.Derive: the derived net must equal Compile's on the same files,
// and a refusal must mean that some router's established peers changed.
type deriveOracle struct {
	t                *testing.T
	derived, refused int
}

// oracleTemplate is a template whose every proposal is first put to the
// oracle.
type oracleTemplate struct {
	core.Template
	o *deriveOracle
}

func (ot oracleTemplate) Generate(ctx *core.Context, line netcfg.LineRef) []core.Update {
	ups := ot.Template.Generate(ctx, line)
	for _, up := range ups {
		ot.o.check(ctx, up)
	}
	return ups
}

func (o *deriveOracle) check(ctx *core.Context, up core.Update) {
	o.t.Helper()
	configs := make(map[string]*netcfg.Config, len(ctx.Configs))
	for d, c := range ctx.Configs {
		configs[d] = c
	}
	for _, es := range up.Edits {
		c, err := es.Apply(configs[es.Device])
		if err != nil {
			return // the engine drops a candidate that does not apply
		}
		configs[es.Device] = c
	}
	files := make(map[string]*netcfg.File, len(configs))
	for d, c := range configs {
		files[d] = ctx.Files[d]
		if c != ctx.Configs[d] {
			files[d], _ = netcfg.Parse(c)
		}
	}
	var dirty []string
	for _, d := range ctx.Net.Order {
		if files[d] != ctx.Files[d] {
			dirty = append(dirty, d)
		}
	}
	got, ok := ctx.Net.Derive(files, dirty)
	want := bgp.Compile(ctx.Topo, files)
	if why := bgp.NetDiff(got, want); why != "" {
		o.t.Fatalf("%s (derived %v): %s", up.Desc, ok, why)
	}
	if ok {
		o.derived++
		return
	}
	o.refused++
	if slices.EqualFunc(ctx.Net.Order, want.Order, func(name, _ string) bool {
		return slices.EqualFunc(ctx.Net.Routers[name].Sessions, want.Routers[name].Sessions,
			func(a, b *bgp.Session) bool { return a.PeerAddr == b.PeerAddr })
	}) {
		o.t.Fatalf("%s: Derive refused, but every router keeps its established peers", up.Desc)
	}
}

// TestDeriveMatchesCompile is Derive's oracle: every candidate the
// templates propose while repairing the seed-1 corpus and the wan-large
// panel (16 compound-fault incidents on the 26-device WAN) is derived from
// the net of the version it edits and compared with a cold Compile of the
// same files, router by router and session by session.
func TestDeriveMatchesCompile(t *testing.T) {
	corpus := incidents.CorpusOptions{Size: 120, Seed: 1}
	panel := incidents.CorpusOptions{Size: 16, Seed: 3, WANRouters: 12, WANPoPs: 8, WANDCNs: 6, DoubleFaultShare: 0.5}
	if testing.Short() {
		corpus.Size, panel.Size = 12, 2
	}
	o := &deriveOracle{t: t}
	var templates []core.Template
	for _, tmpl := range core.BuiltinTemplates() {
		templates = append(templates, oracleTemplate{tmpl, o})
	}
	for _, opts := range []incidents.CorpusOptions{corpus, panel} {
		incs, err := incidents.GenerateCorpus(opts)
		if err != nil {
			t.Fatal(err)
		}
		for _, inc := range incs {
			s := inc.Scenario
			core.Repair(core.Problem{Topo: s.Topo, Configs: s.Configs, Intents: s.Intents}, core.Options{Templates: templates})
		}
	}
	t.Logf("%d candidates derived, %d refused (sessions changed) and compiled cold", o.derived, o.refused)
	if o.derived == 0 || o.refused == 0 {
		t.Error("the candidates never exercised one of Derive's two outcomes")
	}
}

// TestDeriveRefusesOnSessionChange: on Figure 2 and a small WAN, inserting
// a comment into the first router's configuration derives, and deleting the
// first line of its first session refuses. Either way the net is Compile's.
func TestDeriveRefusesOnSessionChange(t *testing.T) {
	for _, s := range []*scenario.Scenario{scenario.Figure2(), scenario.WAN(6, 3, 2, scenario.GenOptions{})} {
		base := bgp.Compile(s.Topo, s.Files())
		first := base.Order[0]
		peerLine := base.Routers[first].Sessions[0].LocalLines[0].Line
		for _, tc := range []struct {
			edit netcfg.Edit
			same bool
		}{
			{netcfg.InsertBefore{At: 1, Text: "# comment"}, true},
			{netcfg.DeleteLine{At: peerLine}, false},
		} {
			c, err := netcfg.EditSet{Device: first, Edits: []netcfg.Edit{tc.edit}}.Apply(s.Configs[first])
			if err != nil {
				t.Fatal(err)
			}
			files := maps.Clone(base.Files)
			files[first], _ = netcfg.Parse(c)
			got, ok := base.Derive(files, []string{first})
			if ok != tc.same {
				t.Errorf("%s after %v: derived = %v, want %v", s.Name, tc.edit, ok, tc.same)
			}
			if why := bgp.NetDiff(got, bgp.Compile(s.Topo, files)); why != "" {
				t.Errorf("%s after %v: the net differs from Compile's: %s", s.Name, tc.edit, why)
			}
		}
	}
}
