package core_test

import (
	"math/rand"
	"net/netip"
	"reflect"
	"testing"

	"acr/internal/bgp"
	"acr/internal/core"
	"acr/internal/incidents"
	"acr/internal/sbfl"
	"acr/internal/scenario"
	"acr/internal/verify"
)

// memoCases are Figure 2, a 24-incident corpus slice and a prefix-list
// fault on the 26-device WAN.
func memoCases(t *testing.T) map[string]*scenario.Scenario {
	t.Helper()
	cases := map[string]*scenario.Scenario{"figure2": scenario.Figure2()}
	incs, err := incidents.GenerateCorpus(incidents.CorpusOptions{Size: 24, Seed: 3})
	if err != nil {
		t.Fatal(err)
	}
	for _, inc := range incs {
		cases[inc.ID] = inc.Scenario
	}
	wan, err := incidents.Inject(incidents.MissingPrefixListItem,
		incidents.CorpusOptions{WANRouters: 12, WANPoPs: 8, WANDCNs: 6}, rand.New(rand.NewSource(1)))
	if err != nil {
		t.Fatal(err)
	}
	cases["wan26"] = wan.Scenario
	return cases
}

// TestSolveListMemoMatchesUnmemoised checks, for every (device, list) of
// every case, that the memoised solve equals a fresh one: on the first
// call, on the memo hit, and after every builtin template has generated at
// every ranked line and every update has been applied — the memoised
// member slice is shared by all updates built from it, so nothing
// downstream may modify it.
func TestSolveListMemoMatchesUnmemoised(t *testing.T) {
	solved := 0
	for name, s := range memoCases(t) {
		p := core.Problem{Topo: s.Topo, Configs: s.Configs, Intents: s.Intents}
		iv := verify.NewIncremental(p.Topo, p.Configs, p.Intents, bgp.Options{})
		ctx := core.NewContext(p, iv, sbfl.Tarantula, rand.New(rand.NewSource(1)))
		type solve struct {
			Want        []string
			OK          bool
			Constraints string
		}
		// snapshot copies a solve out of the slice the memo shares.
		snapshot := func(want []netip.Prefix, ok bool, constraints string) solve {
			s := solve{OK: ok, Constraints: constraints}
			for _, pfx := range want {
				s.Want = append(s.Want, pfx.String())
			}
			return s
		}
		unmemoised := map[[2]string]solve{}
		check := func(stage string) {
			for device, f := range ctx.Files {
				for _, e := range f.PrefixLists {
					key := [2]string{device, e.Name}
					fresh, ok := unmemoised[key]
					if !ok {
						fresh = snapshot(core.SolveListValue(ctx, device, e.Name))
						unmemoised[key] = fresh
						if fresh.OK {
							solved++
						}
					}
					if memo := snapshot(ctx.SolveList(device, e.Name)); !reflect.DeepEqual(memo, fresh) {
						t.Fatalf("%s %s %v: memoised %+v, unmemoised %+v", name, stage, key, memo, fresh)
					}
				}
			}
		}
		check("first call")
		check("memo hit")
		for _, sc := range ctx.Ranks {
			for _, tmpl := range core.BuiltinTemplates() {
				for _, up := range tmpl.Generate(ctx, sc.Line) {
					for _, es := range up.Edits {
						if _, err := es.Apply(ctx.Configs[es.Device]); err != nil {
							t.Fatalf("%s: %s does not apply: %v", name, up.Desc, err)
						}
					}
				}
			}
		}
		check("after a full sweep")
	}
	if solved == 0 {
		t.Fatal("no (device, list) had a solution; the comparison is vacuous")
	}
}
