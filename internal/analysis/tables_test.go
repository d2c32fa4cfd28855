package analysis_test

import (
	"fmt"
	"net/netip"
	"reflect"
	"sort"
	"testing"

	"acr/internal/analysis"
	"acr/internal/bgp"
	"acr/internal/incidents"
	"acr/internal/netcfg"
	"acr/internal/scenario"
	"acr/internal/topo"
)

// The tests in this file hold the network-wide tables the analysis builds
// once per base to the per-element definitions they replace.

// twoComponents is a network of two components, X1–Y1 and X2–Y2, where Y2
// originates 10.9.0.0/16 and X1 originates 10.8.0.0/16.
func twoComponents() (*topo.Network, map[string]*netcfg.Config) {
	nw := topo.New("split")
	nw.AddNode("X1", topo.Backbone, 65001, netip.MustParseAddr("1.0.0.1")).Originates = []netip.Prefix{netip.MustParsePrefix("10.8.0.0/16")}
	nw.AddNode("Y1", topo.Backbone, 65002, netip.MustParseAddr("1.0.0.2"))
	nw.AddNode("X2", topo.Backbone, 65003, netip.MustParseAddr("1.0.0.3"))
	nw.AddNode("Y2", topo.Backbone, 65004, netip.MustParseAddr("1.0.0.4")).Originates = []netip.Prefix{netip.MustParsePrefix("10.9.0.0/16")}
	nw.Connect("X1", "Y1")
	nw.Connect("X2", "Y2")
	return nw, map[string]*netcfg.Config{
		"X1": netcfg.NewConfig("X1", "bgp 65001\n peer 172.16.0.2 as-number 65002\n network 10.8.0.0/16\n"),
		"Y1": netcfg.NewConfig("Y1", "bgp 65002\n peer 172.16.0.1 as-number 65001\n"),
		"X2": netcfg.NewConfig("X2", "bgp 65003\n peer 172.16.0.6 as-number 65004\n"),
		"Y2": netcfg.NewConfig("Y2", "bgp 65004\n peer 172.16.0.5 as-number 65003\n network 10.9.0.0/16\n"),
	}
}

// TestComponentPrefixesMatchDefinition: the analyzer computes one prefix set
// per connected component and lets the component's devices share it. Each
// device's set must equal the per-device definition: a universe prefix is
// in scope when it has no known origin or one of its origins is in the
// device's component (DeviceGraph.SameComponent). On the two-component
// network the universe also gets a prefix with no origin and one whose
// origin is outside the graph, both in scope everywhere.
func TestComponentPrefixesMatchDefinition(t *testing.T) {
	type tc struct {
		name    string
		nw      *topo.Network
		configs map[string]*netcfg.Config
		extra   map[netip.Prefix][]string // universe prefixes added by hand
	}
	fig2, wan, dcn := scenario.Figure2(), scenario.WAN(6, 4, 3, scenario.GenOptions{}), scenario.DCN(6, scenario.GenOptions{})
	split, splitConfigs := twoComponents()
	cases := []tc{
		{name: "fat-tree k=6", nw: dcn.Topo, configs: dcn.Configs},
		{name: "WAN", nw: wan.Topo, configs: wan.Configs},
		{name: "figure2", nw: fig2.Topo, configs: fig2.Configs},
		{name: "two components", nw: split, configs: splitConfigs, extra: map[netip.Prefix][]string{
			netip.MustParsePrefix("10.10.0.0/16"): nil,
			netip.MustParsePrefix("10.11.0.0/16"): {"ghost"},
		}},
	}
	for _, c := range cases {
		files := map[string]*netcfg.File{}
		for d, cfg := range c.configs {
			files[d], _ = netcfg.Parse(cfg)
		}
		n := bgp.Compile(c.nw, files)
		graph := bgp.DeviceGraphOf(n)
		universe := append([]netip.Prefix(nil), n.AllPrefixes()...)
		origins := map[netip.Prefix][]string{}
		for _, name := range n.Order {
			for _, o := range n.Routers[name].Origins {
				origins[o.Prefix] = append(origins[o.Prefix], name)
			}
		}
		for p, devs := range c.extra {
			universe = append(universe, p)
			if devs != nil {
				origins[p] = devs
			}
		}
		if c.extra != nil && graph.NumComponents() != 2 {
			t.Fatalf("%s: %d components, want 2", c.name, graph.NumComponents())
		}
		a := analysis.NewImpactAnalyzer(files, universe, origins, graph)
		for _, dev := range graph.Devices() {
			want := map[netip.Prefix]bool{}
			for _, p := range universe {
				devs := origins[p]
				if len(devs) == 0 {
					want[p] = true
					continue
				}
				for _, d := range devs {
					if graph.SameComponent(dev, d) {
						want[p] = true
						break
					}
				}
			}
			got := a.ComponentPrefixes(dev)
			if !reflect.DeepEqual(got, want) {
				t.Fatalf("%s: %s's component prefixes are %v, the definition gives %v", c.name, dev, sortedPrefixes(got), sortedPrefixes(want))
			}
		}
		t.Logf("%s: %d devices in %d components, %d universe prefixes", c.name, len(graph.Devices()), graph.NumComponents(), len(universe))
	}
}

func sortedPrefixes(m map[netip.Prefix]bool) []netip.Prefix {
	out := make([]netip.Prefix, 0, len(m))
	for p := range m {
		out = append(out, p)
	}
	sort.Slice(out, func(i, j int) bool { return netcfg.PrefixLess(out[i], out[j]) })
	return out
}

// missingPeerGroupQuadratic is MissingPeerGroup's definition: for each
// ungrouped observation, count the grouped and ungrouped observations of
// the same kind pair on other devices by scanning them all.
var missingPeerGroupQuadratic = &analysis.Analyzer{
	Name:  analysis.MissingPeerGroup.Name,
	Class: analysis.MissingPeerGroup.Class,
	Run: func(p *analysis.Pass) {
		if p.Topo == nil {
			return
		}
		type obs struct {
			device  string
			peer    *netcfg.Peer
			grouped bool
		}
		type kinds struct{ local, remote topo.Kind }
		byKinds := map[kinds][]obs{}
		var keys []kinds
		for _, dev := range p.Devices() {
			f := p.File(dev)
			lk, ok := p.NodeKind(dev)
			if f == nil || f.BGP == nil || !ok {
				continue
			}
			for _, pe := range f.BGP.Peers {
				other := p.PeerNodeOf(dev, pe)
				if other == "" {
					continue
				}
				rk, ok := p.NodeKind(other)
				if !ok {
					continue
				}
				k := kinds{lk, rk}
				if byKinds[k] == nil {
					keys = append(keys, k)
				}
				byKinds[k] = append(byKinds[k], obs{dev, pe, pe.Group != ""})
			}
		}
		sort.Slice(keys, func(i, j int) bool {
			if keys[i].local != keys[j].local {
				return keys[i].local < keys[j].local
			}
			return keys[i].remote < keys[j].remote
		})
		for _, k := range keys {
			all := byKinds[k]
			for _, o := range all {
				if o.grouped || o.peer.ASNLine <= 0 {
					continue
				}
				grouped, ungrouped := 0, 0
				for _, w := range all {
					switch {
					case w.device == o.device:
					case w.grouped:
						grouped++
					default:
						ungrouped++
					}
				}
				if grouped >= 2 && ungrouped == 0 {
					p.Report(analysis.Diagnostic{
						Line:     netcfg.LineRef{Device: o.device, Line: o.peer.ASNLine},
						Severity: analysis.Warning,
						Message: fmt.Sprintf("peer %s is not in a peer group, but all %d comparable sessions on other devices are",
							o.peer.Addr, grouped),
					})
				}
			}
		}
	},
}

// TestMissingPeerGroupMatchesQuadratic: MissingPeerGroup counts each kind
// pair's grouped and ungrouped observations once, network-wide and per
// device, and subtracts. Its diagnostics must equal, byte for byte, those
// of the definition that rescans the kind pair for every observation, on
// Figure 2 (the golden lint case), on every incident of the seed-1 corpus,
// and on two WANs with any one peer-group membership deleted: on the 3x6x2
// WAN a backbone router faces two PoPs, so the deletion leaves it a grouped
// and an ungrouped peer of one kind.
func TestMissingPeerGroupMatchesQuadratic(t *testing.T) {
	type tc struct {
		name    string
		nw      *topo.Network
		configs map[string]*netcfg.Config
	}
	fig2 := scenario.Figure2()
	cases := []tc{{"figure2", fig2.Topo, fig2.Configs}}
	incs, err := incidents.GenerateCorpus(incidents.CorpusOptions{Size: 120, Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	for _, inc := range incs {
		cases = append(cases, tc{inc.ID, inc.Scenario.Topo, inc.Scenario.Configs})
	}
	for _, s := range []*scenario.Scenario{scenario.WAN(6, 4, 3, scenario.GenOptions{}), scenario.WAN(3, 6, 2, scenario.GenOptions{})} {
		for _, nd := range s.Topo.Nodes() {
			f, _ := netcfg.Parse(s.Configs[nd.Name])
			if f.BGP == nil {
				continue
			}
			for _, pe := range f.BGP.Peers {
				if pe.GroupLine <= 0 {
					continue
				}
				edited, err := netcfg.EditSet{Device: nd.Name, Edits: []netcfg.Edit{netcfg.DeleteLine{At: pe.GroupLine}}}.Apply(s.Configs[nd.Name])
				if err != nil {
					t.Fatal(err)
				}
				configs := map[string]*netcfg.Config{}
				for d, c := range s.Configs {
					configs[d] = c
				}
				configs[nd.Name] = edited
				cases = append(cases, tc{fmt.Sprintf("%s without %s:%d", s.Name, nd.Name, pe.GroupLine), s.Topo, configs})
			}
		}
	}
	found := 0
	for _, c := range cases {
		got := analysis.Analyze(c.nw, c.configs, []*analysis.Analyzer{analysis.MissingPeerGroup})
		want := analysis.Analyze(c.nw, c.configs, []*analysis.Analyzer{missingPeerGroupQuadratic})
		if !reflect.DeepEqual(got.Diagnostics, want.Diagnostics) {
			t.Fatalf("%s: diagnostics\n  %v\ndefinition\n  %v", c.name, got.Diagnostics, want.Diagnostics)
		}
		found += len(got.Diagnostics)
	}
	t.Logf("%d cases, %d missing-peer-group diagnostics equal to the definition's", len(cases), found)
	if found == 0 {
		t.Error("no case has a missing-peer-group finding; the comparison is vacuous")
	}
}
