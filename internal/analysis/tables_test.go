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

// TestComponentPrefixesMatchDefinition: the influence graph and the
// per-component prefix sets the analyzer builds from it must equal their
// definitions over topo.Adjacencies. A device's component is what a
// breadth-first search over adjacencies reaches from it; a device is
// transit when it has at least two distinct adjacent nodes; and a universe
// prefix is in a device's set when it has no known origin or one of its
// origins is in the device's component or outside the network. On the
// two-component network the universe also gets a prefix with no origin and
// one whose origin is outside the network, both in scope everywhere.
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
		graph := topo.NewInfluenceGraph(c.nw)
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
		if _, ok := graph.Component("ghost"); ok || !graph.Transit("ghost") {
			t.Fatalf("%s: a device outside the network must have no component and be transit", c.name)
		}
		a := analysis.NewImpactAnalyzer(files, universe, origins, graph)
		comps, leaves := 0, 0
		for i, nd := range c.nw.Nodes() {
			dev := nd.Name
			comp := componentOf(c.nw, dev)
			id, ok := graph.Component(dev)
			if !ok || id < 0 || id >= graph.NumComponents() {
				t.Fatalf("%s: %s has component %d (ok=%v) of %d", c.name, dev, id, ok, graph.NumComponents())
			}
			first := true
			for j, other := range c.nw.Nodes() {
				oid, _ := graph.Component(other.Name)
				if (oid == id) != comp[other.Name] {
					t.Fatalf("%s: %s and %s share a component in the graph: %v, by search: %v", c.name, dev, other.Name, oid == id, comp[other.Name])
				}
				first = first && (j >= i || !comp[other.Name])
			}
			if first {
				comps++
			}
			peers := map[string]bool{}
			for _, adj := range c.nw.Adjacencies(dev) {
				if adj.PeerNode != dev {
					peers[adj.PeerNode] = true
				}
			}
			if got, want := graph.Transit(dev), len(peers) >= 2; got != want {
				t.Fatalf("%s: Transit(%s) = %v, %s has %d distinct neighbours", c.name, dev, got, dev, len(peers))
			}
			if len(peers) < 2 {
				leaves++
			}
			want := map[netip.Prefix]bool{}
			for _, p := range universe {
				devs := origins[p]
				if len(devs) == 0 {
					want[p] = true
					continue
				}
				for _, d := range devs {
					if comp[d] || c.nw.Node(d) == nil {
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
		if graph.NumComponents() != comps {
			t.Fatalf("%s: %d components, search finds %d", c.name, graph.NumComponents(), comps)
		}
		if c.extra != nil && comps != 2 {
			t.Fatalf("%s: %d components, want 2", c.name, comps)
		}
		t.Logf("%s: %d devices (%d leaves) in %d components, %d universe prefixes", c.name, c.nw.NumNodes(), leaves, comps, len(universe))
	}
}

// componentOf is the set of devices a breadth-first search over nw's
// adjacencies reaches from dev, dev included.
func componentOf(nw *topo.Network, dev string) map[string]bool {
	seen := map[string]bool{dev: true}
	for queue := []string{dev}; len(queue) > 0; queue = queue[1:] {
		for _, adj := range nw.Adjacencies(queue[0]) {
			if !seen[adj.PeerNode] {
				seen[adj.PeerNode] = true
				queue = append(queue, adj.PeerNode)
			}
		}
	}
	return seen
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
