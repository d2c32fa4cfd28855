// Package scenario assembles complete, verifiable network cases: a
// topology, one configuration per device, and an intent specification.
// It provides the paper's Figure 2 incident with line-accurate
// configurations (the worked example of §2.2/§5), and generators for
// correct fat-tree DCN and WAN scenarios that the incident corpus injects
// the nine Table 1 error classes into.
package scenario

import (
	"fmt"
	"net/netip"
	"sort"

	"acr/internal/netcfg"
	"acr/internal/topo"
	"acr/internal/verify"
)

// BuiltinNames lists the built-in cases Builtin generates.
const BuiltinNames = "figure2, figure2-repaired, dcn4, wan"

// Builtin generates a built-in case by name: the cases `acr -builtin` and
// the service's builtin jobs run. Generation is deterministic, so a job
// rerun after a reboot rebuilds the byte-identical problem (the journal's
// case digest checks this).
func Builtin(name string) (*Scenario, error) {
	switch name {
	case "figure2":
		return Figure2(), nil
	case "figure2-repaired":
		return Figure2Correct(), nil
	case "dcn4":
		return DCN(4, GenOptions{WithScrubber: true, StaticOriginEvery: 2}), nil
	case "wan":
		return WAN(6, 4, 3, GenOptions{StaticOriginEvery: 2}), nil
	}
	return nil, fmt.Errorf("unknown builtin case %q (valid: %s)", name, BuiltinNames)
}

// Scenario is one complete case.
type Scenario struct {
	Name    string
	Topo    *topo.Network
	Configs map[string]*netcfg.Config
	Intents []verify.Intent
	// FaultyLines is ground truth for localization metrics: the lines an
	// operator would identify as the root cause. Empty for correct
	// scenarios.
	FaultyLines []netcfg.LineRef
	// Notes documents the case for reports.
	Notes string
}

// Files parses every configuration (panicking on malformed generated
// configs — generators must produce well-formed text).
func (s *Scenario) Files() map[string]*netcfg.File {
	out := make(map[string]*netcfg.File, len(s.Configs))
	for d, c := range s.Configs {
		out[d] = netcfg.MustParse(c)
	}
	return out
}

// Clone deep-copies the scenario (configs are immutable and shared; the
// maps and slices are fresh).
func (s *Scenario) Clone() *Scenario {
	cp := *s
	cp.Configs = make(map[string]*netcfg.Config, len(s.Configs))
	for d, c := range s.Configs {
		cp.Configs[d] = c
	}
	cp.Intents = append([]verify.Intent(nil), s.Intents...)
	cp.FaultyLines = append([]netcfg.LineRef(nil), s.FaultyLines...)
	return &cp
}

// TotalConfigLines sums configuration sizes — the denominator in search
// space comparisons.
func (s *Scenario) TotalConfigLines() int {
	n := 0
	for _, c := range s.Configs {
		n += c.NumLines()
	}
	return n
}

// adjacencyAddr returns the address of `peer` on its link with `router`.
func adjacencyAddr(t *topo.Network, router, peer string) netip.Addr {
	for _, adj := range t.Adjacencies(router) {
		if adj.PeerNode == peer {
			return adj.PeerAddr
		}
	}
	panic(fmt.Sprintf("scenario: no adjacency %s-%s", router, peer))
}

// emitInterfaces appends interface blocks for every assigned interface, in
// name order, optionally applying PBR policies per interface.
func emitInterfaces(b *netcfg.Builder, nd *topo.Node, pbr map[string]string) {
	names := make([]string, 0, len(nd.Ifaces))
	for n := range nd.Ifaces {
		names = append(names, n)
	}
	sort.Strings(names)
	for _, n := range names {
		ib := b.Interface(n).Address(nd.Ifaces[n])
		if pol := pbr[n]; pol != "" {
			ib.PBR(pol)
		}
		ib.End()
	}
}

// stubConfig builds the standard configuration of a single-homed stub
// (PoP, DCN, leaf-like) router: session to its attachment router plus
// origination of its prefixes. originStatic selects the
// static+redistribute origination style instead of network statements —
// the style whose missing `redistribute static` line is the paper's most
// common misconfiguration.
func stubConfig(t *topo.Network, name string, originStatic bool) *netcfg.Config {
	nd := t.Node(name)
	b := netcfg.NewBuilder(name)
	g := b.BGP(nd.ASN).RouterID(nd.RouterID)
	for _, adj := range t.Adjacencies(name) {
		g.Peer(adj.PeerAddr, t.Node(adj.PeerNode).ASN)
	}
	if originStatic {
		g.RedistributeStatic("")
	} else {
		for _, p := range nd.Originates {
			g.Network(p)
		}
	}
	b = g.End()
	if originStatic {
		for _, p := range nd.Originates {
			b.StaticNull(p)
		}
	}
	emitInterfaces(b, nd, nil)
	return b.Build()
}
