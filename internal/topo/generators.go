package topo

import (
	"fmt"
	"net/netip"
)

// ridFor produces a deterministic router ID from an ordinal: 1.0.0.1,
// 1.0.0.2, ..., 1.0.1.0, ... The example network depends on A having the
// lowest router ID so that best-path ties break toward A (see the worked
// incident in the scenario package).
func ridFor(ordinal int) netip.Addr {
	ord := uint32(ordinal)
	return netip.AddrFrom4([4]byte{1, byte(ord >> 16), byte(ord >> 8), byte(ord)})
}

// ExampleGraph builds the structural part of the Figure 2 network: four
// backbone routers A, B, C, S; PoPs attached to A and B; a DCN attached to
// S. withSC controls whether the (initially absent) S–C session's link
// exists — the incident begins when it is added.
//
// Originated prefixes follow the paper: PoP-A originates 10.70.0.0/16,
// PoP-B originates 10.0.0.0/16 (the flapping prefix), and DCN-S originates
// 20.0.0.0/16.
func ExampleGraph(withSC bool) *Network {
	n := New("figure2")
	n.AddNode("A", Backbone, 65001, ridFor(1))
	n.AddNode("B", Backbone, 65002, ridFor(2))
	n.AddNode("C", Backbone, 65003, ridFor(3))
	n.AddNode("S", Backbone, 65004, ridFor(4))
	popA := n.AddNode("PoP-A", PoP, 64601, ridFor(5))
	popA.Originates = []netip.Prefix{netip.MustParsePrefix("10.70.0.0/16")}
	popB := n.AddNode("PoP-B", PoP, 64602, ridFor(6))
	popB.Originates = []netip.Prefix{netip.MustParsePrefix("10.0.0.0/16")}
	dcnS := n.AddNode("DCN-S", DCN, 64701, ridFor(7))
	dcnS.Originates = []netip.Prefix{netip.MustParsePrefix("20.0.0.0/16")}

	n.Connect("A", "B")
	n.Connect("B", "C")
	n.Connect("A", "S")
	if withSC {
		n.Connect("C", "S")
	}
	n.Connect("PoP-A", "A")
	n.Connect("PoP-B", "B")
	n.Connect("DCN-S", "S")
	return n
}

// FatTreeOpts parameterizes FatTree.
type FatTreeOpts struct {
	// K is the fat-tree arity; must be even and >= 2. The graph has
	// (K/2)^2 cores, K pods with K/2 spines and K/2 leaves each.
	K int
	// RackPrefixBase is the first /16 used for leaf rack prefixes; leaf i
	// originates the (base+i)-th /16 counted from 10.0.0.0/16, which is
	// 10.(base+i).0.0/16 below 256 and runs on into 11.0.0.0/16 and up.
	// Default base 0.
	RackPrefixBase int
}

// FatTree builds a K-ary fat-tree graph with leaf nodes originating one /16
// each. ASNs: cores 65000+, spines 64000+, leaves 63000+ (eBGP everywhere,
// as in large DCNs).
func FatTree(opts FatTreeOpts) *Network {
	k := opts.K
	if k < 2 || k%2 != 0 {
		panic(fmt.Sprintf("topo: fat-tree K must be even and >= 2, got %d", k))
	}
	n := New(fmt.Sprintf("fattree-k%d", k))
	half := k / 2
	ord := 1
	// Core layer: half*half nodes.
	cores := make([]string, 0, half*half)
	for i := 0; i < half*half; i++ {
		name := fmt.Sprintf("core%d", i)
		n.AddNode(name, Core, uint32(65000+i), ridFor(ord))
		ord++
		cores = append(cores, name)
	}
	leafIdx := 0
	for pod := 0; pod < k; pod++ {
		spines := make([]string, 0, half)
		for s := 0; s < half; s++ {
			name := fmt.Sprintf("spine%d-%d", pod, s)
			n.AddNode(name, Spine, uint32(64000+pod*half+s), ridFor(ord))
			ord++
			spines = append(spines, name)
		}
		for l := 0; l < half; l++ {
			name := fmt.Sprintf("leaf%d-%d", pod, l)
			leaf := n.AddNode(name, Leaf, uint32(63000+pod*half+l), ridFor(ord))
			ord++
			rack := opts.RackPrefixBase + leafIdx
			leaf.Originates = []netip.Prefix{netip.PrefixFrom(
				netip.AddrFrom4([4]byte{byte(10 + rack>>8), byte(rack), 0, 0}), 16)}
			leafIdx++
			for _, s := range spines {
				n.Connect(name, s)
			}
		}
		// Spine s of every pod connects to cores [s*half, (s+1)*half).
		for s, spine := range spines {
			for c := 0; c < half; c++ {
				n.Connect(spine, cores[s*half+c])
			}
		}
	}
	return n
}

// BackboneOpts parameterizes Backbone.
type BackboneOpts struct {
	// Routers is the number of backbone routers, connected in a ring plus
	// chords every Chord hops (Chord 0 disables chords).
	Routers int
	Chord   int
	// PoPs is the number of PoP stubs, attached round-robin to backbone
	// routers; each originates 10.(100+i).0.0/16.
	PoPs int
	// DCNs is the number of DCN stubs, attached round-robin (offset) to
	// backbone routers; each originates 20.(i).0.0/16.
	DCNs int
}

// BackboneMesh builds a wide-area backbone: a ring of routers with optional
// chords, and PoP/DCN stubs hanging off them. This mirrors the paper's
// setting (backbone routers interconnecting PoPs and DCNs).
func BackboneMesh(opts BackboneOpts) *Network {
	if opts.Routers < 3 {
		panic("topo: backbone needs at least 3 routers")
	}
	n := New(fmt.Sprintf("backbone-%d", opts.Routers))
	ord := 1
	names := make([]string, opts.Routers)
	for i := 0; i < opts.Routers; i++ {
		names[i] = fmt.Sprintf("bb%d", i)
		n.AddNode(names[i], Backbone, uint32(65001+i), ridFor(ord))
		ord++
	}
	for i := 0; i < opts.Routers; i++ {
		n.Connect(names[i], names[(i+1)%opts.Routers])
	}
	if opts.Chord > 1 {
		for i := 0; i < opts.Routers; i += opts.Chord {
			j := (i + opts.Routers/2) % opts.Routers
			if j != i && j != (i+1)%opts.Routers && i != (j+1)%opts.Routers {
				n.Connect(names[i], names[j])
			}
		}
	}
	for i := 0; i < opts.PoPs; i++ {
		name := fmt.Sprintf("pop%d", i)
		p := n.AddNode(name, PoP, uint32(64600+i), ridFor(ord))
		ord++
		p.Originates = []netip.Prefix{netip.MustParsePrefix(fmt.Sprintf("10.%d.0.0/16", 100+i))}
		n.Connect(name, names[i%opts.Routers])
	}
	for i := 0; i < opts.DCNs; i++ {
		name := fmt.Sprintf("dcn%d", i)
		d := n.AddNode(name, DCN, uint32(64700+i), ridFor(ord))
		ord++
		d.Originates = []netip.Prefix{netip.MustParsePrefix(fmt.Sprintf("20.%d.0.0/16", i))}
		n.Connect(name, names[(i+opts.Routers/2)%opts.Routers])
	}
	return n
}
