package topo

import (
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"net/netip"
	"slices"
	"testing"
)

// planDigest hashes every address and AS number a network's plan assigns:
// each node's name, kind, ASN, router ID, originated prefixes and interface
// addresses, and each link's ends, subnet and addresses, in declaration
// order.
func planDigest(n *Network) string {
	h := sha256.New()
	fmt.Fprintf(h, "network %s\n", n.Name)
	for _, nd := range n.Nodes() {
		fmt.Fprintf(h, "node %s %s %d %s %v\n", nd.Name, nd.Kind, nd.ASN, nd.RouterID, nd.Originates)
		ifaces := make([]string, 0, len(nd.Ifaces))
		for name := range nd.Ifaces { //acrvet:ordered — sorted below
			ifaces = append(ifaces, name)
		}
		slices.Sort(ifaces)
		for _, name := range ifaces {
			fmt.Fprintf(h, " iface %s %s\n", name, nd.Ifaces[name])
		}
	}
	for _, l := range n.Links {
		fmt.Fprintf(h, "link %s/%s %s/%s %s %s %s\n", l.A.Node, l.A.Iface, l.B.Node, l.B.Iface, l.Subnet, l.AddrA, l.AddrB)
	}
	return hex.EncodeToString(h.Sum(nil))
}

// TestFatTreePlansPinned pins the address and AS plans of every fat-tree
// that built before the rack prefixes ran past 10.255.0.0/16 (k ≤ 22):
// widening the plan changed none of their bytes.
func TestFatTreePlansPinned(t *testing.T) {
	want := []string{
		4:  "f57bca95b5f80e0df0af03b2510844109249c63bcbd42877920f15ac1436cc59",
		6:  "c62343bf3dfdef6b01e19146d83bd0d46def5e3b0407b850380f81949a78141f",
		8:  "1b89daa840c787007057fa1c4103366d4ad078d8aa91ed721501e62f8cea3fbb",
		10: "38662c2d3c10970eb832139e421b99ad3d7e94a77468dc7223ae77b9a98419af",
		12: "16b691dbbbd722c7579168816c24d7cff7df0ef806f64d823076b709c6a8cce1",
		14: "4ca64b8c751be01029b60a96d18d04d64aabec454f7769bb995ba09d9bedb744",
		16: "eed0493a7e54ed48d5a791c273e429b6387551b978b78a4d5645aace7e5b7c1a",
		18: "4e69c7d7e3a49fc788b5f7c370c953fbbad45237e1e14aa0a9dda518f7285fbc",
		20: "a28e9af3de4ca21c9b6cb0e92c717389b5db6853c9b07447f38cd4597f2dbd35",
		22: "c3762492204a2ec749c43d12812f0ce33ca3c222ee9f9ef09509215bfb1456ae",
	}
	for k := 4; k <= 22; k += 2 {
		if got := planDigest(FatTree(FatTreeOpts{K: k})); got != want[k] {
			t.Errorf("fat-tree k=%d: plan digest %s, want %s", k, got, want[k])
		}
	}
}

// TestFatTreeBuildsToK40: a fat-tree up to k=40 (2,000 routers) builds
// and validates, with a distinct rack prefix per leaf and a distinct AS
// number per router.
func TestFatTreeBuildsToK40(t *testing.T) {
	for _, k := range []int{24, 32, 40} {
		n := FatTree(FatTreeOpts{K: k})
		if err := n.Validate(); err != nil {
			t.Fatalf("k=%d: %v", k, err)
		}
		if want := k*k/4 + k*k; n.NumNodes() != want {
			t.Fatalf("k=%d: %d routers, want %d", k, n.NumNodes(), want)
		}
		prefixes, asns := map[netip.Prefix]string{}, map[uint32]string{}
		for _, nd := range n.Nodes() {
			if other, ok := asns[nd.ASN]; ok {
				t.Fatalf("k=%d: %s and %s share AS %d", k, other, nd.Name, nd.ASN)
			}
			asns[nd.ASN] = nd.Name
			for _, p := range nd.Originates {
				if other, ok := prefixes[p]; ok {
					t.Fatalf("k=%d: %s and %s both originate %v", k, other, nd.Name, p)
				}
				prefixes[p] = nd.Name
			}
		}
		if want := k * k / 2; len(prefixes) != want {
			t.Fatalf("k=%d: %d rack prefixes, want %d", k, len(prefixes), want)
		}
	}
}
