package bgp

import (
	"fmt"
	"math/rand"
	"net/netip"
	"strings"
	"testing"
	"testing/quick"
)

func mkRoute(mod func(*Route)) *Route {
	r := &Route{
		Prefix:    netip.MustParsePrefix("10.0.0.0/16"),
		ASPath:    []uint32{1, 2},
		LocalPref: DefaultLocalPref,
		Src:       SrcPeer,
		ident: &ident{
			PeerAddr: netip.MustParseAddr("172.16.0.1"),
			PeerRID:  netip.MustParseAddr("1.0.0.9"),
			NextHop:  netip.MustParseAddr("172.16.0.1"),
		},
	}
	if mod != nil {
		mod(r)
	}
	return r
}

func TestBetterLocalPref(t *testing.T) {
	hi := mkRoute(func(r *Route) { r.LocalPref = 200; r.ASPath = []uint32{1, 2, 3} })
	lo := mkRoute(nil)
	if !Better(hi, lo) {
		t.Error("higher local-pref should win despite longer path")
	}
	if Better(lo, hi) {
		t.Error("Better is not antisymmetric")
	}
}

func TestBetterLocalOverLearned(t *testing.T) {
	local := mkRoute(func(r *Route) { r.Src = SrcLocal; r.ASPath = []uint32{7, 8} })
	learned := mkRoute(nil)
	if !Better(local, learned) {
		t.Error("local origination should beat learned route at equal local-pref")
	}
}

func TestBetterShorterPath(t *testing.T) {
	short := mkRoute(func(r *Route) { r.ASPath = []uint32{1} })
	long := mkRoute(nil)
	if !Better(short, long) {
		t.Error("shorter AS path should win")
	}
}

func TestBetterOriginAndMED(t *testing.T) {
	igp := mkRoute(func(r *Route) { r.Origin = OriginIGP })
	inc := mkRoute(func(r *Route) { r.Origin = OriginIncomplete })
	if !Better(igp, inc) {
		t.Error("IGP origin should beat incomplete")
	}
	lowMED := mkRoute(func(r *Route) { r.MED = 5 })
	hiMED := mkRoute(func(r *Route) { r.MED = 50 })
	if !Better(lowMED, hiMED) {
		t.Error("lower MED should win")
	}
}

func TestBetterRouterIDTieBreak(t *testing.T) {
	a := mkRoute(func(r *Route) { r.PeerRID = netip.MustParseAddr("1.0.0.1") })
	c := mkRoute(func(r *Route) { r.PeerRID = netip.MustParseAddr("1.0.0.3") })
	if !Better(a, c) {
		t.Error("lower peer router-id should win the tie")
	}
}

func TestBetterPeerAddrFinalTieBreak(t *testing.T) {
	a := mkRoute(func(r *Route) { r.PeerAddr = netip.MustParseAddr("172.16.0.1") })
	b := mkRoute(func(r *Route) { r.PeerAddr = netip.MustParseAddr("172.16.0.5") })
	if !Better(a, b) {
		t.Error("lower peer address should win the final tie")
	}
	if Better(b, a) {
		t.Error("tie break not antisymmetric")
	}
}

func TestBetterNil(t *testing.T) {
	r := mkRoute(nil)
	if !Better(r, nil) {
		t.Error("any route beats nil")
	}
	if Better(nil, r) {
		t.Error("nil never beats a route")
	}
}

func TestSelectBestDeterministic(t *testing.T) {
	rs := []*Route{
		mkRoute(func(r *Route) { r.ASPath = []uint32{1, 2, 3} }),
		mkRoute(func(r *Route) { r.ASPath = []uint32{9} }),
		mkRoute(nil),
	}
	want := rs[1]
	for i := 0; i < 10; i++ {
		rand.New(rand.NewSource(int64(i))).Shuffle(len(rs), func(a, b int) { rs[a], rs[b] = rs[b], rs[a] })
		if got := SelectBest(rs); got != want {
			t.Fatalf("SelectBest order-dependent: got %v", got.ASPath)
		}
	}
	if SelectBest(nil) != nil {
		t.Error("SelectBest(nil) should be nil")
	}
}

func TestHasAS(t *testing.T) {
	r := mkRoute(nil)
	if !r.HasAS(2) || r.HasAS(3) {
		t.Errorf("HasAS wrong for path %v", r.ASPath)
	}
}

func TestCloneIsolation(t *testing.T) {
	r := mkRoute(nil)
	c := r.clone()
	// Scalar fields are copied; the AS path is deliberately shared, and
	// every mutation site replaces the slice instead of writing through it
	// (policy overwrite/prepend and the export prepend all build fresh
	// slices), so replacement must leave the original untouched.
	c.ASPath = []uint32{99}
	c.LocalPref = 7
	if r.ASPath[0] != 1 || r.LocalPref != DefaultLocalPref {
		t.Error("clone shares state with original")
	}
}

func TestKeyDistinguishesFields(t *testing.T) {
	base := mkRoute(nil)
	variants := []*Route{
		mkRoute(func(r *Route) { r.ASPath = []uint32{1} }),
		mkRoute(func(r *Route) { r.LocalPref = 1 }),
		mkRoute(func(r *Route) { r.MED = 1 }),
		mkRoute(func(r *Route) { r.Origin = OriginIncomplete }),
		mkRoute(func(r *Route) { r.NextHop = netip.MustParseAddr("9.9.9.9") }),
		mkRoute(func(r *Route) { r.PeerAddr = netip.MustParseAddr("9.9.9.9") }),
		mkRoute(func(r *Route) { r.Src = SrcLocal }),
	}
	for i, v := range variants {
		if v.Key() == base.Key() {
			t.Errorf("variant %d has same Key as base: %s", i, v.Key())
		}
	}
}

// Property: Better is a strict weak ordering — irreflexive and
// antisymmetric on random routes.
func TestQuickBetterAntisymmetric(t *testing.T) {
	gen := func(rng *rand.Rand) *Route {
		return mkRoute(func(r *Route) {
			r.ASPath = make([]uint32, rng.Intn(4)+1)
			for i := range r.ASPath {
				r.ASPath[i] = uint32(rng.Intn(5) + 1)
			}
			r.LocalPref = uint32(rng.Intn(3)) * 100
			r.MED = uint32(rng.Intn(3))
			r.Origin = RouteOrigin(rng.Intn(2) * 2)
			if rng.Intn(4) == 0 {
				r.Src = SrcLocal
			}
			r.PeerRID = netip.AddrFrom4([4]byte{1, 0, 0, byte(rng.Intn(4) + 1)})
			r.PeerAddr = netip.AddrFrom4([4]byte{172, 16, 0, byte(rng.Intn(4) + 1)})
		})
	}
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		a, b := gen(rng), gen(rng)
		if Better(a, a) || Better(b, b) {
			return false
		}
		return !(Better(a, b) && Better(b, a))
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 500}); err != nil {
		t.Error(err)
	}
}

// Property: SelectBest returns a maximal element — nothing in the slice is
// Better than the selection.
func TestQuickSelectBestMaximal(t *testing.T) {
	f := func(seed int64, nRaw uint8) bool {
		rng := rand.New(rand.NewSource(seed))
		n := int(nRaw%6) + 1
		rs := make([]*Route, n)
		for i := range rs {
			rs[i] = mkRoute(func(r *Route) {
				r.ASPath = make([]uint32, rng.Intn(4)+1)
				for j := range r.ASPath {
					r.ASPath[j] = uint32(rng.Intn(5) + 1)
				}
				r.LocalPref = uint32(rng.Intn(3)) * 100
				r.PeerRID = netip.AddrFrom4([4]byte{1, 0, 0, byte(rng.Intn(100) + 1)})
				r.PeerAddr = netip.AddrFrom4([4]byte{172, 16, byte(i), 1})
			})
		}
		best := SelectBest(rs)
		for _, r := range rs {
			if Better(r, best) {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Error(err)
	}
}

// TestBuildKeyFormat pins Key's rendering, unset addresses included: an
// originated route has no next hop or peer, an exported one no peer, and
// both print as netip prints an unset address.
func TestBuildKeyFormat(t *testing.T) {
	for _, r := range []*Route{
		mkRoute(nil),
		mkRoute(func(r *Route) { r.NextHop, r.PeerAddr = netip.Addr{}, netip.Addr{} }),
		mkRoute(func(r *Route) { r.ASPath, r.Src, r.PeerAddr = nil, SrcLocal, netip.Addr{} }),
		mkRoute(func(r *Route) { r.Prefix = netip.Prefix{} }),
	} {
		path := make([]string, len(r.ASPath))
		for i, a := range r.ASPath {
			path[i] = fmt.Sprint(a)
		}
		want := fmt.Sprintf("%s|[%s]|lp%d|med%d|o%d|nh%s|s%d|p%s", r.Prefix, strings.Join(path, " "),
			r.LocalPref, r.MED, r.Origin, r.NextHop, r.Src, r.PeerAddr)
		if got := r.Key(); got != want {
			t.Errorf("Key = %q, want %q", got, want)
		}
	}
}
