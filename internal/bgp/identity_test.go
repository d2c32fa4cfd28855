package bgp

import (
	"math/rand"
	"net/netip"
	"reflect"
	"slices"
	"testing"

	"acr/internal/netcfg"
)

// randomIdentityRoute draws every field from a pool small enough that two
// draws often agree, with the awkward values in it: a nil and an empty AS
// path, unset addresses, the zero prefix, and 4-in-6 twins of IPv4 values.
func randomIdentityRoute(rng *rand.Rand) *Route {
	addrs := []netip.Addr{
		{},
		netip.MustParseAddr("172.16.0.1"),
		netip.MustParseAddr("::ffff:172.16.0.1"),
		netip.MustParseAddr("172.16.0.2"),
		netip.MustParseAddr("::"),
		netip.MustParseAddr("0.0.0.0"),
	}
	prefixes := []netip.Prefix{
		{},
		netip.MustParsePrefix("10.0.0.0/16"),
		netip.MustParsePrefix("10.0.0.0/17"),
		netip.MustParsePrefix("::ffff:10.0.0.0/112"),
		netip.MustParsePrefix("0.0.0.0/0"),
		netip.MustParsePrefix("::/0"),
	}
	paths := [][]uint32{nil, {}, {1}, {1, 2}, {2, 1}, {12}, {1, 2, 3}}
	pick := func() netip.Addr { return addrs[rng.Intn(len(addrs))] }
	return &Route{
		Prefix:    prefixes[rng.Intn(len(prefixes))],
		ASPath:    paths[rng.Intn(len(paths))],
		LocalPref: uint32(rng.Intn(2)) * 100,
		MED:       uint32(rng.Intn(2)),
		Origin:    RouteOrigin(rng.Intn(2) * 2),
		Src:       SourceKind(rng.Intn(2)),
		ident:     &ident{NextHop: pick(), PeerAddr: pick(), PeerRID: pick()},
	}
}

// detached returns a copy of r with an ident of its own, which the caller
// may write through: a route shares its ident with its source's routes.
func detached(r *Route) *Route {
	cp, id := *r, *r.ident
	cp.ident = &id
	return &cp
}

// TestSameRouteMatchesKey is the property the value identity rests on:
// apart from PeerRID, which Key omits, two routes are the same exactly
// when they render the same key.
func TestSameRouteMatchesKey(t *testing.T) {
	rng := rand.New(rand.NewSource(16))
	equal := 0
	for i := 0; i < 20000; i++ {
		a, b := randomIdentityRoute(rng), randomIdentityRoute(rng)
		if rng.Intn(2) == 0 { // a near twin: a with one field of b
			twin := detached(a)
			switch rng.Intn(8) {
			case 0:
				twin.Prefix = b.Prefix
			case 1:
				twin.ASPath = b.ASPath
			case 2:
				twin.LocalPref = b.LocalPref
			case 3:
				twin.MED = b.MED
			case 4:
				twin.Origin = b.Origin
			case 5:
				twin.NextHop = b.NextHop
			case 6:
				twin.Src = b.Src
			case 7:
				twin.PeerAddr = b.PeerAddr
			}
			twin.PeerRID = b.PeerRID
			b = twin
		}
		sameRID := detached(b)
		sameRID.PeerRID = a.PeerRID
		keys := a.Key() == b.Key()
		if got := sameRoute(a, sameRID); got != keys {
			t.Fatalf("sameRoute = %v but keys equal = %v:\n a %+v\n b %+v", got, keys, a, sameRID)
		}
		if want := keys && a.PeerRID == b.PeerRID; sameRoute(a, b) != want || sameRoute(b, a) != want {
			t.Fatalf("sameRoute = %v, want %v with the router IDs compared:\n a %+v\n b %+v", !want, want, a, b)
		}
		if keys {
			equal++
		}
	}
	if equal < 500 {
		t.Errorf("only %d of 20000 pairs were equal; the property is barely exercised", equal)
	}
	r := mkRoute(nil)
	if !sameRoute(nil, nil) || sameRoute(r, nil) || sameRoute(nil, r) || !sameRoute(r, r) {
		t.Error("sameRoute mishandles nil or identical pointers")
	}
}

// TestStateHashCoversRouteFields flips every compared field of every best
// and adj-in route of a mid-run state, one at a time: each flip must move
// the digest recomputed over the slots and restoring it must bring the
// digest back, and so must withdrawing the route from its slot. A best is
// flipped on the route it resolves to, so restoring it also checks that a
// best held with its session digests as its resolved copy. Value-equal
// copies in every slot must not move the digest. The unset address, ::,
// ::80, an IPv4 address and its 4-in-6 twin must all digest apart in every
// address field.
func TestStateHashCoversRouteFields(t *testing.T) {
	n, _, _ := overrideGadget(t)
	p := netip.MustParsePrefix("10.0.0.0/16")
	st := newPrefixState(n)
	for pass := 0; pass < 3; pass++ {
		for _, r := range n.routers {
			n.activate(st, r, p, false, nil)
		}
	}
	base := st.rehash(n)
	if st.h != base {
		t.Fatalf("the kept digest %x is not the recomputed %x", st.h, base)
	}

	flips := map[string]func(*Route){
		"Prefix addr": func(r *Route) { r.Prefix = netip.PrefixFrom(r.Prefix.Addr().Next(), r.Prefix.Bits()) },
		"Prefix bits": func(r *Route) { r.Prefix = netip.PrefixFrom(r.Prefix.Addr(), r.Prefix.Bits()+1) },
		"Prefix 4in6": func(r *Route) {
			r.Prefix = netip.PrefixFrom(netip.AddrFrom16(r.Prefix.Addr().As16()), r.Prefix.Bits())
		},
		"ASPath append":  func(r *Route) { r.ASPath = append(append([]uint32{}, r.ASPath...), 7) },
		"ASPath element": func(r *Route) { r.ASPath = append([]uint32{r.ASPath[0] + 1}, r.ASPath[1:]...) },
		"LocalPref":      func(r *Route) { r.LocalPref++ },
		"MED":            func(r *Route) { r.MED++ },
		"LocalPref↔MED":  func(r *Route) { r.LocalPref, r.MED = r.MED, r.LocalPref },
		"Origin":         func(r *Route) { r.Origin ^= OriginIncomplete },
		"Src":            func(r *Route) { r.Src ^= SrcPeer },
		"NextHop":        func(r *Route) { r.NextHop = r.NextHop.Next() },
		"NextHop 4in6":   func(r *Route) { r.NextHop = netip.AddrFrom16(r.NextHop.As16()) },
		"NextHop unset":  func(r *Route) { r.NextHop = netip.Addr{} },
		"PeerAddr":       func(r *Route) { r.PeerAddr = r.PeerAddr.Next() },
		"PeerRID":        func(r *Route) { r.PeerRID = r.PeerRID.Next() },
	}
	flipped := map[string]int{}
	check := func(where string, orig *Route, put func(*Route)) {
		for field, flip := range flips { //acrvet:ordered — independent subtests
			if field == "ASPath element" && len(orig.ASPath) == 0 {
				continue
			}
			cp := detached(orig)
			flip(cp)
			if sameRoute(cp, orig) {
				continue // e.g. the successor of an unset address is unset
			}
			flipped[field]++
			put(cp)
			if st.rehash(n) == base {
				t.Errorf("%s: flipping %s does not change the state hash", where, field)
			}
			put(orig)
			if st.rehash(n) != base {
				t.Fatalf("%s: restoring %s does not restore the state hash", where, field)
			}
		}
	}
	routes := 0
	for i, name := range n.Order {
		if best := st.best[i]; best.rt != nil {
			routes++
			check("best of "+name, best.resolve(nil), func(r *Route) { st.best[i] = held{rt: r} })
			st.best[i] = held{}
			if st.rehash(n) == base {
				t.Errorf("withdrawing the best of %s does not change the state hash", name)
			}
			st.best[i] = best
		}
		row := st.adj[i]
		for j, rt := range row {
			if rt == nil {
				continue
			}
			routes++
			from := n.routers[i].Sessions[j].PeerName
			check("adj-in of "+name+" from "+from, rt, func(r *Route) { row[j] = r })
			row[j] = nil
			if st.rehash(n) == base {
				t.Errorf("withdrawing %s's route from %s does not change the state hash", name, from)
			}
			row[j] = rt
		}
	}
	if routes < 8 {
		t.Fatalf("the state holds %d routes; the test is close to vacuous", routes)
	}
	for field := range flips { //acrvet:ordered — independent checks
		if flipped[field] < 4 {
			t.Errorf("%s was flipped on %d routes only", field, flipped[field])
		}
	}

	// Addresses an encoding could confuse: an IPv4 address is one word, the
	// others three, and folding the bit length (128) into the low half would
	// make ::80 the unset address's twin.
	setters := map[string]func(*Route, netip.Addr){
		"NextHop":  func(r *Route, a netip.Addr) { r.NextHop = a },
		"PeerAddr": func(r *Route, a netip.Addr) { r.PeerAddr = a },
		"PeerRID":  func(r *Route, a netip.Addr) { r.PeerRID = a },
	}
	pairs := [][2]netip.Addr{
		{{}, netip.MustParseAddr("::80")},
		{{}, netip.MustParseAddr("::")},
		{netip.MustParseAddr("1.2.3.4"), netip.MustParseAddr("::ffff:1.2.3.4")},
	}
	at := slices.IndexFunc(st.best, func(b held) bool { return b.rt != nil })
	orig := st.best[at]
	for field, set := range setters { //acrvet:ordered — independent checks
		for _, pair := range pairs {
			var digests [2]uint64
			for k, a := range pair {
				cp := detached(orig.resolve(nil))
				set(cp, a)
				st.best[at] = held{rt: cp}
				digests[k] = st.rehash(n)
			}
			if digests[0] == digests[1] {
				t.Errorf("%s %v and %v digest alike", field, pair[0], pair[1])
			}
		}
	}
	st.best[at] = orig

	// Replace every best and adj-in route with a value-equal copy, in a
	// fresh row: same state, same hash.
	for i, row := range st.adj {
		if st.best[i].rt != nil {
			st.best[i] = held{rt: detached(st.best[i].resolve(nil))}
		}
		if len(row) != len(n.routers[i].Sessions) {
			t.Fatalf("%s has %d adj-in slots for %d sessions", n.Order[i], len(row), len(n.routers[i].Sessions))
		}
		refilled := make([]*Route, len(row))
		for j := len(row) - 1; j >= 0; j-- {
			if row[j] != nil {
				refilled[j] = row[j].clone()
			}
		}
		st.adj[i] = refilled
	}
	if st.rehash(n) != base {
		t.Error("value-equal copies of the state's routes change the state hash")
	}
}

// TestPolicyPipelineNeverMutatesInput replaces the tests of the memoized
// key: with routes compared by value and shared across versions, the one
// thing a hop must never do is write through the sender's route. Every
// session of a net whose policies overwrite, prepend and set attributes in
// both directions is driven export→import, traced and untraced, through one
// arena, and the sender's route is compared field by field,
// AS-path backing included, before and after. processImport finishes the
// export's fresh copy in place but must leave that copy's AS-path backing
// alone: the replay keeps the advertisement for a rejection node from a
// shallow clone. Every exported path's len is its cap, and no route the
// arena handed out changes as it hands out more.
func TestPolicyPipelineNeverMutatesInput(t *testing.T) {
	net := chainNet()
	tb := newTestNet(net)
	all := netip.MustParsePrefix("0.0.0.0/0")
	tb.bgp("X").PeerPolicy(tb.peerAddr("X", "O"), "in_overwrite", netcfg.Import)
	tb.bgp("X").PeerPolicy(tb.peerAddr("X", "Y"), "out_prepend", netcfg.Export)
	tb.builder("X").
		RoutePolicy("in_overwrite", true, 10).MatchIPPrefix("all").ApplyASPathOverwrite(65001).ApplyLocalPref(300).End().
		RoutePolicy("out_prepend", true, 10).MatchIPPrefix("all").ApplyASPathPrepend(65001, 2).ApplyMED(9).End().
		PrefixListEntry("all", 10, true, all, 0, 32)
	tb.bgp("Y").PeerPolicy(tb.peerAddr("Y", "X"), "in_prepend", netcfg.Import)
	tb.builder("Y").
		RoutePolicy("in_prepend", true, 10).ApplyASPathPrepend(64999, 1).End()
	n := tb.compile(t)
	p := netip.MustParsePrefix("10.0.0.0/16")
	po := Simulate(n, Options{}).ByPrefix[p]
	if !po.Converged || po.Final["Y"] == nil {
		t.Fatalf("the chain did not converge with a route at Y: %+v", po)
	}
	if got := po.Final["Y"].ASPath; !slices.Equal(got, []uint32{64999, 65001, 65001, 65001, 65001}) {
		t.Fatalf("Y's path = %v; the policies under test did not run", got)
	}

	type frozen struct {
		route Route
		path  []uint32
	}
	freeze := func(r *Route) frozen { return frozen{*r, append([]uint32(nil), r.ASPath...)} }
	unchanged := func(what string, r *Route, was frozen) {
		t.Helper()
		if !reflect.DeepEqual(*r, was.route) || !reflect.DeepEqual(append([]uint32(nil), r.ASPath...), was.path) {
			t.Errorf("%s mutated its input: %+v, was %+v (path %v)", what, *r, was.route, was.path)
		}
	}
	hops := 0
	var carried []*Route // every route an arena hop handed out
	var carriedWas []frozen
	mem := new(arena)
	for _, traced := range []bool{false, true} {
		for _, name := range n.Order {
			r := n.Routers[name]
			best := po.Final[name]
			for _, s := range r.Sessions {
				var tr *lineRefs
				if traced {
					tr = &lineRefs{}
				}
				was := freeze(best)
				adv, ok := processExport(r, s, best, tr, mem)
				unchanged("processExport at "+name, best, was)
				if !ok {
					continue
				}
				if adv == best {
					t.Fatalf("processExport at %s returned its input", name)
				}
				sent := adv.ASPath
				if len(sent) != cap(sent) {
					t.Errorf("processExport at %s made a path of len %d and cap %d", name, len(sent), cap(sent))
				}
				sentWas := append([]uint32(nil), sent...)
				in, ok := processImport(n.Routers[s.PeerName], s.reverse, adv, tr)
				unchanged("the hop from "+name+" to "+s.PeerName, best, was)
				if !slices.Equal(sent, sentWas) {
					t.Errorf("processImport at %s wrote through the advertisement's AS path: %v, was %v", s.PeerName, sent, sentWas)
				}
				if ok && in == best {
					t.Fatalf("the hop from %s returned its input", name)
				}
				if ok {
					carried, carriedWas = append(carried, in), append(carriedWas, freeze(in))
				}
				hops++
			}
		}
	}
	if hops < 8 || len(carried) < 4 {
		t.Fatalf("only %d hops driven, %d carried through an arena", hops, len(carried))
	}
	// The arena hands later hops fresh memory: no route or path it handed
	// out earlier moved.
	for k, rt := range carried {
		if !reflect.DeepEqual(*rt, carriedWas[k].route) || !slices.Equal(rt.ASPath, carriedWas[k].path) {
			t.Errorf("arena route %d changed after later hops: %+v, was %+v", k, *rt, carriedWas[k].route)
		}
	}
	for name, rt := range po.Final { //acrvet:ordered — independent checks
		if rt.Src == SrcLocal {
			continue
		}
		// The stable routes themselves came through the same pipeline.
		if rt.NextHop != rt.PeerAddr || !rt.PeerRID.IsValid() {
			t.Errorf("%s holds a half-finished route %+v", name, rt)
		}
	}
}

// TestReverseSessionNilGuard: establishment is symmetric, so Compile fills
// Session.reverse on every session it builds, but every reader guards
// against nil. A net where X holds a session toward Y and Y none toward X
// carries nothing over that link, in any pass, and nothing panics.
func TestReverseSessionNilGuard(t *testing.T) {
	n := newTestNet(chainNet()).compile(t)
	p := netip.MustParsePrefix("10.0.0.0/16")
	base := Simulate(n, Options{})
	if base.ByPrefix[p].Final["Y"] == nil {
		t.Fatal("Y has no route on the intact chain")
	}
	n.SessionBetween("X", "Y").reverse = nil
	n.Routers["Y"].Sessions = nil

	out := Simulate(n, Options{})
	po := out.ByPrefix[p]
	if !po.Converged || po.Final["X"] == nil || po.Final["Y"] != nil {
		t.Fatalf("one-sided X→Y: converged=%v X=%v Y=%v; want X routed, Y not", po.Converged, po.Final["X"], po.Final["Y"])
	}
	for _, site := range TracedProvenance(n, out).Section(p).Stored() {
		if site.Router == "Y" || site.PeerRouter == "Y" {
			t.Errorf("provenance derives between %s and %s over a one-sided session", site.Router, site.PeerRouter)
		}
	}
	if dpo, ok := DeltaSimulatePrefix(n, base.ByPrefix[p], []string{"X", "Y"}, p, Options{}); !ok || dpo.Final["Y"] != nil {
		t.Errorf("delta from the intact outcome: ok=%v; want Y withdrawn", ok)
	}
}
