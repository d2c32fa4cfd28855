package dataplane_test

import (
	"net/netip"
	"reflect"
	"slices"
	"testing"
	"unsafe"

	"acr/internal/bgp"
	"acr/internal/dataplane"
	"acr/internal/scenario"
)

// TestSameHopIsWhatTraceReads guards dataplane.SameHop, the dependency a
// kept verdict rests on: perturbing any bgp.Route field but Src and
// NextHop on every router leaves every trace of Figure 2 and of a
// fat-tree with a PBR scrubber as it was — outcome, path, executed lines
// and reason — and SameHop finds the routes alike, while perturbing Src
// or NextHop makes SameHop tell every route from its perturbed copy. The
// fields are enumerated by reflection, descending into the embedded
// identity, so a field added to bgp.Route is perturbed too.
func TestSameHopIsWhatTraceReads(t *testing.T) {
	fields := routeFields(reflect.TypeOf(bgp.Route{}), nil)
	if len(fields) < 8 {
		t.Fatalf("found %d route fields, want at least 8", len(fields))
	}
	for _, s := range []*scenario.Scenario{scenario.Figure2(), scenario.DCN(4, scenario.GenOptions{WithScrubber: true})} {
		n := bgp.Compile(s.Topo, s.Files())
		out := bgp.Simulate(n, bgp.Options{})
		for _, f := range fields {
			read := f.name == "Src" || f.name == "NextHop"
			traced, perturbed := 0, 0
			for _, p := range n.AllPrefixes() {
				for _, ph := range out.ByPrefix[p].Phases() {
					moved := map[string]*bgp.Route{}
					for name, rt := range ph {
						moved[name] = perturb(t, rt, f)
						if dataplane.SameHop(rt, moved[name]) == read {
							t.Fatalf("%s %v at %s: SameHop(route, route with %s perturbed) = %v", s.Name, p, name, f.name, !read)
						}
						perturbed++
					}
					if read {
						continue
					}
					for _, pkt := range packets(s, p) {
						for _, from := range n.Order {
							want := dataplane.Trace(n, ph, p, pkt, from)
							got := dataplane.Trace(n, moved, p, pkt, from)
							if got.Outcome != want.Outcome || !slices.Equal(got.Path, want.Path) ||
								!slices.Equal(got.Lines, want.Lines) || got.Reason() != want.Reason() {
								t.Fatalf("%s %v %v from %s with %s perturbed: %v %v %v %q, unperturbed %v %v %v %q", s.Name, p, pkt, from, f.name,
									got.Outcome, got.Path, got.Lines, got.Reason(), want.Outcome, want.Path, want.Lines, want.Reason())
							}
							traced++
						}
					}
				}
			}
			if perturbed == 0 || !read && traced == 0 {
				t.Fatalf("%s: %s perturbed on %d routes under %d traces", s.Name, f.name, perturbed, traced)
			}
		}
	}
}

// packets are the packets toward prefix p the test traces: p's own sample
// and every intent's packet p covers.
func packets(s *scenario.Scenario, p netip.Prefix) []dataplane.Packet {
	out := []dataplane.Packet{dataplane.SamplePacket(netip.Prefix{}, p)}
	for _, in := range s.Intents {
		if pkt := in.Packet(); p.Contains(pkt.Dst) {
			out = append(out, pkt)
		}
	}
	return out
}

// routeField is a leaf field of bgp.Route: its name and its index path,
// through the embedded identity pointer for the fields promoted from it.
type routeField struct {
	name  string
	index []int
}

// routeFields lists the leaf fields of struct type rt, descending into
// embedded struct pointers.
func routeFields(rt reflect.Type, at []int) []routeField {
	var out []routeField
	for i := range rt.NumField() {
		sf := rt.Field(i)
		index := append(slices.Clone(at), i)
		if sf.Anonymous && sf.Type.Kind() == reflect.Pointer && sf.Type.Elem().Kind() == reflect.Struct {
			out = append(out, routeFields(sf.Type.Elem(), index)...)
			continue
		}
		out = append(out, routeField{name: sf.Name, index: index})
	}
	return out
}

// perturb returns a copy of rt with field f changed. A field of the
// embedded identity is changed in a copy of the identity: routes share it.
func perturb(t *testing.T, rt *bgp.Route, f routeField) *bgp.Route {
	t.Helper()
	cp := *rt
	v := reflect.ValueOf(&cp).Elem()
	for _, i := range f.index[:len(f.index)-1] {
		emb := writable(v.Field(i))
		id := reflect.New(emb.Type().Elem())
		id.Elem().Set(emb.Elem())
		emb.Set(id)
		v = id.Elem()
	}
	fv := writable(v.Field(f.index[len(f.index)-1]))
	switch x := fv.Interface().(type) {
	case netip.Prefix:
		fv.Set(reflect.ValueOf(netip.MustParsePrefix("203.0.113.0/24")))
		if x == fv.Interface() {
			fv.Set(reflect.ValueOf(netip.MustParsePrefix("198.51.100.0/24")))
		}
	case netip.Addr:
		y := netip.MustParseAddr("192.0.2.77")
		if x == y {
			y = y.Next()
		}
		fv.Set(reflect.ValueOf(y))
	case []uint32:
		fv.Set(reflect.ValueOf(append(slices.Clone(x), 64999)))
	default:
		switch fv.Kind() {
		case reflect.Uint8, reflect.Uint16, reflect.Uint32, reflect.Uint64:
			fv.SetUint(fv.Uint() ^ 1)
		default:
			t.Fatalf("no perturbation for route field %s of type %s", f.name, fv.Type())
		}
	}
	return &cp
}

// writable returns v, a field of an addressable struct, as a settable
// value: the embedded identity's type is unexported.
func writable(v reflect.Value) reflect.Value {
	return reflect.NewAt(v.Type(), unsafe.Pointer(v.UnsafeAddr())).Elem()
}
