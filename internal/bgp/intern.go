package bgp

import (
	"net/netip"
	"strconv"
	"strings"
)

// internTable dedupes the strings and slices the simulator's hot path
// would otherwise allocate per route: canonical Key() strings and AS-path
// slices. One table lives on each compiled Net (every Router holds a
// pointer to its Net's table), so interned values never leak between
// networks and the table's lifetime matches the Net's.
//
// Concurrency: a Net is simulated by one goroutine at a time — the
// incremental verifier compiles a fresh Net per candidate check and clones
// never share candidate Nets across workers — so the table is deliberately
// unsynchronized. Base-outcome routes are only ever read after their
// simulation completes.
type internTable struct {
	// keys maps a rendered route key to its canonical string instance, so
	// equal keys share one allocation and compare pointer-fast.
	keys map[string]string
	// paths maps the rendered AS-path segment ("[65001 65002]") to a
	// canonical []uint32. Safe to share because policy application always
	// replaces AS-path slices with freshly built ones, never mutating a
	// path in place.
	paths map[string][]uint32
}

func newInternTable() *internTable {
	return &internTable{keys: map[string]string{}, paths: map[string][]uint32{}}
}

// buildKey renders the canonical route key without fmt. The output is
// byte-identical to the historical fmt.Sprintf format in Route.Key —
// provenance node keys and journal state hashes depend on it.
func buildKey(r *Route) string {
	b := make([]byte, 0, 96)
	if r.Prefix.IsValid() {
		b = r.Prefix.AppendTo(b)
	} else {
		b = append(b, r.Prefix.String()...)
	}
	b = append(b, '|', '[')
	for i, a := range r.ASPath {
		if i > 0 {
			b = append(b, ' ')
		}
		b = strconv.AppendUint(b, uint64(a), 10)
	}
	b = append(b, "]|lp"...)
	b = strconv.AppendUint(b, uint64(r.LocalPref), 10)
	b = append(b, "|med"...)
	b = strconv.AppendUint(b, uint64(r.MED), 10)
	b = append(b, "|o"...)
	b = strconv.AppendUint(b, uint64(r.Origin), 10)
	b = append(b, "|nh"...)
	b = appendAddr(b, r.NextHop)
	b = append(b, "|s"...)
	b = strconv.AppendUint(b, uint64(r.Src), 10)
	b = append(b, "|p"...)
	b = appendAddr(b, r.PeerAddr)
	return string(b)
}

// appendAddr appends a.String() without the intermediate string. An unset
// address (an originated route's next hop, an exported route's peer) is
// where AppendTo and String differ: AppendTo appends nothing.
func appendAddr(b []byte, a netip.Addr) []byte {
	if !a.IsValid() {
		return append(b, a.String()...)
	}
	return a.AppendTo(b)
}

// finalizeRoute stamps r's memoized key and, when a table is available,
// interns the key string and AS-path slice. It is called at the three
// points where a route becomes an immutable RIB value: import acceptance,
// export emission, and origination. Mid-policy clones stay unstamped (the
// clone resets the key) because they are still mutable. A nil table is
// tolerated so hand-built Routers in tests keep working.
func finalizeRoute(t *internTable, r *Route) *Route {
	k := buildKey(r)
	if t != nil {
		if ik, ok := t.keys[k]; ok {
			k = ik
		} else {
			t.keys[k] = k
		}
		if len(r.ASPath) > 0 {
			// The path segment sits between the first '|' and its ']'.
			if i := strings.IndexByte(k, '|'); i >= 0 {
				if j := strings.IndexByte(k[i:], ']'); j >= 0 {
					ps := k[i+1 : i+j+1]
					if p, ok := t.paths[ps]; ok {
						r.ASPath = p
					} else {
						t.paths[ps] = r.ASPath
					}
				}
			}
		}
	}
	r.key = k
	return r
}
