package core

import (
	"math/bits"
	"math/rand"
	"net/netip"
	"reflect"
	"slices"
	"strings"
	"testing"
)

func lit(p string, in bool) listLiteral {
	return listLiteral{prefix: netip.MustParsePrefix(p), in: in}
}

func prefixes(ps ...string) []netip.Prefix {
	var out []netip.Prefix
	for _, p := range ps {
		out = append(out, netip.MustParsePrefix(p))
	}
	return out
}

// TestSolveLiterals pins solveLiterals' answers and constraint text, which
// reaches update descriptions, and through them Canonical() and the WAL.
func TestSolveLiterals(t *testing.T) {
	for _, tc := range []struct {
		name string
		lits []listLiteral
		want []netip.Prefix
		ok   bool
		text string
	}{{
		// §5 step 2: P: 10.70/16 ∈ var ∧ 20.0/16 ∈ var, F: 10.0/16 ∈ var.
		name: "paper_example",
		lits: []listLiteral{lit("10.70.0.0/16", true), lit("20.0.0.0/16", true), lit("10.0.0.0/16", false)},
		want: prefixes("10.70.0.0/16", "20.0.0.0/16"),
		ok:   true,
		text: "(10.70.0.0/16 ∈ var ∧ 20.0.0.0/16 ∈ var ∧ ¬(10.0.0.0/16 ∈ var))",
	}, {
		name: "minimal_model",
		lits: []listLiteral{lit("20.0.0.0/8", true), lit("10.1.0.0/24", false), lit("10.0.0.0/16", true), lit("10.0.0.0/24", true)},
		want: prefixes("10.0.0.0/16", "10.0.0.0/24", "20.0.0.0/8"),
		ok:   true,
		text: "(20.0.0.0/8 ∈ var ∧ ¬(10.1.0.0/24 ∈ var) ∧ 10.0.0.0/16 ∈ var ∧ 10.0.0.0/24 ∈ var)",
	}, {
		name: "negative_only",
		lits: []listLiteral{lit("10.0.0.0/24", false), lit("10.1.0.0/24", false)},
		ok:   true,
		text: "(¬(10.0.0.0/24 ∈ var) ∧ ¬(10.1.0.0/24 ∈ var))",
	}, {
		name: "host_bits_masked",
		lits: []listLiteral{lit("10.0.0.1/24", true), lit("10.1.0.0/24", false)},
		want: prefixes("10.0.0.0/24"),
		ok:   true,
		text: "(10.0.0.0/24 ∈ var ∧ ¬(10.1.0.0/24 ∈ var))",
	}, {
		name: "duplicate_literal",
		lits: []listLiteral{lit("10.0.0.0/24", true), lit("10.0.0.1/24", true)},
		want: prefixes("10.0.0.0/24"),
		ok:   true,
		text: "(10.0.0.0/24 ∈ var ∧ 10.0.0.0/24 ∈ var)",
	}, {
		name: "conflict",
		lits: []listLiteral{lit("10.0.0.1/24", true), lit("10.2.0.0/16", true), lit("10.0.0.0/24", false)},
		text: "(10.0.0.0/24 ∈ var ∧ 10.2.0.0/16 ∈ var ∧ ¬(10.0.0.0/24 ∈ var))",
	}} {
		t.Run(tc.name, func(t *testing.T) {
			got := solveLiterals(tc.lits)
			if got.ok != tc.ok || !reflect.DeepEqual(got.want, tc.want) {
				t.Errorf("solve = %v ok=%v, want %v ok=%v", got.want, got.ok, tc.want, tc.ok)
			}
			if got.constraints != tc.text {
				t.Errorf("text = %q, want %q", got.constraints, tc.text)
			}
		})
	}
}

// TestSolveLiteralsBruteForce holds solveLiterals to the definition over
// seeded random literal sets: enumerate every subset of the masked
// prefixes; the answer is the smallest satisfying one, and there is no
// answer exactly when none satisfies.
func TestSolveLiteralsBruteForce(t *testing.T) {
	// Host bits make several entries mask alike, so conflicts occur.
	pool := prefixes("10.0.0.0/24", "10.0.0.1/24", "10.0.0.128/25", "10.0.1.0/24",
		"10.0.0.0/16", "10.1.0.0/16", "10.1.2.3/16", "20.0.0.0/8", "20.1.0.0/8", "192.168.0.0/24")
	rng := rand.New(rand.NewSource(1))
	conflicts := 0
	for trial := 0; trial < 2000; trial++ {
		lits := make([]listLiteral, rng.Intn(9))
		for i := range lits {
			lits[i] = listLiteral{prefix: pool[rng.Intn(len(pool))], in: rng.Intn(2) == 0}
		}
		var universe []netip.Prefix
		index := map[netip.Prefix]int{}
		var parts []string
		for _, l := range lits {
			p := l.prefix.Masked()
			if _, seen := index[p]; !seen {
				index[p] = len(universe)
				universe = append(universe, p)
			}
			if l.in {
				parts = append(parts, p.String()+" ∈ var")
			} else {
				parts = append(parts, "¬("+p.String()+" ∈ var)")
			}
		}
		best := -1
		for set := 0; set < 1<<len(universe); set++ {
			sat := true
			for _, l := range lits {
				sat = sat && (set&(1<<index[l.prefix.Masked()]) != 0) == l.in
			}
			if sat && (best < 0 || bits.OnesCount(uint(set)) < bits.OnesCount(uint(best))) {
				best = set
			}
		}
		got := solveLiterals(lits)
		if text := "(" + strings.Join(parts, " ∧ ") + ")"; got.constraints != text {
			t.Fatalf("%v: text = %q, want %q", lits, got.constraints, text)
		}
		if got.ok != (best >= 0) {
			t.Fatalf("%v: ok = %v, want %v", lits, got.ok, best >= 0)
		}
		if best < 0 {
			conflicts++
			continue
		}
		var want []netip.Prefix
		for i, p := range universe {
			if best&(1<<i) != 0 {
				want = append(want, p)
			}
		}
		slices.SortFunc(want, comparePrefixes)
		if !reflect.DeepEqual(got.want, want) {
			t.Fatalf("%v: want = %v, smallest satisfying set is %v", lits, got.want, want)
		}
	}
	if conflicts == 0 {
		t.Fatal("no trial drew a conflict")
	}
}
