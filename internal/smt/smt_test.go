package smt

import (
	"math/rand"
	"net/netip"
	"testing"
	"testing/quick"
)

var (
	pA = netip.MustParsePrefix("10.70.0.0/16")
	pB = netip.MustParsePrefix("10.0.0.0/16")
	pC = netip.MustParsePrefix("20.0.0.0/16")
)

// TestPaperExample solves exactly the §5 step-2 instance:
// P: 10.70/16 ∈ var ∧ 20.0/16 ∈ var, F: 10.0/16 ∈ var; solve P ∧ ¬F.
func TestPaperExample(t *testing.T) {
	v := PrefixSetVar("var")
	f := And(In(pA, v), In(pC, v), Not(In(pB, v)))
	model, ok := NewProblem().Solve(f)
	if !ok {
		t.Fatal("unsat; want {10.70/16, 20.0/16}")
	}
	got := model.Set("var")
	if len(got) != 2 || got[0] != pB.Masked() && got[0] != pA || got[1] != pC {
		// sorted: 10.70 < 20.0
		if len(got) != 2 || got[0] != pA || got[1] != pC {
			t.Fatalf("var = %v, want [10.70.0.0/16 20.0.0.0/16]", got)
		}
	}
}

// anyOf is disjunction by De Morgan: ¬(¬f1 ∧ … ∧ ¬fn).
func anyOf(fs ...Formula) Formula {
	neg := make([]Formula, len(fs))
	for i, f := range fs {
		neg[i] = Not(f)
	}
	return Not(And(neg...))
}

func TestMinimality(t *testing.T) {
	v := PrefixSetVar("s")
	// Only pA forced in; pB and pC mentioned but left free by tautologies.
	f := And(In(pA, v), anyOf(In(pB, v), Not(In(pB, v))), anyOf(In(pC, v), Not(In(pC, v))))
	model, ok := NewProblem().Solve(f)
	if !ok {
		t.Fatal("unsat")
	}
	if got := model.Set("s"); len(got) != 1 || got[0] != pA {
		t.Fatalf("s = %v, want minimal [10.70.0.0/16]", got)
	}
}

func TestUnsat(t *testing.T) {
	v := PrefixSetVar("s")
	if _, ok := NewProblem().Solve(And(In(pA, v), Not(In(pA, v)))); ok {
		t.Fatal("contradiction reported sat")
	}
}

func TestIntVarFromMentionedValues(t *testing.T) {
	v := IntVar("asn")
	f := And(anyOf(EqInt(v, 65001), EqInt(v, 65002)), Not(EqInt(v, 65001)))
	model, ok := NewProblem().Solve(f)
	if !ok {
		t.Fatal("unsat")
	}
	if got, _ := model.Int("asn"); got != 65002 {
		t.Fatalf("asn = %d, want 65002", got)
	}
}

func TestIntVarExplicitDomain(t *testing.T) {
	v := IntVar("asn")
	p := NewProblem()
	p.IntDomain(v, 100, 200, 300)
	f := Not(EqInt(v, 100))
	model, ok := p.Solve(f)
	if !ok {
		t.Fatal("unsat")
	}
	if got, _ := model.Int("asn"); got != 200 {
		t.Fatalf("asn = %d, want 200 (first satisfying in domain order)", got)
	}
}

func TestMixedSorts(t *testing.T) {
	s := PrefixSetVar("s")
	asn := IntVar("asn")
	f := And(
		In(pA, s),
		anyOf(EqInt(asn, 65004), EqInt(asn, 64999)),
		Not(EqInt(asn, 64999)),
		anyOf(EqInt(asn, 64999), In(pC, s)),
	)
	model, ok := NewProblem().Solve(f)
	if !ok {
		t.Fatal("unsat")
	}
	if got, _ := model.Int("asn"); got != 65004 {
		t.Errorf("asn = %d", got)
	}
	// asn ≠ 64999 leaves pC ∈ s as the only way to hold the last clause.
	if got := model.Set("s"); len(got) != 2 || got[0] != pA || got[1] != pC {
		t.Errorf("s = %v, want [10.70.0.0/16 20.0.0.0/16]", got)
	}
}

func containsPrefix(ps []netip.Prefix, p netip.Prefix) bool {
	for _, x := range ps {
		if x == p {
			return true
		}
	}
	return false
}

func TestSolveCountedReportsWork(t *testing.T) {
	v := PrefixSetVar("s")
	_, ok, visited := NewProblem().SolveCounted(And(In(pA, v), In(pB, v), In(pC, v)))
	if !ok || visited == 0 {
		t.Fatalf("ok=%v visited=%d", ok, visited)
	}
}

func TestFormulaString(t *testing.T) {
	v := PrefixSetVar("var")
	f := And(In(pA, v), Not(In(pB, v)))
	s := String(f)
	for _, want := range []string{"10.70.0.0/16 ∈ var", "¬(10.0.0.0/16 ∈ var)"} {
		if !contains(s, want) {
			t.Errorf("String(f) = %q missing %q", s, want)
		}
	}
}

func contains(s, sub string) bool {
	return len(s) >= len(sub) && (s == sub || len(s) > 0 && (func() bool {
		for i := 0; i+len(sub) <= len(s); i++ {
			if s[i:i+len(sub)] == sub {
				return true
			}
		}
		return false
	})())
}

// Property: any model returned satisfies the formula under strict
// evaluation.
func TestQuickModelsSatisfy(t *testing.T) {
	prefixes := []netip.Prefix{pA, pB, pC, netip.MustParsePrefix("30.0.0.0/8")}
	gen := func(rng *rand.Rand, depth int) Formula {
		if depth <= 0 || rng.Intn(3) == 0 {
			if rng.Intn(2) == 0 {
				return In(prefixes[rng.Intn(len(prefixes))], PrefixSetVar("s"))
			}
			return EqInt(IntVar("x"), uint32(rng.Intn(3)+1))
		}
		switch rng.Intn(3) {
		case 0:
			return Not(genHelper(rng, depth-1))
		case 1:
			return And(genHelper(rng, depth-1), genHelper(rng, depth-1))
		default:
			return anyOf(genHelper(rng, depth-1), genHelper(rng, depth-1))
		}
	}
	genHelper = gen
	check := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		f := gen(rng, 3)
		model, ok := NewProblem().Solve(f)
		if !ok {
			return true // unsat claims are not checked here
		}
		return evalModel(f, model)
	}
	if err := quick.Check(check, &quick.Config{MaxCount: 300}); err != nil {
		t.Error(err)
	}
}

var genHelper func(rng *rand.Rand, depth int) Formula

// evalModel evaluates strictly under a complete model (absent memberships
// are false; absent ints equal nothing).
func evalModel(f Formula, m *Model) bool {
	switch a := f.(type) {
	case inAtom:
		return containsPrefix(m.Set(a.Set.Name), a.Prefix)
	case eqIntAtom:
		v, ok := m.Int(a.Var.Name)
		return ok && v == a.Value
	case notForm:
		return !evalModel(a.F, m)
	case andForm:
		for _, sub := range a.Fs {
			if !evalModel(sub, m) {
				return false
			}
		}
		return true
	}
	return false
}

// Property: Solve is deterministic.
func TestQuickDeterministic(t *testing.T) {
	f := And(In(pA, PrefixSetVar("s")), anyOf(In(pB, PrefixSetVar("s")), In(pC, PrefixSetVar("s"))))
	m1, ok1 := NewProblem().Solve(f)
	m2, ok2 := NewProblem().Solve(f)
	if ok1 != ok2 || m1.String() != m2.String() {
		t.Fatalf("nondeterministic: %s vs %s", m1, m2)
	}
}
