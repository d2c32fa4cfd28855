// Package smt is a small finite-domain constraint solver standing in for
// Z3 in the paper's fix-generation stage (§4.2/§5 step 2): change
// templates introduce symbolic variables (a prefix-set in a prefix-list
// entry, an AS number in a peer stanza), constraints are collected from
// the provenance of passing and failing tests, and the solver finds an
// assignment satisfying P ∧ ¬F. Domains are finite and tiny — the
// prefixes and AS numbers that occur in the network — so a complete
// backtracking search with three-valued pruning returns the same
// assignments an SMT solver would, deterministically, preferring minimal
// prefix sets.
package smt

import (
	"fmt"
	"net/netip"
	"sort"
	"strconv"
	"strings"
)

// Sort classifies variables.
type Sort uint8

// Variable sorts.
const (
	SortPrefixSet Sort = iota // a set of prefixes
	SortInt                   // a uint32 (AS numbers, ports)
)

// Var is a typed variable.
type Var struct {
	Name string
	Sort Sort
}

// PrefixSetVar declares a prefix-set variable.
func PrefixSetVar(name string) Var { return Var{Name: name, Sort: SortPrefixSet} }

// IntVar declares an integer variable.
func IntVar(name string) Var { return Var{Name: name, Sort: SortInt} }

// Formula is a constraint over variables.
type Formula interface {
	// appendTo appends the formula's text to b.
	appendTo(b []byte) []byte
}

type (
	inAtom struct {
		Prefix netip.Prefix
		Set    Var
	}
	eqIntAtom struct {
		Var   Var
		Value uint32
	}
	notForm struct{ F Formula }
	andForm struct{ Fs []Formula }
)

func (a inAtom) appendTo(b []byte) []byte {
	if a.Prefix.IsValid() {
		b = a.Prefix.AppendTo(b)
	} else {
		b = append(b, "invalid Prefix"...) // as Prefix.String renders it
	}
	return append(append(b, " ∈ "...), a.Set.Name...)
}

func (a eqIntAtom) appendTo(b []byte) []byte {
	return strconv.AppendUint(append(append(b, a.Var.Name...), " = "...), uint64(a.Value), 10)
}

func (f notForm) appendTo(b []byte) []byte { return append(f.F.appendTo(append(b, "¬("...)), ')') }

func (f andForm) appendTo(b []byte) []byte {
	b = append(b, '(')
	for i, sub := range f.Fs {
		if i > 0 {
			b = append(b, " ∧ "...)
		}
		b = sub.appendTo(b)
	}
	return append(b, ')')
}

// String renders a formula.
func String(f Formula) string {
	var buf [256]byte
	return string(f.appendTo(buf[:0]))
}

// In asserts prefix ∈ set.
func In(p netip.Prefix, set Var) Formula { return inAtom{Prefix: p.Masked(), Set: set} }

// EqInt asserts v = value.
func EqInt(v Var, value uint32) Formula { return eqIntAtom{Var: v, Value: value} }

// Not negates.
func Not(f Formula) Formula { return notForm{F: f} }

// And conjoins (empty And is true).
func And(fs ...Formula) Formula { return andForm{Fs: fs} }

// Model is a satisfying assignment.
type Model struct {
	Sets map[string][]netip.Prefix
	Ints map[string]uint32
}

// Set returns the value of a prefix-set variable.
func (m *Model) Set(name string) []netip.Prefix { return m.Sets[name] }

// Int returns the value of an integer variable.
func (m *Model) Int(name string) (uint32, bool) {
	v, ok := m.Ints[name]
	return v, ok
}

// String renders the model deterministically.
func (m *Model) String() string {
	var parts []string
	names := make([]string, 0, len(m.Sets))
	for n := range m.Sets {
		names = append(names, n)
	}
	sort.Strings(names)
	for _, n := range names {
		ps := make([]string, len(m.Sets[n]))
		for i, p := range m.Sets[n] {
			ps[i] = p.String()
		}
		parts = append(parts, fmt.Sprintf("%s={%s}", n, strings.Join(ps, ",")))
	}
	names = names[:0]
	for n := range m.Ints {
		names = append(names, n)
	}
	sort.Strings(names)
	for _, n := range names {
		parts = append(parts, fmt.Sprintf("%s=%d", n, m.Ints[n]))
	}
	return strings.Join(parts, " ")
}

// Problem holds variable domains.
type Problem struct {
	intDomains map[string][]uint32
}

// NewProblem returns an empty problem.
func NewProblem() *Problem {
	return &Problem{intDomains: map[string][]uint32{}}
}

// IntDomain sets the candidate values of an integer variable; without one,
// the domain is the set of values mentioned in EqInt atoms over it.
func (p *Problem) IntDomain(v Var, values ...uint32) {
	p.intDomains[v.Name] = values
}

// decision is one decision variable of the search.
type decision struct {
	kind   Sort
	set    string       // SortPrefixSet: which set variable
	prefix netip.Prefix // SortPrefixSet: which membership
	name   string       // SortInt variable name
	domain []uint32     // SortInt candidates
}

// assignment is the partial state during search.
type assignment struct {
	member map[string]map[netip.Prefix]int // -1 false, 0 unknown, 1 true
	ints   map[string]int64                // -1 unassigned, else value
}

// Solve finds a satisfying assignment, or reports unsatisfiability. The
// search prefers excluding prefixes from sets and assigns integers in
// domain order, making results minimal and deterministic. SolveStats
// counts the assignments explored (the "search space walked") for the
// Figure 3 comparison.
func (p *Problem) Solve(f Formula) (*Model, bool) {
	m, ok, _ := p.SolveCounted(f)
	return m, ok
}

// SolveCounted is Solve, also reporting the number of candidate
// assignments visited.
func (p *Problem) SolveCounted(f Formula) (*Model, bool, int) {
	decisions := p.collectDecisions(f)
	st := &assignment{
		member: map[string]map[netip.Prefix]int{},
		ints:   map[string]int64{},
	}
	for _, d := range decisions {
		switch d.kind {
		case SortPrefixSet:
			if st.member[d.set] == nil {
				st.member[d.set] = map[netip.Prefix]int{}
			}
			st.member[d.set][d.prefix] = 0
		case SortInt:
			st.ints[d.name] = -1
		}
	}
	visited := 0
	var search func(i int) bool
	search = func(i int) bool {
		visited++
		switch eval(f, st) {
		case tvFalse:
			return false
		case tvTrue:
			// Satisfied regardless of the remaining unknowns; leave them
			// at their defaults (memberships excluded, ints unassigned).
			return true
		}
		if i >= len(decisions) {
			return false // fully assigned yet unknown: cannot happen
		}
		d := decisions[i]
		switch d.kind {
		case SortPrefixSet:
			for _, val := range []int{-1, 1} { // exclude first: minimal sets
				st.member[d.set][d.prefix] = val
				if search(i + 1) {
					return true
				}
			}
			st.member[d.set][d.prefix] = 0
		case SortInt:
			for _, val := range d.domain {
				st.ints[d.name] = int64(val)
				if search(i + 1) {
					return true
				}
			}
			st.ints[d.name] = -1
		}
		return false
	}
	if !search(0) {
		return nil, false, visited
	}
	model := &Model{Sets: map[string][]netip.Prefix{}, Ints: map[string]uint32{}}
	for set, ms := range st.member {
		var ps []netip.Prefix
		for pfx, v := range ms {
			if v == 1 {
				ps = append(ps, pfx)
			}
		}
		sort.Slice(ps, func(i, j int) bool {
			if ps[i].Addr() != ps[j].Addr() {
				return ps[i].Addr().Less(ps[j].Addr())
			}
			return ps[i].Bits() < ps[j].Bits()
		})
		model.Sets[set] = ps
	}
	for name, v := range st.ints {
		if v >= 0 {
			model.Ints[name] = uint32(v)
		}
	}
	return model, true, visited
}

// collectDecisions walks the formula gathering decision variables in a
// deterministic order.
func (p *Problem) collectDecisions(f Formula) []decision {
	type memKey struct {
		set string
		pfx netip.Prefix
	}
	memSeen := map[memKey]bool{}
	intSeen := map[string]map[uint32]bool{}
	var order []decision
	var walk func(Formula)
	walk = func(f Formula) {
		switch a := f.(type) {
		case inAtom:
			k := memKey{a.Set.Name, a.Prefix}
			if !memSeen[k] {
				memSeen[k] = true
				order = append(order, decision{kind: SortPrefixSet, set: a.Set.Name, prefix: a.Prefix})
			}
		case eqIntAtom:
			if intSeen[a.Var.Name] == nil {
				intSeen[a.Var.Name] = map[uint32]bool{}
				order = append(order, decision{kind: SortInt, name: a.Var.Name})
			}
			intSeen[a.Var.Name][a.Value] = true
		case notForm:
			walk(a.F)
		case andForm:
			for _, sub := range a.Fs {
				walk(sub)
			}
		}
	}
	walk(f)
	// Fill integer domains: explicit domain, else mentioned values.
	for i := range order {
		if order[i].kind != SortInt {
			continue
		}
		if dom, ok := p.intDomains[order[i].name]; ok && len(dom) > 0 {
			order[i].domain = dom
			continue
		}
		var vals []uint32
		for v := range intSeen[order[i].name] {
			vals = append(vals, v)
		}
		sort.Slice(vals, func(a, b int) bool { return vals[a] < vals[b] })
		order[i].domain = vals
	}
	return order
}

// Three-valued logic for pruning.
type tv int8

const (
	tvFalse   tv = -1
	tvUnknown tv = 0
	tvTrue    tv = 1
)

func eval(f Formula, st *assignment) tv {
	switch a := f.(type) {
	case inAtom:
		return tv(st.member[a.Set.Name][a.Prefix])
	case eqIntAtom:
		v := st.ints[a.Var.Name]
		if v < 0 {
			return tvUnknown
		}
		if uint32(v) == a.Value {
			return tvTrue
		}
		return tvFalse
	case notForm:
		return -eval(a.F, st)
	case andForm:
		res := tvTrue
		for _, sub := range a.Fs {
			switch eval(sub, st) {
			case tvFalse:
				return tvFalse
			case tvUnknown:
				res = tvUnknown
			}
		}
		return res
	}
	return tvUnknown
}
