package core

import (
	"net/netip"
	"slices"
	"sort"

	"acr/internal/netcfg"
)

// listSolve is the outcome of the paper's local symbolic step for one
// prefix-list: the solved member prefixes, whether a solution exists, and
// a human-readable constraint description for reports.
type listSolve struct {
	want        []netip.Prefix
	ok          bool
	constraints string
}

// solveList memoises solveListValue per (device, list): the solution is a
// pure function of the configuration version, and every suspicious line
// anchoring the same list would otherwise re-solve it. The memoised want
// slice is shared by every Update built from it and is never modified.
func (ctx *Context) solveList(device, listName string) listSolve {
	key := [2]string{device, listName}
	s, ok := ctx.listSolves[key]
	if !ok {
		s = solveListValue(ctx, device, listName)
		if ctx.listSolves == nil {
			ctx.listSolves = map[[2]string]listSolve{}
		}
		ctx.listSolves[key] = s
	}
	return s
}

// solveListValue performs the paper's local symbolic step (§5 step 2) for
// one prefix-list on one device: the list's membership becomes a symbolic
// prefix-set variable; every tested prefix whose provenance shows the
// list's policies ran at this device contributes a membership literal —
// passing tests must keep their match outcome (P), failing tests must flip
// theirs (¬F) — and solveLiterals reads the minimal membership off them.
func solveListValue(ctx *Context, device, listName string) listSolve {
	f := ctx.Files[device]
	if f == nil {
		return listSolve{}
	}
	var entryLines []int
	for _, e := range f.PrefixListEntries(listName) {
		entryLines = append(entryLines, e.Line)
	}
	attachLines := attachLinesForList(f, listName)
	if len(attachLines) == 0 && len(entryLines) == 0 {
		return listSolve{}
	}

	// failing[p], for each distinct verdict prefix: does a failing test
	// concern it? Several intents share a prefix, and a prefix's lines at
	// this device do not depend on which of them asks. Failing constraints
	// take precedence over passing ones on conflict — the validator will
	// catch any regression a dropped P-constraint hides.
	failing := map[netip.Prefix]bool{}
	for _, verdict := range ctx.Report.Verdicts {
		if verdict.Prefix.IsValid() {
			failing[verdict.Prefix] = failing[verdict.Prefix] || !verdict.Pass
		}
	}
	prefixes := make([]netip.Prefix, 0, len(failing))
	for p := range failing {
		prefixes = append(prefixes, p)
	}
	slices.SortFunc(prefixes, comparePrefixes)

	var lits []listLiteral
	anyFailing := false
	for _, p := range prefixes {
		var lines netcfg.LineSet // the lines p's derivations executed
		if sec := ctx.Prov.Section(p); sec != nil {
			lines = sec.LineSet()
		}
		ran, matched := hasAny(lines, device, attachLines), hasAny(lines, device, entryLines)
		if !ran && !matched {
			continue
		}
		// A passing prefix keeps its match outcome, a failing one flips it.
		lits = append(lits, listLiteral{prefix: p, in: matched != failing[p]})
		anyFailing = anyFailing || failing[p]
	}
	if !anyFailing {
		// No failing test interacts with this list; rewriting it cannot fix
		// anything.
		return listSolve{}
	}
	return solveLiterals(lits)
}

// listLiteral is one constraint over the list's prefix-set variable var:
// prefix ∈ var when in, ¬(prefix ∈ var) otherwise.
type listLiteral struct {
	prefix netip.Prefix
	in     bool
}

// solveLiterals solves the conjunction of lits in closed form. Its minimal
// model is the set of masked prefixes with a positive literal, sorted by
// address and then bits; there is none when one masked prefix carries
// literals of both signs (10.0.0.1/24 and 10.0.0.0/24 mask alike). The
// constraint text, "(" + the literals joined by " ∧ " + ")", is returned
// either way, literals in the given order and duplicates kept.
func solveLiterals(lits []listLiteral) listSolve {
	var buf [256]byte
	b := append(buf[:0], '(')
	sign := make(map[netip.Prefix]bool, len(lits))
	var want []netip.Prefix
	ok := true
	for i, l := range lits {
		p := l.prefix.Masked()
		if i > 0 {
			b = append(b, " ∧ "...)
		}
		if l.in {
			b = append(p.AppendTo(b), " ∈ var"...)
		} else {
			b = append(p.AppendTo(append(b, "¬("...)), " ∈ var)"...)
		}
		if in, seen := sign[p]; seen {
			ok = ok && in == l.in
			continue
		}
		sign[p] = l.in
		if l.in {
			want = append(want, p)
		}
	}
	s := listSolve{constraints: string(append(b, ')'))}
	if ok {
		slices.SortFunc(want, comparePrefixes)
		s.want, s.ok = want, true
	}
	return s
}

// comparePrefixes orders prefixes by address and then bits.
func comparePrefixes(a, b netip.Prefix) int {
	if c := a.Addr().Compare(b.Addr()); c != 0 {
		return c
	}
	return a.Bits() - b.Bits()
}

// attachLinesForList returns the lines of every policy attachment (and
// redistribute statement) on this device whose policy matches against the
// named list.
func attachLinesForList(f *netcfg.File, listName string) []int {
	policies := map[string]bool{}
	for _, p := range f.Policies {
		for _, m := range p.Matches {
			if m.Kind == netcfg.MatchIPPrefix && m.PrefixList == listName {
				policies[p.Name] = true
			}
		}
	}
	var out []int
	if f.BGP != nil {
		for _, pe := range f.BGP.Peers {
			for _, a := range pe.Policies {
				if policies[a.Policy] {
					out = append(out, a.Line)
				}
			}
		}
		for _, g := range f.BGP.Groups {
			for _, a := range g.Policies {
				if policies[a.Policy] {
					out = append(out, a.Line)
				}
			}
		}
		if f.BGP.Redistribute != nil && policies[f.BGP.Redistribute.Policy] {
			out = append(out, f.BGP.Redistribute.Line)
		}
	}
	return out
}

// hasAny reports whether set holds one of device's lines.
func hasAny(set netcfg.LineSet, device string, lines []int) bool {
	for _, l := range lines {
		if set.Has(netcfg.LineRef{Device: device, Line: l}) {
			return true
		}
	}
	return false
}

// rewriteListEdits turns a solved membership into line edits: existing
// entries are rewritten to exact permits for the solved prefixes, extra
// entries are deleted, and missing ones are inserted after the last entry.
func rewriteListEdits(f *netcfg.File, listName string, want []netip.Prefix) []netcfg.Edit {
	entries := f.PrefixListEntries(listName)
	n := len(entries)
	edits := make([]netcfg.Edit, 0, max(len(want), n))
	for i, p := range want {
		if i < n {
			e := entries[i]
			edits = append(edits, netcfg.ReplaceLine{
				At:   e.Line,
				Text: netcfg.FormatPrefixListEntry(listName, e.Index, true, p, 0, 0),
			})
			continue
		}
		after := 1
		idx := 10 * (i + 1)
		if n > 0 {
			after = entries[n-1].Line + 1
			idx = entries[n-1].Index + 10*(i-n+1)
		}
		edits = append(edits, netcfg.InsertBefore{
			At:   after,
			Text: netcfg.FormatPrefixListEntry(listName, idx, true, p, 0, 0),
		})
	}
	for j := len(want); j < n; j++ {
		edits = append(edits, netcfg.DeleteLine{At: entries[j].Line})
	}
	return edits
}

// listsAnchoredAt resolves which (device, list) pairs a suspicious line
// refers to: a prefix-list entry names its own list; a policy node, match,
// or apply line names the lists its policy matches; an attachment line
// names the lists of the attached policy.
func listsAnchoredAt(f *netcfg.File, line int) []string {
	role := Classify(f, line)
	lists := map[string]bool{}
	switch role {
	case RolePrefixListEntry:
		for _, e := range f.PrefixLists {
			if e.Line == line {
				lists[e.Name] = true
			}
		}
	case RolePolicyMatch:
		for _, p := range f.Policies {
			for _, m := range p.Matches {
				if m.Line == line && m.Kind == netcfg.MatchIPPrefix {
					lists[m.PrefixList] = true
				}
			}
		}
	case RolePolicyNode, RolePolicyApply:
		// The policy is the semantic unit: anchor every list matched by ANY
		// node of the policy containing this line (a traced pass-through
		// node often sits next to the deny node whose list needs fixing).
		var name string
		for _, p := range f.Policies {
			if p.Line == line || containsApply(p, line) {
				name = p.Name
			}
		}
		for _, p := range f.PolicyNodes(name) {
			for _, m := range p.Matches {
				if m.Kind == netcfg.MatchIPPrefix {
					lists[m.PrefixList] = true
				}
			}
		}
	case RolePolicyAttach:
		name := attachedPolicyAt(f, line)
		for _, p := range f.PolicyNodes(name) {
			for _, m := range p.Matches {
				if m.Kind == netcfg.MatchIPPrefix {
					lists[m.PrefixList] = true
				}
			}
		}
	}
	out := make([]string, 0, len(lists))
	for l := range lists {
		out = append(out, l)
	}
	sort.Strings(out)
	return out
}

func containsApply(p *netcfg.RoutePolicy, line int) bool {
	for _, a := range p.Applies {
		if a.Line == line {
			return true
		}
	}
	return false
}

// attachedPolicyAt returns the policy name attached at the given line.
func attachedPolicyAt(f *netcfg.File, line int) string {
	if f.BGP == nil {
		return ""
	}
	for _, pe := range f.BGP.Peers {
		for _, a := range pe.Policies {
			if a.Line == line {
				return a.Policy
			}
		}
	}
	for _, g := range f.BGP.Groups {
		for _, a := range g.Policies {
			if a.Line == line {
				return a.Policy
			}
		}
	}
	return ""
}

// describeEdits renders an update description: "template @ device:line",
// then " (detail)" unless detail is empty.
func describeEdits(template string, anchor netcfg.LineRef, detail string) string {
	var buf [128]byte
	b := anchor.AppendTo(append(append(buf[:0], template...), " @ "...))
	if detail != "" {
		b = append(append(append(b, " ("...), detail...), ')')
	}
	return string(b)
}
