package bgp

import (
	"net/netip"

	"acr/internal/netcfg"
)

// matchPrefixList evaluates prefix p against the named list in file f.
// Entries evaluate in ascending index order; the first entry that matches
// decides (permit/deny); an empty or missing list denies. The deciding
// entry's line is traced.
func matchPrefixList(f *netcfg.File, name string, p netip.Prefix, tr *lineRefs) bool {
	for _, e := range f.PrefixListEntries(name) {
		if e.Matches(p) {
			tr.add(f.Device, e.Line)
			return e.Permit
		}
	}
	return false
}

// evalPolicy applies route-policy `name` of file f to route r.
//
// Semantics (documented in DESIGN.md): nodes evaluate in ascending node
// order; the first node whose match clauses all hold decides. A permit
// node applies its apply clauses; a deny node rejects the route. When no
// node matches, the route is accepted UNCHANGED (implicit permit). This
// matches the paper's narrative for the Figure 2 repair: after the
// prefix-list is restricted, non-matching routes are imported un-rewritten
// rather than dropped. A reference to an undefined policy is a no-op
// permit (File.Validate flags it).
//
// The returned route is a copy when modified; the input is never mutated.
func evalPolicy(f *netcfg.File, name string, r *Route, tr *lineRefs) (*Route, bool) {
	nodes := f.PolicyNodes(name)
	if len(nodes) == 0 {
		return r, true
	}
	for _, n := range nodes {
		if !nodeMatches(f, n, r, tr) {
			continue
		}
		tr.add(f.Device, n.Line)
		if !n.Permit {
			return nil, false
		}
		out := r.clone()
		for _, a := range n.Applies {
			tr.add(f.Device, a.Line)
			switch a.Kind {
			case netcfg.ApplyASPathOverwrite:
				out.ASPath = []uint32{a.ASN}
			case netcfg.ApplyASPathPrepend:
				pre := make([]uint32, 0, a.Count+len(out.ASPath))
				for i := 0; i < a.Count; i++ {
					pre = append(pre, a.ASN)
				}
				out.ASPath = append(pre, out.ASPath...)
			case netcfg.ApplyLocalPref:
				out.LocalPref = a.Value
			case netcfg.ApplyMED:
				out.MED = a.Value
			}
		}
		return out, true
	}
	return r, true
}

// nodeMatches reports whether every match clause of node n holds for r.
// A node with no match clauses always matches. Match lines are traced only
// when the whole node matches (the trace is rebuilt on success so partial
// matches leave nothing behind).
func nodeMatches(f *netcfg.File, n *netcfg.RoutePolicy, r *Route, tr *lineRefs) bool {
	var local *lineRefs // nil, tracing nothing, when the caller traces nothing
	if tr != nil {
		local = &lineRefs{}
	}
	for _, m := range n.Matches {
		switch m.Kind {
		case netcfg.MatchIPPrefix:
			local.add(f.Device, m.Line)
			if !matchPrefixList(f, m.PrefixList, r.Prefix, local) {
				return false
			}
		}
	}
	if local != nil {
		tr.addRefs(local.refs)
	}
	return true
}

// applyPolicies runs each attachment in order. The first deny rejects the
// route; apply effects accumulate across attachments (in practice a peer
// has at most one policy per direction).
func applyPolicies(f *netcfg.File, attaches []*netcfg.PolicyAttach, r *Route, tr *lineRefs) (*Route, bool) {
	cur := r
	for _, a := range attaches {
		tr.add(f.Device, a.Line)
		next, ok := evalPolicy(f, a.Policy, cur, tr)
		if !ok {
			return nil, false
		}
		cur = next
	}
	return cur, true
}

// processImport models the receive side of an advertisement arriving over
// session s at router r: AS-path loop detection first (standard BGP loop
// prevention — checked on the path as received, BEFORE import policy,
// which is why `apply as-path overwrite` on a previous hop can defeat it),
// then import policies. On acceptance the returned route is the
// advertisement as imported: learned, with the default local preference
// unless a policy set one. Its next hop, peer address and router ID stay
// unset; s supplies them (Session.stamp).
//
// adv must be processExport's fresh copy: the import finishes it in place
// (or a policy's copy of it), so a caller that still needs the advertisement
// as sent passes a clone. A loop rejection leaves adv untouched. The
// boolean reports acceptance.
func processImport(r *Router, s *Session, adv *Route, tr *lineRefs) (*Route, bool) {
	if adv.HasAS(r.ASN) {
		return nil, false
	}
	adv.LocalPref = DefaultLocalPref
	tr.addRefs(s.LocalLines)
	res, ok := applyPolicies(r.File, s.importPols, adv, tr)
	if !ok {
		return nil, false
	}
	res.Src = SrcPeer
	return res, true
}

// processExport models the send side: export policies, then the sender
// prepends its own AS (so an export-policy prepend adds extras on top).
// Local preference does not cross eBGP sessions and is cleared.
// Returns nil/false when policy suppresses the advertisement.
// The sender's session lines are traced: they are preconditions of the
// advertisement (and of an export-policy suppression — negative
// provenance must reach the group membership that attached the policy).
// The copy and the prepended path are carved from arena a.
func processExport(r *Router, s *Session, best *Route, tr *lineRefs, a *arena) (*Route, bool) {
	tr.addRefs(s.LocalLines)
	res, ok := applyPolicies(r.File, s.exportPols, best, tr)
	if !ok {
		return nil, false
	}
	out := res
	if out == best { // no policy copied it; best stays the sender's RIB value
		out = a.clone(best)
	}
	path := a.path(len(out.ASPath) + 1)
	path[0] = r.ASN
	copy(path[1:], out.ASPath)
	out.ASPath = path
	out.LocalPref = 0
	out.Src = SrcPeer
	out.ident = unset
	return out, true
}

// originRoute materializes an origination as a local route.
func originRoute(r *Router, o Origination, tr *lineRefs) (*Route, bool) {
	tr.addRefs(o.Lines)
	rt := &Route{
		Prefix:    o.Prefix,
		ASPath:    nil,
		LocalPref: DefaultLocalPref,
		Origin:    o.Origin,
		Src:       SrcLocal,
		ident:     o.id,
	}
	if o.Policy != "" {
		return evalPolicy(r.File, o.Policy, rt, tr)
	}
	return rt, true
}
