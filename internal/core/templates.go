package core

import (
	"net/netip"
	"sort"
	"strconv"

	"acr/internal/errclass"
	"acr/internal/netcfg"
	"acr/internal/verify"
)

// BuiltinTemplates returns the change-template library: one family per
// misconfiguration class of Table 1, learned from the paper's historical
// incident study, in the engine's canonical application order. It is the
// library a run uses when Options.Templates is nil.
func BuiltinTemplates() []Template {
	return []Template{
		SymbolizePrefixList{},
		AddRedistribute{},
		AddStaticOrigination{},
		AddPBRPermitRule{},
		RemovePBRRule{},
		AddPeerToGroup{},
		RemoveGroupMembership{},
		RemovePolicyAttach{},
		FixPeerASN{},
		AttachPolicyLikePeers{},
		CopyPolicyFromRole{},
	}
}

// templateDigests pins the identity of every library template, Table 1's
// and the universal operators'. SearchDigest folds a template's entry into
// the options fingerprint, so a journal written under one generation logic
// is refused by another: whenever a template's Generate changes what it
// proposes, give its entry a new value (the sha256 of its name and a new
// version will do). The values are the descriptor digests the template
// registry used to compute, so journals written before this table still
// resume.
var templateDigests = map[string]string{
	"symbolize-prefix-list":         "2b930b36994d8bfdafb2dc0b976a0d8774ddfd882b567b83820a99d36f9cd4bb",
	"add-redistribute-static":       "1325b7aa9d340017df5a6f36d99c7102afbab2af9c6e5ca82cf8df5a349c228d",
	"add-static-origination":        "5a1808f470fdd6208740c8d063830973038b71e153ec4e5ae80de78013360dc5",
	"add-pbr-permit-rule":           "6193ce0f9aa425ecea1b4125825694f68ab936f523395c5e75b8ee323a5d8696",
	"remove-pbr-rule":               "84fb658677923e700e2571766774240e9089f2a29993d1e8861fe664831ff176",
	"add-peer-to-group":             "078896b8dcea6bce31b4c1738993d0dad84e5f75d7078ace46227db7093cd686",
	"remove-group-membership":       "9f599da5b7cedd42bab15c408cc089595b8d41eb87a9f50a008275671a1901f7",
	"remove-policy-attach":          "d98d16d03beee6ae4e6e20c9450ae1032aaf0b5f892d440d1cb17b0671525ebb",
	"fix-peer-asn":                  "3bf981a0126e245dd1f6ff04e6fbb39b2d2ef64143751a378f57e84e8ee37fd0",
	"attach-policy-like-peers":      "0b74e21b554c3ed34b2887d4b83e0f6147bb62bfed6c86e3e4e8100267ceebe9",
	"copy-policy-from-role":         "7255e0f863ca41797eb2d57062d8d2c383d82ed4151e80f7bafffbd18bd2e44f",
	"universal-delete-line":         "b5e8730b804c396d8f80e3694a7b63bc1fdfc17ac5ec0f16197057135fc25319",
	"universal-copy-from-role-peer": "162cbb47edf445b2ecc87e605c23f73de1209bd0883eea7e80d2269797567670",
}

// TemplateDigest returns the pinned identity of a library template, or ""
// for any other name.
func TemplateDigest(name string) string { return templateDigests[name] }

// --- Table 1: "Missing items in ip prefix-list" (and the Figure 2 repair) --

// SymbolizePrefixList is the paper's flagship template (§5 step 2): it
// symbolizes the membership of a prefix-list referenced at the suspicious
// line and solves P ∧ ¬F over the provenance-derived constraints.
type SymbolizePrefixList struct{}

// Name implements Template.
func (SymbolizePrefixList) Name() string { return "symbolize-prefix-list" }

// ErrorClass implements Template.
func (SymbolizePrefixList) ErrorClass() errclass.Class { return errclass.MissingPrefixListItem }

// Generate implements Template.
func (SymbolizePrefixList) Generate(ctx *Context, line netcfg.LineRef) []Update {
	f := ctx.Files[line.Device]
	if f == nil {
		return nil
	}
	var out []Update
	for _, list := range listsAnchoredAt(f, line.Line) {
		solved := ctx.solveList(line.Device, list)
		if !solved.ok {
			continue
		}
		edits := rewriteListEdits(f, list, solved.want)
		if len(edits) == 0 {
			continue
		}
		out = append(out, Update{
			Edits: []netcfg.EditSet{{Device: line.Device, Edits: edits}},
			Desc:  describeEdits("symbolize-prefix-list["+list+"]", line, solved.constraints),
		})
	}
	return out
}

// --- Table 1: "Missing redistribution of static route" ----------------------

// AddRedistribute inserts `redistribute static` into a bgp block that has
// static routes but no redistribution, when a failing test's destination
// is covered by one of those statics.
type AddRedistribute struct{}

// Name implements Template.
func (AddRedistribute) Name() string { return "add-redistribute-static" }

// ErrorClass implements Template.
func (AddRedistribute) ErrorClass() errclass.Class { return errclass.MissingRedistribution }

// Generate implements Template.
func (AddRedistribute) Generate(ctx *Context, line netcfg.LineRef) []Update {
	f := ctx.Files[line.Device]
	if f == nil || f.BGP == nil || f.BGP.Redistribute != nil || len(f.Statics) == 0 {
		return nil
	}
	switch Classify(f, line.Line) {
	case RoleStaticRoute, RoleBGPHeader, RolePeerASN:
	default:
		return nil
	}
	relevant := false
	for _, v := range ctx.FailingVerdicts() {
		for _, s := range f.Statics {
			if s.Prefix.IsValid() && v.Intent.DstPrefix.IsValid() && s.Prefix.Overlaps(v.Intent.DstPrefix) {
				relevant = true
			}
		}
	}
	if !relevant {
		return nil
	}
	return []Update{{
		Edits: []netcfg.EditSet{{Device: line.Device, Edits: []netcfg.Edit{
			netcfg.InsertBefore{At: f.BGP.End + 1, Text: " redistribute static"},
		}}},
		Desc: describeEdits("add-redistribute-static", line, ""),
	}}
}

// AddStaticOrigination inserts a static route (and relies on an existing
// `redistribute static`) for a failing destination prefix this device is
// the topological origin of — the complement of AddRedistribute when the
// static itself is the missing line.
type AddStaticOrigination struct{}

// Name implements Template.
func (AddStaticOrigination) Name() string { return "add-static-origination" }

// ErrorClass implements Template.
func (AddStaticOrigination) ErrorClass() errclass.Class { return errclass.MissingRedistribution }

// Generate implements Template.
func (AddStaticOrigination) Generate(ctx *Context, line netcfg.LineRef) []Update {
	f := ctx.Files[line.Device]
	if f == nil || f.BGP == nil || f.BGP.Redistribute == nil {
		return nil
	}
	switch Classify(f, line.Line) {
	case RoleRedistribute, RoleBGPHeader:
	default:
		return nil
	}
	cfg := ctx.Configs[line.Device]
	var out []Update
	for _, v := range ctx.FailingVerdicts() {
		if v.Prefix.IsValid() {
			continue // prefix exists somewhere; absence is not the issue
		}
		dst := v.Intent.DstPrefix.Masked()
		origin := ctx.Topo.OriginOfPrefix(dst)
		if origin == nil || origin.Name != line.Device {
			continue
		}
		covered := false
		for _, s := range f.Statics {
			if s.Prefix == dst {
				covered = true
			}
		}
		if covered {
			continue
		}
		out = append(out, Update{
			Edits: []netcfg.EditSet{{Device: line.Device, Edits: []netcfg.Edit{
				netcfg.InsertBefore{At: cfg.NumLines() + 1, Text: "ip route static " + dst.String() + " null0"},
			}}},
			Desc: describeEdits("add-static-origination["+dst.String()+"]", line, ""),
		})
	}
	return out
}

// --- Table 1: "Missing permit rules in PBR" ---------------------------------

// AddPBRPermitRule inserts a permit rule steering a failing waypoint
// flow's header space to the waypoint, when the waypoint is adjacent.
type AddPBRPermitRule struct{}

// Name implements Template.
func (AddPBRPermitRule) Name() string { return "add-pbr-permit-rule" }

// ErrorClass implements Template.
func (AddPBRPermitRule) ErrorClass() errclass.Class { return errclass.MissingPBRPermit }

// Generate implements Template.
func (AddPBRPermitRule) Generate(ctx *Context, line netcfg.LineRef) []Update {
	f := ctx.Files[line.Device]
	if f == nil {
		return nil
	}
	var pol *netcfg.PBRPolicy
	switch Classify(f, line.Line) {
	case RolePBRPolicy, RolePBRRule, RolePBRRuleBody:
		for _, p := range f.PBRPolicies {
			if line.Line >= p.Line && line.Line <= p.End {
				pol = p
			}
		}
	case RoleInterface:
		for _, itf := range f.Interfaces {
			if line.Line >= itf.Line && line.Line <= itf.End && itf.PBRPolicy != "" {
				pol = f.PBRPolicyByName(itf.PBRPolicy)
			}
		}
	}
	if pol == nil {
		return nil
	}
	var out []Update
	for _, v := range ctx.FailingVerdicts() {
		if v.Intent.Kind != verify.Waypoint || v.Intent.Via == "" {
			continue
		}
		// The waypoint must be adjacent to this device for a local
		// redirect to be expressible.
		var nh netip.Addr
		for _, adj := range ctx.Topo.Adjacencies(line.Device) {
			if adj.PeerNode == v.Intent.Via {
				nh = adj.PeerAddr
			}
		}
		if !nh.IsValid() {
			continue
		}
		idx := 1
		for _, r := range pol.Rules {
			if r.Index >= idx {
				idx = r.Index + 10
			}
		}
		dst := v.Intent.DstPrefix.Masked()
		rule := []netcfg.Edit{
			netcfg.InsertBefore{At: pol.Line + 1, Text: " rule " + strconv.Itoa(idx) + " permit"},
			netcfg.InsertBefore{At: pol.Line + 1, Text: "  match destination " + dst.String()},
		}
		if v.Intent.DstPort != 0 {
			rule = append(rule, netcfg.InsertBefore{At: pol.Line + 1, Text: "  match dst-port " + strconv.Itoa(int(v.Intent.DstPort))})
		}
		rule = append(rule, netcfg.InsertBefore{At: pol.Line + 1, Text: "  apply next-hop " + nh.String()})
		out = append(out, Update{
			Edits: []netcfg.EditSet{{Device: line.Device, Edits: rule}},
			Desc:  describeEdits("add-pbr-permit-rule["+dst.String()+"]", line, "via "+v.Intent.Via),
		})
	}
	return out
}

// --- Table 1: "Extra redirect rule in PBR" -----------------------------------

// RemovePBRRule deletes the PBR rule containing the suspicious line.
type RemovePBRRule struct{}

// Name implements Template.
func (RemovePBRRule) Name() string { return "remove-pbr-rule" }

// ErrorClass implements Template.
func (RemovePBRRule) ErrorClass() errclass.Class { return errclass.ExtraPBRRedirect }

// Generate implements Template.
func (RemovePBRRule) Generate(ctx *Context, line netcfg.LineRef) []Update {
	f := ctx.Files[line.Device]
	if f == nil {
		return nil
	}
	switch Classify(f, line.Line) {
	case RolePBRRule, RolePBRRuleBody:
	default:
		return nil
	}
	for _, pol := range f.PBRPolicies {
		for _, r := range pol.Rules {
			if line.Line < r.Line || line.Line > r.End {
				continue
			}
			var edits []netcfg.Edit
			for l := r.Line; l <= r.End; l++ {
				edits = append(edits, netcfg.DeleteLine{At: l})
			}
			return []Update{{
				Edits: []netcfg.EditSet{{Device: line.Device, Edits: edits}},
				Desc:  describeEdits("remove-pbr-rule["+strconv.Itoa(r.Index)+"]", line, ""),
			}}
		}
	}
	return nil
}

// --- Table 1: "Missing peer group" -------------------------------------------

// AddPeerToGroup inserts group membership for an ungrouped peer, one
// candidate per existing group.
type AddPeerToGroup struct{}

// Name implements Template.
func (AddPeerToGroup) Name() string { return "add-peer-to-group" }

// ErrorClass implements Template.
func (AddPeerToGroup) ErrorClass() errclass.Class { return errclass.MissingPeerGroup }

// Generate implements Template.
func (AddPeerToGroup) Generate(ctx *Context, line netcfg.LineRef) []Update {
	f := ctx.Files[line.Device]
	if f == nil || f.BGP == nil || Classify(f, line.Line) != RolePeerASN {
		return nil
	}
	var peer *netcfg.Peer
	for _, p := range f.BGP.Peers {
		if p.ASNLine == line.Line {
			peer = p
		}
	}
	if peer == nil || peer.Group != "" {
		return nil
	}
	var out []Update
	for _, g := range f.BGP.Groups {
		out = append(out, Update{
			Edits: []netcfg.EditSet{{Device: line.Device, Edits: []netcfg.Edit{
				netcfg.InsertBefore{At: line.Line + 1, Text: " peer " + peer.Addr.String() + " group " + g.Name},
			}}},
			Desc: describeEdits("add-peer-to-group["+g.Name+"]", line, ""),
		})
	}
	return out
}

// --- Table 1: "Extra items in peer group" --------------------------------------

// RemoveGroupMembership deletes a `peer <ip> group <g>` line.
type RemoveGroupMembership struct{}

// Name implements Template.
func (RemoveGroupMembership) Name() string { return "remove-group-membership" }

// ErrorClass implements Template.
func (RemoveGroupMembership) ErrorClass() errclass.Class { return errclass.ExtraPeerGroupItem }

// Generate implements Template.
func (RemoveGroupMembership) Generate(ctx *Context, line netcfg.LineRef) []Update {
	f := ctx.Files[line.Device]
	if f == nil || Classify(f, line.Line) != RolePeerGroupMembership {
		return nil
	}
	return []Update{{
		Edits: []netcfg.EditSet{{Device: line.Device, Edits: []netcfg.Edit{netcfg.DeleteLine{At: line.Line}}}},
		Desc:  describeEdits("remove-group-membership", line, ""),
	}}
}

// --- Table 1: "Fail to dis-enable route map" -----------------------------------

// RemovePolicyAttach deletes a route-policy attachment line (the leftover
// maintenance route-map case).
type RemovePolicyAttach struct{}

// Name implements Template.
func (RemovePolicyAttach) Name() string { return "remove-policy-attach" }

// ErrorClass implements Template.
func (RemovePolicyAttach) ErrorClass() errclass.Class { return errclass.LeftoverRouteMap }

// Generate implements Template.
func (RemovePolicyAttach) Generate(ctx *Context, line netcfg.LineRef) []Update {
	f := ctx.Files[line.Device]
	if f == nil || Classify(f, line.Line) != RolePolicyAttach {
		return nil
	}
	return []Update{{
		Edits: []netcfg.EditSet{{Device: line.Device, Edits: []netcfg.Edit{netcfg.DeleteLine{At: line.Line}}}},
		Desc:  describeEdits("remove-policy-attach["+attachedPolicyAt(f, line.Line)+"]", line, ""),
	}}
}

// --- Table 1: "Override to wrong AS number" -------------------------------------

// FixPeerASN symbolizes the AS number of a failed session's peer stanza
// and solves it: the only satisfying value is the neighbor's actual AS.
type FixPeerASN struct{}

// Name implements Template.
func (FixPeerASN) Name() string { return "fix-peer-asn" }

// ErrorClass implements Template.
func (FixPeerASN) ErrorClass() errclass.Class { return errclass.WrongASNumber }

// Generate implements Template.
func (FixPeerASN) Generate(ctx *Context, line netcfg.LineRef) []Update {
	f := ctx.Files[line.Device]
	if f == nil || f.BGP == nil || Classify(f, line.Line) != RolePeerASN {
		return nil
	}
	var peer *netcfg.Peer
	for _, p := range f.BGP.Peers {
		if p.ASNLine == line.Line {
			peer = p
		}
	}
	if peer == nil {
		return nil
	}
	// Only failed sessions warrant an AS fix.
	failed := false
	for _, fs := range ctx.Net.Failed {
		if fs.Router == line.Device && fs.PeerAddr == peer.Addr {
			failed = true
		}
	}
	if !failed {
		return nil
	}
	var neighborASN uint32
	for _, adj := range ctx.Topo.Adjacencies(line.Device) {
		if adj.PeerAddr == peer.Addr {
			if nf := ctx.Files[adj.PeerNode]; nf != nil && nf.BGP != nil {
				neighborASN = nf.BGP.ASN
			}
		}
	}
	if neighborASN == 0 || neighborASN == peer.ASN {
		return nil
	}
	// The session-establishment constraint asn = neighborASN is its own
	// solution.
	asn := strconv.FormatUint(uint64(neighborASN), 10)
	return []Update{{
		Edits: []netcfg.EditSet{{Device: line.Device, Edits: []netcfg.Edit{
			netcfg.ReplaceLine{At: line.Line, Text: " peer " + peer.Addr.String() + " as-number " + asn},
		}}},
		Desc: describeEdits("fix-peer-asn["+asn+"]", line, ""),
	}}
}

// --- Table 1: "Missing a routing policy" (two plastic-surgery variants) ---------

// AttachPolicyLikePeers attaches a policy to a group the way same-role
// devices do — the plastic surgery hypothesis (§6): devices sharing a role
// share configuration shape, so a missing attachment is reconstructed
// from a role peer.
type AttachPolicyLikePeers struct{}

// Name implements Template.
func (AttachPolicyLikePeers) Name() string { return "attach-policy-like-peers" }

// ErrorClass implements Template.
func (AttachPolicyLikePeers) ErrorClass() errclass.Class { return errclass.MissingRoutingPolicy }

// Generate implements Template.
func (AttachPolicyLikePeers) Generate(ctx *Context, line netcfg.LineRef) []Update {
	f := ctx.Files[line.Device]
	if f == nil || f.BGP == nil {
		return nil
	}
	switch Classify(f, line.Line) {
	case RoleGroupDecl, RolePeerASN, RolePeerGroupMembership, RoleBGPHeader:
	default:
		return nil
	}
	kind := ctx.Topo.Node(line.Device).Kind
	have := map[string]bool{}
	for _, g := range f.BGP.Groups {
		for _, a := range g.Policies {
			have[g.Name+"|"+a.Policy+"|"+a.Direction.String()] = true
		}
	}
	defined := map[string]bool{}
	for _, p := range f.Policies {
		defined[p.Name] = true
	}
	seen := map[string]bool{}
	var out []Update
	for _, other := range ctx.nodesOfKind(kind) {
		if other.Name == line.Device {
			continue
		}
		of := ctx.Files[other.Name]
		if of == nil || of.BGP == nil {
			continue
		}
		for _, og := range of.BGP.Groups {
			myGroup := f.GroupByName(og.Name)
			if myGroup == nil {
				continue
			}
			for _, a := range og.Policies {
				key := og.Name + "|" + a.Policy + "|" + a.Direction.String()
				if have[key] || seen[key] || !defined[a.Policy] {
					continue
				}
				seen[key] = true
				out = append(out, Update{
					Edits: []netcfg.EditSet{{Device: line.Device, Edits: []netcfg.Edit{
						netcfg.InsertBefore{
							At:   f.BGP.End + 1,
							Text: netcfg.FormatGroupPolicyLine(og.Name, a.Policy, a.Direction),
						},
					}}},
					Desc: describeEdits("attach-policy-like-peers["+a.Policy+"]", line, "copied from "+other.Name),
				})
			}
		}
	}
	return out
}

// CopyPolicyFromRole reconstructs a missing route-policy definition (a
// dangling attachment) by copying the policy block — and the prefix-lists
// it matches — from a same-role device that defines it.
type CopyPolicyFromRole struct{}

// Name implements Template.
func (CopyPolicyFromRole) Name() string { return "copy-policy-from-role" }

// ErrorClass implements Template.
func (CopyPolicyFromRole) ErrorClass() errclass.Class { return errclass.MissingRoutingPolicy }

// Generate implements Template.
func (CopyPolicyFromRole) Generate(ctx *Context, line netcfg.LineRef) []Update {
	f := ctx.Files[line.Device]
	if f == nil || Classify(f, line.Line) != RolePolicyAttach {
		return nil
	}
	name := attachedPolicyAt(f, line.Line)
	if name == "" || len(f.PolicyNodes(name)) > 0 {
		return nil // defined; nothing to copy
	}
	kind := ctx.Topo.Node(line.Device).Kind
	cfg := ctx.Configs[line.Device]
	for _, other := range ctx.nodesOfKind(kind) {
		if other.Name == line.Device {
			continue
		}
		of := ctx.Files[other.Name]
		if of == nil || len(of.PolicyNodes(name)) == 0 {
			continue
		}
		ocfg := ctx.Configs[other.Name]
		var lines []string
		listsNeeded := map[string]bool{}
		for _, node := range of.PolicyNodes(name) {
			for l := node.Line; l <= node.End; l++ {
				lines = append(lines, ocfg.Line(l))
			}
			for _, m := range node.Matches {
				if m.Kind == netcfg.MatchIPPrefix && len(f.PrefixListEntries(m.PrefixList)) == 0 {
					listsNeeded[m.PrefixList] = true
				}
			}
		}
		// Sorted: the copied entries become candidate text, and candidate
		// text must not depend on map iteration order.
		lists := make([]string, 0, len(listsNeeded))
		for list := range listsNeeded {
			lists = append(lists, list)
		}
		sort.Strings(lists)
		for _, list := range lists {
			for _, e := range of.PrefixListEntries(list) {
				lines = append(lines, ocfg.Line(e.Line))
			}
		}
		var edits []netcfg.Edit
		at := cfg.NumLines() + 1
		for _, text := range lines {
			edits = append(edits, netcfg.InsertBefore{At: at, Text: text})
		}
		return []Update{{
			Edits: []netcfg.EditSet{{Device: line.Device, Edits: edits}},
			Desc:  describeEdits("copy-policy-from-role["+name+"]", line, "copied from "+other.Name),
		}}
	}
	return nil
}
