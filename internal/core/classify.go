// Package core implements the paper's contribution: Automatic
// Configuration Repair via localize–fix–validate (Figure 4 of the paper).
//
//   - Localize: run the intent suite as tests, build the coverage spectrum
//     from provenance, score every configuration line with SBFL
//     (Tarantula by default).
//   - Fix: apply change templates — one per misconfiguration class of
//     Table 1 — to the most suspicious lines. Parameter values (prefix
//     sets, AS numbers) are solved locally from constraints collected
//     over the provenance of passing and failing tests (P ∧ ¬F); the
//     constraints are literals over one variable, so each answer is read
//     off them in closed form.
//   - Validate: check every candidate with the incremental verifier;
//     fitness is the number of failing tests; candidates whose fitness
//     exceeds the previous iteration's are discarded.
//
// The engine iterates until a feasible update is found (fitness 0), no
// candidates remain, or the iteration cap (500, per the paper) is hit.
package core

import (
	"acr/internal/netcfg"
)

// LineRole classifies what construct a configuration line is part of, so
// templates can decide applicability.
type LineRole uint8

// Line roles.
const (
	RoleUnknown LineRole = iota
	RoleBGPHeader
	RolePeerASN
	RolePeerGroupMembership
	RoleGroupDecl
	RolePolicyAttach // peer or peer-group route-policy attachment
	RoleNetworkStmt
	RoleRedistribute
	RolePolicyNode
	RolePolicyMatch
	RolePolicyApply
	RolePrefixListEntry
	RoleStaticRoute
	RolePBRPolicy
	RolePBRRule
	RolePBRRuleBody
	RoleInterface
)

// String names the role.
func (r LineRole) String() string {
	switch r {
	case RoleBGPHeader:
		return "bgp-header"
	case RolePeerASN:
		return "peer-asn"
	case RolePeerGroupMembership:
		return "peer-group-membership"
	case RoleGroupDecl:
		return "group-decl"
	case RolePolicyAttach:
		return "policy-attach"
	case RoleNetworkStmt:
		return "network"
	case RoleRedistribute:
		return "redistribute"
	case RolePolicyNode:
		return "policy-node"
	case RolePolicyMatch:
		return "policy-match"
	case RolePolicyApply:
		return "policy-apply"
	case RolePrefixListEntry:
		return "prefix-list-entry"
	case RoleStaticRoute:
		return "static-route"
	case RolePBRPolicy:
		return "pbr-policy"
	case RolePBRRule:
		return "pbr-rule"
	case RolePBRRuleBody:
		return "pbr-rule-body"
	case RoleInterface:
		return "interface"
	}
	return "unknown"
}

// Classify determines the role of a 1-based line in a parsed file.
func Classify(f *netcfg.File, line int) LineRole {
	if f == nil {
		return RoleUnknown
	}
	if b := f.BGP; b != nil {
		if b.Line == line {
			return RoleBGPHeader
		}
		for _, p := range b.Peers {
			if p.ASNLine == line {
				return RolePeerASN
			}
			if p.GroupLine == line {
				return RolePeerGroupMembership
			}
			for _, a := range p.Policies {
				if a.Line == line {
					return RolePolicyAttach
				}
			}
		}
		for _, g := range b.Groups {
			for _, a := range g.Policies {
				if a.Line == line {
					return RolePolicyAttach
				}
			}
			if g.Line == line {
				return RoleGroupDecl
			}
		}
		for _, n := range b.Networks {
			if n.Line == line {
				return RoleNetworkStmt
			}
		}
		if b.Redistribute != nil && b.Redistribute.Line == line {
			return RoleRedistribute
		}
	}
	for _, p := range f.Policies {
		if p.Line == line {
			return RolePolicyNode
		}
		for _, m := range p.Matches {
			if m.Line == line {
				return RolePolicyMatch
			}
		}
		for _, a := range p.Applies {
			if a.Line == line {
				return RolePolicyApply
			}
		}
	}
	for _, e := range f.PrefixLists {
		if e.Line == line {
			return RolePrefixListEntry
		}
	}
	for _, s := range f.Statics {
		if s.Line == line {
			return RoleStaticRoute
		}
	}
	for _, pol := range f.PBRPolicies {
		if pol.Line == line {
			return RolePBRPolicy
		}
		for _, r := range pol.Rules {
			if r.Line == line {
				return RolePBRRule
			}
			if line > r.Line && line <= r.End {
				return RolePBRRuleBody
			}
		}
	}
	for _, i := range f.Interfaces {
		if line >= i.Line && line <= i.End {
			return RoleInterface
		}
	}
	return RoleUnknown
}
