package analysis_test

import (
	"reflect"
	"sort"
	"strings"
	"testing"

	"acr/internal/netcfg"
)

// TestImpactCoversASTSurface pins the full field inventory of the parsed
// configuration AST (everything reachable from netcfg.File). Two layers
// compute semantic diffs over exactly these fields: the impact analysis
// (internal/analysis/impact.go), whose diff prunes the candidate space,
// and the delta re-simulation seed (internal/verify, which derives the
// dirty device set a delta run re-activates from the edited configs). A
// field neither layer knows about is silently ignored, which makes the
// impact set and the dirty frontier too narrow — the unsound direction
// for both. Adding a field to the AST therefore must fail THIS test until
// someone (a) extends the impact diff to account for the new field, or
// convinces themselves the existing handling subsumes it, (b) confirms
// the delta path re-activates every router the field can influence (the
// dirty set is per-device, so per-device fields are covered; anything
// with cross-device reach needs explicit handling), and (c) adds the
// field to the inventory below. The soundness audit (TestSoundnessAudit)
// would eventually catch a missed field too, but only if the corpus happens
// to exercise it; this guard catches it at compile-adjacent time.
func TestImpactCoversASTSurface(t *testing.T) {
	known := []string{
		"ApplyClause.ASN",
		"ApplyClause.Count",
		"ApplyClause.Kind",
		"ApplyClause.Line",
		"ApplyClause.Value",
		"BGPBlock.ASN",
		"BGPBlock.End",
		"BGPBlock.Groups",
		"BGPBlock.Line",
		"BGPBlock.Networks",
		"BGPBlock.Peers",
		"BGPBlock.Redistribute",
		"BGPBlock.RouterID",
		"BGPBlock.RouterIDLine",
		"DropApply.Line",
		"File.BGP",
		"File.Device",
		"File.Interfaces",
		// Metadata, not semantics: the document's length sizes the line
		// space localization numbers lines in, and an edited device is
		// re-parsed, so its count is never stale.
		"File.NumLines",
		"File.PBRPolicies",
		"File.Policies",
		"File.PrefixLists",
		"File.Statics",
		"Interface.Addr",
		"Interface.AddrLine",
		"Interface.End",
		"Interface.Line",
		"Interface.Name",
		"Interface.PBRLine",
		"Interface.PBRPolicy",
		"Interface.ShutLine",
		"Interface.Shutdown",
		"MatchClause.Kind",
		"MatchClause.Line",
		"MatchClause.PrefixList",
		"NetworkStmt.Line",
		"NetworkStmt.Prefix",
		"NextHopApply.Line",
		"NextHopApply.NextHop",
		"PBRPolicy.End",
		"PBRPolicy.Line",
		"PBRPolicy.Name",
		"PBRPolicy.Rules",
		"PBRRule.ApplyDrop",
		"PBRRule.ApplyNextHop",
		"PBRRule.End",
		"PBRRule.Index",
		"PBRRule.Line",
		"PBRRule.MatchDest",
		"PBRRule.MatchDstPort",
		"PBRRule.MatchProto",
		"PBRRule.MatchSource",
		"PBRRule.Permit",
		"PeerGroup.External",
		"PeerGroup.Line",
		"PeerGroup.Name",
		"PeerGroup.Policies",
		"Peer.ASN",
		"Peer.ASNLine",
		"Peer.Addr",
		"Peer.Group",
		"Peer.GroupLine",
		"Peer.Policies",
		"PolicyAttach.Direction",
		"PolicyAttach.Line",
		"PolicyAttach.Policy",
		"PortMatch.Line",
		"PortMatch.Port",
		"PrefixList.GE",
		"PrefixList.Index",
		"PrefixList.LE",
		"PrefixList.Line",
		"PrefixList.Name",
		"PrefixList.Permit",
		"PrefixList.Prefix",
		"PrefixMatch.Line",
		"PrefixMatch.Prefix",
		"ProtoMatch.Line",
		"ProtoMatch.Proto",
		"RedistributeStmt.Line",
		"RedistributeStmt.Policy",
		"RoutePolicy.Applies",
		"RoutePolicy.End",
		"RoutePolicy.Line",
		"RoutePolicy.Matches",
		"RoutePolicy.Name",
		"RoutePolicy.Node",
		"RoutePolicy.Permit",
		"StaticRoute.Line",
		"StaticRoute.NextHop",
		"StaticRoute.Null0",
		"StaticRoute.Prefix",
	}
	got := astFields(reflect.TypeOf(netcfg.File{}))
	sort.Strings(got)
	sort.Strings(known)
	if !reflect.DeepEqual(got, known) {
		missing := diffSets(got, known)
		stale := diffSets(known, got)
		if len(missing) > 0 {
			t.Errorf("netcfg AST grew fields the impact analysis and delta re-simulation have never reviewed: %v\n"+
				"Extend the semantic diff in internal/analysis/impact.go to account for them "+
				"(or document why existing handling subsumes them), confirm the delta dirty-set "+
				"derivation in internal/verify re-activates every router the fields can influence, "+
				"then add them to this inventory.",
				missing)
		}
		if len(stale) > 0 {
			t.Errorf("inventory lists fields the AST no longer has: %v — remove them here", stale)
		}
	}
}

// astFields walks the exported struct fields reachable from root (through
// pointers, slices, and maps), confined to the netcfg package, and returns
// them as "Type.Field" strings.
func astFields(root reflect.Type) []string {
	seen := map[reflect.Type]bool{}
	var out []string
	var walk func(t reflect.Type)
	walk = func(t reflect.Type) {
		switch t.Kind() {
		case reflect.Pointer, reflect.Slice, reflect.Array, reflect.Map:
			walk(t.Elem())
			return
		case reflect.Struct:
		default:
			return
		}
		if !strings.HasSuffix(t.PkgPath(), "internal/netcfg") || seen[t] {
			return
		}
		seen[t] = true
		for i := 0; i < t.NumField(); i++ {
			f := t.Field(i)
			if !f.IsExported() {
				continue
			}
			out = append(out, t.Name()+"."+f.Name)
			walk(f.Type)
		}
	}
	walk(root)
	return out
}

// diffSets returns the elements of a that are not in b (both sorted or not).
func diffSets(a, b []string) []string {
	in := map[string]bool{}
	for _, s := range b {
		in[s] = true
	}
	var out []string
	for _, s := range a {
		if !in[s] {
			out = append(out, s)
		}
	}
	return out
}
