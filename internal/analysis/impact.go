package analysis

import (
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"net/netip"
	"slices"
	"sort"
	"strings"

	"acr/internal/netcfg"
	"acr/internal/topo"
)

// This file implements the candidate impact analysis: a static dataflow
// pass that, given the parsed base configurations and a candidate's parsed
// post-edit configurations, computes an over-approximate *impact set* —
// the prefixes, devices, and session state the edit can possibly influence
// — without running a single simulation.
//
// The analysis is a semantic AST diff interpreted through the simulator's
// own consumption structure. Simulation output is a pure function of
// (topology, parsed files), so two configurations with semantically equal
// ASTs behave identically; only constructs that differ can change
// behavior, and each construct kind has a statically known influence
// channel:
//
//   - session identity (BGP presence, ASN, peer stanzas, interface
//     shutdown) gates which sessions establish → the whole connected
//     component of the device is in scope and the session set may change;
//   - route selection inputs (router-id, policy attachments, peer groups)
//     reshape best-path decisions for any prefix routed in the component;
//   - originations (network statements, redistributed statics) scope to
//     the prefixes they name;
//   - route-policy nodes and prefix-list entries scope to the prefixes
//     their match clauses can accept — and to nothing at all when the
//     policy is attached nowhere (dormant code);
//   - dataplane constructs (statics without redistribution, PBR, interface
//     addresses) never touch the control plane: they scope to the edited
//     device's forwarding decisions only.
//
// Cross-device propagation is bounded by the topology's influence graph
// (topo.InfluenceGraph): BGP routes travel only over adjacencies, so a
// device's connected component is a sound influence bound. The component
// relation is computed over *all* adjacencies — configured or not —
// because an edit can bring a session up where none exists today, but can
// never create a physical link.
//
// Soundness is enforced downstream, not assumed here: the incremental
// verifier cross-checks the predicted impact against the derived network
// (whether bgp.Net.Derive kept the sessions, origination diff) and falls
// back to a full re-simulation on any mismatch; the soundness audit
// (internal/oracle, TestSoundnessAudit) holds every pruned decision to a
// from-scratch check.

// Impact is the over-approximate blast radius of one candidate edit set.
// The zero value means "provably no behavioral change".
type Impact struct {
	// Broad marks an impact the analysis could not scope (unknown device,
	// pathological AST): everything must be re-checked.
	Broad bool
	// SessionsMayChange reports that the edit touches session-identity
	// inputs, so the established-session set of the new network may differ
	// from the base. When false, the verifier treats a session change
	// (bgp.Net.Derive refusing) as an analyzer defect and degrades to a
	// full check.
	SessionsMayChange bool
	// Prefixes are the base-universe origination prefixes whose routes the
	// edit can influence, every changed literal in the universe included;
	// only these need re-simulation.
	Prefixes map[netip.Prefix]bool
	// Literals are origination prefixes the edit adds or removes (network
	// statements, redistributed statics): the prefixes that may enter or
	// leave the universe. The verifier degrades to a full check when one
	// that does is not predicted here.
	Literals map[netip.Prefix]bool
	// DataplaneDevices are devices whose forwarding decisions may change
	// independently of any route (statics, PBR, interface bindings).
	// Intents whose traces visit one must be re-verified.
	DataplaneDevices map[string]bool
	// LocalDevices are leaf (non-transit) devices whose control plane
	// changed: every prefix routed in their component may change, but only
	// as observed *at* these devices — the rest of the network sees a
	// difference only through the prefixes the leaf originates (already in
	// Prefixes). Intents that observe a local device (global checks, flows
	// injected there, flows whose base traces visit it) must re-verify with
	// fresh simulations of the prefixes they consult.
	LocalDevices map[string]bool
}

// newImpact returns an empty, fully allocated impact set.
func newImpact() *Impact {
	return &Impact{
		Prefixes:         map[netip.Prefix]bool{},
		Literals:         map[netip.Prefix]bool{},
		DataplaneDevices: map[string]bool{},
		LocalDevices:     map[string]bool{},
	}
}

// String renders the impact compactly for logs and stats.
func (im *Impact) String() string {
	if im.Broad {
		return "broad"
	}
	return fmt.Sprintf("prefixes=%d literals=%d dataplane=%d locals=%d sessions=%v",
		len(im.Prefixes), len(im.Literals), len(im.DataplaneDevices),
		len(im.LocalDevices), im.SessionsMayChange)
}

// Digest returns a canonical SHA-256 of the impact set. Two candidates
// with equal digests influence the same slice of the network; the digest
// is stable across map iteration order.
func (im *Impact) Digest() string {
	h := sha256.New()
	fmt.Fprintf(h, "broad=%v sessions=%v\n", im.Broad, im.SessionsMayChange)
	writePrefixes := func(label string, m map[netip.Prefix]bool) {
		ps := make([]netip.Prefix, 0, len(m))
		for p := range m { //acrvet:ordered — collected then sorted below
			ps = append(ps, p)
		}
		sortPrefixes(ps)
		fmt.Fprintf(h, "%s:", label)
		for _, p := range ps {
			fmt.Fprintf(h, " %s", p)
		}
		fmt.Fprintln(h)
	}
	writeDevices := func(label string, m map[string]bool) {
		ds := make([]string, 0, len(m))
		for d := range m { //acrvet:ordered — collected then sorted below
			ds = append(ds, d)
		}
		sort.Strings(ds)
		fmt.Fprintf(h, "%s: %s\n", label, strings.Join(ds, " "))
	}
	writePrefixes("prefixes", im.Prefixes)
	writePrefixes("literals", im.Literals)
	writeDevices("dataplane", im.DataplaneDevices)
	writeDevices("locals", im.LocalDevices)
	return hex.EncodeToString(h.Sum(nil))
}

func sortPrefixes(ps []netip.Prefix) {
	sort.Slice(ps, func(i, j int) bool {
		if ps[i].Addr() != ps[j].Addr() {
			return ps[i].Addr().Less(ps[j].Addr())
		}
		return ps[i].Bits() < ps[j].Bits()
	})
}

// ImpactAnalyzer computes impact sets against a fixed verified base. Build
// one per base (it indexes the base once); Compare is read-only and safe
// for concurrent use from multiple goroutines.
type ImpactAnalyzer struct {
	base     map[string]*netcfg.File
	universe []netip.Prefix
	origins  map[netip.Prefix][]string
	graph    *topo.InfluenceGraph

	// compSets holds, by component id, the universe prefixes originated
	// inside the component — the set a component-wide change can influence
	// (see compPrefixes). Precomputed eagerly so Compare stays lock-free.
	compSets []map[netip.Prefix]bool
}

// NewImpactAnalyzer indexes a verified base: its parsed files, the
// origination universe (prefix → originating devices), and the
// topology's influence graph.
func NewImpactAnalyzer(base map[string]*netcfg.File, universe []netip.Prefix, origins map[netip.Prefix][]string, graph *topo.InfluenceGraph) *ImpactAnalyzer {
	a := &ImpactAnalyzer{
		base:     base,
		universe: append([]netip.Prefix(nil), universe...),
		origins:  origins,
		graph:    graph,
		compSets: make([]map[netip.Prefix]bool, graph.NumComponents()),
	}
	// One set per component: a prefix is in a component's set when one of
	// its origins is in the component. A prefix with no known origin, or
	// one originated outside the graph, is conservatively in every set.
	for c := range a.compSets {
		a.compSets[c] = map[netip.Prefix]bool{}
	}
	for _, p := range a.universe {
		devs := origins[p]
		everywhere := len(devs) == 0
		for _, d := range devs {
			c, ok := graph.Component(d)
			if !ok {
				everywhere = true
				break
			}
			a.compSets[c][p] = true
		}
		if everywhere {
			for _, m := range a.compSets {
				m[p] = true
			}
		}
	}
	return a
}

// compPrefixes returns the universe prefixes originated inside dev's
// component, shared by the component's devices; nil for a device outside
// the graph.
func (a *ImpactAnalyzer) compPrefixes(dev string) map[netip.Prefix]bool {
	if c, ok := a.graph.Component(dev); ok {
		return a.compSets[c]
	}
	return nil
}

// Compare diffs the candidate's parsed files against the base and returns
// the edit's impact set. Devices whose *netcfg.File pointer is unchanged
// are skipped without inspection (the incremental verifier reuses base
// pointers for unedited devices).
func (a *ImpactAnalyzer) Compare(newFiles map[string]*netcfg.File) *Impact {
	im := newImpact()
	devs := make([]string, 0, len(newFiles))
	for d := range newFiles { //acrvet:ordered — collected then sorted below
		devs = append(devs, d)
	}
	sort.Strings(devs)
	for _, dev := range devs {
		f1 := newFiles[dev]
		f0 := a.base[dev]
		if f0 == f1 {
			continue
		}
		if f0 == nil || f1 == nil {
			im.Broad = true
			return im
		}
		a.diffDevice(im, dev, f0, f1)
	}
	return im
}

// --- scope helpers --------------------------------------------------------

// componentScope marks every prefix originated in dev's component: the
// widest sound scope for a control-plane change on dev.
func (a *ImpactAnalyzer) componentScope(im *Impact, dev string) {
	for p := range a.compPrefixes(dev) { //acrvet:ordered
		im.Prefixes[p] = true
	}
}

// controlScope marks a control-plane change on dev with the narrowest
// sound scope. On a transit device that is the full component scope. On a
// leaf (non-transit) device the change escapes only through the prefixes
// the leaf originates — everything the leaf re-advertises goes back toward
// its single neighbor, which drops it on AS-path loop detection (export
// prepends the leaf's ASN) — so only those prefixes are globally affected,
// and every other prefix changes only as observed at the leaf itself
// (recorded in LocalDevices for the verifier's intent triggers).
// Transit-ness is a topology property: edits can reconfigure sessions but
// never create physical links, so it is stable under any candidate.
func (a *ImpactAnalyzer) controlScope(im *Impact, dev string) {
	if a.graph.Transit(dev) {
		a.componentScope(im, dev)
		return
	}
	for _, p := range a.universe {
		for _, d := range a.origins[p] {
			if d == dev {
				im.Prefixes[p] = true
				break
			}
		}
	}
	im.LocalDevices[dev] = true
}

// sessionChange marks a change to session-identity inputs on dev (BGP
// block presence, the device ASN, peer stanza presence and remote-as,
// interface shutdown): the established-session set may change, so the
// change gets full control scope.
func (a *ImpactAnalyzer) sessionChange(im *Impact, dev string) {
	im.SessionsMayChange = true
	a.controlScope(im, dev)
}

// attachesScope scopes a changed attachment list whole: every prefix each
// attached policy can alter, in the file version the list lives in. The
// caller passes the old and the new list; policies common to both are
// scoped too, which costs precision only when the two lists share one.
func (a *ImpactAnalyzer) attachesScope(im *Impact, dev string, f *netcfg.File, attaches []*netcfg.PolicyAttach) {
	for _, at := range attaches {
		a.policyScope(im, dev, f, at.Policy)
	}
}

// policyScope marks the prefixes the policy as a whole can alter. A route
// changes only when the first node matching it is a deny or carries apply
// clauses; a permit node without applies passes the route through
// unchanged — exactly the implicit-permit outcome — so it is transparent
// for whole-policy scoping. (It can pre-empt a later node, but any route
// it shields is matched by that later node too, so the union over
// non-transparent nodes already covers it. Per-node *edits* are different:
// diffPolicies must stay conservative about transparent nodes, whose
// presence reshapes which node fires.)
func (a *ImpactAnalyzer) policyScope(im *Impact, dev string, f *netcfg.File, name string) {
	for _, n := range f.PolicyNodes(name) {
		if n.Permit && len(n.Applies) == 0 {
			continue
		}
		a.nodeScope(im, dev, n, f)
	}
}

// originScope marks a changed origination: universe prefixes overlapping
// lit within dev's component must re-simulate, and so must lit itself
// wherever it is originated, because dev starting or stopping to originate
// it changes its routes in dev's component. lit is recorded so a prefix
// entering or leaving the universe is predicted.
func (a *ImpactAnalyzer) originScope(im *Impact, dev string, lit netip.Prefix) {
	if !lit.IsValid() {
		return
	}
	comp := a.compPrefixes(dev)
	for _, p := range a.universe {
		if p.Overlaps(lit) && (comp[p] || p == lit) {
			im.Prefixes[p] = true
		}
	}
	im.Literals[lit] = true
}

// matchedScope marks the universe prefixes accepted by one prefix-list
// entry, within dev's component.
func (a *ImpactAnalyzer) matchedScope(im *Impact, dev string, e *netcfg.PrefixList) {
	comp := a.compPrefixes(dev)
	for _, p := range a.universe {
		if e.Matches(p) && comp[p] {
			im.Prefixes[p] = true
		}
	}
}

// --- per-device semantic diff ---------------------------------------------

func (a *ImpactAnalyzer) diffDevice(im *Impact, dev string, f0, f1 *netcfg.File) {
	a.diffSessionIdentity(im, dev, f0, f1)
	a.diffRouteSelection(im, dev, f0, f1)
	a.diffOriginations(im, dev, f0, f1)
	a.diffPolicies(im, dev, f0, f1)
	a.diffPrefixLists(im, dev, f0, f1)
	a.diffDataplane(im, dev, f0, f1)
}

// diffSessionIdentity covers every input of bgp session resolution: BGP
// block presence, the local ASN (checked by both ends), peer stanzas
// (address, as-number, group membership feeds no session predicate but is
// diffed under route selection), and interface shutdown state.
func (a *ImpactAnalyzer) diffSessionIdentity(im *Impact, dev string, f0, f1 *netcfg.File) {
	b0, b1 := f0.BGP, f1.BGP
	if (b0 == nil) != (b1 == nil) || asnOf(b0) != asnOf(b1) {
		a.sessionChange(im, dev)
		return
	}
	if b0 == nil {
		return
	}
	p0, dup0 := peersByAddr(b0)
	p1, dup1 := peersByAddr(b1)
	if dup0 || dup1 {
		// Duplicate stanzas for one address: resolution picks the first;
		// diffing per address is unsound, so any textual difference in the
		// peer section is a session change.
		if encodePeers(b0) != encodePeers(b1) {
			a.sessionChange(im, dev)
		}
	} else {
		for addr, s0 := range p0 { //acrvet:ordered — sets flags, emits nothing
			s1 := p1[addr]
			if s1 == nil || s0.ASN != s1.ASN || (s0.ASNLine == 0) != (s1.ASNLine == 0) {
				a.sessionChange(im, dev)
			} else if s0.Group != s1.Group || !eqAttaches(s0.Policies, s1.Policies) {
				// Same session predicates, different effective policies:
				// routes matched by no node of either chain pass through
				// unchanged, so scope to what the two chains match.
				for _, d := range []netcfg.Direction{netcfg.Import, netcfg.Export} {
					a.attachesScope(im, dev, f0, f0.EffectivePolicies(s0, d))
					a.attachesScope(im, dev, f1, f1.EffectivePolicies(s1, d))
				}
			}
		}
		for addr := range p1 { //acrvet:ordered — sets flags, emits nothing
			if p0[addr] == nil {
				a.sessionChange(im, dev)
			}
		}
	}
	// Interface shutdown gates sessions on both ends of an adjacency. A
	// missing block counts as up (bgp.ifaceUp).
	i0 := ifacesByName(f0)
	i1 := ifacesByName(f1)
	shut := func(i *netcfg.Interface) bool { return i != nil && i.Shutdown }
	for name, a0 := range i0 { //acrvet:ordered — sets flags, emits nothing
		if shut(a0) != shut(i1[name]) {
			a.sessionChange(im, dev)
			im.DataplaneDevices[dev] = true
		}
	}
	for name, a1 := range i1 { //acrvet:ordered — sets flags, emits nothing
		if i0[name] == nil && shut(a1) {
			a.sessionChange(im, dev)
			im.DataplaneDevices[dev] = true
		}
	}
}

// diffRouteSelection covers best-path inputs that cannot change the
// session set: router-id (tie-breaking) and peer-group definitions
// (attached policies, external flag).
func (a *ImpactAnalyzer) diffRouteSelection(im *Impact, dev string, f0, f1 *netcfg.File) {
	b0, b1 := f0.BGP, f1.BGP
	if ridOf(b0) != ridOf(b1) {
		a.controlScope(im, dev)
	}
	if b0 == nil || b1 == nil {
		return
	}
	g0, dup0 := groupsByName(b0)
	g1, dup1 := groupsByName(b1)
	if dup0 || dup1 {
		if encodeGroups(b0) != encodeGroups(b1) {
			a.controlScope(im, dev)
		}
		return
	}
	for name, x0 := range g0 { //acrvet:ordered — sets flags, emits nothing
		x1 := g1[name]
		switch {
		case x1 == nil:
			// Group removed: member peers lose exactly its policies.
			a.attachesScope(im, dev, f0, x0.Policies)
		case x0.External != x1.External:
			a.controlScope(im, dev)
		case !eqAttaches(x0.Policies, x1.Policies):
			a.attachesScope(im, dev, f0, x0.Policies)
			a.attachesScope(im, dev, f1, x1.Policies)
		}
	}
	for name, x1 := range g1 { //acrvet:ordered — sets flags, emits nothing
		if g0[name] == nil {
			a.attachesScope(im, dev, f1, x1.Policies)
		}
	}
}

// diffOriginations covers network statements and the redistribute
// statement. Statics themselves are diffed under dataplane; their
// control-plane face (they originate routes when redistribution is on)
// is handled here and by diffDataplane's redistribution check.
func (a *ImpactAnalyzer) diffOriginations(im *Impact, dev string, f0, f1 *netcfg.File) {
	n0 := networkSet(f0.BGP)
	n1 := networkSet(f1.BGP)
	for p, c := range n0 { //acrvet:ordered — marks scope maps, emits nothing
		if n1[p] != c {
			a.originScope(im, dev, p)
		}
	}
	for p, c := range n1 { //acrvet:ordered — marks scope maps, emits nothing
		if n0[p] != c {
			a.originScope(im, dev, p)
		}
	}
	r0has, r0pol := redistOf(f0.BGP)
	r1has, r1pol := redistOf(f1.BGP)
	if r0has != r1has || r0pol != r1pol {
		// Every static on the device enters or leaves the control plane,
		// or flows through a different policy.
		for _, s := range f0.Statics {
			a.originScope(im, dev, s.Prefix)
		}
		for _, s := range f1.Statics {
			a.originScope(im, dev, s.Prefix)
		}
	}
}

// diffPolicies diffs route-policy nodes keyed by (name, node). A changed
// node influences exactly the prefixes its match clauses (old or new
// version) can accept — prefixes matched by neither behave identically
// before and after, whatever the node's action — and nothing at all when
// the policy is attached nowhere in either version.
func (a *ImpactAnalyzer) diffPolicies(im *Impact, dev string, f0, f1 *netcfg.File) {
	type key struct {
		name string
		node int
	}
	idx := func(f *netcfg.File) map[key]*netcfg.RoutePolicy {
		m := map[key]*netcfg.RoutePolicy{}
		for _, p := range f.Policies {
			k := key{p.Name, p.Node}
			if m[k] != nil {
				// Duplicate (name, node): evaluation order among duplicates
				// is positional; treat the whole policy as changed broadly.
				m[k] = nil
			} else {
				m[k] = p
			}
		}
		return m
	}
	m0, m1 := idx(f0), idx(f1)
	changed := map[key]bool{}
	for k, p := range m0 { //acrvet:ordered — fills a set, emits nothing
		if q, ok := m1[k]; !ok || p == nil || q == nil || !eqPolicyNode(p, q) {
			changed[k] = true
		}
	}
	for k := range m1 { //acrvet:ordered — fills a set, emits nothing
		if _, ok := m0[k]; !ok {
			changed[k] = true
		}
	}
	for k := range changed { //acrvet:ordered — marks scope maps, emits nothing
		if !policyAttached(f0, k.name) && !policyAttached(f1, k.name) {
			continue // dormant policy: no evaluation path reaches it
		}
		a.nodeScope(im, dev, m0[k], f0)
		a.nodeScope(im, dev, m1[k], f1)
	}
}

// nodeScope marks the prefixes a policy node can accept, resolving its
// match clauses against the prefix lists of the file version it lives in.
// A node without match clauses accepts everything in scope.
func (a *ImpactAnalyzer) nodeScope(im *Impact, dev string, n *netcfg.RoutePolicy, f *netcfg.File) {
	if n == nil {
		return
	}
	if len(n.Matches) == 0 {
		a.controlScope(im, dev)
		return
	}
	for _, mc := range n.Matches {
		for _, e := range f.PrefixListEntries(mc.PrefixList) {
			a.matchedScope(im, dev, e)
		}
	}
}

// diffPrefixLists diffs prefix-list entries as per-name multisets. A
// changed entry influences exactly the prefixes it accepts (old or new
// version) — first-match-wins means prefixes matched by neither version
// take the same path through the list — and nothing when no attached
// policy references the list.
func (a *ImpactAnalyzer) diffPrefixLists(im *Impact, dev string, f0, f1 *netcfg.File) {
	names := map[string]bool{}
	for _, e := range f0.PrefixLists {
		names[e.Name] = true
	}
	for _, e := range f1.PrefixLists {
		names[e.Name] = true
	}
	for name := range names { //acrvet:ordered — marks scope maps, emits nothing
		if !listLive(f0, name) && !listLive(f1, name) {
			continue // referenced by no attached policy in either version
		}
		e0 := encodeEntries(f0.PrefixListEntries(name))
		e1 := encodeEntries(f1.PrefixListEntries(name))
		for k, v := range e0 { //acrvet:ordered — marks scope maps, emits nothing
			if w := e1[k]; w == nil || w.count != v.count {
				a.matchedScope(im, dev, v.entry)
			}
		}
		for k, v := range e1 { //acrvet:ordered — marks scope maps, emits nothing
			if w := e0[k]; w == nil || w.count != v.count {
				a.matchedScope(im, dev, v.entry)
			}
		}
	}
}

// diffDataplane covers constructs the control plane never reads: static
// routes (except their redistribution face), PBR policies, and interface
// addresses / PBR bindings. Changes scope to the edited device's own
// forwarding decisions.
func (a *ImpactAnalyzer) diffDataplane(im *Impact, dev string, f0, f1 *netcfg.File) {
	s0 := staticSet(f0)
	s1 := staticSet(f1)
	redist := func(f *netcfg.File) bool { has, _ := redistOf(f.BGP); return has }
	anyRedist := redist(f0) || redist(f1)
	markStatic := func(s staticKey) {
		im.DataplaneDevices[dev] = true
		if anyRedist {
			// The static originates a BGP route; its change is control-plane
			// visible. (Redistribute-statement changes are diffed above.)
			a.originScope(im, dev, s.prefix)
		}
	}
	for s, c := range s0 { //acrvet:ordered — marks scope maps, emits nothing
		if s1[s] != c {
			markStatic(s)
		}
	}
	for s, c := range s1 { //acrvet:ordered — marks scope maps, emits nothing
		if s0[s] != c {
			markStatic(s)
		}
	}
	if !eqPBR(f0.PBRPolicies, f1.PBRPolicies) {
		im.DataplaneDevices[dev] = true
	}
	// An interface's forwarding face is its address and PBR binding; one
	// present in only one version always differs.
	i0 := ifacesByName(f0)
	i1 := ifacesByName(f1)
	for name, a0 := range i0 { //acrvet:ordered — sets flags, emits nothing
		if x1 := i1[name]; x1 == nil || !samePrefix(a0.Addr, x1.Addr) || a0.PBRPolicy != x1.PBRPolicy {
			im.DataplaneDevices[dev] = true
		}
	}
	for name := range i1 { //acrvet:ordered — sets flags, emits nothing
		if i0[name] == nil {
			im.DataplaneDevices[dev] = true
		}
	}
}

// --- semantic accessors and encoders (line numbers excluded) --------------

func asnOf(b *netcfg.BGPBlock) uint32 {
	if b == nil {
		return 0
	}
	return b.ASN
}

func ridOf(b *netcfg.BGPBlock) netip.Addr {
	if b == nil {
		return netip.Addr{}
	}
	return b.RouterID
}

func redistOf(b *netcfg.BGPBlock) (bool, string) {
	if b == nil || b.Redistribute == nil {
		return false, ""
	}
	return true, b.Redistribute.Policy
}

func networkSet(b *netcfg.BGPBlock) map[netip.Prefix]int {
	m := map[netip.Prefix]int{}
	if b == nil {
		return m
	}
	for _, n := range b.Networks {
		if n.Prefix.IsValid() {
			m[n.Prefix]++
		}
	}
	return m
}

func peersByAddr(b *netcfg.BGPBlock) (map[netip.Addr]*netcfg.Peer, bool) {
	m := map[netip.Addr]*netcfg.Peer{}
	dup := false
	for _, p := range b.Peers {
		if m[p.Addr] != nil {
			dup = true
		}
		if m[p.Addr] == nil {
			m[p.Addr] = p
		}
	}
	return m, dup
}

func groupsByName(b *netcfg.BGPBlock) (map[string]*netcfg.PeerGroup, bool) {
	m := map[string]*netcfg.PeerGroup{}
	dup := false
	for _, g := range b.Groups {
		if m[g.Name] != nil {
			dup = true
		}
		if m[g.Name] == nil {
			m[g.Name] = g
		}
	}
	return m, dup
}

func ifacesByName(f *netcfg.File) map[string]*netcfg.Interface {
	m := map[string]*netcfg.Interface{}
	for _, i := range f.Interfaces {
		if m[i.Name] == nil {
			m[i.Name] = i
		}
	}
	return m
}

func eqAttaches(a, b []*netcfg.PolicyAttach) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i].Policy != b[i].Policy || a[i].Direction != b[i].Direction {
			return false
		}
	}
	return true
}

func encodeAttaches(sb *strings.Builder, as []*netcfg.PolicyAttach) {
	for _, a := range as {
		fmt.Fprintf(sb, "@%s/%s", a.Policy, a.Direction)
	}
}

func encodePeers(b *netcfg.BGPBlock) string {
	var sb strings.Builder
	for _, p := range b.Peers {
		fmt.Fprintf(&sb, "peer %s as %d (decl=%v) group %q", p.Addr, p.ASN, p.ASNLine != 0, p.Group)
		encodeAttaches(&sb, p.Policies)
		sb.WriteByte('\n')
	}
	return sb.String()
}

func encodeGroups(b *netcfg.BGPBlock) string {
	var sb strings.Builder
	for _, g := range b.Groups {
		fmt.Fprintf(&sb, "group %q ext=%v", g.Name, g.External)
		encodeAttaches(&sb, g.Policies)
		sb.WriteByte('\n')
	}
	return sb.String()
}

func eqPolicyNode(a, b *netcfg.RoutePolicy) bool {
	if a.Permit != b.Permit || len(a.Matches) != len(b.Matches) || len(a.Applies) != len(b.Applies) {
		return false
	}
	for i := range a.Matches {
		if a.Matches[i].Kind != b.Matches[i].Kind || a.Matches[i].PrefixList != b.Matches[i].PrefixList {
			return false
		}
	}
	for i := range a.Applies {
		x, y := a.Applies[i], b.Applies[i]
		if x.Kind != y.Kind || x.ASN != y.ASN || x.Count != y.Count || x.Value != y.Value {
			return false
		}
	}
	return true
}

// policyAttached reports whether the named policy is referenced from any
// attach site (peer, group, redistribute) in f.
func policyAttached(f *netcfg.File, name string) bool {
	for _, s := range f.PolicyAttachSites() {
		if s.Policy == name {
			return true
		}
	}
	return false
}

// listLive reports whether the named prefix list is referenced by a match
// clause of any policy that is attached somewhere in f.
func listLive(f *netcfg.File, name string) bool {
	for _, s := range f.PolicyAttachSites() {
		for _, n := range f.PolicyNodes(s.Policy) {
			for _, mc := range n.Matches {
				if mc.Kind == netcfg.MatchIPPrefix && mc.PrefixList == name {
					return true
				}
			}
		}
	}
	return false
}

// entryEnc is the multiset cell for one semantically distinct prefix-list
// entry: its multiplicity plus a representative pointer for Matches
// evaluation (semantically equal entries are interchangeable for that).
type entryEnc struct {
	count int
	entry *netcfg.PrefixList
}

// entryIdentity is what the prefix-list diff compares of an entry: every
// field but its line, the prefix unmasked.
type entryIdentity struct {
	index  int
	permit bool
	prefix netip.Prefix
	ge, le int
}

func identityOf(e *netcfg.PrefixList) entryIdentity {
	return entryIdentity{e.Index, e.Permit, canonPrefix(e.Prefix), e.GE, e.LE}
}

func encodeEntries(es []*netcfg.PrefixList) map[entryIdentity]*entryEnc {
	m := make(map[entryIdentity]*entryEnc, len(es))
	for _, e := range es {
		k := identityOf(e)
		if m[k] == nil {
			m[k] = &entryEnc{entry: e}
		}
		m[k].count++
	}
	return m
}

// canonPrefix maps every invalid prefix to the zero Prefix, so prefixes
// compare equal exactly when their String forms do.
func canonPrefix(p netip.Prefix) netip.Prefix {
	if !p.IsValid() {
		return netip.Prefix{}
	}
	return p
}

// samePrefix reports whether a and b render the same String.
func samePrefix(a, b netip.Prefix) bool { return canonPrefix(a) == canonPrefix(b) }

type staticKey struct {
	prefix  netip.Prefix
	nextHop netip.Addr
	null0   bool
}

func staticSet(f *netcfg.File) map[staticKey]int {
	m := map[staticKey]int{}
	for _, s := range f.Statics {
		m[staticKey{s.Prefix, s.NextHop, s.Null0}]++
	}
	return m
}

// eqPBR reports whether two PBR sections forward alike: the same policies
// in the same order with the same rules, line numbers aside.
func eqPBR(a, b []*netcfg.PBRPolicy) bool {
	return slices.EqualFunc(a, b, func(x, y *netcfg.PBRPolicy) bool {
		return x.Name == y.Name && slices.EqualFunc(x.Rules, y.Rules, eqPBRRule)
	})
}

func eqPBRRule(x, y *netcfg.PBRRule) bool {
	if x.Index != y.Index || x.Permit != y.Permit || (x.ApplyDrop == nil) != (y.ApplyDrop == nil) {
		return false
	}
	return eqOpt(x.MatchSource, y.MatchSource, func(a, b *netcfg.PrefixMatch) bool { return samePrefix(a.Prefix, b.Prefix) }) &&
		eqOpt(x.MatchDest, y.MatchDest, func(a, b *netcfg.PrefixMatch) bool { return samePrefix(a.Prefix, b.Prefix) }) &&
		eqOpt(x.MatchProto, y.MatchProto, func(a, b *netcfg.ProtoMatch) bool { return a.Proto == b.Proto }) &&
		eqOpt(x.MatchDstPort, y.MatchDstPort, func(a, b *netcfg.PortMatch) bool { return a.Port == b.Port }) &&
		eqOpt(x.ApplyNextHop, y.ApplyNextHop, func(a, b *netcfg.NextHopApply) bool { return a.NextHop == b.NextHop })
}

// eqOpt compares two optional clauses: both absent, or both present and
// equal under eq.
func eqOpt[T any](a, b *T, eq func(a, b *T) bool) bool {
	if a == nil || b == nil {
		return a == b
	}
	return eq(a, b)
}
