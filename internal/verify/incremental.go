package verify

import (
	"context"
	"fmt"
	"net/netip"

	"acr/internal/analysis"
	"acr/internal/bgp"
	"acr/internal/netcfg"
	"acr/internal/provenance"
	"acr/internal/topo"
)

// Stats reports how much work an incremental check performed, for the
// paper's claim that validation is efficient with incremental verifiers
// (§3.2, observation 3).
type Stats struct {
	PrefixesTotal int
	// PrefixesSimulated counts prefixes simulated cold, delta fallbacks
	// included.
	PrefixesSimulated int
	// Deprecated: PrefixesDerived is always zero; every simulated prefix
	// counts in PrefixesSimulated or PrefixesDelta.
	PrefixesDerived int
	// PrefixesDelta counts prefixes answered by delta re-simulation
	// (bgp.DeltaSimulatePrefix): seeded from the base outcome, only the
	// edit's wave of routers re-activated.
	PrefixesDelta int
	// DeltaFallbacks counts prefixes where the delta path refused the
	// shortcut (non-converged base, pass bound) and a cold simulation ran.
	DeltaFallbacks int
	// Activations totals router activations across every simulation this
	// check ran — the device·prefix work unit the delta benchmark compares.
	Activations       int
	IntentsTotal      int
	IntentsReverified int
	// Broad marks a change the impact analysis could not scope (e.g. a
	// session set it did not predict), forcing full re-verification.
	Broad bool
	// Refuted marks a candidate the static impact analysis proved unable
	// to influence any intent: the base verdicts were returned with zero
	// simulations and zero re-verifications.
	Refuted bool
}

// String renders the stats compactly.
func (s Stats) String() string {
	if s.Refuted {
		return fmt.Sprintf("statically refuted: 0/%d prefixes simulated, 0/%d intents reverified",
			s.PrefixesTotal, s.IntentsTotal)
	}
	fallbacks := ""
	if s.DeltaFallbacks > 0 {
		fallbacks = fmt.Sprintf(" fallbacks=%d", s.DeltaFallbacks)
	}
	return fmt.Sprintf("simulated %d/%d prefixes cold (delta=%d%s), reverified %d/%d intents (broad=%v)",
		s.PrefixesSimulated, s.PrefixesTotal, s.PrefixesDelta, fallbacks, s.IntentsReverified, s.IntentsTotal, s.Broad)
}

// Incremental is a DNA-style incremental verifier. It holds a verified
// base configuration; Check evaluates candidate edit sets against that
// base, re-simulating only affected prefixes and re-checking only affected
// intents. Commit advances the base to an accepted candidate.
type Incremental struct {
	Topo    *topo.Network
	Intents []Intent
	SimOpts bgp.Options

	configs map[string]*netcfg.Config
	files   map[string]*netcfg.File
	net     *bgp.Net
	out     *bgp.Outcome
	prov    *provenance.Graph
	report  *Report

	// impact is the static impact analyzer over the current base, read-only
	// once installed and shared by reference across clones.
	impact *analysis.ImpactAnalyzer

	// graph is the topology's influence graph, and probes are the intents'
	// sampled packets and injection points, by position in Intents: both
	// depend on the topology alone, so they are computed once in
	// NewIncremental and shared by clones and every Commit.
	graph  *topo.InfluenceGraph
	probes []probe

	// batch, when non-nil, memoizes candidate parses across the sibling
	// checks of one batch (BeginBatch/EndBatch): sibling candidates that
	// produce the same post-edit text on a device share one parsed
	// *netcfg.File, which is safe because parsed files are immutable.
	// Never shared across goroutines — Clone resets it.
	batch map[parseKey]*netcfg.File
}

// parseKey identifies a candidate parse by device and full post-edit text.
type parseKey struct{ device, text string }

// NewIncremental verifies the base configuration fully.
func NewIncremental(t *topo.Network, configs map[string]*netcfg.Config, intents []Intent, opts bgp.Options) *Incremental {
	iv := &Incremental{Topo: t, Intents: intents, SimOpts: opts, graph: topo.NewInfluenceGraph(t), probes: make([]probe, len(intents))}
	for i, in := range intents {
		iv.probes[i] = probeOf(t, in)
	}
	iv.rebase(configs)
	return iv
}

func (iv *Incremental) rebase(configs map[string]*netcfg.Config) {
	files := make(map[string]*netcfg.File, len(configs))
	for d, c := range configs { //acrvet:ordered
		f, _ := netcfg.Parse(c) // partial ASTs are fine; broken lines are repair candidates
		files[d] = f
	}
	n := bgp.Compile(iv.Topo, files)
	out := bgp.Simulate(n, iv.SimOpts)
	iv.install(configs, files, n, out, bgp.BuildProvenance(n, out), iv.verify(n, out, false, nil))
}

// verify checks the intents against a version's outcome. With reuse, the
// version is derived from the base with its sessions kept and only the
// dirty devices edited, and a flow verdict of the base stands when nothing
// it read moved: its covering prefix and that prefix's outcome (DeltaSimulate
// keeps the base's outcome where the stable state did not move) and the
// files of the routers its traces visit. Global intents are always checked.
func (iv *Incremental) verify(n *bgp.Net, out *bgp.Outcome, reuse bool, dirty []string) *Report {
	rep := &Report{Verdicts: make([]Verdict, len(iv.Intents))}
	for i, in := range iv.Intents {
		if reuse && iv.verdictStands(&iv.report.Verdicts[i], iv.probes[i], out, dirty) {
			rep.Verdicts[i] = iv.report.Verdicts[i]
			continue
		}
		rep.Verdicts[i] = checkIntent(n, out, in, iv.probes[i])
	}
	return rep
}

// verdictStands reports whether base verdict v holds unchanged on out, a
// version derived from the base as verify's reuse describes.
func (iv *Incremental) verdictStands(v *Verdict, pr probe, out *bgp.Outcome, dirty []string) bool {
	switch v.Intent.Kind {
	case Reachability, Isolation, Waypoint:
	default:
		return false
	}
	if p, po := coveringOutcome(out, pr.pkt.Dst); p != v.Prefix || po != iv.out.ByPrefix[p] {
		return false
	}
	for _, tr := range v.Traces {
		for _, d := range dirty {
			if tr.Visits(d) {
				return false
			}
		}
	}
	return true
}

// install makes a compiled, simulated and verified configuration version
// the base, and builds the impact analyzer over it.
func (iv *Incremental) install(configs map[string]*netcfg.Config, files map[string]*netcfg.File, n *bgp.Net, out *bgp.Outcome, prov *provenance.Graph, report *Report) {
	iv.configs, iv.files, iv.net, iv.out, iv.prov, iv.report = configs, files, n, out, prov, report
	origins := map[netip.Prefix][]string{}
	for _, name := range n.Order {
		for _, o := range n.Routers[name].Origins {
			origins[o.Prefix] = append(origins[o.Prefix], name)
		}
	}
	iv.impact = analysis.NewImpactAnalyzer(files, n.AllPrefixes(), origins, iv.graph)
}

// Clone returns an independently usable verifier over the same base.
//
// Everything behind a clone is shared by reference and immutable once
// the base is installed: the parsed files, the compiled bgp.Net, the
// simulation Outcome and its per-prefix outcomes, the provenance graph and
// the base report are built once and only ever read afterward (the
// graph's line sets seal themselves on first read, under sync.Once;
// CheckCtx constructs fresh maps for candidate state and reuses base
// entries by pointer; Commit reads the old base — and shares per-prefix
// outcomes, provenance sites and parsed files with it — but builds the new
// one in fresh maps and installs it wholesale). Clone therefore only
// copies the top-level map headers, so a Commit on one clone can never be
// observed, even partially, by checks running on another.
// Concurrent CheckCtx/FullCheckCtx calls on distinct clones are race-free;
// a single Incremental is still not safe for concurrent use with Commit.
func (iv *Incremental) Clone() *Incremental {
	cp := *iv
	cp.configs = make(map[string]*netcfg.Config, len(iv.configs))
	for d, c := range iv.configs { //acrvet:ordered
		cp.configs[d] = c
	}
	cp.files = make(map[string]*netcfg.File, len(iv.files))
	for d, f := range iv.files { //acrvet:ordered
		cp.files[d] = f
	}
	cp.batch = nil // batch memos are per-goroutine; never inherited
	return &cp
}

// BeginBatch installs a parse memo shared by the checks that follow on
// this verifier: sibling candidates producing identical post-edit text on
// a device parse it once. Purely a cache of a deterministic function —
// verdicts and reports are byte-identical with or without it. Not safe
// for concurrent use; batch on the clone that runs the checks.
func (iv *Incremental) BeginBatch() { iv.batch = map[parseKey]*netcfg.File{} }

// EndBatch drops the parse memo installed by BeginBatch.
func (iv *Incremental) EndBatch() { iv.batch = nil }

// parseFile parses a candidate config, answering from the batch memo when
// one is installed.
func (iv *Incremental) parseFile(d string, c *netcfg.Config) *netcfg.File {
	if iv.batch == nil {
		f, _ := netcfg.Parse(c)
		return f
	}
	k := parseKey{device: d, text: c.Text()}
	if f, ok := iv.batch[k]; ok {
		return f
	}
	f, _ := netcfg.Parse(c)
	iv.batch[k] = f
	return f
}

// Base accessors.

// BaseReport returns the verification report of the current base.
func (iv *Incremental) BaseReport() *Report { return iv.report }

// BaseOutcome returns the simulation outcome of the current base.
func (iv *Incremental) BaseOutcome() *bgp.Outcome { return iv.out }

// BaseNet returns the compiled base network.
func (iv *Incremental) BaseNet() *bgp.Net { return iv.net }

// BaseProvenance returns the base version's provenance.
func (iv *Incremental) BaseProvenance() *provenance.Graph { return iv.prov }

// BaseConfigs returns the base configuration documents.
func (iv *Incremental) BaseConfigs() map[string]*netcfg.Config { return iv.configs }

// BaseFiles returns the parsed base configurations.
func (iv *Incremental) BaseFiles() map[string]*netcfg.File { return iv.files }

// parseChanged parses the candidate's configurations, reusing the base's
// parsed file wherever the document is the base's own. dirty lists the
// re-parsed devices in topology order, for determinism.
func (iv *Incremental) parseChanged(newConfigs map[string]*netcfg.Config) (files map[string]*netcfg.File, dirty []string) {
	files = make(map[string]*netcfg.File, len(newConfigs))
	for d, c := range newConfigs { //acrvet:ordered
		if c == iv.configs[d] {
			files[d] = iv.files[d]
			continue
		}
		files[d] = iv.parseFile(d, c)
	}
	for _, d := range iv.net.Order {
		if files[d] != iv.files[d] {
			dirty = append(dirty, d)
		}
	}
	return files, dirty
}

// Apply returns the base configurations with edits applied in order: the
// configuration set CheckApplied verifies. Devices no edit names keep the
// base's documents. It fails on an edit set for an unknown device or one
// EditSet.Apply rejects.
func (iv *Incremental) Apply(edits []netcfg.EditSet) (map[string]*netcfg.Config, error) {
	out := make(map[string]*netcfg.Config, len(iv.configs))
	for d, c := range iv.configs { //acrvet:ordered
		out[d] = c
	}
	for _, es := range edits {
		base, ok := out[es.Device]
		if !ok {
			return nil, fmt.Errorf("edit set for unknown device %q", es.Device)
		}
		next, err := es.Apply(base)
		if err != nil {
			return nil, err
		}
		out[es.Device] = next
	}
	return out, nil
}

// Check verifies the base with edits applied, incrementally. The returned
// report covers every intent (cached verdicts are reused for unaffected
// ones). The base is not modified.
func (iv *Incremental) Check(edits []netcfg.EditSet) (*Report, Stats, error) {
	return iv.CheckCtx(context.Background(), edits)
}

// CheckCtx is Check with cooperative cancellation: Apply, then
// CheckApplied.
func (iv *Incremental) CheckCtx(ctx context.Context, edits []netcfg.EditSet) (*Report, Stats, error) {
	newConfigs, err := iv.Apply(edits)
	if err != nil {
		return nil, Stats{}, err
	}
	return iv.CheckApplied(ctx, newConfigs, edits)
}

// CheckApplied checks newConfigs, the configuration set Apply(edits)
// returned, against the base. The context is checked between per-prefix
// simulations and threaded into the simulation passes, so a deadline
// interrupts validation mid-candidate. On cancellation it returns the
// context's error and no report.
//
// The check is scoped by the static impact analysis:
//
//  1. diff the candidate's parsed ASTs against the base (semantic diff —
//     line-number-only shifts have no impact) to get the over-approximate
//     impact set: affected prefixes, origination literals, dataplane
//     devices, and whether sessions may change;
//  2. cross-check the prediction against the candidate network derived
//     from the base (whether Derive refused because the established
//     sessions changed, origination diff) — any construct the analysis
//     missed degrades the check to broad rather than going unsound;
//  3. decide per intent whether its cached verdict can be stale; when no
//     intent is triggered the candidate is *statically refuted*: the base
//     verdicts stand and zero prefixes are simulated;
//  4. otherwise simulate only the affected prefixes some triggered intent
//     actually consults (covering-prefix containment for flow intents,
//     exact-key lookup for global ones), by delta re-simulation from the
//     base outcome where Derive kept the sessions; untouched prefixes reuse
//     the base outcome, and prefixes nobody will read are skipped outright.
func (iv *Incremental) CheckApplied(ctx context.Context, newConfigs map[string]*netcfg.Config, edits []netcfg.EditSet) (*Report, Stats, error) {
	if err := ctx.Err(); err != nil {
		return nil, Stats{}, err
	}
	// dirty is the set for delta re-simulation: exactly the devices whose
	// configuration text changed.
	newFiles, dirty := iv.parseChanged(newConfigs)
	im := iv.impact.Compare(newFiles)
	newNet, sameSessions := iv.net.Derive(newFiles, dirty)
	broad := im.Broad

	// Cross-check 1: the session set must not change unless predicted.
	if !broad && !im.SessionsMayChange && !sameSessions {
		broad = true
	}
	// Cross-check 2: every origination entering or leaving the universe
	// must have been predicted as a literal (or already-affected prefix).
	affected := make(map[netip.Prefix]bool, len(im.Prefixes))
	for p := range im.Prefixes { //acrvet:ordered
		affected[p] = true
	}
	newAll := newNet.AllPrefixes()
	newSet := map[netip.Prefix]bool{}
	for _, p := range newAll {
		newSet[p] = true
	}
	oldSet := map[netip.Prefix]bool{}
	for _, p := range iv.net.AllPrefixes() {
		oldSet[p] = true
		if !newSet[p] {
			affected[p] = true
			if !im.Prefixes[p] && !im.Literals[p] {
				broad = true
			}
		}
	}
	for _, p := range newAll {
		if !oldSet[p] {
			affected[p] = true
			if !im.Prefixes[p] && !im.Literals[p] {
				broad = true
			}
		}
	}

	stats := Stats{PrefixesTotal: len(newAll), IntentsTotal: len(iv.Intents), Broad: broad}

	editedLines := map[netcfg.LineRef]bool{}
	for _, es := range edits {
		for _, e := range es.Edits {
			switch ed := e.(type) {
			case netcfg.DeleteLine:
				editedLines[netcfg.LineRef{Device: es.Device, Line: ed.At}] = true
			case netcfg.ReplaceLine:
				editedLines[netcfg.LineRef{Device: es.Device, Line: ed.At}] = true
			}
		}
	}

	// localWatch marks intents that observe a leaf device whose local
	// control plane changed (im.LocalDevices): the change is invisible to
	// the rest of the network, but these intents read routing state *at*
	// the leaf, so every prefix they consult must be freshly simulated —
	// copying a base outcome would reuse the leaf's stale FIB.
	localWatch := make([]bool, len(iv.Intents))
	if !broad && len(im.LocalDevices) > 0 {
		for i, in := range iv.Intents {
			localWatch[i] = iv.observesLocalDevices(iv.report.Verdicts[i], in, iv.probes[i], im)
		}
	}

	reverify := make([]bool, len(iv.Intents))
	any := false
	for i, in := range iv.Intents {
		if broad || localWatch[i] ||
			iv.impactTriggers(iv.report.Verdicts[i], in, iv.probes[i], im, affected, editedLines) {
			reverify[i] = true
			any = true
		}
	}
	if !any && !broad {
		// Statically refuted: the impact set is disjoint from every
		// intent's dependencies, so the candidate provably cannot change
		// any verdict. The base report stands, at zero simulations.
		stats.Refuted = true
		return &Report{Verdicts: append([]Verdict(nil), iv.report.Verdicts...)}, stats, nil
	}

	// simNeeded reports whether prefix p must be freshly simulated: some
	// triggered intent reads its outcome (flow intents read the longest
	// ByPrefix key covering their destination — any covering key is
	// potentially selected — global intents read their DstPrefix key
	// exactly), and either the prefix itself is affected or the reader
	// observes a changed leaf device, whose base outcome for p carries a
	// stale local FIB.
	simNeeded := func(p netip.Prefix) bool {
		for i, in := range iv.Intents {
			if !reverify[i] {
				continue
			}
			if consultsPrefix(in, iv.probes[i], p) && (affected[p] || localWatch[i]) {
				return true
			}
		}
		return false
	}

	simOpts := iv.SimOpts
	simOpts.Ctx = ctx
	newOut := &bgp.Outcome{Net: newNet, ByPrefix: map[netip.Prefix]*bgp.PrefixOutcome{}}
	// Delta re-simulation seeds each needed prefix from the base outcome
	// and propagates only from the dirty devices. It requires the sessions
	// Derive kept: the seed state's adj-in structure must be the candidate's
	// session structure. Broad impact is fine — broad widens which prefixes
	// are simulated, not how each one is.
	useDelta := sameSessions && len(dirty) > 0
	simulate := func(p netip.Prefix) error {
		if err := ctx.Err(); err != nil {
			return err
		}
		if useDelta {
			if po, ok := bgp.DeltaSimulatePrefix(newNet, iv.out.ByPrefix[p], dirty, p, simOpts); ok {
				newOut.ByPrefix[p] = po
				stats.PrefixesDelta++
				stats.Activations += po.Activations
				return nil
			}
			stats.DeltaFallbacks++
		}
		po := bgp.SimulatePrefix(newNet, p, simOpts)
		if po.Canceled {
			return ctx.Err()
		}
		newOut.ByPrefix[p] = po
		stats.PrefixesSimulated++
		stats.Activations += po.Activations
		return nil
	}
	for _, p := range newAll {
		if broad || simNeeded(p) {
			if err := simulate(p); err != nil {
				return nil, stats, err
			}
			continue
		}
		if iv.out.ByPrefix[p] != nil {
			// Unaffected (or affected but unread this round): reuse the
			// base outcome so covering-prefix selection sees the same key
			// set a full simulation would produce.
			newOut.ByPrefix[p] = iv.out.ByPrefix[p]
		}
		// Else: new origination no triggered intent consults — skip. Only
		// triggered intents read newOut, and none selects this key.
	}

	rep := &Report{Verdicts: make([]Verdict, len(iv.Intents))}
	for i, in := range iv.Intents {
		if !reverify[i] {
			rep.Verdicts[i] = iv.report.Verdicts[i]
			continue
		}
		if err := ctx.Err(); err != nil {
			return nil, stats, err
		}
		rep.Verdicts[i] = checkIntent(newNet, newOut, in, iv.probes[i])
		stats.IntentsReverified++
	}
	return rep, stats, nil
}

// impactTriggers decides whether an intent's cached verdict may be stale
// under the given impact set:
//
//   - an affected prefix, or a prefix entering/leaving the universe,
//     covers the intent's destination (control-plane trigger). This
//     covers every changed origination literal too: a literal in the base
//     universe is in im.Prefixes, one entering or leaving the universe is
//     affected, and one in neither originates nothing before or after;
//   - a device whose forwarding decisions may change appears on the
//     intent's base traces — global intents keep only a capped sample of
//     failing traces, so any dataplane change re-triggers them;
//   - as a belt: an edit touches a line the base traces executed.
func (iv *Incremental) impactTriggers(base Verdict, in Intent, pr probe, im *analysis.Impact, affected map[netip.Prefix]bool, edited map[netcfg.LineRef]bool) bool {
	for p := range affected { //acrvet:ordered
		if p.Contains(pr.pkt.Dst) {
			return true
		}
	}
	if len(im.DataplaneDevices) > 0 {
		switch in.Kind {
		case LoopFree, BlackholeFree:
			return true
		default:
			for _, tr := range base.Traces {
				for dev := range im.DataplaneDevices { //acrvet:ordered
					if tr.Visits(dev) {
						return true
					}
				}
			}
		}
	}
	for _, l := range base.Lines() {
		if edited[l] {
			return true
		}
	}
	return false
}

// observesLocalDevices reports whether an intent reads routing state at
// any device in im.LocalDevices. Global intents always do (they trace from
// every router holding a route, leaves included). A flow intent observes a
// leaf when it is injected there or when its base traces visit it — and a
// trace that avoided the leaf in the base still avoids it after the edit,
// because every upstream forwarding decision steering toward the leaf
// depends only on state the leaf cannot influence (non-leaf FIBs for
// prefixes the leaf does not originate; leaf-originated prefixes are in
// the affected set and trigger through the ordinary prefix channel).
func (iv *Incremental) observesLocalDevices(base Verdict, in Intent, pr probe, im *analysis.Impact) bool {
	switch in.Kind {
	case LoopFree, BlackholeFree:
		return true
	}
	for dev := range im.LocalDevices { //acrvet:ordered — any-match boolean
		if pr.from == dev {
			return true
		}
		for _, tr := range base.Traces {
			if tr.Visits(dev) {
				return true
			}
		}
	}
	return false
}

// consultsPrefix reports whether re-checking the intent reads prefix p's
// outcome: flow intents read any ByPrefix key covering their destination
// (the longest is selected, but any covering key is potentially it),
// global intents read their DstPrefix key exactly.
func consultsPrefix(in Intent, pr probe, p netip.Prefix) bool {
	switch in.Kind {
	case LoopFree, BlackholeFree:
		return p == in.DstPrefix
	}
	return p.Contains(pr.pkt.Dst)
}

// FullCheck verifies the base with edits applied from scratch — no reuse.
// It is the AED baseline's validator and the §3.2 ablation's reference.
func (iv *Incremental) FullCheck(edits []netcfg.EditSet) (*Report, error) {
	rep, _, err := iv.FullCheckCtx(context.Background(), edits)
	return rep, err
}

// FullCheckCtx is FullCheck with cooperative cancellation. Its Stats count
// the candidate's own prefixes, every one simulated cold, and every intent
// re-verified.
func (iv *Incremental) FullCheckCtx(ctx context.Context, edits []netcfg.EditSet) (*Report, Stats, error) {
	if err := ctx.Err(); err != nil {
		return nil, Stats{}, err
	}
	newConfigs, err := iv.Apply(edits)
	if err != nil {
		return nil, Stats{}, err
	}
	files := map[string]*netcfg.File{}
	for d, c := range newConfigs { //acrvet:ordered
		// The batch memo is safe here too: parsing is pure, so a full check
		// reusing a sibling's parse still recompiles and re-simulates from
		// scratch — which is the reuse FullCheck promises not to do.
		files[d] = iv.parseFile(d, c)
	}
	n := bgp.Compile(iv.Topo, files)
	simOpts := iv.SimOpts
	simOpts.Ctx = ctx
	out := bgp.Simulate(n, simOpts)
	if out.Canceled() {
		return nil, Stats{}, ctx.Err()
	}
	all := n.AllPrefixes()
	stats := Stats{PrefixesTotal: len(all), PrefixesSimulated: len(all),
		IntentsTotal: len(iv.Intents), IntentsReverified: len(iv.Intents)}
	for _, p := range all {
		stats.Activations += out.ByPrefix[p].Activations
	}
	return Verify(n, out, iv.Intents), stats, nil
}

// Commit applies edits to the base permanently. The new base is derived
// from the old one rather than verified from scratch: unedited devices
// keep their parsed files and the net is derived (bgp.Net.Derive). While
// the established sessions are unchanged, each prefix is delta-simulated
// from its old outcome over the edited devices and, where its stable state
// did not move, keeps the old outcome and re-derives only the provenance
// that involves an edited device (see bgp.DeltaSimulate,
// bgp.DeriveProvenance); a flow verdict that read nothing the edit moved
// stands, and every other intent is checked again. A session change, where
// Derive refuses and compiles cold, falls back to a cold simulation, a full
// provenance replay and a check of every intent. Either way the result is
// the base NewIncremental would build on the edited texts. On error the
// base is unchanged.
func (iv *Incremental) Commit(edits []netcfg.EditSet) error {
	newConfigs, err := iv.Apply(edits)
	if err != nil {
		return err
	}
	files, dirty := iv.parseChanged(newConfigs)
	n, sameSessions := iv.net.Derive(files, dirty)
	var out *bgp.Outcome
	var prov *provenance.Graph
	if sameSessions {
		out = bgp.DeltaSimulate(n, iv.out, dirty, iv.SimOpts)
		prov = bgp.DeriveProvenance(n, out, iv.out, iv.prov, dirty)
	} else {
		out = bgp.Simulate(n, iv.SimOpts)
		prov = bgp.BuildProvenance(n, out)
	}
	iv.install(newConfigs, files, n, out, prov, iv.verify(n, out, sameSessions, dirty))
	return nil
}
