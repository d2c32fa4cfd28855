package verify

import (
	"context"
	"fmt"
	"net/netip"

	"acr/internal/analysis"
	"acr/internal/bgp"
	"acr/internal/dataplane"
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
	// (bgp.ResimulatePrefix): seeded from the base outcome, only the edit's
	// wave of routers re-activated.
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
	// Refuted marks a candidate that was not broad and needed neither a
	// simulation nor a verdict decided again: the static impact set left
	// no intent anything to read that could have moved, and the base
	// verdicts were returned.
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
// base, re-simulating only affected prefixes and deciding again only the
// verdicts whose inputs moved. Commit advances the base to an accepted
// candidate by the same derivation.
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
	rep := &Report{Verdicts: make([]Verdict, len(iv.Intents))}
	for i := range iv.Intents {
		rep.Verdicts[i] = checkIntent(n, out, &iv.Intents[i], iv.probes[i])
	}
	iv.install(configs, files, n, out, bgp.BuildProvenance(n, out), rep)
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
// returned, against the base: it derives the candidate's version over the
// prefixes its intents consult (derive) and returns its report. The context
// is checked between per-prefix simulations and threaded into the
// simulation passes, so a deadline interrupts validation mid-candidate. On
// cancellation it returns the context's error and no report.
func (iv *Incremental) CheckApplied(ctx context.Context, newConfigs map[string]*netcfg.Config, edits []netcfg.EditSet) (*Report, Stats, error) {
	v, stats, err := iv.derive(ctx, newConfigs, edits, false)
	if err != nil {
		return nil, stats, err
	}
	return v.report, stats, nil
}

// version is a configuration version derive built from the base.
type version struct {
	configs map[string]*netcfg.Config
	files   map[string]*netcfg.File
	dirty   []string
	net     *bgp.Net
	// sameSessions reports whether net establishes the base's sessions;
	// then every prefix of out that did not move holds the base's outcome.
	sameSessions bool
	out          *bgp.Outcome
	report       *Report
}

// derive is the one derivation of a version from the base, for a check and
// a commit alike:
//
//  1. parse the changed devices and diff their ASTs against the base
//     (semantic diff — line-number-only shifts have no impact) for the
//     over-approximate impact set: affected prefixes, origination
//     literals, dataplane devices, leaf devices whose control plane
//     changed, and whether sessions may change;
//  2. cross-check the prediction against the net derived from the base
//     (bgp.Net.Derive refusing because the established sessions changed,
//     prefixes entering or leaving the universe) — any construct the
//     analysis missed degrades the derivation to broad rather than going
//     unsound;
//  3. re-simulate prefixes one at a time (bgp.ResimulatePrefix, delta from
//     the base outcome where Derive kept the sessions): every prefix when
//     all is set or the impact is broad, else each affected prefix some
//     intent consults (covering-prefix containment for flow intents, the
//     exact key for global ones) and each prefix an intent observing a
//     changed leaf device consults. Every other prefix keeps the base's
//     outcome, and a new one no intent consults is skipped;
//  4. decide again exactly the base verdicts stale reports; the rest stand.
//
// A version derived with nothing simulated and no verdict decided again is
// statically refuted.
func (iv *Incremental) derive(ctx context.Context, newConfigs map[string]*netcfg.Config, edits []netcfg.EditSet, all bool) (version, Stats, error) {
	if err := ctx.Err(); err != nil {
		return version{}, Stats{}, err
	}
	files, dirty := iv.parseChanged(newConfigs)
	im := iv.impact.Compare(files)
	n, sameSessions := iv.net.Derive(files, dirty)
	v := version{configs: newConfigs, files: files, dirty: dirty, net: n, sameSessions: sameSessions}

	// Cross-check 1: the session set must not change unless predicted.
	broad := im.Broad || !im.SessionsMayChange && !sameSessions
	// Cross-check 2: every prefix entering or leaving the universe must
	// have been predicted as a literal or an affected prefix. Such a prefix
	// moved. A few moved prefixes fit on the stack.
	moved := make([]movedPrefix, 0, 8)
	newAll := n.AllPrefixes()
	universeDiff(iv.net.AllPrefixes(), newAll, func(p netip.Prefix) {
		moved = append(moved, movedPrefix{p: p, base: iv.out.ByPrefix[p]})
		broad = broad || !im.Prefixes[p] && !im.Literals[p]
	})
	stats := Stats{PrefixesTotal: len(newAll), IntentsTotal: len(iv.Intents), Broad: broad}

	simOpts := iv.SimOpts
	simOpts.Ctx = ctx
	// Delta re-simulation seeds a prefix from the base outcome and
	// propagates only from the dirty devices. It requires the sessions
	// Derive kept: the seed state's adj-in structure must be the version's
	// session structure. Broad impact is fine — broad widens which prefixes
	// are simulated, not how each one is.
	useDelta := sameSessions && len(dirty) > 0
	if !useDelta && (all || broad) {
		// Every prefix cold: Simulate reuses its scratch from one to the next.
		v.out = bgp.Simulate(n, simOpts)
		if v.out.Canceled() {
			return version{}, stats, ctx.Err()
		}
		stats.PrefixesSimulated = len(newAll)
		for _, p := range newAll {
			stats.Activations += v.out.ByPrefix[p].Activations
			moved = append(moved, movedPrefix{p: p, base: iv.out.ByPrefix[p], cur: v.out.ByPrefix[p]})
		}
	} else {
		// localWatch marks intents that observe a leaf device whose local
		// control plane changed (im.LocalDevices): the change is invisible
		// to the rest of the network, but these intents read routing state
		// *at* the leaf, so every prefix they consult must be freshly
		// simulated — copying a base outcome would reuse the leaf's stale
		// FIB.
		var localWatch []bool
		if !all && !broad && len(im.LocalDevices) > 0 {
			localWatch = make([]bool, len(iv.Intents))
			for i := range iv.Intents {
				localWatch[i] = iv.observesLocalDevices(iv.report.Verdicts[i], &iv.Intents[i], iv.probes[i], im)
			}
		}
		// simNeeded reports whether prefix p must be freshly simulated: some
		// intent reads its outcome (consultsPrefix), and either the prefix
		// itself is affected or the reader observes a changed leaf device,
		// whose base outcome for p carries a stale local FIB.
		simNeeded := func(p netip.Prefix) bool {
			// The base has an outcome for every prefix of its universe, so
			// a prefix without one entered it.
			affected := im.Prefixes[p] || iv.out.ByPrefix[p] == nil
			for i := range iv.Intents {
				if (affected || localWatch != nil && localWatch[i]) && consultsPrefix(&iv.Intents[i], iv.probes[i], p) {
					return true
				}
			}
			return false
		}
		for _, p := range newAll {
			if !all && !broad && !simNeeded(p) {
				continue
			}
			if err := ctx.Err(); err != nil {
				return version{}, stats, err
			}
			base := iv.out.ByPrefix[p]
			seed := base
			if !useDelta {
				seed = nil
			}
			po, acts, delta := bgp.ResimulatePrefix(n, seed, dirty, p, simOpts)
			if delta {
				stats.PrefixesDelta++
			} else {
				stats.PrefixesSimulated++
				if useDelta {
					stats.DeltaFallbacks++
				}
			}
			if po.Canceled {
				return version{}, stats, ctx.Err()
			}
			stats.Activations += acts
			iv.outcome(&v).ByPrefix[p] = po
			if po != base && base != nil {
				moved = append(moved, movedPrefix{p: p, base: base, cur: po}) // an entering prefix is in moved already
			}
		}
	}

	// firstEdit maps each edited device to the lowest line its edits name:
	// every line from there on may be deleted, replaced or renumbered.
	firstEdit := map[string]int{}
	for _, es := range edits {
		for _, e := range es.Edits {
			at := 1 // an edit of unknown kind may touch any line
			switch ed := e.(type) {
			case netcfg.InsertBefore:
				at = ed.At
			case netcfg.DeleteLine:
				at = ed.At
			case netcfg.ReplaceLine:
				at = ed.At
			}
			if first, ok := firstEdit[es.Device]; !ok || at < first {
				firstEdit[es.Device] = at
			}
		}
	}
	v.report = &Report{Verdicts: make([]Verdict, len(iv.Intents))}
	for i := range iv.Intents {
		if !broad && !iv.stale(i, im, moved, firstEdit) {
			v.report.Verdicts[i] = iv.report.Verdicts[i]
			continue
		}
		if err := ctx.Err(); err != nil {
			return version{}, stats, err
		}
		v.report.Verdicts[i] = checkIntent(n, iv.outcome(&v), &iv.Intents[i], iv.probes[i])
		stats.IntentsReverified++
	}
	stats.Refuted = !broad && stats.PrefixesSimulated+stats.PrefixesDelta == 0 && stats.IntentsReverified == 0
	return v, stats, nil
}

// outcome returns v.out, built on first use from the base's outcomes of
// v's prefixes.
func (iv *Incremental) outcome(v *version) *bgp.Outcome {
	if v.out == nil {
		v.out = &bgp.Outcome{Net: v.net, ByPrefix: make(map[netip.Prefix]*bgp.PrefixOutcome, len(v.net.AllPrefixes()))}
		for _, p := range v.net.AllPrefixes() {
			if po := iv.out.ByPrefix[p]; po != nil {
				v.out.ByPrefix[p] = po
			}
		}
	}
	return v.out
}

// universeDiff calls f with every prefix in exactly one of the prefix
// lists old and new, both sorted by netcfg.PrefixLess.
func universeDiff(old, new []netip.Prefix, f func(netip.Prefix)) {
	if len(old) == len(new) && (len(old) == 0 || &old[0] == &new[0]) {
		return
	}
	for len(old) > 0 || len(new) > 0 {
		switch {
		case len(new) == 0 || len(old) > 0 && netcfg.PrefixLess(old[0], new[0]):
			f(old[0])
			old = old[1:]
		case len(old) == 0 || netcfg.PrefixLess(new[0], old[0]):
			f(new[0])
			new = new[1:]
		default:
			old, new = old[1:], new[1:]
		}
	}
}

// movedPrefix is a prefix a derivation moved, with its base outcome and
// the version's; either is nil when the prefix entered or left the universe.
type movedPrefix struct {
	p         netip.Prefix
	base, cur *bgp.PrefixOutcome
}

// stale reports whether base verdict i may differ on a version derived
// with impact im: moved lists the prefixes re-simulated to a different
// outcome or entering or leaving the universe, and firstEdit maps each
// edited device to the lowest line its edits name. A verdict reads the
// outcome of the prefix it consults (consultsPrefix) — of that, only what
// dataplane.SameHop compares at the routers its traces visit — the files
// of those routers and the topology, and records the lines its traces
// executed, so it stands unless:
//
//   - it consults a moved prefix whose forwarding may read differently
//     (forwards). This covers every changed origination literal too: one
//     entering or leaving the universe moved, and one in neither
//     originates nothing before or after;
//   - a device whose forwarding decisions may change lies on the base
//     traces — global intents keep only a capped sample of failing traces,
//     so any dataplane change counts for them;
//   - an edit on a device comes at or before a line the base traces
//     executed there, which it may delete, replace or renumber.
func (iv *Incremental) stale(i int, im *analysis.Impact, moved []movedPrefix, firstEdit map[string]int) bool {
	base := &iv.report.Verdicts[i]
	for _, m := range moved {
		if consultsPrefix(base.Intent, iv.probes[i], m.p) && iv.forwards(base, m) {
			return true
		}
	}
	if len(im.DataplaneDevices) > 0 {
		switch base.Intent.Kind {
		case LoopFree, BlackholeFree:
			return true
		}
		for _, tr := range base.Traces {
			for dev := range im.DataplaneDevices { //acrvet:ordered — any-match boolean
				if tr.Visits(dev) {
					return true
				}
			}
		}
	}
	for _, l := range base.Lines() {
		if first, ok := firstEdit[l.Device]; ok && l.Line >= first {
			return true
		}
	}
	return false
}

// forwards reports whether verdict v, which consults moved prefix m, may
// read something different from it: m entered or left the universe,
// either side did not converge, or a router v reads holds routes
// dataplane.SameHop tells apart. A flow verdict reads only the prefix it
// resolved to — any other covering prefix is shorter, since m is in both
// universes — and only at the routers its traces visit; a global verdict
// traces from every router holding a route.
func (iv *Incremental) forwards(v *Verdict, m movedPrefix) bool {
	if m.base == nil || m.cur == nil || !m.base.Converged || !m.cur.Converged {
		return true
	}
	was, is := m.base.Final, m.cur.Final
	switch v.Intent.Kind {
	case LoopFree, BlackholeFree:
		for _, name := range iv.net.Order {
			if !dataplane.SameHop(was[name], is[name]) {
				return true
			}
		}
		return false
	}
	if m.p != v.Prefix {
		return false
	}
	for _, tr := range v.Traces {
		for _, name := range tr.Path {
			if !dataplane.SameHop(was[name], is[name]) {
				return true
			}
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
func (iv *Incremental) observesLocalDevices(base Verdict, in *Intent, pr probe, im *analysis.Impact) bool {
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
func consultsPrefix(in *Intent, pr probe, p netip.Prefix) bool {
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
// from the old one rather than verified from scratch: it is the version
// derive builds over every prefix, so unedited devices keep their parsed
// files, the net is derived (bgp.Net.Derive), a prefix whose stable state
// did not move keeps the old outcome, and a verdict that read nothing the
// edit moved stands. While the established sessions are unchanged,
// bgp.DeriveProvenance re-derives only the provenance that involves an
// edited device; a session change falls back to a full provenance replay.
// Either way the result is the base NewIncremental would build on the
// edited texts. SimOpts.Ctx, when set, bounds the derivation. On error,
// cancellation included, the base is unchanged.
func (iv *Incremental) Commit(edits []netcfg.EditSet) error {
	newConfigs, err := iv.Apply(edits)
	if err != nil {
		return err
	}
	ctx := iv.SimOpts.Ctx
	if ctx == nil {
		ctx = context.Background()
	}
	v, _, err := iv.derive(ctx, newConfigs, edits, true)
	if err != nil {
		return err
	}
	var prov *provenance.Graph
	if v.sameSessions {
		prov = bgp.DeriveProvenance(v.net, v.out, iv.out, iv.prov, v.dirty)
	} else {
		prov = bgp.BuildProvenance(v.net, v.out)
	}
	iv.install(v.configs, v.files, v.net, v.out, prov, v.report)
	return nil
}
