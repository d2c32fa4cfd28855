package oracle

import (
	"context"
	"fmt"
	"maps"
	"slices"
	"strings"

	"acr/internal/bgp"
	"acr/internal/netcfg"
	"acr/internal/verify"
)

// Tally counts what the audits and reference checks made through it
// covered.
type Tally struct {
	// Candidates counts audited candidates.
	Candidates int
	// Scratch counts prefixes the from-scratch checks simulated: what
	// validating the candidates without reuse costs.
	Scratch int
	// DeltaReplayed counts prefixes delta-simulated and held to a cold
	// simulation.
	DeltaReplayed int
	// Converged counts converged prefixes the reference held to be
	// fixpoints; Flapping, flapping ones it found no stable phase in.
	Converged, Flapping int
}

// Audit is Tally.Audit, uncounted.
func Audit(ctx context.Context, iv *verify.Incremental, edits []netcfg.EditSet) error {
	return new(Tally).Audit(ctx, iv, edits)
}

// Audit checks iv's incremental check of edits against three references:
//
//   - every intent's Pass under iv.CheckCtx equals its Pass under a
//     from-scratch compile, simulation and verification of the edited
//     configurations;
//   - when bgp.Net.Derive keeps the established sessions and some device is
//     edited, every prefix that bgp.DeltaSimulatePrefix answers from the base
//     outcome reaches the cold simulation's best routes and adj-RIB-in;
//   - the cold outcome passes Reference.
//
// A divergence comes back as an error naming it, with a 1-minimal
// sub-sequence of the edits that still diverges.
func (t *Tally) Audit(ctx context.Context, iv *verify.Incremental, edits []netcfg.EditSet) error {
	t.Candidates++
	found, err := t.audit(ctx, iv, edits)
	if err != nil || found == "" {
		return err
	}
	var probe Tally
	repro := minimize(edits, func(sub []netcfg.EditSet) bool {
		d, err := probe.audit(ctx, iv, sub)
		return err == nil && d != ""
	})
	var sb strings.Builder
	for _, es := range repro {
		fmt.Fprintf(&sb, " [%s %s]", es.Device, es.Edits[0])
	}
	return fmt.Errorf("%s; minimized repro:%s", found, sb.String())
}

// audit returns the first divergence Audit describes, "" for none, and an
// error when the edits do not check or apply.
func (t *Tally) audit(ctx context.Context, iv *verify.Incremental, edits []netcfg.EditSet) (string, error) {
	rep, stats, err := iv.CheckCtx(ctx, edits)
	if err != nil {
		return "", fmt.Errorf("incremental check: %w", err)
	}
	configs := maps.Clone(iv.BaseConfigs())
	edited := map[string]bool{}
	for _, es := range edits {
		c, ok := configs[es.Device]
		if !ok {
			return "", fmt.Errorf("edit set for unknown device %q", es.Device)
		}
		if configs[es.Device], err = es.Apply(c); err != nil {
			return "", fmt.Errorf("apply edits to %s: %w", es.Device, err)
		}
		edited[es.Device] = true
	}
	// files is every device parsed afresh; derived keeps the base's parse
	// of each unedited device, as the engine's Derive is handed it.
	files := make(map[string]*netcfg.File, len(configs))
	derived := maps.Clone(iv.BaseFiles())
	var dirty []string
	for _, d := range iv.BaseNet().Order {
		files[d], _ = netcfg.Parse(configs[d])
		if edited[d] {
			derived[d] = files[d]
			dirty = append(dirty, d)
		}
	}

	n := bgp.Compile(iv.Topo, files)
	opts := iv.SimOpts
	opts.Ctx = ctx
	cold := bgp.Simulate(n, opts)
	if cold.Canceled() {
		return "", ctx.Err()
	}
	t.Scratch += len(n.AllPrefixes())
	full := verify.Verify(n, cold, iv.Intents)
	if len(full.Verdicts) != len(rep.Verdicts) {
		return "", fmt.Errorf("check returned %d verdicts for %d intents", len(rep.Verdicts), len(full.Verdicts))
	}
	for i, v := range full.Verdicts {
		if rep.Verdicts[i].Pass != v.Pass {
			return fmt.Sprintf("intent %s: the check says pass=%v (%s), from scratch pass=%v",
				v.Intent.ID, rep.Verdicts[i].Pass, stats, v.Pass), nil
		}
	}
	if err := t.Reference(cold); err != nil {
		return "reference simulator: " + err.Error(), nil
	}
	dn, same := iv.BaseNet().Derive(derived, dirty)
	if !same || len(dirty) == 0 {
		return "", nil
	}
	for _, p := range dn.AllPrefixes() {
		po, ok := bgp.DeltaSimulatePrefix(dn, iv.BaseOutcome().ByPrefix[p], dirty, p, opts)
		if !ok {
			continue
		}
		t.DeltaReplayed++
		if d := fixpointDiff(dn, n, po, cold.ByPrefix[p]); d != "" {
			return fmt.Sprintf("delta re-simulation of %s: %s", p, d), nil
		}
	}
	return "", nil
}

// fixpointDiff describes where a delta outcome on net dn and a cold one of
// the same prefix on net cn disagree on the stable state, "" when cold
// converged to delta's best routes and adj-RIB-in on every router. Each
// adj-in slot is resolved through its own net's session there.
func fixpointDiff(dn, cn *bgp.Net, delta, cold *bgp.PrefixOutcome) string {
	switch {
	case cold == nil:
		return "the cold simulation has no such prefix"
	case !cold.Converged:
		return fmt.Sprintf("delta converged, the cold simulation flaps (cycle of %d states)", len(cold.Cycle))
	}
	for i, d := range cn.Order {
		if a, b := fromBGP(delta.Final[d]), fromBGP(cold.Final[d]); !equal(a, b) {
			return fmt.Sprintf("best at %s: delta %v, cold %v", d, a, b)
		}
		if len(delta.AdjIn[i]) != len(cold.AdjIn[i]) {
			return fmt.Sprintf("adj-RIB-in at %s: delta %d sessions, cold %d", d, len(delta.AdjIn[i]), len(cold.AdjIn[i]))
		}
		for j := range delta.AdjIn[i] {
			if a, b := fromBGP(delta.AdjInAt(dn, i, j)), fromBGP(cold.AdjInAt(cn, i, j)); !equal(a, b) {
				return fmt.Sprintf("adj-RIB-in slot %d at %s: delta %v, cold %v", j, d, a, b)
			}
		}
	}
	return ""
}

// Reference holds every prefix of out to the reference simulator: out
// simulated exactly the prefixes the configurations originate, each
// converged prefix's Final is Stable, and no phase of a flapping prefix's
// cycle is.
func (t *Tally) Reference(out *bgp.Outcome) error {
	n := out.Net
	want := originated(n.Topo, n.Files)
	if len(want) != len(n.AllPrefixes()) || len(out.ByPrefix) != len(want) {
		return fmt.Errorf("%d prefixes simulated, %d originated", len(out.ByPrefix), len(want))
	}
	for _, p := range n.AllPrefixes() {
		po := out.ByPrefix[p]
		switch {
		case !want[p] || po == nil:
			return fmt.Errorf("%s simulated but not originated, or originated but not simulated", p)
		case po.Converged:
			if err := Stable(n.Topo, n.Files, p, fromBGPMap(po.Final)); err != nil {
				return err
			}
			t.Converged++
		case len(po.Cycle) == 0:
			return fmt.Errorf("%s neither converged nor cycles", p)
		default:
			for i, phase := range po.Cycle {
				if Stable(n.Topo, n.Files, p, fromBGPMap(phase)) == nil {
					return fmt.Errorf("%s flaps, but phase %d of its %d-state cycle is stable", p, i, len(po.Cycle))
				}
			}
			t.Flapping++
		}
	}
	return nil
}

func fromBGP(r *bgp.Route) *Route {
	if r == nil {
		return nil
	}
	return &Route{Prefix: r.Prefix, Path: r.ASPath, LocalPref: r.LocalPref, MED: r.MED,
		Origin: uint8(r.Origin), NextHop: r.NextHop, Local: r.Src == bgp.SrcLocal,
		PeerAddr: r.PeerAddr, PeerRID: r.PeerRID}
}

func fromBGPMap(m map[string]*bgp.Route) map[string]*Route {
	out := make(map[string]*Route, len(m))
	for d, r := range m { //acrvet:ordered — builds a map
		out[d] = fromBGP(r)
	}
	return out
}

// minimize shrinks edits to a 1-minimal sub-sequence on which fails holds:
// split into single-edit sets, each edit in turn is dropped and kept out
// while fails still holds, and passes repeat until one drops nothing,
// because dropping a later edit can make an earlier one removable. A subset
// re-applies as its own sequence; fails must count one that no longer
// applies as not failing.
func minimize(edits []netcfg.EditSet, fails func([]netcfg.EditSet) bool) []netcfg.EditSet {
	var cur []netcfg.EditSet
	for _, es := range edits {
		for _, e := range es.Edits {
			cur = append(cur, netcfg.EditSet{Device: es.Device, Edits: []netcfg.Edit{e}})
		}
	}
	for shrunk := true; shrunk; {
		shrunk = false
		for i := 0; i < len(cur) && len(cur) > 1; {
			if trial := slices.Delete(slices.Clone(cur), i, i+1); fails(trial) {
				cur, shrunk = trial, true
			} else {
				i++
			}
		}
	}
	return cur
}
