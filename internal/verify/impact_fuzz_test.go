package verify_test

import (
	"context"
	"fmt"
	"slices"
	"sort"
	"strings"
	"sync"
	"testing"

	"acr/internal/bgp"
	"acr/internal/netcfg"
	"acr/internal/oracle"
	"acr/internal/scenario"
	"acr/internal/verify"
)

// fuzzBases lazily builds the two base verifiers the fuzzers mutate
// against: the Figure 2 incident (small, every intent kind) and a WAN
// with transit/leaf structure (exercises the leaf control-plane scope).
// Check never mutates the verifier, so one instance per base serves every
// fuzz iteration.
var fuzzBases = sync.OnceValue(func() []*verify.Incremental {
	mk := func(s *scenario.Scenario) *verify.Incremental {
		return verify.NewIncremental(s.Topo, s.Configs, s.Intents, bgp.Options{})
	}
	return []*verify.Incremental{
		mk(scenario.Figure2()),
		mk(scenario.WAN(4, 3, 2, scenario.GenOptions{})),
	}
})

// FuzzImpactSet throws arbitrary single-line edits — replacements with
// attacker-chosen text, deletions, insertions — at the impact analysis and
// audits each check (oracle.Audit): its verdicts are held to a from-scratch
// compile, simulation and verification, so any fuzz input whose impact set
// is too narrow fails here instead of as a wrong repair in production. Inputs the parser rejects outright are fine (the engine
// discards unparseable candidates the same way); what must never happen
// is a *parseable* edit whose pruned verdicts differ from the full ones.
func FuzzImpactSet(f *testing.F) {
	f.Add(uint8(0), uint8(0), uint16(3), " deny 10.0.0.0/16")
	f.Add(uint8(0), uint8(1), uint16(5), "")
	f.Add(uint8(1), uint8(0), uint16(9), " peer 10.1.0.1 as-number 65099")
	f.Add(uint8(1), uint8(2), uint16(1), " apply as-path 65000")
	f.Add(uint8(0), uint8(2), uint16(7), " permit 0.0.0.0/0 le 32")
	f.Fuzz(checkAudited)
}

// checkAudited applies one fuzzed single-line edit to a fuzz base and
// fails when oracle.Audit finds the check diverging from its references.
func checkAudited(t *testing.T, base, op uint8, line uint16, text string) {
	if strings.ContainsRune(text, '\n') {
		// A config line is one line by construction; the engine's
		// templates never emit embedded newlines.
		return
	}
	ivs := fuzzBases()
	iv := ivs[int(base)%len(ivs)]
	devices := make([]string, 0, len(iv.BaseConfigs()))
	for d := range iv.BaseConfigs() { //acrvet:ordered — sorted below
		devices = append(devices, d)
	}
	// Deterministic device pick: sort, then index by the op byte's
	// high bits so device choice and edit kind vary independently.
	sort.Strings(devices)
	dev := devices[int(op>>2)%len(devices)]
	cfg := iv.BaseConfigs()[dev]
	n := cfg.NumLines()
	if n == 0 {
		return
	}
	at := 1 + int(line)%n
	var edit netcfg.Edit
	switch op % 3 {
	case 0:
		edit = netcfg.ReplaceLine{At: at, Text: text}
	case 1:
		edit = netcfg.DeleteLine{At: at}
	default:
		edit = netcfg.InsertBefore{At: at, Text: text}
	}
	edits := []netcfg.EditSet{{Device: dev, Edits: []netcfg.Edit{edit}}}

	rep, _, err := iv.Check(edits)
	if err != nil {
		// Parse/apply failure: the candidate is discarded, nothing to
		// cross-check.
		return
	}
	label := fmt.Sprintf("%s %v", dev, edit)
	full, err := iv.FullCheck(edits)
	if err != nil {
		t.Fatalf("%s: from-scratch check: %v", label, err)
	}
	sameVerdicts(t, label+": checked", rep, full)
	if err := oracle.Audit(context.Background(), iv, edits); err != nil {
		t.Fatalf("incremental check diverged from its references: %v", err)
	}
	committed := iv.Clone()
	if err := committed.Commit(edits); err != nil {
		t.Fatalf("commit of a checked edit: %v", err)
	}
	sameBase(t, label, committed)
}

// sameVerdicts fails unless every verdict of got is the from-scratch
// verdict of want: pass, reason, resolved prefix, flapping, and each
// trace's outcome, path, executed lines and reason.
func sameVerdicts(t *testing.T, label string, got, want *verify.Report) {
	t.Helper()
	for i := range want.Verdicts {
		g, w := &got.Verdicts[i], &want.Verdicts[i]
		if g.Pass != w.Pass || g.Reason() != w.Reason() || g.Prefix != w.Prefix || g.Flapping != w.Flapping || len(g.Traces) != len(w.Traces) {
			t.Fatalf("%s %s: pass=%v %q prefix %v flapping=%v with %d traces, from scratch pass=%v %q prefix %v flapping=%v with %d traces",
				label, w.Intent.ID, g.Pass, g.Reason(), g.Prefix, g.Flapping, len(g.Traces), w.Pass, w.Reason(), w.Prefix, w.Flapping, len(w.Traces))
		}
		for j, wt := range w.Traces {
			gt := g.Traces[j]
			if gt.Outcome != wt.Outcome || !slices.Equal(gt.Path, wt.Path) || !slices.Equal(gt.Lines, wt.Lines) || gt.Reason() != wt.Reason() {
				t.Fatalf("%s %s trace %d: %v %v executed %v %q, from scratch %v %v executed %v %q", label, w.Intent.ID, j,
					gt.Outcome, gt.Path, gt.Lines, gt.Reason(), wt.Outcome, wt.Path, wt.Lines, wt.Reason())
			}
		}
	}
}

// sameBase fails unless committed, a verifier Commit advanced, holds the
// base NewIncremental builds on its texts: every verdict (sameVerdicts),
// and every prefix's convergence and stable routes.
func sameBase(t *testing.T, label string, committed *verify.Incremental) {
	t.Helper()
	want := verify.NewIncremental(committed.Topo, committed.BaseConfigs(), committed.Intents, committed.SimOpts)
	sameVerdicts(t, label+": committed", committed.BaseReport(), want.BaseReport())
	prefixes := want.BaseNet().AllPrefixes()
	if g := committed.BaseNet().AllPrefixes(); !slices.Equal(g, prefixes) {
		t.Fatalf("%s: committed prefixes %v, from scratch %v", label, g, prefixes)
	}
	key := func(r *bgp.Route) string {
		if r == nil {
			return "-"
		}
		return r.Key() + " rid " + r.PeerRID.String()
	}
	for _, p := range prefixes {
		g, w := committed.BaseOutcome().ByPrefix[p], want.BaseOutcome().ByPrefix[p]
		if g.Converged != w.Converged {
			t.Fatalf("%s: %v converged=%v, from scratch %v", label, p, g.Converged, w.Converged)
		}
		for _, d := range want.BaseNet().Order {
			if key(g.Final[d]) != key(w.Final[d]) {
				t.Fatalf("%s: %v at %s: committed %s, from scratch %s", label, p, d, key(g.Final[d]), key(w.Final[d]))
			}
		}
	}
}
