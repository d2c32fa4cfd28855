package verify_test

import (
	"errors"
	"sort"
	"strings"
	"sync"
	"testing"

	"acr/internal/bgp"
	"acr/internal/netcfg"
	"acr/internal/scenario"
	"acr/internal/verify"
)

// fuzzBases lazily builds the two base verifiers the fuzzers mutate
// against: the Figure 2 incident (small, every intent kind) and a WAN
// with transit/leaf structure (exercises leaf-local slices).
// Both run with Differential on. Check never mutates the verifier, so one
// instance per base serves every fuzz iteration.
var fuzzBases = sync.OnceValue(func() []*verify.Incremental {
	mk := func(s *scenario.Scenario) *verify.Incremental {
		iv := verify.NewIncremental(s.Topo, s.Configs, s.Intents, bgp.Options{})
		iv.Differential = true
		return iv
	}
	return []*verify.Incremental{
		mk(scenario.Figure2()),
		mk(scenario.WAN(4, 3, 2, scenario.GenOptions{})),
	}
})

// FuzzImpactSet throws arbitrary single-line edits — replacements with
// attacker-chosen text, deletions, insertions — at the impact analysis
// with differential mode on: every pruned validation is replayed against a
// from-scratch full simulation, so any fuzz input whose impact set is too
// narrow surfaces as a DivergenceError here instead of a wrong repair in
// production. Inputs the parser rejects outright are fine (the engine
// discards unparseable candidates the same way); what must never happen
// is a *parseable* edit whose pruned verdicts differ from the full ones.
func FuzzImpactSet(f *testing.F) {
	f.Add(uint8(0), uint8(0), uint16(3), " deny 10.0.0.0/16")
	f.Add(uint8(0), uint8(1), uint16(5), "")
	f.Add(uint8(1), uint8(0), uint16(9), " peer 10.1.0.1 as-number 65099")
	f.Add(uint8(1), uint8(2), uint16(1), " apply as-path 65000")
	f.Add(uint8(0), uint8(2), uint16(7), " permit 0.0.0.0/0 le 32")
	f.Fuzz(checkDifferential)
}

// checkDifferential applies one fuzzed single-line edit to a fuzz base
// and fails on either Differential divergence, or on verdicts that differ
// from a from-scratch FullCheck.
func checkDifferential(t *testing.T, base, op uint8, line uint16, text string) {
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
		var dv *verify.DivergenceError
		var dde *verify.DeltaDivergenceError
		if errors.As(err, &dv) || errors.As(err, &dde) {
			t.Fatalf("incremental check diverged from the cold path: %v", err)
		}
		// Parse/apply failure: the candidate is discarded, nothing to
		// cross-check.
		return
	}
	full, err := iv.FullCheck(edits)
	if err != nil {
		t.Fatalf("Check accepted edits FullCheck rejects: %v", err)
	}
	if !reportsEqual(rep, full) {
		t.Fatalf("pruned and full verdicts disagree for %v:\npruned:\n%s\nfull:\n%s",
			edits, rep.Summary(), full.Summary())
	}
}
