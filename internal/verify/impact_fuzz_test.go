package verify_test

import (
	"context"
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

	if _, _, err := iv.Check(edits); err != nil {
		// Parse/apply failure: the candidate is discarded, nothing to
		// cross-check.
		return
	}
	if err := oracle.Audit(context.Background(), iv, edits); err != nil {
		t.Fatalf("incremental check diverged from its references: %v", err)
	}
}
