package core

import (
	"fmt"
	"slices"
	"sort"
	"strings"

	"acr/internal/netcfg"
)

// Report renders a human-readable post-mortem of a repair run: what
// failed, what the localizer pointed at, which templates were applied,
// and the final configuration diff. The base configurations are needed to
// quote line text in the localization table.
func (r *Result) Report(baseConfigs map[string]*netcfg.Config) string {
	var sb strings.Builder
	fmt.Fprintf(&sb, "# Repair report\n\n")
	status := "FEASIBLE UPDATE FOUND"
	if !r.Feasible {
		status = "NO FEASIBLE UPDATE (" + r.Termination + ")"
	}
	fmt.Fprintf(&sb, "result: %s\n", status)
	fmt.Fprintf(&sb, "failing tests before repair: %d\n", r.BaseFailing)
	if !r.Feasible && r.BestEffortConfigs != nil {
		if r.Improved {
			fmt.Fprintf(&sb, "best effort: %d failing tests (down from %d) — partial repair available\n",
				r.BestEffortFitness, r.BaseFailing)
		} else {
			fmt.Fprintf(&sb, "best effort: no improvement over the base configuration\n")
		}
	}
	fmt.Fprintf(&sb, "iterations: %d\n", r.Iterations)
	r.writeCounters(&sb, "")
	sb.WriteByte('\n')

	if len(r.Logs) > 0 {
		fmt.Fprintf(&sb, "## Iterations\n\n")
		fmt.Fprintf(&sb, "%4s %10s %10s %6s %12s\n", "iter", "generated", "validated", "kept", "best fitness")
		for _, lg := range r.Logs {
			fmt.Fprintf(&sb, "%4d %10d %10d %6d %12d\n", lg.Iteration, lg.Generated, lg.Validated, lg.Kept, lg.BestFitness)
		}
		sb.WriteByte('\n')
		// Localization snapshot of the first iteration.
		first := r.Logs[0]
		if len(first.TopSuspicious) > 0 {
			fmt.Fprintf(&sb, "## Most suspicious lines (iteration 1)\n\n")
			for _, s := range first.TopSuspicious {
				text := ""
				if cfg := baseConfigs[s.Line.Device]; cfg != nil && s.Line.Line >= 1 && s.Line.Line <= cfg.NumLines() {
					text = strings.TrimSpace(cfg.Line(s.Line.Line))
				}
				fmt.Fprintf(&sb, "  %-14s susp=%.3f (failed=%d passed=%d)  %s\n",
					s.Line, s.Susp, s.Failed, s.Passed, text)
			}
			sb.WriteByte('\n')
		}
	}

	if len(r.Applied) > 0 {
		fmt.Fprintf(&sb, "## Applied template instances\n\n")
		for i, a := range r.Applied {
			fmt.Fprintf(&sb, "  %d. %s\n", i+1, a)
		}
		sb.WriteByte('\n')
	}
	if len(r.Diffs) > 0 {
		fmt.Fprintf(&sb, "## Configuration changes\n\n")
		for _, d := range r.Diffs {
			sb.WriteString(d)
			sb.WriteByte('\n')
		}
	}
	return sb.String()
}

// writeCounters renders the run's counters for Summary and Report, one
// group to a line after indent; a group whose counters are all zero is
// left out.
func (r *Result) writeCounters(sb *strings.Builder, indent string) {
	type counter struct {
		name string
		n    int
	}
	for _, g := range []struct {
		name     string
		counters []counter
	}{
		{"validation", []counter{{"candidates", r.CandidatesValidated}, {"prefixSimulations", r.PrefixSimulations}, {"intentChecks", r.IntentChecks}}},
		{"cache", []counter{{"hits", r.CacheHits}, {"misses", r.CacheMisses}}},
		{"store", []counter{{"hits", r.StoreHits}, {"misses", r.StoreMisses}, {"corrupt", r.StoreCorrupt}}},
		{"impact", []counter{{"refuted", r.StaticallyRefuted}, {"scoped", r.ImpactScoped}, {"broad", r.ImpactBroad}}},
		{"delta", []counter{{"reused", r.DeltaReused}, {"resimulated", r.DeltaResimulated}, {"activations", r.SimActivations}}},
		{"static prior", []counter{{"diagnostics", r.StaticDiagnostics}, {"seededLines", r.PriorSeededLines}, {"templatesPruned", r.TemplatesPrunedStatic}}},
		{"quarantined", []counter{{"panicked", r.CandidatesPanicked}}},
	} {
		if !slices.ContainsFunc(g.counters, func(c counter) bool { return c.n != 0 }) {
			continue
		}
		sb.WriteString(indent + g.name + ":")
		for _, c := range g.counters {
			fmt.Fprintf(sb, " %s=%d", c.name, c.n)
		}
		sb.WriteByte('\n')
	}
}

// Canonical renders every deterministic field of the Result — the fixed
// configurations, fitness trajectory, applied templates, and all search
// counters — as one comparable string. Two runs of the same problem, seed,
// and options produce identical Canonical output even when one of them was
// killed and resumed from the journal; that invariant is what the crash
// harness asserts. Wall-clock time, stored error details, and the
// Resumed markers are excluded: they legitimately differ across an
// interruption.
func (r *Result) Canonical() string {
	var sb strings.Builder
	fmt.Fprintf(&sb, "feasible=%v termination=%s iterations=%d baseFailing=%d\n",
		r.Feasible, r.Termination, r.Iterations, r.BaseFailing)
	// PrefixSimulations/IntentChecks, the impact-analysis counters and the
	// delta counters (DeltaReused/DeltaResimulated/SimActivations) are
	// deliberately absent: they measure how much work validation did, not
	// what it decided. Every verdict the incremental path returns equals a
	// from-scratch check's, so the fitness values, and everything in this
	// string, do not depend on how much was simulated; TestSoundnessAudit
	// is how tests enforce that.
	fmt.Fprintf(&sb, "validated=%d\n", r.CandidatesValidated)
	fmt.Fprintf(&sb, "static: diags=%d seeded=%d pruned=%d\n",
		r.StaticDiagnostics, r.PriorSeededLines, r.TemplatesPrunedStatic)
	// "timedOut=0 retries=0" is constant text: it keeps every Canonical()
	// digest equal to the one written when the engine had per-candidate
	// timeouts and validator retries.
	fmt.Fprintf(&sb, "quarantine: panicked=%d timedOut=0 retries=0\n", r.CandidatesPanicked)
	// StoreHits/StoreMisses/StoreCorrupt are deliberately absent: the
	// persistent store only moves evaluations between "simulated" and
	// "read from disk", so a warm, cold, faulty, or absent store must
	// produce this exact string — the storage-chaos harness asserts it.
	fmt.Fprintf(&sb, "cache: hits=%d misses=%d\n", r.CacheHits, r.CacheMisses)
	for _, a := range r.Applied {
		fmt.Fprintf(&sb, "applied %s\n", a)
	}
	for _, d := range r.Diffs {
		fmt.Fprintf(&sb, "diff %s\n", d)
	}
	writeConfigs := func(label string, configs map[string]*netcfg.Config) {
		devices := make([]string, 0, len(configs))
		for d := range configs {
			devices = append(devices, d)
		}
		sort.Strings(devices)
		for _, d := range devices {
			fmt.Fprintf(&sb, "%s %s\n%s", label, d, configs[d].Text())
		}
	}
	writeConfigs("final", r.FinalConfigs)
	fmt.Fprintf(&sb, "bestEffort fitness=%d improved=%v applied=%s\n",
		r.BestEffortFitness, r.Improved, strings.Join(r.BestEffortApplied, "|"))
	writeConfigs("bestEffort", r.BestEffortConfigs)
	for _, l := range r.Logs {
		fmt.Fprintf(&sb, "iter=%d generated=%d validated=%d kept=%d bestFitness=%d top=",
			l.Iteration, l.Generated, l.Validated, l.Kept, l.BestFitness)
		for _, s := range l.TopSuspicious {
			fmt.Fprintf(&sb, "%s:%g,%d,%d,%g;", s.Line, s.Susp, s.Failed, s.Passed, s.Prior)
		}
		sb.WriteByte('\n')
	}
	return sb.String()
}
