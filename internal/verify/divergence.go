package verify

import (
	"context"
	"fmt"
	"strings"

	"acr/internal/netcfg"
)

// DivergenceError reports that the impact-scoped check and a
// from-scratch full check disagreed on a verdict — the impact analysis
// was unsound for this edit. It is returned by
// CheckCtx in Differential mode, carries a minimized reproduction, and is
// terminal: retrying cannot help, the run must fail so the defect is
// fixed rather than silently mis-searched.
type DivergenceError struct {
	// IntentID names the first intent whose verdicts differ.
	IntentID string
	// Pruned and Full are the disagreeing Pass verdicts.
	Pruned, Full bool
	// Refuted reports that the pruned path statically refuted the
	// candidate (the strongest — and therefore most suspect — claim).
	Refuted bool
	// Edits is a minimized edit sequence still reproducing the divergence,
	// ready to be turned into a regression case.
	Edits []netcfg.EditSet
}

// Error renders the divergence with its minimized reproduction.
func (e *DivergenceError) Error() string {
	var sb strings.Builder
	fmt.Fprintf(&sb, "impact divergence on intent %s: pruned=%v full=%v", e.IntentID, e.Pruned, e.Full)
	if e.Refuted {
		sb.WriteString(" (candidate was statically refuted)")
	}
	if len(e.Edits) > 0 {
		sb.WriteString("; minimized repro:")
		for _, es := range e.Edits {
			for _, ed := range es.Edits {
				fmt.Fprintf(&sb, " [%s %s]", es.Device, ed)
			}
		}
	}
	return sb.String()
}

// reportsDiverge compares per-intent Pass verdicts and returns a
// DivergenceError skeleton for the first mismatch, or nil when the
// reports agree.
func reportsDiverge(pruned, full *Report) *DivergenceError {
	if pruned == nil || full == nil {
		return nil
	}
	if len(pruned.Verdicts) != len(full.Verdicts) {
		return &DivergenceError{IntentID: "<verdict-count>"}
	}
	for i := range pruned.Verdicts {
		if pruned.Verdicts[i].Pass != full.Verdicts[i].Pass {
			return &DivergenceError{
				IntentID: pruned.Verdicts[i].Intent.ID,
				Pruned:   pruned.Verdicts[i].Pass,
				Full:     full.Verdicts[i].Pass,
			}
		}
	}
	return nil
}

// minimizeDivergence greedily shrinks a diverging edit sequence: each
// single-line edit is dropped in turn and kept out whenever the remainder
// still diverges. The result is a 1-minimal reproduction (removing any
// one remaining edit makes the divergence disappear or the edits
// inapplicable). A cancelled context ends the shrinking, and errors during
// a trial (unapplicable subset, cancellation) count as "does not diverge",
// so minimization only ever returns subsets it re-confirmed; if nothing
// shrinks, the original flattened sequence is returned as-is.
func (iv *Incremental) minimizeDivergence(ctx context.Context, edits []netcfg.EditSet, diverges func(context.Context, []netcfg.EditSet) bool) []netcfg.EditSet {
	cur := flattenEdits(edits)
	for i := 0; i < len(cur); {
		trial := make([]netcfg.EditSet, 0, len(cur)-1)
		trial = append(trial, cur[:i]...)
		trial = append(trial, cur[i+1:]...)
		if len(trial) > 0 && ctx.Err() == nil && diverges(ctx, trial) {
			cur = trial
		} else {
			i++
		}
	}
	return cur
}

// reportDiverges reports whether the scoped check and a from-scratch full
// check disagree on some intent verdict for edits.
func (iv *Incremental) reportDiverges(ctx context.Context, edits []netcfg.EditSet) bool {
	rep, _, err := iv.checkImpactCtx(ctx, edits)
	if err != nil {
		return false
	}
	full, _, err := iv.FullCheckCtx(ctx, edits)
	return err == nil && reportsDiverge(rep, full) != nil
}

// flattenEdits splits every edit set into single-edit sets so the
// minimizer can drop edits one at a time. A subset re-applies as its own
// sequence (anchors within each original set referred to the original
// document; chained single-edit sets shift them), which is fine: every
// candidate subset is re-validated by re-running both checks on it.
func flattenEdits(edits []netcfg.EditSet) []netcfg.EditSet {
	var out []netcfg.EditSet
	for _, es := range edits {
		for _, e := range es.Edits {
			out = append(out, netcfg.EditSet{Device: es.Device, Edits: []netcfg.Edit{e}})
		}
	}
	return out
}
