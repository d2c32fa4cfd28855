package verify

import (
	"context"
	"errors"
	"fmt"
	"net/netip"
	"strings"

	"acr/internal/bgp"
	"acr/internal/netcfg"
)

// DeltaDivergenceError reports that a delta re-simulation and a cold full
// simulation reached different fixpoints for a prefix — the delta
// propagation was unsound for this edit (or exposed multi-stability).
// Returned by CheckCtx in Differential mode with a minimized
// reproduction attached; terminal like *DivergenceError: the run must
// fail so the defect is fixed rather than silently mis-searched.
type DeltaDivergenceError struct {
	// Prefix is the diverging prefix; Device the first router (in
	// activation order) whose stable route differs.
	Prefix netip.Prefix
	Device string
	// Delta and Full are the disagreeing route keys (or convergence
	// summaries when the full run did not converge).
	Delta, Full string
	// Edits is a minimized edit sequence still reproducing the
	// divergence, ready to be turned into a regression case.
	Edits []netcfg.EditSet
}

// Error renders the divergence with its minimized reproduction.
func (e *DeltaDivergenceError) Error() string {
	var sb strings.Builder
	fmt.Fprintf(&sb, "delta divergence on prefix %s at %s: delta=%s full=%s", e.Prefix, e.Device, e.Delta, e.Full)
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

// deltaOutcomesDiverge compares a delta outcome against a cold full
// simulation of the same prefix. Only convergence and the stable
// best-route maps are compared — they are everything verdicts read; pass
// counts and work counters legitimately differ. Returns the first
// diverging device (in activation order) with both route keys, or
// ("", "", "") on agreement.
func deltaOutcomesDiverge(delta, full *bgp.PrefixOutcome, order []string) (device, deltaKey, fullKey string) {
	if !full.Converged {
		return "<convergence>", "converged", fmt.Sprintf("cycle of %d states", len(full.Cycle))
	}
	key := func(r *bgp.Route) string {
		if r == nil {
			return "-"
		}
		return r.Key()
	}
	for _, name := range order {
		if dk, fk := key(delta.Final[name]), key(full.Final[name]); dk != fk {
			return name, dk, fk
		}
	}
	return "", "", ""
}

// deltaDiverges reports whether the scoped check, replaying every
// delta-simulated prefix cold, hits a *DeltaDivergenceError on edits.
func (iv *Incremental) deltaDiverges(ctx context.Context, edits []netcfg.EditSet) bool {
	_, _, err := iv.checkImpactCtx(ctx, edits)
	var dde *DeltaDivergenceError
	return errors.As(err, &dde)
}
