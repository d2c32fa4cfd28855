// Package baselines implements the two comparison points of §2.3:
//
//   - MetaProv (provenance-based repair, Figure 3a): the search space is
//     the set of leaf configuration predicates of the violated event's
//     provenance tree. It picks single-line fixes and validates them ONLY
//     against the target violation — efficient, but blind to regressions
//     and to multi-line root causes, which is the paper's incorrectness
//     argument.
//   - AED (synthesis-based repair, Figure 3b): the search space is the
//     power set of per-line delta variables (2^N). Our surrogate
//     systematically enumerates operator applications over every line
//     (no localization) with full validation of every candidate —
//     correct by construction, but the explored-candidate count grows
//     with configuration size, which is the paper's scalability argument.
package baselines

import (
	"context"
	"fmt"
	"net/netip"
	"sort"
	"strings"

	"acr/internal/bgp"
	"acr/internal/core"
	"acr/internal/netcfg"
	"acr/internal/verify"
)

// MetaProvResult reports one provenance-repair run.
type MetaProvResult struct {
	// SearchSpace is the number of leaf configuration predicates in the
	// violated event's provenance tree (Figure 3a's N).
	SearchSpace int
	// TargetFixed reports whether some candidate made the originally
	// failing tests pass (MetaProv's only acceptance criterion).
	TargetFixed bool
	// CandidatesTried counts single-line candidates validated against the
	// target violation.
	CandidatesTried int
	// ChosenDesc describes the accepted repair.
	ChosenDesc string
	// FinalConfigs is the repaired configuration map (base when unfixed).
	FinalConfigs map[string]*netcfg.Config
	// Regressions counts intents that PASSED before the repair and FAIL
	// after it — found only by the full re-verification MetaProv itself
	// never runs. Regressions > 0 is §2.3's incorrectness in action.
	Regressions int
	// StillFailing counts originally failing intents that remain failing.
	StillFailing int
	// Canceled reports the run was interrupted by its context.
	Canceled bool
}

// Correct reports whether the repair fixed the violation without
// regressions (judged by the full verification MetaProv skips).
func (r *MetaProvResult) Correct() bool {
	return r.TargetFixed && r.Regressions == 0 && r.StillFailing == 0
}

// Summary renders the result.
func (r *MetaProvResult) Summary() string {
	return fmt.Sprintf("metaprov: space=%d tried=%d fixed=%v regressions=%d chosen=%q",
		r.SearchSpace, r.CandidatesTried, r.TargetFixed, r.Regressions, r.ChosenDesc)
}

// MetaProv runs the provenance baseline on a repair problem.
func MetaProv(p core.Problem) *MetaProvResult {
	return MetaProvContext(context.Background(), p)
}

// MetaProvContext is MetaProv with cooperative cancellation: the context
// is checked between leaf-candidate validations and threaded into each
// incremental check.
func MetaProvContext(ctx context.Context, p core.Problem) *MetaProvResult {
	res := &MetaProvResult{FinalConfigs: p.Configs}
	iv := verify.NewIncremental(p.Topo, p.Configs, p.Intents, bgp.Options{})
	baseRep := iv.BaseReport()
	if baseRep.NumFailed() == 0 {
		res.TargetFixed = true
		return res
	}
	failingIDs := map[string]bool{}
	for _, v := range baseRep.Failed() {
		failingIDs[v.Intent.ID] = true
	}

	// The provenance tree of the violated event: every derivation of the
	// failing tests' prefixes, plus negative provenance. Its distinct
	// configuration lines are the leaves — the search space.
	leafSet := map[netcfg.LineRef]bool{}
	for _, v := range baseRep.Failed() {
		if v.Prefix.IsValid() {
			for _, l := range iv.BaseProvenance().LinesForPrefix(v.Prefix) {
				leafSet[l] = true
			}
		} else {
			for _, l := range bgp.MissingOriginLines(iv.BaseNet(), v.Intent.DstPrefix) {
				leafSet[l] = true
			}
		}
	}
	for _, l := range iv.BaseNet().FailedSessionLines() {
		leafSet[l] = true
	}
	leaves := make([]netcfg.LineRef, 0, len(leafSet))
	for l := range leafSet {
		leaves = append(leaves, l)
	}
	sort.Slice(leaves, func(i, j int) bool { return leaves[i].Less(leaves[j]) })
	res.SearchSpace = len(leaves)

	failingPrefixes := failingDstPrefixes(baseRep)
	for _, leaf := range leaves {
		for _, cand := range leafCandidates(iv.BaseFiles(), p.Configs, leaf, failingPrefixes) {
			if ctx.Err() != nil {
				res.Canceled = true
				res.StillFailing = len(failingIDs)
				return res
			}
			res.CandidatesTried++
			rep, _, err := iv.CheckCtx(ctx, []netcfg.EditSet{cand.edits})
			if err != nil {
				continue
			}
			// MetaProv's acceptance: the target violation is gone. It does
			// not look at anything else.
			ok := true
			for id := range failingIDs {
				if v := rep.ByID(id); v == nil || !v.Pass {
					ok = false
					break
				}
			}
			if !ok {
				continue
			}
			res.TargetFixed = true
			res.ChosenDesc = cand.desc
			res.FinalConfigs, _ = iv.Apply([]netcfg.EditSet{cand.edits}) // the check just applied these edits
			// Post-hoc audit (not part of MetaProv): full verification.
			for i, v := range rep.Verdicts {
				if v.Pass {
					continue
				}
				if baseRep.Verdicts[i].Pass {
					res.Regressions++
				} else if !failingIDs[v.Intent.ID] {
					res.StillFailing++
				}
			}
			return res
		}
	}
	res.StillFailing = len(failingIDs)
	return res
}

type leafCandidate struct {
	edits netcfg.EditSet
	desc  string
}

// leafCandidates generates MetaProv's single-line value modifications for
// one leaf predicate: delete the line, or — for a permit prefix-list entry
// covering a failing prefix — shadow that prefix with a deny entry.
func leafCandidates(files map[string]*netcfg.File, configs map[string]*netcfg.Config, leaf netcfg.LineRef, failing []netip.Prefix) []leafCandidate {
	var out []leafCandidate
	f := files[leaf.Device]
	if f == nil {
		return nil
	}
	if e := prefixListEntryAt(f, leaf.Line); e != nil && e.Permit {
		for _, p := range failing {
			if e.Matches(p) {
				out = append(out, leafCandidate{
					edits: netcfg.EditSet{Device: leaf.Device, Edits: []netcfg.Edit{
						netcfg.InsertBefore{
							At:   leaf.Line,
							Text: netcfg.FormatPrefixListEntry(e.Name, max(1, e.Index-1), false, p, 0, 0),
						},
					}},
					desc: fmt.Sprintf("metaprov: shadow %s with deny in %s at %s", p, e.Name, leaf),
				})
			}
		}
	}
	out = append(out, leafCandidate{
		edits: netcfg.EditSet{Device: leaf.Device, Edits: []netcfg.Edit{netcfg.DeleteLine{At: leaf.Line}}},
		desc:  fmt.Sprintf("metaprov: delete %s (%s)", leaf, strings.TrimSpace(configs[leaf.Device].Line(leaf.Line))),
	})
	return out
}

func prefixListEntryAt(f *netcfg.File, line int) *netcfg.PrefixList {
	for _, e := range f.PrefixLists {
		if e.Line == line {
			return e
		}
	}
	return nil
}

func failingDstPrefixes(rep *verify.Report) []netip.Prefix {
	seen := map[netip.Prefix]bool{}
	var out []netip.Prefix
	for _, v := range rep.Failed() {
		p := v.Intent.DstPrefix.Masked()
		if p.IsValid() && !seen[p] {
			seen[p] = true
			out = append(out, p)
		}
	}
	return out
}
