// Package sbfl implements Spectrum-Based Fault Localization over
// configuration lines (§4.1 of the paper): every line gets a
// suspiciousness score from how often failing vs. passing tests cover it.
// Tarantula (Eq. 1 of the paper) is the default; Ochiai, Jaccard, and
// DStar are provided for the suspiciousness-metric ablation the paper
// lists as future work (§6).
package sbfl

import (
	"cmp"
	"fmt"
	"math"
	"slices"
	"sort"
	"strings"

	"acr/internal/coverage"
	"acr/internal/netcfg"
)

// Formula computes suspiciousness from per-line counts: failed/passed are
// the numbers of failing/passing tests covering the line; totalFailed and
// totalPassed are suite-wide totals.
type Formula struct {
	Name string
	Fn   func(failed, passed, totalFailed, totalPassed int) float64
}

// Tarantula is Eq. 1 of the paper:
//
//	susp(s) = (failed/totalFailed) / (passed/totalPassed + failed/totalFailed)
var Tarantula = Formula{Name: "tarantula", Fn: func(f, p, tf, tp int) float64 {
	if tf == 0 || f == 0 {
		return 0
	}
	fr := float64(f) / float64(tf)
	pr := 0.0
	if tp > 0 {
		pr = float64(p) / float64(tp)
	}
	return fr / (pr + fr)
}}

// Ochiai: failed / sqrt(totalFailed * (failed+passed)).
var Ochiai = Formula{Name: "ochiai", Fn: func(f, p, tf, tp int) float64 {
	if f == 0 || tf == 0 {
		return 0
	}
	return float64(f) / math.Sqrt(float64(tf)*float64(f+p))
}}

// Jaccard: failed / (totalFailed + passed).
var Jaccard = Formula{Name: "jaccard", Fn: func(f, p, tf, tp int) float64 {
	if f == 0 {
		return 0
	}
	return float64(f) / float64(tf+p)
}}

// DStar (D*, exponent 2): failed² / (passed + totalFailed - failed).
// The undefined 0/0 corner (a line covered by every failing test and no
// passing test) is mapped to a large finite score so rankings stay total.
var DStar = Formula{Name: "dstar", Fn: func(f, p, tf, tp int) float64 {
	if f == 0 {
		return 0
	}
	den := float64(p + tf - f)
	if den <= 0 {
		return math.MaxFloat64 / 2
	}
	return float64(f*f) / den
}}

// Formulas lists every provided formula, Tarantula first.
var Formulas = []Formula{Tarantula, Ochiai, Jaccard, DStar}

// Score is one line's suspiciousness.
type Score struct {
	Line   netcfg.LineRef
	Susp   float64
	Failed int
	Passed int
	// Prior is the static-analysis prior folded into Susp by ApplyPrior
	// (0 when the line carries no diagnostic).
	Prior float64
}

// Rank scores every covered line and sorts by suspiciousness (descending),
// breaking ties by line reference for determinism. The failed/passed
// counts of all lines accumulate in one pass over the spectrum, indexed by
// line ID, so the scores come out in ID order — which is LineRef order —
// and a stable sort by suspiciousness keeps it among ties.
func Rank(m *coverage.Matrix, f Formula) []Score {
	tf, tp := m.TotalFailed(), m.TotalPassed()
	failed, passed := make([]int32, m.Space.Len()), make([]int32, m.Space.Len())
	for _, t := range m.Tests {
		count := passed
		if !t.Pass {
			count = failed
		}
		for id := t.Lines.Next(0); id >= 0; id = t.Lines.Next(id + 1) {
			count[id]++
		}
	}
	var out []Score
	for id := range failed {
		fc, pc := int(failed[id]), int(passed[id])
		if fc+pc > 0 {
			out = append(out, Score{Line: m.Space.Ref(id), Susp: f.Fn(fc, pc, tf, tp), Failed: fc, Passed: pc})
		}
	}
	slices.SortStableFunc(out, func(a, b Score) int { return cmp.Compare(b.Susp, a.Susp) })
	return out
}

// Suspicious filters a ranking to scores >= minSusp, keeping at least k
// (k <= 0 means unlimited). A suspiciousness tie is never split: lines
// scoring exactly as the k-th line are all included (bounded by 8×k as a
// runaway guard) — the ranking's tie-break is lexicographic and carries
// no signal. These are the lines the fix stage targets.
func Suspicious(scores []Score, k int, minSusp float64) []Score {
	var out []Score
	for _, s := range scores {
		if s.Susp < minSusp || s.Susp == 0 {
			break // sorted descending
		}
		if k > 0 && len(out) >= k && s.Susp < out[len(out)-1].Susp {
			break
		}
		if k > 0 && len(out) >= 8*k {
			break
		}
		out = append(out, s)
	}
	return out
}

// ApplyPrior folds a static-analysis prior into a ranking: a line with
// prior p gets susp' = 1 - (1-susp)(1-p) — a noisy-or, so static evidence
// boosts but never drowns the spectrum signal — and flagged lines absent
// from the ranking (statically suspect but not covered by any sampled
// test) are appended with susp = p, putting them in contention for the
// fix stage. Returns the new ranking (input untouched) and the number of
// uncovered lines seeded in.
func ApplyPrior(scores []Score, prior map[netcfg.LineRef]float64) ([]Score, int) {
	if len(prior) == 0 {
		return scores, 0
	}
	out := make([]Score, len(scores), len(scores)+len(prior))
	copy(out, scores)
	covered := make(map[netcfg.LineRef]bool, len(out))
	for i := range out {
		covered[out[i].Line] = true
		if p := prior[out[i].Line]; p > 0 {
			out[i].Prior = p
			out[i].Susp = 1 - (1-out[i].Susp)*(1-p)
		}
	}
	seeded := 0
	for l, p := range prior {
		if p > 0 && !covered[l] {
			out = append(out, Score{Line: l, Susp: p, Prior: p})
			seeded++
		}
	}
	sort.SliceStable(out, func(i, j int) bool {
		if out[i].Susp != out[j].Susp {
			return out[i].Susp > out[j].Susp
		}
		return out[i].Line.Less(out[j].Line)
	})
	return out, seeded
}

// ScoreOf returns the score of a specific line in a ranking, or nil.
func ScoreOf(scores []Score, l netcfg.LineRef) *Score {
	for i := range scores {
		if scores[i].Line == l {
			return &scores[i]
		}
	}
	return nil
}

// RankOf returns the 1-based position of line l in the ranking (worst-case
// rank: lines tied with l count as ranked above it), or 0 when absent.
// This is the standard localization-quality metric (EXAM-style).
func RankOf(scores []Score, l netcfg.LineRef) int {
	target := ScoreOf(scores, l)
	if target == nil {
		return 0
	}
	rank := 0
	for _, s := range scores {
		if s.Susp >= target.Susp {
			rank++
		}
	}
	return rank
}

// Format renders the top of a ranking for reports.
func Format(scores []Score, k int) string {
	var sb strings.Builder
	for i, s := range scores {
		if i == k {
			break
		}
		fmt.Fprintf(&sb, "%2d. %-18s susp=%.3f (failed=%d passed=%d)\n", i+1, s.Line, s.Susp, s.Failed, s.Passed)
	}
	return sb.String()
}
