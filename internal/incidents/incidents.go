// Package incidents generates and runs a synthetic incident corpus
// standing in for the paper's study of 100+ production incidents: the
// nine misconfiguration classes of Table 1, injected at the paper's
// published ratios into correct generated networks, plus a
// manual-resolution-time model calibrated to Figure 1 (16.6% of cases
// above 30 minutes, the longest above 5 hours).
package incidents

import (
	"fmt"
	"math"
	"math/rand"
	"sort"

	"acr/internal/bgp"
	"acr/internal/core"
	"acr/internal/errclass"
	"acr/internal/netcfg"
	"acr/internal/sbfl"
	"acr/internal/scenario"
	"acr/internal/verify"
)

// ErrorClass enumerates Table 1's misconfiguration types.
type ErrorClass uint8

// The nine classes of Table 1.
const (
	MissingRedistribution ErrorClass = iota // Route: missing redistribution of static route
	MissingPBRPermit                        // PBR: missing permit rules
	ExtraPBRRedirect                        // PBR: extra redirect rule
	MissingPeerGroup                        // Peer: missing peer group
	ExtraPeerGroupItem                      // Peer: extra items in peer group
	MissingRoutingPolicy                    // Policy: missing a routing policy
	LeftoverRouteMap                        // Policy: fail to dis-enable route map
	WrongASNumber                           // Policy: override to wrong AS number
	MissingPrefixListItem                   // Policy: missing items in ip prefix-list
)

// ClassInfo describes one Table 1 row.
type ClassInfo struct {
	Class ErrorClass
	// Category follows Table 1's "Configs" column; Name is the shared
	// errclass label (Table 1's "Types" column), tying each injector row to
	// the analyzers and templates registered under the same class.
	Category string
	Name     errclass.Class
	// Ratio is the paper's share of incidents (Table 1's "Ratio").
	Ratio float64
	// Lines is Table 1's "Lines" column: M(ultiple) or S(ingle).
	Lines string
}

// Table1 is the paper's Table 1, verbatim. The "missing items in ip
// prefix-list" row merges the paper's S (4.2%) and M (12.5%) variants.
var Table1 = []ClassInfo{
	{MissingRedistribution, "Route", errclass.MissingRedistribution, 0.208, "M"},
	{MissingPBRPermit, "PBR", errclass.MissingPBRPermit, 0.125, "M"},
	{ExtraPBRRedirect, "PBR", errclass.ExtraPBRRedirect, 0.042, "S"},
	{MissingPeerGroup, "Peer", errclass.MissingPeerGroup, 0.166, "M"},
	{ExtraPeerGroupItem, "Peer", errclass.ExtraPeerGroupItem, 0.125, "M"},
	{MissingRoutingPolicy, "Policy", errclass.MissingRoutingPolicy, 0.083, "M"},
	{LeftoverRouteMap, "Policy", errclass.LeftoverRouteMap, 0.042, "S"},
	{WrongASNumber, "Policy", errclass.WrongASNumber, 0.042, "S"},
	{MissingPrefixListItem, "Policy", errclass.MissingPrefixListItem, 0.167, "S/M"},
}

// Info returns the Table 1 row of a class.
func Info(c ErrorClass) ClassInfo {
	for _, ci := range Table1 {
		if ci.Class == c {
			return ci
		}
	}
	return ClassInfo{}
}

// ByClass resolves a shared errclass label back to its Table 1 injector
// class — the reverse of Info(c).Name. The conformance harness uses it to
// turn a template's declared ErrorClass into incidents of that class.
func ByClass(name errclass.Class) (ErrorClass, bool) {
	for _, ci := range Table1 {
		if ci.Name == name {
			return ci.Class, true
		}
	}
	return 0, false
}

// String names the class.
func (c ErrorClass) String() string { return string(Info(c).Name) }

// Incident is one injected misconfiguration.
type Incident struct {
	ID    string
	Class ErrorClass
	// DoubleFault marks incidents carrying a second fault; SecondClass
	// then names it (ErrorClass zero value is a real class, so the flag
	// disambiguates).
	DoubleFault bool
	SecondClass ErrorClass
	// Scenario is the faulty network (its FaultyLines carry ground truth).
	Scenario *scenario.Scenario
	// LinesChanged counts configuration lines touched by the injection —
	// Table 1's single/multiple distinction, measured.
	LinesChanged int
	// ManualMinutes is a sample from the Figure 1 manual-resolution model.
	ManualMinutes float64
}

// CorpusOptions parameterizes GenerateCorpus.
type CorpusOptions struct {
	// Size is the number of incidents (default 120, on the order of the
	// paper's ">100 incidents").
	Size int
	Seed int64
	// WANRouters/WANPoPs/WANDCNs size the WAN substrate (defaults 6/4/3).
	WANRouters, WANPoPs, WANDCNs int
	// FatTreeK sizes the DCN substrate (default 4).
	FatTreeK int
	// DoubleFaultShare is the fraction of WAN incidents carrying a
	// second, independent fault of a different class on a different
	// device (0 disables). Multi-fault incidents exercise the engine's
	// multi-iteration evolution and diversify failing-test counts for
	// the suspiciousness-formula ablation.
	DoubleFaultShare float64
}

func (o CorpusOptions) withDefaults() CorpusOptions {
	if o.Size <= 0 {
		o.Size = 120
	}
	if o.WANRouters == 0 {
		o.WANRouters = 6
	}
	if o.WANPoPs == 0 {
		o.WANPoPs = 4
	}
	if o.WANDCNs == 0 {
		o.WANDCNs = 3
	}
	if o.FatTreeK == 0 {
		o.FatTreeK = 4
	}
	return o
}

// GenerateCorpus builds the incident corpus. Class counts are allocated
// deterministically from Table 1's ratios (largest-remainder rounding), so
// regenerating Table 1 from the corpus reproduces the paper's
// distribution; the injection sites and manual times vary with Seed.
func GenerateCorpus(opts CorpusOptions) ([]*Incident, error) {
	opts = opts.withDefaults()
	rng := rand.New(rand.NewSource(opts.Seed))

	counts := apportion(opts.Size)
	var classes []ErrorClass
	for i, ci := range Table1 {
		for k := 0; k < counts[i]; k++ {
			classes = append(classes, ci.Class)
		}
	}
	rng.Shuffle(len(classes), func(i, j int) { classes[i], classes[j] = classes[j], classes[i] })

	var out []*Incident
	for i, class := range classes {
		inc, err := Inject(class, opts, rng)
		if err != nil {
			return nil, fmt.Errorf("incident %d (%s): %w", i, class, err)
		}
		if opts.DoubleFaultShare > 0 && isWANClass(class) && rng.Float64() < opts.DoubleFaultShare {
			if dbl, err := addSecondFault(inc, opts, rng); err == nil {
				inc = dbl
			}
		}
		inc.ID = fmt.Sprintf("inc-%03d-%s", i, Info(class).Category)
		inc.ManualMinutes = ManualResolutionMinutes(rng)
		out = append(out, inc)
	}
	return out, nil
}

// isWANClass reports whether the class injects into the WAN substrate.
func isWANClass(c ErrorClass) bool {
	return c != MissingPBRPermit && c != ExtraPBRRedirect
}

// addSecondFault layers an independent WAN fault of a different class on
// an already-injected incident, retrying until the second fault lands on
// a different device (so the first fault's ground-truth line numbers stay
// valid). On persistent collision the single-fault incident is kept.
func addSecondFault(inc *Incident, opts CorpusOptions, rng *rand.Rand) (*Incident, error) {
	firstDevices := map[string]bool{}
	for _, l := range inc.Scenario.FaultyLines {
		firstDevices[l.Device] = true
	}
	wanClasses := []ErrorClass{
		MissingRedistribution, MissingPeerGroup, ExtraPeerGroupItem,
		MissingRoutingPolicy, LeftoverRouteMap, WrongASNumber, MissingPrefixListItem,
	}
	for attempt := 0; attempt < 6; attempt++ {
		second := wanClasses[rng.Intn(len(wanClasses))]
		if second == inc.Class {
			continue
		}
		// Inject the second fault into the SAME scenario. The injectors
		// reparse current configs, so their line numbers are correct; we
		// only must avoid the first fault's devices.
		trial := inc.Scenario.Clone()
		trial.FaultyLines = nil
		second2, err := injectWAN(second, trial, rng)
		if err != nil {
			continue
		}
		collide := false
		for _, l := range second2.Scenario.FaultyLines {
			if firstDevices[l.Device] {
				collide = true
			}
		}
		if collide {
			continue
		}
		merged := &Incident{
			Class:        inc.Class,
			DoubleFault:  true,
			SecondClass:  second,
			Scenario:     second2.Scenario,
			LinesChanged: inc.LinesChanged + second2.LinesChanged,
		}
		merged.Scenario.FaultyLines = append(append([]netcfg.LineRef{}, inc.Scenario.FaultyLines...),
			second2.Scenario.FaultyLines...)
		merged.Scenario.Notes = inc.Scenario.Notes + "; " + second2.Scenario.Notes
		return merged, nil
	}
	return inc, fmt.Errorf("no compatible second fault found")
}

// apportion distributes Size incidents over Table 1's ratios with
// largest-remainder rounding.
func apportion(size int) []int {
	counts := make([]int, len(Table1))
	type frac struct {
		idx int
		rem float64
	}
	var fracs []frac
	total := 0
	for i, ci := range Table1 {
		exact := ci.Ratio * float64(size)
		counts[i] = int(exact)
		total += counts[i]
		fracs = append(fracs, frac{i, exact - float64(counts[i])})
	}
	sort.SliceStable(fracs, func(a, b int) bool { return fracs[a].rem > fracs[b].rem })
	for k := 0; total < size; k++ {
		counts[fracs[k%len(fracs)].idx]++
		total++
	}
	return counts
}

// ManualResolutionMinutes samples the Figure 1 model: a lognormal body
// (median ≈ 10 minutes) with a 4% escalation mixture (median ≈ 200
// minutes). Calibration: P(>30 min) ≈ 0.17 (the paper reports 16.6%) and
// a 120-incident corpus is expected to contain at least one case above
// 300 minutes ("the longest one taking more than 5 hours").
func ManualResolutionMinutes(rng *rand.Rand) float64 {
	if rng.Float64() < 0.04 {
		return math.Exp(math.Log(200) + 0.6*rng.NormFloat64())
	}
	return math.Exp(math.Log(10) + 1.0*rng.NormFloat64())
}

// RunResult is the outcome of repairing one incident: the engine's Result
// (BaseFailing is the number of failing tests the injection caused) plus
// how well localization ranked the ground truth.
type RunResult struct {
	*core.Result
	Incident *Incident
	// LocalizationRank is the best (smallest) SBFL rank over the ground
	// truth lines, computed on the faulty configuration (0 = not ranked).
	LocalizationRank int
}

// Run repairs one incident with the engine and collects metrics.
func Run(inc *Incident, opts core.Options) *RunResult {
	p := core.Problem{Topo: inc.Scenario.Topo, Configs: inc.Scenario.Configs, Intents: inc.Scenario.Intents}
	return &RunResult{Incident: inc, LocalizationRank: LocalizationRank(inc), Result: core.Repair(p, opts)}
}

// LocalizationRank computes the best Tarantula rank over the incident's
// ground-truth lines.
func LocalizationRank(inc *Incident) int {
	p := core.Problem{Topo: inc.Scenario.Topo, Configs: inc.Scenario.Configs, Intents: inc.Scenario.Intents}
	iv := verify.NewIncremental(p.Topo, p.Configs, p.Intents, bgp.Options{})
	ctx := core.NewContext(p, iv, sbfl.Tarantula, rand.New(rand.NewSource(1)))
	best := 0
	for _, l := range inc.Scenario.FaultyLines {
		if r := sbfl.RankOf(ctx.Ranks, l); r > 0 && (best == 0 || r < best) {
			best = r
		}
	}
	return best
}

// Stats aggregates corpus run results.
type Stats struct {
	Total, Visible, Repaired int
	// TopN counts incidents whose ground truth ranked within N.
	Top1, Top5, Top10 int
	MeanIterations    float64
	MeanValidated     float64
	// Improved counts infeasible-but-improved runs; Panicked sums the
	// runs' CandidatesPanicked over the corpus.
	Improved int
	Panicked int
	TimedOut int // runs ending on "deadline" or "canceled"
}

// Aggregate computes corpus statistics. Incidents whose injection caused
// no failing test (invisible under the intent suite) are counted but
// excluded from repair metrics.
func Aggregate(results []*RunResult) Stats {
	var s Stats
	s.Total = len(results)
	var iters, vals, n float64
	for _, r := range results {
		if r.BaseFailing == 0 {
			continue
		}
		s.Visible++
		if r.Feasible {
			s.Repaired++
		} else if r.Improved {
			s.Improved++
		}
		if r.Termination == "deadline" || r.Termination == "canceled" {
			s.TimedOut++
		}
		s.Panicked += r.CandidatesPanicked
		switch {
		case r.LocalizationRank == 1:
			s.Top1++
			s.Top5++
			s.Top10++
		case r.LocalizationRank > 1 && r.LocalizationRank <= 5:
			s.Top5++
			s.Top10++
		case r.LocalizationRank > 5 && r.LocalizationRank <= 10:
			s.Top10++
		}
		iters += float64(r.Iterations)
		vals += float64(r.CandidatesValidated)
		n++
	}
	if n > 0 {
		s.MeanIterations = iters / n
		s.MeanValidated = vals / n
	}
	return s
}
