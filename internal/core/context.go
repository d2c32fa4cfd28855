package core

import (
	"math/rand"
	"net/netip"

	"acr/internal/analysis"
	"acr/internal/bgp"
	"acr/internal/coverage"
	"acr/internal/errclass"
	"acr/internal/netcfg"
	"acr/internal/provenance"
	"acr/internal/sbfl"
	"acr/internal/topo"
	"acr/internal/verify"
)

// Problem is a repair task: a network whose configurations violate some
// intents.
type Problem struct {
	Topo    *topo.Network
	Configs map[string]*netcfg.Config
	Intents []verify.Intent
}

// Context is everything a change template may consult when generating
// candidates for one configuration version: the compiled and simulated
// network, its provenance, the verification report, and the coverage
// spectrum. Contexts are built once per preserved candidate. Like its Rand,
// a Context serves one goroutine at a time.
type Context struct {
	Topo    *topo.Network
	Configs map[string]*netcfg.Config
	Files   map[string]*netcfg.File
	Net     *bgp.Net
	Outcome *bgp.Outcome
	Prov    *provenance.Graph
	Report  *verify.Report
	Matrix  *coverage.Matrix
	Ranks   []sbfl.Score
	// Diags holds the static-analysis findings over this configuration
	// version (empty when the prior is disabled).
	Diags []analysis.Diagnostic
	// DiagClasses maps each diagnosed line to the set of Table 1 error
	// classes flagged there — the generation stage prunes templates whose
	// ErrorClass does not match.
	DiagClasses map[netcfg.LineRef]map[errclass.Class]bool
	// PriorSeeded counts statically flagged lines that no sampled test
	// covered and were injected into Ranks with the prior as score.
	PriorSeeded int
	// Universe is the prefix vocabulary for symbolic variables: every
	// originated prefix plus every intent prefix.
	Universe []netip.Prefix
	Rand     *rand.Rand

	// listSolves is solveList's memo, keyed by (device, list).
	listSolves map[[2]string]listSolve
	// roles is nodesOfKind's memo: the topology's nodes by kind.
	roles map[topo.Kind][]*topo.Node
}

// NewContext exposes context construction to the baselines and tools that
// drive templates outside the engine loop. It builds the pure-SBFL
// context — no static prior — so localization metrics measure Eq. 1
// alone.
func NewContext(p Problem, iv *verify.Incremental, formula sbfl.Formula, rng *rand.Rand) *Context {
	return buildContext(p, iv, formula, rng, false)
}

// priorWeight maps diagnostic severities to prior strength: an Error is a
// near-certain misconfiguration, a Warning a consensus violation, an Info
// a hint. All clear minSusp (0.45) so flagged-but-uncovered
// lines stay in the fix stage's scope.
func priorWeight(s analysis.Severity) float64 {
	switch s {
	case analysis.Error:
		return 0.8
	case analysis.Warning:
		return 0.55
	default:
		return 0.25
	}
}

// buildContext compiles, simulates, verifies, and localizes one
// configuration version. It reuses the incremental verifier's base state.
// With usePrior, static-analysis diagnostics are folded into the ranking
// (see sbfl.ApplyPrior) and recorded for template pruning.
func buildContext(p Problem, iv *verify.Incremental, formula sbfl.Formula, rng *rand.Rand, usePrior bool) *Context {
	ctx := &Context{
		Topo:    p.Topo,
		Configs: iv.BaseConfigs(),
		Files:   iv.BaseFiles(),
		Net:     iv.BaseNet(),
		Outcome: iv.BaseOutcome(),
		Prov:    iv.BaseProvenance(),
		Report:  iv.BaseReport(),
		Rand:    rng,
	}
	ctx.Matrix = coverage.Build(ctx.Net, ctx.Prov, ctx.Report)
	ctx.Ranks = sbfl.Rank(ctx.Matrix, formula)
	if usePrior {
		res := analysis.AnalyzeFiles(p.Topo, ctx.Configs, ctx.Files, nil)
		if len(res.Diagnostics) > 0 {
			ctx.Diags = res.Diagnostics
			ctx.DiagClasses = map[netcfg.LineRef]map[errclass.Class]bool{}
			prior := map[netcfg.LineRef]float64{}
			for i := range res.Diagnostics {
				d := &res.Diagnostics[i]
				if d.Class != "" {
					if ctx.DiagClasses[d.Line] == nil {
						ctx.DiagClasses[d.Line] = map[errclass.Class]bool{}
					}
					ctx.DiagClasses[d.Line][d.Class] = true
				}
				if w := priorWeight(d.Severity); w > prior[d.Line] {
					prior[d.Line] = w
				}
			}
			ctx.Ranks, ctx.PriorSeeded = sbfl.ApplyPrior(ctx.Ranks, prior)
		}
	}
	seen := map[netip.Prefix]bool{}
	for _, pfx := range ctx.Net.AllPrefixes() {
		if !seen[pfx] {
			seen[pfx] = true
			ctx.Universe = append(ctx.Universe, pfx)
		}
	}
	for _, in := range p.Intents {
		for _, pfx := range []netip.Prefix{in.SrcPrefix, in.DstPrefix} {
			if pfx.IsValid() && !seen[pfx.Masked()] {
				seen[pfx.Masked()] = true
				ctx.Universe = append(ctx.Universe, pfx.Masked())
			}
		}
	}
	return ctx
}

// nodesOfKind returns the topology's nodes of kind k in topology order,
// grouping every node by kind on first use. Like listSolves, the memo is
// the generating goroutine's.
func (ctx *Context) nodesOfKind(k topo.Kind) []*topo.Node {
	if ctx.roles == nil {
		ctx.roles = map[topo.Kind][]*topo.Node{}
		for _, nd := range ctx.Topo.Nodes() {
			ctx.roles[nd.Kind] = append(ctx.roles[nd.Kind], nd)
		}
	}
	return ctx.roles[k]
}

// FailingVerdicts returns the failing verdicts of this version.
func (ctx *Context) FailingVerdicts() []verify.Verdict { return ctx.Report.Failed() }

// CoversLine reports whether the line is covered by at least one failing
// test — templates use it to avoid proposing changes unrelated to any
// failure.
func (ctx *Context) CoversLine(l netcfg.LineRef) bool {
	for _, t := range ctx.Matrix.Tests {
		if !t.Pass && t.Lines.Has(l) {
			return true
		}
	}
	return false
}

// Update is one candidate fix: a set of line edits per device, relative to
// the configuration version of the Context that generated it.
type Update struct {
	Edits []netcfg.EditSet
	// Desc records which template produced it, anchored where — the
	// repair report's narrative.
	Desc string
}

// Template is one change operator family (§4.2): it decides which
// suspicious lines it can anchor at and generates candidate updates,
// typically by symbolizing a variable and solving its value locally.
type Template interface {
	Name() string
	// ErrorClass is the Table 1 misconfiguration class this template
	// repairs — the static prior prunes applications whose anchor line
	// carries a diagnostic of a different class.
	ErrorClass() errclass.Class
	// Generate produces candidates anchored at the given suspicious line
	// (empty when the template does not apply there).
	Generate(ctx *Context, line netcfg.LineRef) []Update
}
