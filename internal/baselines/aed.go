package baselines

import (
	"context"
	"fmt"
	"math/rand"

	"acr/internal/bgp"
	"acr/internal/core"
	"acr/internal/netcfg"
	"acr/internal/sbfl"
	"acr/internal/verify"
)

// AEDOptions tunes the synthesis baseline.
type AEDOptions struct {
	// MaxCandidates bounds exploration (the scalability knob the paper
	// argues AED lacks). Default 20000.
	MaxCandidates int
	// MaxCombo bounds the number of operator applications combined in one
	// candidate (subset cardinality). Default 2.
	MaxCombo int
	// Templates defaults to the full operator vocabulary.
	Templates []core.Template
}

func (o AEDOptions) withDefaults() AEDOptions {
	if o.MaxCandidates <= 0 {
		o.MaxCandidates = 20000
	}
	if o.MaxCombo <= 0 {
		o.MaxCombo = 2
	}
	if o.Templates == nil {
		o.Templates = core.BuiltinTemplates()
	}
	return o
}

// AEDResult reports one synthesis run.
type AEDResult struct {
	// DeltaVariables is the number of configuration lines in scope — the
	// exponent of Figure 3b's search space (N = 2^DeltaVariables).
	DeltaVariables int
	// SearchSpaceLog2 is log2 of the theoretical search space.
	SearchSpaceLog2 int
	// Explored counts fully validated candidates.
	Explored int
	// Feasible reports whether a candidate passing EVERY intent was found
	// within the budget. AED-style synthesis never accepts a candidate
	// with side effects, so Feasible implies correct.
	Feasible bool
	// Applied describes the accepted candidate.
	Applied []string
	// FinalConfigs is the synthesized configuration map.
	FinalConfigs map[string]*netcfg.Config
	// Exhausted reports the budget ran out before a solution was found.
	Exhausted bool
	// Canceled reports the run was interrupted by its context before the
	// budget ran out; Explored reflects the partial work.
	Canceled bool
}

// Summary renders the result.
func (r *AEDResult) Summary() string {
	s := fmt.Sprintf("aed: deltaVars=%d space=2^%d explored=%d feasible=%v exhausted=%v",
		r.DeltaVariables, r.SearchSpaceLog2, r.Explored, r.Feasible, r.Exhausted)
	if r.Canceled {
		s += " canceled=true"
	}
	return s
}

// AED runs the synthesis baseline: every configuration line is a free
// location (no localization), every operator applies everywhere, every
// candidate is validated against the FULL intent suite from scratch
// semantics (no incremental reuse across candidates), and combinations up
// to MaxCombo are enumerated in increasing size — systematic and correct,
// with cost that scales with configuration size.
func AED(p core.Problem, opts AEDOptions) *AEDResult {
	return AEDContext(context.Background(), p, opts)
}

// AEDContext is AED with cooperative cancellation: the context is checked
// between candidate validations and threaded into each full verification.
func AEDContext(ctx context.Context, p core.Problem, opts AEDOptions) *AEDResult {
	opts = opts.withDefaults()
	res := &AEDResult{FinalConfigs: p.Configs}
	for _, c := range p.Configs {
		res.DeltaVariables += c.NumLines()
	}
	res.SearchSpaceLog2 = res.DeltaVariables

	iv := verify.NewIncremental(p.Topo, p.Configs, p.Intents, bgp.Options{})
	if iv.BaseReport().NumFailed() == 0 {
		res.Feasible = true
		return res
	}
	// Build the operator-application universe over EVERY line: the
	// flattened form of the delta-variable space. Reuse the template
	// vocabulary without any suspiciousness ranking.
	tctx := aedContext(p, iv)
	type app struct {
		up core.Update
	}
	var apps []app
	seen := map[string]bool{}
	for _, name := range deviceOrder(p) {
		cfg := p.Configs[name]
		for line := 1; line <= cfg.NumLines(); line++ {
			ref := netcfg.LineRef{Device: name, Line: line}
			for _, tmpl := range opts.Templates {
				for _, up := range tmpl.Generate(tctx, ref) {
					key := editKey(up)
					if !seen[key] {
						seen[key] = true
						apps = append(apps, app{up: up})
					}
				}
			}
		}
	}

	validate := func(up core.Update) bool {
		if res.Explored >= opts.MaxCandidates {
			return false
		}
		res.Explored++
		rep, _, err := iv.FullCheckCtx(ctx, up.Edits)
		if err != nil {
			return false
		}
		if rep.NumFailed() != 0 {
			return false
		}
		res.Feasible = true
		res.Applied = []string{up.Desc}
		res.FinalConfigs = applyUpdateAll(p.Configs, up)
		return true
	}

	// Cardinality 1.
	for _, a := range apps {
		if ctx.Err() != nil {
			res.Canceled = true
			return res
		}
		if res.Explored >= opts.MaxCandidates {
			res.Exhausted = true
			return res
		}
		if validate(a.up) {
			return res
		}
	}
	// Higher cardinalities: merge disjoint-device applications.
	if opts.MaxCombo >= 2 {
		for i := 0; i < len(apps); i++ {
			for j := i + 1; j < len(apps); j++ {
				if ctx.Err() != nil {
					res.Canceled = true
					return res
				}
				if res.Explored >= opts.MaxCandidates {
					res.Exhausted = true
					return res
				}
				merged, ok := mergeDisjoint(apps[i].up, apps[j].up)
				if !ok {
					continue
				}
				if validate(merged) {
					return res
				}
			}
		}
	}
	res.Exhausted = res.Explored >= opts.MaxCandidates
	return res
}

// aedContext builds a template context with NO localization state beyond
// what templates need (provenance for value solving, the report for
// failing intents).
func aedContext(p core.Problem, iv *verify.Incremental) *core.Context {
	return core.NewContext(p, iv, sbfl.Tarantula, rand.New(rand.NewSource(1)))
}

func deviceOrder(p core.Problem) []string {
	var out []string
	for _, nd := range p.Topo.Nodes() {
		if _, ok := p.Configs[nd.Name]; ok {
			out = append(out, nd.Name)
		}
	}
	return out
}

func editKey(up core.Update) string {
	s := ""
	for _, es := range up.Edits {
		s += es.String() + ";"
	}
	return s
}

func mergeDisjoint(a, b core.Update) (core.Update, bool) {
	devs := map[string]bool{}
	for _, es := range a.Edits {
		devs[es.Device] = true
	}
	for _, es := range b.Edits {
		if devs[es.Device] {
			return core.Update{}, false
		}
	}
	return core.Update{
		Edits: append(append([]netcfg.EditSet{}, a.Edits...), b.Edits...),
		Desc:  a.Desc + " + " + b.Desc,
	}, true
}

func applyUpdateAll(configs map[string]*netcfg.Config, up core.Update) map[string]*netcfg.Config {
	out := make(map[string]*netcfg.Config, len(configs))
	for d, c := range configs {
		out[d] = c
	}
	for _, es := range up.Edits {
		if base, ok := out[es.Device]; ok {
			if next, err := es.Apply(base); err == nil {
				out[es.Device] = next
			}
		}
	}
	return out
}
