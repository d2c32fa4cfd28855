// Package conformance is the template admission harness: before a change
// template may join the library, it must prove, on synthetic incidents of
// its own declared error class, that it can drive fitness to zero — and
// prove it does no harm on clean substrates. A template that cannot repair
// its class, or whose generator emits edits that do not even apply, is
// rejected with a recorded reason. Its tests run the harness over the whole
// library and over deliberately broken fixtures.
//
// Two checks per template:
//
//  1. Repair power. For every fault-shape variant of the template's class
//     (incidents.InjectVariant) and every harness seed, the engine runs
//     with ONLY this template. The template passes when at least one
//     visible incident is driven to fitness zero. Universal pseudo-class
//     operators have no injector, so the power check is vacuous for them
//     and admission rests on the clean checks.
//
//  2. Clean hands. On clean WAN and DCN substrates the engine (again with
//     only this template) must terminate feasible with configurations
//     unchanged; and a Generate sweep over every line of both substrates
//     must neither panic nor emit an edit set that fails to apply.
package conformance

import (
	"fmt"
	"math/rand"
	"sort"
	"strconv"
	"strings"

	"acr/internal/bgp"
	"acr/internal/core"
	"acr/internal/errclass"
	"acr/internal/incidents"
	"acr/internal/netcfg"
	"acr/internal/sbfl"
	"acr/internal/scenario"
	"acr/internal/verify"
)

// Options tunes a conformance run.
type Options struct {
	// Seeds are the engine seeds tried per fault variant (default {1, 2}).
	Seeds []int64
	// MaxIterations bounds each single-template repair run (default 30).
	MaxIterations int
	// Names restricts the run to the named templates (default: all
	// given).
	Names []string
	// Corpus sizes the incident substrates (zero values take the corpus
	// defaults: WAN 6/4/3, fat-tree k=4).
	Corpus incidents.CorpusOptions
}

func (o Options) withDefaults() Options {
	if len(o.Seeds) == 0 {
		o.Seeds = []int64{1, 2}
	}
	if o.MaxIterations <= 0 {
		o.MaxIterations = 30
	}
	return o
}

// TemplateResult is one template's conformance verdict.
type TemplateResult struct {
	Name  string
	Class errclass.Class
	// Attempts and Repaired count the power check's visible incident runs
	// and how many reached fitness zero (both zero for universal
	// pseudo-class operators).
	Attempts int
	Repaired int
	// CleanOK reports the clean-hands check passed; GenerateErrors lists
	// sweep failures (panics, inapplicable edits), capped at 5.
	CleanOK        bool
	GenerateErrors []string
	// Conformant is the admission verdict; Reasons explains a rejection.
	Conformant bool
	Reasons    []string
}

// Run checks every selected template of tmpls. Results are ordered by
// template name.
func Run(tmpls []core.Template, opts Options) ([]TemplateResult, error) {
	opts = opts.withDefaults()
	if len(opts.Names) > 0 {
		want := map[string]bool{}
		for _, n := range opts.Names {
			want[n] = true
		}
		var kept []core.Template
		for _, t := range tmpls {
			if want[t.Name()] {
				kept = append(kept, t)
				delete(want, t.Name())
			}
		}
		if len(want) > 0 {
			var unknown []string
			for n := range want { //acrvet:ordered — collected then sorted below
				unknown = append(unknown, strconv.Quote(n))
			}
			sort.Strings(unknown)
			return nil, fmt.Errorf("conformance: unknown template(s) %s", strings.Join(unknown, ", "))
		}
		tmpls = kept
	}

	sub := newSubstrates(opts)
	out := make([]TemplateResult, len(tmpls))
	for i, t := range tmpls {
		out[i] = checkTemplate(t, sub, opts)
	}
	sort.Slice(out, func(i, j int) bool { return out[i].Name < out[j].Name })
	return out, nil
}

// substrates caches the clean networks every template is swept over.
type substrates struct {
	wan, dcn *scenario.Scenario
}

func newSubstrates(opts Options) *substrates {
	c := opts.Corpus
	if c.WANRouters == 0 {
		c.WANRouters = 6
	}
	if c.WANPoPs == 0 {
		c.WANPoPs = 4
	}
	if c.WANDCNs == 0 {
		c.WANDCNs = 3
	}
	if c.FatTreeK == 0 {
		c.FatTreeK = 4
	}
	return &substrates{
		wan: scenario.WAN(c.WANRouters, c.WANPoPs, c.WANDCNs,
			scenario.GenOptions{StaticOriginEvery: 2, FullIsolation: true}),
		dcn: scenario.DCN(c.FatTreeK, scenario.GenOptions{WithScrubber: true, StaticOriginEvery: 3}),
	}
}

func checkTemplate(tmpl core.Template, sub *substrates, opts Options) TemplateResult {
	tr := TemplateResult{Name: tmpl.Name(), Class: tmpl.ErrorClass()}

	// Power: repair incidents of the declared class with this template
	// alone. Each (variant, seed) pair injects with its own deterministic
	// rng so runs are independent and reproducible.
	if ic, ok := incidents.ByClass(tr.Class); ok {
		for v := 0; v < incidents.Variants(ic); v++ {
			for _, seed := range opts.Seeds {
				inc, err := incidents.InjectVariant(ic, v, opts.Corpus, rand.New(rand.NewSource(seed)))
				if err != nil || !incidents.Visible(inc) {
					continue
				}
				tr.Attempts++
				res := core.Repair(core.Problem{
					Topo:    inc.Scenario.Topo,
					Configs: inc.Scenario.Configs,
					Intents: inc.Scenario.Intents,
				}, core.Options{
					Templates:     []core.Template{tmpl},
					MaxIterations: opts.MaxIterations,
					Seed:          seed,
				})
				if res.Feasible {
					tr.Repaired++
				}
			}
		}
		if tr.Attempts == 0 {
			tr.Reasons = append(tr.Reasons, "no visible incident of class "+string(tr.Class)+" could be injected")
		} else if tr.Repaired == 0 {
			tr.Reasons = append(tr.Reasons,
				fmt.Sprintf("cannot drive fitness to zero on its own class (%d incidents attempted)", tr.Attempts))
		}
	} else if tr.Class.Table1() {
		tr.Reasons = append(tr.Reasons, "declared class has no injector: "+string(tr.Class))
	}

	// Clean hands, part 1: the engine on a clean substrate must come back
	// feasible with configurations untouched.
	tr.CleanOK = true
	for _, s := range []*scenario.Scenario{sub.wan, sub.dcn} {
		res := core.Repair(core.Problem{Topo: s.Topo, Configs: s.Configs, Intents: s.Intents},
			core.Options{Templates: []core.Template{tmpl}, MaxIterations: 2, Seed: opts.Seeds[0]})
		if !res.Feasible || len(res.Applied) != 0 {
			tr.CleanOK = false
			tr.Reasons = append(tr.Reasons, "regresses a clean substrate: "+res.Summary())
		}
	}

	// Clean hands, part 2: sweep Generate over every line of both clean
	// substrates; candidates must be well-formed even where the template
	// does not logically apply.
	for _, s := range []*scenario.Scenario{sub.wan, sub.dcn} {
		errs := sweepGenerate(tmpl, s)
		tr.GenerateErrors = append(tr.GenerateErrors, errs...)
	}
	if len(tr.GenerateErrors) > 0 {
		tr.CleanOK = false
		tr.Reasons = append(tr.Reasons, fmt.Sprintf("%d malformed candidate(s) in the clean sweep", len(tr.GenerateErrors)))
		if len(tr.GenerateErrors) > 5 {
			tr.GenerateErrors = tr.GenerateErrors[:5]
		}
	}

	tr.Conformant = tr.CleanOK && (tr.Attempts == 0 || tr.Repaired > 0) && len(tr.Reasons) == 0
	return tr
}

// sweepGenerate anchors the template at every line of every device of a
// clean scenario and checks each emitted candidate applies cleanly.
func sweepGenerate(tmpl core.Template, s *scenario.Scenario) (errs []string) {
	p := core.Problem{Topo: s.Topo, Configs: s.Configs, Intents: s.Intents}
	iv := verify.NewIncremental(p.Topo, p.Configs, p.Intents, bgp.Options{})
	ctx := core.NewContext(p, iv, sbfl.Tarantula, rand.New(rand.NewSource(1)))
	for _, nd := range s.Topo.Nodes() {
		cfg := s.Configs[nd.Name]
		if cfg == nil {
			continue
		}
		for line := 1; line <= cfg.NumLines(); line++ {
			ref := netcfg.LineRef{Device: nd.Name, Line: line}
			for _, up := range safeGenerate(tmpl, ctx, ref, &errs) {
				for _, es := range up.Edits {
					base := s.Configs[es.Device]
					if base == nil {
						errs = append(errs, fmt.Sprintf("%s: edit targets unknown device %s", ref, es.Device))
						continue
					}
					if _, err := es.Apply(base); err != nil {
						errs = append(errs, fmt.Sprintf("%s: inapplicable edit: %v", ref, err))
					}
				}
			}
		}
	}
	return errs
}

// safeGenerate shields the sweep from template panics.
func safeGenerate(tmpl core.Template, ctx *core.Context, ref netcfg.LineRef, errs *[]string) (ups []core.Update) {
	defer func() {
		if r := recover(); r != nil {
			*errs = append(*errs, fmt.Sprintf("%s: generate panicked: %v", ref, r))
			ups = nil
		}
	}()
	return tmpl.Generate(ctx, ref)
}
