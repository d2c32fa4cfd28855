package main

import (
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"math/rand"
	"runtime"
	"strings"
	"sync"
	"time"

	"acr"
	"acr/internal/bgp"
	"acr/internal/core"
	"acr/internal/incidents"
	"acr/internal/netcfg"
	"acr/internal/sbfl"
	"acr/internal/tmplreg"
	"acr/internal/verify"
)

// scale sizes the workloads. "full" is what BENCHMARK.json measures;
// "smoke" keeps the same code paths on a few small ops for bench_test.go.
type scale struct {
	corpusSize int
	// wanPanel generates the wan-large panel; wanIterations caps its
	// searches.
	wanPanel      incidents.CorpusOptions
	wanIterations int
	dcnK, dcnOps  int
	// whatifWAN/whatifDCN count the bases taken from the wan-large panel
	// and the dcn-scale incidents; whatifPool caps the updates per base.
	whatifWAN, whatifDCN, whatifPool int
	// replayCases and replayCandidates bound the traced run's stage
	// replay; journalCases of them are also repaired with a journal and
	// at Parallelism 1.
	replayCases, replayCandidates, journalCases int
	// repeatSetup repeats set-up for a steady setup_s (see setUp).
	repeatSetup bool
}

// wanPanelSeed pins the wan-large population. Deep compound-fault
// searches are chaotic in the fault site: the same recipe costs 6 s to
// 16 s per pass across generator seeds 1-10, which no regression bound
// survives, so the panel is fixed and --seed only orders it. Seed 3 is the
// lowest generator seed whose 16 incidents all repair within the
// 6-iteration cap (seeds 1 and 2 leave two and one at the cap).
const wanPanelSeed = 3

var scales = map[string]scale{
	"full": {
		corpusSize: 120,
		wanPanel: incidents.CorpusOptions{Size: 16, Seed: wanPanelSeed,
			WANRouters: 12, WANPoPs: 8, WANDCNs: 6, DoubleFaultShare: 0.5},
		wanIterations: 6,
		dcnK:          10, dcnOps: 12,
		whatifWAN: 16, whatifDCN: 2, whatifPool: 256,
		replayCases: 24, replayCandidates: 12, journalCases: 2,
		repeatSetup: true,
	},
	"smoke": {
		corpusSize: 4,
		wanPanel: incidents.CorpusOptions{Size: 2, Seed: wanPanelSeed,
			DoubleFaultShare: 0.5},
		wanIterations: 6,
		dcnK:          4, dcnOps: 2,
		whatifWAN: 1, whatifDCN: 1, whatifPool: 2,
		replayCases: 1, replayCandidates: 2, journalCases: 1,
	},
}

// outcome is one execution of one op.
type outcome struct {
	dur time.Duration
	// digest identifies the op's output; every pass must reproduce it.
	digest string
	// fail says why the execution counts as failed ("" when it does not).
	fail string
}

// instance is one set-up workload: a fixed op list run pass after pass.
type instance interface {
	numOps() int
	// runPass executes the first limit ops once (every op when limit is
	// 0), recording one span per op when rec is non-nil.
	runPass(rec *recorder, limit int) []outcome
	// check verifies, after timing, the outputs the first pass produced
	// and returns one failure reason per op ("" for a correct op).
	check(seed int64) []string
	// cases are the incidents behind the ops, for the stage replay.
	cases() []*incidents.Incident
	// repairOptions are the engine options the workload's repairs use.
	repairOptions() core.Options
	close()
}

// workload is one named input set of BENCHMARK.json. dir is a scratch
// directory inside the benchmark's output directory.
type workload struct {
	name  string
	setup func(seed int64, sc scale, dir string) (instance, error)
}

var workloads = []workload{
	{"corpus", func(seed int64, sc scale, _ string) (instance, error) {
		incs, err := incidents.GenerateCorpus(incidents.CorpusOptions{Size: sc.corpusSize, Seed: seed})
		return &repairInstance{incs: incs}, err
	}},
	{"wan-large", func(seed int64, sc scale, _ string) (instance, error) {
		incs, err := wanPanel(seed, sc)
		return &repairInstance{incs: incs, opts: core.Options{MaxIterations: sc.wanIterations}}, err
	}},
	{"dcn-scale", func(seed int64, sc scale, _ string) (instance, error) {
		incs, err := dcnIncidents(seed, sc, sc.dcnOps)
		return &repairInstance{incs: incs}, err
	}},
	{"whatif", setupWhatif},
	{"serve-cold", func(seed int64, sc scale, dir string) (instance, error) {
		return setupServe(seed, sc, dir, false)
	}},
	{"serve-warm", func(seed int64, sc scale, dir string) (instance, error) {
		return setupServe(seed, sc, dir, true)
	}},
}

func workloadByName(name string) *workload {
	for i := range workloads {
		if workloads[i].name == name {
			return &workloads[i]
		}
	}
	return nil
}

// wanPanel generates the pinned wan-large incidents in seed order.
func wanPanel(seed int64, sc scale) ([]*incidents.Incident, error) {
	incs, err := incidents.GenerateCorpus(sc.wanPanel)
	if err != nil {
		return nil, err
	}
	rand.New(rand.NewSource(seed)).Shuffle(len(incs), func(i, j int) { incs[i], incs[j] = incs[j], incs[i] })
	return incs, nil
}

// dcnIncidents injects n PBR faults, missing-permit to extra-redirect at
// 3:1, into fat-trees of the scale's arity.
func dcnIncidents(seed int64, sc scale, n int) ([]*incidents.Incident, error) {
	rng := rand.New(rand.NewSource(seed))
	var incs []*incidents.Incident
	for i := 0; i < n; i++ {
		class := incidents.MissingPBRPermit
		if i%4 == 3 {
			class = incidents.ExtraPBRRedirect
		}
		inc, err := incidents.Inject(class, incidents.CorpusOptions{FatTreeK: sc.dcnK}, rng)
		if err != nil {
			return nil, fmt.Errorf("dcn incident %d: %w", i, err)
		}
		inc.ID = fmt.Sprintf("dcn-%03d-%s", i, incidents.Info(class).Category)
		incs = append(incs, inc)
	}
	return incs, nil
}

// firstN returns the first limit elements of xs, or all of them when
// limit is 0 or too large.
func firstN[T any](xs []T, limit int) []T {
	if limit > 0 && limit < len(xs) {
		return xs[:limit]
	}
	return xs
}

func problemOf(inc *incidents.Incident) core.Problem {
	return core.Problem{Topo: inc.Scenario.Topo, Configs: inc.Scenario.Configs, Intents: inc.Scenario.Intents}
}

// safeRepair runs one repair, turning a panic into an error so that it
// counts as a failed op instead of ending the run.
func safeRepair(p core.Problem, opts core.Options) (res *core.Result, err error) {
	defer func() {
		if rec := recover(); rec != nil {
			err = fmt.Errorf("panic: %v", rec)
		}
	}()
	return core.Repair(p, opts), nil
}

func canonicalSHA(res *core.Result) string {
	sum := sha256.Sum256([]byte(res.Canonical()))
	return hex.EncodeToString(sum[:])
}

// repairOutcome classifies one finished repair: infeasible, panicked and
// timed-out repairs are failed ops.
func repairOutcome(res *core.Result, err error) (digest, fail string) {
	switch {
	case err != nil:
		return "", err.Error()
	case !res.Feasible:
		return canonicalSHA(res), "infeasible: " + res.Termination
	}
	return canonicalSHA(res), ""
}

// verifyRepaired re-verifies a feasible result from scratch.
func verifyRepaired(inc *incidents.Incident, res *core.Result) string {
	rep := acr.Verify(&acr.Case{Topo: inc.Scenario.Topo, Configs: res.FinalConfigs, Intents: inc.Scenario.Intents})
	if n := rep.NumFailed(); n > 0 {
		return fmt.Sprintf("repaired configs fail %d intents", n)
	}
	return ""
}

// parallelFor runs fn(i) for i in [0,n) on at most nproc goroutines.
func parallelFor(n int, fn func(i int)) {
	var wg sync.WaitGroup
	next := make(chan int)
	for w := 0; w < runtime.NumCPU() && w < n; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := range next {
				fn(i)
			}
		}()
	}
	for i := 0; i < n; i++ {
		next <- i
	}
	close(next)
	wg.Wait()
}

// repairInstance runs one core.Repair per incident, one at a time; the
// engine's own Parallelism is the only concurrency.
type repairInstance struct {
	incs []*incidents.Incident
	opts core.Options
	// first keeps the first pass's results for check.
	first []*core.Result
	// tamper, set by tests, edits a result before it is verified.
	tamper func(op int, res *core.Result)
}

func (ri *repairInstance) numOps() int                  { return len(ri.incs) }
func (ri *repairInstance) cases() []*incidents.Incident { return ri.incs }
func (ri *repairInstance) repairOptions() core.Options  { return ri.opts }
func (ri *repairInstance) close()                       {}

func (ri *repairInstance) runPass(rec *recorder, limit int) []outcome {
	incs := firstN(ri.incs, limit)
	out := make([]outcome, len(incs))
	keep := ri.first == nil && len(incs) == len(ri.incs)
	for i, inc := range incs {
		sp := rec.begin("op.repair", -1, i)
		t0 := time.Now()
		res, err := safeRepair(problemOf(inc), ri.opts)
		out[i].dur = time.Since(t0)
		rec.end(sp)
		out[i].digest, out[i].fail = repairOutcome(res, err)
		if keep {
			ri.first = append(ri.first, res)
		}
	}
	return out
}

func (ri *repairInstance) check(int64) []string {
	fails := make([]string, len(ri.incs))
	parallelFor(len(ri.incs), func(i int) {
		res := ri.first[i]
		if res == nil || !res.Feasible {
			return // already failed in runPass
		}
		if ri.tamper != nil {
			ri.tamper(i, res)
		}
		fails[i] = verifyRepaired(ri.incs[i], res)
	})
	return fails
}

// whatifInstance checks a pool of candidate edits against ready-made base
// verifiers: the validation ladder without generation, preservation,
// journal or service.
type whatifInstance struct {
	bases []*verify.Incremental
	incs  []*incidents.Incident
	ops   []whatifOp
}

type whatifOp struct {
	base  int
	edits []netcfg.EditSet
}

func setupWhatif(seed int64, sc scale, _ string) (instance, error) {
	wan, err := wanPanel(seed, sc)
	if err != nil {
		return nil, err
	}
	if len(wan) > sc.whatifWAN {
		wan = wan[:sc.whatifWAN]
	}
	dcn, err := dcnIncidents(seed, sc, sc.whatifDCN)
	if err != nil {
		return nil, err
	}
	wi := &whatifInstance{incs: append(wan, dcn...)}
	for b, inc := range wi.incs {
		p := problemOf(inc)
		iv := verify.NewIncremental(p.Topo, p.Configs, p.Intents, bgp.Options{})
		wi.bases = append(wi.bases, iv)
		ctx := core.NewContext(p, iv, sbfl.Tarantula, rand.New(rand.NewSource(seed)))
		for _, up := range firstN(sweepTemplates(ctx, nil), sc.whatifPool) {
			wi.ops = append(wi.ops, whatifOp{base: b, edits: up.Edits})
		}
	}
	if len(wi.ops) == 0 {
		return nil, fmt.Errorf("whatif: the templates proposed no update on any base")
	}
	rand.New(rand.NewSource(seed)).Shuffle(len(wi.ops), func(i, j int) { wi.ops[i], wi.ops[j] = wi.ops[j], wi.ops[i] })
	return wi, nil
}

// sweepTemplates applies every default template to the context's top-24
// suspicious lines, reports each application to observe (when non-nil) and
// returns the distinct updates proposed.
func sweepTemplates(ctx *core.Context, observe func(tmpl core.Template, start, end time.Time, proposed int)) []core.Update {
	var pool []core.Update
	seen := map[string]bool{}
	for _, sc := range sbfl.Suspicious(ctx.Ranks, 24, 0.45) {
		for _, tmpl := range tmplreg.Default.EngineTemplates() {
			t0 := time.Now()
			ups := safeGenerate(tmpl, ctx, sc.Line)
			if observe != nil {
				observe(tmpl, t0, time.Now(), len(ups))
			}
			for _, up := range ups {
				if key := editsKey(up.Edits); !seen[key] {
					seen[key] = true
					pool = append(pool, up)
				}
			}
		}
	}
	return pool
}

// safeGenerate quarantines a panicking template the way the engine does.
func safeGenerate(tmpl core.Template, ctx *core.Context, line netcfg.LineRef) (ups []core.Update) {
	defer func() {
		if recover() != nil {
			ups = nil
		}
	}()
	return tmpl.Generate(ctx, line)
}

func editsKey(edits []netcfg.EditSet) string {
	var sb strings.Builder
	for _, es := range edits {
		sb.WriteString(es.String())
		sb.WriteByte(';')
	}
	return sb.String()
}

// verdictString renders a report as one pass/fail character per intent.
func verdictString(rep *verify.Report) string {
	b := make([]byte, len(rep.Verdicts))
	for i, v := range rep.Verdicts {
		b[i] = '0'
		if v.Pass {
			b[i] = '1'
		}
	}
	return string(b)
}

func (wi *whatifInstance) numOps() int                  { return len(wi.ops) }
func (wi *whatifInstance) cases() []*incidents.Incident { return wi.incs }
func (wi *whatifInstance) repairOptions() core.Options  { return core.Options{} }
func (wi *whatifInstance) close()                       {}

func (wi *whatifInstance) runPass(rec *recorder, limit int) []outcome {
	ops := firstN(wi.ops, limit)
	out := make([]outcome, len(ops))
	for i, op := range ops {
		sp := rec.begin("op.check", -1, i)
		t0 := time.Now()
		rep, _, err := wi.bases[op.base].Check(op.edits)
		out[i].dur = time.Since(t0)
		rec.end(sp)
		if err != nil {
			out[i].fail = err.Error()
			continue
		}
		out[i].digest = verdictString(rep)
	}
	return out
}

// check replays a seeded sample of at least a tenth of the pool (at most
// 300 ops) through FullCheck and compares verdict by verdict.
func (wi *whatifInstance) check(seed int64) []string {
	n := (len(wi.ops) + 9) / 10
	if n > 300 {
		n = 300
	}
	sample := rand.New(rand.NewSource(seed)).Perm(len(wi.ops))[:n]
	fails := make([]string, len(wi.ops))
	parallelFor(len(sample), func(k int) {
		i := sample[k]
		op := wi.ops[i]
		iv := wi.bases[op.base].Clone()
		inc, _, err := iv.Check(op.edits)
		if err != nil {
			return // already failed in runPass
		}
		full, err := iv.FullCheck(op.edits)
		if err != nil {
			fails[i] = "FullCheck: " + err.Error()
		} else if a, b := verdictString(inc), verdictString(full); a != b {
			fails[i] = fmt.Sprintf("Check %s differs from FullCheck %s", a, b)
		}
	})
	return fails
}
