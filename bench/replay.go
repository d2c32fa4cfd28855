package main

import (
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"math/rand"
	"net/netip"
	"path/filepath"
	"sort"
	"strings"
	"time"

	"acr/internal/analysis"
	"acr/internal/bgp"
	"acr/internal/caseio"
	"acr/internal/core"
	"acr/internal/coverage"
	"acr/internal/evalstore"
	"acr/internal/incidents"
	"acr/internal/journal"
	"acr/internal/netcfg"
	"acr/internal/provenance"
	"acr/internal/sbfl"
	"acr/internal/service"
	"acr/internal/tmplreg"
	"acr/internal/verify"
)

// replayer drives cases through the layers' public functions, one span
// per call, and collects the counts those calls return. Everything is
// measured from outside the layers: no engine file knows about it.
type replayer struct {
	rec *recorder
	sc  scale
	dir string // scratch directory for journals and stores

	// samples holds per-case values that are not a single span's duration
	// (sums of spans and counts); sums holds the numerators and
	// denominators of shares.
	samples map[string][]float64
	sums    map[string]float64
	// failures lists what went wrong on replayed cases.
	failures []string
}

func newReplayer(rec *recorder, sc scale, dir string) *replayer {
	return &replayer{rec: rec, sc: sc, dir: dir,
		samples: map[string][]float64{}, sums: map[string]float64{}}
}

func (rp *replayer) sample(name string, v float64) {
	rp.samples[name] = append(rp.samples[name], v)
}

func (rp *replayer) failf(format string, args ...any) {
	rp.failures = append(rp.failures, fmt.Sprintf(format, args...))
}

// replayCase runs one incident through every layer. deep additionally
// repairs it at Parallelism 1 and with a journal, which triples the
// case's cost and is done for the first few cases only.
func (rp *replayer) replayCase(op int, inc *incidents.Incident, opts core.Options, deep bool) {
	rec := rp.rec
	root := rec.begin("replay.case", -1, op)
	defer rec.end(root)
	p := problemOf(inc)

	// netcfg, bgp, provenance, verify: the pieces of a base verification,
	// called one by one and then as verify.NewIncremental does them.
	files := map[string]*netcfg.File{}
	rec.call("netcfg.parse", root, op, func() {
		for d, c := range p.Configs {
			files[d], _ = netcfg.Parse(c) // broken lines are repair candidates, as in the engine
		}
	})
	rp.sample("netcfg.lines", float64(inc.Scenario.TotalConfigLines()))
	var net *bgp.Net
	rec.call("bgp.compile", root, op, func() { net = bgp.Compile(p.Topo, files) })
	var out *bgp.Outcome
	rec.call("bgp.simulate", root, op, func() { out = bgp.Simulate(net, bgp.Options{}) })
	acts := 0
	for _, po := range out.ByPrefix {
		acts += po.Activations
	}
	rp.sample("bgp.activations", float64(acts))
	var graph *provenance.Graph
	rec.call("provenance.record", root, op, func() { graph = bgp.BuildProvenance(net, out) })
	prefixes := graph.Prefixes()
	if len(prefixes) > 32 {
		prefixes = prefixes[:32]
	}
	for _, pfx := range prefixes {
		rec.call("provenance.lines_for_prefix", root, op, func() { graph.LinesForPrefix(pfx) })
	}
	rp.sample("provenance.nodes", float64(graph.Len()))
	rec.call("verify.verify", root, op, func() { verify.Verify(net, out, p.Intents) })
	var iv *verify.Incremental
	rec.call("verify.new_incremental", root, op, func() {
		iv = verify.NewIncremental(p.Topo, p.Configs, p.Intents, bgp.Options{})
	})

	// coverage, sbfl, analysis: localization, alone and as core.NewContext.
	var ctx *core.Context
	rec.call("core.context", root, op, func() {
		ctx = core.NewContext(p, iv, sbfl.Tarantula, rand.New(rand.NewSource(1)))
	})
	var matrix *coverage.Matrix
	rec.call("coverage.build", root, op, func() {
		matrix = coverage.Build(iv.BaseNet(), iv.BaseProvenance(), iv.BaseReport())
	})
	rp.sample("coverage.tests", float64(len(matrix.Tests)))
	rp.sample("coverage.lines", float64(len(matrix.CoveredLines())))
	rec.call("sbfl.rank", root, op, func() { sbfl.Rank(matrix, sbfl.Tarantula) })
	best := 0
	for _, l := range inc.Scenario.FaultyLines {
		if r := sbfl.RankOf(ctx.Ranks, l); r > 0 && (best == 0 || r < best) {
			best = r
		}
	}
	if best > 0 {
		rp.sample("sbfl.truth_rank", float64(best))
	}
	var lint *analysis.Result
	rec.call("analysis.lint", root, op, func() {
		lint = analysis.AnalyzeFiles(p.Topo, iv.BaseConfigs(), iv.BaseFiles(), nil)
	})
	rp.sample("analysis.diagnostics", float64(len(lint.Diagnostics)))

	// core generation: every default template at the top-24 lines.
	pool := rp.replayGenerate(root, op, ctx)

	// The validation ladder's rungs, on an even spread of the pool.
	rp.replayCandidates(root, op, p, iv, pool)

	// core.Repair, whole.
	var res *core.Result
	var err error
	rec.call("core.repair", root, op, func() { res, err = safeRepair(p, opts) })
	if _, fail := repairOutcome(res, err); fail != "" {
		rp.failf("%s: %s", inc.ID, fail)
	}
	if err == nil {
		rp.sample("core.iterations", float64(res.Iterations))
		rp.sample("core.candidates_validated", float64(res.CandidatesValidated))
		rp.sample("core.prefix_sims", float64(res.PrefixSimulations))
		rp.sample("core.sim_activations", float64(res.SimActivations))
		rp.sums["repair_s"] += res.WallClock.Seconds()
		rp.sums["repairs"]++
		rp.sums["validated"] += float64(res.CandidatesValidated)
		rp.sums["cache_hits"] += float64(res.CacheHits)
		rp.sums["refuted"] += float64(res.StaticallyRefuted)
		rp.sums["delta_reused"] += float64(res.DeltaReused)
		rp.sums["delta_resim"] += float64(res.DeltaResimulated)
	}
	if deep && err == nil {
		rp.replayDeep(root, op, inc, p, opts, res.WallClock)
	}

	up := caseio.ToUpload(inc.Scenario)
	rec.call("caseio.upload_decode", root, op, func() {
		if _, err := caseio.FromUpload(up); err != nil {
			rp.failf("%s: FromUpload: %v", inc.ID, err)
		}
	})
}

// replayGenerate times every template at every suspicious line and
// returns the distinct updates they proposed.
func (rp *replayer) replayGenerate(root, op int, ctx *core.Context) []core.Update {
	gen := rp.rec.begin("core.generate", root, op)
	perTemplate := map[string]time.Duration{}
	updates := 0
	pool := sweepTemplates(ctx, func(tmpl core.Template, start, end time.Time, proposed int) {
		perTemplate[tmpl.Name()] += end.Sub(start)
		rp.rec.add("core.generate."+tmpl.Name(), gen, op, start, end)
		updates += proposed
	})
	rp.rec.end(gen)
	total := time.Duration(0)
	for _, tmpl := range tmplreg.Default.EngineTemplates() {
		rp.sample("core.generate_ms."+tmpl.Name(), ms(perTemplate[tmpl.Name()]))
		total += perTemplate[tmpl.Name()]
	}
	rp.sample("core.generate_updates", float64(updates))
	rp.sums["generate_us"] += us(total)
	rp.sums["generate_updates"] += float64(updates)
	return pool
}

// replayCandidates walks up to replayCandidates updates of the pool
// through apply, parse, impact, clone, check, and per-prefix cold and
// delta simulation; the first two are also checked from scratch and must
// agree with the incremental verdicts.
func (rp *replayer) replayCandidates(root, op int, p core.Problem, iv *verify.Incremental, pool []core.Update) {
	rec := rp.rec
	n := rp.sc.replayCandidates
	if n > len(pool) {
		n = len(pool)
	}
	if n == 0 {
		return
	}
	baseNet := iv.BaseNet()
	origins := map[netip.Prefix][]string{}
	for _, name := range baseNet.Order {
		for _, o := range baseNet.Routers[name].Origins {
			origins[o.Prefix] = append(origins[o.Prefix], name)
		}
	}
	var analyzer *analysis.ImpactAnalyzer
	rec.call("analysis.new_impact_analyzer", root, op, func() {
		analyzer = analysis.NewImpactAnalyzer(iv.BaseFiles(), baseNet.AllPrefixes(), origins, bgp.DeviceGraphOf(baseNet))
	})

	for k := 0; k < n; k++ {
		up := pool[k*len(pool)/n]
		cs := rec.begin("replay.candidate", root, op)
		configs := map[string]*netcfg.Config{}
		for d, c := range iv.BaseConfigs() {
			configs[d] = c
		}
		var dirty []string
		applied := true
		rec.call("netcfg.apply", cs, op, func() {
			for _, es := range up.Edits {
				next, err := es.Apply(configs[es.Device])
				if err != nil {
					applied = false
					return
				}
				configs[es.Device] = next
				dirty = append(dirty, es.Device)
			}
		})
		if !applied {
			rec.end(cs)
			continue
		}
		newFiles := map[string]*netcfg.File{}
		for d, f := range iv.BaseFiles() {
			newFiles[d] = f
		}
		for _, d := range dirty {
			newFiles[d], _ = netcfg.Parse(configs[d])
		}
		var im *analysis.Impact
		rec.call("analysis.impact_compare", cs, op, func() { im = analyzer.Compare(newFiles) })
		var clone *verify.Incremental
		rec.call("verify.clone", cs, op, func() { clone = iv.Clone() })
		var rep *verify.Report
		var st verify.Stats
		var err error
		rec.call("verify.check", cs, op, func() { rep, st, err = clone.Check(up.Edits) })
		if err != nil {
			rec.end(cs)
			continue
		}
		rp.sample("verify.prefixes_simulated", float64(st.PrefixesSimulated))
		rp.sample("verify.prefixes_delta", float64(st.PrefixesDelta))
		rp.sample("verify.prefixes_derived", float64(st.PrefixesDerived))
		rp.sample("verify.delta_fallbacks", float64(st.DeltaFallbacks))
		rp.sample("verify.intents_reverified", float64(st.IntentsReverified))
		rp.sums["checks"]++
		if st.Refuted {
			rp.sums["checks_refuted"]++
		}
		if st.Broad {
			rp.sums["checks_broad"]++
		}

		var candNet *bgp.Net
		rec.call("bgp.compile", cs, op, func() { candNet = bgp.Compile(p.Topo, newFiles) })
		for _, pfx := range impactPrefixes(im, iv.BaseOutcome(), 2) {
			rec.call("bgp.prefix_cold", cs, op, func() { bgp.SimulatePrefix(candNet, pfx, bgp.Options{}) })
			rec.call("bgp.prefix_delta", cs, op, func() {
				rp.sums["delta_attempts"]++
				if _, ok := bgp.DeltaSimulatePrefix(candNet, iv.BaseOutcome().ByPrefix[pfx], dirty, pfx, bgp.Options{}); !ok {
					rp.sums["delta_refused"]++
				}
			})
		}
		if k < 2 {
			rec.call("verify.fullcheck", cs, op, func() {
				full, err := clone.FullCheck(up.Edits)
				if err != nil {
					rp.failf("FullCheck(%s): %v", up.Desc, err)
				} else if a, b := verdictString(rep), verdictString(full); a != b {
					rp.failf("Check %s differs from FullCheck %s on %s", a, b, up.Desc)
				}
			})
		}
		rec.end(cs)
	}
}

// impactPrefixes picks up to n base prefixes the edit can influence, or
// the first base prefix when the impact set names none.
func impactPrefixes(im *analysis.Impact, base *bgp.Outcome, n int) []netip.Prefix {
	var out []netip.Prefix
	for pfx := range im.Prefixes {
		if base.ByPrefix[pfx] != nil {
			out = append(out, pfx)
		}
	}
	if len(out) == 0 {
		for pfx := range base.ByPrefix {
			out = append(out, pfx)
		}
	}
	sort.Slice(out, func(i, j int) bool { return out[i].String() < out[j].String() })
	if len(out) > n {
		out = out[:n]
	}
	return out
}

// replayDeep repairs the case again at Parallelism 1 and with a journal,
// and replays the journal. plain is the wall-clock of the case's repair
// with the workload's own options.
func (rp *replayer) replayDeep(root, op int, inc *incidents.Incident, p core.Problem, opts core.Options, plain time.Duration) {
	serial := opts
	serial.Parallelism = 1
	rp.rec.call("core.repair_serial", root, op, func() {
		if res, err := safeRepair(p, serial); err == nil {
			rp.sums["p1_s"] += res.WallClock.Seconds()
			rp.sums["pn_s"] += plain.Seconds()
			rp.sums["p1_cases"]++
		}
	})

	dir := filepath.Join(rp.dir, fmt.Sprintf("journal-%d", op))
	w, err := journal.Create(dir, core.SessionHeader(inc.ID, p, opts))
	if err != nil {
		rp.failf("%s: journal.Create: %v", inc.ID, err)
		return
	}
	journaled := opts
	journaled.Journal = w
	var res *core.Result
	rp.rec.call("core.repair_journaled", root, op, func() { res, err = safeRepair(p, journaled) })
	if cerr := w.Close(); cerr != nil {
		rp.failf("%s: journal close: %v", inc.ID, cerr)
	}
	if err != nil {
		return
	}
	rp.sample("journal.repair_overhead_ms", ms(res.WallClock-plain))
	rp.rec.call("journal.replay", root, op, func() {
		sess, err := journal.Replay(dir)
		if err != nil {
			rp.failf("%s: journal.Replay: %v", inc.ID, err)
			return
		}
		rp.sample("journal.bytes_per_op", float64(sess.WALBytes))
	})
}

// replayStore times the evaluation store's three paths on a fresh store.
func (rp *replayer) replayStore() {
	st, err := evalstore.Open(filepath.Join(rp.dir, "evalstore"), 0)
	if err != nil {
		rp.failf("evalstore.Open: %v", err)
		return
	}
	defer st.Close()
	digest := func(kind string, i int) string {
		sum := sha256.Sum256([]byte(fmt.Sprintf("%s-%d", kind, i)))
		return hex.EncodeToString(sum[:])
	}
	const n = 128
	for i := 0; i < n; i++ {
		rp.rec.call("evalstore.put", -1, -1, func() { st.Put(digest("stored", i), i) })
	}
	for i := 0; i < n; i++ {
		rp.rec.call("evalstore.get_hit", -1, -1, func() {
			if _, ok, _ := st.Get(digest("stored", i)); !ok {
				rp.failf("evalstore: entry %d was not stored", i)
			}
		})
		rp.rec.call("evalstore.get_miss", -1, -1, func() { st.Get(digest("absent", i)) })
	}
}

// serviceBodies renders cases as POST /v1/repairs bodies carrying the
// workload's iteration cap.
func serviceBodies(incs []*incidents.Incident, opts core.Options) ([][]byte, error) {
	var bodies [][]byte
	for _, inc := range incs {
		up := caseio.ToUpload(inc.Scenario)
		up.Name = inc.ID
		body, err := json.Marshal(service.JobRequest{Case: &up, MaxIterations: opts.MaxIterations})
		if err != nil {
			return nil, err
		}
		bodies = append(bodies, body)
	}
	return bodies, nil
}

// replayService records, per job, the client-side intervals of the
// service layer as child spans of the job.
func (rp *replayer) replayService(traces []jobTrace) {
	for i, tr := range traces {
		if tr.status == 429 {
			rp.sums["rejected"]++
		}
		if o := jobOutcome(tr); o.fail != "" {
			rp.failf("job %d: %s", i, o.fail)
			continue
		}
		job := rp.rec.add("service.job", -1, i, tr.post, tr.terminal)
		rp.rec.add("service.submit", job, i, tr.post, tr.accepted)
		if !tr.running.IsZero() {
			rp.rec.add("service.queue_wait", job, i, tr.accepted, tr.running)
			rp.rec.add("service.run", job, i, tr.running, tr.terminal)
		}
		engine := tr.job.Result.WallClockSeconds * 1000
		rp.sample("service.engine_ms", engine)
		rp.sample("service.overhead_ms", ms(tr.terminal.Sub(tr.post))-engine)
		rp.sample("service.sse_events_per_job", float64(tr.events))
		rp.sums["store_hits"] += float64(tr.job.Result.StoreHits)
		rp.sums["store_misses"] += float64(tr.job.Result.StoreMisses)
	}
}

// metrics folds spans, samples and sums into the per-layer metric set. A
// timing metric "x_ms" or "x_us" is the median duration of the spans named
// "x" when the run recorded any, and the median of its samples otherwise;
// counts are means per case.
func (rp *replayer) metrics() map[string]value {
	// Quotients of sums: numerator, denominator, and the sum that is the
	// sample count.
	quotients := map[string][3]string{
		"bgp.delta_refused_share":     {"delta_refused", "delta_attempts", "delta_attempts"},
		"verify.refuted_share":        {"checks_refuted", "checks", "checks"},
		"verify.broad_share":          {"checks_broad", "checks", "checks"},
		"core.generate_us_per_update": {"generate_us", "generate_updates", "generate_updates"},
		"core.candidates_per_s":       {"validated", "repair_s", "repairs"},
		"core.cache_hit_share":        {"cache_hits", "validated", "validated"},
		"core.static_refuted_share":   {"refuted", "validated", "validated"},
		"core.parallel_speedup":       {"p1_s", "pn_s", "p1_cases"},
	}
	out := map[string]value{}
	for _, def := range perLayer {
		v := value{Unit: def.Unit}
		span := strings.TrimSuffix(strings.TrimSuffix(def.Name, "_ms"), "_us")
		if durs := rp.rec.durations(span); span != def.Name && len(durs) > 0 {
			xs := make([]float64, len(durs))
			for i, d := range durs {
				xs[i] = ms(d)
				if def.Unit == "us" {
					xs[i] = us(d)
				}
			}
			v.Value, v.N = median(xs), len(xs)
		} else if q, ok := quotients[def.Name]; ok {
			v.Value, v.N = ratio(rp.sums[q[0]], rp.sums[q[1]]), int(rp.sums[q[2]])
		} else if xs := rp.samples[def.Name]; def.Unit == "count" {
			v.Value, v.N = mean(xs), len(xs)
		} else {
			v.Value, v.N = median(xs), len(xs)
		}
		out[def.Name] = v
	}
	out["core.delta_reused_share"] = value{Unit: "ratio",
		Value: ratio(rp.sums["delta_reused"], rp.sums["delta_reused"]+rp.sums["delta_resim"]),
		N:     int(rp.sums["delta_reused"] + rp.sums["delta_resim"])}
	out["evalstore.hit_share"] = value{Unit: "ratio",
		Value: ratio(rp.sums["store_hits"], rp.sums["store_hits"]+rp.sums["store_misses"]),
		N:     int(rp.sums["store_hits"] + rp.sums["store_misses"])}
	out["service.rejected"] = value{Unit: "count", Value: rp.sums["rejected"], N: len(rp.samples["service.engine_ms"])}
	return out
}
