package main

import (
	"math"
	"sort"
	"time"

	"acr/internal/tmplreg"
)

// metricDef names one metric of BENCHMARK.json. Bound, on end-to-end
// metrics only, is the share by which the metric may get worse before a
// change counts as a regression; lower is better for all of them.
type metricDef struct {
	Name, Unit string
	Bound      float64
}

// value is one reported measurement. N is the sample count behind it
// (passes, ops or calls, depending on the metric); it is printed in the
// table and left out of the driver's result line.
type value struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
	N     int     `json:"-"`
}

// endToEnd lists the metrics of the untraced run, the same on every
// workload. BENCHMARK.json carries their direction and bound.
var endToEnd = []metricDef{
	{Name: "setup_s", Unit: "s", Bound: 0.25},
	{Name: "wall_s", Unit: "s", Bound: 0.25},
	{Name: "cpu_s", Unit: "s", Bound: 0.25},
	{Name: "op_p90_ms", Unit: "ms", Bound: 0.25},
}

// perLayer lists the metrics of the traced run, grouped by the package
// they measure. Timings are medians per call and counts are means per
// replayed case unless the README says otherwise.
var perLayer = func() []metricDef {
	defs := []metricDef{
		// The median op latency of the untraced quarter pass. It is not an
		// end-to-end metric because on the serve workloads it is the
		// cheapest jobs' file-system time, which spread by up to 19 % over
		// ten runs on the reference box.
		{Name: "op_p50_ms", Unit: "ms"},

		{Name: "netcfg.parse_ms", Unit: "ms"},
		{Name: "netcfg.apply_us", Unit: "us"},
		{Name: "netcfg.lines", Unit: "count"},

		{Name: "bgp.compile_ms", Unit: "ms"},
		{Name: "bgp.simulate_ms", Unit: "ms"},
		{Name: "bgp.prefix_cold_us", Unit: "us"},
		{Name: "bgp.prefix_delta_us", Unit: "us"},
		{Name: "bgp.delta_refused_share", Unit: "ratio"},
		{Name: "bgp.activations", Unit: "count"},

		{Name: "provenance.record_ms", Unit: "ms"},
		{Name: "provenance.lines_for_prefix_us", Unit: "us"},
		{Name: "provenance.nodes", Unit: "count"},

		{Name: "verify.new_incremental_ms", Unit: "ms"},
		{Name: "verify.verify_ms", Unit: "ms"},
		{Name: "verify.clone_us", Unit: "us"},
		{Name: "verify.check_us", Unit: "us"},
		{Name: "verify.fullcheck_ms", Unit: "ms"},
		{Name: "verify.prefixes_simulated", Unit: "count"},
		{Name: "verify.prefixes_delta", Unit: "count"},
		{Name: "verify.prefixes_derived", Unit: "count"},
		{Name: "verify.delta_fallbacks", Unit: "count"},
		{Name: "verify.intents_reverified", Unit: "count"},
		{Name: "verify.refuted_share", Unit: "ratio"},
		{Name: "verify.broad_share", Unit: "ratio"},

		{Name: "coverage.build_ms", Unit: "ms"},
		{Name: "coverage.tests", Unit: "count"},
		{Name: "coverage.lines", Unit: "count"},
		{Name: "sbfl.rank_ms", Unit: "ms"},
		{Name: "sbfl.truth_rank", Unit: "count"},
		{Name: "analysis.lint_ms", Unit: "ms"},
		{Name: "analysis.impact_compare_us", Unit: "us"},
		{Name: "analysis.diagnostics", Unit: "count"},

		{Name: "core.context_ms", Unit: "ms"},
		{Name: "core.generate_ms", Unit: "ms"},
	}
	for _, t := range tmplreg.Default.EngineTemplates() {
		defs = append(defs, metricDef{Name: "core.generate_ms." + t.Name(), Unit: "ms"})
	}
	return append(defs, []metricDef{
		{Name: "core.generate_updates", Unit: "count"},
		{Name: "core.generate_us_per_update", Unit: "us"},
		{Name: "core.repair_ms", Unit: "ms"},
		{Name: "core.iterations", Unit: "count"},
		{Name: "core.candidates_validated", Unit: "count"},
		{Name: "core.prefix_sims", Unit: "count"},
		{Name: "core.sim_activations", Unit: "count"},
		{Name: "core.candidates_per_s", Unit: "1/s"},
		{Name: "core.cache_hit_share", Unit: "ratio"},
		{Name: "core.static_refuted_share", Unit: "ratio"},
		{Name: "core.delta_reused_share", Unit: "ratio"},
		{Name: "core.parallel_speedup", Unit: "x"},

		{Name: "evalstore.put_us", Unit: "us"},
		{Name: "evalstore.get_hit_us", Unit: "us"},
		{Name: "evalstore.get_miss_us", Unit: "us"},
		{Name: "evalstore.hit_share", Unit: "ratio"},
		{Name: "journal.repair_overhead_ms", Unit: "ms"},
		{Name: "journal.replay_ms", Unit: "ms"},
		{Name: "journal.bytes_per_op", Unit: "count"},
		{Name: "caseio.upload_decode_ms", Unit: "ms"},

		{Name: "service.submit_ms", Unit: "ms"},
		{Name: "service.queue_wait_ms", Unit: "ms"},
		{Name: "service.run_ms", Unit: "ms"},
		{Name: "service.engine_ms", Unit: "ms"},
		{Name: "service.overhead_ms", Unit: "ms"},
		{Name: "service.rejected", Unit: "count"},
		{Name: "service.sse_events_per_job", Unit: "count"},

		{Name: "runtime.alloc_mb_per_op", Unit: "mb"},
		{Name: "runtime.mallocs_per_op", Unit: "count"},
		{Name: "runtime.gc_cycles", Unit: "count"},
		{Name: "runtime.gc_pause_ms", Unit: "ms"},
		{Name: "runtime.peak_rss_mb", Unit: "mb"},
		{Name: "runtime.trace_overhead_share", Unit: "ratio"},
	}...)
}()

// quantile returns the nearest-rank q-quantile of xs (0 for no samples).
func quantile(xs []float64, q float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	i := int(math.Ceil(q*float64(len(s)))) - 1
	if i < 0 {
		i = 0
	}
	return s[i]
}

// median returns the middle sample, averaging the two middle ones of an
// even count so that two passes report their mean, not the slower one.
func median(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	if n := len(s); n%2 == 0 {
		return (s[n/2-1] + s[n/2]) / 2
	}
	return s[len(s)/2]
}

func mean(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	t := 0.0
	for _, x := range xs {
		t += x
	}
	return t / float64(len(xs))
}

func ratio(num, den float64) float64 {
	if den == 0 {
		return 0
	}
	return num / den
}

func ms(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }
func us(d time.Duration) float64 { return float64(d) / float64(time.Microsecond) }
