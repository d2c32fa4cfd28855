// Command bench is the repair pipeline's benchmark: six seeded workloads,
// five end-to-end metrics measured untraced, and a traced stage replay
// that reports per-layer metrics. README.md describes the workloads,
// metrics and how they interact; BENCHMARK.json at the repository root is
// the contract the driver runs it under.
//
//	go run -C bench . --workload corpus --seed 1 --seconds 10 --trace 0
//	go run -C bench .                 # every workload, one child process each
//	go run -C bench . -selfcheck      # two sets of runs compared against the bounds
package main

import (
	"bytes"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"flag"
	"fmt"
	"math/rand"
	"os"
	"os/exec"
	"path/filepath"
	"runtime"
	"sort"
	"strings"
	"syscall"
	"time"

	"acr/internal/incidents"
)

// result is one run of one workload. The driver reads the four exported
// keys from the last line of standard output; the rest is printed above.
type result struct {
	Correct   bool             `json:"correct"`
	Attempted int              `json:"attempted"`
	Failed    int              `json:"failed"`
	Metrics   map[string]value `json:"metrics"`

	ops, passes int
	digest      string   // SHA-256 over the ops' output digests
	failures    []string // why ops failed, capped
}

func (r *result) failf(format string, args ...any) {
	if len(r.failures) < 10 {
		r.failures = append(r.failures, fmt.Sprintf(format, args...))
	}
}

// cpuSeconds is the user + system CPU time this process has used.
func cpuSeconds() float64 {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	tv := func(t syscall.Timeval) float64 { return float64(t.Sec) + float64(t.Usec)/1e6 }
	return tv(ru.Utime) + tv(ru.Stime)
}

// peakRSSMB is the process's peak resident set (Linux reports KiB).
func peakRSSMB() float64 {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return float64(ru.Maxrss) / 1024
}

// setUp builds the workload and returns the instance and every build's
// duration. When repeat is set it builds at least three times and for at
// least half a second, keeping the last instance, so that the median of a
// millisecond set-up is steady; a set-up that takes over two seconds is a
// long enough measurement on its own and is not repeated.
func setUp(w *workload, seed int64, sc scale, dir string, repeat bool) (instance, []float64, error) {
	var inst instance
	var secs []float64
	total := 0.0
	for {
		if inst != nil {
			inst.close()
		}
		t0 := time.Now()
		var err error
		if inst, err = w.setup(seed, sc, dir); err != nil {
			return nil, nil, fmt.Errorf("set-up of %s: %w", w.name, err)
		}
		d := time.Since(t0).Seconds()
		secs, total = append(secs, d), total+d
		if !repeat || d > 2 || (len(secs) >= 3 && total >= 0.5) || len(secs) == 64 {
			return inst, secs, nil
		}
	}
}

func beforePass(inst instance) error {
	if p, ok := inst.(interface{ beforePass() error }); ok {
		return p.beforePass()
	}
	return nil
}

// runUntraced measures the end-to-end metrics: whole passes over the
// workload's fixed op list, at least two, until the next one would end
// further past the time budget than it starts before it.
func runUntraced(w *workload, seed int64, seconds float64, sc scale, dir string) (*result, error) {
	inst, setups, err := setUp(w, seed, sc, dir, sc.repeatSetup)
	if err != nil {
		return nil, err
	}
	defer inst.close()

	var walls, cpus []float64
	var passes [][]outcome
	total := 0.0
	for len(passes) < 2 || total+walls[len(walls)-1]/2 <= seconds {
		if err := beforePass(inst); err != nil {
			return nil, err
		}
		c0, t0 := cpuSeconds(), time.Now()
		out := inst.runPass(nil, 0)
		wall := time.Since(t0).Seconds()
		walls, cpus = append(walls, wall), append(cpus, cpuSeconds()-c0)
		passes = append(passes, out)
		total += wall
	}

	res := &result{ops: inst.numOps(), passes: len(passes), Attempted: inst.numOps() * len(passes)}
	failed := make([]bool, inst.numOps())
	for k, out := range passes {
		for i, o := range out {
			if o.fail != "" && !failed[i] {
				failed[i] = true
				res.failf("op %d, pass %d: %s", i, k+1, o.fail)
			}
			if o.digest != passes[0][i].digest && !failed[i] {
				failed[i] = true
				res.failf("op %d: pass %d does not reproduce pass 1", i, k+1)
			}
		}
	}
	for i, why := range inst.check(seed) {
		if why != "" && !failed[i] {
			failed[i] = true
			res.failf("op %d: %s", i, why)
		}
	}

	h := sha256.New()
	var opMedians []float64
	for i := range failed {
		fmt.Fprintln(h, passes[0][i].digest)
		if failed[i] {
			res.Failed += len(passes)
			continue
		}
		var durs []float64
		for _, out := range passes {
			durs = append(durs, ms(out[i].dur))
		}
		opMedians = append(opMedians, median(durs))
	}
	res.digest = hex.EncodeToString(h.Sum(nil))
	res.Correct = res.Failed == 0
	res.Metrics = map[string]value{
		"setup_s":   {median(setups), "s", len(setups)},
		"wall_s":    {median(walls), "s", len(walls)},
		"cpu_s":     {median(cpus), "s", len(cpus)},
		"op_p90_ms": {quantile(opMedians, 0.9), "ms", len(opMedians)},
	}
	return res, nil
}

// runTraced measures the per-layer metrics. It replays a seeded sample of
// the workload's cases through every layer for about 0.6 of the time
// budget, runs jobs through the service, and runs the first quarter of
// the op list twice, untraced and traced, for the tracing overhead and the
// allocation figures.
func runTraced(w *workload, seed int64, seconds float64, sc scale, dir, traceFile string) (*result, error) {
	var ms0 runtime.MemStats
	runtime.ReadMemStats(&ms0)
	inst, _, err := setUp(w, seed, sc, dir, false)
	if err != nil {
		return nil, err
	}
	defer inst.close()
	rec := newRecorder()
	rp := newReplayer(rec, sc, dir)
	opts := inst.repairOptions()

	cases := inst.cases()
	order := rand.New(rand.NewSource(seed)).Perm(len(cases))
	if len(order) > sc.replayCases {
		order = order[:sc.replayCases]
	}
	start := time.Now()
	replayed := 0
	for k, i := range order {
		if k > 0 && time.Since(start).Seconds() > 0.6*seconds {
			break
		}
		rp.replayCase(i, cases[i], opts, k < sc.journalCases)
		replayed++
	}
	rp.replayStore()

	// The service layer: the serve workloads trace one pass of their own;
	// the others submit the replayed cases to a daemon of their own.
	if si, ok := inst.(*serveInstance); ok {
		if err := beforePass(inst); err != nil {
			return nil, err
		}
		si.runPass(nil, 0)
		rp.replayService(si.traces)
	} else {
		var sample []*incidents.Incident
		for _, i := range order[:min(replayed, 2*runtime.NumCPU())] {
			sample = append(sample, cases[i])
		}
		bodies, err := serviceBodies(sample, opts)
		if err != nil {
			return nil, err
		}
		d, err := bootDaemon(filepath.Join(dir, "daemon-replay"))
		if err != nil {
			return nil, err
		}
		traces := d.runJobs(bodies)
		d.stop()
		rp.replayService(traces)
	}

	// Tracing overhead and allocations, on the workload's own ops.
	quarter := (inst.numOps() + 3) / 4
	if err := beforePass(inst); err != nil {
		return nil, err
	}
	var m0, m1 runtime.MemStats
	runtime.ReadMemStats(&m0)
	t0 := time.Now()
	plain := inst.runPass(nil, quarter)
	untraced := time.Since(t0)
	runtime.ReadMemStats(&m1)
	if err := beforePass(inst); err != nil {
		return nil, err
	}
	t0 = time.Now()
	inst.runPass(rec, quarter)
	traced := time.Since(t0)
	var opMs []float64
	for i, o := range plain {
		if o.fail != "" {
			rp.failf("op %d: %s", i, o.fail)
		}
		opMs = append(opMs, ms(o.dur))
	}

	metrics := rp.metrics()
	n := float64(len(plain))
	var ms1 runtime.MemStats
	runtime.ReadMemStats(&ms1)
	metrics["op_p50_ms"] = value{median(opMs), "ms", len(opMs)}
	metrics["runtime.alloc_mb_per_op"] = value{float64(m1.TotalAlloc-m0.TotalAlloc) / n / (1 << 20), "mb", len(plain)}
	metrics["runtime.mallocs_per_op"] = value{float64(m1.Mallocs-m0.Mallocs) / n, "count", len(plain)}
	metrics["runtime.gc_cycles"] = value{float64(ms1.NumGC - ms0.NumGC), "count", 1}
	metrics["runtime.gc_pause_ms"] = value{float64(ms1.PauseTotalNs-ms0.PauseTotalNs) / 1e6, "ms", int(ms1.NumGC - ms0.NumGC)}
	metrics["runtime.peak_rss_mb"] = value{peakRSSMB(), "mb", 1}
	metrics["runtime.trace_overhead_share"] = value{traced.Seconds()/untraced.Seconds() - 1, "ratio", len(plain)}

	if err := rec.write(traceFile); err != nil {
		return nil, err
	}
	res := &result{ops: replayed, passes: 1, Attempted: replayed, Failed: min(len(rp.failures), replayed), Metrics: metrics}
	res.Correct = len(rp.failures) == 0
	for _, f := range rp.failures {
		res.failf("%s", f)
	}
	printSelfTimes(rec)
	return res, nil
}

// printSelfTimes prints where the replay's time went, layer by layer.
func printSelfTimes(rec *recorder) {
	self := rec.selfTimes()
	names := make([]string, 0, len(self))
	for name := range self {
		names = append(names, name)
	}
	sort.Slice(names, func(i, j int) bool { return self[names[i]] > self[names[j]] })
	fmt.Println("self time by span (traced run):")
	for _, name := range names {
		fmt.Printf("  %-40s %10.1f ms  %5d calls\n", name, ms(self[name]), len(rec.durations(name)))
	}
}

// printResult prints every metric by name and unit, then the failures.
func printResult(name string, defs []metricDef, res *result) {
	fmt.Printf("workload %s: %d ops x %d passes, attempted %d, failed %d, correct %v\n",
		name, res.ops, res.passes, res.Attempted, res.Failed, res.Correct)
	if res.digest != "" {
		fmt.Printf("  canonical_sha256 %s\n", res.digest)
	}
	for _, def := range defs {
		v := res.Metrics[def.Name]
		fmt.Printf("  %-44s %14.4f %-6s n=%d\n", def.Name, v.Value, v.Unit, v.N)
	}
	if w := res.Metrics["wall_s"].Value; w > 0 {
		fmt.Printf("  throughput %.2f ops/s\n", float64(res.ops)/w)
	}
	for _, f := range res.failures {
		fmt.Printf("  FAILED %s\n", f)
	}
}

func main() {
	workloadName := flag.String("workload", "", "workload to run (default: every workload, one child process each)")
	seed := flag.Int64("seed", 1, "seed every input is generated from")
	seconds := flag.Float64("seconds", 10, "time budget of the measured part of a run")
	trace := flag.Int("trace", 0, "1: traced run reporting the per-layer metrics; 0: untraced run reporting the end-to-end metrics")
	scaleName := flag.String("scale", "full", "full or smoke")
	outDir := flag.String("out", "out", "directory for traces, results and scratch state")
	selfcheck := flag.Bool("selfcheck", false, "run every workload twice and compare the end-to-end metrics against their bounds")
	flag.Parse()

	sc, ok := scales[*scaleName]
	if !ok {
		fatalf("unknown scale %q", *scaleName)
	}
	if err := os.MkdirAll(*outDir, 0o755); err != nil {
		fatalf("%v", err)
	}
	switch {
	case *selfcheck:
		os.Exit(runSelfcheck(*seed, *seconds, *scaleName, *outDir))
	case *workloadName == "":
		os.Exit(runAll(*seed, *seconds, *trace, *scaleName, *outDir))
	}

	w := workloadByName(*workloadName)
	if w == nil {
		fatalf("unknown workload %q", *workloadName)
	}
	scratch, err := os.MkdirTemp(*outDir, "scratch-")
	if err != nil {
		fatalf("%v", err)
	}
	var res *result
	defs := endToEnd
	if *trace == 0 {
		res, err = runUntraced(w, *seed, *seconds, sc, scratch)
	} else {
		defs = perLayer
		res, err = runTraced(w, *seed, *seconds, sc, scratch, filepath.Join(*outDir, "trace-"+w.name+".json"))
	}
	os.RemoveAll(scratch)
	if err != nil {
		fatalf("%v", err)
	}
	printResult(w.name, defs, res)
	line, err := json.Marshal(res)
	if err != nil {
		fatalf("%v", err)
	}
	fmt.Println(string(line))
	if !res.Correct {
		os.Exit(1)
	}
}

func fatalf(format string, args ...any) {
	fmt.Fprintf(os.Stderr, "bench: "+format+"\n", args...)
	os.Exit(2)
}

// runChild runs one workload in a child process, so that heap state, GC
// pacing and rusage do not leak between workloads, and returns the result
// line it printed. Only one child runs at a time.
func runChild(workload string, seed int64, seconds float64, trace int, scaleName, outDir string) (*result, error) {
	self, err := os.Executable()
	if err != nil {
		return nil, err
	}
	cmd := exec.Command(self, "-workload", workload, "-seed", fmt.Sprint(seed), "-seconds", fmt.Sprint(seconds),
		"-trace", fmt.Sprint(trace), "-scale", scaleName, "-out", outDir)
	var stdout bytes.Buffer
	cmd.Stdout, cmd.Stderr = &stdout, os.Stderr
	runErr := cmd.Run()
	lines := strings.Split(strings.TrimSpace(stdout.String()), "\n")
	os.Stdout.WriteString(strings.Join(lines[:len(lines)-1], "\n") + "\n")
	var res result
	if err := json.Unmarshal([]byte(lines[len(lines)-1]), &res); err != nil {
		return nil, fmt.Errorf("workload %s printed no result (%v): %v", workload, runErr, err)
	}
	for _, l := range lines {
		if d, ok := strings.CutPrefix(l, "  canonical_sha256 "); ok {
			res.digest = d
		}
	}
	return &res, nil
}

// runAll runs every workload and prints and stores the results as JSON.
func runAll(seed int64, seconds float64, trace int, scaleName, outDir string) int {
	type entry struct {
		*result
		PerLayer map[string]value `json:"per_layer,omitempty"`
	}
	all := map[string]entry{}
	code := 0
	for _, w := range workloads {
		res, err := runChild(w.name, seed, seconds, 0, scaleName, outDir)
		if err != nil {
			fatalf("%v", err)
		}
		e := entry{result: res}
		if trace != 0 {
			traced, err := runChild(w.name, seed, seconds, 1, scaleName, outDir)
			if err != nil {
				fatalf("%v", err)
			}
			e.PerLayer = traced.Metrics
			e.Correct = e.Correct && traced.Correct
		}
		if !e.Correct {
			code = 1
		}
		all[w.name] = e
	}
	line, err := json.Marshal(map[string]any{
		"seed": seed, "nproc": runtime.NumCPU(), "gomaxprocs": runtime.GOMAXPROCS(0),
		"go": runtime.Version(), "workloads": all,
	})
	if err != nil {
		fatalf("%v", err)
	}
	if err := os.WriteFile(filepath.Join(outDir, "results.json"), append(line, '\n'), 0o644); err != nil {
		fatalf("%v", err)
	}
	fmt.Println(string(line))
	return code
}

// runSelfcheck runs the untraced set twice on this build and prints one
// row per workload and metric: ok when the second run is no worse than
// the first by more than the metric's bound, unresolved otherwise (the
// code is the same, so a larger difference is spread, not regression).
func runSelfcheck(seed int64, seconds float64, scaleName, outDir string) int {
	var sets [2]map[string]*result
	for s := range sets {
		sets[s] = map[string]*result{}
		for _, w := range workloads {
			res, err := runChild(w.name, seed, seconds, 0, scaleName, outDir)
			if err != nil {
				fatalf("%v", err)
			}
			sets[s][w.name] = res
		}
	}
	code := 0
	fmt.Printf("%-12s %-10s %12s %12s %8s %6s  %s\n", "workload", "metric", "first", "second", "change", "bound", "verdict")
	for _, w := range workloads {
		a, b := sets[0][w.name], sets[1][w.name]
		for _, def := range endToEnd {
			x, y := a.Metrics[def.Name].Value, b.Metrics[def.Name].Value
			change := y/x - 1
			verdict := "ok"
			if change > def.Bound {
				verdict, code = "unresolved", 1
			}
			fmt.Printf("%-12s %-10s %12.4f %12.4f %+7.1f%% %5.0f%%  %s\n", w.name, def.Name, x, y, 100*change, 100*def.Bound, verdict)
		}
		verdict := "ok"
		if a.Failed != b.Failed || !a.Correct || !b.Correct || a.digest != b.digest {
			verdict, code = "unresolved", 1
		}
		fmt.Printf("%-12s %-10s %12d %12d %8s %6s  %s (canonical_sha256 %.12s, %.12s)\n",
			w.name, "failed", a.Failed, b.Failed, "", "0", verdict, a.digest, b.digest)
	}
	return code
}
