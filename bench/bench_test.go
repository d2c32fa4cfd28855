package main

import (
	"encoding/json"
	"os"
	"path/filepath"
	"reflect"
	"regexp"
	"testing"

	"acr/internal/core"
	"acr/internal/incidents"
)

var (
	nameRE = regexp.MustCompile(`^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$`)
	unitRE = regexp.MustCompile(`^[A-Za-z0-9_/%.-]{1,16}$`)
)

// checkMetrics asserts that a run emitted exactly the named metrics, each
// with its declared unit, and that the driver's result line round-trips.
func checkMetrics(t *testing.T, res *result, defs []metricDef) {
	t.Helper()
	if len(res.Metrics) != len(defs) {
		t.Errorf("emitted %d metrics, want %d", len(res.Metrics), len(defs))
	}
	seen := map[string]bool{}
	for _, def := range defs {
		if seen[def.Name] {
			t.Errorf("metric %s is declared twice", def.Name)
		}
		seen[def.Name] = true
		if !nameRE.MatchString(def.Name) {
			t.Errorf("metric name %q is outside the contract's alphabet", def.Name)
		}
		if !unitRE.MatchString(def.Unit) {
			t.Errorf("unit %q of %s is outside the contract's alphabet", def.Unit, def.Name)
		}
		v, ok := res.Metrics[def.Name]
		if !ok {
			t.Errorf("metric %s was not emitted", def.Name)
		} else if v.Unit != def.Unit {
			t.Errorf("metric %s has unit %q, want %q", def.Name, v.Unit, def.Unit)
		}
	}

	line, err := json.Marshal(res)
	if err != nil {
		t.Fatal(err)
	}
	var keys map[string]json.RawMessage
	if err := json.Unmarshal(line, &keys); err != nil {
		t.Fatal(err)
	}
	if len(keys) != 4 || keys["correct"] == nil || keys["attempted"] == nil || keys["failed"] == nil || keys["metrics"] == nil {
		t.Errorf("result line has keys %v, want exactly correct, attempted, failed, metrics", keys)
	}
	var back result
	if err := json.Unmarshal(line, &back); err != nil {
		t.Fatal(err)
	}
	if back.Correct != res.Correct || back.Attempted != res.Attempted || back.Failed != res.Failed {
		t.Errorf("result line does not round-trip: %s", line)
	}
	for name, v := range res.Metrics {
		if b := back.Metrics[name]; b.Value != v.Value || b.Unit != v.Unit {
			t.Errorf("metric %s does not round-trip: %v became %v", name, v, b)
		}
	}
}

// TestSmoke runs every workload untraced and traced at smoke scale.
func TestSmoke(t *testing.T) {
	for i := range workloads {
		w := &workloads[i]
		t.Run(w.name, func(t *testing.T) {
			res, err := runUntraced(w, 1, 0.05, scales["smoke"], t.TempDir())
			if err != nil {
				t.Fatal(err)
			}
			if !res.Correct || res.Failed != 0 || res.Attempted < 2 || res.ops > 4 {
				t.Errorf("untraced: correct=%v attempted=%d failed=%d ops=%d %v", res.Correct, res.Attempted, res.Failed, res.ops, res.failures)
			}
			checkMetrics(t, res, endToEnd)
			for _, def := range endToEnd {
				if res.Metrics[def.Name].Value <= 0 {
					t.Errorf("end-to-end metric %s is %v, want a positive reading", def.Name, res.Metrics[def.Name].Value)
				}
			}

			trace := filepath.Join(t.TempDir(), "trace.json")
			res, err = runTraced(w, 1, 0.05, scales["smoke"], t.TempDir(), trace)
			if err != nil {
				t.Fatal(err)
			}
			if !res.Correct || res.Attempted < 1 {
				t.Errorf("traced: correct=%v attempted=%d %v", res.Correct, res.Attempted, res.failures)
			}
			checkMetrics(t, res, perLayer)
			var doc struct{ Spans []span }
			data, err := os.ReadFile(trace)
			if err != nil {
				t.Fatal(err)
			}
			if err := json.Unmarshal(data, &doc); err != nil || len(doc.Spans) == 0 {
				t.Errorf("trace file holds %d spans (%v)", len(doc.Spans), err)
			}
		})
	}
}

// TestCorruptedRepairCounts hands the correctness check a feasible result
// whose configurations were swapped back to the faulty ones.
func TestCorruptedRepairCounts(t *testing.T) {
	w := &workload{name: "corpus-tampered", setup: func(seed int64, sc scale, _ string) (instance, error) {
		incs, err := incidents.GenerateCorpus(incidents.CorpusOptions{Size: sc.corpusSize, Seed: seed})
		return &repairInstance{incs: incs, tamper: func(op int, res *core.Result) {
			if op == 0 {
				res.FinalConfigs = incs[0].Scenario.Configs
			}
		}}, err
	}}
	res, err := runUntraced(w, 1, 0.05, scales["smoke"], t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	if res.Correct || res.Failed != res.passes {
		t.Errorf("correct=%v failed=%d over %d passes, want the corrupted op failed in every pass", res.Correct, res.Failed, res.passes)
	}
}

// TestContract keeps BENCHMARK.json and the program in step.
func TestContract(t *testing.T) {
	data, err := os.ReadFile(filepath.Join("..", "BENCHMARK.json"))
	if err != nil {
		t.Fatal(err)
	}
	type metric struct {
		Name, Unit, Better string
		Bound              *float64
	}
	var c struct {
		Command    []string
		Paths      []string
		RunSeconds int `json:"run_seconds"`
		Workloads  []struct{ Name, Why string }
		EndToEnd   []metric `json:"end_to_end"`
		PerLayer   []metric `json:"per_layer"`
	}
	if err := json.Unmarshal(data, &c); err != nil {
		t.Fatal(err)
	}
	var names []string
	for _, w := range c.Workloads {
		names = append(names, w.Name)
		if len(w.Why) == 0 || len(w.Why) > 200 {
			t.Errorf("workload %s: why has %d characters", w.Name, len(w.Why))
		}
	}
	var want []string
	for _, w := range workloads {
		want = append(want, w.name)
	}
	if !reflect.DeepEqual(names, want) {
		t.Errorf("BENCHMARK.json workloads %v, program has %v", names, want)
	}
	compare := func(kind string, got []metric, defs []metricDef, bounded bool) {
		if len(got) != len(defs) {
			t.Errorf("%s: BENCHMARK.json lists %d metrics, program has %d", kind, len(got), len(defs))
			return
		}
		for i, def := range defs {
			m := got[i]
			if m.Name != def.Name || m.Unit != def.Unit {
				t.Errorf("%s[%d]: BENCHMARK.json has %s (%s), program has %s (%s)", kind, i, m.Name, m.Unit, def.Name, def.Unit)
			}
			if m.Better != "lower" && m.Better != "higher" {
				t.Errorf("%s: better is %q", m.Name, m.Better)
			}
			if bounded != (m.Bound != nil) || (bounded && *m.Bound != def.Bound) {
				t.Errorf("%s: bound %v, program has %v", m.Name, m.Bound, def.Bound)
			}
		}
	}
	compare("end_to_end", c.EndToEnd, endToEnd, true)
	compare("per_layer", c.PerLayer, perLayer, false)
	if c.RunSeconds < 1 || c.RunSeconds > 60 || len(c.Paths) != 1 || c.Paths[0] != "bench" {
		t.Errorf("run_seconds %d, paths %v", c.RunSeconds, c.Paths)
	}
}
