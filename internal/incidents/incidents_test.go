package incidents

import (
	"math"
	"math/rand"
	"strings"
	"testing"

	"acr/internal/core"
)

func TestTable1RatiosSumToOne(t *testing.T) {
	sum := 0.0
	for _, ci := range Table1 {
		sum += ci.Ratio
	}
	if math.Abs(sum-1.0) > 0.005 {
		t.Errorf("Table 1 ratios sum to %.3f, want ~1.0", sum)
	}
}

func TestApportionExact(t *testing.T) {
	counts := apportion(120)
	total := 0
	for i, c := range counts {
		total += c
		exact := Table1[i].Ratio * 120
		if math.Abs(float64(c)-exact) > 1.0 {
			t.Errorf("class %s: count %d vs exact %.1f", Table1[i].Name, c, exact)
		}
	}
	if total != 120 {
		t.Fatalf("apportioned %d, want 120", total)
	}
	// The most common class is the paper's most common.
	if counts[0] != 25 { // 20.8% of 120 = 24.96
		t.Errorf("missing-redistribution count = %d, want 25", counts[0])
	}
}

func TestManualTimeCalibration(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	n := 200000
	over30, over300 := 0, 0
	maxV := 0.0
	for i := 0; i < n; i++ {
		v := ManualResolutionMinutes(rng)
		if v > 30 {
			over30++
		}
		if v > 300 {
			over300++
		}
		if v > maxV {
			maxV = v
		}
	}
	p30 := float64(over30) / float64(n)
	if p30 < 0.13 || p30 > 0.21 {
		t.Errorf("P(>30min) = %.3f, want ≈ 0.166 (paper)", p30)
	}
	p300 := float64(over300) / float64(n)
	if p300 < 0.003 || p300 > 0.03 {
		t.Errorf("P(>5h) = %.4f, want small but nonzero", p300)
	}
	if maxV < 300 {
		t.Errorf("max = %.0f min, want > 300 somewhere in the tail", maxV)
	}
}

func TestInjectEachClassVisibleAndGroundTruthValid(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	for _, ci := range Table1 {
		ci := ci
		t.Run(string(ci.Name), func(t *testing.T) {
			inc, err := Inject(ci.Class, CorpusOptions{}, rng)
			if err != nil {
				t.Fatalf("inject: %v", err)
			}
			if !Visible(inc) {
				t.Fatalf("injection caused no failing test")
			}
			if len(inc.Scenario.FaultyLines) == 0 {
				t.Fatal("no ground truth recorded")
			}
			for _, ref := range inc.Scenario.FaultyLines {
				cfg := inc.Scenario.Configs[ref.Device]
				if cfg == nil || ref.Line < 1 || ref.Line > cfg.NumLines() {
					t.Errorf("ground truth %v out of range", ref)
				}
			}
			if inc.LinesChanged == 0 {
				t.Error("LinesChanged = 0")
			}
			// Table 1's S rows are single-statement injections. In this
			// grammar a PBR rule is one statement spanning up to three
			// lines (rule + match + apply), so allow that much.
			if ci.Lines == "S" && inc.LinesChanged > 3 {
				t.Errorf("single-statement class changed %d lines", inc.LinesChanged)
			}
		})
	}
}

func TestGenerateCorpusDistribution(t *testing.T) {
	incs, err := GenerateCorpus(CorpusOptions{Size: 48, Seed: 5})
	if err != nil {
		t.Fatal(err)
	}
	if len(incs) != 48 {
		t.Fatalf("corpus size = %d", len(incs))
	}
	counts := map[ErrorClass]int{}
	for _, inc := range incs {
		counts[inc.Class]++
		if inc.ID == "" || inc.ManualMinutes <= 0 {
			t.Errorf("incident %q metadata incomplete", inc.ID)
		}
	}
	for i, ci := range Table1 {
		want := apportion(48)[i]
		if counts[ci.Class] != want {
			t.Errorf("class %s: %d incidents, want %d", ci.Name, counts[ci.Class], want)
		}
	}
}

func TestCorpusDeterministicBySeed(t *testing.T) {
	a, err := GenerateCorpus(CorpusOptions{Size: 12, Seed: 9})
	if err != nil {
		t.Fatal(err)
	}
	b, err := GenerateCorpus(CorpusOptions{Size: 12, Seed: 9})
	if err != nil {
		t.Fatal(err)
	}
	for i := range a {
		if a[i].Class != b[i].Class || a[i].ManualMinutes != b[i].ManualMinutes ||
			a[i].Scenario.Notes != b[i].Scenario.Notes {
			t.Fatalf("incident %d differs across same-seed runs", i)
		}
	}
}

func TestRunRepairsSampledIncidents(t *testing.T) {
	// One incident per class, repaired end to end.
	rng := rand.New(rand.NewSource(11))
	var results []*RunResult
	for _, ci := range Table1 {
		inc, err := Inject(ci.Class, CorpusOptions{}, rng)
		if err != nil {
			t.Fatalf("%s: %v", ci.Name, err)
		}
		inc.ID = "t-" + ci.Category
		r := Run(inc, core.Options{Strategy: core.BruteForce})
		results = append(results, r)
		if r.BaseFailing == 0 {
			t.Errorf("%s: invisible incident", ci.Name)
			continue
		}
		if !r.Feasible {
			t.Errorf("%s: repair infeasible", ci.Name)
		}
		if r.LocalizationRank == 0 {
			t.Errorf("%s: ground truth not ranked at all", ci.Name)
		}
	}
	st := Aggregate(results)
	if st.Visible != st.Total {
		t.Errorf("visible %d/%d", st.Visible, st.Total)
	}
	if st.Repaired != st.Visible {
		t.Errorf("repaired %d/%d", st.Repaired, st.Visible)
	}
	if st.MeanIterations <= 0 || st.MeanValidated <= 0 {
		t.Errorf("aggregate means empty: %+v", st)
	}
	t.Logf("corpus sample: %+v", st)
}

func TestDoubleFaultCorpus(t *testing.T) {
	incs, err := GenerateCorpus(CorpusOptions{Size: 24, Seed: 4, DoubleFaultShare: 0.5})
	if err != nil {
		t.Fatal(err)
	}
	doubles := 0
	for _, inc := range incs {
		if !inc.DoubleFault {
			continue
		}
		doubles++
		if inc.SecondClass == inc.Class {
			t.Errorf("%s: second class equals first", inc.ID)
		}
		// Ground truth must span two devices.
		devs := map[string]bool{}
		for _, l := range inc.Scenario.FaultyLines {
			devs[l.Device] = true
			cfg := inc.Scenario.Configs[l.Device]
			if cfg == nil || l.Line < 1 || l.Line > cfg.NumLines() {
				t.Errorf("%s: ground truth %v out of range", inc.ID, l)
			}
		}
		if len(devs) < 2 {
			t.Errorf("%s: double fault on a single device: %v", inc.ID, inc.Scenario.FaultyLines)
		}
	}
	if doubles == 0 {
		t.Fatal("no double-fault incidents generated at share 0.5")
	}
	t.Logf("%d/%d double-fault incidents", doubles, len(incs))
}

func TestDoubleFaultRepairable(t *testing.T) {
	incs, err := GenerateCorpus(CorpusOptions{Size: 16, Seed: 8, DoubleFaultShare: 1.0})
	if err != nil {
		t.Fatal(err)
	}
	tried := 0
	for _, inc := range incs {
		if !inc.DoubleFault || tried >= 3 {
			continue
		}
		tried++
		r := Run(inc, core.Options{Strategy: core.BruteForce})
		if r.BaseFailing == 0 {
			t.Errorf("%s: double fault invisible", inc.ID)
			continue
		}
		if !r.Feasible {
			t.Errorf("%s (%v+%v): repair infeasible", inc.ID, inc.Class, inc.SecondClass)
		}
	}
	if tried == 0 {
		t.Fatal("no double incidents to try")
	}
}

// TestStack: a stack of n faults carries, on each faulted device, the
// configuration of the incident that faulted it, and the first incident's
// configuration everywhere else; its ground truth is every stacked fault's.
func TestStack(t *testing.T) {
	incs, err := GenerateCorpus(CorpusOptions{Size: 24, Seed: 3})
	if err != nil {
		t.Fatal(err)
	}
	st, err := Stack(incs, 4)
	if err != nil {
		t.Fatal(err)
	}
	parts := strings.Split(st.ID, "+")
	if len(parts) != 4 || !st.DoubleFault {
		t.Fatalf("stack %q (double fault %v), want 4 incidents", st.ID, st.DoubleFault)
	}
	from := map[string]*Incident{}
	for _, inc := range incs {
		from[inc.ID] = inc
	}
	owner := map[string]string{}
	truth := 0
	for _, id := range parts {
		inc := from[id]
		truth += len(inc.Scenario.FaultyLines)
		for _, l := range inc.Scenario.FaultyLines {
			if prev, ok := owner[l.Device]; ok && prev != id {
				t.Errorf("%s and %s both fault %s", prev, id, l.Device)
			}
			owner[l.Device] = id
		}
	}
	for d, c := range st.Scenario.Configs {
		want := from[parts[0]].Scenario.Configs[d]
		if id, ok := owner[d]; ok {
			want = from[id].Scenario.Configs[d]
		}
		if c != want {
			t.Errorf("%s: the stack's configuration is not %s's", d, owner[d])
		}
	}
	if len(st.Scenario.FaultyLines) != truth {
		t.Errorf("%d ground-truth lines, the stacked incidents have %d", len(st.Scenario.FaultyLines), truth)
	}
	if _, err := Stack(incs, len(incs)+1); err == nil {
		t.Error("stacked more faults than the corpus holds")
	}
}

// TestSearchQualityBounds holds the engine's rank-order search to what it
// repairs, and at what cost, on three corpora at seed 1: every incident is
// repaired, with no more candidates validated in total than the bound.
func TestSearchQualityBounds(t *testing.T) {
	if testing.Short() {
		t.Skip("repairs 360 incidents; skipped in -short")
	}
	for _, c := range []struct {
		name  string
		opts  CorpusOptions
		bound int
	}{
		{"default", CorpusOptions{Seed: 1}, 191},
		{"double-fault", CorpusOptions{Seed: 1, DoubleFaultShare: 1}, 2010},
		{"WAN 30/16/10, k=12", CorpusOptions{Seed: 1, WANRouters: 30, WANPoPs: 16, WANDCNs: 10, FatTreeK: 12}, 1401},
	} {
		incs, err := GenerateCorpus(c.opts)
		if err != nil {
			t.Fatal(err)
		}
		repaired, validated := 0, 0
		for _, inc := range incs {
			r := Run(inc, core.Options{Seed: 1})
			if r.Feasible {
				repaired++
			}
			validated += r.CandidatesValidated
		}
		t.Logf("%s: %d/%d repaired, %d candidates validated", c.name, repaired, len(incs), validated)
		if repaired != len(incs) || validated > c.bound {
			t.Errorf("%s: %d/%d repaired with %d candidates, want all with at most %d", c.name, repaired, len(incs), validated, c.bound)
		}
	}
}
