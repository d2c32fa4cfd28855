package main

import (
	"errors"
	"path/filepath"
	"testing"

	"acr"
	"acr/internal/caseio"
	"acr/internal/incidents"
)

// TestRepairOutWritesBestEffort: an infeasible run that improved still
// saves its best-effort repair with -out, not the unrepaired base, and
// runRepair hands its outcome code back as an exitError instead of exiting
// (so its deferred journal and store Close calls run).
func TestRepairOutWritesBestEffort(t *testing.T) {
	incs, err := incidents.GenerateCorpus(incidents.CorpusOptions{Size: 40, Seed: 1, DoubleFaultShare: 1})
	if err != nil {
		t.Fatal(err)
	}
	var inc *incidents.Incident
	for _, in := range incs {
		if in.ID == "inc-000-Policy" {
			inc = in
		}
	}
	if inc == nil {
		t.Fatal("corpus holds no inc-000-Policy")
	}
	dir := t.TempDir()
	in, out := filepath.Join(dir, "in"), filepath.Join(dir, "out")
	if err := caseio.Save(in, inc.Scenario); err != nil {
		t.Fatal(err)
	}

	err = runRepair([]string{"-dir", in, "-max-iterations", "1", "-out", out, "-o", "json"})
	var ee *exitError
	if !errors.As(err, &ee) || ee.code != exitImproved {
		t.Fatalf("runRepair = %v, want exitError with code %d (exitImproved)", err, exitImproved)
	}

	failing := func(dir string) int {
		t.Helper()
		c, err := loadCase("", dir)
		if err != nil {
			t.Fatal(err)
		}
		return acr.Verify(c).NumFailed()
	}
	base, repaired := failing(in), failing(out)
	if repaired >= base {
		t.Errorf("-out case fails %d intents, input fails %d: the best-effort repair was not written", repaired, base)
	}
}
