package core_test

import (
	"context"
	"crypto/sha256"
	"encoding/hex"
	"io"
	"net/netip"
	"os"
	"testing"

	"acr/internal/analysis"
	"acr/internal/bgp"
	"acr/internal/core"
	"acr/internal/incidents"
	"acr/internal/journal"
	"acr/internal/netcfg"
	"acr/internal/scenario"
	"acr/internal/verify"
)

// TestJournalGolden pins the SHA-256 of the write-ahead log a journaled
// repair writes for a fixed set of seed-1 corpus incidents at default
// options: single-iteration repairs, two- and three-iteration searches and
// one that validates 166 candidates. Every byte a journal record carries —
// candidate descriptions, digests, checkpointed populations — is pinned,
// so a change to how the engine builds that text shows here.
func TestJournalGolden(t *testing.T) {
	want := map[string]string{
		"inc-000-Peer":   "eaf0766ff0e74709ec2cf6dee5b99919d64a6a97f9bd392f6985e36c9405fe55",
		"inc-001-Peer":   "a1a4d383039dcf73bb3a6e674d9a6665f7610d01449a4391340d7c3ac88718a1",
		"inc-002-Route":  "8a40f0fa67853824aecae2fd50b99fe5fddab73e96ceda166fc054e085109adb",
		"inc-003-Policy": "6a2911d33cc2f7b53d7b305324d6f3d09691a0ab5ae698d1f47e71acb77b6e75",
		"inc-005-PBR":    "b095256497b9bd48809dce7c68a057c2308f9eec89c904047040ded9a4438f9a",
		"inc-007-Policy": "13983c044bf0ee4cc030390f465fd3e6acb7e140a17d62a50673ecee3d177218",
		"inc-060-Policy": "8620ca1c342072669ab6d8307d31b9f5dc12815fb332a704659afe2dd24e47ed",
	}
	corpus, err := incidents.GenerateCorpus(incidents.CorpusOptions{Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	seen := 0
	for _, inc := range corpus {
		sum, ok := want[inc.ID]
		if !ok {
			continue
		}
		seen++
		p := problemOf(inc.Scenario)
		dir := t.TempDir()
		w, err := journal.Create(dir, core.SessionHeader(inc.ID, p, core.Options{}))
		if err != nil {
			t.Fatal(err)
		}
		core.Repair(p, core.Options{Journal: w})
		if err := w.Close(); err != nil {
			t.Fatal(err)
		}
		wal, err := os.ReadFile(journal.WALPath(dir))
		if err != nil {
			t.Fatal(err)
		}
		h := sha256.Sum256(wal)
		if got := hex.EncodeToString(h[:]); got != sum {
			t.Errorf("%s: WAL sha256 = %s, want %s", inc.ID, got, sum)
		}
	}
	if seen != len(want) {
		t.Fatalf("found %d of the %d pinned incidents in the corpus", seen, len(want))
	}
}

// TestReportGolden pins two hashes over brute-force searches of Figure 2,
// plain and with global intents (whose loops and flap fail them), and
// every search of the seed-1 corpus, plain and with the global intents of
// its first 40 incidents: the report text (verify.Report.Summary, failing reasons included) of
// every base version a candidate is validated on and of every validated
// candidate's check, and the static impact set (analysis.Impact.Digest)
// of every validated candidate. Canonical() carries neither: it records
// fitness, not reasons, and the soundness audit accepts any impact set
// that is wide enough.
func TestReportGolden(t *testing.T) {
	const (
		wantReports = "16548981494273d6ba8321eba3d86d656864fc6fb6b025a1c7c1480adbb6d0c5"
		wantImpacts = "251e27f77eebb0b4cb7451f2b89162029b32c25fbcc79b1467a4c4d6c20a70ab"
	)
	corpus, err := incidents.GenerateCorpus(incidents.CorpusOptions{Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	reports, impacts := sha256.New(), sha256.New()
	checks := 0
	analyzers := map[*bgp.Net]*analysis.ImpactAnalyzer{}
	bases := map[*verify.Report]bool{}
	audit := func(ctx context.Context, iv *verify.Incremental, edits []netcfg.EditSet) error {
		if base := iv.BaseReport(); !bases[base] {
			bases[base] = true
			io.WriteString(reports, "base\n"+base.Summary())
		}
		rep, _, err := iv.CheckCtx(ctx, edits)
		if err != nil {
			return err
		}
		io.WriteString(reports, "check\n"+rep.Summary())
		checks++

		n := iv.BaseNet()
		a := analyzers[n]
		if a == nil {
			origins := map[netip.Prefix][]string{}
			for _, name := range n.Order {
				for _, o := range n.Routers[name].Origins {
					origins[o.Prefix] = append(origins[o.Prefix], name)
				}
			}
			a = analysis.NewImpactAnalyzer(iv.BaseFiles(), n.AllPrefixes(), origins, bgp.DeviceGraphOf(n))
			analyzers[n] = a
		}
		configs := map[string]*netcfg.Config{}
		for _, es := range edits {
			c, ok := configs[es.Device]
			if !ok {
				c = iv.BaseConfigs()[es.Device]
			}
			if configs[es.Device], err = es.Apply(c); err != nil {
				return err
			}
		}
		files := map[string]*netcfg.File{}
		for d, f := range iv.BaseFiles() {
			files[d] = f
		}
		for d, c := range configs {
			files[d], _ = netcfg.Parse(c)
		}
		io.WriteString(impacts, a.Compare(files).Digest()+"\n")
		return nil
	}
	type search struct {
		name string
		s    *scenario.Scenario
		opts core.Options
	}
	brute := core.Options{Strategy: core.BruteForce}
	searches := []search{{"figure2", scenario.Figure2(), brute}, {"figure2/global", withGlobalIntents(scenario.Figure2()), brute}}
	for i, inc := range corpus {
		searches = append(searches, search{"corpus/" + inc.ID, inc.Scenario, core.Options{}})
		if i < 40 {
			searches = append(searches, search{"global/" + inc.ID, withGlobalIntents(inc.Scenario), core.Options{}})
		}
	}
	for _, s := range searches {
		io.WriteString(reports, s.name+"\n")
		io.WriteString(impacts, s.name+"\n")
		core.Repair(problemOf(s.s), core.WithAudit(s.opts, audit))
	}
	t.Logf("%d base reports, %d checks", len(bases), checks)
	if got := hex.EncodeToString(reports.Sum(nil)); got != wantReports {
		t.Errorf("report text sha256 = %s, want %s", got, wantReports)
	}
	if got := hex.EncodeToString(impacts.Sum(nil)); got != wantImpacts {
		t.Errorf("impact digest sha256 = %s, want %s", got, wantImpacts)
	}
}
