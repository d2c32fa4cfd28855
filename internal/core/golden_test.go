package core_test

import (
	"bytes"
	"context"
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"net/netip"
	"os"
	"path/filepath"
	"slices"
	"strings"
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

// TestJournalGolden pins the write-ahead log a journaled repair writes for
// a fixed set of seed-1 corpus incidents at default options:
// single-iteration repairs, two- and three-iteration searches and one that
// validates 166 candidates. Every byte a journal record carries —
// candidate descriptions, digests, checkpointed populations — is pinned,
// so a change to how the engine builds that text shows here. The pins are
// one SHA-256 per record, in testdata/journal/<incident>.records as
// "<seq> <type> <sha256 of the framed record>"; a failure names the first
// record that differs and prints its decoded fields. After a deliberate
// change, -update-journal-golden rewrites the files.
func TestJournalGolden(t *testing.T) {
	ids := []string{"inc-000-Peer", "inc-001-Peer", "inc-002-Route", "inc-003-Policy", "inc-005-PBR", "inc-007-Policy", "inc-060-Policy"}
	corpus, err := incidents.GenerateCorpus(incidents.CorpusOptions{Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	seen := 0
	for _, inc := range corpus {
		if !slices.Contains(ids, inc.ID) {
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
		got, payloads := walRecords(t, wal)
		path := filepath.Join("testdata", "journal", inc.ID+".records")
		if *updateJournalGolden {
			if err := os.WriteFile(path, []byte(strings.Join(got, "\n")+"\n"), 0o644); err != nil {
				t.Fatal(err)
			}
			continue
		}
		pinned, err := os.ReadFile(path)
		if err != nil {
			t.Fatal(err)
		}
		want := strings.Split(strings.TrimSuffix(string(pinned), "\n"), "\n")
		for i := range max(len(got), len(want)) {
			switch {
			case i >= len(got):
				t.Errorf("%s: WAL ends after %d records, pinned %d; the first missing is %s", inc.ID, len(got), len(want), want[i])
			case i >= len(want) || got[i] != want[i]:
				pin := "none"
				if i < len(want) {
					pin = want[i]
				}
				t.Errorf("%s: record %s differs from its pin %s (%d records, %d pinned); it decodes to\n%s",
					inc.ID, got[i], pin, len(got), len(want), decodedFields(payloads[i]))
			default:
				continue
			}
			break
		}
	}
	if seen != len(ids) {
		t.Fatalf("found %d of the %d pinned incidents in the corpus", seen, len(ids))
	}
}

// lines returns x as strings when every element is one.
func lines(x []any) ([]string, bool) {
	out := make([]string, len(x))
	for i, e := range x {
		s, ok := e.(string)
		if !ok {
			return nil, false
		}
		out[i] = s
	}
	return out, true
}

var updateJournalGolden = flag.Bool("update-journal-golden", false, "rewrite TestJournalGolden's per-record pins")

// walRecords splits a WAL into its frames and returns, for each, the pin
// line "<seq> <type> <sha256 of the frame>" and its payload. Bytes after
// the last whole frame fail the test.
func walRecords(t *testing.T, wal []byte) (lines []string, payloads [][]byte) {
	t.Helper()
	for off := 0; off < len(wal); {
		if len(wal)-off < 8 {
			t.Fatalf("WAL: %d stray bytes at %d", len(wal)-off, off)
		}
		end := off + 8 + int(binary.BigEndian.Uint32(wal[off:]))
		if end > len(wal) {
			t.Fatalf("WAL: frame at %d runs past the end", off)
		}
		payload, err := journal.Unframe(wal[off:end])
		if err != nil {
			t.Fatalf("WAL: frame at %d: %v", off, err)
		}
		var rec journal.Record
		if err := json.Unmarshal(payload, &rec); err != nil {
			t.Fatalf("WAL: record at %d: %v", off, err)
		}
		h := sha256.Sum256(wal[off:end])
		lines = append(lines, fmt.Sprintf("%d %s %s", rec.Seq, rec.Type, hex.EncodeToString(h[:])))
		payloads = append(payloads, payload)
		off = end
	}
	return lines, payloads
}

// decodedFields renders a record's JSON payload one leaf per line, as
// "path = value" with the path's keys joined by dots, in key order. A list
// of more than four strings — a configuration's text — is one line: its
// length and a short hash.
func decodedFields(payload []byte) string {
	dec := json.NewDecoder(bytes.NewReader(payload))
	dec.UseNumber()
	var v any
	if err := dec.Decode(&v); err != nil {
		return "undecodable: " + err.Error()
	}
	var sb strings.Builder
	var walk func(path string, v any)
	walk = func(path string, v any) {
		switch x := v.(type) {
		case map[string]any:
			keys := make([]string, 0, len(x))
			for k := range x { //acrvet:ordered — sorted below
				keys = append(keys, k)
			}
			slices.Sort(keys)
			for _, k := range keys {
				walk(strings.TrimPrefix(path+"."+k, "."), x[k])
			}
		case []any:
			if text, ok := lines(x); ok && len(text) > 4 {
				h := sha256.Sum256([]byte(strings.Join(text, "\n")))
				fmt.Fprintf(&sb, "\t%s = %d lines, sha256 %s\n", path, len(text), hex.EncodeToString(h[:6]))
				return
			}
			for i, e := range x {
				walk(fmt.Sprintf("%s[%d]", path, i), e)
			}
		default:
			fmt.Fprintf(&sb, "\t%s = %v\n", path, x)
		}
	}
	walk("", v)
	return sb.String()
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
