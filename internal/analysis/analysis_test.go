package analysis_test

import (
	"strings"
	"testing"

	"acr/internal/analysis"
	"acr/internal/netcfg"
	"acr/internal/scenario"
)

func parse(t *testing.T, device, text string) *netcfg.File {
	t.Helper()
	f, err := netcfg.Parse(netcfg.NewConfig(device, text))
	if err != nil {
		t.Fatalf("Parse: %v", err)
	}
	return f
}

// Migrated from the former netcfg.File.Validate tests: dangling references
// of all three kinds are reported, with the offending name in the message.
func TestDanglingReferences(t *testing.T) {
	text := strings.Join([]string{
		"bgp 100",
		" peer 1.1.1.1 as-number 200",
		" peer 1.1.1.1 route-policy NoSuchPolicy import",
		"route-policy P permit node 10",
		" match ip-prefix NoSuchList",
		"interface eth0",
		" pbr policy NoSuchPBR",
	}, "\n")
	probs := analysis.Validate(parse(t, "X", text))
	for _, w := range []string{"NoSuchPolicy", "NoSuchList", "NoSuchPBR"} {
		found := false
		for _, p := range probs {
			if strings.Contains(p, w) {
				found = true
				break
			}
		}
		if !found {
			t.Errorf("Validate missing problem mentioning %q; got %v", w, probs)
		}
	}
}

func TestCleanConfigNoFindings(t *testing.T) {
	text := strings.Join([]string{
		"bgp 65001",
		" router-id 1.0.0.1",
		" peer 10.0.0.2 as-number 65002",
		" peer 10.0.0.2 route-policy Import_All import",
		" network 10.1.0.0/16",
		"route-policy Import_All permit node 10",
		"ip prefix-list pl index 10 permit 10.1.0.0/16",
		"ip route static 10.1.0.0/16 null0",
	}, "\n")
	if probs := analysis.Validate(parse(t, "X", text)); len(probs) != 0 {
		t.Errorf("clean config flagged: %v", probs)
	}
}

func TestShadowedPrefixListEntry(t *testing.T) {
	text := strings.Join([]string{
		"ip prefix-list pl index 10 permit 0.0.0.0/0 le 32",
		"ip prefix-list pl index 20 permit 20.0.0.0/16",
		"route-policy P deny node 10",
		" match ip-prefix pl",
	}, "\n")
	res := analysis.AnalyzeFiles(nil, nil, map[string]*netcfg.File{"X": parse(t, "X", text)},
		[]*analysis.Analyzer{analysis.ShadowedPrefixList})
	if len(res.Diagnostics) != 1 {
		t.Fatalf("want 1 diagnostic, got %v", res.Diagnostics)
	}
	d := res.Diagnostics[0]
	if d.Line != (netcfg.LineRef{Device: "X", Line: 1}) {
		t.Errorf("anchored at %s, want X:1", d.Line)
	}
	if d.Class != analysis.ClassMissingPrefixListItem {
		t.Errorf("class %q", d.Class)
	}
	if len(d.Related) != 1 || d.Related[0].Line != 2 {
		t.Errorf("related = %v, want the shadowed entry X:2", d.Related)
	}
}

func TestDormantPolicyOnlyWhenAttached(t *testing.T) {
	// Unattached deny-all (deliberate dormant state) must stay quiet...
	dormant := strings.Join([]string{
		"bgp 100",
		" peer 1.1.1.1 as-number 200",
		"route-policy Maintenance deny node 10",
	}, "\n")
	if probs := analysis.Validate(parse(t, "X", dormant)); len(probs) != 0 {
		t.Errorf("unattached deny-all flagged: %v", probs)
	}
	// ...while the same policy attached to a session is the "fail to
	// dis-enable route map" incident.
	attached := strings.Join([]string{
		"bgp 100",
		" peer 1.1.1.1 as-number 200",
		" peer 1.1.1.1 route-policy Maintenance import",
		"route-policy Maintenance deny node 10",
	}, "\n")
	res := analysis.AnalyzeFiles(nil, nil, map[string]*netcfg.File{"X": parse(t, "X", attached)},
		[]*analysis.Analyzer{analysis.DormantPolicy})
	if len(res.Diagnostics) != 1 {
		t.Fatalf("want 1 diagnostic, got %v", res.Diagnostics)
	}
	if d := res.Diagnostics[0]; d.Line.Line != 3 || d.Class != analysis.ClassLeftoverRouteMap {
		t.Errorf("got %s class %q, want line 3 class %q", d.Line, d.Class, analysis.ClassLeftoverRouteMap)
	}
}

func TestMissingRedistribution(t *testing.T) {
	text := strings.Join([]string{
		"bgp 100",
		" peer 1.1.1.1 as-number 200",
		" network 10.1.0.0/16",
		"ip route static 10.1.0.0/16 null0", // covered by the network stmt
		"ip route static 10.9.0.0/16 null0", // orphaned
	}, "\n")
	res := analysis.AnalyzeFiles(nil, nil, map[string]*netcfg.File{"X": parse(t, "X", text)},
		[]*analysis.Analyzer{analysis.MissingRedistribution})
	if len(res.Diagnostics) != 1 || res.Diagnostics[0].Line.Line != 5 {
		t.Fatalf("want exactly the orphaned static at X:5, got %v", res.Diagnostics)
	}
	// Adding `redistribute static` silences it.
	fixed := text + "\n"
	fixed = strings.Replace(fixed, " network 10.1.0.0/16", " network 10.1.0.0/16\n redistribute static", 1)
	res = analysis.AnalyzeFiles(nil, nil, map[string]*netcfg.File{"X": parse(t, "X", fixed)},
		[]*analysis.Analyzer{analysis.MissingRedistribution})
	if len(res.Diagnostics) != 0 {
		t.Errorf("redistribute static still flagged: %v", res.Diagnostics)
	}
}

func TestPBRShadowAndNoPermit(t *testing.T) {
	text := strings.Join([]string{
		"pbr policy Scrub",
		" rule 5 permit",
		"  match destination 10.2.0.0/16",
		"  apply next-hop 172.16.0.1",
		" rule 10 permit",
		"  match destination 10.2.0.0/16",
		"  match dst-port 9999",
		"  apply next-hop 172.16.0.1",
		"interface eth0",
		" pbr policy Scrub",
	}, "\n")
	res := analysis.AnalyzeFiles(nil, nil, map[string]*netcfg.File{"X": parse(t, "X", text)},
		[]*analysis.Analyzer{analysis.ShadowedPBRRule})
	if len(res.Diagnostics) != 1 || res.Diagnostics[0].Line.Line != 2 {
		t.Fatalf("want the broad rule 5 flagged at X:2, got %v", res.Diagnostics)
	}
	if res.Diagnostics[0].Class != analysis.ClassExtraPBRRedirect {
		t.Errorf("class %q", res.Diagnostics[0].Class)
	}

	empty := strings.Join([]string{
		"pbr policy Scrub",
		" rule 10 deny",
		"  match destination 10.2.0.0/16",
		"interface eth0",
		" pbr policy Scrub",
	}, "\n")
	res = analysis.AnalyzeFiles(nil, nil, map[string]*netcfg.File{"X": parse(t, "X", empty)},
		[]*analysis.Analyzer{analysis.UnfilteredPBRPolicy})
	if len(res.Diagnostics) != 1 || res.Diagnostics[0].Line.Line != 1 {
		t.Fatalf("want the permit-less bound policy flagged at X:1, got %v", res.Diagnostics)
	}
}

func TestASOverrideMismatch(t *testing.T) {
	text := strings.Join([]string{
		"bgp 65001",
		" peer 1.1.1.1 as-number 65002",
		"route-policy P permit node 10",
		" apply as-path overwrite 64999",
	}, "\n")
	res := analysis.AnalyzeFiles(nil, nil, map[string]*netcfg.File{"X": parse(t, "X", text)},
		[]*analysis.Analyzer{analysis.ASOverrideMismatch})
	if len(res.Diagnostics) != 1 || res.Diagnostics[0].Line.Line != 4 {
		t.Fatalf("want the foreign-AS overwrite at X:4, got %v", res.Diagnostics)
	}
	if res.Diagnostics[0].Severity != analysis.Warning {
		t.Errorf("severity %v, want warning", res.Diagnostics[0].Severity)
	}
}

// The Figure 2 incident: the shadowed default_all entries on A and C — and
// nothing else — must be flagged, with the paper's error class.
func TestFigure2Analysis(t *testing.T) {
	s := scenario.Figure2()
	res := analysis.Analyze(s.Topo, s.Configs, nil)
	if len(res.ParseErrors) != 0 {
		t.Fatalf("parse errors: %v", res.ParseErrors)
	}
	want := map[netcfg.LineRef]bool{}
	for _, l := range s.FaultyLines {
		want[l] = true
	}
	got := map[netcfg.LineRef]bool{}
	for _, d := range res.Diagnostics {
		got[d.Line] = true
		if !want[d.Line] {
			t.Errorf("false positive: %s", d.String())
		}
		if d.Class != analysis.ClassMissingPrefixListItem {
			t.Errorf("%s: class %q, want %q", d.Line, d.Class, analysis.ClassMissingPrefixListItem)
		}
	}
	for l := range want {
		if !got[l] {
			t.Errorf("ground-truth line %s not flagged", l)
		}
	}
}

// Zero false positives on every clean network the repo ships.
func TestCleanNetworksNoFindings(t *testing.T) {
	cases := []*scenario.Scenario{
		scenario.Figure2Correct(),
		scenario.WAN(6, 4, 3, scenario.GenOptions{StaticOriginEvery: 2}),
		scenario.WAN(6, 4, 3, scenario.GenOptions{}),
		scenario.DCN(4, scenario.GenOptions{WithScrubber: true, StaticOriginEvery: 2}),
		scenario.DCN(4, scenario.GenOptions{}),
	}
	for _, s := range cases {
		res := analysis.Analyze(s.Topo, s.Configs, nil)
		for _, d := range res.Diagnostics {
			t.Errorf("%s: false positive: %s", s.Name, d.String())
		}
	}
}

func TestAnalyzeSurvivesParseErrors(t *testing.T) {
	configs := map[string]*netcfg.Config{
		"broken": netcfg.NewConfig("broken", "bgp 100\nbogus line here\nroute-policy P deny node 10\n peer 1.1.1.1 route-policy Nope import\n"),
	}
	res := analysis.Analyze(nil, configs, nil)
	if len(res.ParseErrors) != 1 {
		t.Fatalf("want 1 parse error, got %v", res.ParseErrors)
	}
	// Analysis still ran over the statements that parsed.
	for _, d := range res.Diagnostics {
		if d.Line.Device != "broken" {
			t.Errorf("diagnostic on unknown device: %v", d)
		}
	}
}

func TestSeverityRoundTrip(t *testing.T) {
	for _, s := range []analysis.Severity{analysis.Info, analysis.Warning, analysis.Error} {
		got, err := analysis.ParseSeverity(s.String())
		if err != nil || got != s {
			t.Errorf("ParseSeverity(%q) = %v, %v", s.String(), got, err)
		}
	}
	if _, err := analysis.ParseSeverity("fatal"); err == nil {
		t.Error("ParseSeverity(fatal) should fail")
	}
}

func TestResultFilterAndFormat(t *testing.T) {
	s := scenario.Figure2()
	res := analysis.Analyze(s.Topo, s.Configs, nil)
	if n := len(res.Filter(analysis.Error)); n != len(res.Diagnostics) {
		t.Errorf("all Figure 2 findings are errors; Filter(Error) kept %d of %d", n, len(res.Diagnostics))
	}
	out := res.Format(analysis.Info)
	if !strings.Contains(out, "shadowed-prefix-list") || !strings.Contains(out, "finding(s)") {
		t.Errorf("Format output unexpected:\n%s", out)
	}
}

func TestRegistryNamesUniqueAndClassed(t *testing.T) {
	seen := map[string]bool{}
	for _, a := range analysis.Analyzers() {
		if a.Name == "" || a.Run == nil {
			t.Errorf("analyzer %+v incomplete", a)
		}
		if seen[a.Name] {
			t.Errorf("duplicate analyzer name %q", a.Name)
		}
		seen[a.Name] = true
	}
	if len(seen) < 8 {
		t.Errorf("only %d analyzers registered", len(seen))
	}
}
