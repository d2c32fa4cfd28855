// Package analysis is a go/analysis-style static-analysis framework over
// parsed network configurations: pluggable Analyzers inspect per-device
// ASTs (and, when a topology is available, a network-wide view) and report
// Diagnostics anchored at configuration lines.
//
// Every one of Table 1's misconfiguration classes has a static signature —
// dangling route-policy references, shadowed prefix-list entries,
// asymmetric peer groups — so a pass over the text flags suspect lines
// before any simulation runs. The repair engine folds these diagnostics
// into localization as a prior (see internal/core and internal/sbfl), and
// `acr lint` exposes them directly.
package analysis

import (
	"fmt"
	"sort"
	"strings"

	"acr/internal/errclass"
	"acr/internal/netcfg"
	"acr/internal/topo"
)

// Severity grades a diagnostic: Error marks a definite misconfiguration,
// Warning a strong cross-device consensus violation, Info a hygiene note.
type Severity uint8

// Severities, in ascending order.
const (
	Info Severity = iota + 1
	Warning
	Error
)

// String renders the severity keyword.
func (s Severity) String() string {
	switch s {
	case Info:
		return "info"
	case Warning:
		return "warning"
	case Error:
		return "error"
	}
	return fmt.Sprintf("severity(%d)", uint8(s))
}

// MarshalJSON renders the severity as its keyword.
func (s Severity) MarshalJSON() ([]byte, error) {
	return []byte(`"` + s.String() + `"`), nil
}

// ParseSeverity parses a severity keyword.
func ParseSeverity(s string) (Severity, error) {
	switch strings.ToLower(s) {
	case "info":
		return Info, nil
	case "warning", "warn":
		return Warning, nil
	case "error":
		return Error, nil
	}
	return 0, fmt.Errorf("unknown severity %q (want info, warning, or error)", s)
}

// Diagnostic is one finding: a line, the analyzer that produced it, the
// Table 1 error class it indicates (when one applies), and related lines
// (e.g. the entry a shadowing entry hides).
type Diagnostic struct {
	Line     netcfg.LineRef   `json:"line"`
	Analyzer string           `json:"analyzer"`
	Class    errclass.Class   `json:"class,omitempty"`
	Severity Severity         `json:"severity"`
	Message  string           `json:"message"`
	Related  []netcfg.LineRef `json:"related,omitempty"`
}

// String renders the diagnostic in compiler style.
func (d *Diagnostic) String() string {
	return fmt.Sprintf("%s: %s: %s [%s]", d.Line, d.Severity, d.Message, d.Analyzer)
}

// Analyzer is one static check. Run inspects the Pass and reports
// diagnostics through it.
type Analyzer struct {
	// Name identifies the analyzer (kebab-case, unique).
	Name string
	// Doc is a one-line description.
	Doc string
	// Class is the Table 1 misconfiguration class this analyzer's
	// diagnostics indicate (empty for generic hygiene checks). The shared
	// errclass constants guarantee it matches Template.ErrorClass in
	// internal/core.
	Class errclass.Class
	// Run performs the analysis.
	Run func(*Pass)
}

// Pass carries one analysis run's inputs to an Analyzer: per-device parsed
// files plus the network-wide view. Cross-device analyzers must tolerate a
// nil Topo (single-device validation has none).
type Pass struct {
	// Analyzer is the analyzer being run.
	Analyzer *Analyzer
	// Topo is the network topology, nil for single-device analysis.
	Topo *topo.Network
	// Configs holds raw configurations by device (may be nil).
	Configs map[string]*netcfg.Config
	// Files holds the parsed ASTs by device. Files may be partial when the
	// source had parse errors; analyzers must tolerate missing blocks.
	Files map[string]*netcfg.File

	devices []string
	diags   *[]Diagnostic
}

// Devices returns the device names in sorted order, for deterministic
// iteration.
func (p *Pass) Devices() []string { return p.devices }

// File returns the parsed file of a device (nil when unknown).
func (p *Pass) File(device string) *netcfg.File { return p.Files[device] }

// NodeKind returns the topology kind of a device, or false when no
// topology is attached or the device is not a node.
func (p *Pass) NodeKind(device string) (topo.Kind, bool) {
	if p.Topo == nil {
		return 0, false
	}
	nd := p.Topo.Node(device)
	if nd == nil {
		return 0, false
	}
	return nd.Kind, true
}

// PeerNodeOf resolves a configured BGP peer address on a device to the
// adjacent node's name via the topology ("" when unresolvable).
func (p *Pass) PeerNodeOf(device string, peer *netcfg.Peer) string {
	if p.Topo == nil || peer == nil {
		return ""
	}
	for _, adj := range p.Topo.Adjacencies(device) {
		if adj.PeerAddr == peer.Addr {
			return adj.PeerNode
		}
	}
	return ""
}

// Report records a diagnostic, filling in the analyzer name, its default
// class, and a default Error severity.
func (p *Pass) Report(d Diagnostic) {
	d.Analyzer = p.Analyzer.Name
	if d.Class == "" {
		d.Class = p.Analyzer.Class
	}
	if d.Severity == 0 {
		d.Severity = Error
	}
	*p.diags = append(*p.diags, d)
}

// Reportf records an Error-severity diagnostic with a formatted message.
func (p *Pass) Reportf(line netcfg.LineRef, format string, args ...any) {
	p.Report(Diagnostic{Line: line, Message: fmt.Sprintf(format, args...)})
}

// Result is one analysis run's outcome.
type Result struct {
	// Diagnostics is sorted by line, then severity (descending), then
	// analyzer name.
	Diagnostics []Diagnostic `json:"diagnostics"`
	// ParseErrors maps devices whose configuration failed to parse to the
	// error; analysis still ran over the statements that parsed.
	ParseErrors map[string]string `json:"parseErrors,omitempty"`
	// PerAnalyzer counts diagnostics per analyzer name.
	PerAnalyzer map[string]int `json:"perAnalyzer,omitempty"`
}

// Filter returns the diagnostics at or above a minimum severity.
func (r *Result) Filter(min Severity) []Diagnostic {
	var out []Diagnostic
	for _, d := range r.Diagnostics {
		if d.Severity >= min {
			out = append(out, d)
		}
	}
	return out
}

// Format renders the diagnostics at or above min severity in compiler
// style, one per line, followed by a summary line.
func (r *Result) Format(min Severity) string {
	var sb strings.Builder
	shown := r.Filter(min)
	counts := map[Severity]int{}
	for i := range shown {
		d := &shown[i]
		counts[d.Severity]++
		sb.WriteString(d.String())
		sb.WriteByte('\n')
		for _, rel := range d.Related {
			fmt.Fprintf(&sb, "    related: %s\n", rel)
		}
	}
	if len(shown) == 0 {
		sb.WriteString("no findings\n")
	} else {
		fmt.Fprintf(&sb, "%d finding(s): %d error, %d warning, %d info\n",
			len(shown), counts[Error], counts[Warning], counts[Info])
	}
	for _, dev := range sortedKeys(r.ParseErrors) {
		fmt.Fprintf(&sb, "parse error: %s: %s\n", dev, r.ParseErrors[dev])
	}
	return sb.String()
}

// Analyzers returns the full registry, in execution order.
func Analyzers() []*Analyzer {
	return append([]*Analyzer(nil), registry...)
}

// registry lists every analyzer; single-device checks first, then the
// cross-device consensus checks (which no-op without a topology).
var registry = []*Analyzer{
	DanglingPolicyRef,
	DanglingPrefixList,
	DanglingPBRBinding,
	DuplicatePeer,
	ShadowedPrefixList,
	DormantPolicy,
	MissingRedistribution,
	ShadowedPBRRule,
	UnfilteredPBRPolicy,
	ASOverrideMismatch,
	SessionASNMismatch,
	MissingPeerGroup,
	ExtraGroupItem,
	PrefixListConsistency,
}

// Analyze parses every configuration and runs the given analyzers (nil for
// the full registry) over the network. Parse failures are reported in the
// result and do not stop analysis: partial ASTs are analyzed as far as
// they go.
func Analyze(t *topo.Network, configs map[string]*netcfg.Config, analyzers []*Analyzer) *Result {
	files := make(map[string]*netcfg.File, len(configs))
	parseErrs := map[string]string{}
	for d, c := range configs { //acrvet:ordered
		f, err := netcfg.Parse(c)
		if err != nil {
			parseErrs[d] = err.Error()
		}
		files[d] = f
	}
	res := AnalyzeFiles(t, configs, files, analyzers)
	if len(parseErrs) > 0 {
		res.ParseErrors = parseErrs
	}
	return res
}

// AnalyzeFiles runs the given analyzers (nil for the full registry) over
// already-parsed files. Configs may be nil; it is only used to bound line
// references in reports.
func AnalyzeFiles(t *topo.Network, configs map[string]*netcfg.Config, files map[string]*netcfg.File, analyzers []*Analyzer) *Result {
	if analyzers == nil {
		analyzers = registry
	}
	devices := make([]string, 0, len(files))
	for d := range files {
		devices = append(devices, d)
	}
	sort.Strings(devices)

	var diags []Diagnostic
	perAnalyzer := map[string]int{}
	for _, a := range analyzers {
		pass := &Pass{Analyzer: a, Topo: t, Configs: configs, Files: files, devices: devices, diags: &diags}
		before := len(diags)
		a.Run(pass)
		if n := len(diags) - before; n > 0 {
			perAnalyzer[a.Name] += n
		}
	}
	sort.SliceStable(diags, func(i, j int) bool {
		if diags[i].Line != diags[j].Line {
			return diags[i].Line.Less(diags[j].Line)
		}
		if diags[i].Severity != diags[j].Severity {
			return diags[i].Severity > diags[j].Severity
		}
		if diags[i].Analyzer != diags[j].Analyzer {
			return diags[i].Analyzer < diags[j].Analyzer
		}
		// Message is the final tiebreaker: without it, two same-line
		// diagnostics from one analyzer keep their emission order, and any
		// analyzer that walks a map emits in random order — `acr lint -json`
		// output must be byte-stable run to run.
		return diags[i].Message < diags[j].Message
	})
	res := &Result{Diagnostics: diags}
	if len(perAnalyzer) > 0 {
		res.PerAnalyzer = perAnalyzer
	}
	return res
}

// Validate runs the single-device subset of the registry over one parsed
// file and renders the findings as strings — the successor of the former
// netcfg.File.Validate, kept as a convenience for callers that check one
// configuration in isolation (no topology, so cross-device consensus
// checks do not apply).
func Validate(f *netcfg.File) []string {
	if f == nil {
		return nil
	}
	res := AnalyzeFiles(nil, nil, map[string]*netcfg.File{f.Device: f}, nil)
	var out []string
	for i := range res.Diagnostics {
		out = append(out, res.Diagnostics[i].String())
	}
	return out
}

func sortedKeys(m map[string]string) []string {
	out := make([]string, 0, len(m))
	for k := range m {
		out = append(out, k)
	}
	sort.Strings(out)
	return out
}
