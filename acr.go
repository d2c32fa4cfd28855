// Package acr is the public API of this reproduction of "Automatic
// Configuration Repair" (HotNets '24): localize–fix–validate repair of
// network configurations.
//
// The typical flow:
//
//	c := acr.Figure2Incident()            // or load/generate your own Case
//	report := acr.Verify(c)               // which intents fail?
//	scores := acr.Localize(c)             // suspicious configuration lines
//	result := acr.Repair(c, acr.RepairOptions{})
//	fmt.Println(result.Summary())         // the feasible update
//
// A Case bundles a topology, one configuration per device, and the
// operator's intent specification. Configurations use the vendor-style
// language of package netcfg (see the README for the grammar); intents
// cover reachability, isolation, waypointing, loop-freedom, and
// blackhole-freedom.
package acr

import (
	"context"
	"fmt"
	"math/rand"
	"sort"
	"strings"

	"acr/internal/analysis"
	"acr/internal/baselines"
	"acr/internal/bgp"
	"acr/internal/core"
	"acr/internal/coverage"
	"acr/internal/incidents"
	"acr/internal/journal"
	"acr/internal/netcfg"
	"acr/internal/rolesim"
	"acr/internal/sbfl"
	"acr/internal/scenario"
	"acr/internal/service"
	"acr/internal/topo"
	"acr/internal/verify"
)

// Re-exported types: the facade's vocabulary is defined by the internal
// packages; aliases keep a single source of truth.
type (
	// Config is a line-addressable device configuration.
	Config = netcfg.Config
	// LineRef identifies one configuration line on one device.
	LineRef = netcfg.LineRef
	// EditSet is a set of line edits against one device.
	EditSet = netcfg.EditSet
	// Topology is the structural network model.
	Topology = topo.Network
	// Intent is one operator property.
	Intent = verify.Intent
	// Report is a verification report.
	Report = verify.Report
	// Verdict is one intent's verification result.
	Verdict = verify.Verdict
	// IncrementalVerifier is the DNA-style incremental verifier.
	IncrementalVerifier = verify.Incremental
	// Score is one line's suspiciousness.
	Score = sbfl.Score
	// RepairOptions tunes the repair engine.
	RepairOptions = core.Options
	// RepairResult is a repair run's outcome.
	RepairResult = core.Result
	// RepairError is one classified failure absorbed or surfaced by a run.
	RepairError = core.RepairError
	// ErrorKind classifies a RepairError.
	ErrorKind = core.ErrorKind
	// Template is one change-operator family.
	Template = core.Template
	// SimOptions tunes control-plane simulation.
	SimOptions = bgp.Options
	// Outcome is a control-plane simulation result.
	Outcome = bgp.Outcome
	// Diagnostic is one static-analysis finding.
	Diagnostic = analysis.Diagnostic
	// Severity grades a Diagnostic.
	Severity = analysis.Severity
	// LintResult is a static-analysis run's outcome.
	LintResult = analysis.Result
	// StaticAnalyzer is one pluggable static check.
	StaticAnalyzer = analysis.Analyzer
)

// Static-analysis helpers, re-exported.
var (
	// StaticAnalyzers lists the full analyzer registry.
	StaticAnalyzers = analysis.Analyzers
	// ParseSeverity parses "info", "warning", or "error".
	ParseSeverity = analysis.ParseSeverity
)

// Lint statically analyzes the case's configurations with every registered
// analyzer — no simulation, no intents — and returns the diagnostics. This
// is the `acr lint` entry point; the repair engine runs the same analyzers
// internally as a localization prior.
func Lint(c *Case) *LintResult {
	return analysis.Analyze(c.Topo, c.Configs, nil)
}

// Intent constructors, re-exported.
var (
	// ReachIntent asserts packets from src reach dst.
	ReachIntent = verify.ReachIntent
	// IsolationIntent asserts packets from src never reach dst.
	IsolationIntent = verify.IsolationIntent
	// WaypointIntent asserts flows traverse a named router.
	WaypointIntent = verify.WaypointIntent
	// LoopFreeIntent asserts no forwarding loop toward a prefix.
	LoopFreeIntent = verify.LoopFreeIntent
	// BlackholeFreeIntent asserts no blackhole toward a prefix.
	BlackholeFreeIntent = verify.BlackholeFreeIntent
	// ParseConfig parses raw configuration text for a device.
	ParseConfig = netcfg.NewConfig
	// DiffConfigs renders a unified-style diff between two versions.
	DiffConfigs = netcfg.Diff
	// DefaultTemplates is the Table 1 change-template library in
	// generation order.
	DefaultTemplates = core.BuiltinTemplates
)

// Case is a complete repair problem: a network and its specification.
type Case struct {
	Name    string
	Topo    *Topology
	Configs map[string]*Config
	Intents []Intent
	// GroundTruth carries known-faulty lines for generated incidents
	// (empty for user-supplied cases).
	GroundTruth []LineRef
	// Notes documents the case.
	Notes string
}

func fromScenario(s *scenario.Scenario) *Case {
	return &Case{
		Name:        s.Name,
		Topo:        s.Topo,
		Configs:     s.Configs,
		Intents:     s.Intents,
		GroundTruth: s.FaultyLines,
		Notes:       s.Notes,
	}
}

func (c *Case) problem() core.Problem {
	return core.Problem{Topo: c.Topo, Configs: c.Configs, Intents: c.Intents}
}

// Figure2Incident returns the paper's worked example (§2.2): the
// four-router backbone whose AS-path override policies on A and C cause a
// route flap for 10.0.0.0/16.
func Figure2Incident() *Case { return fromScenario(scenario.Figure2()) }

// Figure2Repaired returns the same network with the operators' fix.
func Figure2Repaired() *Case { return fromScenario(scenario.Figure2Correct()) }

// GenOptions parameterizes the scenario generators.
type GenOptions = scenario.GenOptions

// FatTreeDCN generates a correct k-ary fat-tree data-center case.
func FatTreeDCN(k int, opts GenOptions) *Case { return fromScenario(scenario.DCN(k, opts)) }

// WANBackbone generates a correct wide-area case with DCN-isolation
// policies.
func WANBackbone(routers, pops, dcns int, opts GenOptions) *Case {
	return fromScenario(scenario.WAN(routers, pops, dcns, opts))
}

// Verify checks every intent of the case against simulated behavior.
func Verify(c *Case) *Report {
	iv := verify.NewIncremental(c.Topo, c.Configs, c.Intents, bgp.Options{})
	return iv.BaseReport()
}

// VerifyContext is Verify with cooperative cancellation: simulation checks
// the context between prefixes and between activation passes. On
// cancellation it returns the context's error and no report.
func VerifyContext(ctx context.Context, c *Case) (*Report, error) {
	iv := verify.NewIncremental(c.Topo, c.Configs, c.Intents, bgp.Options{Ctx: ctx})
	if err := ctx.Err(); err != nil {
		return nil, err
	}
	return iv.BaseReport(), nil
}

// Simulate runs the BGP control plane and returns the per-prefix outcome
// (including flapping detection). A non-nil error reports configuration
// lines that failed to parse; the outcome is still returned and covers the
// statements that parsed cleanly (a broken line is itself a repair
// candidate).
func Simulate(c *Case) (*Outcome, error) {
	return SimulateContext(context.Background(), c)
}

// SimulateContext is Simulate with cooperative cancellation. On
// cancellation the outcome is abandoned and the context's error returned.
func SimulateContext(ctx context.Context, c *Case) (*Outcome, error) {
	files := map[string]*netcfg.File{}
	var parseErrs []error
	for d, cfg := range c.Configs {
		f, err := netcfg.Parse(cfg)
		if err != nil {
			parseErrs = append(parseErrs, fmt.Errorf("device %s: %w", d, err))
		}
		files[d] = f
	}
	n := bgp.Compile(c.Topo, files)
	out := bgp.Simulate(n, bgp.Options{Ctx: ctx})
	if err := ctx.Err(); err != nil {
		return nil, err
	}
	return out, joinErrs(parseErrs)
}

// joinErrs renders a deterministic multi-error: per-device messages are
// sorted so the config map's iteration order does not leak into output.
func joinErrs(errs []error) error {
	if len(errs) == 0 {
		return nil
	}
	msgs := make([]string, len(errs))
	for i, e := range errs {
		msgs[i] = e.Error()
	}
	sort.Strings(msgs)
	return fmt.Errorf("parse errors:\n  %s", strings.Join(msgs, "\n  "))
}

// NewIncrementalVerifier builds a DNA-style incremental verifier over the
// case; use Check to validate candidate edits cheaply and Commit to
// advance the base.
func NewIncrementalVerifier(c *Case) *IncrementalVerifier {
	return verify.NewIncremental(c.Topo, c.Configs, c.Intents, bgp.Options{})
}

// Localize runs spectrum-based fault localization (Tarantula) and returns
// every covered line ranked by suspiciousness.
func Localize(c *Case) []Score {
	return LocalizeWith(c, sbfl.Tarantula)
}

// Formula is a suspiciousness formula.
type Formula = sbfl.Formula

// Suspiciousness formulas, re-exported for the metric ablation.
var (
	Tarantula = sbfl.Tarantula
	Ochiai    = sbfl.Ochiai
	Jaccard   = sbfl.Jaccard
	DStar     = sbfl.DStar
)

// LocalizeWith runs SBFL under a specific formula.
func LocalizeWith(c *Case, f Formula) []Score {
	p := c.problem()
	iv := verify.NewIncremental(p.Topo, p.Configs, p.Intents, bgp.Options{})
	ctx := core.NewContext(p, iv, f, rand.New(rand.NewSource(1)))
	return ctx.Ranks
}

// CoverageMatrix exposes the raw spectrum (tests × lines) for analysis.
type CoverageMatrix = coverage.Matrix

// Coverage builds the spectrum SBFL consumes.
func Coverage(c *Case) *CoverageMatrix {
	p := c.problem()
	iv := verify.NewIncremental(p.Topo, p.Configs, p.Intents, bgp.Options{})
	return coverage.Build(iv.BaseNet(), iv.BaseProvenance(), iv.BaseReport())
}

// Crash-safe session journaling, re-exported (see internal/journal for
// the on-disk format).
type (
	// JournalWriter appends a repair session's write-ahead log; set it on
	// RepairOptions.Journal to make a run crash-safe.
	JournalWriter = journal.Writer
	// JournalSession is a replayed session — possibly one a crash cut
	// short, recovered up to its last intact record.
	JournalSession = journal.Session
	// JournalHeader identifies the case and search a journal belongs to.
	JournalHeader = journal.Header
)

// ErrNoJournalSession reports a directory with no replayable session.
var ErrNoJournalSession = journal.ErrNoSession

// SessionHeader builds the journal header identifying a repair of c under
// opts, carrying the case and search digests resume uses to refuse a
// mismatched continuation.
func SessionHeader(c *Case, opts RepairOptions) JournalHeader {
	return core.SessionHeader(c.Name, c.problem(), opts)
}

// CheckResume reports why sess may not resume a repair of c under opts,
// or nil when it may: the engine's one resume gate (core.CheckResume).
func CheckResume(sess *JournalSession, c *Case, opts RepairOptions) error {
	return core.CheckResume(sess, c.problem(), opts)
}

// CreateJournal starts a new crash-safe session journal in dir for a
// repair of c under opts. Pass the writer on RepairOptions.Journal and
// Close it after the run; if the process dies mid-run, ReplayJournal +
// ResumeJournal continue the session deterministically.
func CreateJournal(dir string, c *Case, opts RepairOptions) (*JournalWriter, error) {
	return journal.Create(dir, SessionHeader(c, opts))
}

// ReplayJournal recovers the session journaled in dir. It tolerates the
// torn tail a crash can leave — replay stops at the first record that
// fails its checksum and resumes from the last durable checkpoint.
func ReplayJournal(dir string) (*JournalSession, error) {
	return journal.Replay(dir)
}

// ResumeJournal reopens a replayed session's log for appending,
// truncating any torn tail. Pass the writer and the session on
// RepairOptions.Journal / RepairOptions.Resume to continue the run.
func ResumeJournal(dir string, sess *JournalSession) (*JournalWriter, error) {
	return journal.Resume(dir, sess)
}

// Repair runs the localize–fix–validate engine.
func Repair(c *Case, opts RepairOptions) *RepairResult {
	return core.Repair(c.problem(), opts)
}

// RepairContext is Repair with cooperative cancellation. The context is
// the run's only wall-clock bound: wrap it with context.WithTimeout or
// context.WithDeadline to budget the run. The result is always usable:
// when the run ends on "deadline" or "canceled" it carries the best-effort
// repair found so far (BestEffortConfigs / BestEffortFitness / Improved).
func RepairContext(ctx context.Context, c *Case, opts RepairOptions) *RepairResult {
	return core.RepairContext(ctx, c.problem(), opts)
}

// Baseline results, re-exported.
type (
	// MetaProvResult is the provenance baseline's outcome.
	MetaProvResult = baselines.MetaProvResult
	// AEDResult is the synthesis baseline's outcome.
	AEDResult = baselines.AEDResult
	// AEDOptions tunes the synthesis baseline.
	AEDOptions = baselines.AEDOptions
)

// MetaProvRepair runs the provenance-based baseline (§2.3).
func MetaProvRepair(c *Case) *MetaProvResult { return baselines.MetaProv(c.problem()) }

// MetaProvRepairContext is MetaProvRepair with cooperative cancellation.
func MetaProvRepairContext(ctx context.Context, c *Case) *MetaProvResult {
	return baselines.MetaProvContext(ctx, c.problem())
}

// AEDRepair runs the synthesis baseline (§2.3).
func AEDRepair(c *Case, opts AEDOptions) *AEDResult { return baselines.AED(c.problem(), opts) }

// AEDRepairContext is AEDRepair with cooperative cancellation.
func AEDRepairContext(ctx context.Context, c *Case, opts AEDOptions) *AEDResult {
	return baselines.AEDContext(ctx, c.problem(), opts)
}

// Incident corpus, re-exported.
type (
	// Incident is one injected misconfiguration.
	Incident = incidents.Incident
	// IncidentRunResult is one incident repair's metrics.
	IncidentRunResult = incidents.RunResult
	// CorpusOptions parameterizes corpus generation.
	CorpusOptions = incidents.CorpusOptions
	// ErrorClass is a Table 1 misconfiguration class.
	ErrorClass = incidents.ErrorClass
)

// Table1 is the paper's Table 1.
var Table1 = incidents.Table1

// GenerateCorpus builds a synthetic incident corpus at Table 1's ratios.
func GenerateCorpus(opts CorpusOptions) ([]*Incident, error) {
	return incidents.GenerateCorpus(opts)
}

// RunIncident repairs one incident and collects metrics.
func RunIncident(inc *Incident, opts RepairOptions) *IncidentRunResult {
	return incidents.Run(inc, opts)
}

// IncidentCase converts an incident into a Case.
func IncidentCase(inc *Incident) *Case { return fromScenario(inc.Scenario) }

// --- §6 future directions, implemented -------------------------------------

// DiffGenOptions tunes differential test generation.
type DiffGenOptions = verify.DiffGenOptions

// DifferentialIntents derives a regression test suite from a known-good
// configuration (§6's open question on test generation): flows the
// baseline delivers become reachability intents; optionally, flows it
// does not deliver become isolation intents.
func DifferentialIntents(c *Case, opts DiffGenOptions) []Intent {
	return verify.DifferentialIntents(c.Topo, c.Configs, opts)
}

// MergeIntents appends intents not already present in base.
var MergeIntents = verify.MergeIntents

// UniversalTemplates is the §6 "universal change operators" library:
// purely syntactic operators (delete-line, copy-from-role-peer) with no
// Table 1 history. See the ablation bench for its cost.
var UniversalTemplates = core.UniversalTemplates

// RoleSimilarityReport quantifies the plastic surgery hypothesis.
type RoleSimilarityReport = rolesim.Report

// AnalyzeRoles measures intra- vs inter-role configuration similarity —
// the §6 hypothesis that makes template repair plausible.
func AnalyzeRoles(c *Case) *RoleSimilarityReport {
	return rolesim.Analyze(c.Topo, c.Configs)
}

// MissingShape is a role-consensus configuration line a device lacks.
type MissingShape = rolesim.MissingShape

// MissingRoleShapes lists role-consensus lines absent from a device.
func MissingRoleShapes(c *Case, device string, quorum float64) []MissingShape {
	return rolesim.MissingShapes(c.Topo, c.Configs, device, quorum)
}

// The repair service daemon (`acr serve`), re-exported so embedders can
// run the daemon in-process (see internal/service for the HTTP API).
type (
	// ServeConfig sizes and wires a repair daemon: state directory,
	// worker-pool size, queue capacity.
	ServeConfig = service.Config
	// ServeServer is the daemon itself: job store + queue + worker pool.
	// Call Start, mount Handler on an http.Server, Shutdown to drain.
	ServeServer = service.Server
	// ServeJob is one repair job's wire (and on-disk) record.
	ServeJob = service.Job
	// ServeJobRequest is a job submission (POST /v1/repairs body).
	ServeJobRequest = service.JobRequest
	// ServeResult is the machine-readable repair result shared by the
	// service API and `acr repair -o json`.
	ServeResult = service.ResultJSON
)

// NewServer opens (or re-opens, resuming in-flight jobs) a repair daemon
// on its state directory.
func NewServer(cfg ServeConfig) (*ServeServer, error) { return service.New(cfg) }

// ResultExitCode classifies a repair result the way `acr repair` exits:
// 0 feasible, 2 improved, 3 no progress, 4 deadline/canceled, 5 feasible
// after resuming a crashed session.
func ResultExitCode(res *RepairResult) int { return service.ExitCode(res) }
