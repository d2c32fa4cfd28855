// Command acr runs the Automatic Configuration Repair pipeline on a case:
// verify intents, localize suspicious configuration lines, or repair.
//
// Usage:
//
//	acr verify   (-builtin <name> | -dir <casedir>)
//	acr simulate (-builtin <name> | -dir <casedir>)
//	acr lint     (-builtin <name> | -dir <casedir>) [-json] [-severity info]
//	acr localize (-builtin <name> | -dir <casedir>) [-formula tarantula] [-top 15]
//	acr repair   (-builtin <name> | -dir <casedir>) [-seed 0] [-out <dir>]
//	             [-journal <dir> [-resume]] [-o text|json]
//	             [-cache-dir <dir> [-cache-max-bytes <n>]]
//	acr serve    -state-dir <dir> [-addr 127.0.0.1:7365] [-workers 2] [-queue-cap 64]
//	             [-debug-addr 127.0.0.1:6060] [-cache-dir <dir>|none] [-cache-max-bytes <n>]
//	acr cache    (stats|verify|gc) -cache-dir <dir> [-cache-max-bytes <n>] [-json]
//	acr templates list [-json]
//	acr templates describe [-json] <name>
//
// templates lists and describes the change-template library from its
// catalogue (internal/tmplreg).
//
// lint exits 0 when clean, 1 when findings are at or above the -severity
// threshold, and 2 when a configuration failed to parse.
//
// repair -journal writes a crash-safe write-ahead journal; if the process
// dies mid-run, repair -journal <dir> -resume continues the session from
// its last checkpoint and, with the same -seed, reproduces the exact
// result of an uninterrupted run. A resumed run that reaches feasibility
// exits 5 (see exit.go for the full table).
//
// repair -cache-dir layers a persistent, corruption-tolerant evaluation
// store under the in-memory cache: repeated repairs of the same incident
// read fitness values from disk instead of re-simulating. The store is
// advisory — corrupt or unreadable entries degrade to cache misses, and
// the repair result is byte-identical with or without it. serve opens one
// automatically under -state-dir; -cache-dir none disables it. acr cache
// inspects, verifies, and compacts a store directory; cache verify exits 1
// while the store's log holds a damaged frame.
//
// Builtins: figure2 (the paper's worked incident), figure2-repaired,
// dcn4, wan. Case directories follow the format documented in
// internal/caseio.
package main

import (
	"context"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"os"

	"acr"
	"acr/internal/caseio"
	"acr/internal/core"
	"acr/internal/evalstore"
	"acr/internal/journal"
	"acr/internal/sbfl"
	"acr/internal/scenario"
	"acr/internal/service"
)

func main() {
	if len(os.Args) < 2 {
		usage()
		os.Exit(2)
	}
	cmd, args := os.Args[1], os.Args[2:]
	var err error
	switch cmd {
	case "verify":
		err = runVerify(args)
	case "simulate":
		err = runSimulate(args)
	case "lint":
		err = runLint(args)
	case "localize":
		err = runLocalize(args)
	case "repair":
		err = runRepair(args)
	case "serve":
		err = runServe(args)
	case "cache":
		err = runCache(args)
	case "templates":
		err = runTemplates(args)
	default:
		usage()
		os.Exit(2)
	}
	if err != nil {
		var ee *exitError
		if errors.As(err, &ee) {
			if ee.err != nil {
				fmt.Fprintln(os.Stderr, "acr:", err)
			}
			os.Exit(ee.code)
		}
		fmt.Fprintln(os.Stderr, "acr:", err)
		os.Exit(1)
	}
}

func usage() {
	fmt.Fprintln(os.Stderr, `usage: acr <verify|simulate|lint|localize|repair|serve|cache|templates> [flags]
  -builtin figure2|figure2-repaired|dcn4|wan   use a built-in case
  -dir <casedir>                               load a case directory
run "acr <cmd> -h" for command flags`)
}

func caseFlags(fs *flag.FlagSet) (builtin, dir *string) {
	builtin = fs.String("builtin", "", "built-in case: "+scenario.BuiltinNames)
	dir = fs.String("dir", "", "case directory (see internal/caseio)")
	return
}

func loadCase(builtin, dir string) (*acr.Case, error) {
	var s *scenario.Scenario
	var err error
	switch {
	case builtin != "" && dir != "":
		return nil, fmt.Errorf("-builtin and -dir are mutually exclusive")
	case builtin != "":
		s, err = scenario.Builtin(builtin)
	case dir != "":
		s, err = caseio.Load(dir)
	default:
		return nil, fmt.Errorf("one of -builtin or -dir is required")
	}
	if err != nil {
		return nil, err
	}
	return &acr.Case{Name: s.Name, Topo: s.Topo, Configs: s.Configs, Intents: s.Intents, GroundTruth: s.FaultyLines, Notes: s.Notes}, nil
}

func runVerify(args []string) error {
	fs := flag.NewFlagSet("verify", flag.ExitOnError)
	builtin, dir := caseFlags(fs)
	fs.Parse(args)
	c, err := loadCase(*builtin, *dir)
	if err != nil {
		return err
	}
	rep := acr.Verify(c)
	fmt.Printf("case %s: %d intents, %d failing\n", c.Name, len(rep.Verdicts), rep.NumFailed())
	fmt.Print(rep.Summary())
	if rep.NumFailed() > 0 {
		os.Exit(1)
	}
	return nil
}

func runSimulate(args []string) error {
	fs := flag.NewFlagSet("simulate", flag.ExitOnError)
	builtin, dir := caseFlags(fs)
	fs.Parse(args)
	c, err := loadCase(*builtin, *dir)
	if err != nil {
		return err
	}
	out, err := acr.Simulate(c)
	if err != nil {
		// Broken lines are repair candidates, not fatal here: report and
		// keep the outcome for the statements that parsed.
		fmt.Fprintln(os.Stderr, "acr: warning:", err)
	}
	fmt.Print(out.Describe())
	return nil
}

func runLint(args []string) error {
	fs := flag.NewFlagSet("lint", flag.ExitOnError)
	builtin, dir := caseFlags(fs)
	asJSON := fs.Bool("json", false, "emit the result as JSON")
	sevFlag := fs.String("severity", "info", "minimum severity to report: info, warning, error")
	fs.Parse(args)
	min, err := acr.ParseSeverity(*sevFlag)
	if err != nil {
		return err
	}
	c, err := loadCase(*builtin, *dir)
	if err != nil {
		// A case that cannot be loaded is indistinguishable from one that
		// cannot be parsed: exit 2, like a parse error.
		fmt.Fprintln(os.Stderr, "acr:", err)
		os.Exit(2)
	}
	res := acr.Lint(c)
	if *asJSON {
		enc := json.NewEncoder(os.Stdout)
		enc.SetIndent("", "  ")
		if err := enc.Encode(struct {
			Case string `json:"case"`
			*acr.LintResult
		}{c.Name, res}); err != nil {
			return err
		}
	} else {
		fmt.Printf("case %s: %d device(s)\n", c.Name, len(c.Configs))
		fmt.Print(res.Format(min))
	}
	switch {
	case len(res.ParseErrors) > 0:
		os.Exit(2)
	case len(res.Filter(min)) > 0:
		os.Exit(1)
	}
	return nil
}

func runLocalize(args []string) error {
	fs := flag.NewFlagSet("localize", flag.ExitOnError)
	builtin, dir := caseFlags(fs)
	formula := fs.String("formula", "tarantula", "suspiciousness formula: tarantula, ochiai, jaccard, dstar")
	top := fs.Int("top", 15, "lines to print")
	fs.Parse(args)
	c, err := loadCase(*builtin, *dir)
	if err != nil {
		return err
	}
	var f acr.Formula
	switch *formula {
	case "tarantula":
		f = acr.Tarantula
	case "ochiai":
		f = acr.Ochiai
	case "jaccard":
		f = acr.Jaccard
	case "dstar":
		f = acr.DStar
	default:
		return fmt.Errorf("unknown formula %q", *formula)
	}
	scores := acr.LocalizeWith(c, f)
	fmt.Printf("case %s: %s ranking, %d covered lines\n", c.Name, *formula, len(scores))
	fmt.Print(sbfl.Format(scores, *top))
	for i, s := range scores {
		if i >= *top {
			break
		}
		fmt.Printf("      %s\n", c.Configs[s.Line.Device].Line(s.Line.Line))
	}
	return nil
}

// repairJournalHook is installed on repair's journal writer. Only tests
// set it, to crash a journaled run at a chosen append.
var repairJournalHook journal.AppendHook

func runRepair(args []string) error {
	fs := flag.NewFlagSet("repair", flag.ExitOnError)
	builtin, dir := caseFlags(fs)
	strategy := fs.String("strategy", "evolutionary", "deprecated: evolutionary and bruteforce both run the one search, in suspiciousness order")
	seed := fs.Int64("seed", 0, "random seed")
	outDir := fs.String("out", "", "write repaired case to this directory")
	maxIter := fs.Int("max-iterations", 0, "iteration cap (default 500)")
	timeout := fs.Duration("timeout", 0, "wall-clock budget for the repair (0 = unlimited)")
	cacheDir := fs.String("cache-dir", "", "persistent evaluation store directory, shared across runs and processes (empty = in-memory only)")
	cacheMax := fs.Int64("cache-max-bytes", 0, "persistent store byte budget (0 = 256 MiB); a full store starts over empty")
	journalDir := fs.String("journal", "", "write a crash-safe session journal to this directory")
	resume := fs.Bool("resume", false, "resume the crashed session journaled in -journal")
	output := fs.String("o", "text", "output format: text (human report) or json (the service API's result schema)")
	fs.Parse(args)
	if *output != "text" && *output != "json" {
		return fmt.Errorf("unknown output format %q", *output)
	}
	c, err := loadCase(*builtin, *dir)
	if err != nil {
		return err
	}
	opts := acr.RepairOptions{Seed: *seed, MaxIterations: *maxIter}
	if opts.Strategy, err = core.ParseStrategy(*strategy); err != nil {
		return err
	}
	if *resume && *journalDir == "" {
		return fmt.Errorf("-resume requires -journal")
	}
	if *cacheDir != "" {
		// The store is advisory by contract: a directory that cannot be
		// opened costs simulations, not the repair.
		if es, err := evalstore.Open(*cacheDir, *cacheMax); err != nil {
			fmt.Fprintf(os.Stderr, "acr: warning: evaluation store %s unavailable (%v); continuing without it\n", *cacheDir, err)
		} else {
			defer es.Close()
			opts.Store = es
		}
	}
	if *journalDir != "" {
		var w *acr.JournalWriter
		if *resume {
			sess, err := acr.ReplayJournal(*journalDir)
			if err != nil {
				return fmt.Errorf("replay journal %s: %w", *journalDir, err)
			}
			if err := acr.CheckResume(sess, c, opts); err != nil {
				return fmt.Errorf("journal in %s (case %q, seed %d): %w; refusing to resume",
					*journalDir, sess.Header.Case, sess.Header.Seed, err)
			}
			if sess.Truncated {
				fmt.Fprintf(os.Stderr, "acr: journal tail torn (%s); resuming from last checkpoint\n", sess.TruncatedReason)
			}
			if w, err = acr.ResumeJournal(*journalDir, sess); err != nil {
				return err
			}
			opts.Resume = sess
		} else if w, err = acr.CreateJournal(*journalDir, c, opts); err != nil {
			return err
		}
		defer w.Close()
		w.Hook = repairJournalHook
		opts.Journal = w
	}
	ctx := context.Background()
	if *timeout > 0 {
		var cancel context.CancelFunc
		ctx, cancel = context.WithTimeout(ctx, *timeout)
		defer cancel()
	}
	res := acr.RepairContext(ctx, c, opts)
	if *output == "json" {
		// The same schema the service API returns, so scripts parse one
		// format no matter which front end ran the repair.
		data, err := json.MarshalIndent(service.NewResultJSON(res), "", "  ")
		if err != nil {
			return err
		}
		fmt.Println(string(data))
	} else {
		if res.Resumed {
			fmt.Printf("resumed journaled session from iteration %d\n", res.ResumedFrom)
		}
		fmt.Print(res.Report(c.Configs))
	}
	if *outDir != "" {
		// Write the best-effort configs, which are the repaired ones on a
		// feasible run: a partial repair that fixes some intents is still
		// worth inspecting.
		s := &scenario.Scenario{Name: c.Name + "-repaired", Topo: c.Topo, Configs: res.BestEffortConfigs, Intents: c.Intents}
		if err := caseio.Save(*outDir, s); err != nil {
			return err
		}
		// In json mode stdout is the machine-readable result; keep human
		// notes off it.
		note := os.Stdout
		if *output == "json" {
			note = os.Stderr
		}
		fmt.Fprintf(note, "repaired case written to %s\n", *outDir)
	}
	// Return the outcome rather than exit here, so the deferred journal and
	// store Close calls run.
	if code := repairExitCode(res); code != 0 {
		return &exitError{code: code}
	}
	return nil
}
