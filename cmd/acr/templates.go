package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"strconv"
	"strings"

	"acr/internal/tmplreg"
	"acr/internal/tmplreg/conformance"
)

// runTemplates is `acr templates (list|describe|conform)`: the CLI
// face of the change-template registry.
func runTemplates(args []string) error {
	if len(args) == 0 {
		return fmt.Errorf("usage: acr templates <list|describe|conform> [flags]")
	}
	sub, rest := args[0], args[1:]
	switch sub {
	case "list":
		return runTemplatesList(rest)
	case "describe":
		return runTemplatesDescribe(rest)
	case "conform":
		return runTemplatesConform(rest)
	}
	return fmt.Errorf("unknown templates subcommand %q (want list, describe, or conform)", sub)
}

func runTemplatesList(args []string) error {
	fs := flag.NewFlagSet("templates list", flag.ExitOnError)
	asJSON := fs.Bool("json", false, "emit the registry as JSON")
	if err := fs.Parse(args); err != nil {
		return err
	}
	return templatesList(os.Stdout, tmplreg.Default, *asJSON)
}

// templatesList renders the registry. Registry.List is name-sorted, so
// both renderings are deterministic — the -json form is pinned by a golden
// test.
func templatesList(w io.Writer, reg *tmplreg.Registry, asJSON bool) error {
	entries := reg.List()
	if asJSON {
		return writeJSON(w, struct {
			RegistryDigest string          `json:"registryDigest"`
			Templates      []tmplreg.Entry `json:"templates"`
		}{reg.Digest(), entries})
	}
	fmt.Fprintf(w, "%d template(s), registry digest %.12s\n", len(entries), reg.Digest())
	for _, e := range entries {
		fmt.Fprintf(w, "%-28s %-10s %-8s %-45s %s\n", e.Name, e.Version, e.Provenance, e.Class, e.Description)
	}
	return nil
}

func runTemplatesDescribe(args []string) error {
	fs := flag.NewFlagSet("templates describe", flag.ExitOnError)
	asJSON := fs.Bool("json", false, "emit the descriptor as JSON")
	if err := fs.Parse(args); err != nil {
		return err
	}
	if fs.NArg() != 1 {
		return fmt.Errorf("usage: acr templates describe [-json] <name>")
	}
	name := fs.Arg(0)
	e, ok := tmplreg.Default.Lookup(name)
	if !ok {
		return fmt.Errorf("unknown template %q (see acr templates list)", name)
	}
	if *asJSON {
		return writeJSON(os.Stdout, e)
	}
	fmt.Printf("name:        %s\nversion:     %s\nprovenance:  %s\nclass:       %s\ndigest:      %s\ndescription: %s\nuse case:    %s\n",
		e.Name, e.Version, e.Provenance, e.Class, e.Digest, e.Description, e.UseCase)
	return nil
}

func runTemplatesConform(args []string) error {
	fs := flag.NewFlagSet("templates conform", flag.ExitOnError)
	asJSON := fs.Bool("json", false, "emit the conformance report as JSON")
	names := fs.String("names", "", "comma-separated template names (default: all registered)")
	seeds := fs.String("seeds", "1,2", "comma-separated engine seeds per fault variant")
	maxIter := fs.Int("max-iter", 30, "iteration budget per single-template repair run")
	if err := fs.Parse(args); err != nil {
		return err
	}
	opts := conformance.Options{MaxIterations: *maxIter}
	for _, s := range strings.Split(*seeds, ",") {
		n, err := strconv.ParseInt(strings.TrimSpace(s), 10, 64)
		if err != nil {
			return fmt.Errorf("-seeds: %v", err)
		}
		opts.Seeds = append(opts.Seeds, n)
	}
	for _, n := range strings.Split(*names, ",") {
		if n = strings.TrimSpace(n); n != "" {
			opts.Names = append(opts.Names, n)
		}
	}
	rep, err := conformance.Run(tmplreg.Default, opts)
	if err != nil {
		return err
	}
	if *asJSON {
		if err := writeJSON(os.Stdout, rep); err != nil {
			return err
		}
	} else {
		printConformance(os.Stdout, rep)
	}
	if rejected := rep.Rejected(); len(rejected) > 0 {
		return &exitError{code: 1, err: fmt.Errorf("%d template(s) rejected: %s", len(rejected), strings.Join(rejected, ", "))}
	}
	return nil
}

func printConformance(w io.Writer, rep *conformance.Report) {
	fmt.Fprintf(w, "conformance over registry %.12s\n", rep.RegistryDigest)
	for _, tr := range rep.Results {
		verdict := "PASS"
		if !tr.Conformant {
			verdict = "FAIL"
		}
		fmt.Fprintf(w, "%-4s %-28s %-45s repaired %d/%d\n", verdict, tr.Name, tr.Class, tr.Repaired, tr.Attempts)
		for _, r := range tr.Reasons {
			fmt.Fprintf(w, "     - %s\n", r)
		}
	}
}

func writeJSON(w io.Writer, v any) error {
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	return enc.Encode(v)
}
