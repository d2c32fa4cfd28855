package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"

	"acr/internal/tmplreg"
)

// runTemplates is `acr templates (list|describe)`: the CLI face of the
// change-template catalogue.
func runTemplates(args []string) error {
	if len(args) == 0 {
		return fmt.Errorf("usage: acr templates <list|describe> [flags]")
	}
	sub, rest := args[0], args[1:]
	switch sub {
	case "list":
		return runTemplatesList(rest)
	case "describe":
		return runTemplatesDescribe(os.Stdout, rest)
	}
	return fmt.Errorf("unknown templates subcommand %q (want list or describe)", sub)
}

func runTemplatesList(args []string) error {
	fs := flag.NewFlagSet("templates list", flag.ExitOnError)
	asJSON := fs.Bool("json", false, "emit the catalogue as JSON")
	if err := fs.Parse(args); err != nil {
		return err
	}
	return templatesList(os.Stdout, *asJSON)
}

// templatesList renders the catalogue. tmplreg.List is name-sorted, so
// both renderings are deterministic — the -json form is pinned by a golden
// test.
func templatesList(w io.Writer, asJSON bool) error {
	entries := tmplreg.List()
	if asJSON {
		return writeJSON(w, struct {
			RegistryDigest string          `json:"registryDigest"`
			Templates      []tmplreg.Entry `json:"templates"`
		}{tmplreg.Digest(), entries})
	}
	fmt.Fprintf(w, "%d template(s), library digest %.12s\n", len(entries), tmplreg.Digest())
	for _, e := range entries {
		fmt.Fprintf(w, "%-30s %-45s %s\n", e.Name, e.Class, e.Description)
	}
	return nil
}

func runTemplatesDescribe(w io.Writer, args []string) error {
	fs := flag.NewFlagSet("templates describe", flag.ExitOnError)
	asJSON := fs.Bool("json", false, "emit the entry as JSON")
	if err := fs.Parse(args); err != nil {
		return err
	}
	if fs.NArg() != 1 {
		return fmt.Errorf("usage: acr templates describe [-json] <name>")
	}
	e, err := tmplreg.Get(fs.Arg(0))
	if err != nil {
		return err
	}
	if *asJSON {
		return writeJSON(w, e)
	}
	fmt.Fprintf(w, "name:        %s\nclass:       %s\ndigest:      %s\ndescription: %s\nuse case:    %s\n",
		e.Name, e.Class, e.Digest, e.Description, e.UseCase)
	return nil
}

func writeJSON(w io.Writer, v any) error {
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	return enc.Encode(v)
}
