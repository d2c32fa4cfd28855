// Package acrvet is the repository's own static-analysis pack: a small
// vet-style checker for the determinism invariants the repair engine's
// byte-identity guarantees rest on. Generic linters cannot know that the
// merge loop is the only place allowed to observe wall-clock time, that
// every random draw must come from a content-derived rand.New source, or
// that iterating a map while producing output silently breaks run-to-run
// and crash→resume byte-identity — so this package encodes those rules and CI runs it next to the stock
// linters.
//
// The checker type-checks the module from source (no build cache, no
// external tooling): module-internal imports are resolved straight from
// the repository tree and standard-library imports through go/importer's
// source importer, which keeps the whole pack runnable with nothing but
// the Go toolchain's library.
package acrvet

import (
	"fmt"
	"go/ast"
	"go/build"
	"go/importer"
	"go/parser"
	"go/token"
	"go/types"
	"os"
	"path/filepath"
	"sort"
	"strings"
)

// Finding is one invariant violation.
type Finding struct {
	// Pos is the file:line of the offending node, with the file path
	// relative to the module root.
	Pos string `json:"pos"`
	// Check names the rule that fired.
	Check string `json:"check"`
	// Message explains the violation and how to fix or suppress it.
	Message string `json:"message"`
}

func (f Finding) String() string { return fmt.Sprintf("%s: %s [%s]", f.Pos, f.Message, f.Check) }

// pkg is one type-checked package.
type pkg struct {
	path  string // import path ("acr/internal/core")
	dir   string
	files []*ast.File
	info  *types.Info
	// ordered holds the lines carrying an //acrvet:ordered suppression
	// (the comment's own line, so a trailing comment suppresses its line
	// and a standalone comment suppresses the line below).
	ordered map[string]map[int]bool // file -> line set
}

// checker loads and type-checks the module under root.
type checker struct {
	root    string
	modPath string
	fset    *token.FileSet
	std     types.Importer
	cache   map[string]*types.Package
	loaded  map[string]*pkg
}

// Import implements types.Importer: module-internal paths are type-checked
// from source, everything else is delegated to the stdlib source importer.
func (c *checker) Import(path string) (*types.Package, error) {
	if p, ok := c.cache[path]; ok {
		return p, nil
	}
	if path == c.modPath || strings.HasPrefix(path, c.modPath+"/") {
		p, err := c.load(path)
		if err != nil {
			return nil, err
		}
		return p, nil
	}
	p, err := c.std.Import(path)
	if err != nil {
		return nil, err
	}
	c.cache[path] = p
	return p, nil
}

// load parses and type-checks one module-internal package. It is
// idempotent: a package already checked (listed earlier, or pulled in as a
// dependency) returns the cached *types.Package, never a second identity —
// re-checking would make types like verify.Intent unequal to themselves
// across the two copies and fail every downstream importer.
func (c *checker) load(path string) (*types.Package, error) {
	if p, ok := c.cache[path]; ok {
		return p, nil
	}
	dir := filepath.Join(c.root, strings.TrimPrefix(path, c.modPath))
	if path == c.modPath {
		dir = c.root
	}
	entries, err := os.ReadDir(dir)
	if err != nil {
		return nil, err
	}
	var files []*ast.File
	ordered := map[string]map[int]bool{}
	for _, e := range entries {
		name := e.Name()
		if e.IsDir() || !strings.HasSuffix(name, ".go") || strings.HasSuffix(name, "_test.go") {
			continue
		}
		// Respect build constraints (//go:build tags and _GOOS suffixes) so
		// mutually-exclusive platform files don't collide in one package.
		if ok, err := build.Default.MatchFile(dir, name); err != nil || !ok {
			continue
		}
		full := filepath.Join(dir, name)
		f, err := parser.ParseFile(c.fset, full, nil, parser.ParseComments|parser.SkipObjectResolution)
		if err != nil {
			return nil, err
		}
		files = append(files, f)
		for _, cg := range f.Comments {
			for _, cm := range cg.List {
				if strings.Contains(cm.Text, "acrvet:ordered") {
					pos := c.fset.Position(cm.Pos())
					m := ordered[pos.Filename]
					if m == nil {
						m = map[int]bool{}
						ordered[pos.Filename] = m
					}
					m[pos.Line] = true
				}
			}
		}
	}
	if len(files) == 0 {
		return nil, fmt.Errorf("acrvet: no Go files in %s", dir)
	}
	info := &types.Info{
		Types:      map[ast.Expr]types.TypeAndValue{},
		Uses:       map[*ast.Ident]types.Object{},
		Defs:       map[*ast.Ident]types.Object{},
		Selections: map[*ast.SelectorExpr]*types.Selection{},
	}
	conf := types.Config{Importer: c, Error: func(error) {}}
	tp, err := conf.Check(path, c.fset, files, info)
	if err != nil {
		return nil, fmt.Errorf("acrvet: type-check %s: %w", path, err)
	}
	c.cache[path] = tp
	c.loaded[path] = &pkg{path: path, dir: dir, files: files, info: info, ordered: ordered}
	return tp, nil
}

// modulePath reads the module path out of root's go.mod.
func modulePath(root string) (string, error) {
	data, err := os.ReadFile(filepath.Join(root, "go.mod"))
	if err != nil {
		return "", err
	}
	for _, line := range strings.Split(string(data), "\n") {
		if rest, ok := strings.CutPrefix(strings.TrimSpace(line), "module "); ok {
			return strings.TrimSpace(rest), nil
		}
	}
	return "", fmt.Errorf("acrvet: no module directive in %s/go.mod", root)
}

// Run type-checks the listed module-internal packages (import paths
// relative to the module root, e.g. "internal/core") and applies every
// check. Findings come back sorted by position.
func Run(root string, pkgs []string) ([]Finding, error) {
	mod, err := modulePath(root)
	if err != nil {
		return nil, err
	}
	c := &checker{
		root:    root,
		modPath: mod,
		fset:    token.NewFileSet(),
		std:     importer.ForCompiler(token.NewFileSet(), "source", nil),
		cache:   map[string]*types.Package{},
		loaded:  map[string]*pkg{},
	}
	var findings []Finding
	for _, rel := range pkgs {
		path := mod + "/" + rel
		if _, err := c.load(path); err != nil {
			return nil, err
		}
		p := c.loaded[path]
		for _, ch := range checks {
			findings = append(findings, ch(c, p)...)
		}
	}
	for i := range findings {
		if r, err := filepath.Rel(root, strings.SplitN(findings[i].Pos, ":", 2)[0]); err == nil {
			rest := strings.SplitN(findings[i].Pos, ":", 2)
			findings[i].Pos = r
			if len(rest) == 2 {
				findings[i].Pos += ":" + rest[1]
			}
		}
	}
	sort.Slice(findings, func(i, j int) bool {
		if findings[i].Pos != findings[j].Pos {
			return findings[i].Pos < findings[j].Pos
		}
		return findings[i].Check < findings[j].Check
	})
	return findings, nil
}

// DefaultPackages is the merge-path package set CI vets: the engine, the
// verifier, the BGP simulator (including the delta re-simulation and
// route-interning paths), the impact/lint analyzers, the journal, the
// persistent evaluation store, and the template catalogue with its
// conformance harness — everything whose output feeds Canonical(), the
// write-ahead journal, the store the engine reads evaluations from, the
// search digest journals resume under, or a template's admission.
var DefaultPackages = []string{
	"internal/core",
	"internal/verify",
	"internal/bgp",
	"internal/analysis",
	"internal/journal",
	"internal/evalstore",
	"internal/tmplreg",
	"internal/tmplreg/conformance",
}

func (c *checker) pos(n ast.Node) string {
	p := c.fset.Position(n.Pos())
	return fmt.Sprintf("%s:%d", p.Filename, p.Line)
}
