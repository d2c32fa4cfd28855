package oracle

import (
	"go/parser"
	"go/token"
	"io/fs"
	"os"
	"path/filepath"
	"strconv"
	"strings"
	"testing"
)

// TestImportGuard keeps the oracle independent and out of the product: no
// non-test file in the module imports this package, and the reference
// simulator imports nothing of the module but netcfg and topo, and nothing
// outside the standard library.
func TestImportGuard(t *testing.T) {
	const root = "../.."
	fset := token.NewFileSet()
	scanned, sawRefsim := 0, false
	err := filepath.WalkDir(root, func(path string, d fs.DirEntry, err error) error {
		if err != nil {
			return err
		}
		if d.IsDir() {
			if path == root {
				return nil
			}
			if _, err := os.Stat(filepath.Join(path, "go.mod")); err == nil || d.Name() == "testdata" || strings.HasPrefix(d.Name(), ".") {
				return filepath.SkipDir // another module, fixtures, tooling
			}
			return nil
		}
		if !strings.HasSuffix(path, ".go") || strings.HasSuffix(path, "_test.go") {
			return nil
		}
		f, err := parser.ParseFile(fset, path, nil, parser.ImportsOnly)
		if err != nil {
			return err
		}
		scanned++
		refsim := filepath.ToSlash(path) == root+"/internal/oracle/refsim.go"
		sawRefsim = sawRefsim || refsim
		for _, imp := range f.Imports {
			p, _ := strconv.Unquote(imp.Path.Value)
			switch {
			case p == "acr/internal/oracle":
				t.Errorf("%s imports the test-only oracle", path)
			case refsim && strings.HasPrefix(p, "acr/") && p != "acr/internal/netcfg" && p != "acr/internal/topo":
				t.Errorf("refsim.go imports %s; the reference may use only netcfg and topo", p)
			case refsim && strings.Contains(strings.Split(p, "/")[0], "."):
				t.Errorf("refsim.go imports %s, outside the standard library", p)
			}
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	if !sawRefsim || scanned < 50 {
		t.Fatalf("scanned %d files (refsim.go seen: %v): the guard is vacuous", scanned, sawRefsim)
	}
}
