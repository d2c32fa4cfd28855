package chaos

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

// TestImportGuard keeps fault injection out of the product: no non-test
// file in the module outside this package imports it, so the acr binary
// and the daemon carry no crash hooks.
func TestImportGuard(t *testing.T) {
	const root = "../.."
	fset := token.NewFileSet()
	scanned, sawMain := 0, false
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
		if !strings.HasSuffix(path, ".go") || strings.HasSuffix(path, "_test.go") ||
			filepath.ToSlash(filepath.Dir(path)) == root+"/internal/chaos" {
			return nil
		}
		f, err := parser.ParseFile(fset, path, nil, parser.ImportsOnly)
		if err != nil {
			return err
		}
		scanned++
		sawMain = sawMain || filepath.ToSlash(path) == root+"/cmd/acr/main.go"
		for _, imp := range f.Imports {
			if p, _ := strconv.Unquote(imp.Path.Value); p == "acr/internal/chaos" {
				t.Errorf("%s imports the test-only fault injector", path)
			}
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	if !sawMain || scanned < 50 {
		t.Fatalf("scanned %d files (cmd/acr/main.go seen: %v): the guard is vacuous", scanned, sawMain)
	}
}
