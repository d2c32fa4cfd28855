package oracle

import (
	"fmt"
	"go/parser"
	"go/token"
	"io/fs"
	"os"
	"path/filepath"
	"strconv"
	"strings"
)

// TestOnly maps each of the module's test-only packages to the directory
// whose non-test files may import it. No other non-test file may, so the
// acr binary and the daemon carry neither the reference simulator nor
// crash hooks.
var TestOnly = map[string]string{
	"acr/internal/oracle": "internal/oracle",
	"acr/internal/chaos":  "internal/chaos",
}

// ImportViolations walks the non-test Go files of the module at root once.
// It reports each import of the test-only pkg from outside its TestOnly
// directory, and whatever check, if not nil, reports for a file (its path
// relative to root) and one of its imports. A walk that parses fewer than
// 50 files or never sees mustSee guards nothing, and is reported as an
// error.
func ImportViolations(root, pkg, mustSee string, check func(rel, imp string) string) ([]string, error) {
	allowed, ok := TestOnly[pkg]
	if !ok {
		return nil, fmt.Errorf("%s is not a test-only package", pkg)
	}
	fset := token.NewFileSet()
	var bad []string
	scanned, saw := 0, false
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
		rel := strings.TrimPrefix(filepath.ToSlash(path), filepath.ToSlash(root)+"/")
		saw = saw || rel == mustSee
		for _, imp := range f.Imports {
			p, _ := strconv.Unquote(imp.Path.Value)
			if p == pkg && !strings.HasPrefix(rel, allowed+"/") {
				bad = append(bad, fmt.Sprintf("%s imports the test-only %s", rel, p))
			}
			if check != nil {
				if msg := check(rel, p); msg != "" {
					bad = append(bad, msg)
				}
			}
		}
		return nil
	})
	if err != nil {
		return nil, err
	}
	if !saw || scanned < 50 {
		return nil, fmt.Errorf("scanned %d files (%s seen: %v): the guard is vacuous", scanned, mustSee, saw)
	}
	return bad, nil
}
