package oracle

import (
	"strings"
	"testing"
)

// TestImportGuard keeps the oracle out of the product and the reference
// simulator independent: refsim.go imports nothing of the module but
// netcfg and topo, and nothing outside the standard library.
func TestImportGuard(t *testing.T) {
	const refsim = "internal/oracle/refsim.go"
	bad, err := ImportViolations("../..", "acr/internal/oracle", refsim, func(rel, p string) string {
		switch {
		case rel != refsim:
		case strings.HasPrefix(p, "acr/") && p != "acr/internal/netcfg" && p != "acr/internal/topo":
			return "refsim.go imports " + p + "; the reference may use only netcfg and topo"
		case strings.Contains(strings.Split(p, "/")[0], "."):
			return "refsim.go imports " + p + ", outside the standard library"
		}
		return ""
	})
	if err != nil {
		t.Fatal(err)
	}
	for _, msg := range bad {
		t.Error(msg)
	}
}
