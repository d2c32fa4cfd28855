package chaos

import (
	"testing"

	"acr/internal/oracle"
)

// TestImportGuard keeps fault injection out of the product: no non-test
// file in the module outside this package imports it, so the acr binary
// and the daemon carry no crash hooks.
func TestImportGuard(t *testing.T) {
	bad, err := oracle.ImportViolations("../..", "acr/internal/chaos", "cmd/acr/main.go", nil)
	if err != nil {
		t.Fatal(err)
	}
	for _, msg := range bad {
		t.Error(msg)
	}
}
