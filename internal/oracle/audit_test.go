package oracle

import (
	"strings"
	"testing"

	"acr/internal/netcfg"
)

// TestMinimizeIsOneMinimal: on edits [a b c] where {a,b,c}, {a,c} and {c}
// fail but {b,c} and {a} do not, a single pass keeps a (dropping it from
// {a,b,c} leaves {b,c}) and stops at {a,c}; {c} shows a is removable once
// b is gone.
func TestMinimizeIsOneMinimal(t *testing.T) {
	var edits []netcfg.EditSet
	for _, d := range []string{"a", "b", "c"} {
		edits = append(edits, netcfg.EditSet{Device: d, Edits: []netcfg.Edit{netcfg.DeleteLine{At: 1}}})
	}
	fails := map[string]bool{"abc": true, "ac": true, "c": true}
	devices := func(sub []netcfg.EditSet) string {
		var sb strings.Builder
		for _, es := range sub {
			sb.WriteString(es.Device)
		}
		return sb.String()
	}
	got := devices(minimize(edits, func(sub []netcfg.EditSet) bool { return fails[devices(sub)] }))
	if got != "c" {
		t.Errorf("minimized to %q, want %q", got, "c")
	}
}
