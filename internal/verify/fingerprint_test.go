package verify_test

import (
	"fmt"
	"strings"
	"testing"

	"acr/internal/bgp"
	"acr/internal/netcfg"
	"acr/internal/scenario"
	"acr/internal/verify"
)

// TestSessionFingerprintTracksSessionSet: the fingerprint is the rendering
// it always was — router, then "-peer;" per established session — so it is
// equal between two nets exactly when their session sets are, and the one
// stored on the verifier is the base net's.
func TestSessionFingerprintTracksSessionSet(t *testing.T) {
	rendered := func(n *bgp.Net) string {
		var sb strings.Builder
		for _, name := range n.Order {
			for _, s := range n.Routers[name].Sessions {
				fmt.Fprintf(&sb, "%s-%s;", name, s.PeerAddr)
			}
			sb.WriteByte('|')
		}
		return sb.String()
	}
	for _, s := range []*scenario.Scenario{scenario.Figure2(), scenario.WAN(6, 3, 2, scenario.GenOptions{})} {
		iv := verify.NewIncremental(s.Topo, s.Configs, s.Intents, bgp.Options{})
		if iv.StoredFingerprint() != rendered(iv.BaseNet()) || verify.SessionFingerprint(iv.BaseNet()) != iv.StoredFingerprint() {
			t.Fatalf("%s: stored fingerprint %q, the base net renders %q", s.Name, iv.StoredFingerprint(), rendered(iv.BaseNet()))
		}
		first := iv.BaseNet().Order[0]
		peerLine := iv.BaseNet().Routers[first].Sessions[0].LocalLines[0].Line
		for _, tc := range []struct {
			edit netcfg.Edit
			same bool
		}{
			{netcfg.InsertBefore{At: 1, Text: "# comment"}, true},
			{netcfg.DeleteLine{At: peerLine}, false},
		} {
			cl := iv.Clone()
			if err := cl.Commit([]netcfg.EditSet{{Device: first, Edits: []netcfg.Edit{tc.edit}}}); err != nil {
				t.Fatal(err)
			}
			if cl.StoredFingerprint() != rendered(cl.BaseNet()) {
				t.Errorf("%s after %v: stored fingerprint is not the committed net's", s.Name, tc.edit)
			}
			if (cl.StoredFingerprint() == iv.StoredFingerprint()) != tc.same {
				t.Errorf("%s after %v: fingerprints equal = %v, want %v", s.Name, tc.edit, !tc.same, tc.same)
			}
		}
	}
}
