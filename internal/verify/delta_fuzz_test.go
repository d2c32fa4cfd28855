package verify_test

import "testing"

// FuzzDeltaSim throws arbitrary single-line edits at the delta simulator
// with Differential on: any fixpoint the warm-started propagation reaches
// that a cold simulation would not surfaces as a DeltaDivergenceError.
// Independently, the check's verdicts are compared against a from-scratch
// FullCheck, so a wrong structural reuse (a stale base outcome answering
// for a changed prefix) is caught even if each delta-simulated prefix
// individually agreed.
func FuzzDeltaSim(f *testing.F) {
	f.Add(uint8(0), uint8(0), uint16(3), " deny 10.0.0.0/16")
	f.Add(uint8(0), uint8(1), uint16(5), "")
	f.Add(uint8(1), uint8(0), uint16(9), " peer 10.1.0.1 as-number 65099")
	f.Add(uint8(1), uint8(2), uint16(1), " apply as-path 65000")
	f.Add(uint8(0), uint8(2), uint16(7), " apply local-preference 300")
	f.Add(uint8(1), uint8(1), uint16(4), " router-id 9.9.9.9")
	f.Fuzz(checkDifferential)
}
