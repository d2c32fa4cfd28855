package verify_test

import "testing"

// FuzzDeltaSim throws arbitrary single-line edits at the delta simulator
// and audits each check (oracle.Audit): every prefix the warm-started
// propagation answers is held to a cold simulation's fixpoint, and the
// cold outcome to the reference simulator. Independently, the check's
// verdicts are held to a from-scratch verification, so a wrong structural
// reuse (a stale base outcome answering for a changed prefix) is caught
// even if each delta-simulated prefix individually agreed.
func FuzzDeltaSim(f *testing.F) {
	f.Add(uint8(0), uint8(0), uint16(3), " deny 10.0.0.0/16")
	f.Add(uint8(0), uint8(1), uint16(5), "")
	f.Add(uint8(1), uint8(0), uint16(9), " peer 10.1.0.1 as-number 65099")
	f.Add(uint8(1), uint8(2), uint16(1), " apply as-path 65000")
	f.Add(uint8(0), uint8(2), uint16(7), " apply local-preference 300")
	f.Add(uint8(1), uint8(1), uint16(4), " router-id 9.9.9.9")
	f.Fuzz(checkAudited)
}
