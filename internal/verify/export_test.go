package verify

import "acr/internal/bgp"

// SessionFingerprint exposes sessionFingerprint, and StoredFingerprint the
// one kept for the current base, to the external test package.
func SessionFingerprint(n *bgp.Net) string { return sessionFingerprint(n, 0) }

func (iv *Incremental) StoredFingerprint() string { return iv.sessions }
