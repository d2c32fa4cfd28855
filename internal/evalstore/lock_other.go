//go:build !unix

package evalstore

// flockWait is a no-op where flock is unavailable. Writes remain safe —
// the rename that publishes an entry is atomic — but cross-process eviction
// bookkeeping is advisory-only on such platforms, which the store's
// contract already tolerates (any inconsistency degrades to a miss).
func flockWait(uintptr) error { return nil }

// flockRelease is the matching no-op.
func flockRelease(uintptr) error { return nil }
