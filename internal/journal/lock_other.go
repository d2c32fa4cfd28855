//go:build !unix

package journal

// flockExclusive is a no-op where flock is unavailable: there, nothing
// stops a second Writer from opening the same WAL.
func flockExclusive(uintptr) error { return nil }
