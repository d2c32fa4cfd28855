//go:build !unix

package evalstore

import "os"

// flock is a no-op where flock is unavailable: concurrent writers may then
// interleave, and verification turns what that damages into misses.
func flock(*os.File) (unlock func()) { return func() {} }
