//go:build unix

package evalstore

import (
	"os"
	"syscall"
)

// flock takes a blocking exclusive flock on f and returns its release. The
// lock dies with the process, so a SIGKILL mid-append never wedges the
// directory. A failed lock degrades to an unserialized append, whose
// damage verification turns into misses.
func flock(f *os.File) (unlock func()) {
	if syscall.Flock(int(f.Fd()), syscall.LOCK_EX) != nil {
		return func() {}
	}
	return func() { syscall.Flock(int(f.Fd()), syscall.LOCK_UN) }
}
