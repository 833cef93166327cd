// Package storage defines the iod's persistence seam: the Backend
// interface an I/O daemon stores its strip data behind. Two
// implementations exist — storage/mem wraps the in-memory
// simdisk.Store the system has always run on (tests, benchmarks, and
// the discrete-event model stay bit-identical), and storage/disk is a
// real on-disk engine with a write-ahead journal, an in-memory dirty
// cache flushed on filesystem-friendly boundaries, and crash recovery
// by journal replay (see that package for the format).
//
// The interface is deliberately the simdisk surface plus error
// returns: the in-memory store cannot fail, so the seed's iod had no
// store-error path at all and acknowledged writes it could never have
// persisted. Every method here can report failure, and the iod maps
// those failures onto wire.StatusIOError acks the flush streams treat
// as retryable.
package storage

import (
	"fmt"
	"math"

	"pvfscache/internal/blockio"
)

// Backend persists the strip data one I/O daemon serves. Files are
// sparse: reads return short past the last written byte, gaps inside
// written data read as zeros, and callers treat absent bytes as zero.
// Sparse in space too: memory (mem) and space (disk) are proportional to
// the bytes written, not to the offsets they were written at.
// Offsets come off the wire, so WriteAt and ReadAt apply CheckRange: a
// negative offset or a range whose end overflows int64 is an error,
// never a panic. Implementations must be safe for concurrent use.
//
// Ordering contract (the delete/write race): operations linearize, and
// an operation's linearization point lies between its call and its
// return. In particular a WriteAt that returns nil after a Delete on
// the same file has returned MUST leave its bytes observable (the
// write recreates the file); an acknowledged write may only disappear
// through a Delete that is still concurrent with it or begins after
// it. A backend that lets an in-flight write land on a detached file
// object — acked but never observable, with no delete ordered after
// it — violates the contract. Reads and Size obey the same rule: once
// Delete returns, they observe the file as absent until a later write
// recreates it.
type Backend interface {
	// WriteAt stores p at offset off, growing the file as needed. A nil
	// error acknowledges the bytes: they must be observable by every
	// subsequent ReadAt until overwritten or deleted (see the ordering
	// contract above), and must survive a process crash within the
	// backend's documented durability window.
	WriteAt(id blockio.FileID, off int64, p []byte) error
	// ReadAt copies up to len(p) bytes from offset off into p and
	// returns the number copied. Reads past the stored size return
	// short with a nil error; a missing file reads as zero bytes.
	ReadAt(id blockio.FileID, off int64, p []byte) (int, error)
	// Size returns the stored size of the file (0 if absent): one byte
	// past the highest offset ever written.
	Size(id blockio.FileID) (int64, error)
	// Delete removes the file's data. Deleting an absent file is not an
	// error.
	Delete(id blockio.FileID) error
	// Sync makes every acknowledged write durable regardless of the
	// backend's fsync policy. A no-op for memory backends.
	Sync() error
	// Close releases the backend's resources after making acknowledged
	// writes durable (an implicit Sync).
	Close() error
}

// CheckRange is the range rule of WriteAt and ReadAt: it returns an error
// for a negative offset or for an off+n that overflows int64.
func CheckRange(off int64, n int) error {
	if off < 0 {
		return fmt.Errorf("storage: negative offset %d", off)
	}
	if int64(n) > math.MaxInt64-off {
		return fmt.Errorf("storage: range of %d bytes at offset %d overflows int64", n, off)
	}
	return nil
}

// Crasher is implemented by backends that can simulate a fail-stop:
// Crash drops all volatile state — dirty caches, open handles,
// buffered journal bytes that an operating system would still have
// held for a mere process crash are kept, but nothing is flushed or
// checkpointed — and leaves the backend unusable (every later call
// errors). Reopening from the same state (storage/disk: the same
// directory) must recover every acknowledged write inside the
// documented durability window. The chaos harness's restart fault and
// the recovery tests drive it; production code never calls Crash.
type Crasher interface {
	Crash() error
}
