// Package mem adapts simdisk.Store — the in-memory sparse-file store
// the system has always run on — to the storage.Backend interface. It
// is the default backend: tests, benchmarks, and the discrete-event
// simulator keep their bit-identical figures. The store holds a file as
// 4 KB pages allocated on first write, so an iod's memory is
// proportional to the bytes it was sent, not to the file offsets its
// strips sit at. No operation can fail but on a range storage.CheckRange
// rejects. Durability is explicitly nil: the documented durability
// window of this backend is "until the process exits", and Crash models
// exactly that by discarding the store.
package mem

import (
	"errors"
	"sync/atomic"

	"pvfscache/internal/blockio"
	"pvfscache/internal/simdisk"
	"pvfscache/internal/storage"
)

// Backend wraps a simdisk.Store. The store pointer is swapped
// atomically by Crash so a crashed backend fails fast instead of
// serving stale bytes.
type Backend struct {
	store atomic.Pointer[simdisk.Store]
}

var (
	_ storage.Backend = (*Backend)(nil)
	_ storage.Crasher = (*Backend)(nil)
)

// ErrCrashed is returned by every operation after Crash.
var ErrCrashed = errors.New("mem backend: crashed")

// New returns a backend over a fresh empty store.
func New() *Backend { return Wrap(simdisk.NewStore()) }

// Wrap returns a backend over an existing store (shared with callers
// that still poke the store directly, e.g. DES setup code).
func Wrap(s *simdisk.Store) *Backend {
	b := &Backend{}
	b.store.Store(s)
	return b
}

// Store exposes the underlying simdisk store, or nil after Crash.
func (b *Backend) Store() *simdisk.Store { return b.store.Load() }

// WriteAt implements storage.Backend. A range storage.CheckRange rejects
// is an error, as on disk: the offset comes off the wire, and the store
// takes it as given.
func (b *Backend) WriteAt(id blockio.FileID, off int64, p []byte) error {
	s := b.store.Load()
	if s == nil {
		return ErrCrashed
	}
	if err := storage.CheckRange(off, len(p)); err != nil {
		return err
	}
	s.WriteAt(id, off, p)
	return nil
}

// ReadAt implements storage.Backend; the range rule is WriteAt's.
func (b *Backend) ReadAt(id blockio.FileID, off int64, p []byte) (int, error) {
	s := b.store.Load()
	if s == nil {
		return 0, ErrCrashed
	}
	if err := storage.CheckRange(off, len(p)); err != nil {
		return 0, err
	}
	return s.ReadAt(id, off, p), nil
}

// Size implements storage.Backend.
func (b *Backend) Size(id blockio.FileID) (int64, error) {
	s := b.store.Load()
	if s == nil {
		return 0, ErrCrashed
	}
	return s.Size(id), nil
}

// Delete implements storage.Backend.
func (b *Backend) Delete(id blockio.FileID) error {
	s := b.store.Load()
	if s == nil {
		return ErrCrashed
	}
	s.Delete(id)
	return nil
}

// Sync implements storage.Backend: memory has nothing to make durable.
func (b *Backend) Sync() error {
	if b.store.Load() == nil {
		return ErrCrashed
	}
	return nil
}

// Close implements storage.Backend.
func (b *Backend) Close() error { return nil }

// Crash implements storage.Crasher: the process died and memory is
// gone. Every later operation fails with ErrCrashed; a "restarted"
// daemon gets a fresh empty backend and has lost every byte — which is
// exactly why the chaos restart fault requires the disk backend.
func (b *Backend) Crash() error {
	b.store.Store(nil)
	return nil
}
