// Package simdisk provides the storage substrate for the I/O daemons: an
// in-memory block store that is sparse in space as well as in semantics
// (memory follows the bytes written, not the offsets they were written
// at), plus a seek/rotation/transfer-rate disk timing model calibrated to
// the paper's 20 GB IDE drives. The live system uses the store for bytes
// only; the discrete-event simulator additionally charges Model access
// times.
package simdisk

import (
	"sync"

	"pvfscache/internal/blockio"
)

// pageSize is the unit a Store allocates file memory in: the cache block
// size, of which every strip boundary in use is a multiple, so an iod
// holding every fourth strip of a file holds no page of the other three.
const pageSize = 4096

// Store holds the strip data an iod serves, like the paper's iods keep a
// file's strips in a local file whose holes cost nothing. Each file is a
// table of fixed pageSize pages allocated on first write, so memory is
// proportional to the bytes written whatever their offsets: a write at
// 1<<40 costs one or two pages. Reads past the size return short; a hole
// inside the size reads as zeros, which ReadAt writes into the caller's
// buffer (callers read into pooled buffers holding earlier bytes).
//
// Offsets and lengths are the caller's to validate: off must be
// non-negative and off+len(p) must not overflow int64 (storage/mem
// rejects both before calling in).
//
// A Store is safe for concurrent use and honors the storage.Backend
// ordering contract: a WriteAt that returns after a Delete returned
// recreates the file, and never lands on the deleted file's detached
// pages (see fileData.dead).
type Store struct {
	mu    sync.RWMutex
	files map[blockio.FileID]*fileData
}

// fileData is one file's page table. size is one past the highest byte
// ever written. A map rather than a slice indexed by page keeps a write
// at a huge offset from costing memory proportional to the offset. dead
// is set (under mu) by Delete after the entry leaves the Store map: an
// operation that captured the pointer before the delete re-looks the
// file up instead of touching the orphan, so an acknowledged write can
// never vanish into pages no reader can reach.
type fileData struct {
	mu    sync.RWMutex
	pages map[int64]*[pageSize]byte
	size  int64
	dead  bool
}

// testHookWriteLookup, when non-nil, runs in WriteAt between the map
// lookup and taking the file lock — the window the delete/write race
// regression test widens deterministically.
var testHookWriteLookup func()

// NewStore returns an empty store.
func NewStore() *Store {
	return &Store{files: make(map[blockio.FileID]*fileData)}
}

func (s *Store) file(id blockio.FileID, create bool) *fileData {
	s.mu.RLock()
	f := s.files[id]
	s.mu.RUnlock()
	if f != nil || !create {
		return f
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	if f = s.files[id]; f == nil {
		f = &fileData{pages: make(map[int64]*[pageSize]byte)}
		s.files[id] = f
	}
	return f
}

// WriteAt stores p at offset off of the file, allocating the pages it
// touches that are not yet held and raising the size as needed.
func (s *Store) WriteAt(id blockio.FileID, off int64, p []byte) {
	if len(p) == 0 {
		return
	}
	for {
		f := s.file(id, true)
		if testHookWriteLookup != nil {
			testHookWriteLookup()
		}
		f.mu.Lock()
		if f.dead {
			// A concurrent Delete detached this file after our lookup.
			// Retry: the fresh lookup recreates the file, so the write is
			// observable — the delete is ordered before it.
			f.mu.Unlock()
			continue
		}
		f.size = max(f.size, off+int64(len(p)))
		for len(p) > 0 {
			pg := f.pages[off/pageSize]
			if pg == nil {
				pg = new([pageSize]byte)
				f.pages[off/pageSize] = pg
			}
			n := copy(pg[off%pageSize:], p)
			p = p[n:]
			off += int64(n)
		}
		f.mu.Unlock()
		return
	}
}

// ReadAt copies up to len(p) bytes from offset off into p. It returns the
// number of bytes copied, which is short when the range extends past the
// stored size. Holes inside the size are cleared in p. It never returns
// an error: missing data is simply absent.
func (s *Store) ReadAt(id blockio.FileID, off int64, p []byte) int {
	for {
		f := s.file(id, false)
		if f == nil {
			return 0
		}
		f.mu.RLock()
		if f.dead {
			f.mu.RUnlock()
			continue
		}
		n := 0
		if off < f.size {
			n = int(min(int64(len(p)), f.size-off))
		}
		for dst := p[:n]; len(dst) > 0; {
			in := off % pageSize
			c := min(len(dst), int(pageSize-in))
			if pg := f.pages[off/pageSize]; pg != nil {
				copy(dst[:c], pg[in:])
			} else {
				clear(dst[:c])
			}
			dst = dst[c:]
			off += int64(c)
		}
		f.mu.RUnlock()
		return n
	}
}

// Size returns the stored size of the file (0 if absent).
func (s *Store) Size(id blockio.FileID) int64 {
	for {
		f := s.file(id, false)
		if f == nil {
			return 0
		}
		f.mu.RLock()
		if f.dead {
			f.mu.RUnlock()
			continue
		}
		n := f.size
		f.mu.RUnlock()
		return n
	}
}

// Delete removes a file's data and releases its pages. The file is marked
// dead after it leaves the map so in-flight operations that already hold
// the pointer retry against the live map instead of using the orphan.
func (s *Store) Delete(id blockio.FileID) {
	s.mu.Lock()
	f := s.files[id]
	delete(s.files, id)
	s.mu.Unlock()
	if f != nil {
		f.mu.Lock()
		f.dead = true
		f.pages = nil
		f.mu.Unlock()
	}
}

// ResidentBytes returns the file memory the store holds: pages held
// times the page size, over every file.
func (s *Store) ResidentBytes() int64 {
	s.mu.RLock()
	files := make([]*fileData, 0, len(s.files))
	for _, f := range s.files {
		files = append(files, f)
	}
	s.mu.RUnlock()
	var pages int64
	for _, f := range files {
		f.mu.RLock()
		pages += int64(len(f.pages))
		f.mu.RUnlock()
	}
	return pages * pageSize
}

// Files returns the number of files with stored data.
func (s *Store) Files() int {
	s.mu.RLock()
	defer s.mu.RUnlock()
	return len(s.files)
}
