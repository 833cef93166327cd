// Package disk is the iod's durable storage engine: a real on-disk
// backend behind storage.Backend, built on the BFile pattern — whole
// filesystem-aligned blocks go straight to shard-per-file data files,
// only the unaligned remainder is buffered in memory — with a write-ahead
// journal for that remainder so a crash replays instead of corrupting.
//
// Layout: one directory per backend holding `f-<16 hex>.dat` (one data
// file per PVFS file ID, the shard-per-file split) plus `wal.log`.
// WriteAt splits its range at directAlign: the aligned interior is one
// positional write to the shard file; a sub-block head or tail (and every
// Delete) is a checksummed journal record pushed to the operating system
// before the ack, its bytes staged in an in-memory overlay. Once the
// overlay passes Options.FlushThreshold the store checkpoints — applies
// the overlay to the data files, fsyncs them, and truncates the journal.
// Reads serve from the data file with the overlay applied on top, so
// acknowledged bytes are always observable.
//
// Ordering rule: a direct write whose range overlaps a staged overlay
// entry, or whose file has a journaled Delete, checkpoints first. The
// journal therefore never holds a record older than direct bytes in the
// same place, and replaying it over the shard files is always correct.
//
// Durability window: an acknowledged write survives a *process* crash
// unconditionally (journal record and shard-file bytes both reached the
// OS before the ack). What survives power loss is governed by
// Options.Fsync: SyncAlways fsyncs whatever the write touched before the
// ack, SyncInterval within FsyncInterval of it, SyncOnClose only at
// checkpoint/Sync/Close. Every sync takes data files, then the backend
// directory (shard creations and unlinks), then the journal, and a
// checkpoint truncates the journal only after that, so the journal is
// never the only durable copy of applied records.
package disk

import (
	"bufio"
	"bytes"
	"errors"
	"fmt"
	"io"
	"io/fs"
	"os"
	"path/filepath"
	"strconv"
	"strings"
	"sync"
	"time"

	"pvfscache/internal/blockio"
	"pvfscache/internal/storage"
)

// Policy selects when written bytes are fsynced.
type Policy int

const (
	// SyncOnClose (default) fsyncs only at checkpoint, Sync, and Close.
	// Fastest; power-loss window is everything since the last of those.
	SyncOnClose Policy = iota
	// SyncInterval fsyncs journal and dirtied shard files within
	// Options.FsyncInterval of a write.
	SyncInterval
	// SyncAlways fsyncs on every write — the paper's O_SYNC shape.
	// Slowest, zero power-loss window.
	SyncAlways
)

// String returns the knob spelling accepted by ParsePolicy.
func (p Policy) String() string {
	switch p {
	case SyncInterval:
		return "interval"
	case SyncAlways:
		return "osync"
	default:
		return "onclose"
	}
}

// ParsePolicy maps the -fsync flag spellings onto a Policy.
func ParsePolicy(s string) (Policy, error) {
	switch strings.ToLower(strings.TrimSpace(s)) {
	case "", "onclose", "on-close":
		return SyncOnClose, nil
	case "interval":
		return SyncInterval, nil
	case "osync", "always":
		return SyncAlways, nil
	}
	return SyncOnClose, fmt.Errorf("disk: unknown fsync policy %q (want osync, interval, or onclose)", s)
}

// Options configures a Store.
type Options struct {
	// Dir is the backend's directory; created if absent.
	Dir string
	// Fsync is the fsync policy (default SyncOnClose).
	Fsync Policy
	// FsyncInterval bounds the power-loss window under SyncInterval
	// (default 100ms).
	FsyncInterval time.Duration
	// FlushThreshold is the overlay size (journaled bytes) that triggers
	// a checkpoint to the data files (default 1 MiB). Whole aligned
	// blocks bypass the journal and do not count.
	FlushThreshold int64
}

const (
	defaultFsyncInterval  = 100 * time.Millisecond
	defaultFlushThreshold = 1 << 20

	journalName = "wal.log"
	dataPrefix  = "f-"
	dataSuffix  = ".dat"

	// directAlign is the boundary WriteAt splits at: whole blocks of this
	// size go straight to the shard file, the rest through the journal.
	// It is the filesystem block and page size, below which a positional
	// write costs a read-modify-write of the page anyway.
	directAlign = 4096
)

// pwrite is one staged overlay write, applied over the data file in
// append order on reads and at checkpoint.
type pwrite struct {
	off  int64
	data []byte
}

// file is the in-memory state for one shard file.
type file struct {
	f        *os.File // lazily opened data file handle
	size     int64    // logical size: data file extent + staged overlay
	pending  []pwrite // overlay not yet applied to the data file
	unsynced bool     // on Store.unsynced: written since its last fsync
}

// Store is the on-disk storage.Backend. All operations serialize on one
// mutex: the iod already fans work out per daemon, and the engine's hot
// cost is one write syscall, which the kernel orders per file anyway.
type Store struct {
	mu    sync.Mutex
	dir   string
	opts  Options
	files map[blockio.FileID]*file

	journal *os.File
	jw      *bufio.Writer
	// pendingBytes is what the journal holds since its last truncation:
	// staged write bytes plus a nominal charge per delete record. Zero
	// means the journal, and with it every overlay, is empty.
	pendingBytes int64
	// deleted names the files with a delete record in the journal.
	deleted map[blockio.FileID]struct{}
	// unsynced lists the files whose shard file was written since its
	// last fsync; dirDirty says a shard file was created or unlinked
	// since the backend directory's.
	unsynced []*file
	dirDirty bool

	// syncTimer is armed under SyncInterval while a write waits for its
	// fsync; syncErr is that background fsync's failure, after which the
	// store fails every operation.
	syncTimer *time.Timer
	syncErr   error

	recovered int
	crashed   bool
	closed    bool
}

var (
	_ storage.Backend = (*Store)(nil)
	_ storage.Crasher = (*Store)(nil)
)

// ErrCrashed is returned by every operation after Crash.
var ErrCrashed = errors.New("disk backend: crashed")

// Open opens (or creates) the backend in opts.Dir, replaying any
// journal left by a crash before returning. After Open the journal is
// empty and every recovered byte is durable in the data files.
func Open(opts Options) (*Store, error) {
	if opts.Dir == "" {
		return nil, errors.New("disk: Options.Dir is required")
	}
	if opts.FsyncInterval <= 0 {
		opts.FsyncInterval = defaultFsyncInterval
	}
	if opts.FlushThreshold <= 0 {
		opts.FlushThreshold = defaultFlushThreshold
	}
	if err := os.MkdirAll(opts.Dir, 0o777); err != nil {
		return nil, err
	}
	s := &Store{
		dir:     opts.Dir,
		opts:    opts,
		files:   make(map[blockio.FileID]*file),
		deleted: make(map[blockio.FileID]struct{}),
	}
	if err := s.scanDataFiles(); err != nil {
		return nil, err
	}
	j, err := os.OpenFile(filepath.Join(opts.Dir, journalName), os.O_RDWR|os.O_CREATE, 0o666)
	if err != nil {
		s.closeFiles()
		return nil, err
	}
	s.journal = j
	if err := s.replay(); err != nil {
		j.Close()
		s.closeFiles()
		return nil, err
	}
	s.jw = bufio.NewWriter(j)
	return s, nil
}

// scanDataFiles registers every existing shard file and its on-disk
// size.
func (s *Store) scanDataFiles() error {
	ents, err := os.ReadDir(s.dir)
	if err != nil {
		return err
	}
	for _, e := range ents {
		name := e.Name()
		if e.IsDir() || !strings.HasPrefix(name, dataPrefix) || !strings.HasSuffix(name, dataSuffix) {
			continue
		}
		hex := strings.TrimSuffix(strings.TrimPrefix(name, dataPrefix), dataSuffix)
		id, err := strconv.ParseUint(hex, 16, 64)
		if err != nil {
			continue // not ours
		}
		info, err := e.Info()
		if err != nil {
			return err
		}
		s.files[blockio.FileID(id)] = &file{size: info.Size()}
	}
	return nil
}

// replay applies the journal's valid prefix to the data files, fsyncs
// them, and truncates the journal. A torn tail (crash mid-append) ends
// the prefix cleanly: every record past it was never acknowledged.
func (s *Store) replay() error {
	if _, err := s.journal.Seek(0, io.SeekStart); err != nil {
		return err
	}
	r := bufio.NewReader(s.journal)
	for {
		rec, err := readRecord(r)
		if err == io.EOF || err == errTorn {
			break
		}
		if err != nil {
			return err
		}
		id := blockio.FileID(rec.id)
		switch rec.kind {
		case recWrite:
			if err := s.writeData(id, s.fileFor(id), rec.off, rec.data); err != nil {
				return err
			}
		case recDelete:
			if err := s.removeLocked(id); err != nil {
				return err
			}
		}
		s.recovered++
	}
	// Replayed bytes, shard creations and unlinks must be durable before
	// the journal is discarded.
	if err := s.syncData(); err != nil {
		return err
	}
	return s.truncateJournal()
}

// truncateJournal empties the journal durably.
func (s *Store) truncateJournal() error {
	if err := s.journal.Truncate(0); err != nil {
		return err
	}
	if _, err := s.journal.Seek(0, io.SeekStart); err != nil {
		return err
	}
	return s.journal.Sync()
}

// Recovered reports how many journal records the last Open replayed.
func (s *Store) Recovered() int {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.recovered
}

// Dir returns the backend's directory.
func (s *Store) Dir() string { return s.dir }

func (s *Store) dataPath(id blockio.FileID) string {
	return filepath.Join(s.dir, fmt.Sprintf("%s%016x%s", dataPrefix, uint64(id), dataSuffix))
}

// fileFor returns id's in-memory state, creating it on first use.
func (s *Store) fileFor(id blockio.FileID) *file {
	f := s.files[id]
	if f == nil {
		f = &file{}
		s.files[id] = f
	}
	return f
}

// ensureData lazily opens f's shard file, creating it if absent.
func (s *Store) ensureData(id blockio.FileID, f *file) (*os.File, error) {
	if f.f != nil {
		return f.f, nil
	}
	df, err := os.OpenFile(s.dataPath(id), os.O_RDWR, 0)
	if errors.Is(err, fs.ErrNotExist) {
		df, err = os.OpenFile(s.dataPath(id), os.O_RDWR|os.O_CREATE, 0o666)
		s.dirDirty = true
	}
	if err != nil {
		return nil, err
	}
	f.f = df
	return df, nil
}

// writeData is one positional write to id's shard file.
func (s *Store) writeData(id blockio.FileID, f *file, off int64, p []byte) error {
	df, err := s.ensureData(id, f)
	if err != nil {
		return err
	}
	if !f.unsynced {
		f.unsynced = true
		s.unsynced = append(s.unsynced, f)
	}
	f.size = max(f.size, off+int64(len(p)))
	_, err = df.WriteAt(p, off)
	return err
}

func (s *Store) state() error {
	switch {
	case s.crashed:
		return ErrCrashed
	case s.closed:
		return os.ErrClosed
	}
	return s.syncErr
}

// journalAppend writes one record and pushes it to the OS: from there the
// ack survives a process crash regardless of fsync policy. Called with
// s.mu held, before the operation is staged.
func (s *Store) journalAppend(rec record) error {
	if err := appendRecord(s.jw, rec); err != nil {
		return err
	}
	return s.jw.Flush()
}

// WriteAt implements storage.Backend. The range splits at directAlign:
// whole aligned blocks are written to the shard file, a sub-block head
// and tail are journaled and staged in the overlay (a range holding no
// whole block is journaled as one record).
func (s *Store) WriteAt(id blockio.FileID, off int64, p []byte) error {
	if len(p) == 0 {
		return nil
	}
	if off < 0 {
		return fmt.Errorf("disk: negative offset %d", off)
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	if err := s.state(); err != nil {
		return err
	}
	end := off + int64(len(p))
	lo := (off + directAlign - 1) &^ (directAlign - 1)
	hi := end &^ (directAlign - 1)
	if lo >= hi {
		lo, hi = end, end
	}
	f := s.fileFor(id)
	if err := s.stage(id, f, off, p[:lo-off]); err != nil {
		return err
	}
	if err := s.direct(id, f, lo, p[lo-off:hi-off]); err != nil {
		return err
	}
	if err := s.stage(id, f, hi, p[hi-off:]); err != nil {
		return err
	}
	return s.settle()
}

// stage journals p and adds it to f's overlay.
func (s *Store) stage(id blockio.FileID, f *file, off int64, p []byte) error {
	if len(p) == 0 {
		return nil
	}
	if err := s.journalAppend(record{kind: recWrite, id: uint64(id), off: off, data: p}); err != nil {
		return err
	}
	// Copy: the iod hands us pooled buffers it reuses after the ack.
	f.pending = append(f.pending, pwrite{off: off, data: bytes.Clone(p)})
	f.size = max(f.size, off+int64(len(p)))
	s.pendingBytes += int64(len(p))
	return nil
}

// direct writes whole blocks to f's shard file. Anything the journal
// holds for this place is older and must not be replayed, or re-applied
// by a later checkpoint or a read's overlay pass, on top of these bytes:
// an overlapping overlay entry or a delete record of this file forces a
// checkpoint first.
func (s *Store) direct(id blockio.FileID, f *file, off int64, p []byte) error {
	if len(p) == 0 {
		return nil
	}
	_, stale := s.deleted[id]
	for i := 0; !stale && i < len(f.pending); i++ {
		w := f.pending[i]
		stale = w.off < off+int64(len(p)) && off < w.off+int64(len(w.data))
	}
	if stale {
		if err := s.checkpointLocked(); err != nil {
			return err
		}
	}
	return s.writeData(id, f, off, p)
}

// settle ends a mutation: it applies the fsync policy to what the
// operation left unsynced and checkpoints a full overlay.
func (s *Store) settle() error {
	if s.pendingBytes >= s.opts.FlushThreshold {
		return s.checkpointLocked()
	}
	switch s.opts.Fsync {
	case SyncAlways:
		return s.syncAll()
	case SyncInterval:
		if s.syncTimer == nil {
			s.syncTimer = time.AfterFunc(s.opts.FsyncInterval, s.intervalSync)
		}
	}
	return nil
}

// intervalSync is the SyncInterval timer: armed by the first write after
// a sync, it bounds that write's power-loss window even if no other
// operation follows.
func (s *Store) intervalSync() {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.syncTimer = nil
	if s.state() == nil {
		s.syncErr = s.syncAll()
	}
}

// syncAll makes every acknowledged byte power-loss durable where it
// lies: shard files, directory, then journal.
func (s *Store) syncAll() error {
	if err := s.syncData(); err != nil {
		return err
	}
	if s.pendingBytes == 0 {
		return nil // empty since its truncation, which synced it
	}
	return s.journal.Sync()
}

// syncData fsyncs every shard file written since its last fsync, then
// the backend directory if a shard file was created or unlinked.
func (s *Store) syncData() error {
	for i, f := range s.unsynced {
		// A deleted file's handle is closed and its bytes are gone.
		if f.f != nil {
			if err := f.f.Sync(); err != nil {
				s.unsynced = s.unsynced[i:]
				return err
			}
		}
		f.unsynced = false
	}
	s.unsynced = s.unsynced[:0]
	if !s.dirDirty {
		return nil
	}
	d, err := os.Open(s.dir)
	if err != nil {
		return err
	}
	err = d.Sync()
	if cerr := d.Close(); err == nil {
		err = cerr
	}
	if err == nil {
		s.dirDirty = false
	}
	return err
}

// checkpointLocked applies every staged overlay to the data files,
// fsyncs them, and truncates the journal. Order matters: data files and
// directory must be durable before the journal (their only other copy)
// is discarded, and the overlay stays staged until then, so a failed
// checkpoint leaves journal and overlay agreeing.
func (s *Store) checkpointLocked() error {
	for id, f := range s.files {
		for _, w := range f.pending {
			if err := s.writeData(id, f, w.off, w.data); err != nil {
				return err
			}
		}
	}
	if err := s.syncData(); err != nil {
		return err
	}
	if s.pendingBytes == 0 {
		return nil // the journal is empty
	}
	if err := s.truncateJournal(); err != nil {
		return err
	}
	s.jw.Reset(s.journal)
	for _, f := range s.files {
		f.pending = nil
	}
	clear(s.deleted)
	s.pendingBytes = 0
	return nil
}

// ReadAt implements storage.Backend: data file bytes with the staged
// overlay applied in write order on top. Short reads past the logical
// size, nil error, absent files read zero bytes — simdisk semantics.
func (s *Store) ReadAt(id blockio.FileID, off int64, p []byte) (int, error) {
	if off < 0 {
		return 0, fmt.Errorf("disk: negative offset %d", off)
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	if err := s.state(); err != nil {
		return 0, err
	}
	f := s.files[id]
	if f == nil || off >= f.size {
		return 0, nil
	}
	n := len(p)
	if rem := f.size - off; int64(n) > rem {
		n = int(rem)
	}
	out := p[:n]
	clear(out) // sparse gaps and unwritten data-file tail read as zero
	if f.f == nil {
		// The entry may come from the directory scan (reopened store), in
		// which case the shard file holds durable bytes outside the
		// overlay — open it regardless of staged writes. For a brand-new
		// file O_CREATE makes an empty shard, which reads as zeros.
		if _, err := s.ensureData(id, f); err != nil {
			return 0, err
		}
	}
	if _, err := f.f.ReadAt(out, off); err != nil && err != io.EOF {
		return 0, err
	}
	end := off + int64(n)
	for _, w := range f.pending {
		lo, hi := w.off, w.off+int64(len(w.data))
		if lo < off {
			lo = off
		}
		if hi > end {
			hi = end
		}
		if lo < hi {
			copy(out[lo-off:hi-off], w.data[lo-w.off:hi-w.off])
		}
	}
	return n, nil
}

// Size implements storage.Backend.
func (s *Store) Size(id blockio.FileID) (int64, error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	if err := s.state(); err != nil {
		return 0, err
	}
	f := s.files[id]
	if f == nil {
		return 0, nil
	}
	return f.size, nil
}

// removeLocked drops a file's in-memory state and its shard file.
func (s *Store) removeLocked(id blockio.FileID) error {
	f := s.files[id]
	if f == nil {
		return nil
	}
	if f.f != nil {
		f.f.Close()
		f.f = nil
	}
	delete(s.files, id)
	s.dirDirty = true
	if err := os.Remove(s.dataPath(id)); err != nil && !os.IsNotExist(err) {
		return err
	}
	return nil
}

// deleteRecordCost is the nominal weight a delete record adds toward
// the checkpoint trigger. Deletes stage no overlay bytes, but each one
// still grows the journal; without a charge a delete-heavy workload
// would never checkpoint and the journal would grow until Sync/Close.
const deleteRecordCost = 4096

// Delete implements storage.Backend. The mutex linearizes Delete
// against WriteAt, satisfying the ordering contract by construction.
func (s *Store) Delete(id blockio.FileID) error {
	s.mu.Lock()
	defer s.mu.Unlock()
	if err := s.state(); err != nil {
		return err
	}
	if err := s.journalAppend(record{kind: recDelete, id: uint64(id)}); err != nil {
		return err
	}
	s.deleted[id] = struct{}{}
	s.pendingBytes += deleteRecordCost
	if err := s.removeLocked(id); err != nil {
		return err
	}
	return s.settle()
}

// Sync implements storage.Backend: a full checkpoint, after which every
// acknowledged write is durable in the data files regardless of policy.
func (s *Store) Sync() error {
	s.mu.Lock()
	defer s.mu.Unlock()
	if err := s.state(); err != nil {
		return err
	}
	return s.checkpointLocked()
}

func (s *Store) closeFiles() {
	for _, f := range s.files {
		if f.f != nil {
			f.f.Close()
			f.f = nil
		}
	}
}

// stopTimer disarms a pending interval sync; one already waiting for the
// mutex finds the store closed and does nothing.
func (s *Store) stopTimer() {
	if s.syncTimer != nil {
		s.syncTimer.Stop()
		s.syncTimer = nil
	}
}

// Close implements storage.Backend: checkpoint, then release every
// handle.
func (s *Store) Close() error {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.closed || s.crashed {
		return nil
	}
	s.stopTimer()
	err := s.syncErr
	if err == nil {
		err = s.checkpointLocked()
	}
	s.closeFiles()
	if cerr := s.journal.Close(); err == nil {
		err = cerr
	}
	s.closed = true
	return err
}

// Crash implements storage.Crasher: fail-stop. Handles close without a
// checkpoint and the overlay is dropped — exactly the state a killed
// process leaves. The operating system keeps every acknowledged byte
// (journal records and direct writes alike were pushed to it before the
// ack), so Open on the same directory recovers byte-for-byte.
func (s *Store) Crash() error {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.crashed || s.closed {
		return nil
	}
	s.crashed = true
	s.stopTimer()
	s.closeFiles()
	s.files = nil
	s.pendingBytes = 0
	return s.journal.Close()
}

// Files returns the number of files with stored data.
func (s *Store) Files() int {
	s.mu.Lock()
	defer s.mu.Unlock()
	return len(s.files)
}
