package disk

// Tests for the block-direct write path: whole aligned blocks bypass the
// journal, so what they pin is the ordering between direct bytes and
// journaled bytes (or a journaled unlink) across a crash, and the
// fsync-policy bookkeeping the direct path added.

import (
	"bytes"
	"math/rand"
	"os"
	"path/filepath"
	"testing"
	"time"

	"pvfscache/internal/chaos/waitfor"
	"pvfscache/internal/testseed"
)

// crashReopen fail-stops s and reopens its directory.
func crashReopen(t *testing.T, s *Store, opts Options) *Store {
	t.Helper()
	if err := s.Crash(); err != nil {
		t.Fatal(err)
	}
	return openT(t, opts)
}

func journalSize(t *testing.T, dir string) int64 {
	t.Helper()
	fi, err := os.Stat(filepath.Join(dir, journalName))
	if err != nil {
		t.Fatal(err)
	}
	return fi.Size()
}

// TestDirectWriteSkipsJournal: a whole aligned block leaves the journal
// empty, is readable at once and survives a crash with nothing replayed.
func TestDirectWriteSkipsJournal(t *testing.T) {
	opts := Options{Dir: t.TempDir()}
	s := openT(t, opts)
	blk := bytes.Repeat([]byte{0xD1}, 2*directAlign)
	if err := s.WriteAt(fid(1), directAlign, blk); err != nil {
		t.Fatal(err)
	}
	if n := journalSize(t, opts.Dir); n != 0 {
		t.Fatalf("journal holds %d bytes after an aligned write", n)
	}
	if got := readAll(t, s, 1, directAlign, len(blk)); !bytes.Equal(got, blk) {
		t.Fatal("read-back before crash mismatch")
	}
	r := crashReopen(t, s, opts)
	defer r.Close()
	if r.Recovered() != 0 {
		t.Fatalf("Recovered = %d, want 0", r.Recovered())
	}
	if sz, _ := r.Size(fid(1)); sz != 3*directAlign {
		t.Fatalf("size = %d", sz)
	}
	if got := readAll(t, r, 1, directAlign, len(blk)); !bytes.Equal(got, blk) {
		t.Fatal("direct bytes lost across the crash")
	}
}

// TestSubBlockThenWholeBlockCrash (a): the journaled sub-block record is
// older than the direct block written over it; replay must not put it
// back.
func TestSubBlockThenWholeBlockCrash(t *testing.T) {
	opts := Options{Dir: t.TempDir()}
	s := openT(t, opts)
	if err := s.WriteAt(fid(1), 100, []byte("older journaled bytes")); err != nil {
		t.Fatal(err)
	}
	blk := bytes.Repeat([]byte{0xAB}, directAlign)
	if err := s.WriteAt(fid(1), 0, blk); err != nil {
		t.Fatal(err)
	}
	if got := readAll(t, s, 1, 0, directAlign); !bytes.Equal(got, blk) {
		t.Fatal("overlay shadows the newer direct block before the crash")
	}
	r := crashReopen(t, s, opts)
	defer r.Close()
	if got := readAll(t, r, 1, 0, directAlign); !bytes.Equal(got, blk) {
		t.Fatal("replay re-applied older journaled bytes over the direct block")
	}
}

// TestDeleteThenWholeBlockCrash (b): the journaled unlink is older than
// the direct write that recreates the file; replay must not unlink it.
func TestDeleteThenWholeBlockCrash(t *testing.T) {
	opts := Options{Dir: t.TempDir()}
	s := openT(t, opts)
	if err := s.WriteAt(fid(1), 0, bytes.Repeat([]byte{1}, 3*directAlign)); err != nil {
		t.Fatal(err)
	}
	if err := s.Delete(fid(1)); err != nil {
		t.Fatal(err)
	}
	blk := bytes.Repeat([]byte{2}, directAlign)
	if err := s.WriteAt(fid(1), 0, blk); err != nil {
		t.Fatal(err)
	}
	r := crashReopen(t, s, opts)
	defer r.Close()
	if sz, _ := r.Size(fid(1)); sz != directAlign {
		t.Fatalf("size = %d, want the recreated file's %d", sz, directAlign)
	}
	if got := readAll(t, r, 1, 0, directAlign); !bytes.Equal(got, blk) {
		t.Fatal("recreated file lost its bytes across the crash")
	}
}

// TestWholeBlockThenSubBlockCrash (c): the other order needs no
// checkpoint — the journaled bytes are the newer ones and replay lays
// them on top of the direct block.
func TestWholeBlockThenSubBlockCrash(t *testing.T) {
	opts := Options{Dir: t.TempDir()}
	s := openT(t, opts)
	want := bytes.Repeat([]byte{0xAB}, directAlign)
	if err := s.WriteAt(fid(1), 0, want); err != nil {
		t.Fatal(err)
	}
	patch := []byte("newer journaled bytes")
	if err := s.WriteAt(fid(1), 100, patch); err != nil {
		t.Fatal(err)
	}
	copy(want[100:], patch)
	r := crashReopen(t, s, opts)
	defer r.Close()
	if r.Recovered() != 1 {
		t.Fatalf("Recovered = %d, want the one sub-block record", r.Recovered())
	}
	if got := readAll(t, r, 1, 0, directAlign); !bytes.Equal(got, want) {
		t.Fatal("sub-block bytes are not on top of the direct block")
	}
}

// TestUnalignedWriteSplitsAcrossCrash (d): a 64 KB write at offset 100
// is a journaled head, a direct interior and a journaled tail; all three
// come back.
func TestUnalignedWriteSplitsAcrossCrash(t *testing.T) {
	opts := Options{Dir: t.TempDir()}
	s := openT(t, opts)
	data := make([]byte, 64<<10)
	for i := range data {
		data[i] = byte(i*13 + i>>8)
	}
	if err := s.WriteAt(fid(1), 100, data); err != nil {
		t.Fatal(err)
	}
	// Head [100, 4096) and tail [65536, 65636) are the journal's share.
	if n, want := journalSize(t, opts.Dir), int64(directAlign+2*(frameOverhead+payloadHeader)); n != want {
		t.Fatalf("journal holds %d bytes, want %d (head + tail records)", n, want)
	}
	r := crashReopen(t, s, opts)
	defer r.Close()
	if r.Recovered() != 2 {
		t.Fatalf("Recovered = %d, want 2 (head and tail)", r.Recovered())
	}
	if sz, _ := r.Size(fid(1)); sz != int64(100+len(data)) {
		t.Fatalf("size = %d", sz)
	}
	if got := readAll(t, r, 1, 100, len(data)); !bytes.Equal(got, data) {
		t.Fatal("unaligned write did not round-trip")
	}
}

// TestDirectPathModel drives random aligned and unaligned writes,
// deletes, Syncs and crash-reopens against an in-memory byte image; after
// every reopen, and at the end, each file must read back exactly.
func TestDirectPathModel(t *testing.T) {
	for _, tc := range []struct {
		name      string
		threshold int64
	}{{"default", 0}, {"threshold512", 512}} {
		t.Run(tc.name, func(t *testing.T) {
			rng := rand.New(rand.NewSource(testseed.Base(t)))
			opts := Options{Dir: t.TempDir(), FlushThreshold: tc.threshold}
			s := openT(t, opts)
			defer func() { s.Close() }()
			const files, span = 3, 12 * directAlign
			model := make(map[uint64][]byte)
			check := func(when string) {
				t.Helper()
				for id := uint64(1); id <= files; id++ {
					want := model[id]
					if sz, _ := s.Size(fid(id)); sz != int64(len(want)) {
						t.Fatalf("%s: file %d size = %d, want %d", when, id, sz, len(want))
					}
					if got := readAll(t, s, id, 0, span+directAlign); !bytes.Equal(got, want) {
						t.Fatalf("%s: file %d diverges from the model", when, id)
					}
				}
			}
			for op := 0; op < 400; op++ {
				id := uint64(1 + rng.Intn(files))
				switch k := rng.Intn(20); {
				case k == 0:
					if err := s.Delete(fid(id)); err != nil {
						t.Fatal(err)
					}
					delete(model, id)
				case k == 1:
					if err := s.Sync(); err != nil {
						t.Fatal(err)
					}
				case k == 2:
					s = crashReopen(t, s, opts)
					check("after reopen")
				default:
					off, n := rng.Intn(span), 1+rng.Intn(3*directAlign)
					if k < 10 { // aligned whole blocks
						off &^= directAlign - 1
						n = (1 + rng.Intn(3)) * directAlign
					}
					n = min(n, span-off)
					data := make([]byte, n)
					rng.Read(data)
					if err := s.WriteAt(fid(id), int64(off), data); err != nil {
						t.Fatal(err)
					}
					img := model[id]
					if len(img) < off+n {
						img = append(img, make([]byte, off+n-len(img))...)
					}
					copy(img[off:], data)
					model[id] = img
				}
				if op%16 == 0 {
					check("live")
				}
			}
			check("final")
		})
	}
}

// TestIntervalSyncsIdleTail: under SyncInterval one write followed by
// silence is fsynced within the interval by the store's timer — journal,
// shard file and directory — not left for the next operation.
func TestIntervalSyncsIdleTail(t *testing.T) {
	s := openT(t, Options{Dir: t.TempDir(), Fsync: SyncInterval, FsyncInterval: 5 * time.Millisecond})
	defer s.Close()
	unsynced := func() (bool, bool) {
		s.mu.Lock()
		defer s.mu.Unlock()
		return s.files[fid(1)].unsynced || s.dirDirty, s.syncTimer != nil
	}
	// One call, so one timer: a direct interior plus a journaled tail.
	if err := s.WriteAt(fid(1), 0, make([]byte, directAlign+10)); err != nil {
		t.Fatal(err)
	}
	if dirty, armed := unsynced(); !dirty || !armed {
		t.Fatalf("after the write: unsynced=%v timer armed=%v, want both", dirty, armed)
	}
	waitfor.Until(t, 2*time.Second, func() bool {
		dirty, armed := unsynced()
		return !dirty && !armed
	}, "the idle store fsyncs its last write")
}

// TestDirectoryFsyncOnlyOnChange: the backend directory needs an fsync
// when a shard file appears or goes, not on every checkpoint.
func TestDirectoryFsyncOnlyOnChange(t *testing.T) {
	s := openT(t, Options{Dir: t.TempDir()})
	defer s.Close()
	step := func(what string, op func() error, wantDirty bool) {
		t.Helper()
		if err := op(); err != nil {
			t.Fatalf("%s: %v", what, err)
		}
		if s.dirDirty != wantDirty {
			t.Fatalf("after %s: dirDirty = %v, want %v", what, s.dirDirty, wantDirty)
		}
	}
	blk := make([]byte, directAlign)
	step("creating write", func() error { return s.WriteAt(fid(1), 0, blk) }, true)
	step("sync", s.Sync, false)
	step("overwrite", func() error { return s.WriteAt(fid(1), 0, blk) }, false)
	step("journaled write", func() error { return s.WriteAt(fid(1), 7, []byte("x")) }, false)
	step("checkpoint", s.Sync, false)
	step("delete", func() error { return s.Delete(fid(1)) }, true)
	step("sync", s.Sync, false)
}
