package disk

import (
	"bytes"
	"os"
	"path/filepath"
	"testing"
	"time"

	"pvfscache/internal/blockio"
)

func fid(id uint64) blockio.FileID { return blockio.FileID(id) }

func openT(t *testing.T, opts Options) *Store {
	t.Helper()
	s, err := Open(opts)
	if err != nil {
		t.Fatalf("Open(%s): %v", opts.Dir, err)
	}
	return s
}

func readAll(t *testing.T, s *Store, id uint64, off int64, n int) []byte {
	t.Helper()
	buf := make([]byte, n)
	got, err := s.ReadAt(fid(id), off, buf)
	if err != nil {
		t.Fatalf("ReadAt: %v", err)
	}
	return buf[:got]
}

// TestCrashReplayRecoversAckedWrites is the engine's core promise: every
// write acknowledged before a fail-stop is recovered byte-for-byte by
// reopening the directory, even though nothing was checkpointed. The
// payloads are sub-block, so each one is a journal record and the replay
// path is what recovers them.
func TestCrashReplayRecoversAckedWrites(t *testing.T) {
	dir := t.TempDir()
	s := openT(t, Options{Dir: dir})
	const n = directAlign - 96
	a := bytes.Repeat([]byte{7}, n)
	b := []byte("second file")
	if err := s.WriteAt(fid(1), 0, a); err != nil {
		t.Fatal(err)
	}
	if err := s.WriteAt(fid(1), 8192, a); err != nil { // sparse gap
		t.Fatal(err)
	}
	if err := s.WriteAt(fid(2), 100, b); err != nil {
		t.Fatal(err)
	}
	if err := s.Crash(); err != nil {
		t.Fatal(err)
	}
	if err := s.WriteAt(fid(1), 0, a); err == nil {
		t.Fatal("write after Crash succeeded")
	}

	r := openT(t, Options{Dir: dir})
	defer r.Close()
	if got := r.Recovered(); got != 3 {
		t.Fatalf("Recovered = %d, want 3", got)
	}
	if sz, _ := r.Size(fid(1)); sz != 8192+n {
		t.Fatalf("file 1 size = %d", sz)
	}
	if got := readAll(t, r, 1, 0, n); !bytes.Equal(got, a) {
		t.Fatal("file 1 head mismatch after replay")
	}
	gap := readAll(t, r, 1, n, 8192-n)
	for i, v := range gap {
		if v != 0 {
			t.Fatalf("gap byte %d = %d after replay", i, v)
		}
	}
	if got := readAll(t, r, 1, 8192, n); !bytes.Equal(got, a) {
		t.Fatal("file 1 tail mismatch after replay")
	}
	if got := readAll(t, r, 2, 100, len(b)); !bytes.Equal(got, b) {
		t.Fatalf("file 2 = %q", got)
	}
	// Replay checkpointed: the journal is empty again.
	if fi, err := os.Stat(filepath.Join(dir, journalName)); err != nil || fi.Size() != 0 {
		t.Fatalf("journal after replay: %v, size %d", err, fi.Size())
	}
}

// TestTornTailRecoversValidPrefix simulates a crash mid-append: the
// journal's intact prefix must replay and the torn tail must be
// discarded without error.
func TestTornTailRecoversValidPrefix(t *testing.T) {
	dir := t.TempDir()
	s := openT(t, Options{Dir: dir})
	good := []byte("acknowledged bytes")
	if err := s.WriteAt(fid(1), 0, good); err != nil {
		t.Fatal(err)
	}
	if err := s.Crash(); err != nil {
		t.Fatal(err)
	}

	// Append half of a valid record — the shape a kill leaves when the
	// process dies inside the journal write.
	var tail bytes.Buffer
	if err := appendRecord(&tail, record{kind: recWrite, id: 1, off: 4096, data: bytes.Repeat([]byte{9}, 256)}); err != nil {
		t.Fatal(err)
	}
	j, err := os.OpenFile(filepath.Join(dir, journalName), os.O_WRONLY|os.O_APPEND, 0o666)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := j.Write(tail.Bytes()[:tail.Len()/2]); err != nil {
		t.Fatal(err)
	}
	j.Close()

	r := openT(t, Options{Dir: dir})
	defer r.Close()
	if got := r.Recovered(); got != 1 {
		t.Fatalf("Recovered = %d, want 1 (torn tail must not count)", got)
	}
	if got := readAll(t, r, 1, 0, len(good)); !bytes.Equal(got, good) {
		t.Fatalf("prefix = %q", got)
	}
	// The torn record was never acknowledged, so its absence is correct.
	if sz, _ := r.Size(fid(1)); sz != int64(len(good)) {
		t.Fatalf("size = %d, want %d", sz, len(good))
	}
}

// TestCorruptTailRecoversValidPrefix flips a bit in the last record's
// data: the checksum must reject it and replay must keep the prefix.
func TestCorruptTailRecoversValidPrefix(t *testing.T) {
	dir := t.TempDir()
	s := openT(t, Options{Dir: dir})
	if err := s.WriteAt(fid(1), 0, []byte("first")); err != nil {
		t.Fatal(err)
	}
	if err := s.WriteAt(fid(1), 100, []byte("second")); err != nil {
		t.Fatal(err)
	}
	if err := s.Crash(); err != nil {
		t.Fatal(err)
	}
	path := filepath.Join(dir, journalName)
	raw, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	raw[len(raw)-6] ^= 0xFF // inside the second record's payload/crc
	if err := os.WriteFile(path, raw, 0o666); err != nil {
		t.Fatal(err)
	}

	r := openT(t, Options{Dir: dir})
	defer r.Close()
	if got := r.Recovered(); got != 1 {
		t.Fatalf("Recovered = %d, want 1", got)
	}
	if got := readAll(t, r, 1, 0, 5); !bytes.Equal(got, []byte("first")) {
		t.Fatalf("prefix = %q", got)
	}
}

// TestDeleteReplay: delete records replay too — a file deleted before
// the crash stays deleted, and a post-delete write recreates it.
func TestDeleteReplay(t *testing.T) {
	dir := t.TempDir()
	s := openT(t, Options{Dir: dir})
	if err := s.WriteAt(fid(1), 0, []byte("old")); err != nil {
		t.Fatal(err)
	}
	if err := s.Delete(fid(1)); err != nil {
		t.Fatal(err)
	}
	if err := s.WriteAt(fid(1), 0, []byte("new")); err != nil {
		t.Fatal(err)
	}
	if err := s.WriteAt(fid(2), 0, []byte("gone")); err != nil {
		t.Fatal(err)
	}
	if err := s.Delete(fid(2)); err != nil {
		t.Fatal(err)
	}
	if err := s.Crash(); err != nil {
		t.Fatal(err)
	}

	r := openT(t, Options{Dir: dir})
	defer r.Close()
	if got := readAll(t, r, 1, 0, 3); !bytes.Equal(got, []byte("new")) {
		t.Fatalf("file 1 = %q", got)
	}
	if sz, _ := r.Size(fid(2)); sz != 0 {
		t.Fatalf("deleted file 2 came back, size %d", sz)
	}
}

// TestCheckpointTruncatesJournal: crossing the flush threshold applies
// the overlay to the data files and empties the journal, and the data
// survives a crash after the checkpoint with zero replayed records.
func TestCheckpointTruncatesJournal(t *testing.T) {
	dir := t.TempDir()
	s := openT(t, Options{Dir: dir, FlushThreshold: 1024})
	payload := bytes.Repeat([]byte{3}, 2048) // crosses the threshold in one write
	if err := s.WriteAt(fid(1), 0, payload); err != nil {
		t.Fatal(err)
	}
	if fi, err := os.Stat(filepath.Join(dir, journalName)); err != nil || fi.Size() != 0 {
		t.Fatalf("journal not truncated after checkpoint: %v, size %d", err, fi.Size())
	}
	if fi, err := os.Stat(filepath.Join(dir, "f-0000000000000001.dat")); err != nil || fi.Size() != 2048 {
		t.Fatalf("data file: %v, size %d", err, fi.Size())
	}
	if got := readAll(t, s, 1, 0, 2048); !bytes.Equal(got, payload) {
		t.Fatal("read-back after checkpoint mismatch")
	}
	if err := s.Crash(); err != nil {
		t.Fatal(err)
	}
	r := openT(t, Options{Dir: dir, FlushThreshold: 1024})
	defer r.Close()
	if got := r.Recovered(); got != 0 {
		t.Fatalf("Recovered = %d, want 0 (checkpointed state needs no replay)", got)
	}
	if got := readAll(t, r, 1, 0, 2048); !bytes.Equal(got, payload) {
		t.Fatal("checkpointed bytes lost")
	}
}

// TestCloseReopen: a clean Close is the strongest durability point —
// everything lands in the data files regardless of policy.
func TestCloseReopen(t *testing.T) {
	dir := t.TempDir()
	s := openT(t, Options{Dir: dir})
	payload := []byte("closed cleanly")
	if err := s.WriteAt(fid(1), 0, payload); err != nil {
		t.Fatal(err)
	}
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}
	r := openT(t, Options{Dir: dir})
	defer r.Close()
	if got := r.Recovered(); got != 0 {
		t.Fatalf("Recovered = %d after clean close", got)
	}
	if got := readAll(t, r, 1, 0, len(payload)); !bytes.Equal(got, payload) {
		t.Fatalf("after reopen: %q", got)
	}
}

func TestPolicies(t *testing.T) {
	cases := []struct {
		in   string
		want Policy
		err  bool
	}{
		{"", SyncOnClose, false},
		{"onclose", SyncOnClose, false},
		{"interval", SyncInterval, false},
		{"osync", SyncAlways, false},
		{"always", SyncAlways, false},
		{"OSYNC", SyncAlways, false},
		{"bogus", SyncOnClose, true},
	}
	for _, c := range cases {
		got, err := ParsePolicy(c.in)
		if (err != nil) != c.err || got != c.want {
			t.Errorf("ParsePolicy(%q) = %v, %v", c.in, got, err)
		}
	}
	for _, p := range []Policy{SyncOnClose, SyncInterval, SyncAlways} {
		rt, err := ParsePolicy(p.String())
		if err != nil || rt != p {
			t.Errorf("round-trip %v: %v, %v", p, rt, err)
		}
	}
}

// TestFsyncPoliciesWriteThrough exercises each policy end to end; the
// test can't power-cycle the machine, so it asserts the shared process-
// crash durability (journal pushed to the OS per ack) holds under all
// three.
func TestFsyncPoliciesWriteThrough(t *testing.T) {
	for _, p := range []Policy{SyncOnClose, SyncInterval, SyncAlways} {
		t.Run(p.String(), func(t *testing.T) {
			dir := t.TempDir()
			s := openT(t, Options{Dir: dir, Fsync: p, FsyncInterval: time.Millisecond})
			payload := []byte("policy bytes")
			if err := s.WriteAt(fid(1), 0, payload); err != nil {
				t.Fatal(err)
			}
			time.Sleep(2 * time.Millisecond)
			if err := s.WriteAt(fid(1), 64, payload); err != nil { // interval path fires here
				t.Fatal(err)
			}
			if err := s.Crash(); err != nil {
				t.Fatal(err)
			}
			r := openT(t, Options{Dir: dir})
			defer r.Close()
			if got := readAll(t, r, 1, 64, len(payload)); !bytes.Equal(got, payload) {
				t.Fatalf("policy %v lost acked bytes: %q", p, got)
			}
		})
	}
}

// TestReopenWriteThenReadSeesDurableBytes is the regression for the
// lazy-open bug: after a clean Close/Open, a small staged write must
// not hide the durable on-disk bytes outside the overlay.
func TestReopenWriteThenReadSeesDurableBytes(t *testing.T) {
	dir := t.TempDir()
	s := openT(t, Options{Dir: dir})
	payload := bytes.Repeat([]byte{5}, 4096)
	if err := s.WriteAt(fid(1), 0, payload); err != nil {
		t.Fatal(err)
	}
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}

	r := openT(t, Options{Dir: dir})
	defer r.Close()
	// Stage an overlay write before any read: the data file is not open
	// yet, and the read below must still serve the durable bytes.
	if err := r.WriteAt(fid(1), 10, []byte{0xAA, 0xBB}); err != nil {
		t.Fatal(err)
	}
	want := bytes.Repeat([]byte{5}, 4096)
	want[10], want[11] = 0xAA, 0xBB
	if got := readAll(t, r, 1, 0, 4096); !bytes.Equal(got, want) {
		t.Fatal("durable bytes hidden by post-reopen overlay write")
	}
}

// TestDeleteHeavyWorkloadCheckpoints: delete records must count toward
// the checkpoint trigger so the journal cannot grow without bound on a
// delete-only workload.
func TestDeleteHeavyWorkloadCheckpoints(t *testing.T) {
	dir := t.TempDir()
	s := openT(t, Options{Dir: dir, FlushThreshold: 4 * deleteRecordCost})
	defer s.Close()
	for i := uint64(1); i <= 16; i++ {
		if err := s.WriteAt(fid(i), 0, []byte{1}); err != nil {
			t.Fatal(err)
		}
	}
	for i := uint64(1); i <= 16; i++ {
		if err := s.Delete(fid(i)); err != nil {
			t.Fatal(err)
		}
	}
	fi, err := os.Stat(filepath.Join(dir, journalName))
	if err != nil {
		t.Fatal(err)
	}
	// 16 deletes at FlushThreshold = 4 records: several checkpoints must
	// have fired, so the journal holds at most a threshold's worth.
	if fi.Size() > 4*deleteRecordCost {
		t.Fatalf("journal grew to %d bytes under delete-only load", fi.Size())
	}
}

func TestOpenRequiresDir(t *testing.T) {
	if _, err := Open(Options{}); err == nil {
		t.Fatal("Open without Dir succeeded")
	}
}
