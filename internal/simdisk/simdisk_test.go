package simdisk

import (
	"bytes"
	"math/rand"
	"sync"
	"testing"
	"testing/quick"
	"time"

	"pvfscache/internal/blockio"
)

func TestStoreReadWriteRoundTrip(t *testing.T) {
	s := NewStore()
	data := []byte("the quick brown fox")
	s.WriteAt(1, 100, data)

	buf := make([]byte, len(data))
	n := s.ReadAt(1, 100, buf)
	if n != len(data) || !bytes.Equal(buf, data) {
		t.Fatalf("got %d bytes %q", n, buf[:n])
	}
	if s.Size(1) != 100+int64(len(data)) {
		t.Errorf("size = %d", s.Size(1))
	}
}

func TestStoreSparseReadIsZeroFilled(t *testing.T) {
	s := NewStore()
	s.WriteAt(1, 8192, []byte{0xFF})
	buf := make([]byte, 16)
	n := s.ReadAt(1, 0, buf)
	if n != 16 {
		t.Fatalf("n = %d", n)
	}
	for i, b := range buf {
		if b != 0 {
			t.Fatalf("byte %d = %x, want 0 (sparse hole)", i, b)
		}
	}
}

// A hole inside the size reads as zeros written into the caller's
// buffer: the iod reads into pooled buffers that still hold an earlier
// response's bytes, so skipping a hole would leak them.
func TestStoreHoleReadClearsDirtyBuffer(t *testing.T) {
	s := NewStore()
	s.WriteAt(1, 10, []byte("head"))           // page 0, partly written
	s.WriteAt(1, 3*pageSize+5, []byte("tail")) // pages 1 and 2 are holes
	size := s.Size(1)
	buf := bytes.Repeat([]byte{0xAA}, int(size)+100)
	if n := s.ReadAt(1, 0, buf); int64(n) != size {
		t.Fatalf("n = %d, want %d", n, size)
	}
	want := make([]byte, size)
	copy(want[10:], "head")
	copy(want[3*pageSize+5:], "tail")
	if !bytes.Equal(buf[:size], want) {
		t.Fatal("hole bytes were not cleared in the caller's buffer")
	}
	if buf[size] != 0xAA {
		t.Fatal("ReadAt wrote past the bytes it returned")
	}
}

// Writes and reads that straddle page edges agree with a flat reference.
func TestStorePageStraddleMatchesReference(t *testing.T) {
	s := NewStore()
	ref := make([]byte, 6*pageSize)
	rng := rand.New(rand.NewSource(1))
	for i := 0; i < 500; i++ {
		off := rng.Intn(len(ref) - 1)
		if i%2 == 0 { // pin half the writes to a page edge
			off = (1+rng.Intn(4))*pageSize - rng.Intn(3)
		}
		p := make([]byte, 1+rng.Intn(min(len(ref)-off, 2*pageSize+2)))
		rng.Read(p)
		s.WriteAt(4, int64(off), p)
		copy(ref[off:], p)
	}
	size := int(s.Size(4))
	for i := 0; i < 500; i++ {
		off := rng.Intn(size)
		buf := bytes.Repeat([]byte{0xAA}, 1+rng.Intn(2*pageSize+2))
		n := s.ReadAt(4, int64(off), buf)
		if want := min(len(buf), size-off); n != want {
			t.Fatalf("ReadAt(%d, %d) = %d, want %d", off, len(buf), n, want)
		}
		if !bytes.Equal(buf[:n], ref[off:off+n]) {
			t.Fatalf("ReadAt(%d, %d) differs from the reference", off, len(buf))
		}
	}
}

// ResidentBytes counts the pages written, whatever the offsets, and
// Delete releases them.
func TestStoreResidentBytesCountsWrittenPages(t *testing.T) {
	s := NewStore()
	steps := []struct {
		id    blockio.FileID
		off   int64
		n     int
		pages int64 // held after the step
	}{
		{1, 0, 1, 1},                     // first byte: one page
		{1, 100, 200, 1},                 // same page
		{1, pageSize - 1, 2, 2},          // straddles into page 1
		{1, 1 << 40, 10, 3},              // far offset: one page
		{2, 16 * pageSize, 16 << 10, 7},  // an aligned 16 KB: 4 pages
		{2, 64 * pageSize, 64 << 10, 23}, // a 64 KB strip: 16 pages
	}
	for _, st := range steps {
		s.WriteAt(st.id, st.off, make([]byte, st.n))
		if got := s.ResidentBytes(); got != st.pages*pageSize {
			t.Fatalf("after %d bytes at %d of file %d: ResidentBytes = %d, want %d",
				st.n, st.off, st.id, got, st.pages*pageSize)
		}
	}
	s.Delete(1)
	if got := s.ResidentBytes(); got != 20*pageSize {
		t.Fatalf("after Delete(1): ResidentBytes = %d, want %d", got, 20*pageSize)
	}
	s.Delete(2)
	if got := s.ResidentBytes(); got != 0 {
		t.Fatalf("after deleting every file: ResidentBytes = %d, want 0", got)
	}
}

func TestStoreReadPastEndShort(t *testing.T) {
	s := NewStore()
	s.WriteAt(2, 0, []byte("abc"))
	buf := make([]byte, 10)
	if n := s.ReadAt(2, 0, buf); n != 3 {
		t.Errorf("n = %d, want 3", n)
	}
	if n := s.ReadAt(2, 5, buf); n != 0 {
		t.Errorf("read past end n = %d, want 0", n)
	}
	if n := s.ReadAt(99, 0, buf); n != 0 {
		t.Errorf("read missing file n = %d, want 0", n)
	}
}

func TestStoreOverwrite(t *testing.T) {
	s := NewStore()
	s.WriteAt(1, 0, []byte("aaaaaa"))
	s.WriteAt(1, 2, []byte("BB"))
	buf := make([]byte, 6)
	s.ReadAt(1, 0, buf)
	if string(buf) != "aaBBaa" {
		t.Errorf("got %q", buf)
	}
}

func TestStoreDelete(t *testing.T) {
	s := NewStore()
	s.WriteAt(1, 0, []byte("x"))
	if s.Files() != 1 {
		t.Fatalf("files = %d", s.Files())
	}
	s.Delete(1)
	if s.Files() != 0 || s.Size(1) != 0 {
		t.Error("delete did not remove file")
	}
}

func TestStoreEmptyWriteNoop(t *testing.T) {
	s := NewStore()
	s.WriteAt(1, 100, nil)
	if s.Files() != 0 {
		t.Error("empty write created a file")
	}
}

func TestStoreConcurrentDisjointWriters(t *testing.T) {
	s := NewStore()
	const writers = 8
	const chunk = 1024
	var wg sync.WaitGroup
	for w := 0; w < writers; w++ {
		wg.Add(1)
		go func(id int) {
			defer wg.Done()
			data := bytes.Repeat([]byte{byte(id + 1)}, chunk)
			s.WriteAt(7, int64(id*chunk), data)
		}(w)
	}
	wg.Wait()
	buf := make([]byte, chunk)
	for w := 0; w < writers; w++ {
		s.ReadAt(7, int64(w*chunk), buf)
		for i, b := range buf {
			if b != byte(w+1) {
				t.Fatalf("writer %d byte %d = %x", w, i, b)
			}
		}
	}
}

// Property: a write followed by a read of the same range returns the data.
func TestStoreWriteReadProperty(t *testing.T) {
	s := NewStore()
	f := func(off uint16, data []byte) bool {
		if len(data) == 0 {
			return true
		}
		s.WriteAt(3, int64(off), data)
		buf := make([]byte, len(data))
		n := s.ReadAt(3, int64(off), buf)
		return n == len(data) && bytes.Equal(buf, data)
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func TestModelSequentialSkipsSeek(t *testing.T) {
	m := DefaultModel()
	first := m.AccessTime(1, 0, 4096)
	second := m.AccessTime(1, 4096, 4096) // continues where first ended
	third := m.AccessTime(1, 1<<20, 4096) // jumps away

	if first <= second {
		t.Errorf("first access %v should pay seek, sequential %v should not", first, second)
	}
	wantSeq := m.TransferTime(4096)
	if second != wantSeq {
		t.Errorf("sequential access = %v, want pure transfer %v", second, wantSeq)
	}
	if third != m.AvgSeek+m.AvgRotation+wantSeq {
		t.Errorf("random access = %v", third)
	}
}

func TestModelDifferentFileBreaksSequentiality(t *testing.T) {
	m := DefaultModel()
	m.AccessTime(1, 0, 4096)
	d := m.AccessTime(2, 4096, 4096)
	if d == m.TransferTime(4096) {
		t.Error("access to a different file must pay positioning time")
	}
}

func TestModelReset(t *testing.T) {
	m := DefaultModel()
	m.AccessTime(1, 0, 4096)
	m.Reset()
	d := m.AccessTime(1, 4096, 4096)
	if d == m.TransferTime(4096) {
		t.Error("reset should clear sequential state")
	}
}

func TestModelTransferTimeScalesLinearly(t *testing.T) {
	m := DefaultModel()
	t1 := m.TransferTime(1 << 20)
	t2 := m.TransferTime(2 << 20)
	if t2 < t1*2-time.Microsecond || t2 > t1*2+time.Microsecond {
		t.Errorf("transfer not linear: %v vs %v", t1, t2)
	}
	if m.TransferTime(0) != 0 || m.TransferTime(-5) != 0 {
		t.Error("non-positive length should cost zero")
	}
}

func TestModelZeroRateNoPanic(t *testing.T) {
	m := &Model{AvgSeek: time.Millisecond}
	if m.TransferTime(100) != 0 {
		t.Error("zero rate should cost zero transfer")
	}
}
