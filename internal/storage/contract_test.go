package storage_test

import (
	"bytes"
	"fmt"
	"math"
	"sync"
	"testing"

	"pvfscache/internal/blockio"
	"pvfscache/internal/storage"
	"pvfscache/internal/storage/disk"
	"pvfscache/internal/storage/mem"
)

// backends returns a factory per implementation; every contract test
// runs against both so the two backends cannot drift apart on
// semantics the iod depends on.
func backends(t *testing.T) map[string]func(t *testing.T) storage.Backend {
	return map[string]func(t *testing.T) storage.Backend{
		"mem": func(t *testing.T) storage.Backend { return mem.New() },
		"disk": func(t *testing.T) storage.Backend {
			s, err := disk.Open(disk.Options{Dir: t.TempDir()})
			if err != nil {
				t.Fatalf("disk.Open: %v", err)
			}
			return s
		},
		// A small flush threshold forces checkpoints mid-test, so reads
		// exercise the data-file + overlay merge path, not just the overlay.
		"disk-tiny-threshold": func(t *testing.T) storage.Backend {
			s, err := disk.Open(disk.Options{Dir: t.TempDir(), FlushThreshold: 512})
			if err != nil {
				t.Fatalf("disk.Open: %v", err)
			}
			return s
		},
	}
}

func runContract(t *testing.T, name string, fn func(t *testing.T, b storage.Backend)) {
	for impl, mk := range backends(t) {
		t.Run(name+"/"+impl, func(t *testing.T) {
			b := mk(t)
			defer b.Close()
			fn(t, b)
		})
	}
}

func TestContractAbsentFile(t *testing.T) {
	runContract(t, "absent", func(t *testing.T, b storage.Backend) {
		buf := make([]byte, 64)
		if n, err := b.ReadAt(99, 0, buf); n != 0 || err != nil {
			t.Fatalf("ReadAt(absent) = %d, %v; want 0, nil", n, err)
		}
		if sz, err := b.Size(99); sz != 0 || err != nil {
			t.Fatalf("Size(absent) = %d, %v; want 0, nil", sz, err)
		}
		if err := b.Delete(99); err != nil {
			t.Fatalf("Delete(absent) = %v; want nil", err)
		}
	})
}

func TestContractSparseGapReadsZero(t *testing.T) {
	runContract(t, "sparse", func(t *testing.T, b storage.Backend) {
		head := []byte("head-bytes")
		tail := []byte("tail-bytes")
		const gapAt = 8192
		if err := b.WriteAt(1, 0, head); err != nil {
			t.Fatal(err)
		}
		if err := b.WriteAt(1, gapAt, tail); err != nil {
			t.Fatal(err)
		}
		if sz, _ := b.Size(1); sz != gapAt+int64(len(tail)) {
			t.Fatalf("Size = %d, want %d", sz, gapAt+len(tail))
		}
		got := make([]byte, gapAt+len(tail))
		for i := range got {
			got[i] = 0xAA // poison: zeros must come from the backend
		}
		n, err := b.ReadAt(1, 0, got)
		if err != nil || n != len(got) {
			t.Fatalf("ReadAt = %d, %v", n, err)
		}
		if !bytes.Equal(got[:len(head)], head) {
			t.Fatalf("head = %q", got[:len(head)])
		}
		for i := len(head); i < gapAt; i++ {
			if got[i] != 0 {
				t.Fatalf("gap byte %d = %#x, want 0", i, got[i])
			}
		}
		if !bytes.Equal(got[gapAt:], tail) {
			t.Fatalf("tail = %q", got[gapAt:])
		}
	})
}

func TestContractShortReadPastEOF(t *testing.T) {
	runContract(t, "shortread", func(t *testing.T, b storage.Backend) {
		data := []byte("0123456789")
		if err := b.WriteAt(2, 0, data); err != nil {
			t.Fatal(err)
		}
		buf := make([]byte, 64)
		if n, err := b.ReadAt(2, 0, buf); n != len(data) || err != nil {
			t.Fatalf("ReadAt over EOF = %d, %v; want %d, nil", n, err, len(data))
		}
		if !bytes.Equal(buf[:len(data)], data) {
			t.Fatalf("data = %q", buf[:len(data)])
		}
		if n, err := b.ReadAt(2, 4, buf); n != len(data)-4 || err != nil {
			t.Fatalf("ReadAt mid = %d, %v; want %d, nil", n, err, len(data)-4)
		}
		if n, err := b.ReadAt(2, int64(len(data)), buf); n != 0 || err != nil {
			t.Fatalf("ReadAt at EOF = %d, %v; want 0, nil", n, err)
		}
		if n, err := b.ReadAt(2, 1000, buf); n != 0 || err != nil {
			t.Fatalf("ReadAt past EOF = %d, %v; want 0, nil", n, err)
		}
	})
}

// TestContractNegativeOffsetIsAnError: offsets reach the backend straight
// off the wire, so a hostile one must fail the call, not panic the daemon,
// and leave the file as it was.
func TestContractNegativeOffsetIsAnError(t *testing.T) {
	runContract(t, "negative-offset", func(t *testing.T, b storage.Backend) {
		data := []byte("0123456789")
		if err := b.WriteAt(7, 0, data); err != nil {
			t.Fatal(err)
		}
		if err := b.WriteAt(7, -8, []byte("hostile-write")); err == nil {
			t.Fatal("WriteAt at offset -8 succeeded")
		}
		buf := make([]byte, 16)
		for _, id := range []blockio.FileID{7, 99} { // an existing file and an absent one
			if n, err := b.ReadAt(id, -1, buf); err == nil {
				t.Fatalf("ReadAt(file %d) at offset -1 = %d, nil; want an error", id, n)
			}
		}
		if n, err := b.ReadAt(7, 0, buf); n != len(data) || err != nil || !bytes.Equal(buf[:n], data) {
			t.Fatalf("ReadAt after the rejected calls = %d, %v, %q", n, err, buf[:n])
		}
	})
}

// TestContractOverflowingRangeIsAnError: a range whose end overflows
// int64 is as hostile as a negative offset. It must fail the call, not
// panic the daemon, and leave the file as it was.
func TestContractOverflowingRangeIsAnError(t *testing.T) {
	runContract(t, "overflowing-range", func(t *testing.T, b storage.Backend) {
		data := []byte("0123456789")
		if err := b.WriteAt(1, 0, data); err != nil {
			t.Fatal(err)
		}
		for _, c := range []struct {
			off int64
			n   int
		}{{math.MaxInt64 - 1, 4}, {math.MaxInt64 - 8191, 8192}, {math.MaxInt64, 1}} {
			if err := b.WriteAt(1, c.off, make([]byte, c.n)); err == nil {
				t.Fatalf("WriteAt of %d bytes at %d succeeded", c.n, c.off)
			}
			if n, err := b.ReadAt(1, c.off, make([]byte, c.n)); err == nil {
				t.Fatalf("ReadAt of %d bytes at %d = %d, nil; want an error", c.n, c.off, n)
			}
		}
		if sz, err := b.Size(1); sz != int64(len(data)) || err != nil {
			t.Fatalf("Size after the rejected calls = %d, %v; want %d", sz, err, len(data))
		}
		buf := make([]byte, 16)
		if n, err := b.ReadAt(1, 0, buf); n != len(data) || err != nil || !bytes.Equal(buf[:n], data) {
			t.Fatalf("ReadAt after the rejected calls = %d, %v, %q", n, err, buf[:n])
		}
	})
}

// TestContractFarOffsetIsSparse: a write far past the end costs the
// bytes written, not the offset — on the mem engine a contiguous buffer
// made this an out-of-memory crash — and the hole below it reads as
// zeros written into the caller's buffer.
func TestContractFarOffsetIsSparse(t *testing.T) {
	runContract(t, "far-offset", func(t *testing.T, b storage.Backend) {
		const far = int64(1) << 40
		data := []byte("far-away-bytes")
		if err := b.WriteAt(2, far, data); err != nil {
			t.Fatalf("WriteAt at 1<<40: %v", err)
		}
		if sz, err := b.Size(2); sz != far+int64(len(data)) || err != nil {
			t.Fatalf("Size = %d, %v; want %d", sz, err, far+int64(len(data)))
		}
		got := make([]byte, len(data))
		if n, err := b.ReadAt(2, far, got); n != len(data) || err != nil || !bytes.Equal(got, data) {
			t.Fatalf("ReadAt(1<<40) = %d, %v, %q", n, err, got[:n])
		}
		const span = 8192
		tail := far + int64(len(data)) - span // the hole's last bytes, then data
		for _, off := range []int64{0, far / 2, tail} {
			gap := bytes.Repeat([]byte{0xAA}, span) // poison: zeros must come from the backend
			n, err := b.ReadAt(2, off, gap)
			if n != len(gap) || err != nil {
				t.Fatalf("ReadAt(gap at %d) = %d, %v", off, n, err)
			}
			want := make([]byte, span)
			if off == tail {
				copy(want[span-len(data):], data)
			}
			if !bytes.Equal(gap, want) {
				t.Fatalf("gap read at %d is not zeros (then the written bytes)", off)
			}
		}
	})
}

func TestContractOverwrite(t *testing.T) {
	runContract(t, "overwrite", func(t *testing.T, b storage.Backend) {
		if err := b.WriteAt(3, 0, bytes.Repeat([]byte{1}, 100)); err != nil {
			t.Fatal(err)
		}
		if err := b.WriteAt(3, 25, bytes.Repeat([]byte{2}, 50)); err != nil {
			t.Fatal(err)
		}
		got := make([]byte, 100)
		if n, _ := b.ReadAt(3, 0, got); n != 100 {
			t.Fatalf("n = %d", n)
		}
		for i, v := range got {
			want := byte(1)
			if i >= 25 && i < 75 {
				want = 2
			}
			if v != want {
				t.Fatalf("byte %d = %d, want %d", i, v, want)
			}
		}
		if sz, _ := b.Size(3); sz != 100 {
			t.Fatalf("Size = %d after interior overwrite, want 100", sz)
		}
	})
}

func TestContractConcurrentExtendingWrites(t *testing.T) {
	runContract(t, "concurrent-extend", func(t *testing.T, b storage.Backend) {
		const (
			writers = 4
			chunks  = 32
			chunk   = 1024
		)
		var wg sync.WaitGroup
		for w := 0; w < writers; w++ {
			wg.Add(1)
			go func(w int) {
				defer wg.Done()
				buf := make([]byte, chunk)
				for c := 0; c < chunks; c++ {
					idx := c*writers + w // interleaved so extension order races
					for i := range buf {
						buf[i] = byte(idx)
					}
					if err := b.WriteAt(4, int64(idx)*chunk, buf); err != nil {
						t.Errorf("WriteAt(%d): %v", idx, err)
						return
					}
				}
			}(w)
		}
		wg.Wait()
		if t.Failed() {
			return
		}
		total := writers * chunks
		if sz, _ := b.Size(4); sz != int64(total*chunk) {
			t.Fatalf("Size = %d, want %d", sz, total*chunk)
		}
		got := make([]byte, chunk)
		for idx := 0; idx < total; idx++ {
			if n, err := b.ReadAt(4, int64(idx)*chunk, got); n != chunk || err != nil {
				t.Fatalf("ReadAt(%d) = %d, %v", idx, n, err)
			}
			for i, v := range got {
				if v != byte(idx) {
					t.Fatalf("chunk %d byte %d = %d, want %d", idx, i, v, byte(idx))
				}
			}
		}
	})
}

func TestContractSizeDeleteOrdering(t *testing.T) {
	runContract(t, "delete-ordering", func(t *testing.T, b storage.Backend) {
		if err := b.WriteAt(5, 0, []byte("doomed")); err != nil {
			t.Fatal(err)
		}
		if err := b.Delete(5); err != nil {
			t.Fatal(err)
		}
		// Once Delete returned, the file is absent.
		if sz, _ := b.Size(5); sz != 0 {
			t.Fatalf("Size after Delete = %d, want 0", sz)
		}
		buf := make([]byte, 16)
		if n, _ := b.ReadAt(5, 0, buf); n != 0 {
			t.Fatalf("ReadAt after Delete = %d, want 0", n)
		}
		// A write issued after Delete returned recreates the file — the
		// ordering contract's core clause.
		if err := b.WriteAt(5, 0, []byte("reborn")); err != nil {
			t.Fatal(err)
		}
		if n, _ := b.ReadAt(5, 0, buf); n != 6 || !bytes.Equal(buf[:6], []byte("reborn")) {
			t.Fatalf("write after delete not observable: %d %q", n, buf[:n])
		}
	})
}

// TestContractDeleteWriteRaceStress is the cross-backend half of the
// PR 8 delete/write race regression: racing writers and deleters must
// never strand an acknowledged write on a detached object, and a write
// issued after the race quiesces must always be observable.
func TestContractDeleteWriteRaceStress(t *testing.T) {
	runContract(t, "delete-race", func(t *testing.T, b storage.Backend) {
		var wg sync.WaitGroup
		for g := 0; g < 4; g++ {
			wg.Add(1)
			go func(g int) {
				defer wg.Done()
				buf := make([]byte, 128)
				for i := 0; i < 200; i++ {
					switch (g + i) % 3 {
					case 0:
						if err := b.WriteAt(6, int64(i%4)*128, buf); err != nil {
							t.Errorf("WriteAt: %v", err)
							return
						}
					case 1:
						if err := b.Delete(6); err != nil {
							t.Errorf("Delete: %v", err)
							return
						}
					default:
						if _, err := b.ReadAt(6, 0, buf); err != nil {
							t.Errorf("ReadAt: %v", err)
							return
						}
					}
				}
			}(g)
		}
		wg.Wait()
		if t.Failed() {
			return
		}
		final := []byte("must-survive")
		if err := b.WriteAt(6, 0, final); err != nil {
			t.Fatal(err)
		}
		got := make([]byte, len(final))
		if n, _ := b.ReadAt(6, 0, got); n != len(final) || !bytes.Equal(got, final) {
			t.Fatalf("final write vanished: %d %q", n, got[:n])
		}
	})
}

func TestContractManyFiles(t *testing.T) {
	runContract(t, "many-files", func(t *testing.T, b storage.Backend) {
		for id := blockio.FileID(1); id <= 16; id++ {
			payload := []byte(fmt.Sprintf("file-%d", id))
			if err := b.WriteAt(id, int64(id)*32, payload); err != nil {
				t.Fatal(err)
			}
		}
		if err := b.Sync(); err != nil {
			t.Fatalf("Sync: %v", err)
		}
		for id := blockio.FileID(1); id <= 16; id++ {
			want := []byte(fmt.Sprintf("file-%d", id))
			got := make([]byte, len(want))
			if n, err := b.ReadAt(id, int64(id)*32, got); n != len(want) || err != nil || !bytes.Equal(got, want) {
				t.Fatalf("file %d: %d %v %q", id, n, err, got[:n])
			}
		}
	})
}
