package disk

// Fsync-policy micro-benchmark: the per-ack cost of one 4 KB WriteAt
// under each durability policy, on both of the engine's write paths — an
// aligned block (one positional write to the shard file) and the same
// block at offset 100 (a journal record plus its overlay copy, applied at
// checkpoint). These are the numbers behind the TUNING.md Fsync row:
// "always" pays an fsync per ack, the other two only the write syscall.
//
//	go test -run xxx -bench WriteAtFsync -benchmem ./internal/storage/disk/
import (
	"testing"
	"time"

	"pvfscache/internal/blockio"
)

func benchWriteAt(b *testing.B, pol Policy, shift int64) {
	s, err := Open(Options{Dir: b.TempDir(), Fsync: pol, FsyncInterval: 10 * time.Millisecond})
	if err != nil {
		b.Fatal(err)
	}
	b.Cleanup(func() { s.Close() })
	buf := make([]byte, 4096)
	b.SetBytes(4096)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		// Rotate over a 4 MB window so checkpoints stay realistic instead
		// of endlessly overwriting one block.
		off := int64(i%1024)*4096 + shift
		if err := s.WriteAt(blockio.FileID(1), off, buf); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkWriteAtFsyncOnClose(b *testing.B)  { benchWriteAt(b, SyncOnClose, 0) }
func BenchmarkWriteAtFsyncInterval(b *testing.B) { benchWriteAt(b, SyncInterval, 0) }
func BenchmarkWriteAtFsyncAlways(b *testing.B)   { benchWriteAt(b, SyncAlways, 0) }

// Offset 100 puts no whole aligned block inside the 4 KB range, so the
// write is journaled whole.
func BenchmarkWriteAtFsyncOnCloseSubBlock(b *testing.B)  { benchWriteAt(b, SyncOnClose, 100) }
func BenchmarkWriteAtFsyncIntervalSubBlock(b *testing.B) { benchWriteAt(b, SyncInterval, 100) }
func BenchmarkWriteAtFsyncAlwaysSubBlock(b *testing.B)   { benchWriteAt(b, SyncAlways, 100) }
