package cluster

import (
	"testing"
	"time"

	"pvfscache/internal/cachemod"
	"pvfscache/internal/pvfs"
)

// The allocation ceilings of the two canonical cached operations, measured
// through the whole client stack — pvfs.File → cache-module transport →
// buffer manager — on a live in-process cluster. buffer's
// TestRequestPathAllocatesNothing pins the innermost layer at zero; these
// pin what the layers above it add. The counts are deterministic and do not
// depend on GOMAXPROCS (AllocsPerRun pins it to 1), so a test fails on the
// change that adds an allocation, not on a later benchmark run. A ceiling
// only ever moves down: lower it in the change that removes an allocation.
//
// The five request shapes are zero: libpvfs plans every operation in its
// client's one scratch (pvfs.opScratch), the transport keeps its FSM state
// by value or recycled, and status-only replies are shared messages. The
// shapes differ in what they make the scratch and the transport carry. The
// last two, a write-behind drain round and a cold miss, are not zero: they
// count a round trip to the iod and the iod's work as well.
const (
	// cachedReadAllocs is pvfsperf's hit_shared allocs_per_op: one piece,
	// one plain Read, a full hit (11 before the scratch).
	cachedReadAllocs = 0
	// stripedReadAllocs: 256 KB = 4 pieces over 4 iods, 4 plain Reads.
	stripedReadAllocs = 0
	// vectoredReadAllocs: 512 KB = 2 striping cycles, so each iod gets one
	// ReadBlocks of 2 extents.
	vectoredReadAllocs = 0
	// bufferedWriteAllocs: one piece, one Write, a faked ack (6 before the
	// scratch).
	bufferedWriteAllocs = 0
	// hintedReadAllocs: cachedReadAllocs' read on a file carrying every
	// per-open hint — a tenant tag charged against a fetch budget and a
	// must-cache policy — so the module's per-file record is on the path.
	hintedReadAllocs = 0
	// flushDrainAllocs: one 64 KB rewrite, drained as one Flush frame to
	// one iod by FlushAll (51 before each flush stream reused its take
	// and framing storage, 12 while FlushAll's every wake-up made a
	// channel, a timer and its closure, 10 while the round trip started a
	// server goroutine and made a reply channel). The take and the
	// framing allocate nothing. A heap profile at -memprofilerate 1 puts
	// 4.25 of the rest on these sites: the chunk's sender goroutine
	// (flushStream.sendChunks, 1), the progress channel FlushAll waits on
	// (progress.next, 1), the iod's decode of the Flush (struct 1, block
	// list 1) and its FlushAck (a tiny allocation, 0.25); it names no
	// site for the last.
	flushDrainAllocs = 6
	// coldMissAllocs: a 64 KB read of 16 missing blocks, fetched as one
	// run (48 before fetch states, slabs and the fetch scratch were
	// recycled, 11 while the round trip started a server goroutine, made
	// a reply channel and a response lease and the iod made its reply).
	// The cache module, rpc's dispatch, reply slots and leases and the
	// iod's reply allocate nothing. A heap profile at -memprofilerate 1
	// puts 3.25 of the rest on the wire decodes: the iod's decode of the
	// ReadBlocks (struct 1, extent list 1) and the client's decode of the
	// reply (struct 1, lengths every fourth call); it names no site for
	// the last.
	coldMissAllocs = 4
)

// allocCluster boots one caching node whose flusher stays quiet for the
// length of a test, so that every allocation counted belongs to the
// measured call, and returns it, a process on it and a 1 MB file written
// and flushed through it. The fetch budget only ever charges tagged files.
func allocCluster(t *testing.T) (*Cluster, *pvfs.Client, *pvfs.File) {
	t.Helper()
	c := startTest(t, Config{IODs: 4, ClientNodes: 1, Caching: true, FlushPeriod: time.Hour,
		Module: cachemod.Config{TenantFetchBudget: 64}})
	p, err := c.NewProcess(0)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { p.Close() })
	f, err := p.Create("alloc.dat", pvfs.StripeSpec{})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := f.WriteAt(make([]byte, 1<<20), 0); err != nil {
		t.Fatal(err)
	}
	if err := c.Module(0).FlushAll(); err != nil {
		t.Fatal(err)
	}
	return c, p, f
}

// checkAllocs fails on growth past the ceiling, and on a count below it so
// that the ceiling follows an improvement down instead of leaving slack.
func checkAllocs(t *testing.T, what string, got float64, ceiling int) {
	t.Helper()
	switch {
	case got > float64(ceiling):
		t.Fatalf("%s allocates %v times a call, ceiling %d", what, got, ceiling)
	case got < float64(ceiling):
		t.Fatalf("%s allocates %v times a call, below its ceiling of %d: lower the ceiling", what, got, ceiling)
	}
}

func TestCachedReadAllocCeiling(t *testing.T) {
	_, _, f := allocCluster(t)
	buf := make([]byte, 16<<10)
	n := testing.AllocsPerRun(500, func() { // the warm-up run makes the blocks resident
		if _, err := f.ReadAt(buf, 64<<10); err != nil {
			t.Fatal(err)
		}
	})
	checkAllocs(t, "a warm 16 KB cached ReadAt", n, cachedReadAllocs)
}

// The general shape, not only the benchmark's: several pieces grouped over
// several iods, as plain Reads.
func TestStripedReadAllocCeiling(t *testing.T) {
	_, _, f := allocCluster(t)
	buf := make([]byte, 256<<10)
	n := testing.AllocsPerRun(200, func() {
		if _, err := f.ReadAt(buf, 0); err != nil {
			t.Fatal(err)
		}
	})
	checkAllocs(t, "a warm 256 KB cached ReadAt over 4 iods", n, stripedReadAllocs)
}

// Two striping cycles: every iod's two pieces travel as one ReadBlocks, so
// the extent lists and the vectored status-only reply are on the path.
func TestVectoredReadAllocCeiling(t *testing.T) {
	_, _, f := allocCluster(t)
	buf := make([]byte, 512<<10)
	n := testing.AllocsPerRun(200, func() {
		if _, err := f.ReadAt(buf, 256<<10); err != nil {
			t.Fatal(err)
		}
	})
	checkAllocs(t, "a warm 512 KB cached ReadAt over 2 striping cycles", n, vectoredReadAllocs)
}

// The tagged path: the read resolves its file's record, charges the
// tenant's in-flight budget and releases it, and reads the policy — none of
// which may allocate or insert into a map.
func TestHintedReadAllocCeiling(t *testing.T) {
	_, p, _ := allocCluster(t)
	f, err := p.OpenWithTenant("alloc.dat", 7, 2)
	if err != nil {
		t.Fatal(err)
	}
	f.HintCachePolicy(pvfs.CacheMust)
	buf := make([]byte, 16<<10)
	n := testing.AllocsPerRun(500, func() {
		if _, err := f.ReadAt(buf, 64<<10); err != nil {
			t.Fatal(err)
		}
	})
	checkAllocs(t, "a warm 16 KB cached ReadAt of a tenant-tagged must-cache file", n, hintedReadAllocs)
}

func TestBufferedWriteAllocCeiling(t *testing.T) {
	_, _, f := allocCluster(t)
	buf := make([]byte, 64<<10)
	n := testing.AllocsPerRun(500, func() { // rewrites the same 16 dirty blocks: no flush, no eviction
		if _, err := f.WriteAt(buf, 0); err != nil {
			t.Fatal(err)
		}
	})
	checkAllocs(t, "a buffered 64 KB WriteAt", n, bufferedWriteAllocs)
}

// One write-behind drain round: a steady-state 64 KB rewrite of resident
// blocks, then FlushAll, which kicks every flush stream and waits until
// the dirty count reads zero. It skips under -race like wire's
// TestFrameAllocPins; CI runs the pins once without the race detector.
func TestFlushDrainAllocCeiling(t *testing.T) {
	if raceEnabled {
		t.Skip("sync.Pool drops items at random under the race detector")
	}
	c, _, f := allocCluster(t)
	buf := make([]byte, 64<<10)
	n := testing.AllocsPerRun(200, func() {
		if _, err := f.WriteAt(buf, 0); err != nil {
			t.Fatal(err)
		}
		if err := c.Module(0).FlushAll(); err != nil {
			t.Fatal(err)
		}
	})
	checkAllocs(t, "a 64 KB rewrite and its drain", n, flushDrainAllocs)
}

// TestColdMissAllocCeiling: a 64 KB ReadAt whose every block misses —
// readahead off, cycling over a file twice the cache — so each call is one
// vectored fetch of one 16-block run from one iod, landed, installed over
// evicted frames and copied out.
func TestColdMissAllocCeiling(t *testing.T) {
	if raceEnabled {
		t.Skip("sync.Pool drops items at random under the race detector")
	}
	const cacheBlocks, chunk = 64, 64 << 10
	c := startTest(t, Config{IODs: 4, ClientNodes: 1, Caching: true, CacheBlocks: cacheBlocks, FlushPeriod: time.Hour,
		Module: cachemod.Config{ReadaheadWindow: -1}})
	p, err := c.NewProcess(0)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { p.Close() })
	f, err := p.Create("cold.dat", pvfs.StripeSpec{})
	if err != nil {
		t.Fatal(err)
	}
	const size = 2 * cacheBlocks * 4096
	if _, err := f.WriteAt(make([]byte, size), 0); err != nil {
		t.Fatal(err)
	}
	if err := c.Module(0).FlushAll(); err != nil {
		t.Fatal(err)
	}
	// Start cold: which written blocks stay resident depends on the order
	// the flush streams happened to clean them in, and a whole chunk left
	// over is a hit on the first pass.
	c.Module(0).Buffer().InvalidateFile(f.ID())
	buf := make([]byte, chunk)
	var off int64
	before := c.Reg.Snapshot()
	n := testing.AllocsPerRun(200, func() {
		if _, err := f.ReadAt(buf, off); err != nil {
			t.Fatal(err)
		}
		off = (off + chunk) % size
	})
	if d := c.Reg.Snapshot().Diff(before); d["module.read_full_hits"] != 0 {
		t.Fatalf("%d of the reads hit the cache: the pin measures misses", d["module.read_full_hits"])
	}
	checkAllocs(t, "a cold 64 KB ReadAt", n, coldMissAllocs)
}
