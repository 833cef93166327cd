package cluster

import (
	"bytes"
	"fmt"
	"io"
	"math/rand"
	"sync"
	"testing"
	"time"

	"pvfscache/internal/chaos/waitfor"
	"pvfscache/internal/pvfs"
)

func startTest(t *testing.T, cfg Config) *Cluster {
	t.Helper()
	if cfg.FlushPeriod == 0 {
		cfg.FlushPeriod = 20 * time.Millisecond
	}
	c, err := Start(cfg)
	if err != nil {
		t.Fatalf("start: %v", err)
	}
	t.Cleanup(func() { c.Close() })
	return c
}

func writeReadCycle(t *testing.T, c *Cluster, size int) {
	t.Helper()
	p, err := c.NewProcess(0)
	if err != nil {
		t.Fatal(err)
	}
	defer p.Close()

	f, err := p.Create("cycle.dat", pvfs.StripeSpec{SSize: 64 << 10})
	if err != nil {
		t.Fatal(err)
	}
	data := make([]byte, size)
	rnd := rand.New(rand.NewSource(42))
	rnd.Read(data)
	if n, err := f.WriteAt(data, 0); err != nil || n != size {
		t.Fatalf("write: n=%d err=%v", n, err)
	}
	got := make([]byte, size)
	if n, err := f.ReadAt(got, 0); err != nil || n != size {
		t.Fatalf("read: n=%d err=%v", n, err)
	}
	if !bytes.Equal(got, data) {
		t.Fatal("data mismatch")
	}
}

func TestWriteReadNoCaching(t *testing.T) {
	c := startTest(t, Config{IODs: 4, ClientNodes: 1})
	writeReadCycle(t, c, 300_000) // striped over several iods
}

// TestDirectReadVectorsPerIOD verifies that a read spanning several
// striping cycles sends each iod one vectored request (its pieces as
// extents) instead of one Read per piece, even on the uncached path.
func TestDirectReadVectorsPerIOD(t *testing.T) {
	c := startTest(t, Config{IODs: 2, ClientNodes: 1})
	p, err := c.NewProcess(0)
	if err != nil {
		t.Fatal(err)
	}
	defer p.Close()
	f, err := p.Create("vector.dat", pvfs.StripeSpec{PCount: 2, SSize: 4096})
	if err != nil {
		t.Fatal(err)
	}
	data := make([]byte, 8*4096) // 8 strips: 4 pieces per iod
	rand.New(rand.NewSource(7)).Read(data)
	if _, err := f.WriteAt(data, 0); err != nil {
		t.Fatal(err)
	}
	before := c.Reg.Snapshot()
	got := make([]byte, len(data))
	if _, err := f.ReadAt(got, 0); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, data) {
		t.Fatal("data mismatch")
	}
	d := c.Reg.Snapshot().Diff(before)
	if d["iod.vector_reads"] != 2 || d["iod.reads"] != 2 {
		t.Fatalf("iod.reads = %d, vector = %d; want one vectored read per iod",
			d["iod.reads"], d["iod.vector_reads"])
	}
	if d["iod.vector_extents"] != 8 {
		t.Fatalf("vector extents = %d, want 8 (4 pieces per iod)", d["iod.vector_extents"])
	}
}

func TestWriteReadCaching(t *testing.T) {
	c := startTest(t, Config{IODs: 4, ClientNodes: 1, Caching: true})
	writeReadCycle(t, c, 300_000)
}

func TestWriteLargerThanCache(t *testing.T) {
	// 1.2 MB cache; write 3 MB. Writes must stall/fall back but complete,
	// and the data must be durable after FlushAll.
	c := startTest(t, Config{IODs: 4, ClientNodes: 1, Caching: true})
	writeReadCycle(t, c, 3<<20)
}

func TestUnalignedOffsetsAndSizes(t *testing.T) {
	c := startTest(t, Config{IODs: 3, ClientNodes: 1, Caching: true})
	p, err := c.NewProcess(0)
	if err != nil {
		t.Fatal(err)
	}
	defer p.Close()
	f, err := p.Create("odd.dat", pvfs.StripeSpec{SSize: 8192})
	if err != nil {
		t.Fatal(err)
	}
	rnd := rand.New(rand.NewSource(7))
	ref := make([]byte, 100_000)
	// Write the file in random unaligned chunks.
	for off := 0; off < len(ref); {
		n := 1 + rnd.Intn(9000)
		if off+n > len(ref) {
			n = len(ref) - off
		}
		chunk := make([]byte, n)
		rnd.Read(chunk)
		copy(ref[off:], chunk)
		if _, err := f.WriteAt(chunk, int64(off)); err != nil {
			t.Fatalf("write @%d: %v", off, err)
		}
		off += n
	}
	// Read back in different random unaligned chunks.
	for trial := 0; trial < 50; trial++ {
		off := rnd.Intn(len(ref) - 1)
		n := 1 + rnd.Intn(len(ref)-off)
		got := make([]byte, n)
		rn, err := f.ReadAt(got, int64(off))
		if err != nil && err != io.EOF {
			t.Fatalf("read @%d len %d: %v", off, n, err)
		}
		if rn != n {
			t.Fatalf("read @%d len %d: short %d", off, n, rn)
		}
		if !bytes.Equal(got, ref[off:off+n]) {
			t.Fatalf("mismatch @%d len %d", off, n)
		}
	}
}

func TestReadPastEOF(t *testing.T) {
	c := startTest(t, Config{IODs: 2, ClientNodes: 1, Caching: true})
	p, _ := c.NewProcess(0)
	defer p.Close()
	f, err := p.Create("small.dat", pvfs.StripeSpec{})
	if err != nil {
		t.Fatal(err)
	}
	f.WriteAt([]byte("hello"), 0)

	buf := make([]byte, 10)
	n, err := f.ReadAt(buf, 0)
	if n != 5 || err != io.EOF {
		t.Fatalf("crossing read: n=%d err=%v", n, err)
	}
	n, err = f.ReadAt(buf, 100)
	if n != 0 || err != io.EOF {
		t.Fatalf("beyond read: n=%d err=%v", n, err)
	}
}

// TestClosedClusterRefusesMetadata: Close stops the mgr, including on the
// connections it accepted before — a process that already spoke to it
// cannot keep creating and opening files on a closed cluster.
func TestClosedClusterRefusesMetadata(t *testing.T) {
	c := startTest(t, Config{IODs: 2, ClientNodes: 1})
	p, err := c.NewProcess(0)
	if err != nil {
		t.Fatal(err)
	}
	defer p.Close()
	if _, err := p.Create("before.dat", pvfs.StripeSpec{}); err != nil {
		t.Fatal(err)
	}
	if err := c.Close(); err != nil {
		t.Fatal(err)
	}
	if _, err := p.Create("after.dat", pvfs.StripeSpec{}); err == nil {
		t.Error("Create succeeded on a closed cluster")
	}
	if _, err := p.Open("before.dat"); err == nil {
		t.Error("Open succeeded on a closed cluster")
	}
}

func TestDurabilityViaFlusher(t *testing.T) {
	// Write through the cache, wait for the background flusher (no manual
	// FlushAll), then read directly from the iod stores.
	c := startTest(t, Config{IODs: 2, ClientNodes: 1, Caching: true, FlushPeriod: 10 * time.Millisecond})
	p, _ := c.NewProcess(0)
	defer p.Close()
	f, err := p.Create("durable.dat", pvfs.StripeSpec{PCount: 1, SSize: 64 << 10})
	if err != nil {
		t.Fatal(err)
	}
	data := bytes.Repeat([]byte{0xAB}, 20_000)
	if _, err := f.WriteAt(data, 0); err != nil {
		t.Fatal(err)
	}
	waitfor.Until(t, 5*time.Second, func() bool {
		return c.Module(0).Buffer().DirtyCount() == 0
	}, "flusher draining the dirty list")
	// File was created with PCount=1 base 0: all data on iod 0.
	got := make([]byte, len(data))
	n, _ := c.IODs[0].Store().ReadAt(f.ID(), 0, got)
	if n != len(data) || !bytes.Equal(got, data) {
		t.Fatalf("iod store has %d/%d correct bytes", n, len(data))
	}
}

func TestInterProcessSharingOnOneNode(t *testing.T) {
	// Process A reads a file (faulting it into the node cache); process B
	// on the same node must then hit in cache: no additional iod reads.
	c := startTest(t, Config{IODs: 2, ClientNodes: 1, Caching: true})
	seed, _ := c.NewProcess(0)
	f, err := seed.Create("shared.dat", pvfs.StripeSpec{})
	if err != nil {
		t.Fatal(err)
	}
	data := bytes.Repeat([]byte{0x5C}, 64<<10)
	if _, err := f.WriteAt(data, 0); err != nil {
		t.Fatal(err)
	}
	seed.Close()

	procA, _ := c.NewProcess(0)
	defer procA.Close()
	fa, err := procA.Open("shared.dat")
	if err != nil {
		t.Fatal(err)
	}
	buf := make([]byte, 64<<10)
	if _, err := fa.ReadAt(buf, 0); err != nil {
		t.Fatal(err)
	}

	before := c.Reg.Snapshot()
	procB, _ := c.NewProcess(0)
	defer procB.Close()
	fb, err := procB.Open("shared.dat")
	if err != nil {
		t.Fatal(err)
	}
	got := make([]byte, 64<<10)
	if _, err := fb.ReadAt(got, 0); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, data) {
		t.Fatal("process B read wrong data")
	}
	diff := c.Reg.Snapshot().Diff(before)
	if diff["iod.reads"] != 0 {
		t.Errorf("process B caused %d iod reads; want 0 (inter-application hit)", diff["iod.reads"])
	}
	if diff["cache.hits"] == 0 {
		t.Error("no cache hits recorded for process B")
	}
}

func TestConcurrentProcessesSameNode(t *testing.T) {
	c := startTest(t, Config{IODs: 4, ClientNodes: 1, Caching: true})
	seed, _ := c.NewProcess(0)
	f, err := seed.Create("conc.dat", pvfs.StripeSpec{})
	if err != nil {
		t.Fatal(err)
	}
	data := make([]byte, 256<<10)
	rand.New(rand.NewSource(1)).Read(data)
	if _, err := f.WriteAt(data, 0); err != nil {
		t.Fatal(err)
	}
	seed.Close()

	var wg sync.WaitGroup
	errs := make(chan error, 8)
	for pnum := 0; pnum < 8; pnum++ {
		wg.Add(1)
		go func(pnum int) {
			defer wg.Done()
			p, err := c.NewProcess(0)
			if err != nil {
				errs <- err
				return
			}
			defer p.Close()
			f, err := p.Open("conc.dat")
			if err != nil {
				errs <- err
				return
			}
			rnd := rand.New(rand.NewSource(int64(pnum)))
			buf := make([]byte, 8192)
			for i := 0; i < 50; i++ {
				off := rnd.Intn(len(data) - len(buf))
				if _, err := f.ReadAt(buf, int64(off)); err != nil {
					errs <- fmt.Errorf("proc %d read @%d: %w", pnum, off, err)
					return
				}
				if !bytes.Equal(buf, data[off:off+len(buf)]) {
					errs <- fmt.Errorf("proc %d data mismatch @%d", pnum, off)
					return
				}
			}
		}(pnum)
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Fatal(err)
	}
}

func TestSyncWriteInvalidatesRemoteCache(t *testing.T) {
	c := startTest(t, Config{IODs: 2, ClientNodes: 2, Caching: true})
	// Node 0 writes and flushes a file.
	w, _ := c.NewProcess(0)
	fw, err := w.Create("coh.dat", pvfs.StripeSpec{PCount: 1})
	if err != nil {
		t.Fatal(err)
	}
	v1 := bytes.Repeat([]byte{1}, 8192)
	if _, err := fw.WriteAt(v1, 0); err != nil {
		t.Fatal(err)
	}
	if err := c.Module(0).FlushAll(); err != nil {
		t.Fatal(err)
	}

	// Node 1 reads the file, caching it.
	r, _ := c.NewProcess(1)
	defer r.Close()
	fr, err := r.Open("coh.dat")
	if err != nil {
		t.Fatal(err)
	}
	buf := make([]byte, 8192)
	if _, err := fr.ReadAt(buf, 0); err != nil {
		t.Fatal(err)
	}
	if buf[0] != 1 {
		t.Fatal("node 1 read wrong initial data")
	}

	// Default write from node 0: node 1's cache is NOT invalidated — the
	// paper's default read/write mechanism does not maintain coherence.
	v2 := bytes.Repeat([]byte{2}, 8192)
	if _, err := fw.WriteAt(v2, 0); err != nil {
		t.Fatal(err)
	}
	if err := c.Module(0).FlushAll(); err != nil {
		t.Fatal(err)
	}
	if _, err := fr.ReadAt(buf, 0); err != nil {
		t.Fatal(err)
	}
	if buf[0] != 1 {
		t.Fatalf("plain write unexpectedly invalidated remote cache (got %d)", buf[0])
	}

	// Sync write from node 0: node 1's copy must be invalidated, so the
	// next read fetches the new value.
	v3 := bytes.Repeat([]byte{3}, 8192)
	if _, err := fw.SyncWriteAt(v3, 0); err != nil {
		t.Fatal(err)
	}
	if _, err := fr.ReadAt(buf, 0); err != nil {
		t.Fatal(err)
	}
	if buf[0] != 3 {
		t.Fatalf("sync write did not propagate: node 1 read %d, want 3", buf[0])
	}
	w.Close()
}

// TestSyncWriteInvalidatesAfterRejoin: a drained and rejoined daemon
// starts with no client addresses, so a cache whose first contact after
// the rejoin is a read or a flush must re-register on the connection it
// dials, or the next sync-write's invalidation
// cannot reach it and it keeps serving the old bytes.
func TestSyncWriteInvalidatesAfterRejoin(t *testing.T) {
	for _, viaFlush := range []bool{false, true} {
		t.Run(firstContactName(viaFlush), func(t *testing.T) {
			syncWriteAfterReboot(t, Config{}, viaFlush, func(c *Cluster) error {
				if err := c.DrainIOD(0, 10*time.Second); err != nil {
					return err
				}
				return c.RejoinIOD(0)
			})
		})
	}
}

// TestSyncWriteInvalidatesAfterRestart is the crash/restart twin on the
// disk backend: the reopened daemon's client table is empty too.
func TestSyncWriteInvalidatesAfterRestart(t *testing.T) {
	for _, viaFlush := range []bool{false, true} {
		t.Run(firstContactName(viaFlush), func(t *testing.T) {
			cfg := Config{Backend: "disk", DataDir: t.TempDir()}
			syncWriteAfterReboot(t, cfg, viaFlush, func(c *Cluster) error {
				if err := c.CrashIOD(0); err != nil {
					return err
				}
				return c.RestartIOD(0)
			})
		})
	}
}

func firstContactName(viaFlush bool) string {
	if viaFlush {
		return "flush"
	}
	return "read"
}

// syncWriteAfterReboot runs one iod and two cache nodes: node 0 writes
// block 0, the daemon reboots, node 1 takes its first copy of the block
// (a read, or a flush of its own write), node 0 sync-writes the block,
// and node 1 must read node 0's bytes.
func syncWriteAfterReboot(t *testing.T, cfg Config, viaFlush bool, reboot func(*Cluster) error) {
	t.Helper()
	cfg.IODs, cfg.ClientNodes, cfg.Caching, cfg.FlushPeriod = 1, 2, true, time.Hour
	c := startTest(t, cfg)
	const bs = 4096
	w, err := c.NewProcess(0)
	if err != nil {
		t.Fatal(err)
	}
	defer w.Close()
	fw, err := w.Create("reboot.dat", pvfs.StripeSpec{})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := fw.WriteAt(bytes.Repeat([]byte{1}, bs), 0); err != nil {
		t.Fatal(err)
	}
	if err := c.FlushAll(); err != nil {
		t.Fatal(err)
	}
	if err := reboot(c); err != nil {
		t.Fatalf("reboot: %v", err)
	}

	r, err := c.NewProcess(1)
	if err != nil {
		t.Fatal(err)
	}
	defer r.Close()
	fr, err := r.Open("reboot.dat")
	if err != nil {
		t.Fatal(err)
	}
	buf := make([]byte, bs)
	if viaFlush {
		if _, err := fr.WriteAt(bytes.Repeat([]byte{5}, bs), 0); err != nil {
			t.Fatal(err)
		}
		if err := c.Module(1).FlushAll(); err != nil {
			t.Fatal(err)
		}
	} else if _, err := fr.ReadAt(buf, 0); err != nil || buf[0] != 1 {
		t.Fatalf("node 1 first read = %d, %v; want 1", buf[0], err)
	}

	if _, err := fw.SyncWriteAt(bytes.Repeat([]byte{2}, bs), 0); err != nil {
		t.Fatal(err)
	}
	if _, err := fr.ReadAt(buf, 0); err != nil {
		t.Fatal(err)
	}
	if buf[0] != 2 {
		t.Fatalf("node 1 read %d after node 0's sync-write, want 2", buf[0])
	}
}

func TestLocalityZeroStillCorrect(t *testing.T) {
	// A workload with no reuse (every block read once) must return correct
	// data through the caching path.
	c := startTest(t, Config{IODs: 2, ClientNodes: 1, Caching: true, CacheBlocks: 16})
	p, _ := c.NewProcess(0)
	defer p.Close()
	f, err := p.Create("stream.dat", pvfs.StripeSpec{})
	if err != nil {
		t.Fatal(err)
	}
	data := make([]byte, 512<<10) // far larger than the 64 KB cache
	rand.New(rand.NewSource(3)).Read(data)
	if _, err := f.WriteAt(data, 0); err != nil {
		t.Fatal(err)
	}
	got := make([]byte, 4096)
	for off := 0; off < len(data); off += len(got) {
		if _, err := f.ReadAt(got, int64(off)); err != nil {
			t.Fatalf("read @%d: %v", off, err)
		}
		if !bytes.Equal(got, data[off:off+len(got)]) {
			t.Fatalf("mismatch @%d", off)
		}
	}
}

func TestNamespaceOperations(t *testing.T) {
	c := startTest(t, Config{IODs: 2, ClientNodes: 1})
	p, _ := c.NewProcess(0)
	defer p.Close()
	if _, err := p.Create("a", pvfs.StripeSpec{}); err != nil {
		t.Fatal(err)
	}
	if _, err := p.Create("b", pvfs.StripeSpec{}); err != nil {
		t.Fatal(err)
	}
	if _, err := p.Create("a", pvfs.StripeSpec{}); err == nil {
		t.Fatal("duplicate create should fail")
	}
	names, err := p.List()
	if err != nil || len(names) != 2 {
		t.Fatalf("list: %v %v", names, err)
	}
	if err := p.Unlink("a"); err != nil {
		t.Fatal(err)
	}
	if _, err := p.Open("a"); err == nil {
		t.Fatal("open after unlink should fail")
	}
	f, err := p.Open("b")
	if err != nil {
		t.Fatal(err)
	}
	if f.Name() != "b" {
		t.Errorf("name = %q", f.Name())
	}
}

func TestSizePropagationAcrossProcesses(t *testing.T) {
	c := startTest(t, Config{IODs: 2, ClientNodes: 2, Caching: true})
	w, _ := c.NewProcess(0)
	defer w.Close()
	f, err := w.Create("grow.dat", pvfs.StripeSpec{})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := f.WriteAt(make([]byte, 12345), 0); err != nil {
		t.Fatal(err)
	}
	r, _ := c.NewProcess(1)
	defer r.Close()
	fr, err := r.Open("grow.dat")
	if err != nil {
		t.Fatal(err)
	}
	if fr.Size() != 12345 {
		t.Fatalf("size = %d, want 12345", fr.Size())
	}
	// Extend from node 0, refresh on node 1.
	if _, err := f.WriteAt(make([]byte, 100), 20000); err != nil {
		t.Fatal(err)
	}
	if err := fr.Refresh(); err != nil {
		t.Fatal(err)
	}
	if fr.Size() != 20100 {
		t.Fatalf("size after refresh = %d, want 20100", fr.Size())
	}
}

func TestTwoNodesIndependentCaches(t *testing.T) {
	// Reads on node 0 must not populate node 1's cache.
	c := startTest(t, Config{IODs: 2, ClientNodes: 2, Caching: true})
	p0, _ := c.NewProcess(0)
	defer p0.Close()
	f, err := p0.Create("n0.dat", pvfs.StripeSpec{})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := f.WriteAt(make([]byte, 8192), 0); err != nil {
		t.Fatal(err)
	}
	if c.Module(1).Buffer().Stats().Resident != 0 {
		t.Error("node 1 cache populated by node 0 activity")
	}
	if c.Module(0).Buffer().Stats().Resident == 0 {
		t.Error("node 0 cache empty after write")
	}
}

func TestCachingOverTCP(t *testing.T) {
	// The same assembly must work over real TCP sockets.
	c := startTest(t, Config{
		Network:     nil, // will be replaced below
		IODs:        2,
		ClientNodes: 1,
		Caching:     true,
	})
	_ = c
	tcp, err := Start(Config{
		Network:     newTCP(t),
		IODs:        2,
		ClientNodes: 1,
		Caching:     true,
		FlushPeriod: 20 * time.Millisecond,
	})
	if err != nil {
		t.Fatalf("tcp cluster: %v", err)
	}
	defer tcp.Close()
	writeReadCycle(t, tcp, 200_000)
}
