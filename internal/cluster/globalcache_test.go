package cluster

import (
	"bytes"
	"testing"
	"time"

	"pvfscache/internal/chaos/waitfor"
	"pvfscache/internal/pvfs"
)

// TestGlobalCacheServesRemoteMisses exercises the global-cache extension
// end to end: node 0 faults a file into cluster memory; node 1's read is
// then served from peer caches instead of the iods.
func TestGlobalCacheServesRemoteMisses(t *testing.T) {
	c := startTest(t, Config{
		IODs:        2,
		ClientNodes: 2,
		Caching:     true,
		GlobalCache: true,
	})
	seed, _ := c.NewProcess(0)
	f, err := seed.Create("gc.dat", pvfs.StripeSpec{})
	if err != nil {
		t.Fatal(err)
	}
	data := make([]byte, 256<<10)
	for i := range data {
		data[i] = byte(i * 31)
	}
	if _, err := f.WriteAt(data, 0); err != nil {
		t.Fatal(err)
	}
	if err := c.Module(0).FlushAll(); err != nil {
		t.Fatal(err)
	}
	seed.Close()
	// Drop the writer's cached copies so node 0's read genuinely fetches
	// from the iods (fetches are what feed the global cache).
	c.Module(0).Buffer().InvalidateFile(f.ID())

	// Node 0 reads the whole file: blocks homed at node 1 are pushed to
	// it in the background.
	p0, _ := c.NewProcess(0)
	defer p0.Close()
	f0, err := p0.Open("gc.dat")
	if err != nil {
		t.Fatal(err)
	}
	buf := make([]byte, len(data))
	if _, err := f0.ReadAt(buf, 0); err != nil {
		t.Fatal(err)
	}
	// Let the asynchronous pushes settle: wait until node 1's resident
	// count is nonzero and has held still for a while — the pushes arrive
	// one by one. Every node routes by the view of all the boot joins from
	// the start, so node 0 pushed node 1's share of the file and the wait
	// ends long before its bound.
	start := time.Now()
	last, stableSince := -1, time.Now()
	settled := waitfor.Poll(5*time.Second, func() bool {
		cur := c.Module(1).Buffer().Stats().Resident
		if cur != last {
			last, stableSince = cur, time.Now()
		}
		return cur > 0 && time.Since(stableSince) > 100*time.Millisecond
	})
	if pushed := c.Reg.Counter("gcache.push_tx").Value(); pushed == 0 {
		t.Fatal("node 0 pushed no block to node 1: it routed every block to itself")
	}
	if waited := time.Since(start); !settled || waited > 2*time.Second {
		t.Fatalf("node 1's pushed blocks settled after %v (settled %v), want well under the 5 s bound", waited, settled)
	}

	// Node 1's read: every block is either pushed into its own cache
	// (home = node 1) or served by node 0 via peer-get (home = node 0).
	before := c.Reg.Snapshot()
	p1, _ := c.NewProcess(1)
	defer p1.Close()
	f1, err := p1.Open("gc.dat")
	if err != nil {
		t.Fatal(err)
	}
	got := make([]byte, len(data))
	if _, err := f1.ReadAt(got, 0); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, data) {
		t.Fatal("global-cache read returned wrong data")
	}
	diff := c.Reg.Snapshot().Diff(before)
	totalBlocks := int64(len(data) / 4096)
	if diff["iod.reads"] > totalBlocks/3 {
		t.Errorf("node 1 read caused %d iod reads for %d blocks; global cache ineffective",
			diff["iod.reads"], totalBlocks)
	}
	if diff["module.gcache_hits"] == 0 {
		t.Error("no global-cache hits recorded")
	}
}

// TestGlobalCacheDisabledStillGoesToIODs is the control: without the
// extension, node 1 pays full network misses.
func TestGlobalCacheDisabledStillGoesToIODs(t *testing.T) {
	c := startTest(t, Config{IODs: 2, ClientNodes: 2, Caching: true})
	seed, _ := c.NewProcess(0)
	f, err := seed.Create("ngc.dat", pvfs.StripeSpec{})
	if err != nil {
		t.Fatal(err)
	}
	data := make([]byte, 64<<10)
	if _, err := f.WriteAt(data, 0); err != nil {
		t.Fatal(err)
	}
	if err := c.Module(0).FlushAll(); err != nil {
		t.Fatal(err)
	}
	seed.Close()

	before := c.Reg.Snapshot()
	p1, _ := c.NewProcess(1)
	defer p1.Close()
	f1, _ := p1.Open("ngc.dat")
	buf := make([]byte, len(data))
	if _, err := f1.ReadAt(buf, 0); err != nil {
		t.Fatal(err)
	}
	diff := c.Reg.Snapshot().Diff(before)
	if diff["iod.reads"] == 0 {
		t.Error("without the global cache, node 1 should hit the iods")
	}
}
