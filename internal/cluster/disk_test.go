package cluster

// Disk-backend cluster tests: the PR 3 consistency oracle re-run against
// the WAL-backed on-disk engine, and crash/restart durability — kill
// every daemon without warning, reboot from the same directories, and
// read the image back byte-for-byte.

import (
	"bytes"
	"fmt"
	"testing"
	"time"

	"pvfscache/internal/pvfs"
	"pvfscache/internal/storage/disk"
	"pvfscache/internal/testseed"
)

// TestConsistencyOracleDiskBackend runs the full seeded mixed workload
// over the disk engine and demands the same byte-for-byte verdict the
// mem backend gets — and, since the workload is seeded, the identical
// final image.
func TestConsistencyOracleDiskBackend(t *testing.T) {
	seed := testseed.Base(t)
	memImg := runConsistencyOracle(t, 8, seed)
	dir := t.TempDir()
	diskImg := runConsistencyOracleCfg(t, 8, seed, func(cfg *Config) {
		cfg.Backend = "disk"
		cfg.DataDir = dir
	})
	if !bytes.Equal(memImg, diskImg) {
		t.Fatal("disk-backend run produced different bytes than the mem run")
	}
}

func TestConsistencyOracleDiskBackendOsync(t *testing.T) {
	if testing.Short() {
		t.Skip("osync oracle is fsync-heavy")
	}
	seed := testseed.Base(t)
	runConsistencyOracleCfg(t, 8, seed, func(cfg *Config) {
		cfg.Backend = "disk"
		cfg.DataDir = t.TempDir()
		cfg.Fsync = "osync"
	})
}

// TestDiskClusterCrashRestartDurability: flush a striped file to disk-
// backed iods, fail-stop every daemon, reboot them from their data
// directories, and verify a direct client reads the exact image —
// including journal replay for whatever had not been checkpointed.
func TestDiskClusterCrashRestartDurability(t *testing.T) {
	dir := t.TempDir()
	c := startTest(t, Config{
		IODs:        3,
		ClientNodes: 1,
		Caching:     true,
		CacheBlocks: 64,
		FlushPeriod: time.Hour, // only FlushAll drains
		Backend:     "disk",
		DataDir:     dir,
	})
	p, err := c.NewProcess(0)
	if err != nil {
		t.Fatal(err)
	}
	f, err := p.Create("durable.dat", pvfs.StripeSpec{SSize: 16 << 10})
	if err != nil {
		t.Fatal(err)
	}
	const size = 256 << 10
	img := make([]byte, size)
	for i := range img {
		img[i] = byte(i*7 + i>>9)
	}
	if n, err := f.WriteAt(img, 0); err != nil || n != size {
		t.Fatalf("write: n=%d err=%v", n, err)
	}
	if err := c.FlushAll(); err != nil {
		t.Fatal(err)
	}
	// Whole cache blocks reach the shard files directly; the journal
	// carries sub-block spans. Patch a few bytes inside one stripe of
	// each iod, so every daemon dies with records only replay recovers.
	for i := range c.IODs {
		patch := []byte(fmt.Sprintf("sub-block patch for iod %d", i))
		off := int64(i)*(16<<10) + 100
		copy(img[off:], patch)
		if n, err := f.WriteAt(patch, off); err != nil || n != len(patch) {
			t.Fatalf("patch %d: n=%d err=%v", i, n, err)
		}
	}
	if err := c.FlushAll(); err != nil {
		t.Fatal(err)
	}
	p.Close()

	recovered := 0
	for i := range c.IODs {
		if err := c.CrashIOD(i); err != nil {
			t.Fatalf("CrashIOD(%d): %v", i, err)
		}
		if err := c.RestartIOD(i); err != nil {
			t.Fatalf("RestartIOD(%d): %v", i, err)
		}
		if ds, ok := c.Backends[i].(*disk.Store); ok {
			recovered += ds.Recovered()
		}
	}
	if recovered < len(c.IODs) {
		t.Fatalf("%d journal records replayed, want one per iod: the crash exercised nothing", recovered)
	}

	direct, err := pvfs.NewClient(pvfs.Config{
		Network:  c.Network,
		MgrAddr:  c.MgrAddr,
		IODAddrs: c.IODDataAddrs,
		ClientID: 999,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer direct.Close()
	df, err := direct.Open("durable.dat")
	if err != nil {
		t.Fatal(err)
	}
	got := make([]byte, size)
	if n, err := df.ReadAt(got, 0); err != nil || n != size {
		t.Fatalf("read-back: n=%d err=%v", n, err)
	}
	if !bytes.Equal(got, img) {
		for i := range got {
			if got[i] != img[i] {
				t.Fatalf("recovered image diverges at byte %d of %d", i, size)
			}
		}
	}
}

// TestRestartIODServesNewWrites: after a crash/restart cycle the daemon
// is fully live — new writes through a fresh cached client land and
// survive a second restart.
func TestRestartIODServesNewWrites(t *testing.T) {
	c := startTest(t, Config{
		IODs:        2,
		ClientNodes: 1,
		Caching:     true,
		FlushPeriod: time.Hour,
		Backend:     "disk",
		DataDir:     t.TempDir(),
	})
	for cycle := 0; cycle < 2; cycle++ {
		p, err := c.NewProcess(0)
		if err != nil {
			t.Fatal(err)
		}
		name := fmt.Sprintf("cycle-%d.dat", cycle)
		f, err := p.Create(name, pvfs.StripeSpec{SSize: 8 << 10})
		if err != nil {
			t.Fatal(err)
		}
		payload := bytes.Repeat([]byte{byte(10 + cycle)}, 64<<10)
		if n, err := f.WriteAt(payload, 0); err != nil || n != len(payload) {
			t.Fatalf("cycle %d write: n=%d err=%v", cycle, n, err)
		}
		if err := c.FlushAll(); err != nil {
			t.Fatalf("cycle %d flush: %v", cycle, err)
		}
		p.Close()
		for i := range c.IODs {
			if err := c.CrashIOD(i); err != nil {
				t.Fatal(err)
			}
			if err := c.RestartIOD(i); err != nil {
				t.Fatal(err)
			}
		}
	}
	direct, err := pvfs.NewClient(pvfs.Config{
		Network:  c.Network,
		MgrAddr:  c.MgrAddr,
		IODAddrs: c.IODDataAddrs,
		ClientID: 999,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer direct.Close()
	for cycle := 0; cycle < 2; cycle++ {
		df, err := direct.Open(fmt.Sprintf("cycle-%d.dat", cycle))
		if err != nil {
			t.Fatal(err)
		}
		want := bytes.Repeat([]byte{byte(10 + cycle)}, 64<<10)
		got := make([]byte, len(want))
		if n, err := df.ReadAt(got, 0); err != nil || n != len(want) || !bytes.Equal(got, want) {
			t.Fatalf("cycle %d read-back: n=%d err=%v", cycle, n, err)
		}
	}
}
