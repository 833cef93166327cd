// Scanresist: watch discretionary admission defend a working set from a
// streaming scan. Boots an in-process cluster (4 iods, 1 client node,
// 1 MB cache), warms a 512 KB working set until it is promoted to the
// protected segment, then streams a 4 MB file through the cache — four
// times the cache's size — and re-reads the working set to see how much
// of it survived. The same storm runs under two configurations:
//
//   - the ghost policy: the scan is admitted to probation, where it can
//     only evict itself — the protected working set is untouched
//   - the LRU ablation: one list, so the scan flushes the working set
//
// Each run prints the admission counters (cache.ghost_hits,
// cache.admission_rejects and cache.protected_evictions) and the number
// of working-set blocks that
// had to be refetched from the iods afterwards — zero under the ghost
// policy, the whole set under LRU. A revisit of recently evicted scan
// blocks lights up the ghost list: under the ghost policy they are
// remembered and re-admitted straight to the protected segment.
//
//	go run ./examples/scanresist
//
// See DESIGN.md §7 for the admission state machine and docs/TUNING.md
// for the Policy knob.
package main

import (
	"bytes"
	"fmt"
	"log"
	"time"

	"pvfscache/internal/cachemod"
	"pvfscache/internal/cachemod/buffer"
	"pvfscache/internal/cluster"
	"pvfscache/internal/pvfs"
)

const (
	blockSize  = 4096
	wsBlocks   = 128  // 512 KB working set: fits the protected segment
	scanBlocks = 1024 // 4 MB scan: four times the whole cache
)

// run boots a cluster with the given admission configuration, runs the
// warm/scan/re-read storm, and returns the number of working-set blocks
// refetched from the iods after the scan.
func run(label string, cfg cluster.Config) int64 {
	c, err := cluster.Start(cfg)
	if err != nil {
		log.Fatal(err)
	}
	defer c.Close()
	proc, err := c.NewProcess(0)
	if err != nil {
		log.Fatal(err)
	}
	defer proc.Close()

	// Seed both files, flush them to the iods and drop them from the
	// cache, so the measured phases start from a cold, clean cache.
	seed := func(name string, blocks int) *pvfs.File {
		f, err := proc.Create(name, pvfs.StripeSpec{})
		if err != nil {
			log.Fatal(err)
		}
		if _, err := f.WriteAt(bytes.Repeat([]byte{0xA7}, blocks*blockSize), 0); err != nil {
			log.Fatal(err)
		}
		return f
	}
	ws := seed("ws.dat", wsBlocks)
	scan := seed("scan.dat", scanBlocks)
	defer ws.Close()
	defer scan.Close()
	if err := c.FlushAll(); err != nil {
		log.Fatal(err)
	}
	for _, f := range []*pvfs.File{ws, scan} {
		c.Module(0).Buffer().InvalidateFile(f.ID())
	}

	readSeq := func(f *pvfs.File, blocks int) {
		buf := make([]byte, blockSize)
		for i := 0; i < blocks; i++ {
			if _, err := f.ReadAt(buf, int64(i)*blockSize); err != nil {
				log.Fatal(err)
			}
		}
	}
	// readPerm touches count blocks from start in a permuted order (mult
	// must be odd, hence coprime to the power-of-two count): hot-set
	// accesses with no constant stride, which is exactly what separates a
	// working set from a scan in the detector's eyes.
	readPerm := func(f *pvfs.File, start, count, mult int) {
		buf := make([]byte, blockSize)
		for i := 0; i < count; i++ {
			idx := start + (i*mult)%count
			if _, err := f.ReadAt(buf, int64(idx)*blockSize); err != nil {
				log.Fatal(err)
			}
		}
	}

	// Warm the working set: the first pass installs it, the second
	// promotes it to the protected segment (under the ghost policy).
	readPerm(ws, 0, wsBlocks, 73)
	readPerm(ws, 0, wsBlocks, 73)

	// The storm: stream 4 MB through the cache.
	before := c.Reg.Snapshot()
	readSeq(scan, scanBlocks)
	d := c.Reg.Snapshot().Diff(before)

	fmt.Printf("[%s]\n", label)
	fmt.Printf("  scan:    %d blocks evicted — %d from the protected segment; %d admissions rejected\n",
		d["cache.evictions"], d["cache.protected_evictions"], d["cache.admission_rejects"])

	// Revisit 32 recently evicted scan blocks (in permuted order, so the
	// revisit itself is not detected as a stream). Under the ghost policy
	// their ghost entries are still live: the re-admission is recognized
	// as a recency hit and goes straight to the protected segment.
	before = c.Reg.Snapshot()
	readPerm(scan, 640, 32, 19)
	d = c.Reg.Snapshot().Diff(before)
	fmt.Printf("  revisit: %d of 32 recently evicted blocks recognized by the ghost list\n",
		d["cache.ghost_hits"])

	// Re-read the working set: every block the scan displaced now costs
	// an iod round trip again.
	before = c.Reg.Snapshot()
	readPerm(ws, 0, wsBlocks, 73)
	d = c.Reg.Snapshot().Diff(before)
	refetched := d["iod.reads"]
	fmt.Printf("  after:   %d/%d working-set blocks had to be refetched from the iods\n",
		refetched, wsBlocks)
	return refetched
}

func main() {
	log.SetFlags(0)
	base := cluster.Config{
		IODs:        4,
		ClientNodes: 1,
		Caching:     true,
		CacheBlocks: 256,       // 1 MB cache
		FlushPeriod: time.Hour, // the seeding phase drains the write-behind itself
		Module: cachemod.Config{
			Buffer:          buffer.Config{Shards: 1}, // one stripe: deterministic replacement order
			ReadaheadWindow: -1,                       // block-by-block reads keep the admission story visible
		},
	}

	ghost := base
	ghost.Module.Buffer.Policy = buffer.PolicyGhost
	kept := run("ghost policy (Buffer.Policy ghost)", ghost)

	lru := base
	lru.Module.Buffer.Policy = buffer.PolicyLRU
	flushed := run("lru ablation (Buffer.Policy lru)", lru)

	fmt.Printf("\nworking-set refetches after a 4x-cache scan: ghost %d, lru %d of %d\n",
		kept, flushed, wsBlocks)
	fmt.Println("the ghost policy's probation segment lets the scan only evict itself.")
}
