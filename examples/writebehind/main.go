// Writebehind: watch the pipelined write-behind engine drain a dirty
// cache. Boots an in-process cluster (4 iods, 1 client node), fills
// 2 MB of dirty blocks through the cache — every write acknowledged
// from memory — then drains them with FlushAll and shows the counters
// moving: frames sent, blocks flushed, adjacent blocks coalesced into
// contiguous runs. The same storm is then drained with FlushWindow=1
// (each stream keeps one blocking frame in flight) for comparison.
//
//	go run ./examples/writebehind
//
// See DESIGN.md §6 for the dirty-block lifecycle and docs/TUNING.md for
// the FlushWindow knob (a burst takes at most 256 blocks whatever the
// window).
package main

import (
	"bytes"
	"fmt"
	"log"
	"time"

	"pvfscache/internal/cluster"
	"pvfscache/internal/pvfs"
)

// storm writes 2 MB through one process's cache and drains it, printing
// the write-behind counters before and after.
func storm(label string, cfg cluster.Config) time.Duration {
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

	// Default striping: 64 KB strips round-robin over the 4 iods. Each
	// strip is 16 consecutive 4 KB cache blocks on one iod, so every
	// stream's share of the dirty list is full of adjacent blocks — the
	// coalescer merges each strip into one contiguous wire run.
	f, err := proc.Create("storm.dat", pvfs.StripeSpec{})
	if err != nil {
		log.Fatal(err)
	}
	payload := bytes.Repeat([]byte{0xC5}, 2<<20)
	if _, err := f.WriteAt(payload, 0); err != nil {
		log.Fatal(err)
	}

	// Warm up the flush path once (lazy connection dials, pools) so the
	// timed drain measures the engine, not the first dial.
	if err := c.Module(0).FlushAll(); err != nil {
		log.Fatal(err)
	}
	if _, err := f.WriteAt(payload, 0); err != nil { // re-dirty everything
		log.Fatal(err)
	}

	mod := c.Module(0)
	before := c.Reg.Snapshot()
	fmt.Printf("[%s]\n", label)
	fmt.Printf("  before drain: %d dirty blocks buffered, write acked from memory\n",
		mod.Buffer().DirtyCount())

	t0 := time.Now()
	if err := mod.FlushAll(); err != nil {
		log.Fatal(err)
	}
	drain := time.Since(t0)

	d := c.Reg.Snapshot().Diff(before)
	fmt.Printf("  after drain:  %d dirty blocks; drained in %v\n",
		mod.Buffer().DirtyCount(), drain.Round(10*time.Microsecond))
	fmt.Printf("  counters: %d flush frames, %d blocks flushed, %d blocks rode coalesced runs (%d wire runs at the iods)\n",
		d["module.flush_rounds"], d["module.flushed_blocks"],
		d["module.flush_coalesced"], d["iod.flush_runs"])

	// Durability: the iods now hold every byte (FlushAll returned with
	// nothing dirty, and the stores grew to the file's striped size).
	var stored int64
	for _, iod := range c.IODs {
		sz, _ := iod.Store().Size(f.ID())
		stored += sz
	}
	fmt.Printf("  durability: iod stores hold %d bytes of file %d\n", stored, f.ID())
	return drain
}

func main() {
	log.SetFlags(0)
	base := cluster.Config{
		IODs:        4,
		ClientNodes: 1,
		Caching:     true,
		CacheBlocks: 1024,      // 4 MB cache: the 2 MB storm fits
		FlushPeriod: time.Hour, // background period off: FlushAll does the draining
	}

	piped := storm("pipelined: 4 streams × window 4 (default)", base)

	serial := base
	serial.Module.FlushWindow = 1
	serialTime := storm("window 1: 4 streams × one blocking frame (FlushWindow 1)", serial)

	fmt.Printf("\nwindow 4 %v vs window 1 %v — over a real network/disk the gap widens\n",
		piped.Round(10*time.Microsecond), serialTime.Round(10*time.Microsecond))
	fmt.Println("with the per-frame service latency the window overlaps (see")
	fmt.Println("internal/cachemod's BenchmarkFlushDrainPipelined vs ...Serial).")
}
