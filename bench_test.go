package pvfscache_test

// The repository's benchmark is pvfsperf/ (BENCHMARK.json), and the paper's
// figures are cmd/experiments diffed against bench/figures.txt. What lives
// here is only the knob-ablation pairs neither of those reaches: each
// pair runs one live workload with a knob on its default side and on its
// ablated side, and is the evidence docs/TUNING.md cites for that knob. A
// pair reports a ratio inside one process on one machine; no absolute
// number it prints is a performance record.
//
//	ReadaheadWindow: BenchmarkLiveReadSequentialReadahead vs ...NoReadahead
//	Policy:          BenchmarkLiveScanVsWorkingSet vs ...LRU
//	GlobalCache:     BenchmarkGlobalCacheCrossRead vs ...Off

import (
	"fmt"
	"testing"
	"time"

	"pvfscache/internal/blockio"
	"pvfscache/internal/cachemod"
	"pvfscache/internal/cachemod/buffer"
	"pvfscache/internal/cluster"
	"pvfscache/internal/pvfs"
)

// startNode boots an in-memory cluster of four iods and one caching client
// node with a 256-block (1 MB) cache, and opens one application process on
// it; cfg carries the knob under test.
func startNode(b *testing.B, cfg cluster.Config) (*cluster.Cluster, *pvfs.Client) {
	b.Helper()
	cfg.IODs, cfg.ClientNodes, cfg.Caching, cfg.CacheBlocks = 4, 1, true, 256
	c, err := cluster.Start(cfg)
	if err != nil {
		b.Fatal(err)
	}
	b.Cleanup(func() { c.Close() })
	p, err := c.NewProcess(0)
	if err != nil {
		b.Fatal(err)
	}
	b.Cleanup(func() { p.Close() })
	return c, p
}

// createFlushed creates a zero-filled file of the given size and pushes it
// to the iods, so that the timed reads have to fetch it.
func createFlushed(b *testing.B, c *cluster.Cluster, p *pvfs.Client, name string, size int) *pvfs.File {
	b.Helper()
	f, err := p.Create(name, pvfs.StripeSpec{})
	if err != nil {
		b.Fatal(err)
	}
	if _, err := f.WriteAt(make([]byte, size), 0); err != nil {
		b.Fatal(err)
	}
	if err := c.Module(0).FlushAll(); err != nil {
		b.Fatal(err)
	}
	return f
}

// benchScanSink keeps the scan's checksum pass from being optimized away.
var benchScanSink byte

// benchSequentialScan is the evidence for cachemod.Config.ReadaheadWindow:
// a sequential 4 KB-request scan of a 4 MB file through the 1 MB cache,
// with and without readahead. Each request's data is checksummed (the
// per-request compute of a real scanning application). Without readahead
// every 4 KB request pays its own fetch round trip; with readahead the
// prefetcher batches the window into large vectored fetches issued ahead of
// the scan, so most requests land on resident blocks. The prefetchhits/op
// and fullhits/op metrics report the conversion rate. pvfsperf's scan_miss
// reads at 64 KB with the default window only, so it cannot show this.
func benchSequentialScan(b *testing.B, window int) {
	c, p := startNode(b, cluster.Config{
		FlushPeriod: 50 * time.Millisecond,
		Module:      cachemod.Config{ReadaheadWindow: window},
	})
	const fileBytes = 4 << 20 // the scan cannot fit, readahead must keep up
	f := createFlushed(b, c, p, "scan.dat", fileBytes)
	buf := make([]byte, 4<<10)
	before := c.Reg.Snapshot()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		off := int64(i) * int64(len(buf)) % fileBytes
		if _, err := f.ReadAt(buf, off); err != nil {
			b.Fatal(err)
		}
		// Process the data (checksum): identical in both variants.
		var sum byte
		for _, x := range buf {
			sum += x
		}
		benchScanSink = sum
	}
	b.StopTimer()
	d := c.Reg.Snapshot().Diff(before)
	b.ReportMetric(float64(d["module.prefetch_hits"])/float64(b.N), "prefetchhits/op")
	b.ReportMetric(float64(d["module.read_full_hits"])/float64(b.N), "fullhits/op")
	b.SetBytes(int64(len(buf)))
}

// BenchmarkLiveReadSequentialReadahead scans with a 32-block window —
// deep enough that a refill covers many 4 KB requests (the default window
// of 8 is tuned for larger requests).
func BenchmarkLiveReadSequentialReadahead(b *testing.B) { benchSequentialScan(b, 32) }

// BenchmarkLiveReadSequentialNoReadahead is the same scan with readahead
// disabled: every request pays its own fetch round trip.
func BenchmarkLiveReadSequentialNoReadahead(b *testing.B) { benchSequentialScan(b, -1) }

// benchScanVsWorkingSet is the evidence for cachemod.Config.Policy: it
// interleaves a streaming scan four times the cache's size with round-robin
// re-reads of a warm 128-block working set, then reports what fraction of
// the working set is still resident ("wsresident", 0..1). Under the ghost
// policy the scan can only churn the probation segment, so the working set
// stays near fully resident and its reads stay hits; under the exact-LRU
// ablation one list serves both, and the scan flushes the working set as
// fast as it is re-read. Every pvfsperf workload runs the default policy.
func benchScanVsWorkingSet(b *testing.B, pol buffer.Policy) {
	const blockSize = 4096
	const wsBlocks = 128    // 512 KB working set: fits the protected segment
	const scanBlocks = 1024 // 4 MB scan: four times the whole cache
	c, p := startNode(b, cluster.Config{
		Module: cachemod.Config{
			Buffer:          buffer.Config{Shards: 1, Policy: pol}, // one stripe: deterministic replacement order
			ReadaheadWindow: -1,                                    // block-by-block reads isolate admission
		},
		FlushPeriod: time.Hour,
	})
	ws := createFlushed(b, c, p, "wsbench.dat", wsBlocks*blockSize)
	scan := createFlushed(b, c, p, "scanbench.dat", scanBlocks*blockSize)
	buf := make([]byte, blockSize)
	readBlock := func(f *pvfs.File, idx int) {
		if _, err := f.ReadAt(buf, int64(idx)*blockSize); err != nil {
			b.Fatal(err)
		}
	}
	// Warm the working set (the second pass promotes it to protected
	// under the ghost policy), then run one full untimed scan so the
	// residency outcome is established even at b.N == 1.
	for pass := 0; pass < 2; pass++ {
		for i := 0; i < wsBlocks; i++ {
			readBlock(ws, i)
		}
	}
	for i := 0; i < scanBlocks; i++ {
		readBlock(scan, i)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		for k := 0; k < 4; k++ {
			readBlock(scan, (i*4+k)%scanBlocks)
		}
		readBlock(ws, i%wsBlocks)
	}
	b.StopTimer()
	resident := 0
	for i := 0; i < wsBlocks; i++ {
		if c.Module(0).Buffer().Contains(blockio.BlockKey{File: ws.ID(), Index: int64(i)}, 0, blockSize) {
			resident++
		}
	}
	b.ReportMetric(float64(resident)/wsBlocks, "wsresident")
	b.SetBytes(5 * blockSize)
}

// BenchmarkLiveScanVsWorkingSet runs the scan-vs-working-set storm under
// the scan-resistant ghost policy.
func BenchmarkLiveScanVsWorkingSet(b *testing.B) { benchScanVsWorkingSet(b, buffer.PolicyGhost) }

// BenchmarkLiveScanVsWorkingSetLRU is the single-list ablation: the same
// storm under exact LRU, where the scan displaces the working set.
func BenchmarkLiveScanVsWorkingSetLRU(b *testing.B) { benchScanVsWorkingSet(b, buffer.PolicyLRU) }

// benchCrossRead measures cluster.Config.GlobalCache on the mem backend:
// two caching nodes each read their own half of a 128-block working set
// (which fits one node's 256-block cache), then each re-reads the other
// node's half. One op is one round of those re-reads, 128 blocks, timed
// alone. With the global cache on, every re-read can be served from
// cluster memory: a block homed at the reader was pushed to it, and one
// homed at the other node is in that node's cache. Off, every re-read is
// an iod fetch. iodblocks/op counts the blocks the iods read in the timed
// re-reads, gchits/op the re-reads a peer served. Each round writes a
// fresh file around both caches first and drops it from both after, so
// rounds are independent. Readahead is off on both sides, so every block
// is fetched on its own demand.
func benchCrossRead(b *testing.B, global bool) {
	const blockSize = 4096
	const half = 64
	c, err := cluster.Start(cluster.Config{
		IODs: 4, ClientNodes: 2, Caching: true, CacheBlocks: 256, GlobalCache: global,
		FlushPeriod: time.Hour,
		Module:      cachemod.Config{ReadaheadWindow: -1},
	})
	if err != nil {
		b.Fatal(err)
	}
	b.Cleanup(func() { c.Close() })
	var procs [2]*pvfs.Client
	for node := range procs {
		if procs[node], err = c.NewProcess(node); err != nil {
			b.Fatal(err)
		}
		b.Cleanup(func() { procs[node].Close() })
	}
	writer, err := pvfs.NewClient(pvfs.Config{Network: c.Network, MgrAddr: c.MgrAddr, IODAddrs: c.IODDataAddrs, ClientID: 99})
	if err != nil {
		b.Fatal(err)
	}
	b.Cleanup(func() { writer.Close() })
	if global {
		// The first joiner learns of the second from its view refresh.
		deadline := time.Now().Add(5 * time.Second)
		for c.Module(0).GlobalCacheNode().Ring().Epoch() != c.Module(1).GlobalCacheNode().Ring().Epoch() {
			if time.Now().After(deadline) {
				b.Fatal("the two nodes never agreed on the membership view")
			}
			time.Sleep(time.Millisecond)
		}
	}

	data := make([]byte, 2*half*blockSize)
	buf := make([]byte, blockSize)
	read := func(node int, name string, from int) {
		f, err := procs[node].Open(name)
		if err != nil {
			b.Fatal(err)
		}
		for i := from; i < from+half; i++ {
			if _, err := f.ReadAt(buf, int64(i)*blockSize); err != nil {
				b.Fatal(err)
			}
		}
		f.Close()
	}
	var iodBytes, gcHits int64
	b.ResetTimer()
	for round := 0; round < b.N; round++ {
		b.StopTimer()
		name := fmt.Sprintf("cross-%d.dat", round)
		f, err := writer.Create(name, pvfs.StripeSpec{})
		if err != nil {
			b.Fatal(err)
		}
		if _, err := f.WriteAt(data, 0); err != nil {
			b.Fatal(err)
		}
		pushed := pushesSent(c)
		read(0, name, 0)
		read(1, name, half)
		if global {
			waitPushes(b, c, pushed+homedAway(c, f.ID(), 0, half)+homedAway(c, f.ID(), 1, half))
		}
		before := c.Reg.Snapshot()
		b.StartTimer()
		read(0, name, half)
		read(1, name, 0)
		b.StopTimer()
		d := c.Reg.Snapshot().Diff(before)
		iodBytes += d["iod.read_bytes"]
		gcHits += d["module.gcache_hits"]
		for node := range procs {
			c.Module(node).Buffer().InvalidateFile(f.ID())
		}
		f.Close()
	}
	b.ReportMetric(float64(iodBytes)/blockSize/float64(b.N), "iodblocks/op")
	b.ReportMetric(float64(gcHits)/float64(b.N), "gchits/op")
}

// pushesSent counts the global-cache pushes the cluster has delivered or
// dropped.
func pushesSent(c *cluster.Cluster) int64 {
	s := c.Reg.Snapshot()
	return s.Counters["gcache.push_tx"] + s.Counters["gcache.push_dropped"]
}

// homedAway counts the blocks of node's half of file that another node
// is home to: node pushes each of them there when it fetches it.
func homedAway(c *cluster.Cluster, file blockio.FileID, node, half int) int64 {
	ring := c.Module(node).GlobalCacheNode().Ring()
	var n int64
	for i := node * half; i < (node+1)*half; i++ {
		if ring.Members()[ring.Primary(blockio.BlockKey{File: file, Index: int64(i)})].ID != uint32(node) {
			n++
		}
	}
	return n
}

// waitPushes waits until want pushes have been sent: a push is delivered
// in the background, and a re-read that overtakes it finds its block at
// no peer.
func waitPushes(b *testing.B, c *cluster.Cluster, want int64) {
	b.Helper()
	deadline := time.Now().Add(5 * time.Second)
	for pushesSent(c) < want {
		if time.Now().After(deadline) {
			b.Fatalf("%d of %d global-cache pushes sent", pushesSent(c), want)
		}
		time.Sleep(time.Millisecond)
	}
}

// BenchmarkGlobalCacheCrossRead re-reads the other node's half with the
// global cache on: peers serve the re-reads.
func BenchmarkGlobalCacheCrossRead(b *testing.B) { benchCrossRead(b, true) }

// BenchmarkGlobalCacheCrossReadOff is the control: the same rounds with
// the global cache off, so every re-read is an iod fetch.
func BenchmarkGlobalCacheCrossReadOff(b *testing.B) { benchCrossRead(b, false) }
