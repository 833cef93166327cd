package pvfscache_test

// The repository's benchmark is pvfsperf/ (BENCHMARK.json), and the paper's
// figures are cmd/experiments diffed against bench/figures.txt. What lives
// here is only the two knob-ablation pairs neither of those reaches: each
// pair runs one live workload with a cachemod.Config knob on its default
// side and on its ablated side, and is the evidence docs/TUNING.md cites
// for that knob. A pair reports a ratio inside one process on one machine;
// no absolute number it prints is a performance record.
//
//	ReadaheadWindow: BenchmarkLiveReadSequentialReadahead vs ...NoReadahead
//	Policy:          BenchmarkLiveScanVsWorkingSet vs ...LRU

import (
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
