package cachemod

// The write-storm drain pair: FlushAll over a full dirty cache spread
// across 4 iods whose Flush handlers have a realistic per-frame service
// time (disk write + network, modeled as a sleep, the same technique as
// internal/rpc's BenchmarkMultiplexedPool — on a single-core runner a
// sleep is the only latency that can genuinely overlap). The pipelined
// engine drains all four iods in parallel with FlushWindow frames in
// flight each; the serial control (FlushWindow=1) keeps one blocking
// frame in flight per stream.
//
//	go test -run xxx -bench FlushDrain -benchmem ./internal/cachemod/

import (
	"bytes"
	"path/filepath"
	"testing"
	"time"

	"pvfscache/internal/blockio"
	"pvfscache/internal/cachemod/buffer"
	"pvfscache/internal/iod"
	"pvfscache/internal/metrics"
	"pvfscache/internal/rpc"
	"pvfscache/internal/storage/disk"
	"pvfscache/internal/transport"
	"pvfscache/internal/wire"
)

// flushServiceTime models the iod-side cost of absorbing one flush frame
// (queueing + disk write). 400 µs is conservative against the paper's
// IDE-class disks (a seek alone is 9 ms there).
const flushServiceTime = 400 * time.Microsecond

// benchFlushModule assembles a module whose 4 iods are stubs that ack
// each Flush after flushServiceTime. Returns the module and a dirty-fill function that
// dirties `dirty` blocks (spread evenly across the 4 iods, one file per
// iod). The cache is sized with headroom above the dirty set so the fill
// itself never stalls on space pressure and kicks no mid-fill flush —
// the measured FlushAll sees the full backlog.
func benchFlushModule(b *testing.B, dirty, window int) (*Module, func()) {
	b.Helper()
	net := transport.NewMem()
	reg := metrics.NewRegistry()

	const iods = 4
	var addrs []string
	for i := 0; i < iods; i++ {
		l, err := net.Listen("")
		if err != nil {
			b.Fatal(err)
		}
		b.Cleanup(func() { l.Close() })
		srv := rpc.NewServer(rpc.HandlerFunc(func(msg wire.Message) wire.Message {
			if _, ok := msg.(*wire.Register); ok {
				return &wire.RegisterAck{Status: wire.StatusOK}
			}
			if _, ok := msg.(*wire.Flush); !ok {
				return nil
			}
			time.Sleep(flushServiceTime)
			return &wire.FlushAck{Status: wire.StatusOK}
		}), rpc.ServerConfig{})
		go srv.Serve(l)
		b.Cleanup(func() { srv.Close() })
		addrs = append(addrs, l.Addr())
	}

	mod, err := New(Config{
		Network:      net,
		ClientID:     1,
		IODDataAddrs: addrs,
		Buffer: buffer.Config{
			BlockSize: 4096,
			Capacity:  dirty * 2, // headroom: hash skew cannot starve a shard
			Shards:    4,
		},
		FlushPeriod: time.Hour, // drains run only on FlushAll's kicks
		FlushWindow: window,
		Registry:    reg,
	})
	if err != nil {
		b.Fatal(err)
	}
	b.Cleanup(func() { mod.Close() })

	tr := mod.NewTransport()
	per := dirty / iods
	block := bytes.Repeat([]byte{0xAB}, 4096)
	fill := func() {
		for iodIdx := 0; iodIdx < iods; iodIdx++ {
			file := blockio.FileID(10 + iodIdx)
			for blk := 0; blk < per; blk++ {
				if err := sendRecvNoT(tr, iodIdx, &wire.Write{
					File: file, Offset: int64(blk) * 4096, Data: block,
				}); err != nil {
					b.Fatal(err)
				}
			}
		}
		if got := mod.Buffer().DirtyCount(); got != per*iods {
			b.Fatalf("dirty = %d, want %d", got, per*iods)
		}
	}
	return mod, fill
}

// benchFlushDrain measures FlushAll wall time over a 2 MB dirty backlog
// (512 blocks, 128 per iod). Each iod's backlog stays below one burst
// (flushBurst): a stream whose backlog is a whole number of bursts must
// take once more to learn it is empty, and that trailing take can still
// be running when FlushAll returns and carry off blocks of the next fill.
func benchFlushDrain(b *testing.B, window int) {
	const dirty = 512
	mod, fill := benchFlushModule(b, dirty, window)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		b.StopTimer()
		fill()
		b.StartTimer()
		if err := mod.FlushAll(); err != nil {
			b.Fatal(err)
		}
	}
	b.SetBytes(dirty * 4096)
}

// BenchmarkFlushDrainPipelined: all four streams drain in parallel,
// FlushWindow (default 4) frames in flight each.
func BenchmarkFlushDrainPipelined(b *testing.B) { benchFlushDrain(b, 0) }

// BenchmarkFlushDrainSerial is the control: every stream keeps one
// blocking frame in flight (FlushWindow 1).
func BenchmarkFlushDrainSerial(b *testing.B) { benchFlushDrain(b, 1) }

// benchFlushModuleDisk is the real-disk variant of benchFlushModule: the
// four iods are real ones, each over its own WAL-backed disk
// backend in a temp directory. No modeled sleep — the service time is
// the journal append + page-cache write the engine actually pays.
func benchFlushModuleDisk(b *testing.B, dirty, window int) (*Module, func()) {
	b.Helper()
	net := transport.NewMem()
	reg := metrics.NewRegistry()

	const iods = 4
	var addrs []string
	for i := 0; i < iods; i++ {
		store, err := disk.Open(disk.Options{Dir: filepath.Join(b.TempDir(), "iod")})
		if err != nil {
			b.Fatal(err)
		}
		b.Cleanup(func() { store.Close() })
		d := iod.NewWithBackend(i, 4096, net, reg, store)
		l, err := net.Listen("")
		if err != nil {
			b.Fatal(err)
		}
		b.Cleanup(func() { l.Close(); d.Close() })
		go d.ServeData(l)
		addrs = append(addrs, l.Addr())
	}

	mod, err := New(Config{
		Network:      net,
		ClientID:     1,
		IODDataAddrs: addrs,
		Buffer: buffer.Config{
			BlockSize: 4096,
			Capacity:  dirty * 2,
			Shards:    4,
		},
		FlushPeriod: time.Hour,
		FlushWindow: window,
		Registry:    reg,
	})
	if err != nil {
		b.Fatal(err)
	}
	b.Cleanup(func() { mod.Close() })

	tr := mod.NewTransport()
	per := dirty / iods
	block := bytes.Repeat([]byte{0xAB}, 4096)
	fill := func() {
		for iodIdx := 0; iodIdx < iods; iodIdx++ {
			file := blockio.FileID(10 + iodIdx)
			for blk := 0; blk < per; blk++ {
				if err := sendRecvNoT(tr, iodIdx, &wire.Write{
					File: file, Offset: int64(blk) * 4096, Data: block,
				}); err != nil {
					b.Fatal(err)
				}
			}
		}
		if got := mod.Buffer().DirtyCount(); got != per*iods {
			b.Fatalf("dirty = %d, want %d", got, per*iods)
		}
	}
	return mod, fill
}

func benchFlushDrainDisk(b *testing.B, window int) {
	const dirty = 512
	mod, fill := benchFlushModuleDisk(b, dirty, window)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		b.StopTimer()
		fill()
		b.StartTimer()
		if err := mod.FlushAll(); err != nil {
			b.Fatal(err)
		}
	}
	b.SetBytes(dirty * 4096)
}

// BenchmarkFlushDrainPipelinedDisk / SerialDisk: the FlushDrain pair
// against real WAL-backed iods instead of modeled service time — the
// first benchmark numbers in the repo that touch an actual filesystem.
func BenchmarkFlushDrainPipelinedDisk(b *testing.B) { benchFlushDrainDisk(b, 0) }
func BenchmarkFlushDrainSerialDisk(b *testing.B)    { benchFlushDrainDisk(b, 1) }
