// Package simcluster models the paper's testbed as a discrete-event
// simulation: a cluster of client nodes and I/O daemons joined by a shared
// 100 Mbps hub, IDE-class disks behind each daemon, and — on the caching
// configurations — the per-node cache module driving the very same
// buffer-manager policy code (internal/cachemod/buffer) the live system
// runs. Virtual time stands in for the wall clock of the 800 MHz
// Pentium-III nodes; the figures of the paper are regenerated by running
// the micro-benchmark workloads against this model.
package simcluster

import (
	"time"

	"pvfscache/internal/cachemod/buffer"
)

// Params calibrates the hardware and software cost model. Defaults follow
// the paper's platform (P-III/Linux nodes, 100 Mbps shared hub, 20 GB
// Maxtor IDE disks, 1.2 MB cache per node, 4 KB blocks).
type Params struct {
	// BlockSize is the cache block size in bytes.
	BlockSize int

	// NICBandwidth is each port's capacity in bytes/second (100 Mbps
	// full-duplex-ish Fast Ethernet). Transfers are store-and-forward:
	// a message occupies the sender's NIC, then the receiver's. Modeling
	// per-port links rather than one shared medium is required to
	// reproduce the paper's Figure 8, where spreading two applications
	// over disjoint nodes yields a large speedup — impossible if all
	// nodes shared one collision domain.
	NICBandwidth float64
	// WireLatency is the fixed per-hop propagation + forwarding delay.
	WireLatency time.Duration
	// MsgOverhead is the per-message software cost at each end: syscall,
	// TCP/IP stack, interrupt handling on an 800 MHz P-III.
	MsgOverhead time.Duration
	// MsgHeader is the wire framing + TCP/IP header bytes added to every
	// message.
	MsgHeader int64

	// DiskSeek, DiskRotation, DiskRate parameterize each iod's disk
	// (average seek, average rotational latency, media transfer rate in
	// bytes/second).
	DiskSeek     time.Duration
	DiskRotation time.Duration
	DiskRate     float64
	// IODService is the per-message service CPU at the daemon.
	IODService time.Duration
	// IODMemRate is the page-cache copy rate at the daemon in bytes/second
	// (PC-133 era memory).
	IODMemRate float64
	// IODPageCacheBlocks bounds the daemon's page cache (default ~96 MB).
	IODPageCacheBlocks int

	// CacheBlocks is the per-node cache capacity (300 blocks = 1.2 MB).
	CacheBlocks int
	// LowWater / HighWater are the harvester watermarks in blocks.
	LowWater, HighWater int
	// Policy selects the replacement policy (clock = the paper's
	// approximate LRU).
	Policy buffer.Policy
	// HitCopy is the cache lookup + copy-to-user cost per 4 KB block on a
	// socket call. The paper bounds it by "less than 400 microseconds";
	// the slope of its Figure 5(a) implies ~140 µs per block in practice.
	HitCopy time.Duration
	// MissCheck is the per-request cache lookup overhead paid even on
	// misses.
	MissCheck time.Duration
	// InsertCost is the per-block bookkeeping + memcpy cost of installing
	// fetched data in the cache (the miss path's extra work over original
	// PVFS, far cheaper than a full hit copy).
	InsertCost time.Duration
	// ReqOverhead is the fixed libpvfs per-call client cost (request
	// assembly, syscalls) paid by both the caching and the original
	// version.
	ReqOverhead time.Duration
	// FlushPeriod is the flusher thread's period; FlushTick is the
	// polling granularity at which it also reacts to pressure kicks.
	FlushPeriod time.Duration
	FlushTick   time.Duration
	// FlushStreams bounds how many iods' flush groups drain concurrently
	// in one flusher round, and FlushWindow bounds the concurrent flush
	// messages in flight per iod — the virtual-time model of the live
	// system's pipelined write-behind engine. Both default to 1: the
	// serial drain the paper's figures were calibrated against (and the
	// live engine's seed-shape ablation). Raising them overlaps the
	// per-message wire and daemon service times exactly as the live
	// engine overlaps real round trips.
	FlushStreams int
	FlushWindow  int
	// StripSize is the PVFS strip size files are created with.
	StripSize uint32
}

// DefaultParams returns the platform calibration described above.
func DefaultParams() Params {
	return Params{
		BlockSize: 4096,

		NICBandwidth: 100e6 / 8, // 100 Mbps per port
		WireLatency:  20 * time.Microsecond,
		MsgOverhead:  150 * time.Microsecond,
		MsgHeader:    100,

		DiskSeek:           9 * time.Millisecond,
		DiskRotation:       4170 * time.Microsecond,
		DiskRate:           20e6,
		IODService:         100 * time.Microsecond,
		IODMemRate:         400e6,
		IODPageCacheBlocks: 24576, // 96 MB

		CacheBlocks:  300, // 1.2 MB of 4 KB blocks
		LowWater:     30,
		HighWater:    75,
		Policy:       buffer.PolicyClock,
		HitCopy:      100 * time.Microsecond,
		MissCheck:    30 * time.Microsecond,
		InsertCost:   20 * time.Microsecond,
		ReqOverhead:  200 * time.Microsecond,
		FlushPeriod:  time.Second,
		FlushTick:    10 * time.Millisecond,
		FlushStreams: 1, // serial drain: the calibration the figures assume
		FlushWindow:  1,

		StripSize: 64 << 10,
	}
}

// wireTime returns one hop's link occupancy for a message of the given
// payload size.
func (p Params) wireTime(payload int64) time.Duration {
	bytes := payload + p.MsgHeader
	return p.WireLatency + time.Duration(float64(bytes)/p.NICBandwidth*float64(time.Second))
}

// memTime returns the daemon-side page-cache copy time for n bytes.
func (p Params) memTime(n int64) time.Duration {
	if n <= 0 {
		return 0
	}
	return time.Duration(float64(n) / p.IODMemRate * float64(time.Second))
}
