// Package buffer implements the paper's "full-fledged buffer manager of
// blocks": a fixed-capacity cache of 4 KB blocks with a hash table for
// lookup, a free list refilled by the harvester between a low and a high
// watermark, a dirty list drained by the flusher, and an approximate-LRU
// (clock, second-chance) replacement policy that prefers evicting clean
// blocks over dirty ones. The paper explicitly chose approximate LRU
// because "exact LRU can result in a significant overhead at each
// read/write invocation", and here a clock hit indeed only sets the
// referenced bit; every frame, and the queue links inside it, is allocated
// up front, so a request pops the free list and allocates nothing. A
// scan-resistant policy (PolicyGhost, see ghost.go) implements the paper's
// discretionary-admission idea: blocks must prove reuse against a bounded
// ghost list of evicted keys before they may displace the protected
// working set. Exact LRU, for the ablation study, is that policy's
// segmented queue with nothing protected and nothing remembered. A
// resident frame is on exactly one replacement queue — the one its policy
// reads — and, while dirty, on the dirty queue.
//
// The manager is pure policy: every method is non-blocking and returns an
// explicit outcome. The live cache module wraps it with goroutines and
// waiting; the discrete-event simulator drives the same code in virtual
// time. Both therefore exercise identical replacement behaviour.
//
// Concurrency: the manager is lock-striped into Config.Shards independent
// shards (see shard.go), mirroring the paper's in-kernel fine-grained
// locking. Every block key routes to exactly one shard by the same mix
// hash the global cache homes blocks with (blockio.BlockKey.Mix), and each
// shard owns its slice of the pre-allocated frames together with its own
// hash table, replacement queue, dirty queue and free list. Per-block
// operations touch a single shard lock; cross-shard operations (TakeDirty,
// InvalidateFile, Harvest, Stats) explicitly aggregate over the shards.
// Shards = 1 reproduces the previous single-mutex behaviour exactly and is
// kept as the ablation baseline and for the deterministic simulator.
//
// Each block tracks a single valid interval and a single dirty interval
// (dirty ⊆ valid). Flushing any valid byte is safe — clean valid bytes
// equal the stored data — so a write merging with resident valid data only
// needs the dirty hull. A write that would leave an unknown gap inside the
// dirty hull reports OutcomeNeedFetch and the caller performs a
// read-modify-write.
package buffer

import (
	"cmp"
	"fmt"
	"runtime"
	"slices"
	"sync"
	"sync/atomic"

	"pvfscache/internal/blockio"
	"pvfscache/internal/metrics"
)

// Policy selects the replacement algorithm.
type Policy int

const (
	// PolicyClock is the paper's approximate LRU: a second-chance sweep
	// that prefers clean victims.
	PolicyClock Policy = iota
	// PolicyLRU is exact LRU (ablation baseline): PolicyGhost's segmented
	// queue with an empty protected segment and no ghost history.
	PolicyLRU
	// PolicyGhost is the scan-resistant discretionary-admission policy
	// (2Q/ARC-flavoured, see ghost.go): residents are segmented into a
	// probationary queue and a protected working set, and each shard keeps
	// a bounded metadata-only ghost list of recently evicted keys. A block
	// must prove reuse — a hit while resident, or a ghost hit on
	// re-admission — before it may occupy or displace protected frames, so
	// one large scan can no longer flush a node's working set.
	PolicyGhost
)

// String names the policy.
func (p Policy) String() string {
	switch p {
	case PolicyClock:
		return "clock"
	case PolicyLRU:
		return "lru"
	case PolicyGhost:
		return "ghost"
	default:
		return fmt.Sprintf("Policy(%d)", int(p))
	}
}

// Outcome reports the result of a cache mutation.
type Outcome int

const (
	// OutcomeOK means the operation was applied to the cache.
	OutcomeOK Outcome = iota
	// OutcomeNeedFetch means the write would leave an unknown gap in the
	// block; the caller must fetch the block and retry (read-modify-write).
	OutcomeNeedFetch
	// OutcomeNoSpace means no free block was available and no clean block
	// could be evicted. The caller should flush and retry, or bypass.
	OutcomeNoSpace
	// OutcomeStale means the install was rejected because the block's
	// write stamp moved past the caller's snapshot: a write was applied —
	// and possibly flushed and evicted — after the fetch carrying this
	// image was issued, so the image may predate data the iod already
	// acknowledged. The caller must re-read the block and retry with a
	// fresh stamp. Nothing was installed or patched.
	OutcomeStale
)

// String names the outcome.
func (o Outcome) String() string {
	switch o {
	case OutcomeOK:
		return "ok"
	case OutcomeNeedFetch:
		return "need-fetch"
	case OutcomeNoSpace:
		return "no-space"
	case OutcomeStale:
		return "stale"
	default:
		return fmt.Sprintf("Outcome(%d)", int(o))
	}
}

// Config sizes a Manager.
type Config struct {
	// BlockSize is the cache block size in bytes (default 4 KB).
	BlockSize int
	// Capacity is the total number of blocks (default 300 = 1.2 MB / 4 KB,
	// the paper's per-node cache size).
	Capacity int
	// LowWater triggers harvesting when the free list falls below it
	// (default Capacity/10). Watermarks are apportioned across shards
	// pro rata to each shard's capacity.
	LowWater int
	// HighWater is the harvester's refill target (default Capacity/4).
	HighWater int
	// Shards is the number of lock stripes. Keys route to shards by
	// blockio.BlockKey.Mix. 0 picks a power of two ≥ GOMAXPROCS (at least
	// 4, so a cache built early in a program's life still scales when
	// more threads appear); explicit values are rounded up to a power of
	// two and capped so every shard owns at least one frame. 1 is the
	// single-mutex ablation baseline and the deterministic-simulation
	// setting: replacement order then matches the pre-sharding manager
	// exactly. Kept on purpose: the DES figures are bit-identical only
	// at 1, and the sharded-vs-single-shard oracle uses it as reference.
	// It is a value, not a path: one shard runs the same code as many.
	Shards int
	// Policy selects the replacement algorithm (default PolicyClock).
	// All three are kept on purpose: the simulator's eviction ablation
	// (A1) compares clock against LRU, and ghost is the scan-resistant
	// policy the live admission tests and examples/scanresist run. They
	// cost two queues, not three: LRU is ghost's segmented queue with
	// nothing protected and nothing remembered.
	Policy Policy
	// Registry receives hit/miss/eviction counters; nil uses a private one.
	Registry *metrics.Registry
}

func (c *Config) fillDefaults() {
	if c.BlockSize <= 0 {
		c.BlockSize = blockio.DefaultBlockSize
	}
	if c.Capacity <= 0 {
		c.Capacity = 300
	}
	if c.LowWater <= 0 {
		c.LowWater = c.Capacity / 10
	}
	if c.HighWater <= 0 {
		c.HighWater = c.Capacity / 4
	}
	if c.HighWater > c.Capacity {
		c.HighWater = c.Capacity
	}
	if c.LowWater > c.HighWater {
		c.LowWater = c.HighWater
	}
	if c.Shards <= 0 {
		n := runtime.GOMAXPROCS(0)
		if n < 4 {
			n = 4
		}
		c.Shards = n
	}
	c.Shards = ceilPow2(c.Shards)
	for c.Shards > 1 && c.Shards > c.Capacity {
		c.Shards >>= 1
	}
	if c.Registry == nil {
		c.Registry = metrics.NewRegistry()
	}
}

// ceilPow2 rounds n up to the next power of two (n ≥ 1).
func ceilPow2(n int) int {
	p := 1
	for p < n {
		p <<= 1
	}
	return p
}

// block is one cache frame.
type block struct {
	key    blockio.BlockKey
	owner  int    // iod index holding this block's data on disk
	tenant uint32 // principal charged for the dirty residency (0 = untagged)
	data   []byte

	validOff, validLen int
	dirtyOff, dirtyLen int
	written            bool // any write this residency (dirtying or sync)
	// prefetched marks a frame the prefetcher installed that no demand
	// read has hit yet (see AdmitPrefetch). The frame-recycle point clears
	// it, so the mark never outlives the bytes it describes.
	prefetched bool
	dirtySeq   uint64 // manager-wide age stamp of the dirty enqueue
	// inflight is the token of the flush snapshot in flight to the iod —
	// the key's write stamp when it was cut (see snapshotForFlush) — or 0
	// when none is. A block is taken only while dirty, and a frame holding
	// a token is never recycled: a block dropped mid-flight keeps its frame,
	// emptied and clean, until the flush's FlushDone or FlushFailed, so
	// FlushPending still sees the older flush (see shard.drop).
	inflight uint32

	ref bool // clock referenced bit

	repl link // on the policy's replacement queue while resident
	dirt link // on the dirty queue while dirty
}

func (b *block) dirty() bool { return b.dirtyLen > 0 }

// FlushItem is a snapshot of one dirty span handed to the flusher.
//
// One take snapshots into one buffer, its TakeScratch's slab, cut into
// block-sized slots in the order the items are returned; slot k holds item
// k's span at its offset within the block, so Data is a sub-slice of that
// shared buffer and lives as long as the take (see TakeScratch). Slot is
// the item's 1-based slot number (0: Data stands alone). Two items with
// consecutive Slots whose spans tile the block boundary — the first
// dirty to its block's end, the second from its block's start — are
// therefore contiguous in memory: Data of the first, re-sliced to the
// combined length, is the bytes of both.
type FlushItem struct {
	Key   blockio.BlockKey
	Owner int
	Off   int
	Data  []byte
	Slot  int
	token uint32 // the block's in-flight token for this snapshot
}

// Stats is a point-in-time summary of manager state. With several shards
// it is an aggregate: each shard is sampled consistently under its own
// lock, but the shards are sampled one after another.
type Stats struct {
	Capacity  int
	Resident  int
	Free      int
	Dirty     int
	Ghosts    int // PolicyGhost: remembered evicted keys across shards
	Hits      int64
	Misses    int64
	Evictions int64

	// PolicyGhost admission/eviction activity (see shard.go); BypassReads
	// counts blocks the module intentionally served around the cache.
	GhostHits          int64
	AdmissionRejects   int64
	ProtectedEvictions int64
	BypassReads        int64
}

// counters caches the registry counter pointers so the per-operation hot
// paths never take the registry's lookup mutex.
type counters struct {
	hits          *metrics.Counter
	misses        *metrics.Counter
	evictions     *metrics.Counter
	invalidations *metrics.Counter
	writeNoSpace  *metrics.Counter
	insertNoSpace *metrics.Counter
	writeRMW      *metrics.Counter
	staleInstalls *metrics.Counter
	inflightDrops *metrics.Counter

	ghostHits          *metrics.Counter
	admissionRejects   *metrics.Counter
	protectedEvictions *metrics.Counter
	bypassReads        *metrics.Counter
}

// Manager is the buffer manager. All methods are safe for concurrent use;
// per-block operations contend only within the owning shard.
type Manager struct {
	cfg    Config
	shards []*shard
	mask   uint64 // len(shards)-1; len is a power of two

	dirtySeq atomic.Uint64 // cross-shard dirty-age stamps for TakeDirty

	// Tenant flush weights (SetTenantWeight). hasWeights lets the flusher's
	// TakeDirty path skip the weighted apportioning entirely until the
	// first weight is registered.
	weightMu   sync.Mutex
	weights    map[uint32]int
	hasWeights atomic.Bool
}

// New returns a manager with cfg (zero fields take defaults).
func New(cfg Config) *Manager {
	cfg.fillDefaults()
	m := &Manager{cfg: cfg, mask: uint64(cfg.Shards - 1)}
	ctrs := &counters{
		hits:          cfg.Registry.Counter("cache.hits"),
		misses:        cfg.Registry.Counter("cache.misses"),
		evictions:     cfg.Registry.Counter("cache.evictions"),
		invalidations: cfg.Registry.Counter("cache.invalidations"),
		writeNoSpace:  cfg.Registry.Counter("cache.write_nospace"),
		insertNoSpace: cfg.Registry.Counter("cache.insert_nospace"),
		writeRMW:      cfg.Registry.Counter("cache.write_rmw"),
		staleInstalls: cfg.Registry.Counter("cache.stale_installs"),
		inflightDrops: cfg.Registry.Counter("cache.invalidated_in_flight"),

		ghostHits:          cfg.Registry.Counter("cache.ghost_hits"),
		admissionRejects:   cfg.Registry.Counter("cache.admission_rejects"),
		protectedEvictions: cfg.Registry.Counter("cache.protected_evictions"),
		bypassReads:        cfg.Registry.Counter("cache.bypass_reads"),
	}
	// Pre-allocate every frame in one slab, as the kernel module does:
	// allocation at request time only pops a shard's free list. Frames are
	// dealt out across shards; the remainder goes to the first shards.
	backing := make([]byte, cfg.Capacity*cfg.BlockSize)
	next := 0
	for i := 0; i < cfg.Shards; i++ {
		capacity := cfg.Capacity / cfg.Shards
		if i < cfg.Capacity%cfg.Shards {
			capacity++
		}
		low := cfg.LowWater * capacity / cfg.Capacity
		high := cfg.HighWater * capacity / cfg.Capacity
		// Pro-rata rounding must not disable harvesting: a shard with a
		// handful of frames still needs low ≥ 1 ("len(free) < 0" is never
		// true) or the background harvester would never run and every
		// allocation would pay inline eviction under the shard lock.
		if low < 1 && cfg.LowWater > 0 {
			low = 1
		}
		if high < low {
			high = low
		}
		if high > capacity {
			high = capacity
		}
		if cfg.Shards > 1 {
			// A striped shard must never target 100% free: with low ≥ 1
			// and high == capacity, any resident block would re-trigger
			// the harvester, which would evict it — every block routed
			// there would survive at most one harvester tick. Capping
			// high at capacity-1 turns the degenerate one-frame shard
			// into low = high = 0 (harvest disabled there; allocation
			// falls back to inline eviction), and leaves the single-shard
			// ablation's semantics untouched.
			if high > capacity-1 {
				high = capacity - 1
			}
		}
		if low > high {
			low = high
		}
		s := &shard{
			cfg:           &m.cfg,
			ctrs:          ctrs,
			seq:           &m.dirtySeq,
			capacity:      capacity,
			lowWater:      low,
			highWater:     high,
			table:         make(map[blockio.BlockKey]*block, capacity),
			stamps:        make(map[blockio.BlockKey]uint32),
			free:          make([]*block, 0, capacity),
			dirtyByTenant: make(map[uint32]int),
		}
		if cfg.Policy == PolicyGhost {
			// The probation segment keeps at least a quarter of the shard's
			// frames (so there is always somewhere for unproven blocks to
			// live and be evicted from); the ghost history remembers one
			// evicted key per frame — the classic ARC history budget, and
			// metadata only (a key plus two pointers). The other policies
			// leave both at zero: no protected segment, no history.
			s.protCap = capacity - max(capacity/4, 1)
			s.ghost.cap = capacity
		}
		for j := 0; j < capacity; j++ {
			b := &block{data: backing[next*cfg.BlockSize : (next+1)*cfg.BlockSize]}
			b.repl.b, b.dirt.b = b, b
			s.free = append(s.free, b)
			next++
		}
		m.shards = append(m.shards, s)
	}
	return m
}

// shardFor routes a key to its owning shard: the HIGH 32 bits of the mix
// hash whose low bits choose the block's global-cache home node
// (Ring.Home computes Mix() % peers). Disjoint bits keep the two layers
// independent — taking the low bits for both would, with a peer count
// divisible by the shard count (e.g. 4 nodes, 4 shards), collapse every
// block homed at one node into a single shard of that node, re-serializing
// all its PeerGet/PeerPut traffic on one mutex.
func (m *Manager) shardFor(key blockio.BlockKey) *shard {
	return m.shards[(key.Mix()>>32)&m.mask]
}

// BlockSize returns the configured block size.
func (m *Manager) BlockSize() int { return m.cfg.BlockSize }

// Capacity returns the total number of frames across all shards.
func (m *Manager) Capacity() int { return m.cfg.Capacity }

// ShardCount returns the number of lock stripes in use.
func (m *Manager) ShardCount() int { return len(m.shards) }

// ReadSpan copies the bytes [off, off+len(dst)) of the block into dst if
// they are all valid in the cache. It returns false — and counts a miss —
// otherwise. A hit marks the block referenced and refreshes its LRU
// position within its shard. It leaves the frame's prefetch bit alone.
func (m *Manager) ReadSpan(key blockio.BlockKey, off int, dst []byte) bool {
	hit, _ := m.readSpan(key, off, dst, false)
	return hit
}

// ReadSpanDemand is ReadSpan for a demand read: in the same lock
// acquisition a hit consumes the frame's prefetch bit, and prefetchHit
// reports whether it was set — this is the first demand hit on a block the
// prefetcher installed.
func (m *Manager) ReadSpanDemand(key blockio.BlockKey, off int, dst []byte) (hit, prefetchHit bool) {
	return m.readSpan(key, off, dst, true)
}

func (m *Manager) readSpan(key blockio.BlockKey, off int, dst []byte, consume bool) (hit, prefetchHit bool) {
	if len(dst) == 0 {
		return true, false
	}
	return m.shardFor(key).readSpan(key, off, dst, consume)
}

// Contains reports whether the whole span is valid in the cache without
// copying or disturbing replacement state.
func (m *Manager) Contains(key blockio.BlockKey, off, length int) bool {
	return m.shardFor(key).contains(key, off, length)
}

// WriteSpan applies src at offset off of the block, marking the span dirty
// when markDirty is set (the write-behind path) or merely valid when it is
// clear (the sync-write path, whose data is simultaneously persisted at the
// iod). owner is the iod that stores the block.
func (m *Manager) WriteSpan(key blockio.BlockKey, owner, off int, src []byte, markDirty bool) Outcome {
	return m.WriteSpanTenant(key, owner, off, src, markDirty, 0)
}

// WriteSpanTenant is WriteSpan with a principal tag: if the write dirties a
// clean block, the block's dirty residency is charged to tenant until the
// flush that cleans it (or an invalidation that drops it). A block dirtied
// by one tenant and re-written by another keeps its original attribution —
// first-dirtier pays — which keeps the per-tenant counts conserved without
// a transfer protocol. Tenant 0 is the untagged default.
func (m *Manager) WriteSpanTenant(key blockio.BlockKey, owner, off int, src []byte, markDirty bool, tenant uint32) Outcome {
	if len(src) == 0 {
		return OutcomeOK
	}
	if off < 0 || off+len(src) > m.cfg.BlockSize {
		panic(fmt.Sprintf("buffer: span [%d,%d) outside block", off, off+len(src)))
	}
	return m.shardFor(key).writeSpan(key, owner, off, src, markDirty, tenant)
}

// InsertClean installs a freshly fetched whole block. Bytes inside the
// block's current valid interval are preserved: resident data is this
// node's newest view of the block (see InstallFetched), so the fetch only
// fills the invalid remainder. Fetched data shorter than the block size
// leaves the tail zeroed (sparse files read as zero). Callers that go on
// to hand the fetched image out (to readers, waiters, peers) must use
// InstallFetched instead, so their copy gets the same resident-wins patch.
func (m *Manager) InsertClean(key blockio.BlockKey, owner int, data []byte) Outcome {
	if len(data) > m.cfg.BlockSize {
		panic("buffer: InsertClean data exceeds block size")
	}
	return m.shardFor(key).insertClean(key, owner, data)
}

// WriteStamp returns the block's current write stamp. The stamp advances
// under the shard lock on every dirtying write, again when a block that
// was written this residency leaves the table (eviction or
// invalidation), and on every Invalidate or InvalidateClean, resident or
// not (only an InvalidateClean that keeps a dirty block leaves it) — the
// events after which an image fetched from the iod earlier may no longer
// be the newest acknowledged data (a write the fetch predates can be
// applied, flushed, and evicted entirely within the fetch's flight, or
// land at the iod from another node, leaving nothing resident to patch it
// from). A fetch records the stamp when it is issued and presents it at
// install time; the install is refused (OutcomeStale) if the stamp moved.
// The stamp map keeps one word per key written or invalidated on this
// node for the manager's lifetime — never bounded by cache capacity.
func (m *Manager) WriteStamp(key blockio.BlockKey) uint32 {
	return m.shardFor(key).writeStamp(key)
}

// FlushPending reports whether a flush snapshot of key cut before stamp (a
// WriteStamp read after a write) is still in flight: bytes older than that
// write, not yet acknowledged by the iod. A sync-write waits until it is
// not, so the older flush cannot land at the iod after the sync-write.
func (m *Manager) FlushPending(key blockio.BlockKey, stamp uint32) bool {
	return m.shardFor(key).flushPending(key, stamp)
}

// InstallFetched installs a freshly fetched whole-block image and patches
// the caller's buffer to the canonical bytes, in one shard-lock
// acquisition. data should be a whole-block buffer; it is mutated in
// place so that the copy the caller goes on to hand out — to readers,
// fetch-join waiters, the global cache — matches
// what the cache holds: resident valid bytes win over the fetch. They are
// this node's newest view of the block (unflushed dirty data has not
// reached the iod at all, and even just-cleaned data may have landed at
// the iod after the fetch was served there — the iod serves a
// connection's requests concurrently); foreign writers are handled by coherence invalidation, which
// drops the resident block entirely. Every fetch-install path must use
// this instead of a bare InsertClean, or a read of a partially valid
// block can surface the iod's stale bytes for the valid range.
//
// stamp is the block's WriteStamp from when the fetch was issued; if the
// block was written since (even if that write has already been flushed
// and its frame evicted — the resident-wins patch then has nothing left
// to win with), the install is refused with OutcomeStale and data is left
// untouched. Callers re-read the block and retry with a fresh stamp.
func (m *Manager) InstallFetched(key blockio.BlockKey, owner int, data []byte, stamp uint32) Outcome {
	// Whole-block images only: a short buffer could not receive the
	// resident-wins patch, silently diverging the caller's copy from the
	// cache — the very bug this API exists to prevent. (InsertClean, which
	// hands nothing back, accepts short data and zero-fills the tail.)
	if len(data) != m.cfg.BlockSize {
		panic("buffer: InstallFetched requires a whole-block image")
	}
	return m.shardFor(key).installFetched(key, owner, data, 0, stamp)
}

// Admit qualifies an install of a fetched image (InstallFetchedAdmit). The
// zero value is a plain demand install.
type Admit uint8

const (
	// AdmitMust is the discretionary-admission override: the caller carries
	// a must-cache hint, so under PolicyGhost the block is admitted into the
	// protected segment directly (its reuse is asserted by the application,
	// not proven by history) and is never rejected by the admission gate.
	// Under the other policies it has no effect.
	AdmitMust Admit = 1 << iota
	// AdmitPrefetch marks a speculative install: the frame carries a
	// prefetch bit until a demand read consumes it (ReadSpanDemand,
	// OverlaySpan) or the frame is recycled (eviction or invalidation). An
	// install without it is a demand install and clears the bit.
	AdmitPrefetch
)

// InstallFetchedAdmit is InstallFetched qualified by admit (see Admit).
func (m *Manager) InstallFetchedAdmit(key blockio.BlockKey, owner int, data []byte, admit Admit, stamp uint32) Outcome {
	if len(data) != m.cfg.BlockSize {
		panic("buffer: InstallFetchedAdmit requires a whole-block image")
	}
	return m.shardFor(key).installFetched(key, owner, data, admit, stamp)
}

// PatchResident overlays the block's resident valid bytes onto data (a
// whole-block image) without admitting anything: the read-around path's
// half of InstallFetched's resident-wins patch. A read-around fetch must
// still serve this node's newest view of the block — resident bytes may be
// dirtier or newer than what the iod returned — even though the fetched
// image is never installed. The stamp check is the same as
// InstallFetched's: a read-around image whose block was written mid-flight
// is refused (OutcomeStale), because the newer write may already have
// been flushed and evicted, leaving no resident bytes to patch from.
func (m *Manager) PatchResident(key blockio.BlockKey, data []byte, stamp uint32) Outcome {
	if len(data) != m.cfg.BlockSize {
		panic("buffer: PatchResident requires a whole-block image")
	}
	return m.shardFor(key).patchResident(key, data, stamp)
}

// OverlaySpan copies the intersection of the block's resident valid bytes
// with the span [off, off+len(dst)) into dst, where dst holds the span's
// bytes from some earlier snapshot (a joined fetch's published image). The
// snapshot was patched with resident bytes when the fetch landed, but a
// request that joined later may have begun after further writes were
// acked into the cache; re-overlaying at copy time serves the node's
// newest view instead of the pre-write snapshot. A non-resident block
// leaves dst untouched. The overlay is a demand access to the resident
// frame, so like ReadSpanDemand it consumes the frame's prefetch bit and
// reports whether it was set.
func (m *Manager) OverlaySpan(key blockio.BlockKey, off int, dst []byte) (prefetchHit bool) {
	return m.shardFor(key).overlaySpan(key, off, dst)
}

// NoteBypass counts one block intentionally served around the cache (the
// don't-cache read path). The count lands on the
// shard the block would have occupied, so per-shard bypass pressure is
// visible in the folded stats.
func (m *Manager) NoteBypass(key blockio.BlockKey) {
	s := m.shardFor(key)
	s.bypassReads.Add(1)
	s.ctrs.bypassReads.Inc()
}

// dirtyCand is one shard's dirty block offered to a cross-shard TakeDirty
// merge: enough to order globally by age, apportion by tenant weight, and
// come back for the snapshot.
type dirtyCand struct {
	seq    uint64
	key    blockio.BlockKey
	shard  int
	tenant uint32
}

// takeReq asks a shard to snapshot one candidate into slot pos of the
// take's buffer and result slice.
type takeReq struct {
	key blockio.BlockKey
	pos int
}

// TakeDirty snapshots up to max dirty blocks (oldest first) for flushing.
// The blocks stay resident and readable; a subsequent FlushDone marks each
// clean unless it was written while the flush was in flight. Blocks
// already being flushed are skipped. Across shards the batch drains by
// dirty age: every dirty enqueue is stamped from one manager-wide counter,
// and the batch is built in two passes — collect each shard's oldest
// candidates (one lock per shard, no data copied), merge by stamp, then
// snapshot the winners (one more lock per shard) — so sharding neither
// lets one shard's old dirty data linger behind another's fresh writes
// nor makes the flusher's round quadratic in the dirty count. A block
// that a concurrent TakeDirty claims between the passes is simply skipped;
// the next round picks up whatever this one under-returned.
//
// Ownership contract: every returned item is in flight — the block is
// marked so no concurrent round can take it again — and MUST be handed
// back exactly once, to FlushDone (the iod acknowledged the bytes) or
// FlushFailed (it did not). An item that is never handed back wedges its
// block: still dirty, never evictable, never flushable again.
func (m *Manager) TakeDirty(max int) []FlushItem {
	return m.takeDirtyMerged(new(TakeScratch), anyOwner, max, false)
}

// anyOwner disables the owner filter in the candidate collection.
const anyOwner = -1

// TakeDirtyOwned is TakeDirty restricted to the blocks stored by iod
// owner — the pipelined write-behind engine runs one flush stream per
// iod, and each stream drains its own daemon's share of the dirty list
// independently of the others. Selection keeps the manager-wide
// oldest-first priority, but the returned batch is ordered by (file,
// block index) rather than by age ("run-aware ordering"): adjacent dirty
// blocks of a file arrive adjacent — in the batch and, snapshotted in that
// order, in memory (see FlushItem) — so the flusher coalesces them into
// contiguous wire runs without re-sorting or copying. The TakeDirty
// ownership contract applies unchanged: every item must reach FlushDone
// or FlushFailed exactly once.
func (m *Manager) TakeDirtyOwned(owner, max int) []FlushItem {
	return m.takeDirtyMerged(new(TakeScratch), owner, max, true)
}

// TakeDirtyOwnedInto is TakeDirtyOwned working in sc instead of fresh
// storage, so that a flush stream that keeps one TakeScratch for its
// lifetime takes its steady-state bursts without allocating.
func (m *Manager) TakeDirtyOwnedInto(sc *TakeScratch, owner, max int) []FlushItem {
	return m.takeDirtyMerged(sc, owner, max, true)
}

// TakeScratch is a take's working storage: the snapshot slab the items'
// Data point into, the item slice itself, and the candidate and per-shard
// request lists. The zero value is ready; each take reuses what the last
// one grew, and the slab never outgrows the largest take (max blocks of
// BlockSize bytes).
//
// Lifetime: a take's items and their bytes are valid until the next take
// into the same scratch. Before that take the owner must have handed every
// item back (FlushDone or FlushFailed) and finished every write of a frame
// cut from their Data — take → frame → write → ack, then reuse. One
// scratch serves one take at a time.
type TakeScratch struct {
	slab     []byte
	items    []FlushItem
	cands    []dirtyCand
	perShard [][]takeReq
}

// takeDirtyMerged is the two-pass collect/merge/snapshot body shared by
// every take. runOrder sorts the selected candidates by (file, index)
// before they are snapshotted, so the slab holds each run of adjacent
// blocks as one contiguous stretch (see FlushItem) and the per-iod flush
// streams frame it without copying.
func (m *Manager) takeDirtyMerged(sc *TakeScratch, owner, max int, runOrder bool) []FlushItem {
	collect := max
	if max > 0 && m.hasWeights.Load() {
		// Weighted apportioning must see candidates younger than the
		// oldest max, or a low-weight tenant's aged backlog would hide
		// every other tenant from the batch. Candidates are cheap (no
		// data copied) and bounded by capacity, so collect them all.
		collect = 0
	}
	cands := sc.cands[:0]
	for i, s := range m.shards {
		cands = s.collectDirtyCandidates(collect, i, owner, cands)
	}
	sc.cands = cands
	slices.SortFunc(cands, func(a, b dirtyCand) int { return cmp.Compare(a.seq, b.seq) })
	if max > 0 && len(cands) > max {
		if m.hasWeights.Load() {
			cands = m.apportionByWeight(cands, max)
		} else {
			cands = cands[:max]
		}
	}
	if runOrder {
		slices.SortFunc(cands, func(a, b dirtyCand) int {
			if c := cmp.Compare(a.key.File, b.key.File); c != 0 {
				return c
			}
			return cmp.Compare(a.key.Index, b.key.Index)
		})
	}
	if len(sc.perShard) != len(m.shards) {
		sc.perShard = make([][]takeReq, len(m.shards))
	}
	for i := range sc.perShard {
		sc.perShard[i] = sc.perShard[i][:0]
	}
	for i, c := range cands {
		sc.perShard[c.shard] = append(sc.perShard[c.shard], takeReq{key: c.key, pos: i})
	}
	if n := len(cands) * m.cfg.BlockSize; cap(sc.slab) < n {
		sc.slab = make([]byte, n)
	}
	if cap(sc.items) < len(cands) {
		sc.items = make([]FlushItem, len(cands))
	}
	taken := sc.items[:len(cands)]
	clear(taken)
	for i, reqs := range sc.perShard {
		if len(reqs) > 0 {
			m.shards[i].takeKeys(reqs, owner, sc.slab, taken)
		}
	}
	// A candidate claimed or cleaned between the passes left its slot
	// empty; its neighbours' Slots stay non-consecutive, so no run is
	// framed across the hole.
	items := taken[:0]
	for _, it := range taken {
		if it.Slot != 0 {
			items = append(items, it)
		}
	}
	return items
}

// SetTenantWeight sets the flush-scheduling weight of a tenant (default 1;
// values below 1 are clamped). When any weight is registered, oversubscribed
// TakeDirty batches are apportioned across the tenants present in the
// candidate set proportionally to their weights instead of purely by age —
// a heavy low-weight writer can no longer monopolize every flush round and
// starve another tenant's dirty blocks behind its own backlog.
func (m *Manager) SetTenantWeight(tenant uint32, weight int) {
	if weight < 1 {
		weight = 1
	}
	m.weightMu.Lock()
	if m.weights == nil {
		m.weights = make(map[uint32]int)
	}
	m.weights[tenant] = weight
	m.weightMu.Unlock()
	m.hasWeights.Store(true)
}

// apportionByWeight selects max candidates from the age-sorted cands:
// each tenant present gets a slot share proportional to its weight
// (unregistered tenants weigh 1), filled oldest-first within the tenant;
// slots a tenant cannot fill spill over to the globally oldest remaining
// candidates. The result is re-sorted by age so downstream batching sees
// the same oldest-first order as the unweighted path.
func (m *Manager) apportionByWeight(cands []dirtyCand, max int) []dirtyCand {
	byTenant := make(map[uint32][]int) // tenant -> indexes into cands, age order
	for i, c := range cands {
		byTenant[c.tenant] = append(byTenant[c.tenant], i)
	}
	m.weightMu.Lock()
	total := 0
	weight := make(map[uint32]int, len(byTenant))
	for t := range byTenant {
		w := m.weights[t]
		if w < 1 {
			w = 1
		}
		weight[t] = w
		total += w
	}
	m.weightMu.Unlock()

	picked := make([]bool, len(cands))
	n := 0
	for t, idxs := range byTenant {
		share := max * weight[t] / total
		for j := 0; j < share && j < len(idxs); j++ {
			picked[idxs[j]] = true
			n++
		}
	}
	// Rounding slack and underfilled tenants spill to global age order.
	for i := 0; n < max && i < len(cands); i++ {
		if !picked[i] {
			picked[i] = true
			n++
		}
	}
	out := make([]dirtyCand, 0, n)
	for i, c := range cands {
		if picked[i] {
			out = append(out, c)
		}
	}
	return out
}

// FlushDone marks the snapshot's blocks clean: the iod has acknowledged
// the snapshotted bytes. Each item carries the in-flight token its block
// was given at TakeDirty — the key's write stamp at that moment. A block
// whose stamp moved since was written during the flight and stays on the
// dirty queue (its next flush will carry the new data). An item whose
// token is not the block's is the ack of an earlier residency — the block
// was invalidated and the key written again since — and is ignored: it
// says nothing about the bytes resident now. Each TakeDirty item must
// reach exactly one of FlushDone or FlushFailed; a chunked flusher may
// split one take into several calls, as long as every item lands in one
// of them.
func (m *Manager) FlushDone(items []FlushItem) {
	for _, it := range items {
		m.shardFor(it.Key).flushDone(it)
	}
}

// FlushFailed re-queues the snapshot's blocks: the in-flight token is
// cleared without cleaning (an item of an earlier residency is ignored, as
// in FlushDone), and each block keeps both its dirty-queue position and
// its manager-wide age stamp — a failed block is retried with its
// original oldest-first priority, never demoted behind younger writes.
// No retry timing lives here: the flusher owns backoff, the manager only
// guarantees the block stays flushable and unevictable.
func (m *Manager) FlushFailed(items []FlushItem) {
	for _, it := range items {
		m.shardFor(it.Key).flushFailed(it)
	}
}

// Invalidate drops the block, returning whether it was resident. Dirty data
// is discarded — the iod-side writer that triggered the invalidation holds
// the authoritative bytes (the paper's sync-write semantics).
func (m *Manager) Invalidate(key blockio.BlockKey) bool {
	return m.shardFor(key).invalidate(key)
}

// InvalidateClean drops the block only if it holds no unflushed writes:
// dirty (or mid-flush) blocks are kept, because discarding one would lose
// an acknowledged write. Graceful drains use this — a sync-write conflict
// uses Invalidate, whose unconditional drop is last-writer-wins by design.
// It reports whether a block was dropped.
func (m *Manager) InvalidateClean(key blockio.BlockKey) bool {
	return m.shardFor(key).invalidateClean(key)
}

// InvalidateFile drops every resident block of a file and returns how many
// were dropped. The sweep visits the shards one at a time; blocks inserted
// concurrently into an already-swept shard survive, exactly as a block
// inserted right after a single-lock sweep would.
func (m *Manager) InvalidateFile(file blockio.FileID) int {
	dropped := 0
	for _, s := range m.shards {
		dropped += s.invalidateFile(file)
	}
	return dropped
}

// NeedsHarvest reports whether any shard's free list has fallen below its
// low watermark.
func (m *Manager) NeedsHarvest() bool {
	for _, s := range m.shards {
		if s.needsHarvest() {
			return true
		}
	}
	return false
}

// Harvest refills the free list of every shard that has fallen below its
// low watermark, evicting clean blocks until that shard reaches its high
// watermark or no evictable block remains in it; shards still above their
// low watermark keep their warm blocks. It returns the total number of
// blocks freed. Dirty blocks are never evicted here — the caller should
// flush and call Harvest again (the paper's harvester/flusher
// cooperation).
func (m *Manager) Harvest() int {
	freed := 0
	for _, s := range m.shards {
		freed += s.harvest()
	}
	return freed
}

// Stats returns a snapshot of occupancy and activity, aggregated over the
// shards.
func (m *Manager) Stats() Stats {
	st := Stats{Capacity: m.cfg.Capacity}
	for _, s := range m.shards {
		s.mu.Lock()
		st.Resident += len(s.table)
		st.Free += len(s.free)
		st.Dirty += s.dirtyQ.n
		st.Ghosts += s.ghost.order.Len()
		s.mu.Unlock()
		st.Hits += s.hits.Load()
		st.Misses += s.misses.Load()
		st.Evictions += s.evictions.Load()
		st.GhostHits += s.ghostHits.Load()
		st.AdmissionRejects += s.admissionRejects.Load()
		st.ProtectedEvictions += s.protectedEvictions.Load()
		st.BypassReads += s.bypassReads.Load()
	}
	return st
}

// DirtyCount returns the total dirty-list length across shards.
func (m *Manager) DirtyCount() int {
	n := 0
	for _, s := range m.shards {
		s.mu.Lock()
		n += s.dirtyQ.n
		s.mu.Unlock()
	}
	return n
}

// DirtyCountOwned returns the number of dirty blocks (in-flight flushes
// included — a block leaves the queue only when its ack lands) stored by
// one iod. The drain path polls it to decide when a departing iod's dirty
// data is fully durable.
func (m *Manager) DirtyCountOwned(owner int) int {
	n := 0
	for _, s := range m.shards {
		s.mu.Lock()
		for l := s.dirtyQ.head; l != nil; l = l.next {
			if l.b.owner == owner {
				n++
			}
		}
		s.mu.Unlock()
	}
	return n
}

// DirtyCountTenant returns the number of dirty blocks charged to one
// tenant (in-flight flushes included, matching DirtyCountOwned). The QoS
// quota gate polls it per write, so it reads each shard's per-tenant count
// map rather than walking the queues: O(shards), not O(dirty).
func (m *Manager) DirtyCountTenant(tenant uint32) int {
	n := 0
	for _, s := range m.shards {
		s.mu.Lock()
		n += s.dirtyByTenant[tenant]
		s.mu.Unlock()
	}
	return n
}

// DirtyByTenant returns the dirty-block count of every tenant with at
// least one dirty block, aggregated over the shards.
func (m *Manager) DirtyByTenant() map[uint32]int {
	out := make(map[uint32]int)
	for _, s := range m.shards {
		s.mu.Lock()
		for t, n := range s.dirtyByTenant {
			out[t] += n
		}
		s.mu.Unlock()
	}
	return out
}

// FreeCount returns the total free-list length across shards.
func (m *Manager) FreeCount() int {
	n := 0
	for _, s := range m.shards {
		s.mu.Lock()
		n += len(s.free)
		s.mu.Unlock()
	}
	return n
}

// CheckConsistency verifies the manager's structural invariants: every
// shard's frames are conserved (free + resident == shard capacity), every
// resident block routes to the shard holding it and sits on exactly one
// replacement queue — the one the policy reads — the dirty queues hold
// exactly the dirty blocks, only a dirty block carries an in-flight token,
// a free frame carries no links, no token and no prefetch bit, and the
// ghost history is a bounded set of non-resident keys. It is meant for
// tests (the concurrency stress wall calls it after every storm); it takes
// each shard's lock in turn.
func (m *Manager) CheckConsistency() error {
	total := 0
	for i, s := range m.shards {
		if err := s.checkConsistency(i, m.mask); err != nil {
			return err
		}
		total += s.capacity
	}
	if total != m.cfg.Capacity {
		return fmt.Errorf("buffer: shard capacities sum to %d, want %d", total, m.cfg.Capacity)
	}
	return nil
}

// --- interval helpers ---

// covers reports whether [off, off+length) lies inside [vOff, vOff+vLen).
func covers(vOff, vLen, off, length int) bool {
	return vLen > 0 && off >= vOff && off+length <= vOff+vLen
}

// touches reports whether the two intervals overlap or are adjacent.
func touches(aOff, aLen, bOff, bLen int) bool {
	return bOff <= aOff+aLen && aOff <= bOff+bLen
}

// hull returns the smallest interval containing both inputs. A zero-length
// first interval yields the second.
func hull(aOff, aLen, bOff, bLen int) (int, int) {
	if aLen == 0 {
		return bOff, bLen
	}
	lo := aOff
	if bOff < lo {
		lo = bOff
	}
	hi := aOff + aLen
	if bOff+bLen > hi {
		hi = bOff + bLen
	}
	return lo, hi - lo
}

func zero(p []byte) {
	for i := range p {
		p[i] = 0
	}
}
