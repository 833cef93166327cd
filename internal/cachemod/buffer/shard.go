package buffer

import (
	"fmt"
	"sync"
	"sync/atomic"

	"pvfscache/internal/blockio"
)

// shard is one lock stripe of the manager: it owns a fixed slice of the
// pre-allocated frames and runs the full buffer-manager policy (hash
// table, free list, one replacement queue, dirty queue) over them under
// its own mutex. A resident frame sits on exactly one replacement queue —
// the one its policy reads — and, while dirty, on the dirty queue, through
// links embedded in the frame (queue.go). A shard never touches another
// shard's state, so operations on blocks that route to different shards
// proceed fully in parallel. This recovers the paper's in-kernel
// fine-grained locking, which the first reproduction had collapsed to one
// global mutex.
type shard struct {
	cfg       *Config        // shared, read-only after New
	ctrs      *counters      // shared registry counters, resolved once
	seq       *atomic.Uint64 // manager-wide dirty-age stamp
	capacity  int
	lowWater  int
	highWater int
	protCap   int // max protected residents before demotion; 0 unless PolicyGhost

	mu    sync.Mutex
	table map[blockio.BlockKey]*block
	// stamps is the per-key write-stamp table (see Manager.WriteStamp): a
	// key's stamp advances on every dirtying write, when a written block
	// leaves the table and on every invalidation, and installs of fetched
	// images are refused when the stamp moved past the fetcher's snapshot.
	// Entries persist after eviction — that is the point: the stamp must
	// outlive the frame so a fetch that straddled a write+flush+evict
	// cycle, or a remote write's invalidation, is detectably stale. One
	// uint32 per key ever written or invalidated on this node.
	stamps map[blockio.BlockKey]uint32
	free   []*block

	// The replacement queues. PolicyClock reads the ring; PolicyLRU and
	// PolicyGhost read the segmented queue (ghost.go), of which exact LRU
	// is the case with an empty protected segment and an empty history.
	ring  queue // clock: residents in insertion order
	hand  *link // clock hand; nil means the ring's head
	prob  queue // unproven residents, front = most recent
	prot  queue // proven working set, front = most recent
	ghost ghostHistory

	dirtyQ queue // blocks awaiting flush, front = oldest

	// dirtyByTenant counts this shard's dirty blocks per charged tenant
	// (entries are deleted at zero). It is the QoS quota gate's O(shards)
	// answer to "how much dirty residency does this principal hold" and is
	// conserved against the dirty queue by checkConsistency.
	dirtyByTenant map[uint32]int

	// Activity counters are per-shard atomics folded by Manager.Stats, so
	// the hot paths never touch shared cache lines of other shards.
	hits, misses, evictions atomic.Int64

	ghostHits, admissionRejects, protectedEvictions, bypassReads atomic.Int64
}

// readSpan is ReadSpan for keys routed to this shard; consume takes the
// frame's prefetch bit on a hit and reports whether it was set.
func (s *shard) readSpan(key blockio.BlockKey, off int, dst []byte, consume bool) (hit, prefetched bool) {
	s.mu.Lock()
	b, ok := s.table[key]
	if !ok || !covers(b.validOff, b.validLen, off, len(dst)) {
		s.mu.Unlock()
		s.misses.Add(1)
		s.ctrs.misses.Inc()
		return false, false
	}
	copy(dst, b.data[off:off+len(dst)])
	s.touch(b)
	if consume {
		prefetched, b.prefetched = b.prefetched, false
	}
	s.mu.Unlock()
	s.hits.Add(1)
	s.ctrs.hits.Inc()
	return true, prefetched
}

// contains is Contains for keys routed to this shard.
func (s *shard) contains(key blockio.BlockKey, off, length int) bool {
	s.mu.Lock()
	defer s.mu.Unlock()
	b, ok := s.table[key]
	return ok && covers(b.validOff, b.validLen, off, length)
}

// writeSpan is WriteSpan for keys routed to this shard. tenant is charged
// if the write dirties a clean block (see Manager.WriteSpanTenant).
func (s *shard) writeSpan(key blockio.BlockKey, owner, off int, src []byte, markDirty bool, tenant uint32) Outcome {
	s.mu.Lock()
	defer s.mu.Unlock()
	b, ok := s.table[key]
	if !ok {
		// Writes always admit (must): rejecting one would stall the writer,
		// and shed it past WriteStall, for no memory saved — the dirty data
		// has to live somewhere until it reaches the iod.
		b = s.allocate(key, owner, true, false)
		if b == nil {
			s.ctrs.writeNoSpace.Inc()
			return OutcomeNoSpace
		}
		copy(b.data[off:], src)
		b.validOff, b.validLen = off, len(src)
		if markDirty {
			s.markDirty(b, off, len(src), tenant)
		} else {
			s.noteWritten(b)
		}
		return OutcomeOK
	}
	// Merging with resident data: the write must touch the valid interval,
	// otherwise an unknown gap would sit inside the flush hull.
	if b.validLen > 0 && !touches(b.validOff, b.validLen, off, len(src)) {
		s.ctrs.writeRMW.Inc()
		return OutcomeNeedFetch
	}
	copy(b.data[off:], src)
	b.validOff, b.validLen = hull(b.validOff, b.validLen, off, len(src))
	if markDirty {
		s.markDirty(b, off, len(src), tenant)
	} else {
		s.noteWritten(b)
	}
	s.touch(b)
	return OutcomeOK
}

// noteWritten advances the block's write stamp for a non-dirtying (sync)
// write: the bytes changed even though nothing is queued for flushing, so
// in-flight fetch images predating the write must be refused at install.
func (s *shard) noteWritten(b *block) {
	b.written = true
	s.advanceStamp(b.key)
}

// advanceStamp moves key's write stamp forward. Zero is skipped on wrap, so
// it always means "never written" — and, as a block's in-flight token, "no
// snapshot in flight".
func (s *shard) advanceStamp(key blockio.BlockKey) {
	v := s.stamps[key] + 1
	if v == 0 {
		v = 1
	}
	s.stamps[key] = v
}

// flushPending is FlushPending for keys routed to this shard. Stamps are
// compared in serial-number order, so a wrapped counter still orders them.
func (s *shard) flushPending(key blockio.BlockKey, stamp uint32) bool {
	s.mu.Lock()
	defer s.mu.Unlock()
	b, ok := s.table[key]
	return ok && b.inflight != 0 && int32(b.inflight-stamp) < 0
}

// insertClean is InsertClean for keys routed to this shard.
func (s *shard) insertClean(key blockio.BlockKey, owner int, data []byte) Outcome {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.insertCleanLocked(key, owner, data, 0)
}

// installFetched is InstallFetched for keys routed to this shard: check
// the fetcher's stamp, patch the caller's image with the resident valid
// bytes, then install it, all under one lock so the stamp check, the
// installed copy, and the handed-out copy cannot diverge in between.
func (s *shard) installFetched(key blockio.BlockKey, owner int, data []byte, admit Admit, stamp uint32) Outcome {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.stamps[key] != stamp {
		s.ctrs.staleInstalls.Inc()
		return OutcomeStale
	}
	// data is a whole block (Manager.InstallFetched enforces it), so the
	// valid interval always fits.
	if b, ok := s.table[key]; ok && b.validLen > 0 {
		copy(data[b.validOff:], b.data[b.validOff:b.validOff+b.validLen])
	}
	return s.insertCleanLocked(key, owner, data, admit)
}

// overlaySpan is OverlaySpan for keys routed to this shard.
func (s *shard) overlaySpan(key blockio.BlockKey, off int, dst []byte) (prefetched bool) {
	s.mu.Lock()
	defer s.mu.Unlock()
	b, ok := s.table[key]
	if !ok || b.validLen == 0 {
		return false
	}
	lo, hi := max(b.validOff, off), min(b.validOff+b.validLen, off+len(dst))
	if lo < hi {
		copy(dst[lo-off:], b.data[lo:hi])
	}
	prefetched, b.prefetched = b.prefetched, false
	return prefetched
}

// patchResident is PatchResident for keys routed to this shard.
func (s *shard) patchResident(key blockio.BlockKey, data []byte, stamp uint32) Outcome {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.stamps[key] != stamp {
		s.ctrs.staleInstalls.Inc()
		return OutcomeStale
	}
	if b, ok := s.table[key]; ok && b.validLen > 0 {
		copy(data[b.validOff:], b.data[b.validOff:b.validOff+b.validLen])
	}
	return OutcomeOK
}

// writeStamp is WriteStamp for keys routed to this shard.
func (s *shard) writeStamp(key blockio.BlockKey) uint32 {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.stamps[key]
}

// insertCleanLocked is insertClean's body (s.mu held). The install sets
// the frame's prefetch bit when admit carries AdmitPrefetch and clears it
// otherwise.
func (s *shard) insertCleanLocked(key blockio.BlockKey, owner int, data []byte, admit Admit) Outcome {
	b, ok := s.table[key]
	if !ok {
		must := admit&AdmitMust != 0
		b = s.allocate(key, owner, must, must)
		if b == nil {
			s.ctrs.insertNoSpace.Inc()
			return OutcomeNoSpace
		}
		n := copy(b.data, data)
		zero(b.data[n:])
		b.validOff, b.validLen = 0, s.cfg.BlockSize
		b.prefetched = admit&AdmitPrefetch != 0
		return OutcomeOK
	}
	// Merge: resident valid bytes win — they are this node's newest view
	// of the block (its own unflushed writes, or bytes whose flush may
	// have landed after the fetch was served). The fetch only fills the
	// invalid remainder; foreign writers are handled by coherence
	// invalidation, which would have dropped the block before this merge.
	vo, ve := b.validOff, b.validOff+b.validLen
	head := vo
	if head > len(data) {
		head = len(data)
	}
	copy(b.data[:head], data[:head])
	zero(b.data[head:vo])
	if len(data) > ve {
		n := ve + copy(b.data[ve:], data[ve:])
		zero(b.data[n:])
	} else {
		zero(b.data[ve:])
	}
	b.validOff, b.validLen = 0, s.cfg.BlockSize
	b.prefetched = admit&AdmitPrefetch != 0
	s.touch(b)
	return OutcomeOK
}

// collectDirtyCandidates appends up to max (seq, key) pairs for this
// shard's oldest eligible (not in flight) dirty blocks onto out, in queue
// order, without copying any data. max <= 0 collects them all; owner
// filters to blocks stored by one iod (anyOwner disables the filter).
func (s *shard) collectDirtyCandidates(max, shardIdx, owner int, out []dirtyCand) []dirtyCand {
	s.mu.Lock()
	defer s.mu.Unlock()
	n := 0
	for l := s.dirtyQ.head; l != nil && (max <= 0 || n < max); l = l.next {
		b := l.b
		if b.inflight != 0 || (owner != anyOwner && b.owner != owner) {
			continue
		}
		out = append(out, dirtyCand{seq: b.dirtySeq, key: b.key, shard: shardIdx, tenant: b.tenant})
		n++
	}
	return out
}

// takeKeys snapshots the requested blocks for flushing, skipping any that
// were cleaned, invalidated, re-owned (invalidated and re-written from a
// different iod — an owner-filtered take must not route a block to the
// wrong flush stream), or claimed by a concurrent round since they were
// collected. Request r's snapshot lands in slot r.pos of burst and in
// out[r.pos]; a skipped request leaves both untouched.
func (s *shard) takeKeys(reqs []takeReq, owner int, burst []byte, out []FlushItem) {
	s.mu.Lock()
	defer s.mu.Unlock()
	for _, r := range reqs {
		b, ok := s.table[r.key]
		if !ok || b.inflight != 0 || !b.dirty() || (owner != anyOwner && b.owner != owner) {
			continue
		}
		out[r.pos] = s.snapshotForFlush(b, burst, r.pos)
	}
}

// snapshotForFlush marks b in flight and copies its dirty span into slot
// pos of burst, at the span's offset within the block (s.mu held). The
// in-flight token is the key's write stamp: per-key monotonic across
// residencies, so the item's eventual ack can only ever match the
// residency — and the take — it was cut from, and a stamp that moved by
// ack time means the block was written during the flight.
func (s *shard) snapshotForFlush(b *block, burst []byte, pos int) FlushItem {
	b.inflight = s.stamps[b.key]
	start := pos*s.cfg.BlockSize + b.dirtyOff
	data := burst[start : start+b.dirtyLen]
	copy(data, b.data[b.dirtyOff:b.dirtyOff+b.dirtyLen])
	return FlushItem{
		Key:   b.key,
		Owner: b.owner,
		Off:   b.dirtyOff,
		Data:  data,
		Slot:  pos + 1,
		token: b.inflight,
	}
}

// flushDone marks one snapshot item's block clean unless it was written
// during the flight. An item whose token is not the block's belongs to an
// earlier residency of the key (invalidated and rewritten since) and is
// ignored: its bytes are not the ones resident now.
func (s *shard) flushDone(it FlushItem) {
	s.mu.Lock()
	defer s.mu.Unlock()
	b, ok := s.table[it.Key]
	if !ok || b.inflight != it.token {
		return
	}
	b.inflight = 0
	if s.stamps[it.Key] == it.token {
		s.markClean(b)
	}
}

// flushFailed clears the in-flight mark without cleaning; like flushDone
// it ignores an item of an earlier residency.
func (s *shard) flushFailed(it FlushItem) {
	s.mu.Lock()
	defer s.mu.Unlock()
	if b, ok := s.table[it.Key]; ok && b.inflight == it.token {
		b.inflight = 0
	}
}

// invalidate drops one block of this shard. Any ghost memory of the key is
// dropped too — an invalidated block's history must not later count as
// proof of reuse (no resurrection of invalidated keys). The key's write
// stamp advances whether or not the block is resident: the bytes changed
// elsewhere, so a fetch already in flight carries an image that predates
// the invalidation and must be refused at install.
func (s *shard) invalidate(key blockio.BlockKey) bool {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.invalidateLocked(key)
}

// invalidateClean is invalidate restricted to blocks with no unflushed
// writes; dirty or in-flight blocks survive, but their stamp moves too
// (see Manager.InvalidateClean).
func (s *shard) invalidateClean(key blockio.BlockKey) bool {
	s.mu.Lock()
	defer s.mu.Unlock()
	if b, ok := s.table[key]; ok && b.dirty() {
		s.advanceStamp(key)
		return false
	}
	return s.invalidateLocked(key)
}

// invalidateLocked is invalidate's body (s.mu held).
func (s *shard) invalidateLocked(key blockio.BlockKey) bool {
	s.ghost.forget(key)
	s.advanceStamp(key)
	b, ok := s.table[key]
	if !ok {
		return false
	}
	s.drop(b)
	s.ctrs.invalidations.Inc()
	return true
}

// invalidateFile drops every resident block of a file from this shard,
// along with the file's ghost entries (see invalidate).
func (s *shard) invalidateFile(file blockio.FileID) int {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.ghost.forgetFile(file)
	var victims []*block
	for key, b := range s.table {
		if key.File == file {
			victims = append(victims, b)
		}
	}
	for _, b := range victims {
		s.drop(b)
	}
	return len(victims)
}

// drop discards an invalidated block (s.mu held). A block whose flush is
// in flight keeps its frame until the flush's FlushDone or FlushFailed:
// the token on the frame is the only record of that flush, and a
// sync-write of the key must still wait for it (FlushPending). The frame
// is emptied instead — no valid bytes, no prefetch bit, its dirty bytes
// discarded (last writer wins) — and its stamp advances past the token,
// so the ack marks nothing clean and a rewrite of the key waits in its
// frame for a later take. Both victim pickers skip it meanwhile. Each
// such drop counts as cache.invalidated_in_flight.
func (s *shard) drop(b *block) {
	if b.inflight == 0 {
		s.removeBlock(b)
		return
	}
	s.ctrs.inflightDrops.Inc()
	if b.dirty() {
		s.markClean(b)
	}
	b.prefetched = false
	b.validOff, b.validLen = 0, 0
	s.advanceStamp(b.key)
}

// needsHarvest reports whether this shard's free list fell below its low
// watermark.
func (s *shard) needsHarvest() bool {
	s.mu.Lock()
	defer s.mu.Unlock()
	return len(s.free) < s.lowWater
}

// harvest evicts clean blocks until the shard's free list reaches its high
// watermark or no evictable block remains. A shard still above its own low
// watermark is left alone: one starved shard must not cost every other
// shard its warm blocks (the low/high hysteresis the single-mutex manager
// had, applied per stripe).
func (s *shard) harvest() int {
	s.mu.Lock()
	defer s.mu.Unlock()
	if len(s.free) >= s.lowWater {
		return 0
	}
	freed := 0
	for len(s.free) < s.highWater {
		v := s.pickVictim()
		if v == nil {
			break
		}
		s.evictBlock(v)
		freed++
	}
	return freed
}

// --- internal (s.mu held) ---

// allocate pops a free frame or inline-evicts a clean block, and links the
// frame onto its policy's replacement queue, referenced. It returns nil
// when neither is possible (everything resident is dirty) — or, under
// PolicyGhost, when the admission gate turns the newcomer away: an
// unproven block (no ghost hit, no must override) may only displace
// probationary frames, never the protected working set. must forces
// admission (writes, must-cache hints); pin additionally admits straight
// into the protected segment (must-cache: reuse asserted, not proven).
func (s *shard) allocate(key blockio.BlockKey, owner int, must, pin bool) *block {
	proven := s.ghost.forget(key)
	if proven {
		s.ghostHits.Add(1)
		s.ctrs.ghostHits.Inc()
	}
	if len(s.free) == 0 {
		v := s.pickVictim()
		if v == nil {
			return nil
		}
		if v.repl.q == &s.prot && !must && !proven {
			s.admissionRejects.Add(1)
			s.ctrs.admissionRejects.Inc()
			return nil
		}
		s.evictBlock(v)
	}
	n := len(s.free) - 1
	b := s.free[n]
	s.free = s.free[:n]
	b.key = key
	b.owner = owner
	b.written = false
	b.ref = true
	s.table[key] = b
	if s.cfg.Policy == PolicyClock {
		s.ring.pushBack(&b.repl)
	} else {
		s.segInsert(b, proven || pin)
	}
	return b
}

// evictBlock counts and performs one eviction, recording the key in the
// ghost history (eviction is the only way in: invalidated blocks are
// forgotten, not remembered).
func (s *shard) evictBlock(v *block) {
	if v.repl.q == &s.prot {
		s.protectedEvictions.Add(1)
		s.ctrs.protectedEvictions.Inc()
	}
	s.ghost.record(v.key)
	s.removeBlock(v)
	s.evictions.Add(1)
	s.ctrs.evictions.Inc()
}

// removeBlock detaches a block with no flush in flight from its queues and
// returns its frame, with no residency state left on it, to the free list.
// It is the one frame-recycle point (eviction, and the invalidation of a
// block not in flight), so clearing the prefetch bit here, and in drop's
// emptying, is what keeps a mark from outliving its bytes.
func (s *shard) removeBlock(b *block) {
	if b.written {
		// A written block leaving the table advances its write stamp: an
		// in-flight fetch that was issued while (or before) this residency
		// held newer bytes can no longer be patched from it, so its image
		// must not be installed (see Manager.WriteStamp) — and the ack of a
		// flush snapshotted from this residency matches no later one.
		s.advanceStamp(b.key)
	}
	delete(s.table, b.key)
	if s.hand == &b.repl {
		s.hand = b.repl.next
	}
	b.repl.unlink()
	if b.dirty() {
		s.markClean(b)
	}
	b.prefetched = false
	b.validOff, b.validLen = 0, 0
	s.free = append(s.free, b)
}

// touch refreshes replacement state after a genuine re-access of a
// resident block. Under the clock that is the referenced bit and nothing
// else — no queue moves on a hit, which is what the paper chose
// approximate LRU for. The segmented queue moves the block, and under
// PolicyGhost that re-access is the proof of reuse that promotes a
// probationary block into the protected segment. (The access that installs
// a block is its first, not a reuse: allocate links it and nothing more.)
func (s *shard) touch(b *block) {
	b.ref = true
	if s.cfg.Policy != PolicyClock {
		s.segTouch(b)
	}
}

// markDirty extends the block's dirty hull and enqueues it for flushing,
// stamping it with the manager-wide dirty age so cross-shard flush batches
// drain oldest-first. The clean→dirty transition charges tenant; a block
// already dirty keeps its original attribution (first-dirtier pays).
func (s *shard) markDirty(b *block, off, length int, tenant uint32) {
	if !b.dirty() {
		b.dirtySeq = s.seq.Add(1)
		s.dirtyQ.pushBack(&b.dirt)
		b.tenant = tenant
		s.dirtyByTenant[tenant]++
	}
	b.dirtyOff, b.dirtyLen = hull(b.dirtyOff, b.dirtyLen, off, length)
	b.written = true
	s.advanceStamp(b.key)
}

// markClean takes a dirty block off the dirty queue — its flush was
// acknowledged, or it is leaving the cache — releasing the tenant's dirty
// charge.
func (s *shard) markClean(b *block) {
	b.dirtyOff, b.dirtyLen = 0, 0
	b.dirt.unlink()
	s.tenantRelease(b.tenant)
}

// tenantRelease decrements one tenant's dirty count, deleting the entry at
// zero so DirtyByTenant never reports departed tenants.
func (s *shard) tenantRelease(tenant uint32) {
	if n := s.dirtyByTenant[tenant]; n <= 1 {
		delete(s.dirtyByTenant, tenant)
	} else {
		s.dirtyByTenant[tenant] = n - 1
	}
}

// pickVictim chooses a clean resident block with no flush in flight
// according to the policy, or nil if none exists.
func (s *shard) pickVictim() *block {
	if s.cfg.Policy != PolicyClock {
		return s.pickVictimSeg()
	}
	// Clock (second chance), preferring clean blocks: sweep at most two
	// full revolutions. The first gives referenced blocks a second chance;
	// the second picks any clean block.
	n := s.ring.n
	for i := 0; i < 2*n; i++ {
		l := s.hand
		if l == nil {
			l = s.ring.head
		}
		s.hand = l.next
		b := l.b
		if b.dirty() || b.inflight != 0 {
			continue
		}
		if i < n && b.ref {
			b.ref = false
			continue
		}
		return b
	}
	return nil
}

// checkConsistency verifies this shard's structural invariants (under the
// shard lock). shardIdx and mask validate that every resident key routes
// here.
func (s *shard) checkConsistency(shardIdx int, mask uint64) error {
	s.mu.Lock()
	defer s.mu.Unlock()
	resident := len(s.table)
	if got := len(s.free) + resident; got != s.capacity {
		return fmt.Errorf("shard %d: free(%d)+resident(%d) = %d, want capacity %d",
			shardIdx, len(s.free), resident, got, s.capacity)
	}
	// Every resident frame is on exactly one replacement queue, the one its
	// policy reads: each names an allowed queue below, the queues' chains
	// are sound, and together they hold exactly the residents.
	clock := s.cfg.Policy == PolicyClock
	for _, q := range [...]*queue{&s.ring, &s.prob, &s.prot, &s.dirtyQ} {
		if err := q.check(); err != nil {
			return fmt.Errorf("shard %d: %v", shardIdx, err)
		}
	}
	if got := s.ring.n + s.prob.n + s.prot.n; got != resident {
		return fmt.Errorf("shard %d: ring(%d)+probation(%d)+protected(%d) = %d, want resident %d",
			shardIdx, s.ring.n, s.prob.n, s.prot.n, got, resident)
	}
	if s.prot.n > s.protCap {
		return fmt.Errorf("shard %d: protected segment %d exceeds cap %d", shardIdx, s.prot.n, s.protCap)
	}
	if s.hand != nil && s.hand.q != &s.ring {
		return fmt.Errorf("shard %d: clock hand points off the ring", shardIdx)
	}
	dirty := 0
	byTenant := make(map[uint32]int)
	for key, b := range s.table {
		if b.key != key {
			return fmt.Errorf("shard %d: table key %v holds block keyed %v", shardIdx, key, b.key)
		}
		if (key.Mix()>>32)&mask != uint64(shardIdx) {
			return fmt.Errorf("shard %d: block %v routed to wrong shard", shardIdx, key)
		}
		onQueue := b.repl.q == &s.prob || b.repl.q == &s.prot
		if clock {
			onQueue = b.repl.q == &s.ring
		}
		if b.repl.b != b || !onQueue {
			return fmt.Errorf("shard %d: block %v is not on the %v policy's replacement queue", shardIdx, key, s.cfg.Policy)
		}
		if b.dirt.b != b || b.dirty() != (b.dirt.q == &s.dirtyQ) {
			return fmt.Errorf("shard %d: block %v dirtyLen=%d but on dirty queue: %v",
				shardIdx, key, b.dirtyLen, b.dirt.q != nil)
		}
		if b.inflight != 0 && !b.dirty() && int32(s.stamps[key]-b.inflight) <= 0 {
			return fmt.Errorf("shard %d: clean block %v carries in-flight token %d, not behind its stamp %d",
				shardIdx, key, b.inflight, s.stamps[key])
		}
		if b.dirty() {
			dirty++
			byTenant[b.tenant]++
			if !covers(b.validOff, b.validLen, b.dirtyOff, b.dirtyLen) {
				return fmt.Errorf("shard %d: block %v dirty [%d,%d) outside valid [%d,%d)",
					shardIdx, key, b.dirtyOff, b.dirtyOff+b.dirtyLen, b.validOff, b.validOff+b.validLen)
			}
		}
	}
	if s.dirtyQ.n != dirty {
		return fmt.Errorf("shard %d: dirty queue=%d, want %d dirty blocks", shardIdx, s.dirtyQ.n, dirty)
	}
	// Per-tenant dirty conservation: the quota gate's account must equal a
	// recount from the blocks themselves, in both directions, with no
	// lingering zero entries.
	for t, n := range byTenant {
		if s.dirtyByTenant[t] != n {
			return fmt.Errorf("shard %d: tenant %d dirty account %d, recount %d",
				shardIdx, t, s.dirtyByTenant[t], n)
		}
	}
	for t, n := range s.dirtyByTenant {
		if n <= 0 {
			return fmt.Errorf("shard %d: tenant %d holds non-positive dirty account %d", shardIdx, t, n)
		}
		if byTenant[t] != n {
			return fmt.Errorf("shard %d: tenant %d dirty account %d but recount %d",
				shardIdx, t, n, byTenant[t])
		}
	}
	for _, b := range s.free {
		if b.repl != (link{b: b}) || b.dirt != (link{b: b}) || b.dirtyLen != 0 || b.inflight != 0 || b.prefetched {
			return fmt.Errorf("shard %d: free frame retains links, dirty state, an in-flight token or a prefetch bit", shardIdx)
		}
	}
	return s.ghost.check(s, shardIdx, mask)
}
