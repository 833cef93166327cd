package buffer

import (
	"container/list"
	"fmt"
	"sync"
	"sync/atomic"

	"pvfscache/internal/blockio"
)

// shard is one lock stripe of the manager: it owns a fixed slice of the
// pre-allocated frames and runs the full buffer-manager policy (hash
// table, exact-LRU list, clock ring, dirty FIFO, free list) over them
// under its own mutex. A shard never touches another shard's state, so
// operations on blocks that route to different shards proceed fully in
// parallel. This recovers the paper's in-kernel fine-grained locking,
// which the first reproduction had collapsed to one global mutex.
type shard struct {
	cfg       *Config        // shared, read-only after New
	ctrs      *counters      // shared registry counters, resolved once
	seq       *atomic.Uint64 // manager-wide dirty-age stamp
	capacity  int
	lowWater  int
	highWater int
	protCap   int // PolicyGhost: max protected residents before demotion
	ghostCap  int // PolicyGhost: max remembered evicted keys

	mu    sync.Mutex
	table map[blockio.BlockKey]*block
	// stamps is the per-key write-stamp table (see Manager.WriteStamp): a
	// key's stamp advances on every dirtying write and when a written
	// block leaves the table, and installs of fetched images are refused
	// when the stamp moved past the fetcher's snapshot. Entries persist
	// after eviction — that is the point: the stamp must outlive the frame
	// so a fetch that straddled a write+flush+evict cycle is detectably
	// stale. One uint32 per key ever written on this node.
	stamps    map[blockio.BlockKey]uint32
	free      []*block
	lru       *list.List // exact-LRU order, front = most recently used
	clockRing *list.List // resident blocks in insertion order
	clockHand *list.Element
	dirtyFIFO *list.List // blocks awaiting flush, front = oldest

	// dirtyByTenant counts this shard's dirty blocks per charged tenant
	// (entries are deleted at zero). It is the QoS quota gate's O(shards)
	// answer to "how much dirty residency does this principal hold" and is
	// conserved against the dirty FIFO by checkConsistency.
	dirtyByTenant map[uint32]int

	// PolicyGhost state (see ghost.go): the resident segments and the
	// bounded metadata-only history of evicted keys. Always allocated,
	// only populated under that policy.
	probList *list.List // unproven residents, front = most recent
	protList *list.List // proven working set, front = most recent
	ghost    *list.List // evicted keys, front = most recently evicted
	ghostIdx map[blockio.BlockKey]*list.Element

	// Activity counters are per-shard atomics folded by Manager.Stats, so
	// the hot paths never touch shared cache lines of other shards.
	hits, misses, evictions atomic.Int64

	ghostHits, admissionRejects, protectedEvictions, bypassReads atomic.Int64
}

// readSpan is ReadSpan for keys routed to this shard.
func (s *shard) readSpan(key blockio.BlockKey, off int, dst []byte) bool {
	s.mu.Lock()
	b, ok := s.table[key]
	if !ok || !covers(b.validOff, b.validLen, off, len(dst)) {
		s.mu.Unlock()
		s.misses.Add(1)
		s.ctrs.misses.Inc()
		return false
	}
	copy(dst, b.data[off:off+len(dst)])
	s.touch(b)
	s.mu.Unlock()
	s.hits.Add(1)
	s.ctrs.hits.Inc()
	return true
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
		// Writes always admit (must): rejecting one would stall the writer
		// behind the write-through escape hatch for no memory saved — the
		// dirty data has to live somewhere until it reaches the iod.
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
		s.touchInsert(b)
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
	s.stamps[b.key]++
}

// insertClean is InsertClean for keys routed to this shard.
func (s *shard) insertClean(key blockio.BlockKey, owner int, data []byte, must bool) Outcome {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.insertCleanLocked(key, owner, data, must)
}

// installFetched is InstallFetched for keys routed to this shard: check
// the fetcher's stamp, patch the caller's image with the resident valid
// bytes, then install it, all under one lock so the stamp check, the
// installed copy, and the handed-out copy cannot diverge in between.
func (s *shard) installFetched(key blockio.BlockKey, owner int, data []byte, must bool, stamp uint32) Outcome {
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
	return s.insertCleanLocked(key, owner, data, must)
}

// overlaySpan is OverlaySpan for keys routed to this shard.
func (s *shard) overlaySpan(key blockio.BlockKey, off int, dst []byte) {
	s.mu.Lock()
	defer s.mu.Unlock()
	b, ok := s.table[key]
	if !ok || b.validLen == 0 {
		return
	}
	lo, hi := max(b.validOff, off), min(b.validOff+b.validLen, off+len(dst))
	if lo < hi {
		copy(dst[lo-off:], b.data[lo:hi])
	}
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

// insertCleanLocked is insertClean's body (s.mu held).
func (s *shard) insertCleanLocked(key blockio.BlockKey, owner int, data []byte, must bool) Outcome {
	b, ok := s.table[key]
	if !ok {
		b = s.allocate(key, owner, must, must)
		if b == nil {
			s.ctrs.insertNoSpace.Inc()
			return OutcomeNoSpace
		}
		n := copy(b.data, data)
		zero(b.data[n:])
		b.validOff, b.validLen = 0, s.cfg.BlockSize
		s.touchInsert(b)
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
	s.touch(b)
	return OutcomeOK
}

// takeDirty snapshots up to max dirty blocks of this shard, oldest first.
// max <= 0 means no bound.
func (s *shard) takeDirty(max int) []FlushItem {
	s.mu.Lock()
	defer s.mu.Unlock()
	if max <= 0 || max > s.dirtyFIFO.Len() {
		max = s.dirtyFIFO.Len()
	}
	burst := make([]byte, max*s.cfg.BlockSize)
	items := make([]FlushItem, 0, max)
	for el := s.dirtyFIFO.Front(); el != nil && len(items) < max; el = el.Next() {
		b := el.Value.(*block)
		if b.flushing {
			continue
		}
		items = append(items, s.snapshotForFlush(b, burst, len(items)))
	}
	return items
}

// collectDirtyCandidates appends up to max (seq, key) pairs for this
// shard's oldest eligible (non-flushing) dirty blocks onto out, in FIFO
// order, without copying any data. max <= 0 collects them all; owner
// filters to blocks stored by one iod (anyOwner disables the filter).
func (s *shard) collectDirtyCandidates(max, shardIdx, owner int, out []dirtyCand) []dirtyCand {
	s.mu.Lock()
	defer s.mu.Unlock()
	n := 0
	for el := s.dirtyFIFO.Front(); el != nil && (max <= 0 || n < max); el = el.Next() {
		b := el.Value.(*block)
		if b.flushing || (owner != anyOwner && b.owner != owner) {
			continue
		}
		out = append(out, dirtyCand{seq: b.dirtySeq, key: b.key, shard: shardIdx, tenant: b.tenant})
		n++
	}
	return out
}

// oldestDirty returns the owner and age stamp of this shard's oldest
// eligible (non-flushing) dirty block.
func (s *shard) oldestDirty() (owner int, seq uint64, ok bool) {
	s.mu.Lock()
	defer s.mu.Unlock()
	for el := s.dirtyFIFO.Front(); el != nil; el = el.Next() {
		b := el.Value.(*block)
		if b.flushing {
			continue
		}
		return b.owner, b.dirtySeq, true
	}
	return 0, 0, false
}

// takeKeys snapshots the requested blocks for flushing, skipping any that
// were cleaned, invalidated, re-owned (invalidated and re-written from a
// different iod — an owner-filtered take must not route a block to the
// wrong flush port), or claimed by a concurrent round since they were
// collected. Request r's snapshot lands in slot r.pos of burst and in
// out[r.pos]; a skipped request leaves both untouched.
func (s *shard) takeKeys(reqs []takeReq, owner int, burst []byte, out []FlushItem) {
	s.mu.Lock()
	defer s.mu.Unlock()
	for _, r := range reqs {
		b, ok := s.table[r.key]
		if !ok || b.flushing || !b.dirty() || (owner != anyOwner && b.owner != owner) {
			continue
		}
		out[r.pos] = s.snapshotForFlush(b, burst, r.pos)
	}
}

// snapshotForFlush marks b in flight and copies its dirty span into slot
// pos of burst, at the span's offset within the block (s.mu held).
func (s *shard) snapshotForFlush(b *block, burst []byte, pos int) FlushItem {
	b.flushing = true
	start := pos*s.cfg.BlockSize + b.dirtyOff
	data := burst[start : start+b.dirtyLen]
	copy(data, b.data[b.dirtyOff:b.dirtyOff+b.dirtyLen])
	return FlushItem{
		Key:   b.key,
		Owner: b.owner,
		Off:   b.dirtyOff,
		Data:  data,
		Slot:  pos + 1,
		gen:   b.flushGen,
	}
}

// flushDone marks one snapshot item's block clean unless re-dirtied.
func (s *shard) flushDone(it FlushItem) {
	s.mu.Lock()
	defer s.mu.Unlock()
	b, ok := s.table[it.Key]
	if !ok {
		return // evicted or invalidated meanwhile
	}
	b.flushing = false
	if b.flushGen != it.gen {
		return // re-dirtied during flight
	}
	s.markClean(b)
}

// flushFailed clears the in-flight mark without cleaning.
func (s *shard) flushFailed(it FlushItem) {
	s.mu.Lock()
	defer s.mu.Unlock()
	if b, ok := s.table[it.Key]; ok {
		b.flushing = false
	}
}

// invalidate drops one block of this shard. Any ghost memory of the key is
// dropped too — an invalidated block's history must not later count as
// proof of reuse (no resurrection of invalidated keys).
func (s *shard) invalidate(key blockio.BlockKey) bool {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.ghostForget(key)
	b, ok := s.table[key]
	if !ok {
		return false
	}
	s.removeBlock(b)
	s.ctrs.invalidations.Inc()
	return true
}

// invalidateClean is invalidate restricted to blocks with no unflushed
// writes; dirty or in-flight blocks survive (see Manager.InvalidateClean).
func (s *shard) invalidateClean(key blockio.BlockKey) bool {
	s.mu.Lock()
	defer s.mu.Unlock()
	b, ok := s.table[key]
	if !ok {
		s.ghostForget(key)
		return false
	}
	if b.dirtyEl != nil || b.flushing {
		return false
	}
	s.ghostForget(key)
	s.removeBlock(b)
	s.ctrs.invalidations.Inc()
	return true
}

// invalidateFile drops every resident block of a file from this shard,
// along with the file's ghost entries (see invalidate).
func (s *shard) invalidateFile(file blockio.FileID) int {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.ghostForgetFile(file)
	var victims []*block
	for key, b := range s.table {
		if key.File == file {
			victims = append(victims, b)
		}
	}
	for _, b := range victims {
		s.removeBlock(b)
	}
	return len(victims)
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

// allocate pops a free frame or inline-evicts a clean block. It returns nil
// when neither is possible (everything resident is dirty or flushing) —
// or, under PolicyGhost, when the admission gate turns the newcomer away:
// an unproven block (no ghost hit, no must override) may only displace
// probationary frames, never the protected working set. must forces
// admission (writes, must-cache hints); pin additionally admits straight
// into the protected segment (must-cache: reuse asserted, not proven).
func (s *shard) allocate(key blockio.BlockKey, owner int, must, pin bool) *block {
	ghostPolicy := s.cfg.Policy == PolicyGhost
	proven := false
	if ghostPolicy {
		proven = s.ghostTake(key)
		if proven {
			s.ghostHits.Add(1)
			s.ctrs.ghostHits.Inc()
		}
	}
	var b *block
	if n := len(s.free); n > 0 {
		b = s.free[n-1]
		s.free = s.free[:n-1]
	} else {
		v := s.pickVictim()
		if v == nil {
			return nil
		}
		if ghostPolicy && v.protected && !must && !proven {
			s.admissionRejects.Add(1)
			s.ctrs.admissionRejects.Inc()
			return nil
		}
		s.evictBlock(v)
		b = s.free[len(s.free)-1]
		s.free = s.free[:len(s.free)-1]
	}
	b.key = key
	b.owner = owner
	b.tenant = 0
	b.validOff, b.validLen = 0, 0
	b.dirtyOff, b.dirtyLen = 0, 0
	b.written = false
	b.flushGen = 0
	b.flushing = false
	b.ref = false
	s.table[key] = b
	b.lruEl = s.lru.PushFront(b)
	b.clockEl = s.clockRing.PushBack(b)
	if ghostPolicy {
		s.segInsert(b, proven || pin)
	}
	return b
}

// evictBlock counts and performs one eviction, recording the key in the
// ghost list under PolicyGhost (eviction is the only way into the ghost
// list: invalidated blocks are forgotten, not remembered).
func (s *shard) evictBlock(v *block) {
	if s.cfg.Policy == PolicyGhost {
		if v.protected {
			s.protectedEvictions.Add(1)
			s.ctrs.protectedEvictions.Inc()
		}
		s.ghostRecord(v.key)
	}
	s.removeBlock(v)
	s.evictions.Add(1)
	s.ctrs.evictions.Inc()
}

// removeBlock detaches a block from every structure and returns its frame
// to the free list.
func (s *shard) removeBlock(b *block) {
	if b.written {
		// A written block leaving the table advances its write stamp: an
		// in-flight fetch that was issued while (or before) this residency
		// held newer bytes can no longer be patched from it, so its image
		// must not be installed (see Manager.WriteStamp).
		s.stamps[b.key]++
	}
	delete(s.table, b.key)
	if b.lruEl != nil {
		s.lru.Remove(b.lruEl)
		b.lruEl = nil
	}
	if b.clockEl != nil {
		if s.clockHand == b.clockEl {
			s.clockHand = b.clockEl.Next()
		}
		s.clockRing.Remove(b.clockEl)
		b.clockEl = nil
	}
	if b.dirtyEl != nil {
		s.dirtyFIFO.Remove(b.dirtyEl)
		b.dirtyEl = nil
		s.tenantRelease(b.tenant)
	}
	s.segRemove(b)
	b.dirtyOff, b.dirtyLen = 0, 0
	b.validOff, b.validLen = 0, 0
	s.free = append(s.free, b)
}

// touch refreshes replacement state after a genuine re-access of a
// resident block. Under PolicyGhost that re-access is the proof of reuse
// that promotes a probationary block into the protected segment.
func (s *shard) touch(b *block) {
	b.ref = true
	s.lru.MoveToFront(b.lruEl)
	if b.segEl != nil {
		s.segTouch(b)
	}
}

// touchInsert refreshes replacement state for the access that installed
// the block. It deliberately skips segment promotion: the installing
// access is the block's first, not a reuse.
func (s *shard) touchInsert(b *block) {
	b.ref = true
	s.lru.MoveToFront(b.lruEl)
}

// markDirty extends the block's dirty hull and enqueues it for flushing,
// stamping it with the manager-wide dirty age so cross-shard flush batches
// drain oldest-first. The clean→dirty transition charges tenant; a block
// already dirty keeps its original attribution (first-dirtier pays).
func (s *shard) markDirty(b *block, off, length int, tenant uint32) {
	b.dirtyOff, b.dirtyLen = hull(b.dirtyOff, b.dirtyLen, off, length)
	b.written = true
	b.flushGen++
	s.stamps[b.key]++
	if b.dirtyEl == nil {
		b.dirtySeq = s.seq.Add(1)
		b.dirtyEl = s.dirtyFIFO.PushBack(b)
		b.tenant = tenant
		s.dirtyByTenant[tenant]++
	}
}

// markClean clears the dirty state after a successful flush, releasing the
// tenant's dirty charge.
func (s *shard) markClean(b *block) {
	b.dirtyOff, b.dirtyLen = 0, 0
	if b.dirtyEl != nil {
		s.dirtyFIFO.Remove(b.dirtyEl)
		b.dirtyEl = nil
		s.tenantRelease(b.tenant)
	}
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

// pickVictim chooses a clean, non-flushing resident block according to the
// policy, or nil if none exists.
func (s *shard) pickVictim() *block {
	if s.cfg.Policy == PolicyGhost {
		return s.pickVictimGhost()
	}
	if s.cfg.Policy == PolicyLRU {
		for el := s.lru.Back(); el != nil; el = el.Prev() {
			b := el.Value.(*block)
			if !b.dirty() && !b.flushing {
				return b
			}
		}
		return nil
	}
	// Clock (second chance), preferring clean blocks: sweep at most two
	// full revolutions. First revolution gives referenced blocks a second
	// chance; the second picks any clean block.
	n := s.clockRing.Len()
	if n == 0 {
		return nil
	}
	advance := func(el *list.Element) *list.Element {
		if el == nil || el.Next() == nil {
			return s.clockRing.Front()
		}
		return el.Next()
	}
	if s.clockHand == nil {
		s.clockHand = s.clockRing.Front()
	}
	for pass := 0; pass < 2; pass++ {
		for i := 0; i < n; i++ {
			el := s.clockHand
			s.clockHand = advance(el)
			b := el.Value.(*block)
			if b.dirty() || b.flushing {
				continue
			}
			if pass == 0 && b.ref {
				b.ref = false
				continue
			}
			return b
		}
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
	if s.lru.Len() != resident || s.clockRing.Len() != resident {
		return fmt.Errorf("shard %d: lru=%d clock=%d, want resident %d",
			shardIdx, s.lru.Len(), s.clockRing.Len(), resident)
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
		if b.lruEl == nil || b.lruEl.Value.(*block) != b {
			return fmt.Errorf("shard %d: block %v detached from lru", shardIdx, key)
		}
		if b.clockEl == nil || b.clockEl.Value.(*block) != b {
			return fmt.Errorf("shard %d: block %v detached from clock ring", shardIdx, key)
		}
		if b.dirty() != (b.dirtyEl != nil) {
			return fmt.Errorf("shard %d: block %v dirtyLen=%d but dirtyEl=%v",
				shardIdx, key, b.dirtyLen, b.dirtyEl != nil)
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
	if s.dirtyFIFO.Len() != dirty {
		return fmt.Errorf("shard %d: dirtyFIFO=%d, want %d dirty blocks", shardIdx, s.dirtyFIFO.Len(), dirty)
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
		if b.dirtyLen != 0 || b.dirtyEl != nil || b.lruEl != nil || b.clockEl != nil {
			return fmt.Errorf("shard %d: free frame retains list state", shardIdx)
		}
		if b.segEl != nil || b.protected {
			return fmt.Errorf("shard %d: free frame retains segment state", shardIdx)
		}
	}
	return s.checkGhostConsistency(shardIdx, mask)
}
