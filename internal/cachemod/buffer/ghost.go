package buffer

import (
	"container/list"
	"fmt"

	"pvfscache/internal/blockio"
)

// The segmented replacement queue, read by PolicyGhost and PolicyLRU.
//
// PolicyGhost — scan-resistant discretionary admission — splits residents
// into two LRU segments per shard:
//
//	probation: blocks seen once. Inserted at the front, evicted from the
//	           back. Every unproven newcomer lands here and every victim
//	           is taken from here first, so a scan only ever fights other
//	           scan blocks for frames.
//	protected: blocks that proved reuse — a second access while resident
//	           (touch promotes), a ghost hit on re-admission, or a
//	           must-cache hint. Bounded by protCap; overflow demotes the
//	           protected tail back to probation rather than evicting it,
//	           so proven blocks get one more chance to re-prove.
//
// The ghost list is the admission filter's memory: a bounded FIFO-ish LRU
// of recently *evicted* keys (metadata only — one key, no data). A miss
// whose key is still remembered is re-admitted straight into the protected
// segment: it was evicted while still being used, the classic sign that
// the scan working through probation is bigger than the cache but this
// block is not part of it. Invalidation (coherence or truncation) forgets
// the key instead of remembering it — an invalidated block's history must
// never count as proof.
//
// The admission gate is the discretionary part: when the only victims left
// are protected blocks, an unproven newcomer is refused admission
// (OutcomeNoSpace to the caller, which every fetch path already tolerates
// by serving the data uncached) rather than allowed to displace the
// working set. Writes and must-cache opens override the gate.
//
// PolicyLRU is the same queue with nothing to segment: protCap = 0 keeps
// the protected segment empty, so probation holds every resident in exact
// recency order (a touch "promotes" and overflow demotes straight back to
// the probation front); a history of cap 0 remembers nothing, so nothing
// is ever proven and the admission gate never fires.
//
// State diagram (DESIGN.md §7 reproduces this with the read-around path):
//
//	            miss, admit                     touch
//	  absent ────────────────▶ probation ────────────────▶ protected
//	    ▲                         │  ▲                        │ │
//	    │ ghost LRU overflow      │  │ protCap overflow       │ │
//	    │ or invalidate           │  └────────────────────────┘ │
//	    │                  evict  │                      evict  │
//	  ghost ◀─────────────────────┴─────────────────────────────┘
//	    │
//	    └── miss on remembered key ──▶ protected (ghost hit)

// segInsert places a newly allocated block on its segment (s.mu held). With
// no room in the protected segment at all (protCap 0) the overflow demotes
// a protected newcomer straight to the probation front.
func (s *shard) segInsert(b *block, protected bool) {
	if protected {
		s.prot.pushFront(&b.repl)
		s.demoteOverflow()
		return
	}
	s.prob.pushFront(&b.repl)
}

// segTouch refreshes a block's segment position on re-access, promoting
// probationary blocks that just proved reuse (s.mu held).
func (s *shard) segTouch(b *block) {
	b.repl.unlink()
	s.prot.pushFront(&b.repl)
	s.demoteOverflow()
}

// demoteOverflow keeps the protected segment within protCap by demoting
// its tail to the probation front (s.mu held). Demotion is pure queue
// bookkeeping — a dirty block may demote freely, eviction still skips it.
func (s *shard) demoteOverflow() {
	for s.prot.n > s.protCap {
		l := s.prot.tail
		l.unlink()
		s.prob.pushFront(l)
	}
}

// pickVictimSeg chooses a clean victim with no flush in flight: probation
// back to front first, the protected tail only when probation has nothing
// to give (s.mu held). The caller's admission gate decides whether a
// protected victim may actually be taken.
func (s *shard) pickVictimSeg() *block {
	for _, q := range [...]*queue{&s.prob, &s.prot} {
		for l := q.tail; l != nil; l = l.prev {
			if !l.b.dirty() && l.b.inflight == 0 {
				return l.b
			}
		}
	}
	return nil
}

// ghostHistory is the admission filter's memory: a bounded LRU of recently
// evicted keys. It holds keys, not frames, so unlike the resident queues it
// is an ordinary list. The zero value (cap 0) remembers nothing.
type ghostHistory struct {
	cap   int
	order list.List // front = most recently evicted
	idx   map[blockio.BlockKey]*list.Element
}

// record remembers an evicted key, dropping the history's own LRU tail
// when full.
func (g *ghostHistory) record(key blockio.BlockKey) {
	if g.cap <= 0 {
		return
	}
	if el, ok := g.idx[key]; ok {
		g.order.MoveToFront(el)
		return
	}
	for g.order.Len() >= g.cap {
		old := g.order.Back()
		delete(g.idx, old.Value.(blockio.BlockKey))
		g.order.Remove(old)
	}
	if g.idx == nil {
		g.idx = make(map[blockio.BlockKey]*list.Element, g.cap)
	}
	g.idx[key] = g.order.PushFront(key)
}

// forget drops any memory of key, reporting whether there was one. A miss
// that re-admits a remembered key consumes the entry — once a key is back
// its old eviction no longer argues for anything — and an invalidation
// erases it.
func (g *ghostHistory) forget(key blockio.BlockKey) bool {
	el, ok := g.idx[key]
	if ok {
		delete(g.idx, key)
		g.order.Remove(el)
	}
	return ok
}

// forgetFile drops every remembered key of a file.
func (g *ghostHistory) forgetFile(file blockio.FileID) {
	var next *list.Element
	for el := g.order.Front(); el != nil; el = next {
		next = el.Next()
		if key := el.Value.(blockio.BlockKey); key.File == file {
			g.forget(key)
		}
	}
}

// check verifies that the history is a bounded, indexed set of non-resident
// keys that route to this shard (s.mu held).
func (g *ghostHistory) check(s *shard, shardIdx int, mask uint64) error {
	if g.order.Len() != len(g.idx) {
		return fmt.Errorf("shard %d: ghost list %d entries but index has %d",
			shardIdx, g.order.Len(), len(g.idx))
	}
	if g.order.Len() > g.cap {
		return fmt.Errorf("shard %d: ghost list %d exceeds cap %d", shardIdx, g.order.Len(), g.cap)
	}
	for el := g.order.Front(); el != nil; el = el.Next() {
		key := el.Value.(blockio.BlockKey)
		if g.idx[key] != el {
			return fmt.Errorf("shard %d: ghost key %v not indexed to its element", shardIdx, key)
		}
		if (key.Mix()>>32)&mask != uint64(shardIdx) {
			return fmt.Errorf("shard %d: ghost key %v routed to wrong shard", shardIdx, key)
		}
		if _, resident := s.table[key]; resident {
			return fmt.Errorf("shard %d: ghost key %v is still resident", shardIdx, key)
		}
	}
	return nil
}
