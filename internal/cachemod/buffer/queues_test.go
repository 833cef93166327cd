package buffer

// Tests for the replacement queues: a differential test of PolicyLRU (the
// segmented queue with an empty protected segment) against a reference
// exact LRU, eviction-order digests that pin all three policies to the
// order they produced before the frame bookkeeping moved to embedded
// links, and allocation pins for the request path.

import (
	"cmp"
	"fmt"
	"hash/fnv"
	"math/rand"
	"slices"
	"testing"

	"pvfscache/internal/blockio"
	"pvfscache/internal/testseed"
)

// residentKeys returns the manager's resident keys in a stable order.
func residentKeys(m *Manager) []blockio.BlockKey {
	var keys []blockio.BlockKey
	for _, s := range m.shards {
		s.mu.Lock()
		for k := range s.table {
			keys = append(keys, k)
		}
		s.mu.Unlock()
	}
	sortKeys(keys)
	return keys
}

func sortKeys(keys []blockio.BlockKey) {
	slices.SortFunc(keys, func(a, b blockio.BlockKey) int {
		return cmp.Or(cmp.Compare(a.File, b.File), cmp.Compare(a.Index, b.Index))
	})
}

// refLRU is the reference exact LRU: keys in recency order (most recent
// last), evicting the least recent clean key when full.
type refLRU struct {
	capacity int
	order    []blockio.BlockKey
	dirty    map[blockio.BlockKey]bool
}

func (r *refLRU) remove(k blockio.BlockKey) bool {
	for i, o := range r.order {
		if o == k {
			r.order = append(r.order[:i], r.order[i+1:]...)
			delete(r.dirty, k)
			return true
		}
	}
	return false
}

// use records an access to k, admitting it (and evicting a victim) if it is
// absent; it reports false when every resident key is dirty.
func (r *refLRU) use(k blockio.BlockKey) bool {
	wasDirty := r.dirty[k]
	if !r.remove(k) && len(r.order) == r.capacity {
		victim := -1
		for i, o := range r.order {
			if !r.dirty[o] {
				victim = i
				break
			}
		}
		if victim < 0 {
			return false
		}
		r.remove(r.order[victim])
	}
	r.order = append(r.order, k)
	if wasDirty {
		r.dirty[k] = true
	}
	return true
}

// TestLRUMatchesReference drives PolicyLRU and the reference through one
// random read/write/install/invalidate/flush stream; after every operation
// the two must hold exactly the same keys, so every victim was the
// reference's victim.
func TestLRUMatchesReference(t *testing.T) {
	const capacity = 12
	m := New(Config{BlockSize: 64, Capacity: capacity, Policy: PolicyLRU, Shards: 1})
	ref := &refLRU{capacity: capacity, dirty: make(map[blockio.BlockKey]bool)}
	rng := rand.New(rand.NewSource(testseed.Base(t)))
	buf := make([]byte, 64)
	for i := 0; i < 20000; i++ {
		k := key(1+rng.Intn(2), rng.Intn(20))
		switch op := rng.Intn(10); {
		case op < 4:
			if m.ReadSpan(k, 0, buf) {
				ref.use(k)
			}
		case op < 6:
			markDirty := rng.Intn(2) == 0
			want := OutcomeNoSpace
			if ref.use(k) {
				want = OutcomeOK
				if markDirty {
					ref.dirty[k] = true
				}
			}
			if got := m.WriteSpan(k, 0, 0, buf, markDirty); got != want {
				t.Fatalf("op %d: WriteSpan(%v) = %v, reference says %v", i, k, got, want)
			}
		case op < 8:
			want := OutcomeNoSpace
			if ref.use(k) {
				want = OutcomeOK
			}
			if got := m.InsertClean(k, 0, buf); got != want {
				t.Fatalf("op %d: InsertClean(%v) = %v, reference says %v", i, k, got, want)
			}
		case op < 9:
			if got, want := m.Invalidate(k), ref.remove(k); got != want {
				t.Fatalf("op %d: Invalidate(%v) = %v, reference says %v", i, k, got, want)
			}
		default:
			items := m.TakeDirty(1 + rng.Intn(4))
			m.FlushDone(items)
			for _, it := range items {
				delete(ref.dirty, it.Key)
			}
		}
		want := slices.Clone(ref.order)
		sortKeys(want)
		if got := residentKeys(m); !slices.Equal(got, want) {
			t.Fatalf("op %d: resident %v, reference %v", i, got, want)
		}
	}
	if err := m.CheckConsistency(); err != nil {
		t.Fatal(err)
	}
}

// evictionDigest drives a fixed-seed operation stream through a manager
// and hashes, per operation, its outcome and the keys that left the cache —
// the eviction order, as far as it is observable. Every take is settled at
// once, so the digest depends on the replacement queues alone and not on
// what an ack finds after invalidations (buffer_test.go pins that).
func evictionDigest(policy Policy, shards int) uint64 {
	m := New(Config{BlockSize: 64, Capacity: 24, LowWater: 4, HighWater: 8, Policy: policy, Shards: shards})
	rng := rand.New(rand.NewSource(42))
	h := fnv.New64a()
	buf := make([]byte, 64)
	before := residentKeys(m)
	for i := 0; i < 20000; i++ {
		k := key(1+rng.Intn(3), rng.Intn(40))
		out := 0
		switch op := rng.Intn(16); {
		case op < 6:
			if m.ReadSpan(k, 0, buf[:16]) {
				out = 1
			}
		case op < 9:
			out = int(m.WriteSpan(k, rng.Intn(3), 0, buf, rng.Intn(3) > 0))
		case op < 12:
			out = int(m.InsertClean(k, 0, buf))
		case op < 13:
			if m.Invalidate(k) {
				out = 1
			}
		case op < 14:
			out = m.Harvest()
		case op < 15:
			items := m.TakeDirty(1 + rng.Intn(6))
			out = len(items)
			m.FlushDone(items)
		default:
			items := m.TakeDirtyOwned(rng.Intn(3), 1+rng.Intn(6))
			out = len(items)
			m.FlushFailed(items)
		}
		after := residentKeys(m)
		fmt.Fprintf(h, "%d:%d", i, out)
		still := make(map[blockio.BlockKey]bool, len(after))
		for _, a := range after {
			still[a] = true
		}
		for _, b := range before {
			if !still[b] {
				fmt.Fprintf(h, " -%d/%d", b.File, b.Index)
			}
		}
		before = after
	}
	st := m.Stats()
	fmt.Fprintf(h, "|%d %d %d %d", st.Hits, st.Misses, st.Evictions, st.GhostHits)
	return h.Sum64()
}

// TestEvictionOrderDigests pins each policy's victim order, single-shard
// and striped, to the digests recorded at the commit before the frame
// bookkeeping was rebuilt (PR 15): a change to the queues that moves any
// victim moves a digest.
func TestEvictionOrderDigests(t *testing.T) {
	want := map[string]uint64{
		"clock/1": 0xc685490847de4bed, "clock/4": 0x42fabb705f8e7f32,
		"lru/1": 0xaf2cf8399f4eb0b4, "lru/4": 0x434450770cda7773,
		"ghost/1": 0x4e799b1cc6b9d646, "ghost/4": 0x22888ba7219aaf95,
	}
	for _, policy := range []Policy{PolicyClock, PolicyLRU, PolicyGhost} {
		for _, shards := range []int{1, 4} {
			name := fmt.Sprintf("%v/%d", policy, shards)
			got := evictionDigest(policy, shards)
			if got != want[name] {
				t.Errorf("%s: eviction digest %#x, recorded %#x", name, got, want[name])
			}
		}
	}
}

// TestRequestPathAllocatesNothing pins the paper's pre-allocation claim:
// a hit, an install that evicts, and a clean→dirty write pop and link
// frames that already exist, so none of them allocates.
func TestRequestPathAllocatesNothing(t *testing.T) {
	const capacity = 64
	m := New(Config{BlockSize: 64, Capacity: capacity, Shards: 1})
	buf := make([]byte, 64)
	for i := 0; i < capacity; i++ {
		m.InsertClean(key(1, i), 0, buf)
	}
	if n := testing.AllocsPerRun(1000, func() { m.ReadSpan(key(1, 7), 0, buf) }); n != 0 {
		t.Errorf("hit: %v allocs/op, want 0", n)
	}
	if n := testing.AllocsPerRun(1000, func() { m.ReadSpanDemand(key(1, 7), 0, buf) }); n != 0 {
		t.Errorf("demand hit: %v allocs/op, want 0", n)
	}
	next := capacity
	if n := testing.AllocsPerRun(1000, func() {
		m.InsertClean(key(1, next%(4*capacity)), 0, buf)
		next++
	}); n != 0 {
		t.Errorf("install with eviction: %v allocs/op, want 0", n)
	}
	if st := m.Stats(); st.Evictions < 1000 || st.Free != 0 {
		t.Fatalf("installs did not evict: %+v", st)
	}
	// First dirtying write of an absent block: pop a free frame, link it
	// onto the replacement and dirty queues. A warm-up pass gives every key
	// its write-stamp entry, which outlives the frame by design.
	m = New(Config{BlockSize: 64, Capacity: 2048, Shards: 1})
	for i := 0; i < 1100; i++ {
		m.WriteSpan(key(2, i), 0, 0, buf, true)
	}
	m.InvalidateFile(2)
	next = 0
	if n := testing.AllocsPerRun(1000, func() {
		m.WriteSpan(key(2, next), 0, 0, buf, true)
		next++
	}); n != 0 {
		t.Errorf("first dirtying write: %v allocs/op, want 0", n)
	}
	if got := m.DirtyCount(); got != 1001 {
		t.Fatalf("dirty = %d, want 1001 (AllocsPerRun's warm-up run included)", got)
	}
	if err := m.CheckConsistency(); err != nil {
		t.Fatal(err)
	}
}

// TestCheckConsistencyCatchesQueueDamage corrupts one invariant at a time
// and expects the checker to object: a resident frame on a queue its
// policy does not read, a free frame still carrying a token, a link or a
// prefetch bit, a clean frame whose in-flight token is not behind its
// write stamp.
func TestCheckConsistencyCatchesQueueDamage(t *testing.T) {
	damage := map[string]func(s *shard, resident, free *block){
		"resident on the wrong queue": func(s *shard, resident, _ *block) {
			resident.repl.unlink()
			s.prob.pushFront(&resident.repl)
		},
		"resident on no queue":    func(_ *shard, resident, _ *block) { resident.repl.unlink() },
		"free frame with a token": func(_ *shard, _, free *block) { free.inflight = 7 },
		"free frame still linked": func(s *shard, _, free *block) { s.dirtyQ.pushBack(&free.dirt) },
		"free frame prefetched":   func(_ *shard, _, free *block) { free.prefetched = true },
		"clean frame in flight at its stamp": func(s *shard, resident, _ *block) {
			s.advanceStamp(resident.key)
			resident.inflight = s.stamps[resident.key]
		},
		"queue length out of step": func(s *shard, _, _ *block) { s.ring.n++ },
	}
	for name, corrupt := range damage {
		m := mgr(4, PolicyClock)
		m.InsertClean(key(1, 0), 0, fill(1, 64))
		if err := m.CheckConsistency(); err != nil {
			t.Fatal(err)
		}
		s := m.shards[0]
		corrupt(s, s.table[key(1, 0)], s.free[0])
		if err := m.CheckConsistency(); err == nil {
			t.Errorf("%s: CheckConsistency found nothing wrong", name)
		}
	}
}
