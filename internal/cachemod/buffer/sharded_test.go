package buffer

// Tests for the lock-striped sharded manager: shard sizing, key routing,
// cross-shard aggregation (flush-age order, stats, invalidation sweeps),
// and a full-API concurrency storm verified by the structural consistency
// checker. The single-shard (ablation) behaviour is covered by
// buffer_test.go.

import (
	"bytes"
	"math/rand"
	"runtime"
	"sync"
	"testing"

	"pvfscache/internal/blockio"
	"pvfscache/internal/metrics"
	"pvfscache/internal/testseed"
)

func TestShardCountDefaults(t *testing.T) {
	auto := New(Config{BlockSize: 64, Capacity: 1024})
	want := runtime.GOMAXPROCS(0)
	if want < 4 {
		want = 4
	}
	want = ceilPow2(want)
	if got := auto.ShardCount(); got != want {
		t.Errorf("auto shards = %d, want %d", got, want)
	}
	cases := []struct {
		shards, capacity, want int
	}{
		{1, 64, 1},   // explicit ablation setting
		{3, 64, 4},   // rounded up to a power of two
		{8, 64, 8},   // explicit power of two kept
		{16, 5, 4},   // capped: every shard needs at least one frame
		{-1, 64, 0},  // negative = auto (checked below)
		{1024, 8, 8}, // capped at capacity
		{2, 1, 1},    // degenerate one-frame cache
	}
	for _, c := range cases {
		m := New(Config{BlockSize: 64, Capacity: c.capacity, Shards: c.shards})
		if c.want == 0 {
			if m.ShardCount() < 1 {
				t.Errorf("Shards=%d: got %d shards", c.shards, m.ShardCount())
			}
			continue
		}
		if got := m.ShardCount(); got != c.want {
			t.Errorf("Shards=%d Capacity=%d: got %d shards, want %d",
				c.shards, c.capacity, got, c.want)
		}
	}
}

func TestShardCapacityPartition(t *testing.T) {
	// 10 frames over 4 shards: 3+3+2+2, watermarks pro rata and clamped.
	m := New(Config{BlockSize: 64, Capacity: 10, LowWater: 2, HighWater: 5, Shards: 4})
	total, low, high := 0, 0, 0
	for _, s := range m.shards {
		if s.capacity < 1 {
			t.Fatalf("shard with %d frames", s.capacity)
		}
		if s.highWater > s.capacity || s.lowWater > s.highWater {
			t.Fatalf("shard watermarks low=%d high=%d capacity=%d",
				s.lowWater, s.highWater, s.capacity)
		}
		total += s.capacity
		low += s.lowWater
		high += s.highWater
	}
	if total != 10 {
		t.Fatalf("shard capacities sum to %d", total)
	}
	if err := m.CheckConsistency(); err != nil {
		t.Fatal(err)
	}
}

func TestShardRoutingUsesMixHash(t *testing.T) {
	m := New(Config{BlockSize: 64, Capacity: 64, Shards: 8})
	for f := 1; f <= 5; f++ {
		for b := 0; b < 20; b++ {
			k := key(f, b)
			want := m.shards[(k.Mix()>>32)&m.mask]
			if got := m.shardFor(k); got != want {
				t.Fatalf("key %v routed inconsistently", k)
			}
		}
	}
	// The mix hash must actually spread consecutive blocks of one file:
	// a file scan that serialized on one shard would defeat the striping.
	seen := make(map[uint64]bool)
	for b := 0; b < 64; b++ {
		seen[(key(1, b).Mix()>>32)&m.mask] = true
	}
	if len(seen) < 4 {
		t.Fatalf("64 consecutive blocks landed on only %d of 8 shards", len(seen))
	}
}

// TestShardRoutingIndependentOfGlobalCacheHome guards the bit split
// between the two consumers of the mix hash: the global cache homes a
// block by the LOW bits (Mix % peers), shards route by the HIGH 32 bits.
// If both used the low bits, a peer count divisible by the shard count
// would collapse every block homed at one node into a single shard of
// that node — all of its PeerGet/PeerPut traffic back on one mutex.
func TestShardRoutingIndependentOfGlobalCacheHome(t *testing.T) {
	const peers = 4 // divisible by shards: the pathological configuration
	m := New(Config{BlockSize: 64, Capacity: 4096, Shards: 4})
	for home := 0; home < peers; home++ {
		seen := make(map[uint64]int)
		for f := 1; f <= 8; f++ {
			for b := 0; b < 512; b++ {
				k := key(f, b)
				if int(k.Mix()%peers) != home {
					continue
				}
				seen[(k.Mix()>>32)&m.mask]++
			}
		}
		if len(seen) < 3 {
			t.Fatalf("blocks homed at node %d landed on only %d of 4 shards: %v",
				home, len(seen), seen)
		}
	}
}

func TestTakeDirtyMergesOldestFirstAcrossShards(t *testing.T) {
	m := New(Config{BlockSize: 64, Capacity: 64, Shards: 8})
	// Dirty 20 blocks in a known global order; they scatter over shards.
	var order []int
	for i := 0; i < 20; i++ {
		if m.WriteSpan(key(1, i), 0, 0, fill(byte(i), 64), true) != OutcomeOK {
			t.Fatal("write failed")
		}
		order = append(order, i)
	}
	items := m.TakeDirty(0)
	if len(items) != 20 {
		t.Fatalf("took %d items, want 20", len(items))
	}
	for i, it := range items {
		if int(it.Key.Index) != order[i] {
			t.Fatalf("item %d is block %d, want %d (age order broken)",
				i, it.Key.Index, order[i])
		}
	}
	m.FlushDone(items)

	// A bounded take drains the oldest blocks first, regardless of shard.
	for i := 0; i < 10; i++ {
		m.WriteSpan(key(2, i), 0, 0, fill(byte(i), 64), true)
	}
	batch := m.TakeDirty(4)
	if len(batch) != 4 {
		t.Fatalf("bounded take got %d", len(batch))
	}
	for i, it := range batch {
		if int(it.Key.Index) != i {
			t.Fatalf("bounded item %d is block %d, want %d", i, it.Key.Index, i)
		}
	}
	m.FlushDone(batch)
	if m.DirtyCount() != 6 {
		t.Fatalf("dirty = %d, want 6", m.DirtyCount())
	}
}

func TestInvalidateFileSweepsAllShards(t *testing.T) {
	m := New(Config{BlockSize: 64, Capacity: 128, Shards: 8})
	for b := 0; b < 50; b++ {
		m.InsertClean(key(1, b), 0, fill(1, 64))
	}
	for b := 0; b < 10; b++ {
		m.InsertClean(key(2, b), 0, fill(2, 64))
	}
	if n := m.InvalidateFile(1); n != 50 {
		t.Fatalf("invalidated %d, want 50", n)
	}
	for b := 0; b < 10; b++ {
		if !m.Contains(key(2, b), 0, 64) {
			t.Fatalf("other file's block %d dropped", b)
		}
	}
	if err := m.CheckConsistency(); err != nil {
		t.Fatal(err)
	}
}

func TestStatsAggregateAcrossShards(t *testing.T) {
	m := New(Config{BlockSize: 64, Capacity: 64, Shards: 8})
	dst := make([]byte, 64)
	for b := 0; b < 32; b++ {
		m.InsertClean(key(1, b), 0, fill(byte(b), 64))
	}
	for b := 0; b < 32; b++ {
		if !m.ReadSpan(key(1, b), 0, dst) {
			t.Fatal("unexpected miss")
		}
	}
	m.ReadSpan(key(9, 9), 0, dst) // one miss
	st := m.Stats()
	if st.Hits != 32 || st.Misses != 1 {
		t.Fatalf("hits=%d misses=%d, want 32/1", st.Hits, st.Misses)
	}
	if st.Resident != 32 || st.Free != 32 {
		t.Fatalf("resident=%d free=%d, want 32/32", st.Resident, st.Free)
	}
}

// keysForShard returns n distinct keys of one file that route to the
// given shard.
func keysForShard(m *Manager, shardIdx, n int) []blockio.BlockKey {
	var keys []blockio.BlockKey
	for b := 0; len(keys) < n && b < 100000; b++ {
		k := key(1, b)
		if (k.Mix()>>32)&m.mask == uint64(shardIdx) {
			keys = append(keys, k)
		}
	}
	return keys
}

func TestHarvestLeavesHealthyShardsAlone(t *testing.T) {
	// 2 shards × 16 frames, per-shard low 4 / high 8. Starve shard 0
	// (free < 4) while shard 1 holds a couple of warm blocks far above
	// its own low watermark: harvesting must refill shard 0 only.
	m := New(Config{BlockSize: 64, Capacity: 32, Shards: 2, LowWater: 8, HighWater: 16})
	starved := keysForShard(m, 0, 13)
	if len(starved) < 13 {
		t.Fatal("not enough keys routed to shard 0")
	}
	for _, k := range starved {
		if m.InsertClean(k, 0, fill(1, 64)) != OutcomeOK {
			t.Fatal("insert failed")
		}
	}
	warm := keysForShard(m, 1, 2)
	for _, k := range warm {
		m.InsertClean(k, 0, fill(2, 64))
	}
	if !m.NeedsHarvest() {
		t.Fatal("starved shard should trigger harvest")
	}
	if freed := m.Harvest(); freed == 0 {
		t.Fatal("harvest freed nothing")
	}
	for _, k := range warm {
		if !m.Contains(k, 0, 64) {
			t.Fatal("harvest evicted a block from a shard above its low watermark")
		}
	}
	if m.NeedsHarvest() {
		t.Fatal("harvest did not clear the starved shard's trigger")
	}
}

func TestOneFrameShardsDoNotChurn(t *testing.T) {
	// 4 shards × 1 frame: low and high collapse to 0, disabling the
	// harvester there (allocation falls back to inline eviction). Without
	// that, low ≥ 1 with high == capacity would make every resident block
	// re-trigger the harvester, which would immediately evict it.
	m := New(Config{BlockSize: 64, Capacity: 4, Shards: 4, LowWater: 1, HighWater: 4})
	for b := 0; b < 64; b++ {
		m.InsertClean(key(1, b), 0, fill(byte(b), 64))
	}
	st := m.Stats()
	if st.Resident != 4 {
		t.Fatalf("resident = %d, want every one-frame shard full", st.Resident)
	}
	if m.NeedsHarvest() {
		t.Fatal("full one-frame shards must not demand harvesting")
	}
	if freed := m.Harvest(); freed != 0 {
		t.Fatalf("harvest churned %d blocks out of one-frame shards", freed)
	}
	if m.Stats().Resident != 4 {
		t.Fatal("harvest evicted from one-frame shards")
	}
}

// TestShardedEquivalence replays one random operation sequence against a
// single-shard and an 8-shard manager sized so that no shard ever runs out
// of frames: outside of replacement pressure the two must agree on every
// read's outcome and bytes — sharding is a locking change, not a policy
// change.
func TestShardedEquivalence(t *testing.T) {
	one := New(Config{BlockSize: 64, Capacity: 1024, Shards: 1})
	many := New(Config{BlockSize: 64, Capacity: 1024, Shards: 8})
	rng := rand.New(rand.NewSource(7))
	for i := 0; i < 5000; i++ {
		k := key(1+rng.Intn(3), rng.Intn(96))
		switch rng.Intn(4) {
		case 0:
			off := rng.Intn(64)
			length := 1 + rng.Intn(64-off)
			data := fill(byte(rng.Intn(256)), length)
			if got, want := many.WriteSpan(k, 0, off, data, true), one.WriteSpan(k, 0, off, data, true); got != want {
				t.Fatalf("op %d: WriteSpan outcome %v vs %v", i, got, want)
			}
		case 1:
			off := rng.Intn(64)
			length := 1 + rng.Intn(64-off)
			a := make([]byte, length)
			b := make([]byte, length)
			hitA := many.ReadSpan(k, off, a)
			hitB := one.ReadSpan(k, off, b)
			if hitA != hitB {
				t.Fatalf("op %d: hit %v vs %v for %v", i, hitA, hitB, k)
			}
			if hitA && !bytes.Equal(a, b) {
				t.Fatalf("op %d: byte mismatch for %v", i, k)
			}
		case 2:
			data := fill(byte(rng.Intn(256)), 64)
			if got, want := many.InsertClean(k, 0, data), one.InsertClean(k, 0, data); got != want {
				t.Fatalf("op %d: InsertClean outcome %v vs %v", i, got, want)
			}
		case 3:
			if got, want := many.Invalidate(k), one.Invalidate(k); got != want {
				t.Fatalf("op %d: Invalidate %v vs %v", i, got, want)
			}
		}
	}
	if one.DirtyCount() != many.DirtyCount() {
		t.Fatalf("dirty counts diverged: %d vs %d", one.DirtyCount(), many.DirtyCount())
	}
	if err := many.CheckConsistency(); err != nil {
		t.Fatal(err)
	}
}

// TestShardedStorm is the buffer-level half of the concurrency test wall:
// readers, writers, a flusher, a harvester and invalidators hammer one
// sharded manager from many goroutines (run under -race in CI). After the
// storm the frame-accounting invariants must hold: free + resident ==
// capacity, the structural consistency check passes, and — because dirty
// blocks are never evictable — every block dirtied and not invalidated or
// flushed is still present with its bytes intact.
func TestShardedStorm(t *testing.T) {
	seed := testseed.Base(t)
	const capacity = 64
	reg := metrics.NewRegistry()
	m := New(Config{BlockSize: 64, Capacity: capacity, Shards: 8, Registry: reg})
	var stop sync.WaitGroup
	done := make(chan struct{})

	// Flusher: drain dirty blocks in batches, randomly failing some. Each
	// batch stays in flight while the next is taken, so the invalidator
	// can find blocks mid-flush; and now and then a foreign invalidation
	// lands on one of them for certain.
	stop.Add(1)
	go func() {
		defer stop.Done()
		rng := rand.New(rand.NewSource(seed + 1))
		var flying []FlushItem
		settle := func() {
			if rng.Intn(4) == 0 {
				m.FlushFailed(flying)
			} else {
				m.FlushDone(flying)
			}
		}
		defer settle()
		for {
			select {
			case <-done:
				return
			default:
			}
			items := m.TakeDirty(8)
			if len(flying) > 0 && rng.Intn(4) == 0 {
				m.Invalidate(flying[rng.Intn(len(flying))].Key)
			}
			settle()
			flying = items
		}
	}()
	// Harvester.
	stop.Add(1)
	go func() {
		defer stop.Done()
		for {
			select {
			case <-done:
				return
			default:
			}
			if m.NeedsHarvest() {
				m.Harvest()
			}
		}
	}()
	// Invalidator: single blocks and whole-file sweeps.
	stop.Add(1)
	go func() {
		defer stop.Done()
		rng := rand.New(rand.NewSource(seed + 2))
		for {
			select {
			case <-done:
				return
			default:
			}
			if rng.Intn(16) == 0 {
				m.InvalidateFile(3)
			} else {
				m.Invalidate(key(1+rng.Intn(3), rng.Intn(256)))
			}
		}
	}()
	// Readers and writers over a working set 4x the cache.
	var work sync.WaitGroup
	for g := 0; g < 8; g++ {
		work.Add(1)
		go func(g int) {
			defer work.Done()
			rng := rand.New(rand.NewSource(seed + int64(100+g)))
			dst := make([]byte, 64)
			for i := 0; i < 3000; i++ {
				k := key(1+rng.Intn(3), rng.Intn(256))
				switch rng.Intn(3) {
				case 0:
					m.WriteSpan(k, 0, 0, fill(byte(i), 64), true)
				case 1:
					if m.ReadSpan(k, 0, dst) {
						// A hit must return a whole untorn block: every
						// writer writes uniform fill patterns, so a mix of
						// byte values means a read raced a write inside
						// one shard lock.
						for _, v := range dst {
							if v != dst[0] {
								t.Errorf("torn read on %v", k)
								return
							}
						}
					}
				case 2:
					m.InsertClean(k, 0, fill(byte(i), 64))
				}
			}
		}(g)
	}
	work.Wait()
	close(done)
	stop.Wait()

	st := m.Stats()
	if st.Resident+st.Free != capacity {
		t.Fatalf("frames leaked: resident=%d free=%d capacity=%d",
			st.Resident, st.Free, capacity)
	}
	if err := m.CheckConsistency(); err != nil {
		t.Fatal(err)
	}
	// Drain and re-check: the storm must not have wedged any flushing flag.
	for m.DirtyCount() > 0 {
		items := m.TakeDirty(0)
		if len(items) == 0 {
			t.Fatalf("%d dirty blocks but none takeable (stuck flushing flag)", m.DirtyCount())
		}
		m.FlushDone(items)
	}
	if err := m.CheckConsistency(); err != nil {
		t.Fatal(err)
	}
	// Every flush settled, so no frame may still carry a token: a leaked
	// one keeps its frame unevictable for good.
	for i, s := range m.shards {
		for k, b := range s.table {
			if b.inflight != 0 {
				t.Fatalf("shard %d: block %v still carries in-flight token %d after the drain", i, k, b.inflight)
			}
		}
	}
	if reg.Snapshot().Counters["cache.invalidated_in_flight"] == 0 {
		t.Fatal("no invalidation hit a block in flight: the storm never dropped one mid-flush")
	}
}
