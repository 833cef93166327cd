package buffer

import (
	"testing"
)

// TestTakeDirtyOwnedFiltersAndOrders: an owner-filtered take returns only
// that iod's blocks, ordered by (file, index) so adjacent dirty blocks
// coalesce into runs, while blocks of other owners stay untouched and
// flushable by their own streams.
func TestTakeDirtyOwnedFiltersAndOrders(t *testing.T) {
	for _, shards := range []int{1, 4} {
		m := New(Config{BlockSize: 64, Capacity: 32, Shards: shards})
		// Interleave dirtying order across owners and files so age order
		// and run order differ.
		m.WriteSpan(key(2, 5), 1, 0, fill(1, 64), true)
		m.WriteSpan(key(1, 3), 0, 0, fill(2, 64), true)
		m.WriteSpan(key(1, 1), 1, 0, fill(3, 64), true)
		m.WriteSpan(key(1, 2), 0, 0, fill(4, 64), true)
		m.WriteSpan(key(1, 0), 1, 0, fill(5, 64), true)

		items := m.TakeDirtyOwned(1, 0)
		if len(items) != 3 {
			t.Fatalf("shards=%d: owner-1 items = %d, want 3", shards, len(items))
		}
		want := []struct {
			file, idx int
		}{{1, 0}, {1, 1}, {2, 5}}
		for i, w := range want {
			if items[i].Key != key(w.file, w.idx) {
				t.Fatalf("shards=%d: item %d = %v, want file %d idx %d",
					shards, i, items[i].Key, w.file, w.idx)
			}
			if items[i].Owner != 1 {
				t.Fatalf("shards=%d: item %d owner = %d", shards, i, items[i].Owner)
			}
		}
		// Owner 0's blocks are untouched (still dirty, not in flight).
		other := m.TakeDirtyOwned(0, 0)
		if len(other) != 2 {
			t.Fatalf("shards=%d: owner-0 items = %d, want 2", shards, len(other))
		}
		m.FlushDone(items)
		m.FlushDone(other)
		if n := m.DirtyCount(); n != 0 {
			t.Fatalf("shards=%d: %d dirty after both owners drained", shards, n)
		}
		if err := m.CheckConsistency(); err != nil {
			t.Fatalf("shards=%d: %v", shards, err)
		}
	}
}

// TestTakeDirtyOwnedMaxKeepsOldest: the max bound must select the oldest
// blocks of the owner (age priority), even though the batch is then
// re-ordered by (file, index).
func TestTakeDirtyOwnedMaxKeepsOldest(t *testing.T) {
	m := New(Config{BlockSize: 64, Capacity: 32, Shards: 1})
	for i := 0; i < 6; i++ {
		// Dirty in descending index order: oldest dirty = highest index.
		m.WriteSpan(key(1, 5-i), 0, 0, fill(byte(i), 64), true)
	}
	items := m.TakeDirtyOwned(0, 2)
	if len(items) != 2 {
		t.Fatalf("items = %d, want 2", len(items))
	}
	// Oldest two by age are indices 5 and 4; run order returns them
	// ascending.
	if items[0].Key != key(1, 4) || items[1].Key != key(1, 5) {
		t.Fatalf("items = %v, %v; want idx 4 then 5", items[0].Key, items[1].Key)
	}
	m.FlushFailed(items)
}

// TestFlushFailedKeepsAgePriority pins the re-queue contract the flush
// streams rely on: a failed block is retried with its original priority —
// a younger block dirtied during the failed flight must not overtake it.
func TestFlushFailedKeepsAgePriority(t *testing.T) {
	m := New(Config{BlockSize: 64, Capacity: 32, Shards: 4})
	m.WriteSpan(key(1, 7), 0, 0, fill(1, 64), true)
	items := m.TakeDirtyOwned(0, 0)
	m.WriteSpan(key(2, 0), 0, 0, fill(2, 64), true) // younger
	m.FlushFailed(items)
	retry := m.TakeDirtyOwned(0, 1)
	if len(retry) != 1 || retry[0].Key != key(1, 7) {
		t.Fatalf("retry = %v, want the re-queued block (file 1, idx 7)", retry)
	}
	m.FlushFailed(retry)
}

// TestTakeDirtyOwnedSnapshotsRunsContiguously pins the layout FlushItem
// documents: items come back with consecutive Slots, each span sits at
// its block offset inside its slot, and blocks whose spans tile a block
// boundary are one stretch of memory — the first item's Data re-sliced to
// the run's length is the run's bytes, whichever shards held the blocks.
func TestTakeDirtyOwnedSnapshotsRunsContiguously(t *testing.T) {
	const bs = 64
	for _, shards := range []int{1, 4} {
		m := New(Config{BlockSize: bs, Capacity: 32, Shards: shards})
		m.WriteSpan(key(1, 2), 0, 0, fill(3, 10), true)   // head-partial: ends the run
		m.WriteSpan(key(1, 0), 0, 8, fill(1, bs-8), true) // tail-partial: starts it
		m.WriteSpan(key(1, 1), 0, 0, fill(2, bs), true)   // whole block
		m.WriteSpan(key(1, 3), 0, 0, fill(4, bs), true)   // after a short span: no tiling
		items := m.TakeDirtyOwned(0, 0)
		if len(items) != 4 {
			t.Fatalf("shards=%d: items = %d, want 4", shards, len(items))
		}
		for i, it := range items {
			if it.Slot != i+1 || it.Key != key(1, i) {
				t.Fatalf("shards=%d: item %d = slot %d key %v", shards, i, it.Slot, it.Key)
			}
		}
		n := bs - 8 + bs + 10
		run := items[0].Data[:n]
		want := append(append(fill(1, bs-8), fill(2, bs)...), fill(3, 10)...)
		if string(run) != string(want) {
			t.Fatalf("shards=%d: run bytes are not blocks 0-2 in order", shards)
		}
		if string(items[3].Data) != string(fill(4, bs)) || items[3].Off != 0 {
			t.Fatalf("shards=%d: block 3 snapshot wrong", shards)
		}
		// The snapshot is a copy: a later write does not show through.
		m.WriteSpan(key(1, 1), 0, 0, fill(9, bs), true)
		if items[1].Data[0] != 2 {
			t.Fatalf("shards=%d: snapshot aliases the cache frame", shards)
		}
		m.FlushDone(items)
	}
}
