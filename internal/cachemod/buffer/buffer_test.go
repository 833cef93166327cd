package buffer

import (
	"bytes"
	"fmt"
	"sync"
	"testing"
	"testing/quick"

	"pvfscache/internal/blockio"
)

func key(file, idx int) blockio.BlockKey {
	return blockio.BlockKey{File: blockio.FileID(file), Index: int64(idx)}
}

// mgr returns a single-shard manager. These unit tests assert exact
// replacement and flush-FIFO order, which is only deterministic within one
// shard — Shards: 1 is the pre-sharding manager, kept as the ablation
// baseline. Sharded behaviour is covered by sharded_test.go.
func mgr(capacity int, policy Policy) *Manager {
	return New(Config{BlockSize: 64, Capacity: capacity, Policy: policy, Shards: 1})
}

func fill(b byte, n int) []byte { return bytes.Repeat([]byte{b}, n) }

func TestMissThenInsertThenHit(t *testing.T) {
	m := mgr(4, PolicyClock)
	dst := make([]byte, 64)
	if m.ReadSpan(key(1, 0), 0, dst) {
		t.Fatal("read of empty cache hit")
	}
	if m.InsertClean(key(1, 0), 2, fill(7, 64)) != OutcomeOK {
		t.Fatal("insert failed")
	}
	if !m.ReadSpan(key(1, 0), 0, dst) {
		t.Fatal("read after insert missed")
	}
	if !bytes.Equal(dst, fill(7, 64)) {
		t.Fatal("wrong data")
	}
	st := m.Stats()
	if st.Hits != 1 || st.Misses != 1 {
		t.Errorf("hits=%d misses=%d", st.Hits, st.Misses)
	}
}

func TestInsertShortDataZeroFillsTail(t *testing.T) {
	m := mgr(4, PolicyClock)
	m.InsertClean(key(1, 0), 0, fill(9, 10))
	dst := make([]byte, 64)
	if !m.ReadSpan(key(1, 0), 0, dst) {
		t.Fatal("miss")
	}
	if !bytes.Equal(dst[:10], fill(9, 10)) {
		t.Error("head wrong")
	}
	if !bytes.Equal(dst[10:], make([]byte, 54)) {
		t.Error("tail not zeroed")
	}
}

func TestPartialValidityHitAndMiss(t *testing.T) {
	m := mgr(4, PolicyClock)
	if m.WriteSpan(key(1, 5), 0, 16, fill(3, 16), true) != OutcomeOK {
		t.Fatal("write failed")
	}
	dst := make([]byte, 8)
	if !m.ReadSpan(key(1, 5), 20, dst) {
		t.Fatal("read inside valid span missed")
	}
	if m.ReadSpan(key(1, 5), 0, dst) {
		t.Fatal("read outside valid span hit")
	}
	if m.ReadSpan(key(1, 5), 30, dst) {
		t.Fatal("read straddling valid end hit")
	}
}

func TestWriteSpanMergeTouching(t *testing.T) {
	m := mgr(4, PolicyClock)
	m.WriteSpan(key(1, 0), 0, 0, fill(1, 16), true)
	// adjacent: [16,32)
	if got := m.WriteSpan(key(1, 0), 0, 16, fill(2, 16), true); got != OutcomeOK {
		t.Fatalf("adjacent write outcome %v", got)
	}
	dst := make([]byte, 32)
	if !m.ReadSpan(key(1, 0), 0, dst) {
		t.Fatal("merged span not valid")
	}
	if !bytes.Equal(dst[:16], fill(1, 16)) || !bytes.Equal(dst[16:], fill(2, 16)) {
		t.Fatal("merged data wrong")
	}
}

func TestWriteSpanGapNeedsFetch(t *testing.T) {
	m := mgr(4, PolicyClock)
	m.WriteSpan(key(1, 0), 0, 0, fill(1, 8), true)
	if got := m.WriteSpan(key(1, 0), 0, 32, fill(2, 8), true); got != OutcomeNeedFetch {
		t.Fatalf("gap write outcome %v, want NeedFetch", got)
	}
	// After a fetch fills the block, the retry succeeds.
	if m.InsertClean(key(1, 0), 0, fill(9, 64)) != OutcomeOK {
		t.Fatal("insert")
	}
	if got := m.WriteSpan(key(1, 0), 0, 32, fill(2, 8), true); got != OutcomeOK {
		t.Fatalf("retry outcome %v", got)
	}
}

func TestInsertCleanPreservesDirtyBytes(t *testing.T) {
	m := mgr(4, PolicyClock)
	// Dirty span [8,16) with 5s.
	m.WriteSpan(key(1, 0), 0, 8, fill(5, 8), true)
	// Fetch arrives with all 9s.
	m.InsertClean(key(1, 0), 0, fill(9, 64))
	dst := make([]byte, 64)
	if !m.ReadSpan(key(1, 0), 0, dst) {
		t.Fatal("miss after insert")
	}
	if !bytes.Equal(dst[:8], fill(9, 8)) {
		t.Error("prefix should be fetched data")
	}
	if !bytes.Equal(dst[8:16], fill(5, 8)) {
		t.Error("dirty bytes clobbered by fetch")
	}
	if !bytes.Equal(dst[16:], fill(9, 48)) {
		t.Error("suffix should be fetched data")
	}
	// Block must still be dirty: its write-back is pending.
	if m.DirtyCount() != 1 {
		t.Error("block lost its dirty state")
	}
}

func TestInsertCleanPreservesCleanValidBytes(t *testing.T) {
	// Resident VALID bytes win over a fetched image even when clean: a
	// just-flushed block's bytes may have landed at the iod after the
	// fetch was served there, so the fetch can be stale for the valid
	// range (the iod serves a connection's requests concurrently).
	m := mgr(4, PolicyClock)
	m.WriteSpan(key(1, 0), 0, 8, fill(5, 8), true)
	m.FlushDone(m.TakeDirty(0)) // now clean, valid [8,16)
	m.InsertClean(key(1, 0), 0, fill(9, 64))
	dst := make([]byte, 64)
	if !m.ReadSpan(key(1, 0), 0, dst) {
		t.Fatal("miss after insert")
	}
	if !bytes.Equal(dst[8:16], fill(5, 8)) {
		t.Error("clean valid bytes clobbered by fetch")
	}
	if !bytes.Equal(dst[:8], fill(9, 8)) || !bytes.Equal(dst[16:], fill(9, 48)) {
		t.Error("invalid ranges should come from the fetch")
	}
}

func TestInstallFetchedPatchesCallerBuffer(t *testing.T) {
	m := mgr(4, PolicyClock)
	// Absent block: the image installs untouched.
	buf := fill(9, 64)
	if m.InstallFetched(key(2, 0), 0, buf, m.WriteStamp(key(2, 0))) != OutcomeOK {
		t.Fatal("install of absent block failed")
	}
	if !bytes.Equal(buf, fill(9, 64)) {
		t.Error("absent-block install must not modify the image")
	}
	// Resident valid bytes win in BOTH copies: the cache's and the
	// caller's (which goes on to readers, waiters and the global cache).
	m.WriteSpan(key(1, 0), 0, 8, fill(5, 8), true)
	buf = fill(9, 64)
	if m.InstallFetched(key(1, 0), 0, buf, m.WriteStamp(key(1, 0))) != OutcomeOK {
		t.Fatal("install over resident block failed")
	}
	if !bytes.Equal(buf[8:16], fill(5, 8)) {
		t.Error("caller buffer missing resident valid bytes")
	}
	if !bytes.Equal(buf[:8], fill(9, 8)) || !bytes.Equal(buf[16:], fill(9, 48)) {
		t.Error("bytes outside the valid interval must come from the fetch")
	}
	dst := make([]byte, 64)
	if !m.ReadSpan(key(1, 0), 0, dst) {
		t.Fatal("block not whole-valid after install")
	}
	if !bytes.Equal(dst, buf) {
		t.Error("cache copy and caller copy diverged")
	}
}

// TestPrefetchBitLifecycle follows a frame's prefetch bit: a prefetch
// install sets it, the first demand read (ReadSpanDemand or OverlaySpan)
// consumes it and a plain ReadSpan leaves it alone, and eviction,
// invalidation and a demand install each clear it — so a frame a later
// write allocates for the key never reports a prefetch hit.
func TestPrefetchBitLifecycle(t *testing.T) {
	install := func(m *Manager, k blockio.BlockKey, admit Admit) {
		t.Helper()
		if got := m.InstallFetchedAdmit(k, 0, fill(1, 64), admit, m.WriteStamp(k)); got != OutcomeOK {
			t.Fatalf("install %v: %v", k, got)
		}
	}
	demand := func(m *Manager, k blockio.BlockKey) bool {
		t.Helper()
		hit, prefetched := m.ReadSpanDemand(k, 8, make([]byte, 8))
		if !hit {
			t.Fatalf("demand read of %v missed", k)
		}
		return prefetched
	}

	m := mgr(4, PolicyClock)
	k := key(1, 0)
	install(m, k, AdmitPrefetch)
	if !m.ReadSpan(k, 0, make([]byte, 8)) || !demand(m, k) {
		t.Fatal("ReadSpan consumed the bit, or the first demand read did not report it")
	}
	if demand(m, k) {
		t.Fatal("second demand read reported a prefetch hit")
	}
	install(m, k, AdmitPrefetch|AdmitMust)
	if !m.OverlaySpan(k, 0, make([]byte, 8)) || m.OverlaySpan(k, 0, make([]byte, 8)) || demand(m, k) {
		t.Fatal("OverlaySpan did not consume the bit exactly once")
	}

	for name, drop := range map[string]func(m *Manager, k blockio.BlockKey){
		"eviction": func(m *Manager, k blockio.BlockKey) {
			for i := 0; m.Contains(k, 0, 64) && i < 64; i++ {
				m.InsertClean(key(9, i), 0, fill(9, 64))
			}
		},
		"invalidate":     func(m *Manager, k blockio.BlockKey) { m.Invalidate(k) },
		"demand install": func(m *Manager, k blockio.BlockKey) { install(m, k, 0) },
	} {
		m := mgr(4, PolicyClock)
		install(m, k, AdmitPrefetch)
		drop(m, k)
		if !m.Contains(k, 0, 64) {
			// The frame was recycled: a write allocates a fresh one.
			if got := m.WriteSpan(k, 0, 0, fill(2, 64), true); got != OutcomeOK {
				t.Fatalf("%s: write %v", name, got)
			}
		}
		if demand(m, k) {
			t.Errorf("%s: the prefetch bit survived", name)
		}
		if err := m.CheckConsistency(); err != nil {
			t.Fatalf("%s: %v", name, err)
		}
	}
}

func TestDirtyFlushCycle(t *testing.T) {
	m := mgr(8, PolicyClock)
	m.WriteSpan(key(1, 0), 3, 4, fill(1, 12), true)
	m.WriteSpan(key(1, 1), 3, 0, fill(2, 64), true)
	if m.DirtyCount() != 2 {
		t.Fatalf("dirty = %d", m.DirtyCount())
	}
	items := m.TakeDirty(0)
	if len(items) != 2 {
		t.Fatalf("items = %d", len(items))
	}
	// FIFO: oldest first.
	if items[0].Key != key(1, 0) || items[0].Off != 4 || len(items[0].Data) != 12 {
		t.Errorf("item0 = %+v", items[0])
	}
	if items[0].Owner != 3 {
		t.Errorf("owner = %d", items[0].Owner)
	}
	if !bytes.Equal(items[0].Data, fill(1, 12)) {
		t.Error("snapshot data wrong")
	}
	// While flushing, TakeDirty skips in-flight blocks.
	if extra := m.TakeDirty(0); len(extra) != 0 {
		t.Fatalf("second take got %d items", len(extra))
	}
	m.FlushDone(items)
	if m.DirtyCount() != 0 {
		t.Error("blocks still dirty after FlushDone")
	}
}

func TestTakeDirtyMaxBound(t *testing.T) {
	m := mgr(8, PolicyClock)
	for i := 0; i < 5; i++ {
		m.WriteSpan(key(1, i), 0, 0, fill(byte(i), 64), true)
	}
	items := m.TakeDirty(2)
	if len(items) != 2 {
		t.Fatalf("items = %d, want 2", len(items))
	}
	m.FlushDone(items)
	if m.DirtyCount() != 3 {
		t.Errorf("dirty = %d, want 3", m.DirtyCount())
	}
}

func TestReDirtyDuringFlightStaysDirty(t *testing.T) {
	m := mgr(8, PolicyClock)
	m.WriteSpan(key(1, 0), 0, 0, fill(1, 64), true)
	items := m.TakeDirty(0)
	// Re-dirty while the flush is in flight.
	m.WriteSpan(key(1, 0), 0, 0, fill(2, 64), true)
	m.FlushDone(items)
	if m.DirtyCount() != 1 {
		t.Fatal("re-dirtied block was marked clean — lost update")
	}
	// The next flush carries the new data.
	items = m.TakeDirty(0)
	if len(items) != 1 || !bytes.Equal(items[0].Data, fill(2, 64)) {
		t.Fatal("second flush has stale data")
	}
	m.FlushDone(items)
	if m.DirtyCount() != 0 {
		t.Fatal("still dirty")
	}
}

func TestFlushFailedRetries(t *testing.T) {
	m := mgr(8, PolicyClock)
	m.WriteSpan(key(1, 0), 0, 0, fill(1, 64), true)
	items := m.TakeDirty(0)
	m.FlushFailed(items)
	if m.DirtyCount() != 1 {
		t.Fatal("failed flush should leave block dirty")
	}
	items = m.TakeDirty(0)
	if len(items) != 1 {
		t.Fatal("retry take failed")
	}
}

func TestInvalidate(t *testing.T) {
	m := mgr(4, PolicyClock)
	m.InsertClean(key(1, 0), 0, fill(1, 64))
	if !m.Invalidate(key(1, 0)) {
		t.Fatal("invalidate of resident block returned false")
	}
	if m.Invalidate(key(1, 0)) {
		t.Fatal("invalidate of absent block returned true")
	}
	if m.ReadSpan(key(1, 0), 0, make([]byte, 4)) {
		t.Fatal("read after invalidate hit")
	}
}

func TestInvalidateDirtyBlockDropsFromDirtyList(t *testing.T) {
	m := mgr(4, PolicyClock)
	m.WriteSpan(key(1, 0), 0, 0, fill(1, 64), true)
	m.Invalidate(key(1, 0))
	if m.DirtyCount() != 0 {
		t.Fatal("invalidated block still on dirty list")
	}
	if len(m.TakeDirty(0)) != 0 {
		t.Fatal("TakeDirty returned invalidated block")
	}
}

func TestInvalidateFile(t *testing.T) {
	m := mgr(8, PolicyClock)
	for i := 0; i < 3; i++ {
		m.InsertClean(key(1, i), 0, fill(1, 64))
	}
	m.InsertClean(key(2, 0), 0, fill(2, 64))
	if n := m.InvalidateFile(1); n != 3 {
		t.Fatalf("invalidated %d, want 3", n)
	}
	if !m.Contains(key(2, 0), 0, 64) {
		t.Fatal("other file's block dropped")
	}
}

func TestFlushDoneAfterInvalidateIsNoop(t *testing.T) {
	m := mgr(4, PolicyClock)
	m.WriteSpan(key(1, 0), 0, 0, fill(1, 64), true)
	items := m.TakeDirty(0)
	m.Invalidate(key(1, 0))
	m.FlushDone(items) // must not panic or resurrect
	if m.Contains(key(1, 0), 0, 1) {
		t.Fatal("block resurrected")
	}
}

// TestStaleFlushAckAfterInvalidateRewrite: a take's ack must only ever
// settle the residency it snapshotted. A foreign sync-write's invalidation
// drops the in-flight block; the key is written again into its emptied
// frame; then the old residency's ack (or failure) arrives. It must not mark the new
// bytes clean — that loses an acknowledged write-behind write — nor clear
// a newer take's in-flight mark.
func TestStaleFlushAckAfterInvalidateRewrite(t *testing.T) {
	m := mgr(4, PolicyClock)
	k := key(1, 0)
	m.WriteSpan(k, 0, 0, fill(1, 64), true)
	old := m.TakeDirtyOwned(0, 0)
	if len(old) != 1 {
		t.Fatalf("take = %d items, want 1", len(old))
	}
	m.Invalidate(k)
	m.WriteSpan(k, 0, 0, fill(2, 64), true)
	m.FlushDone(old)
	if m.DirtyCount() != 1 {
		t.Fatal("an earlier residency's flush ack marked the rewritten block clean")
	}
	// The same ack arriving while the new residency has its own flush in
	// flight: it must neither clean the block nor release it to a second take.
	fresh := m.TakeDirtyOwned(0, 0)
	if len(fresh) != 1 || !bytes.Equal(fresh[0].Data, fill(2, 64)) {
		t.Fatalf("fresh take = %+v, want the rewritten bytes", fresh)
	}
	m.FlushFailed(old)
	if again := m.TakeDirtyOwned(0, 0); len(again) != 0 {
		t.Fatal("a stale failure released the in-flight mark: one block rides two frames")
	}
	m.FlushDone(old)
	if m.DirtyCount() != 1 {
		t.Fatal("a stale ack cleaned a block whose own flush is still in flight")
	}
	m.FlushDone(fresh)
	if m.DirtyCount() != 0 {
		t.Fatal("the residency's own ack did not clean the block")
	}
	if err := m.CheckConsistency(); err != nil {
		t.Fatal(err)
	}
}

// TestDroppedInFlightBlockKeepsItsFlush: invalidating a block whose flush
// is in flight must not forget that flush. The frame stays, empty and
// unevictable, until the flush settles; a rewrite of the key lands in it
// and is neither taken again nor reported free of a pending flush until
// the old flush's ack, so a newer flush or a sync-write cannot reach the
// iod ahead of the older bytes.
func TestDroppedInFlightBlockKeepsItsFlush(t *testing.T) {
	k := key(1, 0)
	drops := map[string]func(m *Manager){
		"Invalidate":     func(m *Manager) { m.Invalidate(k) },
		"InvalidateFile": func(m *Manager) { m.InvalidateFile(1) },
	}
	for _, policy := range []Policy{PolicyClock, PolicyLRU, PolicyGhost} {
		for name, drop := range drops {
			m := mgr(1, policy)
			check := func(step string) {
				t.Helper()
				if err := m.CheckConsistency(); err != nil {
					t.Fatalf("%v/%s, %s: %v", policy, name, step, err)
				}
			}
			m.WriteSpan(k, 0, 0, fill(1, 64), true)
			old := m.TakeDirty(0)
			drop(m)
			check("after the drop")
			if m.Contains(k, 0, 1) || m.DirtyCount() != 0 {
				t.Fatalf("%v/%s: the dropped block still shows bytes or dirt", policy, name)
			}
			if m.InsertClean(key(2, 0), 0, fill(9, 64)) != OutcomeNoSpace {
				t.Fatalf("%v/%s: a frame with a flush in flight was recycled", policy, name)
			}
			m.WriteSpan(k, 0, 0, fill(2, 64), true)
			check("after the rewrite")
			if again := m.TakeDirty(0); len(again) != 0 {
				t.Fatalf("%v/%s: the rewrite was taken while the older flush is in flight", policy, name)
			}
			if !m.FlushPending(k, m.WriteStamp(k)) {
				t.Fatalf("%v/%s: FlushPending forgot the dropped block's flush", policy, name)
			}
			m.FlushDone(old)
			check("after the old ack")
			if m.FlushPending(k, m.WriteStamp(k)) {
				t.Fatalf("%v/%s: a flush still pending after its ack", policy, name)
			}
			fresh := m.TakeDirty(0)
			if len(fresh) != 1 || !bytes.Equal(fresh[0].Data, fill(2, 64)) {
				t.Fatalf("%v/%s: take after the old ack = %+v, want the rewritten bytes", policy, name, fresh)
			}
			m.FlushDone(fresh)
			check("after the new ack")
		}
	}
}

func TestEvictionPrefersCleanClock(t *testing.T) {
	m := mgr(4, PolicyClock)
	m.WriteSpan(key(1, 0), 0, 0, fill(1, 64), true) // dirty
	m.InsertClean(key(1, 1), 0, fill(2, 64))        // clean
	m.WriteSpan(key(1, 2), 0, 0, fill(3, 64), true) // dirty
	m.InsertClean(key(1, 3), 0, fill(4, 64))        // clean
	// Cache full. Allocating two more blocks must evict the clean ones.
	if m.InsertClean(key(1, 4), 0, fill(5, 64)) != OutcomeOK {
		t.Fatal("insert with clean victims failed")
	}
	if m.InsertClean(key(1, 5), 0, fill(6, 64)) != OutcomeOK {
		t.Fatal("second insert failed")
	}
	if !m.Contains(key(1, 0), 0, 64) || !m.Contains(key(1, 2), 0, 64) {
		t.Fatal("dirty block was evicted")
	}
	if m.Contains(key(1, 1), 0, 64) || m.Contains(key(1, 3), 0, 64) {
		t.Fatal("clean blocks should have been evicted")
	}
}

func TestAllDirtyNoSpace(t *testing.T) {
	m := mgr(2, PolicyClock)
	m.WriteSpan(key(1, 0), 0, 0, fill(1, 64), true)
	m.WriteSpan(key(1, 1), 0, 0, fill(2, 64), true)
	if got := m.InsertClean(key(1, 2), 0, fill(3, 64)); got != OutcomeNoSpace {
		t.Fatalf("outcome %v, want NoSpace", got)
	}
	if got := m.WriteSpan(key(1, 3), 0, 0, fill(4, 64), true); got != OutcomeNoSpace {
		t.Fatalf("outcome %v, want NoSpace", got)
	}
	// Flushing unblocks allocation.
	items := m.TakeDirty(0)
	m.FlushDone(items)
	if got := m.InsertClean(key(1, 2), 0, fill(3, 64)); got != OutcomeOK {
		t.Fatalf("after flush outcome %v", got)
	}
}

func TestFlushingBlockNotEvicted(t *testing.T) {
	m := mgr(1, PolicyClock)
	m.WriteSpan(key(1, 0), 0, 0, fill(1, 64), true)
	items := m.TakeDirty(0)
	m.FlushDone(items) // now clean
	// Dirty it again and take a snapshot: flushing=true, but FlushDone not
	// yet called.
	m.WriteSpan(key(1, 0), 0, 0, fill(2, 64), true)
	_ = m.TakeDirty(0)
	if got := m.InsertClean(key(2, 0), 0, fill(3, 64)); got != OutcomeNoSpace {
		t.Fatalf("in-flight block evicted: %v", got)
	}
}

func TestClockSecondChance(t *testing.T) {
	m := mgr(3, PolicyClock)
	m.InsertClean(key(1, 0), 0, fill(1, 64))
	m.InsertClean(key(1, 1), 0, fill(2, 64))
	m.InsertClean(key(1, 2), 0, fill(3, 64))
	// Reference 0 and 2 repeatedly; 1 is untouched after its insert's ref
	// decays over the first sweep.
	dst := make([]byte, 4)
	for i := 0; i < 3; i++ {
		m.ReadSpan(key(1, 0), 0, dst)
		m.ReadSpan(key(1, 2), 0, dst)
	}
	// Force an eviction. The hand sweeps: everyone has ref=1 from insert/
	// touch, so the first sweep clears; the victim must not be 0 or 2 if
	// they get re-referenced... after one full clearing sweep the first
	// unreferenced clean block is chosen. We only assert: some block was
	// evicted and the cache still works.
	if m.InsertClean(key(1, 3), 0, fill(4, 64)) != OutcomeOK {
		t.Fatal("insert failed")
	}
	st := m.Stats()
	if st.Evictions != 1 || st.Resident != 3 {
		t.Errorf("stats %+v", st)
	}
}

func TestExactLRUEvictsLeastRecent(t *testing.T) {
	m := mgr(3, PolicyLRU)
	m.InsertClean(key(1, 0), 0, fill(1, 64))
	m.InsertClean(key(1, 1), 0, fill(2, 64))
	m.InsertClean(key(1, 2), 0, fill(3, 64))
	dst := make([]byte, 4)
	// Touch 0 and 1; 2 becomes least recent.
	m.ReadSpan(key(1, 0), 0, dst)
	m.ReadSpan(key(1, 1), 0, dst)
	m.InsertClean(key(1, 3), 0, fill(4, 64))
	if m.Contains(key(1, 2), 0, 64) {
		t.Fatal("LRU victim should be block 2")
	}
	if !m.Contains(key(1, 0), 0, 64) || !m.Contains(key(1, 1), 0, 64) {
		t.Fatal("recently used blocks evicted")
	}
}

func TestHarvestWatermarks(t *testing.T) {
	m := New(Config{BlockSize: 64, Capacity: 10, LowWater: 2, HighWater: 5, Shards: 1})
	for i := 0; i < 9; i++ {
		m.InsertClean(key(1, i), 0, fill(byte(i), 64))
	}
	if !m.NeedsHarvest() {
		t.Fatal("free=1 < low=2 should need harvest")
	}
	freed := m.Harvest()
	if got := m.FreeCount(); got != 5 {
		t.Fatalf("free after harvest = %d, want 5 (freed %d)", got, freed)
	}
	if m.NeedsHarvest() {
		t.Fatal("harvest did not clear the trigger")
	}
}

func TestHarvestSkipsDirty(t *testing.T) {
	m := New(Config{BlockSize: 64, Capacity: 4, LowWater: 2, HighWater: 4, Shards: 1})
	for i := 0; i < 4; i++ {
		m.WriteSpan(key(1, i), 0, 0, fill(byte(i), 64), true)
	}
	if freed := m.Harvest(); freed != 0 {
		t.Fatalf("harvest evicted %d dirty blocks", freed)
	}
	items := m.TakeDirty(0)
	m.FlushDone(items)
	if freed := m.Harvest(); freed != 4 {
		t.Fatalf("freed %d, want 4", freed)
	}
}

func TestStatsAccounting(t *testing.T) {
	m := mgr(4, PolicyClock)
	st := m.Stats()
	if st.Capacity != 4 || st.Free != 4 || st.Resident != 0 {
		t.Errorf("initial stats %+v", st)
	}
	m.InsertClean(key(1, 0), 0, fill(1, 64))
	m.WriteSpan(key(1, 1), 0, 0, fill(2, 64), true)
	st = m.Stats()
	if st.Resident != 2 || st.Free != 2 || st.Dirty != 1 {
		t.Errorf("stats %+v", st)
	}
}

func TestZeroLengthOps(t *testing.T) {
	m := mgr(4, PolicyClock)
	if !m.ReadSpan(key(1, 0), 0, nil) {
		t.Error("zero-length read should trivially hit")
	}
	if m.WriteSpan(key(1, 0), 0, 0, nil, true) != OutcomeOK {
		t.Error("zero-length write should be OK")
	}
	if m.Contains(key(1, 0), 0, 1) {
		t.Error("zero-length write must not allocate")
	}
}

func TestWriteSpanOutOfBoundsPanics(t *testing.T) {
	m := mgr(4, PolicyClock)
	defer func() {
		if recover() == nil {
			t.Error("expected panic")
		}
	}()
	m.WriteSpan(key(1, 0), 0, 60, fill(1, 8), true)
}

func TestConcurrentMixedOps(t *testing.T) {
	m := New(Config{BlockSize: 64, Capacity: 32})
	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			dst := make([]byte, 64)
			for i := 0; i < 200; i++ {
				k := key(1, (g*7+i)%64)
				switch i % 4 {
				case 0:
					m.WriteSpan(k, 0, 0, fill(byte(i), 64), true)
				case 1:
					m.ReadSpan(k, 0, dst)
				case 2:
					m.InsertClean(k, 0, fill(byte(i), 64))
				case 3:
					items := m.TakeDirty(4)
					m.FlushDone(items)
				}
				if m.NeedsHarvest() {
					m.Harvest()
				}
			}
		}(g)
	}
	wg.Wait()
	st := m.Stats()
	if st.Resident+st.Free != 32 {
		t.Fatalf("frames leaked: resident=%d free=%d", st.Resident, st.Free)
	}
	if err := m.CheckConsistency(); err != nil {
		t.Fatal(err)
	}
}

// Property: resident + free == capacity after any operation sequence, and
// dirty <= resident.
func TestFrameConservationProperty(t *testing.T) {
	type op struct {
		Kind byte
		Blk  uint8
		Off  uint8
		Len  uint8
	}
	f := func(ops []op) bool {
		m := New(Config{BlockSize: 64, Capacity: 8})
		for _, o := range ops {
			k := key(1, int(o.Blk%16))
			off := int(o.Off) % 64
			length := int(o.Len)%(64-off) + 1
			switch o.Kind % 6 {
			case 0:
				m.WriteSpan(k, 0, off, fill(1, length), true)
			case 1:
				m.ReadSpan(k, off, make([]byte, length))
			case 2:
				m.InsertClean(k, 0, fill(2, 64))
			case 3:
				m.FlushDone(m.TakeDirty(3))
			case 4:
				m.Invalidate(k)
			case 5:
				m.Harvest()
			}
			st := m.Stats()
			if st.Resident+st.Free != 8 {
				return false
			}
			if st.Dirty > st.Resident {
				return false
			}
			if m.CheckConsistency() != nil {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}

// Property: data written then read back (within one block, marked dirty,
// no eviction pressure) round-trips.
func TestWriteReadRoundTripProperty(t *testing.T) {
	f := func(off uint8, raw []byte, blk uint8) bool {
		m := New(Config{BlockSize: 256, Capacity: 4})
		o := int(off) % 256
		max := 256 - o
		if len(raw) == 0 {
			return true
		}
		data := raw
		if len(data) > max {
			data = data[:max]
		}
		k := key(2, int(blk%2))
		if m.WriteSpan(k, 0, o, data, true) != OutcomeOK {
			return false
		}
		dst := make([]byte, len(data))
		if !m.ReadSpan(k, o, dst) {
			return false
		}
		return bytes.Equal(dst, data)
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func TestPolicyString(t *testing.T) {
	if PolicyClock.String() != "clock" || PolicyLRU.String() != "lru" || PolicyGhost.String() != "ghost" {
		t.Error("policy names")
	}
	if Policy(9).String() == "" {
		t.Error("unknown policy should render")
	}
	if OutcomeOK.String() != "ok" || OutcomeNeedFetch.String() != "need-fetch" ||
		OutcomeNoSpace.String() != "no-space" || Outcome(9).String() == "" {
		t.Error("outcome names")
	}
}

func TestDefaultsApplied(t *testing.T) {
	m := New(Config{})
	if m.BlockSize() != blockio.DefaultBlockSize {
		t.Errorf("block size = %d", m.BlockSize())
	}
	if m.Capacity() != 300 {
		t.Errorf("capacity = %d", m.Capacity())
	}
}

func TestManyFilesNoKeyCollisions(t *testing.T) {
	m := New(Config{BlockSize: 64, Capacity: 100})
	for f := 0; f < 10; f++ {
		for b := 0; b < 5; b++ {
			m.InsertClean(key(f+1, b), 0, fill(byte(f*16+b), 64))
		}
	}
	dst := make([]byte, 64)
	for f := 0; f < 10; f++ {
		for b := 0; b < 5; b++ {
			if !m.ReadSpan(key(f+1, b), 0, dst) {
				t.Fatalf("file %d block %d missing", f+1, b)
			}
			if dst[0] != byte(f*16+b) {
				t.Fatalf("file %d block %d data mixed up", f+1, b)
			}
		}
	}
}

func ExampleManager() {
	m := New(Config{BlockSize: 4096, Capacity: 300}) // the paper's 1.2 MB cache
	k := blockio.BlockKey{File: 1, Index: 0}
	m.WriteSpan(k, 0, 0, []byte("hello"), true)
	dst := make([]byte, 5)
	m.ReadSpan(k, 0, dst)
	fmt.Println(string(dst), m.DirtyCount())
	// Output: hello 1
}
