package buffer

import (
	"bytes"
	"fmt"
	"sync"
	"testing"

	"pvfscache/internal/blockio"
	"pvfscache/internal/testseed"
)

// ghostMgr returns a single-shard PolicyGhost manager (deterministic
// segment order; sharded behaviour is covered by the storm test below).
func ghostMgr(capacity int) *Manager {
	return New(Config{BlockSize: 64, Capacity: capacity, Policy: PolicyGhost, Shards: 1})
}

// touchAll re-reads each key once, promoting residents to protected.
func touchAll(t *testing.T, m *Manager, keys ...blockio.BlockKey) {
	t.Helper()
	dst := make([]byte, 64)
	for _, k := range keys {
		if !m.ReadSpan(k, 0, dst) {
			t.Fatalf("touch of %v missed", k)
		}
	}
}

func TestGhostListBounded(t *testing.T) {
	m := ghostMgr(8) // one ghost per frame: ghostCap == capacity
	// Stream far more blocks than capacity+ghostCap through the cache.
	for i := 0; i < 100; i++ {
		m.InsertClean(key(1, i), 0, fill(byte(i), 64))
	}
	st := m.Stats()
	if st.Ghosts == 0 {
		t.Fatal("evictions recorded no ghosts")
	}
	if st.Ghosts > 8 {
		t.Fatalf("ghost list grew to %d entries, cap is 8", st.Ghosts)
	}
	if err := m.CheckConsistency(); err != nil {
		t.Fatal(err)
	}
}

// TestGhostHitReAdmitsProtected is the policy's core promise: a block
// evicted while still in use re-enters straight into the protected
// segment on its next admission and then survives a scan that flushes
// probation many times over.
func TestGhostHitReAdmitsProtected(t *testing.T) {
	m := ghostMgr(4)
	a := key(1, 0)
	m.InsertClean(a, 0, fill(0xAA, 64))
	// A short scan evicts A (everything is unproven probation at this
	// point) while A's ghost entry is still remembered — the ghost list
	// is bounded, so a long enough scan would flush the history too.
	for i := 100; i < 104; i++ {
		m.InsertClean(key(1, i), 0, fill(1, 64))
	}
	dst := make([]byte, 64)
	if m.ReadSpan(a, 0, dst) {
		t.Fatal("scan failed to evict the victim")
	}
	// Re-admission hits A's ghost entry.
	m.InsertClean(a, 0, fill(0xAB, 64))
	if st := m.Stats(); st.GhostHits != 1 {
		t.Fatalf("ghost_hits = %d, want 1", st.GhostHits)
	}
	// A second, longer scan: A is protected now and must survive it.
	for i := 200; i < 230; i++ {
		m.InsertClean(key(1, i), 0, fill(2, 64))
	}
	if !m.ReadSpan(a, 0, dst) {
		t.Fatal("ghost-promoted block did not survive the scan")
	}
	if !bytes.Equal(dst, fill(0xAB, 64)) {
		t.Fatal("ghost-promoted block has wrong data")
	}
	if err := m.CheckConsistency(); err != nil {
		t.Fatal(err)
	}
}

// TestGhostNoResurrectionOfInvalidatedKeys: invalidation (coherence,
// truncation) must erase ghost history — an invalidated block's past
// reuse is no longer evidence about its bytes.
func TestGhostNoResurrectionOfInvalidatedKeys(t *testing.T) {
	m := ghostMgr(4)
	a := key(1, 0)
	m.InsertClean(a, 0, fill(0xAA, 64))
	for i := 100; i < 104; i++ {
		m.InsertClean(key(1, i), 0, fill(1, 64)) // evict A into the ghost list
	}
	m.Invalidate(a)
	m.InsertClean(a, 0, fill(0xAB, 64))
	if st := m.Stats(); st.GhostHits != 0 {
		t.Fatalf("invalidated key resurrected as a ghost hit (%d)", st.GhostHits)
	}

	// Same through the per-file path.
	b := key(2, 0)
	m.InsertClean(b, 0, fill(0xBB, 64))
	for i := 300; i < 304; i++ {
		m.InsertClean(key(1, i), 0, fill(3, 64))
	}
	m.InvalidateFile(2)
	m.InsertClean(b, 0, fill(0xBC, 64))
	if st := m.Stats(); st.GhostHits != 0 {
		t.Fatalf("InvalidateFile left ghost history behind (%d hits)", st.GhostHits)
	}
	if err := m.CheckConsistency(); err != nil {
		t.Fatal(err)
	}
}

// TestGhostTouchPromotesWorkingSetOverScan: blocks that prove reuse while
// resident are promoted and a pure scan cannot displace them.
func TestGhostTouchPromotesWorkingSetOverScan(t *testing.T) {
	m := ghostMgr(8) // protCap = 8 - 8/4 = 6
	ws := []blockio.BlockKey{key(1, 0), key(1, 1), key(1, 2)}
	for i, k := range ws {
		m.InsertClean(k, 0, fill(byte(0xA0+i), 64))
	}
	touchAll(t, m, ws...) // second access: probation -> protected
	for i := 0; i < 100; i++ {
		m.InsertClean(key(9, i), 0, fill(5, 64))
	}
	dst := make([]byte, 64)
	for i, k := range ws {
		if !m.ReadSpan(k, 0, dst) {
			t.Fatalf("working-set block %v evicted by the scan", k)
		}
		if !bytes.Equal(dst, fill(byte(0xA0+i), 64)) {
			t.Fatalf("working-set block %v corrupted", k)
		}
	}
	if err := m.CheckConsistency(); err != nil {
		t.Fatal(err)
	}
}

// TestGhostAdmissionGateRejectsUnproven: when every evictable frame is
// protected, an unproven clean insert is refused (OutcomeNoSpace) — but a
// write must still be admitted, evicting protected if it has to.
func TestGhostAdmissionGateRejectsUnproven(t *testing.T) {
	m := ghostMgr(4) // protCap = 3
	keys := []blockio.BlockKey{key(1, 0), key(1, 1), key(1, 2)}
	for _, k := range keys {
		m.InsertClean(k, 0, fill(1, 64))
	}
	touchAll(t, m, keys...) // all three protected
	// The last frame is dirty probation: not evictable at all.
	if got := m.WriteSpan(key(1, 3), 0, 0, fill(2, 64), true); got != OutcomeOK {
		t.Fatalf("dirty fill write = %v", got)
	}
	// Unproven newcomer: only protected victims remain -> rejected.
	if got := m.InsertClean(key(2, 0), 0, fill(3, 64)); got != OutcomeNoSpace {
		t.Fatalf("unproven insert over protected set = %v, want OutcomeNoSpace", got)
	}
	st := m.Stats()
	if st.AdmissionRejects == 0 {
		t.Fatal("admission_rejects not counted")
	}
	if st.ProtectedEvictions != 0 {
		t.Fatalf("rejected insert still evicted %d protected blocks", st.ProtectedEvictions)
	}
	// A write overrides the gate (writes may block but not vanish): it
	// takes a protected victim.
	if got := m.WriteSpan(key(2, 1), 0, 0, fill(4, 64), true); got != OutcomeOK {
		t.Fatalf("must-admit write = %v", got)
	}
	if st := m.Stats(); st.ProtectedEvictions != 1 {
		t.Fatalf("protected_evictions = %d, want 1", st.ProtectedEvictions)
	}
	// A must-cache install (per-open hint) also overrides, landing
	// pinned-protected.
	if got := m.InstallFetchedAdmit(key(2, 2), 0, fill(5, 64), AdmitMust, m.WriteStamp(key(2, 2))); got != OutcomeOK {
		t.Fatalf("must-cache install = %v", got)
	}
	if err := m.CheckConsistency(); err != nil {
		t.Fatal(err)
	}
}

// TestGhostProtectedOverflowDemotes: the protected segment is bounded;
// promoting more than protCap blocks demotes the stalest back to
// probation instead of growing without bound (verified indirectly: the
// demoted blocks become evictable again and CheckConsistency enforces
// protList <= protCap).
func TestGhostProtectedOverflowDemotes(t *testing.T) {
	m := ghostMgr(8) // protCap = 6
	var keys []blockio.BlockKey
	for i := 0; i < 8; i++ {
		k := key(1, i)
		keys = append(keys, k)
		m.InsertClean(k, 0, fill(byte(i), 64))
	}
	touchAll(t, m, keys...) // try to promote all 8; only 6 may stay
	if err := m.CheckConsistency(); err != nil {
		t.Fatal(err)
	}
	// The cache is still fully writable: demotion keeps frames evictable.
	for i := 100; i < 104; i++ {
		if got := m.WriteSpan(key(2, i), 0, 0, fill(9, 64), true); got != OutcomeOK {
			t.Fatalf("write after overflow = %v", got)
		}
	}
	if err := m.CheckConsistency(); err != nil {
		t.Fatal(err)
	}
}

func TestGhostPatchResidentAndNoteBypass(t *testing.T) {
	m := ghostMgr(4)
	a := key(1, 0)
	// Dirty resident bytes must win over a bypassed fetch's image.
	if got := m.WriteSpan(a, 0, 0, fill(0xDD, 16), true); got != OutcomeOK {
		t.Fatalf("write = %v", got)
	}
	img := fill(0x11, 64)
	m.PatchResident(a, img, m.WriteStamp(a))
	if !bytes.Equal(img[:16], fill(0xDD, 16)) {
		t.Fatal("PatchResident did not overlay resident dirty bytes")
	}
	if !bytes.Equal(img[16:], fill(0x11, 48)) {
		t.Fatal("PatchResident touched bytes the cache does not hold")
	}
	// A non-resident key leaves the image alone and installs nothing.
	img2 := fill(0x22, 64)
	m.PatchResident(key(3, 7), img2, m.WriteStamp(key(3, 7)))
	if !bytes.Equal(img2, fill(0x22, 64)) {
		t.Fatal("PatchResident modified the image of an uncached key")
	}
	dst := make([]byte, 64)
	if m.ReadSpan(key(3, 7), 0, dst) {
		t.Fatal("PatchResident installed a block")
	}
	m.NoteBypass(a)
	m.NoteBypass(key(3, 7))
	if st := m.Stats(); st.BypassReads != 2 {
		t.Fatalf("bypass_reads = %d, want 2", st.BypassReads)
	}
	if err := m.CheckConsistency(); err != nil {
		t.Fatal(err)
	}
}

// TestGhostStorm mixes a scanner, working-set readers, a writer and an
// invalidator against a sharded ghost-policy manager; run with -race.
// The oracle is CheckConsistency (segment partition, protCap, ghost
// bounds and non-residency) plus working-set data integrity.
func TestGhostStorm(t *testing.T) {
	// The storm has no PRNG of its own; the logged seed staggers the
	// readers' walk phases so different seeds explore different
	// interleavings against the scanner.
	seed := testseed.Base(t)
	m := New(Config{BlockSize: 64, Capacity: 128, Policy: PolicyGhost, Shards: 4})
	ws := make([]blockio.BlockKey, 16)
	for i := range ws {
		ws[i] = key(1, i)
		if got := m.InsertClean(ws[i], 0, fill(byte(i), 64)); got != OutcomeOK {
			t.Fatalf("seed insert = %v", got)
		}
	}
	var wg sync.WaitGroup
	stop := make(chan struct{})
	fail := make(chan string, 8)
	// Working-set readers: re-touch constantly (promotion churn) and
	// verify bytes; a miss is legal (the set can be evicted before it
	// proves itself), silent corruption is not.
	for r := 0; r < 3; r++ {
		wg.Add(1)
		go func(phase int) {
			defer wg.Done()
			dst := make([]byte, 64)
			for n := 0; ; n++ {
				select {
				case <-stop:
					return
				default:
				}
				i := (n + phase) % len(ws)
				if m.ReadSpan(ws[i], 0, dst) && !bytes.Equal(dst, fill(byte(i), 64)) {
					fail <- fmt.Sprintf("working-set block %d corrupted", i)
					return
				}
				if !m.ReadSpan(ws[i], 0, dst) {
					m.InsertClean(ws[i], 0, fill(byte(i), 64)) // re-prove via ghost
				}
			}
		}(r + int(seed%int64(len(ws))))
	}
	// Scanner: a huge one-pass stream of clean inserts.
	wg.Add(1)
	go func() {
		defer wg.Done()
		for n := 0; ; n++ {
			select {
			case <-stop:
				return
			default:
			}
			m.InsertClean(key(9, n%4096), 0, fill(0x55, 64))
		}
	}()
	// Writer: dirties and re-cleans a rotating set (must-admit path).
	wg.Add(1)
	go func() {
		defer wg.Done()
		for n := 0; ; n++ {
			select {
			case <-stop:
				return
			default:
			}
			k := key(7, n%64)
			if m.WriteSpan(k, 0, 0, fill(0x77, 64), true) == OutcomeOK {
				if blocks := m.TakeDirtyOwned(0, 8); len(blocks) > 0 {
					m.FlushDone(blocks)
				}
			}
		}
	}()
	// Invalidator: kills ghost history and residents alike.
	wg.Add(1)
	go func() {
		defer wg.Done()
		for n := 0; ; n++ {
			select {
			case <-stop:
				return
			default:
			}
			m.Invalidate(key(9, n%4096))
			if n%1024 == 0 {
				m.InvalidateFile(7)
			}
		}
	}()
	for i := 0; i < 40; i++ {
		if err := m.CheckConsistency(); err != nil {
			close(stop)
			wg.Wait()
			t.Fatal(err)
		}
		select {
		case msg := <-fail:
			close(stop)
			wg.Wait()
			t.Fatal(msg)
		default:
		}
	}
	close(stop)
	wg.Wait()
	if err := m.CheckConsistency(); err != nil {
		t.Fatal(err)
	}
	st := m.Stats()
	if st.GhostHits == 0 {
		t.Log("storm produced no ghost hits (legal but unusual)")
	}
}
