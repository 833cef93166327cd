package cachemod

import (
	"bytes"
	"sync/atomic"
	"testing"
	"time"

	"pvfscache/internal/blockio"
	"pvfscache/internal/chaos/waitfor"
	"pvfscache/internal/metrics"
	"pvfscache/internal/wire"
)

// raModule builds a bare module sufficient for driving the pattern
// detector directly (no network, no background threads).
func raModule(window int) *Module {
	reg := metrics.NewRegistry()
	return &Module{
		cfg:   Config{ReadaheadWindow: window, Registry: reg},
		ctr:   newCounters(reg),
		files: make(map[blockio.FileID]*fileState),
	}
}

// note feeds one access to file's detector the way maybeReadahead does:
// through the file's record, under its lock.
func note(m *Module, file blockio.FileID, first, last int64) []int64 {
	fs := m.announce(file)
	fs.mu.Lock()
	defer fs.mu.Unlock()
	return m.noteAccess(&fs.ra, first, last)
}

// window collapses a contiguous prediction list to its [lo, hi) range —
// the shape the ascending-scan tests reason in. Gaps are a test failure.
func window(t *testing.T, pred []int64) (lo, hi int64) {
	t.Helper()
	if len(pred) == 0 {
		return 0, 0
	}
	for i := 1; i < len(pred); i++ {
		if pred[i] != pred[i-1]+1 {
			t.Fatalf("prediction %v not contiguous", pred)
		}
	}
	return pred[0], pred[len(pred)-1] + 1
}

func TestNoteAccessWindowAdvances(t *testing.T) {
	m := raModule(8)

	// The first raMinStreak-1 gap-free requests only establish the scan:
	// short chains (common under re-read locality) never prefetch.
	for i := int64(0); i < raMinStreak-1; i++ {
		if pred := note(m, 1, 2*i, 2*i+1); len(pred) != 0 {
			t.Fatalf("request %d prefetched %v", i, pred)
		}
	}
	// Request raMinStreak opens the window after the scan's last block.
	lo, hi := window(t, note(m, 1, 6, 7))
	if lo != 8 || hi != 16 {
		t.Fatalf("window = [%d,%d), want [8,16)", lo, hi)
	}
	// Batched refill: with blocks 8..15 in flight and the scan at 9, more
	// than half the window is still ahead — no new prefetch yet.
	if pred := note(m, 1, 8, 9); len(pred) != 0 {
		t.Fatalf("refilled too early: %v", pred)
	}
	// Once the scan eats through half the window, it tops up in one piece.
	lo, hi = window(t, note(m, 1, 10, 11))
	if lo != 16 || hi != 20 {
		t.Fatalf("refill window = [%d,%d), want [16,20)", lo, hi)
	}
	// A scan that catches up to its window keeps the full depth ahead.
	lo, hi = window(t, note(m, 1, 12, 19))
	if lo != 20 || hi != 28 {
		t.Fatalf("caught-up window = [%d,%d), want [20,28)", lo, hi)
	}
}

func TestNoteAccessResetsOnRandomAccess(t *testing.T) {
	m := raModule(8)
	establish := func(base int64) {
		t.Helper()
		opened := false
		for i := int64(0); i < raMinStreak; i++ {
			if len(note(m, 1, base+2*i, base+2*i+1)) != 0 {
				opened = true
			}
		}
		if !opened {
			t.Fatal("scan not established")
		}
	}
	establish(0)
	// A jump breaks the streak: no prefetch, and the issued high-water
	// clears so a new scan starts from scratch.
	if pred := note(m, 1, 100, 101); len(pred) != 0 {
		t.Fatalf("random access prefetched %v", pred)
	}
	if got := m.cfg.Registry.Counter("module.readahead_resets").Value(); got != 1 {
		t.Fatalf("readahead_resets = %d, want 1", got)
	}
	// Continuing from the jump re-establishes a fresh streak and resumes
	// prefetching from the new position.
	establish(102)
}

func TestNoteAccessPerFileIndependent(t *testing.T) {
	m := raModule(4)
	for i := int64(0); i < raMinStreak-1; i++ {
		note(m, 1, i, i)
		note(m, 2, 50+i, 50+i)
	}
	n := int64(raMinStreak)
	if lo, hi := window(t, note(m, 1, n-1, n-1)); lo != n || hi != n+4 {
		t.Fatalf("file 1 window = [%d,%d), want [%d,%d)", lo, hi, n, n+4)
	}
	if lo, hi := window(t, note(m, 2, 50+n-1, 50+n-1)); lo != 50+n || hi != 50+n+4 {
		t.Fatalf("file 2 window = [%d,%d), want [%d,%d)", lo, hi, 50+n, 50+n+4)
	}
}

// TestNoteAccessUnalignedScan: a scan whose request size is not a block
// multiple re-touches the previous request's tail block each time; that
// overlap must count as continuation, not a reset.
func TestNoteAccessUnalignedScan(t *testing.T) {
	m := raModule(8)
	// 6 KB requests over 4 KB blocks: block ranges [0,1], [1,2], [2,3]...
	opened := false
	for i := int64(0); i < raMinStreak+1; i++ {
		if len(note(m, 1, i, i+1)) != 0 {
			opened = true
		}
	}
	if !opened {
		t.Fatal("unaligned sequential scan never opened a window")
	}
	if got := m.cfg.Registry.Counter("module.readahead_resets").Value(); got != 0 {
		t.Fatalf("unaligned scan counted %d resets", got)
	}
	// A genuine re-read of an old range still resets.
	if pred := note(m, 1, 0, 1); len(pred) != 0 {
		t.Fatal("backward jump prefetched")
	}
}

// TestNoteAccessSubBlockScan: requests smaller than one block revisit
// the same block several times before crossing into the next; the
// revisits must be neutral (no reset) so the streak builds on block
// crossings and the scan still engages readahead.
func TestNoteAccessSubBlockScan(t *testing.T) {
	m := raModule(8)
	opened := false
	// 1 KB reads over 4 KB blocks: four requests per block, block range
	// (b,b) each, advancing one block every fourth request.
	for req := 0; req < 4*(raMinStreak+1); req++ {
		b := int64(req / 4)
		if len(note(m, 1, b, b)) != 0 {
			opened = true
		}
	}
	if !opened {
		t.Fatal("sub-block sequential scan never opened a window")
	}
	if got := m.cfg.Registry.Counter("module.readahead_resets").Value(); got != 0 {
		t.Fatalf("sub-block scan counted %d resets", got)
	}
}

func TestNoteAccessDisabled(t *testing.T) {
	m := raModule(0) // fillDefaults maps negative config here
	for i := int64(0); i < 2*raMinStreak; i++ {
		if pred := note(m, 1, i, i); len(pred) != 0 {
			t.Fatal("disabled readahead still prefetched")
		}
	}
}

// TestNoteAccessStridedScan: the regression test for the detector reset
// bug — the old machine reset to streak=1 on every non-ascending access,
// so a constant-stride scan (e.g. reading one column of a row-major
// matrix) could never establish itself. Strides now share the streak
// machine: the streak builds delta by delta and predictions replay the
// stride ahead of the scan.
func TestNoteAccessStridedScan(t *testing.T) {
	m := raModule(8)
	const stride = 10
	// Single-block reads at 0, 10, 20, ...: the second access seeds the
	// stride (two points), so the streak hits raMinStreak one access
	// earlier than an ascending scan's would.
	var pred []int64
	for i := int64(0); i < raMinStreak; i++ {
		pred = note(m, 1, i*stride, i*stride)
		if i+2 <= raMinStreak && len(pred) != 0 {
			t.Fatalf("access %d predicted %v before the streak was proven", i, pred)
		}
	}
	if len(pred) == 0 {
		t.Fatal("strided scan never predicted")
	}
	last := (raMinStreak - 1) * int64(stride)
	for i, idx := range pred {
		if want := last + int64(i+1)*stride; idx != want {
			t.Fatalf("prediction[%d] = %d, want %d (pred %v)", i, idx, want, pred)
		}
	}
	if got := m.cfg.Registry.Counter("module.readahead_resets").Value(); got != 0 {
		t.Fatalf("strided scan counted %d resets", got)
	}
	// Steady state: each further access predicts one stride step beyond
	// the farthest already issued — no re-predictions, no stalls.
	next := note(m, 1, raMinStreak*stride, raMinStreak*stride)
	if len(next) != 1 || next[0] != pred[len(pred)-1]+stride {
		t.Fatalf("steady-state prediction = %v, want [%d]", next, pred[len(pred)-1]+stride)
	}
}

// TestNoteAccessBackwardScan: a descending scan is a strided scan with a
// negative delta. Predictions run toward the file's front, stop at block
// zero, and come back sorted ascending (the fetch path requires it).
func TestNoteAccessBackwardScan(t *testing.T) {
	m := raModule(4)
	// Single-block reads at 100, 99, 98, 97: stride -1.
	var pred []int64
	for i := int64(0); i < raMinStreak; i++ {
		pred = note(m, 1, 100-i, 100-i)
	}
	if len(pred) == 0 {
		t.Fatal("backward scan never predicted")
	}
	for i := 1; i < len(pred); i++ {
		if pred[i] <= pred[i-1] {
			t.Fatalf("backward predictions not sorted ascending: %v", pred)
		}
	}
	lowest := 100 - (raMinStreak - 1) // the scan's current position
	for _, idx := range pred {
		if idx >= int64(lowest) {
			t.Fatalf("prediction %d not ahead of the backward scan (at %d)", idx, lowest)
		}
	}
	if got := m.cfg.Registry.Counter("module.readahead_resets").Value(); got != 0 {
		t.Fatalf("backward scan counted %d resets", got)
	}

	// Near the file's front the predictions clip at block zero instead of
	// going negative.
	m2 := raModule(4)
	var p2 []int64
	for i := int64(0); i < raMinStreak; i++ {
		p2 = note(m2, 1, raMinStreak-1-i, raMinStreak-1-i)
	}
	for _, idx := range p2 {
		if idx < 0 {
			t.Fatalf("backward scan predicted negative block %d (%v)", idx, p2)
		}
	}
}

// TestNoteAccessStridedToAscending: a pattern change from strided to
// dense ascending re-proves itself through the shared machine rather
// than being stuck with stale stride evidence.
func TestNoteAccessStridedToAscending(t *testing.T) {
	m := raModule(8)
	for i := int64(0); i < raMinStreak; i++ {
		note(m, 1, i*7, i*7)
	}
	base := int64((raMinStreak - 1) * 7)
	opened := false
	// The first access after the strided run continues densely; the
	// ascending streak must rebuild and eventually predict again.
	for i := int64(1); i < raMinStreak+2; i++ {
		if len(note(m, 1, base+i, base+i)) != 0 {
			opened = true
		}
	}
	if !opened {
		t.Fatal("ascending continuation after a strided run never predicted")
	}
}

// TestStreamStreak: the bypass decision's input tracks the detector.
func TestStreamStreak(t *testing.T) {
	m := raModule(8)
	m.cfg.BypassThreshold = raMinStreak
	if got := m.announce(1).streak(); got != 0 {
		t.Fatalf("streak = %d before any access", got)
	}
	for i := int64(0); i < raMinStreak; i++ {
		note(m, 1, i, i)
	}
	if got := m.announce(1).streak(); got < raMinStreak {
		t.Fatalf("streak = %d after %d ascending reads", got, raMinStreak)
	}
	if mode, streaming := m.readAdmitMode(m.file(1)); mode != admitNever || !streaming {
		t.Fatalf("admit mode = %v over threshold, want bypass", mode)
	}
	// A random jump (delta seeds a new stride candidate) drops below the
	// threshold again.
	note(m, 1, 1000, 1000)
	if mode, _ := m.readAdmitMode(m.file(1)); mode != admitDefault {
		t.Fatalf("admit mode = %v after pattern break, want default", mode)
	}
}

// TestNoteAccessDetectorRunsForBypass: with readahead disabled but a
// bypass threshold set, the detector still tracks streaks (it must — the
// bypass keys on them) while predicting nothing.
func TestNoteAccessDetectorRunsForBypass(t *testing.T) {
	m := raModule(0)
	m.cfg.BypassThreshold = raMinStreak
	for i := int64(0); i < 2*raMinStreak; i++ {
		if pred := note(m, 1, i, i); len(pred) != 0 {
			t.Fatal("disabled readahead still predicted")
		}
	}
	if got := m.announce(1).streak(); got < raMinStreak {
		t.Fatalf("streak = %d, want >= %d with bypass enabled", got, raMinStreak)
	}
}

// waitCounter polls a counter until it reaches want (prefetch is
// asynchronous by design).
func waitCounter(t *testing.T, reg *metrics.Registry, name string, want int64) {
	t.Helper()
	waitfor.Until(t, 5*time.Second, func() bool {
		return reg.Counter(name).Value() >= want
	}, "%s reaching %d (at %d)", name, want, reg.Counter(name).Value())
}

// hintAll routes every block of the file to iod 0 (one strip covering the
// whole test file), mirroring what libpvfs would announce.
func hintAll(tr *CachedTransport, file blockio.FileID) {
	tr.StripeHint(file, wire.FileMeta{Size: 1 << 20, Base: 0, PCount: 1, SSize: 1 << 20}, 2)
}

// readSeq performs one application-level read the way libpvfs does:
// report the whole request to the sequential detector, then send the
// piece. It returns the bytes read.
func readSeq(t *testing.T, tr *CachedTransport, file blockio.FileID, off, length int64) []byte {
	t.Helper()
	tr.NoteRead(file, off, length)
	return readAt(t, tr, 0, file, off, length)
}

func TestReadaheadPrefetchesSequentialScan(t *testing.T) {
	r := newRig(t, nil)
	const file = 30
	data := bytes.Repeat([]byte{0x5A}, 16*4096)
	r.seed(0, file, 0, data)

	tr := r.mod.NewTransport()
	hintAll(tr, file)

	// raMinStreak gap-free ascending reads establish the scan; the last
	// one triggers a prefetch of the next 8 blocks (4..11).
	for i := int64(0); i < raMinStreak; i++ {
		readSeq(t, tr, file, i*4096, 4096)
	}
	waitCounter(t, r.reg, "module.prefetch_blocks", 8)

	// The scan's continuation is served entirely from prefetched blocks:
	// no demand fetch reaches the network, and every block counts as a
	// prefetch hit.
	before := r.reg.Snapshot()
	if !bytes.Equal(readSeq(t, tr, file, raMinStreak*4096, 8*4096), data[raMinStreak*4096:(raMinStreak+8)*4096]) {
		t.Fatal("prefetched data wrong")
	}
	d := r.reg.Snapshot().Diff(before)
	if d["module.read_full_hits"] != 1 {
		t.Fatalf("read_full_hits = %d, want 1 (no demand fetch)", d["module.read_full_hits"])
	}
	if d["module.prefetch_hits"] != 8 {
		t.Fatalf("prefetch_hits = %d, want 8", d["module.prefetch_hits"])
	}
	if d["module.read_subrequests"] != 0 {
		t.Fatalf("read_subrequests = %d, want 0", d["module.read_subrequests"])
	}
}

func TestReadaheadResetsOnRandomAccessLive(t *testing.T) {
	r := newRig(t, nil)
	const file = 31
	data := bytes.Repeat([]byte{0x11}, 64*4096)
	r.seed(0, file, 0, data)

	tr := r.mod.NewTransport()
	hintAll(tr, file)

	for i := int64(0); i < raMinStreak; i++ {
		readSeq(t, tr, file, i*4096, 4096)
	}
	waitCounter(t, r.reg, "module.prefetch_issued", 1)

	issued := r.reg.Counter("module.prefetch_issued").Value()
	// A random jump must not prefetch.
	readSeq(t, tr, file, 40*4096, 4096)
	if got := r.reg.Counter("module.readahead_resets").Value(); got != 1 {
		t.Fatalf("readahead_resets = %d, want 1", got)
	}
	if got := r.reg.Counter("module.prefetch_issued").Value(); got != issued {
		t.Fatalf("random access issued a prefetch (%d -> %d)", issued, got)
	}
}

func TestReadaheadNeedsStripeHint(t *testing.T) {
	r := newRig(t, nil)
	const file = 32
	r.seed(0, file, 0, bytes.Repeat([]byte{0x22}, 16*4096))

	// No StripeHint: the module cannot know which iod holds upcoming
	// blocks, so it must not prefetch (a misrouted prefetch would cache
	// another daemon's sparse zeros as data).
	tr := r.mod.NewTransport()
	for i := int64(0); i < raMinStreak+1; i++ {
		readSeq(t, tr, file, i*4096, 4096)
	}
	waitfor.Stable(t, 20*time.Millisecond, func() bool {
		return r.reg.Counter("module.prefetch_issued").Value() == 0
	}, "no prefetch issued without a stripe hint")
}

func TestReadaheadDisabledByConfig(t *testing.T) {
	r := newRig(t, func(c *Config) { c.ReadaheadWindow = -1 })
	const file = 33
	r.seed(0, file, 0, bytes.Repeat([]byte{0x33}, 16*4096))

	tr := r.mod.NewTransport()
	hintAll(tr, file)
	for i := int64(0); i < raMinStreak+1; i++ {
		readSeq(t, tr, file, i*4096, 4096)
	}
	waitfor.Stable(t, 20*time.Millisecond, func() bool {
		return r.reg.Counter("module.prefetch_issued").Value() == 0
	}, "no prefetch issued with readahead disabled")
}

// TestPrefetchJoinCountsAsHit covers the in-flight case: a demand read
// arriving while a prefetch is still on the wire joins it rather than
// fetching again, and still counts as a prefetch hit. The prefetch's
// fetch-table entry is staged by hand so the interleaving is
// deterministic: claim, demand read joins, prefetch publishes.
func TestPrefetchJoinCountsAsHit(t *testing.T) {
	r := newRig(t, nil)
	const file = 34
	data := bytes.Repeat([]byte{0x44}, 4096)
	r.seed(0, file, 0, data)

	tr := r.mod.NewTransport()
	key := blockio.BlockKey{File: file, Index: 0}
	st := &fetchState{done: make(chan struct{}), prefetch: true}
	r.mod.fetchMu.Lock()
	r.mod.fetches[key] = st
	r.mod.fetchMu.Unlock()

	// The demand read finds the in-flight prefetch and becomes a join.
	id, got, err := startRead(tr, 0, file, 0, 4096)
	if err != nil {
		t.Fatal(err)
	}
	// Publish exactly as prefetchIOD does.
	block := make([]byte, 4096)
	copy(block, data)
	r.mod.buf.InsertClean(key, 0, block)
	st.data = block
	r.mod.fetchMu.Lock()
	delete(r.mod.fetches, key)
	r.mod.fetchMu.Unlock()
	r.mod.markPrefetched(key)
	close(st.done)

	if status, err := finishRead(tr, id); err != nil || status != wire.StatusOK {
		t.Fatalf("joined read: status %v, err %v", status, err)
	}
	if !bytes.Equal(got, data) {
		t.Fatal("joined data wrong")
	}
	if got := r.reg.Counter("module.prefetch_hits").Value(); got != 1 {
		t.Fatalf("prefetch_hits = %d, want 1", got)
	}
	if got := r.reg.Counter("module.fetch_joins").Value(); got != 1 {
		t.Fatalf("fetch_joins = %d, want 1", got)
	}
}

// TestDemandInstallDropsStalePrefetchMark: the module is not told about
// evictions, so a prefetched block that leaves the cache unhit keeps its
// mark. When a demand fetch re-installs the block, the hits that follow
// are demand hits and must not count in module.prefetch_hits.
func TestDemandInstallDropsStalePrefetchMark(t *testing.T) {
	const file = 35
	r := newFetchRig(t, false, func(c *Config) { c.Buffer.Capacity = 8 })
	r.iods[0].image = pattern(1)
	key := blockio.BlockKey{File: file, Index: 0}
	hint := stripeHint{meta: wire.FileMeta{Size: 1 << 20, PCount: 1, SSize: 1 << 20}, total: 2}
	r.mod.prefetchRange(file, hint, []int64{0}, admitDefault)
	waitCounter(t, r.reg, "module.prefetch_blocks", 1)
	waitfor.Until(t, 5*time.Second, func() bool { return len(r.claims()) == 0 }, "prefetch settled")
	// Evict by replacement: push clean filler through the cache.
	for i := int64(0); r.mod.buf.Contains(key, 0, fakeBS) && i < 64; i++ {
		r.mod.buf.InsertClean(blockio.BlockKey{File: file + 1, Index: i}, 0, make([]byte, fakeBS))
	}
	if r.mod.buf.Contains(key, 0, fakeBS) {
		t.Fatal("prefetched block was not evicted")
	}
	tr := r.mod.NewTransport()
	for i := 0; i < 2; i++ { // a demand miss, then a hit on what it installed
		if !bytes.Equal(readAt(t, tr, 0, file, 0, fakeBS), r.iods[0].image) {
			t.Fatalf("read %d wrong bytes", i)
		}
	}
	if got := r.reg.Counter("module.prefetch_hits").Value(); got != 0 {
		t.Fatalf("prefetch_hits = %d, want 0: the block was demand-fetched", got)
	}
}

// eofRig is a fetchRig whose iod 0 holds nblocks blocks of one file, hinted
// at exactly that size, and records the farthest byte any request asked for.
func eofRig(t *testing.T, file blockio.FileID, size int64) (r *fetchRig, tr *CachedTransport, farthest *atomic.Int64, reads *atomic.Int64) {
	t.Helper()
	r = newFetchRig(t, false, nil)
	r.iods[0].image = pattern(int(blockio.Blocks(size, fakeBS)))[:size]
	farthest, reads = new(atomic.Int64), new(atomic.Int64)
	r.iods[0].script = func(req, honest wire.Message) wire.Message {
		if q, ok := req.(*wire.ReadBlocks); ok {
			reads.Add(1)
			for _, e := range q.Exts {
				farthest.Store(max(farthest.Load(), e.Offset+e.Length))
			}
		}
		return honest
	}
	tr = r.mod.NewTransport()
	tr.StripeHint(file, wire.FileMeta{Size: size, PCount: 1, SSize: 1 << 20}, 2)
	return r, tr, farthest, reads
}

// TestReadaheadStridePastEOFFetchesNothing is ROADMAP item 2(e): two random
// readers of one warm file hand the shared detector a repeated delta now and
// then, the replayed stride runs off the file, and the prefetcher used to
// claim and fetch blocks that do not exist. Predictions at or past the
// hinted size are dropped, so a warm file sees no iod read at all.
func TestReadaheadStridePastEOFFetchesNothing(t *testing.T) {
	const file, nblocks = 40, 16
	r, tr, _, reads := eofRig(t, file, nblocks*fakeBS)
	readAt(t, tr, 0, file, 0, nblocks*fakeBS) // warm
	warm := reads.Load()
	// Equal deltas of 3 blocks: the fourth request establishes the stride
	// and replays it a window ahead — 15 (resident), then 18, 21, … past
	// block 15, the last.
	for _, blk := range []int64{3, 6, 9, 12} {
		readSeq(t, tr, file, blk*fakeBS, fakeBS)
	}
	waitfor.Stable(t, 20*time.Millisecond, func() bool { return reads.Load() == warm },
		"no iod read for a stride replayed past EOF on a warm file")
	if n := len(r.claims()); n != 0 {
		t.Fatalf("%d claims left for blocks past EOF", n)
	}
	if got := r.reg.Counter("module.prefetch_issued").Value(); got != 0 {
		t.Fatalf("prefetch_issued = %d, want 0", got)
	}
}

// TestReadaheadScanStopsAtEOF: the bound must not cost the last block. An
// ascending scan near the end of a file whose last block is partial
// prefetches up to and including that block and asks the iod for nothing
// past it; the scan's tail is then served from the cache.
func TestReadaheadScanStopsAtEOF(t *testing.T) {
	const file, nblocks = 41, 10
	const size = nblocks*fakeBS - 100
	r, tr, farthest, reads := eofRig(t, file, size)
	for i := int64(0); i < raMinStreak; i++ {
		readSeq(t, tr, file, i*fakeBS, fakeBS)
	}
	// The window would be blocks 4..11; 4..9 exist.
	waitCounter(t, r.reg, "module.prefetch_blocks", nblocks-raMinStreak)
	waitfor.Until(t, 5*time.Second, func() bool { return len(r.claims()) == 0 }, "prefetch settled")
	if got := farthest.Load(); got > nblocks*fakeBS {
		t.Fatalf("a request reached byte %d, past the last block's end %d", got, nblocks*fakeBS)
	}
	before := reads.Load()
	if !bytes.Equal(readSeq(t, tr, file, raMinStreak*fakeBS, size-raMinStreak*fakeBS), r.iods[0].image[raMinStreak*fakeBS:]) {
		t.Fatal("scan tail served wrong bytes")
	}
	if reads.Load() != before {
		t.Fatal("scan tail went to the iod: the last block was not prefetched")
	}
}
