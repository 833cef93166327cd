package cachemod

// Sequential readahead: the module watches each file's application-level
// read stream — reported by libpvfs through pvfs.ReadPatternHinter, the
// only layer that knows where one request ends and the next begins; the
// pieces of a single striped read would masquerade as a scan at the
// transport. Once requests arrive in ascending, gap-free order the
// prefetcher asynchronously pre-issues the next ReadaheadWindow blocks
// through the same vectored ReadBlocks path the miss engine uses,
// grouped into one request per iod. Prefetched transfers register in the
// shared fetch table, so a demand read arriving while the prefetch is in
// flight joins it, and a demand read arriving after it completes hits
// the cache.
//
// Striping makes this subtle: the module sits below libpvfs, so block
// index arithmetic alone cannot tell which iod stores an upcoming block —
// and an iod served a read for a range it does not hold would answer with
// zeros from the sparse hole in its local store, which must never enter
// the cache as real data. The prefetcher therefore only acts on files
// whose striping geometry libpvfs has hinted (pvfs.StripeHinter →
// CachedTransport.StripeHint) and maps every candidate block to its
// owning iod with the same round-robin arithmetic libpvfs uses.

import (
	"sort"

	"pvfscache/internal/blockio"
	"pvfscache/internal/cachemod/buffer"
	"pvfscache/internal/wire"
)

// raMinStreak is how many pattern-consistent requests must be observed on
// a file before prefetching starts. High enough that workloads which only
// occasionally chain two requests (e.g. 50% locality re-read patterns)
// never engage the prefetcher — prefetching into a cache that locality is
// already using well evicts exactly the blocks about to be re-read.
const raMinStreak = 4

// stripeHint is a file's striping geometry as learned from libpvfs.
type stripeHint struct {
	meta  wire.FileMeta
	total int
}

// Detected stream kinds. Dense ascending scans keep their own kind (their
// window logic tracks coverage, not starts); everything with a constant
// start-to-start delta — forward with gaps, or backward (negative stride)
// — shares raStrided.
const (
	raNone    = iota // no established pattern
	raAscend         // dense ascending scan
	raStrided        // constant-stride scan; stride < 0 is a backward scan
)

// raState tracks one file's access-pattern detector: the shared streak
// machine behind both readahead and the streaming-bypass decision.
type raState struct {
	next   int64 // block index a continuing dense ascending scan would start at
	streak int   // consecutive requests following the detected pattern
	issued int64 // raAscend: exclusive high-water mark of blocks already prefetched

	kind      int   // raNone, raAscend or raStrided
	stride    int64 // raStrided: the constant start-to-start delta
	prevFirst int64 // previous request's first block
	farthest  int64 // raStrided: farthest predicted start already prefetched
	hasFar    bool  // farthest is meaningful
}

// SetStripeHint records a file's striping geometry so the prefetcher can
// route block fetches to the right iod. libpvfs calls it (through
// CachedTransport.StripeHint) whenever it opens or refreshes a file.
func (m *Module) SetStripeHint(file blockio.FileID, meta wire.FileMeta, totalIODs int) {
	if meta.SSize == 0 || meta.PCount == 0 || totalIODs <= 0 {
		return // unusable geometry; leave the file unprefetchable
	}
	m.stripeMu.Lock()
	// Bounded: hints are re-learned on the next open/refresh, so resetting
	// a full table only pauses prefetch briefly instead of letting a
	// many-file workload grow it forever.
	if len(m.stripes) >= maxHintedFiles {
		m.stripes = make(map[blockio.FileID]stripeHint)
	}
	m.stripes[file] = stripeHint{meta: meta, total: totalIODs}
	m.stripeMu.Unlock()
}

// maxHintedFiles bounds the stripe-hint and scan-detector tables; both
// rebuild organically (hints on open/refresh, streaks within a few
// requests), so eviction by reset costs little.
const maxHintedFiles = 4096

// noteAccess feeds one read request's block range [first, last] to the
// file's pattern detector and returns the sorted block indices to
// prefetch now (empty when the access is not part of an established
// scan, or when the window is already in flight). The detector runs even
// with prefetching disabled when the streaming bypass needs its streaks.
func (m *Module) noteAccess(file blockio.FileID, first, last int64) []int64 {
	if m.cfg.ReadaheadWindow == 0 && m.cfg.BypassThreshold <= 0 {
		return nil
	}
	m.raMu.Lock()
	defer m.raMu.Unlock()
	st := m.ra[file]
	if st == nil {
		if len(m.ra) >= maxHintedFiles {
			m.ra = make(map[blockio.FileID]*raState)
		}
		st = &raState{}
		m.ra[file] = st
		st.next = last + 1
		st.streak = 1
		st.prevFirst = first
		return nil
	}
	// A continuation starts exactly where the scan left off, or one block
	// earlier with new ground covered: an unaligned scan (request size
	// not a block multiple) re-touches the previous request's tail block
	// every time and must not read as random. A request entirely inside
	// the tail block (a sub-block-request scan still filling it) is
	// neutral — neither progress nor a reset — so 1 KB sequential reads
	// build their streak on block crossings instead of resetting on
	// every request. Anything else is judged by its start-to-start delta:
	// a delta repeating the established stride continues a strided or
	// backward scan, and any nonzero delta seeds a new strided candidate
	// at streak 2 (two points define a stride) instead of collapsing to 1
	// — the old detector's bug, which made every non-ascending pattern
	// permanently undetectable.
	switch {
	case first == st.next || (first == st.next-1 && last >= st.next):
		if st.kind == raStrided {
			// Pattern change: stride evidence does not carry over, but
			// the previous request and this one already form a pair.
			st.streak = 1
			st.issued = 0
			st.hasFar = false
		}
		st.kind = raAscend
		st.streak++
		st.next = last + 1
	case first >= st.next-1 && last < st.next:
		return nil // neutral: still inside the covered tail block
	default:
		delta := first - st.prevFirst
		if st.kind == raStrided && delta == st.stride {
			st.streak++
			st.next = last + 1
		} else {
			if st.streak >= raMinStreak {
				m.cfg.Registry.Counter("module.readahead_resets").Inc()
			}
			st.issued = 0
			st.hasFar = false
			st.next = last + 1
			if delta != 0 {
				st.kind = raStrided
				st.stride = delta
				st.streak = 2
			} else {
				st.kind = raNone
				st.streak = 1
			}
		}
	}
	st.prevFirst = first
	if st.streak < raMinStreak || m.cfg.ReadaheadWindow == 0 {
		return nil
	}
	window := int64(m.cfg.ReadaheadWindow)
	if st.kind == raAscend {
		// Batched refill: issue nothing while more than half the window
		// is still ahead of the scan, then top the window up in one
		// piece. One prefetch round trip thus covers several demand
		// requests instead of trickling a few blocks per request.
		if remaining := st.issued - (last + 1); remaining > window/2 {
			return nil
		}
		lo := last + 1
		if st.issued > lo {
			lo = st.issued
		}
		hi := last + 1 + window
		if hi <= lo {
			return nil
		}
		st.issued = hi
		pred := make([]int64, 0, hi-lo)
		for idx := lo; idx < hi; idx++ {
			pred = append(pred, idx)
		}
		return pred
	}
	// Strided or backward: replay the stride ahead of the scan, one
	// request's span per step, up to a window's worth of blocks. farthest
	// remembers the last predicted start so the steady state issues one
	// step per access instead of re-predicting the whole window.
	span := last - first + 1
	if span <= 0 {
		return nil
	}
	maxSteps := window / span
	if maxSteps < 1 {
		maxSteps = 1
	}
	var pred []int64
	for k := int64(1); k <= maxSteps; k++ {
		start := first + k*st.stride
		if start < 0 {
			break // a backward scan ran off the file's front
		}
		if st.hasFar &&
			((st.stride > 0 && start <= st.farthest) ||
				(st.stride < 0 && start >= st.farthest)) {
			continue // already predicted on an earlier access
		}
		for j := int64(0); j < span; j++ {
			pred = append(pred, start+j)
		}
		st.farthest = start
		st.hasFar = true
	}
	if st.stride < 0 {
		// Backward predictions come out descending; the per-iod extent
		// grouping downstream assumes ascending indices.
		sort.Slice(pred, func(i, j int) bool { return pred[i] < pred[j] })
	}
	return pred
}

// streamStreak reports the current detector streak for a file — the
// bypass decision's input. Zero when the file has no established pattern.
func (m *Module) streamStreak(file blockio.FileID) int {
	m.raMu.Lock()
	st := m.ra[file]
	streak := 0
	if st != nil && st.kind != raNone {
		streak = st.streak
	}
	m.raMu.Unlock()
	return streak
}

// maybeReadahead runs the detector for one application-level read (via
// CachedTransport.NoteRead) and launches the prefetcher when a scan is
// established. The window's blocks are CLAIMED in the fetch table
// synchronously, on the caller's thread, before the demand read proceeds
// — if the claims were left to a goroutine, a fast scan could race past
// the window before the goroutine ran, find nothing claimed, duplicate
// every fetch, and starve the prefetcher permanently. With the claims in
// place, a demand read that catches up simply joins the in-flight
// prefetch. Only the network round trips run asynchronously.
func (m *Module) maybeReadahead(file blockio.FileID, first, last int64) {
	pred := m.noteAccess(file, first, last)
	if len(pred) == 0 {
		return
	}
	m.stripeMu.Lock()
	hint, ok := m.stripes[file]
	m.stripeMu.Unlock()
	if !ok {
		return // no geometry: cannot route blocks to iods safely
	}
	m.prefetchRange(file, hint, pred)
}

// iodForBlock maps one block to the iod storing it, or -1 when the block
// does not map cleanly to a single daemon (strip size not a multiple of
// the block size, or corrupt geometry). Same round-robin arithmetic as
// pvfs.PiecesFor, specialized to one block so the per-refill routing
// loop stays allocation-free.
func (m *Module) iodForBlock(hint stripeHint, idx int64) int {
	bs := int64(m.buf.BlockSize())
	ssize := int64(hint.meta.SSize)
	pcount := int64(hint.meta.PCount)
	if ssize <= 0 || pcount <= 0 || ssize%bs != 0 {
		return -1 // a block straddling strips has no single owner
	}
	strip := idx * bs / ssize
	iod := int((int64(hint.meta.Base) + strip%pcount) % int64(hint.total))
	if iod < 0 || iod >= len(m.data) {
		return -1
	}
	return iod
}

// prefetchRange claims the uncached, un-inflight blocks of the predicted
// index list (sorted ascending, duplicates tolerated) synchronously,
// groups them per owning iod, and issues one asynchronous vectored read
// per iod. Prefetches inherit the file's admission mode: a stream being
// bypassed keeps its readahead pipelining, but the prefetched blocks are
// served around the cache like its demand reads.
func (m *Module) prefetchRange(file blockio.FileID, hint stripeHint, idxs []int64) {
	bs := m.buf.BlockSize()
	mode := m.readAdmitMode(file)
	type claim struct {
		key blockio.BlockKey
		st  *fetchState
	}
	perIOD := make(map[int][]claim)
	for _, idx := range idxs {
		iod := m.iodForBlock(hint, idx)
		if iod < 0 {
			continue
		}
		key := blockio.BlockKey{File: file, Index: idx}
		if m.buf.Contains(key, 0, bs) {
			continue
		}
		// Stamp before registration: a write applied after this point is
		// detected at install time (see fetchState.stamp).
		stamp := m.buf.WriteStamp(key)
		m.fetchMu.Lock()
		if m.fetches[key] != nil {
			m.fetchMu.Unlock()
			continue // a demand fetch or earlier prefetch owns it
		}
		st := newFetchState(true)
		st.stamp = stamp
		m.fetches[key] = st
		m.fetchMu.Unlock()
		perIOD[iod] = append(perIOD[iod], claim{key: key, st: st})
	}
	// One asynchronous request per iod, chunked so no request's extents
	// can exceed what a response frame carries (large windows over large
	// blocks would otherwise be rejected whole by the iod).
	maxBlocks := maxFetchBlocks(bs)
	for iod, claims := range perIOD {
		for start := 0; start < len(claims); start += maxBlocks {
			end := start + maxBlocks
			if end > len(claims) {
				end = len(claims)
			}
			chunk := claims[start:end]
			keys := make([]blockio.BlockKey, len(chunk))
			states := make([]*fetchState, len(chunk))
			for i, c := range chunk {
				keys[i] = c.key
				states[i] = c.st
			}
			go m.prefetchIOD(iod, file, keys, states, mode)
		}
	}
}

// prefetchIOD fetches the claimed blocks (ascending, possibly with gaps)
// from one iod in a single vectored round trip and installs the results
// (or, for a bypassed stream, serves them to joiners without admission).
func (m *Module) prefetchIOD(iod int, file blockio.FileID, keys []blockio.BlockKey, states []*fetchState, mode admitMode) {
	bs := m.buf.BlockSize()
	// Group consecutive block indices into extents.
	var exts []wire.ReadExtent
	runStart := 0
	flush := func(end int) {
		exts = append(exts, wire.ReadExtent{
			Offset: keys[runStart].Index * int64(bs),
			Length: int64(end-runStart) * int64(bs),
		})
		runStart = end
	}
	for i := 1; i < len(keys); i++ {
		if keys[i].Index != keys[i-1].Index+1 {
			flush(i)
		}
	}
	flush(len(keys))

	publishFail := func(err error) {
		m.fetchMu.Lock()
		for i, key := range keys {
			if m.fetches[key] == states[i] {
				delete(m.fetches, key)
			}
			states[i].err = err
		}
		m.fetchMu.Unlock()
		for _, st := range states {
			close(st.done)
			st.decref() // the prefetcher's hold; no data was published
		}
	}

	res := m.data[iod].Call(&wire.ReadBlocks{
		Client: m.cfg.ClientID,
		File:   file,
		Track:  mode != admitNever, // bypassed blocks never enter the cache
		Exts:   exts,
	})
	if res.Err != nil {
		publishFail(res.Err)
		return
	}
	defer res.Release() // response payload is copied per block below
	rr, ok := res.Msg.(*wire.ReadBlocksResp)
	if !ok || rr.Status != wire.StatusOK || len(rr.Lens) != len(exts) {
		publishFail(wire.ErrBadRequest)
		return
	}
	m.cfg.Registry.Counter("module.prefetch_issued").Inc()

	// Walk the packed response extent by extent, block by block. An
	// overlong per-extent length (hostile iod; decode only checks that
	// the lengths tile Data) would shift later extents' bytes into the
	// wrong blocks — reject the whole response instead.
	for ei, ext := range exts {
		if int64(rr.Lens[ei]) > ext.Length {
			publishFail(wire.ErrBadRequest)
			return
		}
	}
	data := rr.Data
	ki := 0
	for ei, ext := range exts {
		served := int(rr.Lens[ei])
		nblocks := int(ext.Length) / bs
		for j := 0; j < nblocks; j++ {
			key, st := keys[ki], states[ki]
			ki++
			start := j * bs
			if start >= served {
				// Nothing stored here: do not cache. A genuine hole
				// would be safe to cache as zeros, but a response this
				// short can also mean the extent fell outside the data
				// the iod holds, so drop it and let a demand read
				// decide.
				m.fetchMu.Lock()
				if m.fetches[key] == st {
					delete(m.fetches, key)
				}
				m.fetchMu.Unlock()
				close(st.done)
				st.decref()
				continue
			}
			// One copy: leased response frame to a pooled whole-block
			// buffer, which backs the cache install, any fetch joiners,
			// and the readahead mark — and returns to the pool when the
			// last of them lets go.
			blockData, mem := lease(&m.blocks, bs)
			n := copy(blockData, data[start:served])
			zeroFill(blockData[n:])
			var oc buffer.Outcome
			switch mode {
			case admitNever:
				// Read-around: the stream's blocks never enter the
				// cache, but any newer resident bytes still outrank the
				// fetched image before joiners see it.
				oc = m.buf.PatchResident(key, blockData, st.stamp)
			case admitMust:
				oc = m.buf.InstallFetchedAdmit(key, iod, blockData, true, st.stamp)
			default:
				// resident bytes outrank the prefetch
				oc = m.buf.InstallFetched(key, iod, blockData, st.stamp)
			}
			if oc == buffer.OutcomeStale {
				// The block was written while the prefetch was in flight
				// (and the write may already be flushed and evicted): the
				// image must not be installed or served. A prefetch is
				// speculative — drop it rather than re-read; joiners see
				// no data and fall back to their own synchronous fetch,
				// and a demand miss re-reads the current store.
				m.cfg.Registry.Counter("module.prefetch_stale_drops").Inc()
				m.fetchMu.Lock()
				if m.fetches[key] == st {
					delete(m.fetches, key)
				}
				m.fetchMu.Unlock()
				close(st.done)
				st.decref()
				mem.release()
				continue
			}
			st.finalStamp = st.stamp
			m.publishFetched(st, key, blockData, mem)
			if mode != admitNever {
				m.raMu.Lock()
				// The marks are accounting only; evicted-before-hit
				// blocks leave stale entries behind, so reset rather
				// than grow without bound.
				if len(m.prefetched) >= 2*m.buf.Capacity() {
					m.prefetched = make(map[blockio.BlockKey]struct{})
					m.prefetchMarks.Store(0)
				}
				if _, dup := m.prefetched[key]; !dup {
					m.prefetched[key] = struct{}{}
					m.prefetchMarks.Add(1)
				}
				m.raMu.Unlock()
			}
			st.decref()   // the prefetcher's hold; joiners keep the block alive
			mem.release() // the creator's hold
			m.cfg.Registry.Counter("module.prefetch_blocks").Inc()
		}
		data = data[served:]
	}
}

// notePrefetchHit counts a demand access served by a prefetched block
// (once per block: the mark clears on first use). It runs on every
// cache-hit span, so the no-marks case — every workload that is not
// mid-scan — must not touch the shared mutex. The racy fast-path load is
// safe because the marks are accounting only.
func (m *Module) notePrefetchHit(key blockio.BlockKey) {
	if m.prefetchMarks.Load() == 0 {
		return
	}
	m.raMu.Lock()
	_, ok := m.prefetched[key]
	if ok {
		delete(m.prefetched, key)
		m.prefetchMarks.Add(-1)
	}
	m.raMu.Unlock()
	if ok {
		m.cfg.Registry.Counter("module.prefetch_hits").Inc()
	}
}

// dropPrefetchMark forgets a block's prefetched mark (invalidation).
func (m *Module) dropPrefetchMark(key blockio.BlockKey) {
	if m.prefetchMarks.Load() == 0 {
		return
	}
	m.raMu.Lock()
	if _, ok := m.prefetched[key]; ok {
		delete(m.prefetched, key)
		m.prefetchMarks.Add(-1)
	}
	m.raMu.Unlock()
}
