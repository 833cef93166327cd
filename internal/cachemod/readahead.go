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
	"errors"
	"slices"
	"sort"
	"sync"

	"pvfscache/internal/blockio"
	"pvfscache/internal/pvfs"
	"pvfscache/internal/wire"
)

// raMinStreak is how many pattern-consistent requests must be observed on
// a file before prefetching starts. High enough that workloads which only
// occasionally chain two requests (e.g. 50% locality re-read patterns)
// never engage the prefetcher — prefetching into a cache that locality is
// already using well evicts exactly the blocks about to be re-read.
const raMinStreak = 4

// stripeHint is a file's striping geometry as learned from libpvfs, and
// the largest size any hint announced for it: no block at or past
// ceil(size/blockSize) is ever predicted, since an iod would serve a block
// that does not exist as nothing.
type stripeHint struct {
	meta  wire.FileMeta
	total int
	size  int64
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

// raState tracks one file's access-pattern detector: the streak machine
// behind readahead.
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

// noteAccess feeds one read request's block range [first, last] to a
// file's pattern detector (the caller holds the record's lock) and returns
// the sorted block indices to prefetch now in pred's storage (empty, with
// pred's capacity kept, when the access is not part of an established
// scan, or when the window is already in flight).
func (m *Module) noteAccess(st *raState, first, last int64, pred []int64) []int64 {
	pred = pred[:0]
	if st.streak == 0 { // the file's first access
		st.next = last + 1
		st.streak = 1
		st.prevFirst = first
		return pred
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
		return pred // neutral: still inside the covered tail block
	default:
		delta := first - st.prevFirst
		if st.kind == raStrided && delta == st.stride {
			st.streak++
			st.next = last + 1
		} else {
			if st.streak >= raMinStreak {
				m.ctr.readaheadResets.Inc()
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
		return pred
	}
	window := int64(m.cfg.ReadaheadWindow)
	if st.kind == raAscend {
		// Batched refill: issue nothing while more than half the window
		// is still ahead of the scan, then top the window up in one
		// piece. One prefetch round trip thus covers several demand
		// requests instead of trickling a few blocks per request.
		if remaining := st.issued - (last + 1); remaining > window/2 {
			return pred
		}
		lo := last + 1
		if st.issued > lo {
			lo = st.issued
		}
		hi := last + 1 + window
		if hi <= lo {
			return pred
		}
		st.issued = hi
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
		return pred
	}
	maxSteps := window / span
	if maxSteps < 1 {
		maxSteps = 1
	}
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
		slices.Sort(pred)
	}
	return pred
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
	if m.cfg.ReadaheadWindow == 0 {
		return
	}
	fs := m.file(file)
	if fs == nil {
		return // never announced: no geometry to route blocks to iods by
	}
	scratch := predictions.Get().(*[]int64)
	defer predictions.Put(scratch)
	fs.mu.Lock()
	pred := m.noteAccess(&fs.ra, first, last, *scratch)
	hint := fs.hint
	fs.mu.Unlock()
	*scratch = pred
	if len(pred) == 0 || hint.total == 0 {
		return
	}
	// A replayed stride or a window topped up near the end runs off the
	// file; pred is ascending, so the blocks that exist are a prefix.
	eof := blockio.Blocks(hint.size, m.buf.BlockSize())
	pred = pred[:sort.Search(len(pred), func(i int) bool { return pred[i] >= eof })]
	policy, _ := fs.hints()
	m.prefetchRange(file, hint, pred, policy)
}

// predictions recycles noteAccess's index lists between readahead rounds.
var predictions = sync.Pool{New: func() any { return new([]int64) }}

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

// prefetchJob is one prefetch round's storage: the iod it fetches from,
// the file and policy it fetches under, and the fetch scratch its claims
// are issued from. Jobs are pooled; prefetchRange fills one per iod,
// chained through next, and the prefetch worker that runs it returns it.
type prefetchJob struct {
	fetchScratch
	iod    int
	file   blockio.FileID
	policy pvfs.CachePolicy
	next   *prefetchJob
}

var prefetchJobs = sync.Pool{New: func() any { return new(prefetchJob) }}

// prefetchWorkersPerIOD is how many prefetch workers a module with
// readahead on runs per iod (startPrefetchWorkers): rounds to one iod
// overlap up to that depth, and a scan that outruns them waits in
// prefetchRange for one to free.
const prefetchWorkersPerIOD = 4

// errModuleClosed settles the claims of a prefetch round no worker will
// take because the module is closing.
var errModuleClosed = errors.New("cachemod: module closed")

// prefetchRange claims the uncached, un-inflight blocks of the predicted
// index list (sorted ascending, duplicates tolerated) synchronously,
// routes them to their owning iods, and launches one asynchronous round
// trip per iod (several fetches when the window outgrows one response
// frame). Prefetches follow the file's cache-policy hint: a don't-cache
// file keeps its readahead pipelining, but the prefetched blocks are
// served around the cache like its demand reads.
func (m *Module) prefetchRange(file blockio.FileID, hint stripeHint, idxs []int64, policy pvfs.CachePolicy) {
	var jobs *prefetchJob
	for _, idx := range idxs {
		iod := m.iodForBlock(hint, idx)
		key := blockio.BlockKey{File: file, Index: idx}
		if iod < 0 || m.buf.Contains(key, 0, m.buf.BlockSize()) {
			continue
		}
		// Not the owner: a demand fetch or an earlier prefetch has it.
		st, owner := m.claim(key, true)
		if !owner {
			continue
		}
		j := jobs
		for j != nil && j.iod != iod {
			j = j.next
		}
		if j == nil {
			j = prefetchJobs.Get().(*prefetchJob)
			j.iod, j.next, jobs = iod, jobs, j
		}
		j.owned = append(j.owned, tgtSpan{sp: blockio.Span{Key: key}, st: st})
	}
	// Every claim is in the table before any round trip starts.
	for j := jobs; j != nil; {
		next := j.next
		j.next, j.file, j.policy = nil, file, policy
		m.startPrefetch(j)
		j = next
	}
}

// startPrefetch hands one round to an idle prefetch worker, waiting for
// one to free. Once the module is closing no worker takes it, and its
// claims are settled instead.
func (m *Module) startPrefetch(j *prefetchJob) {
	select {
	case m.prefetchQ <- j:
	case <-m.stop:
		m.settle([]fetchRun{{spans: j.owned}}, errModuleClosed)
		j.reset()
		prefetchJobs.Put(j)
	}
}

// startPrefetchWorkers starts the module's prefetch workers. They run
// rounds until the module closes; Close waits for them once it has closed
// the iod clients, which fails any round still waiting on a reply.
func (m *Module) startPrefetchWorkers() {
	for range prefetchWorkersPerIOD * len(m.data) {
		m.prefetchWG.Add(1)
		go func() {
			defer m.prefetchWG.Done()
			for {
				select {
				case j := <-m.prefetchQ:
					m.prefetchIOD(j)
				case <-m.stop:
					return
				}
			}
		}()
	}
}

// prefetchIOD runs one iod's prefetch round trips: issue the claimed runs
// and land every reply (or, for a don't-cache file, serve it to joiners
// without admission). Off the caller's thread because issue writes the
// request synchronously.
func (m *Module) prefetchIOD(j *prefetchJob) {
	// A failed issue settled what it did not send; what it sent lands.
	_ = m.issueAll(&j.fetchScratch, j.iod, j.file, j.policy != pvfs.CacheNone)
	for _, f := range j.fetches {
		if m.land(f, j.policy, <-f.ch) == nil {
			m.ctr.prefetchIssued.Inc()
		}
	}
	j.reset()
	prefetchJobs.Put(j)
}
