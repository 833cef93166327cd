package cachemod

// The fetch protocol: how a block image travels from an iod (or a
// global-cache peer) into the cache and to everyone waiting for it. Every
// pipelined fetcher — a demand miss, the readahead prefetcher, the
// global-cache probe hit — is a caller of the same five steps, and nothing
// outside this file touches the fetch table:
//
//	claim     snapshot the block's write stamp, then register a fetchState
//	          in the table — or join the one already there, taking the
//	          joiner's reference under the table lock
//	groupRuns group the claimed blocks into runs of consecutive indices and
//	          the runs into batches, each bounded by one response frame
//	issue     put each batch on the wire as a vectored ReadBlocks, built in
//	          the fetcher's scratch (issueAll)
//	land      validate the ReadBlocksResp once, copy each run frame → one
//	          pooled slab, install every block against its stamp
//	          (installImage), publish it to the joiners, copy the request's
//	          spans out
//	settle    the owner's one exit, and the only way a state leaves the
//	          table un-published (joiners see no image and fetch for
//	          themselves): it drops the owner's holds
//
// Ownership rules. (1) The stamp is read before the state is registered,
// so a write applied at any later point — even one flushed and evicted
// before the image lands — moves the stamp and the install refuses the
// image. (2) A joiner, or awaitFetch, takes its reference while it holds
// fetchMu and sees the state in the table; the owner removes the entry
// before it drops its own reference, so the count cannot drain under a
// joiner. (3) Every holder calls decref exactly once — one that waits on
// done, only after its wait has returned; the last one out returns the
// slab to its pool and the state, reset, to fetchStates — so a state is
// never recycled under a holder, and no pointer to it may be used without
// a reference.
// (4) The done gate opens exactly once, in publish or in settle, after
// data/err/finalStamp are set. (5) A published image is only as new as
// finalStamp: a joiner copying it later re-checks the stamp (awaitJoin).
//
// Everything a fetch uses is recycled, so a miss allocates per request,
// not per block: states and slabs (with their memRef headers) come from
// pools, and the runs, batches, extent list, ReadBlocks and reply
// channels of a fetcher live in its fetchScratch, kept by a recycled
// pendingRead or prefetchJob.
//
// The prefetcher differs from a demand fetch in four deliberate ways, each
// a branch on fetchState.prefetch in landRun giving its reason. The
// synchronous fallback (fetchBlockSpan) shares the install and the
// stale-retry read with landRun but stays out of the table: it runs while
// its caller may own unreceived claims, so it must not wait on one.

import (
	"fmt"
	"sync"
	"sync/atomic"

	"pvfscache/internal/blockio"
	"pvfscache/internal/cachemod/buffer"
	"pvfscache/internal/pvfs"
	"pvfscache/internal/rpc"
	"pvfscache/internal/wire"
)

// memRef counts the readers of one pooled buffer shared by the fetchStates
// published from it — a run's slab, or a single peer-fetched block. The
// header and its buffer return to their slabPool together when the count
// drains to zero.
type memRef struct {
	buf  []byte
	pool *slabPool
	refs atomic.Int32
}

// maxSlabCap bounds the capacity of a slab its pool keeps (1 MB), so one
// oversized run cannot pin memory for good.
const maxSlabCap = 1 << 20

// slabPool recycles the slabs fetched images land in, each with the memRef
// header that counts its readers, so a lease allocates nothing in steady
// state. The zero value is ready to use.
type slabPool struct{ p sync.Pool }

// lease takes an n-byte slab with one reference, held by the caller. The
// slab carries its previous tenant's bytes.
func (sp *slabPool) lease(n int) ([]byte, *memRef) {
	r, _ := sp.p.Get().(*memRef)
	if r == nil {
		r = &memRef{pool: sp}
	}
	if cap(r.buf) < n {
		r.buf = make([]byte, n)
	}
	r.buf = r.buf[:n]
	r.refs.Store(1)
	return r.buf, r
}

func (r *memRef) release() {
	if r.refs.Add(-1) == 0 {
		if cap(r.buf) > maxSlabCap {
			r.buf = nil
		}
		r.pool.p.Put(r)
	}
}

// fetchState coordinates one in-flight block fetch across processes: the
// first requester owns the network transfer, later requesters wait on done
// and then read the block from data (which survives even if the insert was
// bypassed for lack of space). refs counts the holders entitled to read
// the state after done opens: the owner plus every joiner and awaitFetch.
// States are pooled (fetchStates): the last holder's decref resets and
// returns it, so a state is one claim's only while someone holds it.
type fetchState struct {
	// done is the gate: Add(1) at claim, Done exactly once in publish or
	// settle, Wait for every holder that waits on the fetch.
	done     sync.WaitGroup
	data     []byte // full block, zero-padded; set before done opens
	err      error
	prefetch bool // transfer issued by the readahead prefetcher

	// stamp is the block's buffer write stamp recorded before the fetch was
	// registered; the install presents it so an image that predates a write
	// applied (and possibly flushed and evicted) during the flight is
	// refused (buffer.OutcomeStale). finalStamp is the stamp the successful
	// install validated against — set before done opens, it lets late
	// joiners detect writes that landed after publication.
	stamp      uint32
	finalStamp uint32

	refs atomic.Int32
	mem  *memRef // backing allocation of data; nil until published
}

// fetchStates recycles fetch states across claims (rule 3).
var fetchStates = sync.Pool{New: func() any { return new(fetchState) }}

// newFetchState returns a state with one reference, held by the fetch
// owner, and its gate closed.
func newFetchState(prefetch bool) *fetchState {
	st := fetchStates.Get().(*fetchState)
	st.prefetch = prefetch
	st.refs.Store(1)
	st.done.Add(1)
	return st
}

// decref drops one holder; the last one out releases the backing buffer
// and recycles the state, emptied of everything its claim set.
func (st *fetchState) decref() {
	if st.refs.Add(-1) != 0 {
		return
	}
	if st.mem != nil {
		st.mem.release()
	}
	st.data, st.err, st.mem = nil, nil, nil
	st.stamp, st.finalStamp = 0, 0
	fetchStates.Put(st)
}

// fetchTable (embedded in Module) deduplicates concurrent fetches of one
// block across the node's processes and the prefetcher.
type fetchTable struct {
	fetchMu sync.Mutex
	fetches map[blockio.BlockKey]*fetchState
}

// tgtSpan is one block span of a request with the destination it must be
// copied to and the fetch state it rides — claimed (an owned miss) or
// joined. The prefetcher's claims are key-only spans with no destination.
type tgtSpan struct {
	sp  blockio.Span
	dst []byte
	st  *fetchState
}

// fetchRun is a run of consecutive claimed blocks: one extent of a
// vectored fetch.
type fetchRun struct {
	firstIdx int64
	spans    []tgtSpan // spans[i] is block firstIdx+i: its key, state and destination
}

// fetch is one network round trip issued for claimed blocks: a ReadBlocks
// carrying every run as an extent. ch is its fetch slot's reply channel
// (fetchScratch.replies), received exactly once, by land's caller.
type fetch struct {
	iod  int
	ch   chan rpc.Result
	runs []fetchRun
}

// claim registers a fetch of key, or joins the one in flight. The owner
// (true) must land or settle the returned state; a joiner holds a data
// reference to drop after done (awaitJoin). The prefetcher never joins —
// it has no destination to copy to — so it takes no reference, and must
// not touch a state it does not own.
func (m *Module) claim(key blockio.BlockKey, prefetch bool) (*fetchState, bool) {
	stamp := m.buf.WriteStamp(key) // rule 1: before registration
	m.fetchMu.Lock()
	defer m.fetchMu.Unlock()
	if st := m.fetches[key]; st != nil {
		if !prefetch {
			st.refs.Add(1) // rule 2: under the lock, entry still in the table
		}
		return st, false
	}
	st := newFetchState(prefetch)
	st.stamp = stamp
	m.fetches[key] = st
	return st, true
}

// unregister removes st's table entry so no new joiner can arrive.
func (m *Module) unregister(key blockio.BlockKey, st *fetchState) {
	m.fetchMu.Lock()
	if m.fetches[key] == st {
		delete(m.fetches, key)
	}
	m.fetchMu.Unlock()
}

// publish hands a landed block image (validated against stamp) to the
// state's waiters, retaining a reference on its slab for them. The owner
// keeps its own state reference until it settles.
func (m *Module) publish(st *fetchState, key blockio.BlockKey, img []byte, mem *memRef, stamp uint32) {
	mem.refs.Add(1)
	st.mem, st.data, st.finalStamp = mem, img, stamp
	m.unregister(key, st)
	st.done.Done()
}

// settle is the owner's exit from its claims, taken exactly once per fetch:
// a state not published leaves the table with no image — joiners wake to
// err (nil: nothing to serve) and fetch for themselves — and the owner's
// hold drops either way.
func (m *Module) settle(runs []fetchRun, err error) {
	for _, run := range runs {
		for _, sp := range run.spans {
			st := sp.st
			if st.data == nil {
				m.unregister(sp.sp.Key, st)
				st.err = err
				st.done.Done()
			}
			st.decref()
		}
	}
}

// awaitFetch waits out key's in-flight fetch, if any. The caller (a
// read-modify-write) retries against the cache, not the image, but it
// still holds a reference for the wait (rule 2): the gate must not be
// recycled for another claim while it waits on it.
func (m *Module) awaitFetch(key blockio.BlockKey) bool {
	m.fetchMu.Lock()
	st := m.fetches[key]
	if st != nil {
		st.refs.Add(1)
	}
	m.fetchMu.Unlock()
	if st == nil {
		return false
	}
	st.done.Wait()
	st.decref()
	return true
}

// awaitJoin resolves a join: it waits for the owner, copies the span out
// of the published image into w.dst, and drops the joiner's reference.
// False means no usable image — the owner failed, a prefetch dropped the
// block, or the image is older than a write this request must see — and
// the caller fetches for itself (fetchBlockSpan).
func (m *Module) awaitJoin(w tgtSpan) bool {
	st, key, off := w.st, w.sp.Key, w.sp.Off
	st.done.Wait()
	defer st.decref()
	if st.err != nil || st.data == nil {
		return false
	}
	copy(w.dst, st.data[off:off+len(w.dst)])
	// The image carries resident bytes only as of the moment it landed;
	// this request may have joined after later writes were acked into the
	// cache. Re-overlay the resident valid bytes — and, because the overlay
	// only helps while the newer bytes are resident, check the stamp: if it
	// moved past the one the install validated, the write may be flushed
	// and evicted already (rule 5). The overlay reads the resident frame,
	// so it is the join's demand access: it consumes the prefetch bit.
	if m.buf.OverlaySpan(key, off, w.dst) {
		m.ctr.prefetchHits.Inc()
	}
	fresh := m.buf.WriteStamp(key) == st.finalStamp
	if !fresh {
		m.ctr.joinStaleRefetches.Inc()
	}
	m.ctr.fetchJoins.Inc()
	return fresh
}

// maxFetchBlocks is the most blocks one fetch (a batch of runs) may carry
// and still fit a response frame (wire.ValidateExtents' bound), with one
// block of slack.
func maxFetchBlocks(bs int) int {
	return max(wire.MaxMessageSize/2/bs-1, 1)
}

// fetchScratch is one fetcher's storage for the fetch protocol: the
// claimed spans, their runs and batches, the fetches in flight with a
// reply channel per fetch slot, and the extent list and request of the
// next issue. A pendingRead or a prefetchJob keeps one and is recycled
// with it, so a fetch re-uses its slices and its reply channels instead
// of re-making them.
type fetchScratch struct {
	owned   []tgtSpan // claimed misses; the runs alias it
	runs    []fetchRun
	batches [][]fetchRun // the batches alias runs
	fetches []fetch      // issued round trips; their runs alias runs
	// replies[i] is fetches[i]'s reply channel. A channel is re-used only
	// once its one Result has been received; dropReplies forgets those
	// still owed one.
	replies []chan rpc.Result
	exts    []wire.ReadExtent
	req     wire.ReadBlocks // encoded before Go returns (DESIGN §4 rule 6)
}

// reply returns the reply channel of the next fetch slot, fetches' next
// entry, making it on the slot's first use.
func (s *fetchScratch) reply() chan rpc.Result {
	i := len(s.fetches)
	if i == len(s.replies) {
		s.replies = append(s.replies, nil)
	}
	if s.replies[i] == nil {
		s.replies[i] = make(chan rpc.Result, 1)
	}
	return s.replies[i]
}

// dropReplies forgets the reply channels of the fetches in flight, whose
// Results are never going to be received (their fetcher gave up on them):
// a late Result must not land in a recycled scratch's next fetch.
func (s *fetchScratch) dropReplies() {
	clear(s.replies[:len(s.fetches)])
}

// reset empties the scratch so it pins no slab, fetchState or caller
// buffer, keeping its capacity.
func (s *fetchScratch) reset() {
	clear(s.owned)
	clear(s.runs)
	clear(s.batches)
	clear(s.fetches)
	s.owned, s.runs, s.batches, s.fetches = s.owned[:0], s.runs[:0], s.batches[:0], s.fetches[:0]
}

// groupRuns groups the claimed blocks (ascending) into runs of consecutive
// indices and the runs into batches, one fetch each. Rounding spans up to
// whole blocks can inflate a fetch far past the request's bytes (sub-block
// extents each cost a full block), so every run — an oversized one splits
// into several that fetch separately — and every batch is bounded by
// maxBlocks, what one response frame can carry.
func (s *fetchScratch) groupRuns(maxBlocks int) [][]fetchRun {
	owned := s.owned
	runs := s.runs[:0]
	for start := 0; start < len(owned); {
		end := start + 1
		for end < len(owned) && end-start < maxBlocks && owned[end].sp.Key.Index == owned[end-1].sp.Key.Index+1 {
			end++
		}
		runs = append(runs, fetchRun{firstIdx: owned[start].sp.Key.Index, spans: owned[start:end]})
		start = end
	}
	batches := s.batches[:0]
	for start := 0; start < len(runs); {
		end, blocks := start+1, len(runs[start].spans)
		for end < len(runs) && blocks+len(runs[end].spans) <= maxBlocks {
			blocks += len(runs[end].spans)
			end++
		}
		batches = append(batches, runs[start:end])
		start = end
	}
	s.runs, s.batches = runs, batches
	return batches
}

// issueAll puts the owned spans on the wire: one vectored ReadBlocks per
// batch, every run an extent, all in flight before the first response is
// awaited. track is as in issue. On error the failing batch and every
// batch not yet issued are settled; the fetches already in s.fetches are
// the caller's to land or settle.
func (m *Module) issueAll(s *fetchScratch, iod int, file blockio.FileID, track bool) error {
	batches := s.groupRuns(maxFetchBlocks(m.buf.BlockSize()))
	for i, batch := range batches {
		f, err := m.issue(s, iod, file, batch, track)
		if err != nil {
			// Later readers of the unissued blocks would wait on their
			// claims forever.
			for _, rest := range batches[i+1:] {
				m.settle(rest, err)
			}
			return err
		}
		s.fetches = append(s.fetches, f)
	}
	return nil
}

// issue puts one batch of runs on the wire as a vectored ReadBlocks built
// in s. track asks the iod to record this node as a holder (false for
// read-around: the blocks never enter the cache). On error the batch's
// claims are settled.
func (m *Module) issue(s *fetchScratch, iod int, file blockio.FileID, runs []fetchRun, track bool) (fetch, error) {
	bs := int64(m.buf.BlockSize())
	s.exts = s.exts[:0]
	for _, run := range runs {
		s.exts = append(s.exts, wire.ReadExtent{Offset: run.firstIdx * bs, Length: int64(len(run.spans)) * bs})
	}
	s.req = wire.ReadBlocks{Client: m.cfg.ClientID, File: file, Track: track, Exts: s.exts}
	ch := s.reply()
	if err := m.data[iod].Go(&s.req, ch); err != nil {
		m.settle(runs, err)
		return fetch{}, err
	}
	return fetch{iod: iod, ch: ch, runs: runs}, nil
}

// land completes one fetch from its round-trip result: every claim of f is
// published or retired and the owner's holds dropped when it returns, and
// the response lease is released. policy is the request's reading of the
// file's cache-policy hint (see installImage).
func (m *Module) land(f fetch, policy pvfs.CachePolicy, res rpc.Result) error {
	err := res.Err
	if err == nil {
		err = m.landResp(f, policy, res.Msg)
		// The payload has been copied into the run slabs (or rejected); its
		// leased frame buffer is dead either way.
		res.Release()
	}
	// The spans are copied; joiners keep the slabs alive until they have
	// copied too.
	m.settle(f.runs, err)
	return err
}

// landResp validates a fetch's reply and lands it run by run. A vectored
// fetch can only be answered by a ReadBlocksResp with one entry per run.
// Validation covers every run before any run lands, so a hostile response
// is rejected whole rather than half-published.
func (m *Module) landResp(f fetch, policy pvfs.CachePolicy, msg wire.Message) error {
	rr, ok := msg.(*wire.ReadBlocksResp)
	if !ok {
		return fmt.Errorf("cachemod: fetch failed: %v", msg.WireType())
	}
	if err := rr.Status.Err(); err != nil {
		return err
	}
	if len(rr.Lens) != len(f.runs) {
		return fmt.Errorf("cachemod: vectored fetch returned %d extents, want %d", len(rr.Lens), len(f.runs))
	}
	bs := m.buf.BlockSize()
	for i, run := range f.runs {
		// Decode guarantees the lengths tile Data, but only the requester
		// knows what was asked for: an overlong length would shift every
		// later run's bytes and poison the shared cache with misattributed
		// data.
		if int(rr.Lens[i]) > len(run.spans)*bs {
			return fmt.Errorf("cachemod: vectored fetch extent %d overlong (%d > %d)",
				i, int(rr.Lens[i]), len(run.spans)*bs)
		}
	}
	data := rr.Data
	for i, run := range f.runs {
		served := int(rr.Lens[i])
		if err := m.landRun(f.iod, run, data[:served], policy); err != nil {
			return err
		}
		data = data[served:]
	}
	return nil
}

// landRun lands one run. data (the served bytes, aliasing the response's
// leased frame) is copied once into a zero-padded pooled slab, and
// everything downstream — cache frame, joiners, global-cache push, span
// destinations — reads the slab, which returns to its pool when the last
// published state's reference drains. A block it does not publish — a
// prefetch drop, or the rest of the run after an error — is retired by the
// caller's settle.
func (m *Module) landRun(iod int, run fetchRun, data []byte, policy pvfs.CachePolicy) error {
	bs := m.buf.BlockSize()
	slab, mem := m.slabs.lease(len(run.spans) * bs)
	defer mem.release() // the creator's hold
	n := copy(slab, data)
	clear(slab[n:]) // pooled buffers carry the previous tenant's bytes
	for i, sp := range run.spans {
		key, st, img := sp.sp.Key, sp.st, slab[i*bs:(i+1)*bs]
		if st.prefetch && i*bs >= len(data) {
			// Prefetch difference: a block past the served length is dropped,
			// not zero-padded. A demand read knows its extent lies on this
			// iod, so missing bytes are a sparse hole; a speculative block
			// may lie past what the iod holds, and its zeros must never be
			// cached as data. A demand read decides.
			continue
		}
		// The install presents the stamp snapshotted at claim time. A block
		// written mid-flight — possibly flushed and evicted, leaving nothing
		// resident to patch from — is refused whole and re-read (readInstall).
		stamp := st.stamp
		if m.installImage(key, iod, img, policy, st.prefetch, stamp) == buffer.OutcomeStale {
			if st.prefetch {
				// Prefetch difference: a stale image is dropped, not re-read.
				// Nobody asked for the block yet, so a synchronous re-read
				// buys nothing; joiners fall back to a validated fetch.
				m.ctr.prefetchStaleDrops.Inc()
				continue
			}
			m.ctr.fetchStaleRetries.Inc()
			var err error
			if stamp, err = m.readInstall(iod, key, img, policy); err != nil {
				return err
			}
		}
		switch {
		case policy == pvfs.CacheNone:
			m.buf.NoteBypass(key)
		case st.prefetch:
			// Prefetch difference: the block is not pushed to the global
			// cache — speculation must not spend the home node's frames.
		case m.gcNode != nil:
			// Feed the global cache: the home node copies the block before
			// Push returns, so the slab's lifetime is not extended.
			m.gcNode.Push(key, iod, img)
		}
		if st.prefetch {
			m.ctr.prefetchBlocks.Inc()
		}
		m.publish(st, key, img, mem, stamp)
		copy(sp.dst, img[sp.sp.Off:])
	}
	return nil
}

// installImage offers a fetched whole-block image to the cache against the
// stamp its fetch was claimed under, patching img in place so the copy
// handed on matches what the cache holds (resident valid bytes win).
// A don't-cache file's image is read-around: patched, never admitted; a
// must-cache file's is admitted pinned. A prefetch install sets the
// frame's prefetch bit (the readahead hit accounting); any other install
// clears it. OutcomeStale means the block was written since stamp and img
// is untouched.
func (m *Module) installImage(key blockio.BlockKey, iod int, img []byte, policy pvfs.CachePolicy, prefetch bool, stamp uint32) buffer.Outcome {
	if policy == pvfs.CacheNone {
		return m.buf.PatchResident(key, img, stamp)
	}
	var a buffer.Admit
	if policy == pvfs.CacheMust {
		a |= buffer.AdmitMust
	}
	if prefetch {
		a |= buffer.AdmitPrefetch
	}
	return m.buf.InstallFetchedAdmit(key, iod, img, a, stamp)
}

// landFromPeer is the global-cache extension: it probes the home node of a
// block this caller just claimed and, on a hit, lands the peer's copy —
// install, span copy, publish — without going to the iod. False leaves the
// claim owned and unlanded: a miss, a malformed reply, or a copy outdated
// by a local write all fall through to the iod fetch, which revalidates.
func (m *Module) landFromPeer(iod int, o tgtSpan, policy pvfs.CachePolicy) bool {
	bs := m.buf.BlockSize()
	img, mem := m.slabs.lease(bs)
	defer mem.release()
	n, ok := m.gcNode.Get(o.sp.Key, img)
	if !ok {
		return false
	}
	// A healthy peer always serves a whole block; anything else is a buggy
	// or hostile response whose bytes must not be installed or sliced.
	if n != bs {
		m.ctr.gcacheBadResp.Inc()
		return false
	}
	if m.installImage(o.sp.Key, iod, img, policy, false, o.st.stamp) == buffer.OutcomeStale {
		return false
	}
	copy(o.dst, img[o.sp.Off:o.sp.Off+o.sp.Len])
	m.publish(o.st, o.sp.Key, img, mem, o.st.stamp)
	o.st.decref() // the owner's hold; joiners keep the block alive
	m.ctr.gcacheHits.Inc()
	return true
}

// fetchBlockSpan is the synchronous one-block fetch: read, install, with
// [off, off+len(dst)) of the installed image copied to dst. Used for
// read-modify-write and for joiners whose owner left them nothing; policy
// is the caller's once-per-request reading of the file's hint, so a
// don't-cache joiner reads around like its request (read-modify-write
// never passes CacheNone: its merge converges only against a resident
// block). It neither claims nor joins: a caller resolving an earlier
// request's join may already own a later claim of the same block (sent,
// not yet received), which lands only after this returns — waiting on the
// table here would wait on itself.
func (m *Module) fetchBlockSpan(iod int, key blockio.BlockKey, off int, dst []byte, policy pvfs.CachePolicy) error {
	img, mem := m.slabs.lease(m.buf.BlockSize())
	defer mem.release()
	if _, err := m.readInstall(iod, key, img, policy); err != nil {
		return err
	}
	copy(dst, img[off:])
	m.ctr.syncFetches.Inc()
	return nil
}

// readInstall reads key's block from its iod into img and installs it,
// going around while a write races the read: the loop ends when a read
// lands with no concurrent write to its block. It returns the stamp the
// install validated against.
func (m *Module) readInstall(iod int, key blockio.BlockKey, img []byte, policy pvfs.CachePolicy) (uint32, error) {
	for {
		stamp := m.buf.WriteStamp(key) // rule 1: before the iod reads
		if err := m.readBlockInto(iod, key, img, policy != pvfs.CacheNone); err != nil {
			return 0, err
		}
		if m.installImage(key, iod, img, policy, false, stamp) != buffer.OutcomeStale {
			return stamp, nil
		}
		m.ctr.fetchStaleRetries.Inc()
	}
}

// readBlockInto reads one whole block synchronously from its iod into dst
// (a whole-block buffer), zero-filling past what the iod stores. track is
// as in issue.
func (m *Module) readBlockInto(iod int, key blockio.BlockKey, dst []byte, track bool) error {
	bs := int64(m.buf.BlockSize())
	res := m.data[iod].Call(&wire.ReadBlocks{
		Client: m.cfg.ClientID,
		File:   key.File,
		Track:  track,
		Exts:   []wire.ReadExtent{{Offset: key.Index * bs, Length: bs}},
	})
	if res.Err != nil {
		return res.Err
	}
	defer res.Release()
	rr, ok := res.Msg.(*wire.ReadBlocksResp)
	if !ok {
		return fmt.Errorf("cachemod: unexpected fetch reply %v", res.Msg.WireType())
	}
	if err := rr.Status.Err(); err != nil {
		return err
	}
	// Only the requester knows what was asked for: one extent, one block.
	if len(rr.Lens) != 1 || int64(rr.Lens[0]) > bs {
		return fmt.Errorf("cachemod: block read returned %d extents of %d bytes, want 1 of at most %d", len(rr.Lens), len(rr.Data), bs)
	}
	n := copy(dst, rr.Data)
	clear(dst[n:]) // pooled buffers carry the previous tenant's bytes
	return nil
}
