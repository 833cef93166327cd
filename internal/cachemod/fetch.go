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
//	issue     put one batch on the wire as a vectored ReadBlocks
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
// image. (2) A joiner takes its reference while it holds fetchMu and sees
// the state in the table; the owner removes the entry before it drops its
// own reference, so the count cannot drain under a joiner. (3) Every
// holder calls decref exactly once; the last one out returns the slab to
// its pool. (4) done closes exactly once, in publish or in settle, after
// data/err are set. (5) A published image is only as new as finalStamp: a
// joiner copying it later re-checks the stamp (awaitJoin).
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
	"pvfscache/internal/rpc"
	"pvfscache/internal/wire"
)

// memRef counts the readers of one pooled buffer shared by the fetchStates
// published from it — a run's slab, or a single peer-fetched block. The
// buffer returns to its pool when the count drains to zero.
type memRef struct {
	buf  []byte
	pool *rpc.BufPool
	refs atomic.Int32
}

// lease takes an n-byte buffer from pool with one reference, held by the
// caller.
func lease(pool *rpc.BufPool, n int) ([]byte, *memRef) {
	r := &memRef{buf: pool.Get(n), pool: pool}
	r.refs.Store(1)
	return r.buf, r
}

func (r *memRef) release() {
	if r.refs.Add(-1) == 0 {
		r.pool.Put(r.buf)
	}
}

// fetchState coordinates one in-flight block fetch across processes: the
// first requester owns the network transfer, later requesters wait on done
// and then read the block from data (which survives even if the insert was
// bypassed for lack of space). refs counts the holders entitled to read
// data after done closes: the owner plus every joiner.
type fetchState struct {
	done     chan struct{}
	data     []byte // full block, zero-padded; set before done closes
	err      error
	prefetch bool // transfer issued by the readahead prefetcher

	// stamp is the block's buffer write stamp recorded before the fetch was
	// registered; the install presents it so an image that predates a write
	// applied (and possibly flushed and evicted) during the flight is
	// refused (buffer.OutcomeStale). finalStamp is the stamp the successful
	// install validated against — set before done closes, it lets late
	// joiners detect writes that landed after publication.
	stamp      uint32
	finalStamp uint32

	refs atomic.Int32
	mem  *memRef // backing allocation of data; nil until published
}

// newFetchState returns a state with one reference, held by the fetch
// owner.
func newFetchState(prefetch bool) *fetchState {
	st := &fetchState{done: make(chan struct{}), prefetch: prefetch}
	st.refs.Store(1)
	return st
}

// decref drops one holder; the last one out releases the backing buffer.
func (st *fetchState) decref() {
	if st.refs.Add(-1) == 0 && st.mem != nil {
		st.mem.release()
	}
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
// carrying every run as an extent.
type fetch struct {
	iod  int
	ch   <-chan rpc.Result
	runs []fetchRun
}

// claim registers a fetch of key, or joins the one in flight. The owner
// (true) must land or settle the returned state; a joiner holds a data
// reference to drop after done (awaitJoin). The prefetcher never joins —
// it has no destination to copy to — so it takes no reference.
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
	close(st.done)
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
				close(st.done)
			}
			st.decref()
		}
	}
}

// awaitFetch waits out key's in-flight fetch, if any, without taking a
// data reference: the caller (a read-modify-write) retries against the
// cache, not the image.
func (m *Module) awaitFetch(key blockio.BlockKey) bool {
	m.fetchMu.Lock()
	st := m.fetches[key]
	m.fetchMu.Unlock()
	if st != nil {
		<-st.done
	}
	return st != nil
}

// awaitJoin resolves a join: it waits for the owner, copies the span out
// of the published image into w.dst, and drops the joiner's reference.
// False means no usable image — the owner failed, a prefetch dropped the
// block, or the image is older than a write this request must see — and
// the caller fetches for itself (fetchBlockSpan).
func (m *Module) awaitJoin(w tgtSpan) bool {
	st, key, off := w.st, w.sp.Key, w.sp.Off
	<-st.done
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
	// and evicted already (rule 5).
	m.buf.OverlaySpan(key, off, w.dst)
	fresh := m.buf.WriteStamp(key) == st.finalStamp
	if !fresh {
		m.ctr.joinStaleRefetches.Inc()
	}
	m.ctr.fetchJoins.Inc()
	if st.prefetch {
		m.notePrefetchHit(key)
	}
	return fresh
}

// maxFetchBlocks is the most blocks one fetch (a batch of runs) may carry
// and still fit a response frame (wire.ValidateExtents' bound), with one
// block of slack.
func maxFetchBlocks(bs int) int {
	return max(wire.MaxMessageSize/2/bs-1, 1)
}

// groupRuns groups claimed blocks (ascending) into runs of consecutive
// indices and the runs into batches, one fetch each. Rounding spans up to
// whole blocks can inflate a fetch far past the request's bytes (sub-block
// extents each cost a full block), so every run — an oversized one splits
// into several that fetch separately — and every batch is bounded by
// maxBlocks, what one response frame can carry.
func groupRuns(owned []tgtSpan, maxBlocks int) [][]fetchRun {
	var runs []fetchRun
	for start := 0; start < len(owned); {
		end := start + 1
		for end < len(owned) && end-start < maxBlocks && owned[end].sp.Key.Index == owned[end-1].sp.Key.Index+1 {
			end++
		}
		runs = append(runs, fetchRun{firstIdx: owned[start].sp.Key.Index, spans: owned[start:end]})
		start = end
	}
	var batches [][]fetchRun
	for start := 0; start < len(runs); {
		end, blocks := start+1, len(runs[start].spans)
		for end < len(runs) && blocks+len(runs[end].spans) <= maxBlocks {
			blocks += len(runs[end].spans)
			end++
		}
		batches = append(batches, runs[start:end])
		start = end
	}
	return batches
}

// issue puts one batch of runs on the wire as a vectored ReadBlocks. track
// asks the iod to record this node as a holder (false for read-around: the
// blocks never enter the cache). On error the batch's claims are settled.
func (m *Module) issue(iod int, file blockio.FileID, runs []fetchRun, track bool) (fetch, error) {
	bs := int64(m.buf.BlockSize())
	exts := make([]wire.ReadExtent, len(runs))
	for i, run := range runs {
		exts[i] = wire.ReadExtent{Offset: run.firstIdx * bs, Length: int64(len(run.spans)) * bs}
	}
	ch, err := m.data[iod].Go(&wire.ReadBlocks{Client: m.cfg.ClientID, File: file, Track: track, Exts: exts})
	if err != nil {
		m.settle(runs, err)
		return fetch{}, err
	}
	return fetch{iod: iod, ch: ch, runs: runs}, nil
}

// land completes one fetch from its round-trip result: every claim of f is
// published or retired and the owner's holds dropped when it returns, and
// the response lease is released. admit is the request's admission decision
// (see installImage).
func (m *Module) land(f fetch, admit admitMode, res rpc.Result) error {
	err := res.Err
	if err == nil {
		err = m.landResp(f, admit, res.Msg)
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
func (m *Module) landResp(f fetch, admit admitMode, msg wire.Message) error {
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
		if err := m.landRun(f.iod, run, data[:served], admit); err != nil {
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
func (m *Module) landRun(iod int, run fetchRun, data []byte, admit admitMode) error {
	bs := m.buf.BlockSize()
	slab, mem := lease(&m.slabs, len(run.spans)*bs)
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
		if m.installImage(key, iod, img, admit, stamp) == buffer.OutcomeStale {
			if st.prefetch {
				// Prefetch difference: a stale image is dropped, not re-read.
				// Nobody asked for the block yet, so a synchronous re-read
				// buys nothing; joiners fall back to a validated fetch.
				m.ctr.prefetchStaleDrops.Inc()
				continue
			}
			m.ctr.fetchStaleRetries.Inc()
			var err error
			if stamp, err = m.readInstall(iod, key, img, admit); err != nil {
				return err
			}
		}
		switch {
		case admit == admitNever:
			m.buf.NoteBypass(key)
		case st.prefetch:
			// Prefetch differences: the block gets a readahead mark (the
			// hit-ratio accounting) and is not pushed to the global cache —
			// speculation must not spend the home node's frames.
			m.markPrefetched(key)
		case m.gcNode != nil:
			// Feed the global cache: the home node copies the block before
			// Push returns, so the slab's lifetime is not extended.
			m.gcNode.Push(key, iod, img)
		}
		if st.prefetch {
			m.ctr.prefetchBlocks.Inc()
		} else {
			// A demand install: a mark left by an earlier prefetched copy
			// that left the cache unhit no longer applies.
			m.dropPrefetchMark(key)
		}
		m.publish(st, key, img, mem, stamp)
		copy(sp.dst, img[sp.sp.Off:])
	}
	return nil
}

// installImage offers a fetched whole-block image to the cache against the
// stamp its fetch was claimed under, patching img in place so the copy
// handed on matches what the cache holds (resident valid bytes win).
// Read-around (admitNever: don't-cache hint or streaming bypass) patches
// without admitting. OutcomeStale means the block was written since stamp
// and img is untouched.
func (m *Module) installImage(key blockio.BlockKey, iod int, img []byte, admit admitMode, stamp uint32) buffer.Outcome {
	if admit == admitNever {
		return m.buf.PatchResident(key, img, stamp)
	}
	return m.buf.InstallFetchedAdmit(key, iod, img, admit == admitMust, stamp)
}

// landFromPeer is the global-cache extension: it probes the home node of a
// block this caller just claimed and, on a hit, lands the peer's copy —
// install, span copy, publish — without going to the iod. False leaves the
// claim owned and unlanded: a miss, a malformed reply, or a copy outdated
// by a local write all fall through to the iod fetch, which revalidates.
func (m *Module) landFromPeer(iod int, o tgtSpan, admit admitMode) bool {
	bs := m.buf.BlockSize()
	img, mem := lease(&m.slabs, bs)
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
	if m.installImage(o.sp.Key, iod, img, admit, o.st.stamp) == buffer.OutcomeStale {
		return false
	}
	m.dropPrefetchMark(o.sp.Key) // a demand install, as in landRun
	copy(o.dst, img[o.sp.Off:o.sp.Off+o.sp.Len])
	m.publish(o.st, o.sp.Key, img, mem, o.st.stamp)
	o.st.decref() // the owner's hold; joiners keep the block alive
	m.ctr.gcacheHits.Inc()
	return true
}

// fetchBlockSpan is the synchronous one-block fetch: read, install, with
// [off, off+len(dst)) of the installed image copied to dst. Used for
// read-modify-write and for joiners whose owner left them nothing; both
// need the block resident afterwards (the write path retries its merge
// against it), so this path always admits — must says whether pinned, the
// caller's once-per-request reading of the file's must-cache hint;
// don't-cache and bypassed files only reach it through read-modify-write,
// where admission is what makes the merge converge. It neither claims nor
// joins: a caller resolving an earlier request's join may already own a
// later claim of the same block (sent, not yet received), which lands only
// after this returns — waiting on the table here would wait on itself.
func (m *Module) fetchBlockSpan(iod int, key blockio.BlockKey, off int, dst []byte, must bool) error {
	img, mem := lease(&m.slabs, m.buf.BlockSize())
	defer mem.release()
	admit := admitDefault
	if must {
		admit = admitMust
	}
	if _, err := m.readInstall(iod, key, img, admit); err != nil {
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
func (m *Module) readInstall(iod int, key blockio.BlockKey, img []byte, admit admitMode) (uint32, error) {
	for {
		stamp := m.buf.WriteStamp(key) // rule 1: before the iod reads
		if err := m.readBlockInto(iod, key, img); err != nil {
			return 0, err
		}
		if m.installImage(key, iod, img, admit, stamp) != buffer.OutcomeStale {
			m.dropPrefetchMark(key) // a demand install, as in landRun
			return stamp, nil
		}
		m.ctr.fetchStaleRetries.Inc()
	}
}

// readBlockInto reads one whole block synchronously from its iod into dst
// (a whole-block buffer), zero-filling past what the iod stores.
func (m *Module) readBlockInto(iod int, key blockio.BlockKey, dst []byte) error {
	bs := int64(m.buf.BlockSize())
	res := m.data[iod].Call(&wire.ReadBlocks{
		Client: m.cfg.ClientID,
		File:   key.File,
		Track:  true,
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
