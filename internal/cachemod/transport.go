package cachemod

import (
	"errors"
	"fmt"
	"sync"

	"pvfscache/internal/blockio"
	"pvfscache/internal/cachemod/buffer"
	"pvfscache/internal/pvfs"
	"pvfscache/internal/rpc"
	"pvfscache/internal/wire"
)

// CachedTransport is one application process's view of the cache module:
// it implements pvfs.Transport, so libpvfs uses it exactly like a socket,
// while every CachedTransport created from the same Module shares the
// node's block cache. This mirrors the paper's finite state machine per
// socket: Send transitions a request into the pending state (issuing
// network sub-requests only for the missing pieces) and Recv completes it
// (faking acknowledgments for whatever the cache absorbed).
type CachedTransport struct {
	m *Module

	mu      sync.Mutex
	next    pvfs.ReqID
	pending map[pvfs.ReqID]pendingOp
	// free recycles completed pendingReads, emptied of everything they
	// referenced (putRead), so a miss re-uses its slices instead of
	// re-making them; replies recycles the reply channels of passthrough
	// and sync-write round trips whose one Result Recv has received.
	free    []*pendingRead
	replies []chan rpc.Result
}

// NewTransport returns a transport for one application process.
func (m *Module) NewTransport() *CachedTransport {
	return &CachedTransport{m: m, next: 1, pending: make(map[pvfs.ReqID]pendingOp)}
}

// StripeHint implements pvfs.StripeHinter: libpvfs announces a file's
// striping geometry whenever it opens or refreshes the file, and when one
// of its writes extends it — which is what lets the module's readahead
// prefetcher route upcoming blocks to the iods that hold them, and stop at
// the largest size any hint announced.
func (t *CachedTransport) StripeHint(file blockio.FileID, meta wire.FileMeta, totalIODs int) {
	if meta.SSize == 0 || meta.PCount == 0 || totalIODs <= 0 {
		return // unusable geometry; leave the file unprefetchable
	}
	fs := t.m.announce(file)
	fs.mu.Lock()
	fs.hint = stripeHint{meta: meta, total: totalIODs, size: max(meta.Size, fs.hint.size)}
	fs.mu.Unlock()
}

// NoteRead implements pvfs.ReadPatternHinter: libpvfs reports each whole
// application read, and the module's sequential detector keys on that
// stream. Detection cannot live on the Send path: the pieces of one
// striped read arrive as several ascending Sends, so a random workload
// of multi-piece requests would look like a scan and prefetch garbage.
func (t *CachedTransport) NoteRead(file blockio.FileID, offset, length int64) {
	if length <= 0 {
		return
	}
	first, count := blockio.BlockRange(offset, length, t.m.buf.BlockSize())
	t.m.maybeReadahead(file, first, first+count-1)
}

// CachePolicyHint implements pvfs.CachePolicyHinter: libpvfs forwards a
// file's per-open cache-policy hint (don't-cache / must-cache / default —
// the discretionary knob; see pvfs.CachePolicy) and the module applies it
// to every read admission decision for the file. Writes ignore it: every
// write goes through the cache.
func (t *CachedTransport) CachePolicyHint(file blockio.FileID, policy pvfs.CachePolicy) {
	t.m.announce(file).policy.Store(uint32(policy))
}

// TenantHint implements pvfs.TenantHinter: libpvfs forwards a file's
// per-open tenant (principal) tag and scheduling weight, and the module
// charges the file's dirty frames and in-flight fetches to that principal
// (see qos.go). Tenant 0 clears the tag.
func (t *CachedTransport) TenantHint(file blockio.FileID, tenant uint32, weight int) {
	fs := t.m.announce(file)
	if tenant == 0 {
		fs.tenant.Store(nil)
		return
	}
	weight = max(weight, 1)
	fs.tenant.Store(t.m.tenantFor(tenant, weight))
	// The flusher's weighted batch selection shares the same weight.
	t.m.buf.SetTenantWeight(tenant, weight)
}

// pendingOp is the per-request FSM state between Send and Recv, kept by
// value in the pending table.
type pendingOp struct {
	ready wire.Message    // response already known (fake ack, full cache hit)
	read  *pendingRead    // read with outstanding transfers
	call  chan rpc.Result // passthrough round trip's reply slot
	// sync is a sync-write in flight to iod; Recv settles its spans in
	// the cache once the reply is in (rewriteSync).
	sync *wire.SyncWrite
	iod  int
}

// Replies that carry nothing but a status are shared, immutable messages
// (a response is read-only across the pvfs.Transport seam): the reply of a
// read whose bytes went into the caller's sink, indexed by the three
// statuses the FSM answers with, and the faked write acks.
var (
	readvStatus = [...]wire.ReadBlocksResp{
		wire.StatusOK:         {Status: wire.StatusOK},
		wire.StatusBadRequest: {Status: wire.StatusBadRequest},
		wire.StatusOverload:   {Status: wire.StatusOverload},
	}
	writeAckOK   = &wire.WriteAck{Status: wire.StatusOK}
	writeAckShed = &wire.WriteAck{Status: wire.StatusOverload}
	syncAckShed  = &wire.SyncWriteAck{Status: wire.StatusOverload}
)

// pendingRead tracks a read whose missing pieces are in flight. Every
// span of the request resolved its destination slice — a region of the
// request's sink — at classification time. A read served entirely from
// the cache never has one; the others take theirs from the transport's
// free list and return it when Recv completes them.
type pendingRead struct {
	// fetchScratch holds the misses this request fetches (owned) and the
	// storage their fetches are built and tracked in.
	fetchScratch
	iod    int
	waits  []tgtSpan        // joins: spans riding another owner's fetch
	policy pvfs.CachePolicy // the file's hint, read once per request

	// qos is the tenant state charged qosBlocks in-flight read blocks at
	// classification time (nil when budgets are off); trace is the armed
	// per-request trace, nil when disarmed.
	qos       *tenantState
	qosBlocks int
	trace     *reqTrace
}

// releaseBudget returns the request's in-flight read-block charge to its
// tenant. Idempotent: every exit from the read FSM — completed, issue
// error, abandoned — calls it exactly where the request stops being in
// flight.
func (pr *pendingRead) releaseBudget() {
	pr.qos.releaseFetch(pr.qosBlocks)
	pr.qos = nil
}

// takeRead returns an empty pendingRead, recycled when one is free.
func (t *CachedTransport) takeRead() *pendingRead {
	t.mu.Lock()
	defer t.mu.Unlock()
	if n := len(t.free); n > 0 {
		pr := t.free[n-1]
		t.free = t.free[:n-1]
		return pr
	}
	return &pendingRead{}
}

// putRead recycles a read that has left the FSM: every fetch landed or
// settled, every join resolved. It is emptied first, so the free list pins
// no slab, fetchState or caller buffer.
func (t *CachedTransport) putRead(pr *pendingRead) {
	pr.reset()
	clear(pr.waits)
	*pr = pendingRead{fetchScratch: pr.fetchScratch, waits: pr.waits[:0]}
	t.mu.Lock()
	t.free = append(t.free, pr)
	t.mu.Unlock()
}

// Send implements pvfs.Transport. For writes it runs the cache FSM; any
// other message but a read passes through to the iod untouched, keeping
// the module transparent to protocol extensions. Reads must come through
// SendRead: forwarding one would read the iod past dirty cached bytes.
func (t *CachedTransport) Send(iod int, req wire.Message) (pvfs.ReqID, error) {
	if iod < 0 || iod >= len(t.m.data) {
		return 0, fmt.Errorf("cachemod: iod index %d out of range", iod)
	}
	if typ := req.WireType(); typ == wire.TRead || typ == wire.TReadBlocks {
		return 0, fmt.Errorf("cachemod: %v sent without a sink; reads go through SendRead", typ)
	}
	var op pendingOp
	var err error
	switch r := req.(type) {
	case *wire.Write:
		op, err = t.sendWrite(iod, r)
	case *wire.SyncWrite:
		op, err = t.sendSyncWrite(iod, r)
	default:
		ch, cerr := t.goCall(iod, req)
		if cerr != nil {
			return 0, cerr
		}
		op = pendingOp{call: ch}
	}
	if err != nil {
		return 0, err
	}
	return t.register(op), nil
}

// SendRead implements pvfs.ReadSinker: the read entry point. sink carries
// one destination slice per extent of the ReadBlocks, and the FSM scatters
// every byte — cache hits, fetch joins, fetched runs — directly into them;
// the Recv response is then status-only. It declines (ok=false, nothing
// issued) when the message is not a ReadBlocks or the sink does not tile
// the request.
func (t *CachedTransport) SendRead(iod int, req wire.Message, sink [][]byte) (pvfs.ReqID, bool, error) {
	if iod < 0 || iod >= len(t.m.data) {
		return 0, false, fmt.Errorf("cachemod: iod index %d out of range", iod)
	}
	rb, ok := req.(*wire.ReadBlocks)
	if !ok {
		return 0, false, nil
	}
	op, ok, err := t.sendRead(iod, rb, sink)
	if err != nil || !ok {
		return 0, false, err
	}
	return t.register(op), true, nil
}

// goCall sends req to iod on a reply channel from the free list. A call
// abandoned at Close never returns its channel, so no channel is re-used
// before its one Result has been received.
func (t *CachedTransport) goCall(iod int, req wire.Message) (chan rpc.Result, error) {
	t.mu.Lock()
	var ch chan rpc.Result
	if n := len(t.replies); n > 0 {
		ch, t.replies = t.replies[n-1], t.replies[:n-1]
	} else {
		ch = make(chan rpc.Result, 1)
	}
	t.mu.Unlock()
	if err := t.m.data[iod].Go(req, ch); err != nil {
		t.putReply(ch) // Go left it empty
		return nil, err
	}
	return ch, nil
}

// putReply returns an empty reply channel to the free list.
func (t *CachedTransport) putReply(ch chan rpc.Result) {
	t.mu.Lock()
	t.replies = append(t.replies, ch)
	t.mu.Unlock()
}

// register files a pending op and returns its request id.
func (t *CachedTransport) register(op pendingOp) pvfs.ReqID {
	t.mu.Lock()
	id := t.next
	t.next++
	t.pending[id] = op
	t.mu.Unlock()
	return id
}

// Recv implements pvfs.Transport: it completes the pending request,
// waiting for outstanding transfers if necessary.
func (t *CachedTransport) Recv(id pvfs.ReqID) (wire.Message, error) {
	t.mu.Lock()
	op, ok := t.pending[id]
	delete(t.pending, id)
	t.mu.Unlock()
	if !ok {
		return nil, fmt.Errorf("cachemod: unknown request id %d", id)
	}
	switch {
	case op.ready != nil:
		return op.ready, nil
	case op.read != nil:
		resp, err := t.completeRead(op.read)
		t.putRead(op.read)
		return resp, err
	case op.call != nil:
		res := <-op.call
		t.putReply(op.call)
		if op.sync != nil {
			ack, _ := res.Msg.(*wire.SyncWriteAck)
			t.rewriteSync(op.iod, op.sync, res.Err == nil && ack != nil && ack.Status == wire.StatusOK, false)
		}
		return res.Msg, res.Err
	default:
		return nil, fmt.Errorf("cachemod: empty pending op %d", id)
	}
}

// errTransportClosed settles the fetches of reads still pending at Close.
var errTransportClosed = errors.New("cachemod: transport closed")

// Close drops per-process state. The module (shared by every process on
// the node) stays up, so a read abandoned between Send and Recv must not
// keep its share of the module's state: its fetch-table claims are
// aborted (joiners from other processes fall back to their own fetch
// instead of waiting forever), its join references dropped, and its
// tenant's in-flight budget returned.
func (t *CachedTransport) Close() error {
	t.mu.Lock()
	abandoned := t.pending
	t.pending = make(map[pvfs.ReqID]pendingOp)
	t.mu.Unlock()
	for _, op := range abandoned {
		if op.read != nil {
			t.abandon(op.read, errTransportClosed)
		}
	}
	return nil
}

// abandon gives up a read that will never complete: its in-flight claims
// are settled with err, its join references dropped, and its tenant's
// budget returned. No drain is needed: responses demultiplex by tag and
// the reply channels are buffered, so an abandoned fetch cannot stall
// others; the read forgets those channels, which are still owed a Result.
func (t *CachedTransport) abandon(pr *pendingRead, err error) {
	for _, f := range pr.fetches {
		t.m.settle(f.runs, err)
	}
	pr.dropReplies()
	for _, w := range pr.waits {
		w.st.decref()
	}
	pr.releaseBudget()
}

// --- read path ---

// classifyMiss classifies one block span of a read that missed the cache:
// an in-flight fetch (another process's miss or a prefetch) becomes a join,
// a global-cache hit lands immediately, and everything else is an owned
// miss left in pr.owned for fetching. dst is the span's destination: its
// slice of the request's sink.
func (t *CachedTransport) classifyMiss(sp blockio.Span, dst []byte, pr *pendingRead) {
	st, owner := t.m.claim(sp.Key, false)
	o := tgtSpan{sp: sp, dst: dst, st: st}
	if !owner {
		pr.waits = append(pr.waits, o)
		return
	}
	// Global-cache extension: probe the block's home node before resorting
	// to the iod. A read-around request skips the probe: its blocks must
	// not be installed here, and a stream hammering the peer ring would
	// displace exactly the shared blocks the ring exists for.
	if t.m.gcNode != nil && pr.policy != pvfs.CacheNone && t.m.landFromPeer(pr.iod, o, pr.policy) {
		return
	}
	pr.owned = append(pr.owned, o)
}

// sendRead runs the cache FSM for a read: one ReadBlocks from libpvfs,
// carrying an extent per striping piece of the operation that lands on
// this iod. Each block span of every extent classifies as a cache hit, a
// join on an in-flight fetch, or a miss this process must fetch, and all
// the misses leave in a single vectored sub-request: a cached block in the
// middle of the request costs an extent boundary, not an extra round trip.
// Every span writes straight into its slice of sink (one slice per
// extent) and the reply is a shared status-only message. ok is false, with
// nothing issued, when sink does not tile the request.
func (t *CachedTransport) sendRead(iod int, req *wire.ReadBlocks, sink [][]byte) (op pendingOp, ok bool, err error) {
	file, exts := req.File, req.Exts
	if len(sink) != len(exts) {
		return pendingOp{}, false, nil
	}
	for i, e := range exts {
		if int64(len(sink[i])) != e.Length {
			return pendingOp{}, false, nil
		}
	}
	// The extents are attacker-controlled at this boundary (the same
	// hostile-allocation guard the iod and the wire decoders apply): reject
	// anything that could not be framed back in a response before spanning
	// it.
	total, valid := wire.ValidateExtents(exts)
	if !valid {
		return pendingOp{ready: &readvStatus[wire.StatusBadRequest]}, true, nil
	}
	bs := t.m.buf.BlockSize()
	nblocks := 0
	for _, e := range exts {
		if e.Length > 0 {
			_, count := blockio.BlockRange(e.Offset, e.Length, bs)
			nblocks += int(count)
		}
	}
	var firstOff int64
	if len(exts) > 0 {
		firstOff = exts[0].Offset
	}
	rt := t.m.traceStart("read", file, firstOff, total)
	policy, ts := t.m.file(file).hints()
	qos, budgetOK := t.m.acquireFetchBudget(ts, nblocks)
	if !budgetOK {
		rt.finishf("shed overload tenant=%d (%d blocks over budget)", ts.id(), nblocks)
		return pendingOp{ready: &readvStatus[wire.StatusOverload]}, true, nil
	}
	var pr *pendingRead // taken at the first span the cache cannot serve
	for i, e := range exts {
		it := blockio.IterSpans(file, e.Offset, e.Length, bs)
		for sp, more := it.Next(); more; sp, more = it.Next() {
			dst := sink[i][sp.Pos : sp.Pos+int64(sp.Len)]
			if hit, prefetched := t.m.buf.ReadSpanDemand(sp.Key, sp.Off, dst); hit {
				if prefetched {
					t.m.ctr.prefetchHits.Inc()
				}
				continue
			}
			if pr == nil {
				pr = t.takeRead()
				pr.iod, pr.policy = iod, policy
				pr.qos, pr.qosBlocks, pr.trace = qos, nblocks, rt
			}
			t.classifyMiss(sp, dst, pr)
		}
	}
	if pr != nil && len(pr.owned)+len(pr.waits) == 0 {
		t.putRead(pr) // every miss landed from a global-cache peer
		pr = nil
	}
	if pr == nil {
		// Entire request served from the cache: the response is ready now;
		// libpvfs's receive call will be faked locally.
		qos.releaseFetch(nblocks)
		t.m.ctr.readFullHits.Inc()
		rt.finishf("full cache hit")
		return pendingOp{ready: &readvStatus[wire.StatusOK]}, true, nil
	}
	rt.hop("classified: %d blocks over %d extents, %d joins, %d misses", nblocks, len(exts), len(pr.waits), len(pr.owned))
	err = t.m.issueAll(&pr.fetchScratch, iod, file, policy != pvfs.CacheNone)
	t.m.ctr.readSubrequests.Add(int64(len(pr.fetches)))
	t.m.ctr.readVectorFetches.Add(int64(len(pr.fetches)))
	if err != nil {
		// issueAll settled the batches it did not issue; abandon settles
		// the fetches in flight.
		t.abandon(pr, err)
		t.putRead(pr)
		rt.finishf("issue error: %v", err)
		return pendingOp{}, false, err
	}
	rt.hop("issued %d fetches", len(pr.fetches))
	return pendingOp{read: pr}, true, nil
}

// completeRead lands the pending fetches, resolves the joins, and returns
// the request's status-only reply.
func (t *CachedTransport) completeRead(pr *pendingRead) (wire.Message, error) {
	// The request stops being in flight when this returns, success or not:
	// every fetch has landed or aborted and every join resolved, so the
	// tenant's budget charge is returned on all paths.
	defer pr.releaseBudget()
	var firstErr error
	for _, f := range pr.fetches {
		if err := t.m.land(f, pr.policy, <-f.ch); err != nil {
			if firstErr == nil {
				firstErr = err
			}
			pr.trace.hop("fetch iod=%d failed: %v", f.iod, err)
			continue
		}
		pr.trace.hop("fetch iod=%d landed (%d runs)", f.iod, len(f.runs))
	}
	for _, w := range pr.waits {
		if !t.m.awaitJoin(w) {
			// Nothing usable was published: fetch synchronously ourselves.
			if err := t.m.fetchBlockSpan(pr.iod, w.sp.Key, w.sp.Off, w.dst, pr.policy); err != nil && firstErr == nil {
				firstErr = err
			}
		}
	}
	if len(pr.waits) > 0 {
		pr.trace.hop("resolved %d joins", len(pr.waits))
	}
	if firstErr != nil {
		pr.trace.finishf("error: %v", firstErr)
		return nil, firstErr
	}
	pr.trace.finishf("ok")
	return &readvStatus[wire.StatusOK], nil
}

// --- write path ---

// sendWrite performs the write on the cache and fakes the acknowledgment;
// the flusher propagates the data later. Every write takes this path: a
// span that finds no frame waits for flush progress (the paper's "writes
// may need to block for availability of cache space"), and one that sees
// none for WriteStall is shed with StatusOverload — its bytes never reach
// the iod, and the client's overload retry re-issues the operation. A
// don't-cache file's writes are buffered like any other: going around the
// cache would leave an older resident copy for the next read, or for a
// later flush to write over the new bytes at the iod.
func (t *CachedTransport) sendWrite(iod int, req *wire.Write) (pendingOp, error) {
	policy, ts := t.m.file(req.File).hints()
	if policy == pvfs.CacheNone {
		policy = pvfs.CacheDefault // a write's read-modify-write admits (see writeSpan)
	}
	rt := t.m.traceStart("write", req.File, req.Offset, int64(len(req.Data)))
	if t.m.shedWrite(ts) {
		// Overload shed: the tenant is over its dirty-frame quota and the
		// flusher made no room within OverloadStall. Shedding happens
		// before any span is buffered, so the whole operation is cleanly
		// re-issuable by the client's retry loop.
		rt.finishf("shed overload tenant=%d (%d dirty)", ts.id(), t.m.buf.DirtyCountTenant(ts.id()))
		return pendingOp{ready: writeAckShed}, nil
	}
	spans := 0
	it := blockio.IterSpans(req.File, req.Offset, int64(len(req.Data)), t.m.buf.BlockSize())
	for sp, more := it.Next(); more; sp, more = it.Next() {
		src := req.Data[sp.Pos : sp.Pos+int64(sp.Len)]
		if err := t.writeSpan(iod, sp, src, ts.id(), policy); errors.Is(err, wire.ErrOverload) {
			rt.finishf("shed: %v", err)
			return pendingOp{ready: writeAckShed}, nil
		} else if err != nil {
			rt.finishf("error: %v", err)
			return pendingOp{}, err
		}
		spans++
	}
	// Keep the flusher ahead of demand when the dirty list grows large.
	if t.m.buf.DirtyCount() > t.m.buf.Capacity()/2 {
		t.m.kickAllStreams()
	}
	t.m.ctr.writesBuffered.Inc()
	rt.finishf("buffered %d spans", spans)
	return pendingOp{ready: writeAckOK}, nil
}

// writeSpan applies one block span to the cache, handling read-modify-
// write and cache-full conditions. Dirty frames are charged to tenant
// (the per-principal quota and the flusher's weighted scheduling key on
// that attribution); policy admits the block a read-modify-write fetches —
// pinned for a must-cache file, never read-around, since the merge
// converges only against a resident block. A span that finds no frame
// waits for flush progress, retrying at every flush ack or harvest, and
// fails with wire.ErrOverload after WriteStall passes with none, so the
// operation is shed; a failed read-modify-write fetch fails it with the
// fetch's error (an overloaded iod's included).
func (t *CachedTransport) writeSpan(iod int, sp blockio.Span, src []byte, tenant uint32, policy pvfs.CachePolicy) error {
	write := func() buffer.Outcome { return t.m.buf.WriteSpanTenant(sp.Key, iod, sp.Off, src, true, tenant) }
	for out := write(); ; {
		switch out {
		case buffer.OutcomeOK:
			return nil
		case buffer.OutcomeNeedFetch:
			// Another process may already be fetching this block: let it
			// land and retry the merge.
			if !t.m.awaitFetch(sp.Key) {
				if err := t.m.fetchBlockSpan(iod, sp.Key, 0, nil, policy); err != nil {
					return err
				}
			}
			out = write()
		case buffer.OutcomeNoSpace:
			kick(t.m.harvestKick)
			t.m.kickAllStreams()
			t.m.ctr.writeStalls.Inc()
			if !t.m.await(t.m.cfg.WriteStall, func(signalled bool) (done, progressed bool) {
				out = write()
				return out != buffer.OutcomeNoSpace, signalled
			}) {
				return fmt.Errorf("cachemod: no flush progress for %v: %w", t.m.cfg.WriteStall, wire.ErrOverload)
			}
		}
	}
}

// --- sync-write path ---

// sendSyncWrite propagates the write both to the cache and to the iod; the
// iod invalidates every other cache before acknowledging. The local cache
// copy is updated as clean (the iod already holds these bytes when the ack
// arrives), whatever the file's cache policy. The write is sent only once
// no flush of its blocks snapshotted before its cache write is in flight,
// so that older flush cannot land at the iod after it. That is the writes'
// wait for flush progress: when WriteStall passes with none, nothing is
// sent and the operation is shed with StatusOverload — and its bytes are
// buffered as a write's, so what the cache already shows still reaches
// the iod.
func (t *CachedTransport) sendSyncWrite(iod int, req *wire.SyncWrite) (pendingOp, error) {
	it := blockio.IterSpans(req.File, req.Offset, int64(len(req.Data)), t.m.buf.BlockSize())
	for sp, more := it.Next(); more; sp, more = it.Next() {
		// A span that finds no frame, or a resident partial block whose gap
		// it cannot merge, is skipped here and settled after the reply.
		t.m.buf.WriteSpan(sp.Key, iod, sp.Off, req.Data[sp.Pos:sp.Pos+int64(sp.Len)], false)
		stamp := t.m.buf.WriteStamp(sp.Key)
		pending := func(signalled bool) (done, progressed bool) { return !t.m.buf.FlushPending(sp.Key, stamp), signalled }
		if done, _ := pending(false); done || t.m.await(t.m.cfg.WriteStall, pending) {
			continue
		}
		t.rewriteSync(iod, req, true, true)
		return pendingOp{ready: syncAckShed}, nil
	}
	ch, err := t.goCall(iod, req)
	if err != nil {
		return pendingOp{}, err
	}
	t.m.ctr.syncWrites.Inc()
	return pendingOp{call: ch, sync: req, iod: iod}, nil
}

// rewriteSync settles every span of a sync-write in the cache. Recv calls
// it once the reply is in. After an OK ack (keep) it writes each span
// again: that lands a span skipped at the send in a block a fetch
// completed since, and a span that still cannot land moves its key's
// write stamp and drops a clean copy, so a fetch of the block claimed
// before the reply carries the old image and is refused at install.
// Moving the stamp before the send would not do: a fetch claimed between
// the move and the iod's write still reads the old bytes. After an error
// status or a failed call the iod may not hold the bytes, so each span
// only moves its stamp and drops the clean copy the send wrote. A shed
// sync-write calls it with keep and dirty set, buffering its bytes as a
// write's.
func (t *CachedTransport) rewriteSync(iod int, req *wire.SyncWrite, keep, dirty bool) {
	it := blockio.IterSpans(req.File, req.Offset, int64(len(req.Data)), t.m.buf.BlockSize())
	for sp, more := it.Next(); more; sp, more = it.Next() {
		if !keep || t.m.buf.WriteSpan(sp.Key, iod, sp.Off, req.Data[sp.Pos:sp.Pos+int64(sp.Len)], dirty) != buffer.OutcomeOK && !dirty {
			t.m.buf.InvalidateClean(sp.Key)
		}
	}
}
