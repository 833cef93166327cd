package cachemod

import (
	"errors"
	"fmt"
	"sync"
	"time"

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
	// re-making them.
	free []*pendingRead
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
// to every admission decision for the file.
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
	ready wire.Message      // response already known (fake ack, full cache hit)
	read  *pendingRead      // read with outstanding transfers
	call  <-chan rpc.Result // passthrough round trip
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
)

// pendingRead tracks a read whose missing pieces are in flight. Every
// span of the request resolved its destination slice — a region of the
// request's sink — at classification time. A read served entirely from
// the cache never has one; the others take theirs from the transport's
// free list and return it when Recv completes them.
type pendingRead struct {
	iod     int
	owned   []tgtSpan // misses this request fetches; the fetches' runs alias it
	fetches []fetch
	waits   []tgtSpan // joins: spans riding another owner's fetch
	admit   admitMode // admission decision, fixed once per request

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
	clear(pr.owned)
	clear(pr.fetches)
	clear(pr.waits)
	*pr = pendingRead{owned: pr.owned[:0], fetches: pr.fetches[:0], waits: pr.waits[:0]}
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
		ch, cerr := t.m.data[iod].Go(req)
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
// the result channel is buffered, so an abandoned fetch cannot stall
// others.
func (t *CachedTransport) abandon(pr *pendingRead, err error) {
	for _, f := range pr.fetches {
		t.m.settle(f.runs, err)
	}
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
	if t.m.gcNode != nil && pr.admit != admitNever && t.m.landFromPeer(pr.iod, o, pr.admit) {
		return
	}
	pr.owned = append(pr.owned, o)
}

// issueFetches puts the owned miss spans on the wire as one vectored
// ReadBlocks carrying every run of consecutive blocks as an extent
// (several fetches when the runs outgrow one response frame). The
// sub-requests of a request are all in flight before the first response is
// awaited.
func (t *CachedTransport) issueFetches(file blockio.FileID, pr *pendingRead) error {
	batches := groupRuns(pr.owned, maxFetchBlocks(t.m.buf.BlockSize()))
	for i, batch := range batches {
		f, err := t.m.issue(pr.iod, file, batch, pr.admit != admitNever)
		if err != nil {
			// issue settled the failing batch and the caller abandons the
			// fetches in flight; the batches not yet issued hold claims too,
			// and later readers of those blocks would wait on them forever.
			for _, rest := range batches[i+1:] {
				t.m.settle(rest, err)
			}
			return err
		}
		pr.fetches = append(pr.fetches, f)
		t.m.ctr.readSubrequests.Inc()
		t.m.ctr.readVectorFetches.Inc()
	}
	return nil
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
	fs := t.m.file(file)
	_, ts := fs.hints()
	qos, budgetOK := t.m.acquireFetchBudget(ts, nblocks)
	if !budgetOK {
		rt.finishf("shed overload tenant=%d (%d blocks over budget)", ts.id(), nblocks)
		return pendingOp{ready: &readvStatus[wire.StatusOverload]}, true, nil
	}
	admit, streaming := t.m.readAdmitMode(fs)
	if streaming {
		t.m.ctr.streamBypasses.Inc()
	}
	var pr *pendingRead // taken at the first span the cache cannot serve
	for i, e := range exts {
		it := blockio.IterSpans(file, e.Offset, e.Length, bs)
		for sp, more := it.Next(); more; sp, more = it.Next() {
			dst := sink[i][sp.Pos : sp.Pos+int64(sp.Len)]
			if t.m.buf.ReadSpan(sp.Key, sp.Off, dst) {
				t.m.notePrefetchHit(sp.Key)
				continue
			}
			if pr == nil {
				pr = t.takeRead()
				pr.iod, pr.admit = iod, admit
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
	if err := t.issueFetches(file, pr); err != nil {
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
		if err := t.m.land(f, pr.admit, <-f.ch); err != nil {
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
			if err := t.m.fetchBlockSpan(pr.iod, w.sp.Key, w.sp.Off, w.dst, pr.admit == admitMust); err != nil && firstErr == nil {
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
// the flusher propagates the data later. A write that cannot get cache
// space blocks (bounded by WriteStall) and finally falls back to writing
// through, which matches the paper's "writes may need to block for
// availability of cache space" behaviour for requests larger than the
// cache.
func (t *CachedTransport) sendWrite(iod int, req *wire.Write) (pendingOp, error) {
	if !t.m.WriteBehind() {
		ch, err := t.m.data[iod].Go(req)
		return pendingOp{call: ch}, err
	}
	policy, ts := t.m.file(req.File).hints()
	if policy == pvfs.CacheNone {
		// Write-around: a don't-cache file's writes go straight through —
		// buffering them would dirty frames for data the application
		// declared it will not reuse, and the flusher would pay to drain
		// them anyway.
		ch, err := t.m.data[iod].Go(req)
		if err != nil {
			return pendingOp{}, err
		}
		t.m.ctr.writeAround.Inc()
		return pendingOp{call: ch}, nil
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
	deadline := time.Now().Add(t.m.cfg.WriteStall)
	spans := 0
	it := blockio.IterSpans(req.File, req.Offset, int64(len(req.Data)), t.m.buf.BlockSize())
	for sp, more := it.Next(); more; sp, more = it.Next() {
		src := req.Data[sp.Pos : sp.Pos+int64(sp.Len)]
		if err := t.writeSpan(iod, sp, src, deadline, ts.id(), policy == pvfs.CacheMust); err != nil {
			rt.finishf("error: %v", err)
			return pendingOp{}, err
		}
		spans++
	}
	// Keep the flusher ahead of demand when the dirty list grows large.
	if t.m.buf.DirtyCount() > t.m.buf.Capacity()/2 {
		t.m.kickFlusher()
	}
	t.m.ctr.writesBuffered.Inc()
	rt.finishf("buffered %d spans", spans)
	return pendingOp{ready: writeAckOK}, nil
}

// writeSpan applies one block span to the cache, handling read-modify-
// write and cache-full conditions. Dirty frames are charged to tenant
// (the per-principal quota and the flusher's weighted scheduling key on
// that attribution); must is the file's must-cache hint, for the block a
// read-modify-write fetches.
func (t *CachedTransport) writeSpan(iod int, sp blockio.Span, src []byte, deadline time.Time, tenant uint32, must bool) error {
	for {
		switch t.m.buf.WriteSpanTenant(sp.Key, iod, sp.Off, src, true, tenant) {
		case buffer.OutcomeOK:
			return nil
		case buffer.OutcomeNeedFetch:
			// Another process may already be fetching this block: let it
			// land and retry the merge.
			if t.m.awaitFetch(sp.Key) {
				continue
			}
			if err := t.m.fetchBlockSpan(iod, sp.Key, 0, nil, must); err != nil {
				// Cannot complete the merge: write this span through.
				return t.writeThrough(iod, sp, src)
			}
		case buffer.OutcomeNoSpace:
			t.m.kickHarvester()
			t.m.kickFlusher()
			t.m.ctr.writeStalls.Inc()
			if !t.m.waitForSpace(deadline) {
				return t.writeThrough(iod, sp, src)
			}
		}
	}
}

// writeThrough sends one span straight to the iod, bypassing the cache.
func (t *CachedTransport) writeThrough(iod int, sp blockio.Span, src []byte) error {
	t.m.ctr.writeThrough.Inc()
	res := t.m.data[iod].Call(&wire.Write{
		Client: t.m.cfg.ClientID,
		File:   sp.Key.File,
		Offset: sp.FileOffset(t.m.buf.BlockSize()),
		Data:   src,
	})
	if res.Err != nil {
		return res.Err
	}
	ack, ok := res.Msg.(*wire.WriteAck)
	if !ok {
		return fmt.Errorf("cachemod: unexpected write-through reply %v", res.Msg.WireType())
	}
	return ack.Status.Err()
}

// --- sync-write path ---

// sendSyncWrite propagates the write both to the cache and to the iod; the
// iod invalidates every other cache before acknowledging. The local cache
// copy is updated as clean (the iod already holds these bytes when the ack
// arrives).
func (t *CachedTransport) sendSyncWrite(iod int, req *wire.SyncWrite) (pendingOp, error) {
	var it blockio.SpanIter // write-around: the iod gets the data, the cache does not
	if policy, _ := t.m.file(req.File).hints(); policy != pvfs.CacheNone {
		it = blockio.IterSpans(req.File, req.Offset, int64(len(req.Data)), t.m.buf.BlockSize())
	}
	for sp, more := it.Next(); more; sp, more = it.Next() {
		src := req.Data[sp.Pos : sp.Pos+int64(sp.Len)]
		switch t.m.buf.WriteSpan(sp.Key, iod, sp.Off, src, false) {
		case buffer.OutcomeOK:
		case buffer.OutcomeNeedFetch:
			// Merging would leave an unknown gap inside the block. The
			// resident valid bytes are untouched by this write, so they
			// remain correct; simply skip caching the new span rather than
			// fetch on the critical path of a coherent write.
		case buffer.OutcomeNoSpace:
			// Not cacheable right now; the server still gets the data.
		}
	}
	ch, err := t.m.data[iod].Go(req)
	if err != nil {
		return pendingOp{}, err
	}
	t.m.ctr.syncWrites.Inc()
	return pendingOp{call: ch}, nil
}
