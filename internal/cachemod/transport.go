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
	pending map[pvfs.ReqID]*pendingOp
}

// NewTransport returns a transport for one application process.
func (m *Module) NewTransport() *CachedTransport {
	return &CachedTransport{m: m, next: 1, pending: make(map[pvfs.ReqID]*pendingOp)}
}

// StripeHint implements pvfs.StripeHinter: libpvfs announces a file's
// striping geometry whenever it opens or refreshes a file, which is what
// lets the module's readahead prefetcher route upcoming blocks to the
// iods that hold them.
func (t *CachedTransport) StripeHint(file blockio.FileID, meta wire.FileMeta, totalIODs int) {
	t.m.SetStripeHint(file, meta, totalIODs)
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
// file's per-open cache-policy hint (don't-cache / must-cache / default)
// and the module applies it to every admission decision for the file.
func (t *CachedTransport) CachePolicyHint(file blockio.FileID, policy pvfs.CachePolicy) {
	t.m.SetCachePolicy(file, policy)
}

// TenantHint implements pvfs.TenantHinter: libpvfs forwards a file's
// per-open tenant (principal) tag and scheduling weight, and the module
// charges the file's dirty frames and in-flight fetches to that principal
// (see qos.go).
func (t *CachedTransport) TenantHint(file blockio.FileID, tenant uint32, weight int) {
	t.m.SetTenant(file, tenant, weight)
}

// pendingOp is the per-request FSM state between Send and Recv.
type pendingOp struct {
	ready wire.Message      // response already known (fake ack, full cache hit)
	read  *pendingRead      // read with outstanding transfers
	call  <-chan rpc.Result // passthrough round trip
}

// pendingRead tracks a read whose missing pieces are in flight. Every
// span of the request resolved its destination slice — a region of the
// request's sink — at classification time. For a vectored request
// (libpvfs sent a ReadBlocks) lens carries the per-extent byte counts for
// the response.
type pendingRead struct {
	data    []byte // reply payload of a plain Send; nil when the caller supplied the sink
	fetches []fetch
	waits   []spanWait
	vector  bool
	lens    []uint32
	admit   admitMode // admission decision, fixed once per request

	// qos is the tenant state charged qosBlocks in-flight read blocks at
	// classification time (nil when budgets are off); trace is the armed
	// per-request trace, nil when disarmed.
	qos       *tenantState
	qosBlocks int
	trace     *reqTrace
}

// releaseBudget returns the request's in-flight read-block charge to its
// tenant. Idempotent: every exit from the read FSM — full hit, completed,
// issue error — calls it exactly where the request stops being in flight.
func (pr *pendingRead) releaseBudget() {
	if pr.qos != nil {
		pr.qos.inflight.Add(-int64(pr.qosBlocks))
		pr.qos = nil
	}
}

// reply builds the request's response: a ReadBlocksResp for a vectored
// request, a ReadResp for a plain one. It is status-only when the caller
// supplied the sink — its buffers already hold every byte — and when the
// request was refused (lens and data are set only once it is admitted).
func (pr *pendingRead) reply(status wire.Status) wire.Message {
	if pr.vector {
		return &wire.ReadBlocksResp{Status: status, Lens: pr.lens, Data: pr.data}
	}
	return &wire.ReadResp{Status: status, Data: pr.data}
}

// tgtSpan is one block span of the request together with the destination
// it must be copied to.
type tgtSpan struct {
	sp  blockio.Span
	dst []byte
}

// fetchRun is a run of consecutive missing blocks this process owns: one
// extent of a vectored fetch.
type fetchRun struct {
	firstIdx int64
	keys     []blockio.BlockKey
	states   []*fetchState
	spans    []tgtSpan // request spans served by this run
}

// fetch is one network round trip issued for a request's missing blocks:
// a ReadBlocks carrying every run as an extent.
type fetch struct {
	iod  int
	ch   <-chan rpc.Result
	runs []fetchRun
}

// ownedSpan pairs a missing span with the fetch-table entry this process
// claimed for its block.
type ownedSpan struct {
	sp  blockio.Span
	dst []byte
	st  *fetchState
}

// spanWait is a span whose block another process (or the prefetcher) is
// already fetching. The waiter holds a fetchState reference (acquired
// under fetchMu at join time) and must decref exactly once after done.
type spanWait struct {
	key blockio.BlockKey
	off int
	dst []byte
	st  *fetchState
	iod int
}

// Send implements pvfs.Transport. For reads and writes it runs the cache
// FSM; any other message passes through to the iod untouched, keeping the
// module transparent to protocol extensions.
func (t *CachedTransport) Send(iod int, req wire.Message) (pvfs.ReqID, error) {
	if iod < 0 || iod >= len(t.m.data) {
		return 0, fmt.Errorf("cachemod: iod index %d out of range", iod)
	}
	var op *pendingOp
	var err error
	switch r := req.(type) {
	case *wire.Read, *wire.ReadBlocks:
		// A read that did not come through SendRead (module tests, a
		// wrapper that does not forward pvfs.ReadSinker): with no sink the
		// FSM scatters into the reply's own payload.
		op, _, err = t.sendRead(iod, req, nil)
	case *wire.Write:
		op, err = t.sendWrite(iod, r)
	case *wire.SyncWrite:
		op, err = t.sendSyncWrite(iod, r)
	default:
		ch, cerr := t.m.data[iod].Go(req)
		if cerr != nil {
			return 0, cerr
		}
		op = &pendingOp{call: ch}
	}
	if err != nil {
		return 0, err
	}
	return t.register(op), nil
}

// SendRead implements pvfs.ReadSinker: the zero-copy read entry point.
// sink carries one destination slice per extent of the request (a single
// slice for a plain Read), and the FSM scatters every byte — cache hits,
// fetch joins, fetched runs — directly into them; the Recv response is
// then status-only. It declines (ok=false, caller falls back to
// Send/Recv) when the message is not a read or the sink does not tile the
// request.
func (t *CachedTransport) SendRead(iod int, req wire.Message, sink [][]byte) (pvfs.ReqID, bool, error) {
	if iod < 0 || iod >= len(t.m.data) {
		return 0, false, fmt.Errorf("cachemod: iod index %d out of range", iod)
	}
	if sink == nil {
		return 0, false, nil // nil is Send's spelling of "reply carries the bytes"
	}
	op, ok, err := t.sendRead(iod, req, sink)
	if err != nil || !ok {
		return 0, false, err
	}
	return t.register(op), true, nil
}

// register files a pending op and returns its request id.
func (t *CachedTransport) register(op *pendingOp) pvfs.ReqID {
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
		return t.completeRead(op.read)
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
	t.pending = make(map[pvfs.ReqID]*pendingOp)
	t.mu.Unlock()
	for _, op := range abandoned {
		if pr := op.read; pr != nil {
			t.abortFetches(pr.fetches, errTransportClosed)
			for _, w := range pr.waits {
				w.st.decref()
			}
			pr.releaseBudget()
		}
	}
	return nil
}

// --- read path ---

// classifySpan classifies one block span of a read: a cache hit copies
// into dst now, an in-flight fetch (another process's miss or a prefetch)
// becomes a join, a global-cache hit is installed immediately, and
// everything else is an owned miss returned to the caller for fetching.
// dst is the span's destination: its slice of the request's sink.
func (t *CachedTransport) classifySpan(iod int, sp blockio.Span, dst []byte, pr *pendingRead, owned []ownedSpan) []ownedSpan {
	if t.m.buf.ReadSpan(sp.Key, sp.Off, dst) {
		t.m.notePrefetchHit(sp.Key)
		return owned
	}
	// The write stamp is snapshotted before the fetch is registered (and
	// so before any iod or peer reads the block on our behalf): a write
	// applied after this point — even one flushed and evicted before the
	// fetch lands — moves the stamp and forces the install to re-read.
	stamp := t.m.buf.WriteStamp(sp.Key)
	t.m.fetchMu.Lock()
	if st := t.m.fetches[sp.Key]; st != nil {
		// Join: the data reference must be acquired while the entry is
		// still in the table, so the owner (who removes it before dropping
		// its own reference) can never drain the count under us.
		st.refs.Add(1)
		t.m.fetchMu.Unlock()
		pr.waits = append(pr.waits, spanWait{key: sp.Key, off: sp.Off, dst: dst, st: st, iod: iod})
		return owned
	}
	st := newFetchState(false)
	st.stamp = stamp
	t.m.fetches[sp.Key] = st
	t.m.fetchMu.Unlock()
	// Global-cache extension: probe the block's home node before
	// resorting to the iod. A read-around request skips the probe: its
	// blocks must not be installed here, and a stream hammering the peer
	// ring would displace exactly the shared blocks the ring exists for.
	if t.m.gcNode != nil && pr.admit != admitNever {
		bs := t.m.buf.BlockSize()
		data, mem := lease(&t.m.blocks, bs)
		// A healthy peer always serves a whole block; anything else is a
		// buggy or hostile response whose bytes must not be installed or
		// sliced (an oversize block would panic InstallFetched, a short
		// one the span copy). Fall through to the iod fetch instead.
		if n, ok := t.m.gcNode.Get(sp.Key, data); ok && n != bs {
			t.m.cfg.Registry.Counter("module.gcache_bad_resp").Inc()
		} else if ok {
			// Resident bytes outrank the peer copy; a stale install (the
			// block was written here since the probe began) falls through
			// to the iod fetch, which revalidates against a fresh stamp.
			if t.m.buf.InstallFetchedAdmit(sp.Key, iod, data, pr.admit == admitMust, st.stamp) != buffer.OutcomeStale {
				st.finalStamp = st.stamp
				copy(dst, data[sp.Off:sp.Off+sp.Len])
				t.m.publishFetched(st, sp.Key, data, mem)
				st.decref()   // the owner's hold; joiners keep the block alive
				mem.release() // the creator's hold
				t.m.cfg.Registry.Counter("module.gcache_hits").Inc()
				return owned
			}
		}
		mem.release()
	}
	return append(owned, ownedSpan{sp: sp, dst: dst, st: st})
}

// issueFetches groups the owned miss spans into runs of consecutive block
// indices and puts them on the wire as one vectored ReadBlocks carrying
// every run as an extent (several when the runs outgrow one response
// frame). The sub-requests of a request are all in flight before the
// first response is awaited.
func (t *CachedTransport) issueFetches(iod int, file blockio.FileID, owned []ownedSpan, pr *pendingRead) error {
	if len(owned) == 0 {
		return nil
	}
	bs := t.m.buf.BlockSize()
	var runs []fetchRun
	for start := 0; start < len(owned); {
		end := start + 1
		for end < len(owned) && owned[end].sp.Key.Index == owned[end-1].sp.Key.Index+1 {
			end++
		}
		group := owned[start:end]
		run := fetchRun{firstIdx: group[0].sp.Key.Index}
		for _, o := range group {
			run.keys = append(run.keys, o.sp.Key)
			run.states = append(run.states, o.st)
			run.spans = append(run.spans, tgtSpan{sp: o.sp, dst: o.dst})
		}
		runs = append(runs, run)
		start = end
	}
	// Rounding spans up to whole blocks can inflate a fetch far past the
	// original request bytes (sub-block extents each cost a full block),
	// so bound every run — and every vectored batch of runs — by what one
	// response frame can carry, splitting into several round trips when
	// necessary.
	runs = splitRuns(runs, maxFetchBlocks(bs))

	for start := 0; start < len(runs); {
		batch := runs[start : start+1]
		blocks := len(runs[start].keys)
		for end := start + 1; end < len(runs) && blocks+len(runs[end].keys) <= maxFetchBlocks(bs); end++ {
			blocks += len(runs[end].keys)
			batch = runs[start : end+1]
		}
		exts := make([]wire.ReadExtent, len(batch))
		for i, run := range batch {
			exts[i] = wire.ReadExtent{
				Offset: run.firstIdx * int64(bs),
				Length: int64(len(run.keys)) * int64(bs),
			}
		}
		ch, err := t.m.data[iod].Go(&wire.ReadBlocks{
			Client: t.m.cfg.ClientID,
			File:   file,
			Track:  pr.admit != admitNever,
			Exts:   exts,
		})
		if err != nil {
			t.abortFetches(pr.fetches, err)
			// The failing batch AND the not-yet-issued ones: all their
			// fetch-table claims must be released, or later readers of
			// those blocks would wait forever.
			t.abortRuns(runs[start:], err)
			return err
		}
		pr.fetches = append(pr.fetches, fetch{iod: iod, ch: ch, runs: batch})
		t.m.cfg.Registry.Counter("module.read_subrequests").Inc()
		t.m.cfg.Registry.Counter("module.read_vector_fetches").Inc()
		start += len(batch)
	}
	return nil
}

// maxFetchBlocks is the most blocks one fetch (a batch of runs) may carry
// and still fit a response frame (wire.ValidateExtents' bound), with one
// block of slack.
func maxFetchBlocks(bs int) int {
	n := wire.MaxMessageSize/2/bs - 1
	if n < 1 {
		n = 1
	}
	return n
}

// splitRuns bounds every run at maxBlocks consecutive blocks, splitting
// oversized ones (a sub-block-striped request can round up to far more
// block bytes than it asked for) into several runs that fetch separately.
func splitRuns(runs []fetchRun, maxBlocks int) []fetchRun {
	out := make([]fetchRun, 0, len(runs))
	for _, run := range runs {
		if len(run.keys) <= maxBlocks {
			out = append(out, run)
			continue
		}
		spanAt := 0
		for start := 0; start < len(run.keys); start += maxBlocks {
			end := start + maxBlocks
			if end > len(run.keys) {
				end = len(run.keys)
			}
			sub := fetchRun{
				firstIdx: run.keys[start].Index,
				keys:     run.keys[start:end],
				states:   run.states[start:end],
			}
			lastIdx := run.keys[end-1].Index
			// Spans are ordered by block, so a cursor partitions them.
			spanStart := spanAt
			for spanAt < len(run.spans) && run.spans[spanAt].sp.Key.Index <= lastIdx {
				spanAt++
			}
			sub.spans = run.spans[spanStart:spanAt]
			out = append(out, sub)
		}
	}
	return out
}

// sendRead runs the cache FSM for a read. libpvfs sends a plain Read when
// one striping piece of an operation lands on an iod and a ReadBlocks when
// several do; a plain Read is a one-extent ReadBlocks, and only the reply
// type differs. Each block span of every extent classifies as a cache hit,
// a join on an in-flight fetch, or a miss this process must fetch, and all
// the misses leave in a single vectored sub-request: a cached block in the
// middle of the request costs an extent boundary, not an extra round trip.
// Every span writes straight into its slice of sink (one slice per
// extent); with a nil sink (plain Send) the reply's payload is allocated
// here and becomes the sink. ok is false, with nothing issued, when req is
// not a read or sink does not tile it.
func (t *CachedTransport) sendRead(iod int, req wire.Message, sink [][]byte) (op *pendingOp, ok bool, err error) {
	pr := &pendingRead{}
	var file blockio.FileID
	var one [1]wire.ReadExtent
	var exts []wire.ReadExtent
	kind := "read"
	switch r := req.(type) {
	case *wire.Read:
		file = r.File
		one[0] = wire.ReadExtent{Offset: r.Offset, Length: r.Length}
		exts = one[:]
	case *wire.ReadBlocks:
		file = r.File
		exts = r.Exts
		kind = "readv"
		pr.vector = true
	default:
		return nil, false, nil
	}
	if sink != nil {
		if len(sink) != len(exts) {
			return nil, false, nil
		}
		for i, e := range exts {
			if int64(len(sink[i])) != e.Length {
				return nil, false, nil
			}
		}
	}
	// The extents are attacker-controlled at this boundary (the same
	// hostile-allocation guard the iod and the wire decoders apply): reject
	// anything that could not be framed back in a response before
	// allocating or spanning it.
	total, valid := wire.ValidateExtents(exts)
	if !valid {
		return &pendingOp{ready: pr.reply(wire.StatusBadRequest)}, true, nil
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
	rt := t.m.traceStart(kind, file, firstOff, total)
	tenant := t.m.tenantOf(file)
	qos, budgetOK := t.m.acquireFetchBudget(tenant, nblocks)
	if !budgetOK {
		rt.finish(fmt.Sprintf("shed overload tenant=%d (%d blocks over budget)", tenant, nblocks))
		return &pendingOp{ready: pr.reply(wire.StatusOverload)}, true, nil
	}
	pr.admit = t.m.readAdmitMode(file)
	pr.qos = qos
	pr.qosBlocks = nblocks
	pr.trace = rt
	if sink == nil {
		pr.data = make([]byte, total)
		sink = make([][]byte, len(exts))
		rest := pr.data
		for i, e := range exts {
			sink[i] = rest[:e.Length]
			rest = rest[e.Length:]
		}
	}
	if pr.vector {
		// The cache serves every requested byte (missing data reads as
		// zero), so extents complete at full length.
		pr.lens = make([]uint32, len(exts))
		for i, e := range exts {
			pr.lens[i] = uint32(e.Length)
		}
	}
	var owned []ownedSpan // spans whose fetch this process owns
	for i, e := range exts {
		for _, sp := range blockio.Spans(file, e.Offset, e.Length, bs) {
			owned = t.classifySpan(iod, sp, sink[i][sp.Pos:sp.Pos+int64(sp.Len)], pr, owned)
		}
	}
	rt.hop("classified: %d blocks over %d extents, %d joins, %d misses", nblocks, len(exts), len(pr.waits), len(owned))
	if err := t.issueFetches(iod, file, owned, pr); err != nil {
		pr.releaseBudget()
		rt.finish(fmt.Sprintf("issue error: %v", err))
		return nil, false, err
	}
	if len(pr.fetches) == 0 && len(pr.waits) == 0 {
		// Entire request served from the cache: the response is ready now;
		// libpvfs's receive call will be faked locally.
		pr.releaseBudget()
		t.m.cfg.Registry.Counter("module.read_full_hits").Inc()
		rt.finish("full cache hit")
		return &pendingOp{ready: pr.reply(wire.StatusOK)}, true, nil
	}
	rt.hop("issued %d fetches", len(pr.fetches))
	return &pendingOp{read: pr}, true, nil
}

// completeRead waits for the pending transfers, installs fetched blocks in
// the cache, and builds the response (see pendingRead.reply).
func (t *CachedTransport) completeRead(pr *pendingRead) (wire.Message, error) {
	// The request stops being in flight when this returns, success or not:
	// every fetch has landed or aborted and every join resolved, so the
	// tenant's budget charge is returned on all paths.
	defer pr.releaseBudget()
	var firstErr error
	for _, f := range pr.fetches {
		res := <-f.ch
		if res.Err != nil {
			t.abortRuns(f.runs, res.Err)
			if firstErr == nil {
				firstErr = res.Err
			}
			pr.trace.hop("fetch iod=%d failed: %v", f.iod, res.Err)
			continue
		}
		err := t.fillFromResponse(pr, f, res.Msg)
		// The response payload has been copied into the run slabs (or
		// rejected); its leased frame buffer is dead either way.
		res.Release()
		if err != nil {
			t.abortRuns(f.runs, err)
			if firstErr == nil {
				firstErr = err
			}
			pr.trace.hop("fetch iod=%d rejected: %v", f.iod, err)
			continue
		}
		pr.trace.hop("fetch iod=%d landed (%d runs)", f.iod, len(f.runs))
	}
	for _, w := range pr.waits {
		<-w.st.done
		if w.st.err == nil && w.st.data != nil {
			copy(w.dst, w.st.data[w.off:w.off+len(w.dst)])
			// The published image carries resident bytes only as of the
			// moment the fetch landed; this request may have joined after
			// later writes were acked into the cache. Re-overlay the
			// resident valid bytes so a write that completed before this
			// read began is never answered with the pre-write snapshot.
			t.m.buf.OverlaySpan(w.key, w.off, w.dst)
			// The overlay only helps while the newer bytes are resident. If
			// the block's write stamp moved past the published image's
			// (written after the install — and possibly flushed and evicted
			// since), fall back to a synchronous fetch, which revalidates
			// against the stamp itself.
			if t.m.buf.WriteStamp(w.key) != w.st.finalStamp {
				t.m.cfg.Registry.Counter("module.join_stale_refetches").Inc()
				if err := t.m.fetchBlockSpan(w.iod, w.key, w.off, w.dst); err != nil && firstErr == nil {
					firstErr = err
				}
			}
			w.st.decref()
			t.m.cfg.Registry.Counter("module.fetch_joins").Inc()
			if w.st.prefetch {
				t.m.notePrefetchHit(w.key)
			}
			continue
		}
		w.st.decref()
		// The owner's fetch failed (or a prefetch found no stored data):
		// fall back to a synchronous fetch of our own.
		if err := t.m.fetchBlockSpan(w.iod, w.key, w.off, w.dst); err != nil {
			if firstErr == nil {
				firstErr = err
			}
		}
	}
	if len(pr.waits) > 0 {
		pr.trace.hop("resolved %d joins", len(pr.waits))
	}
	if firstErr != nil {
		pr.trace.finish(fmt.Sprintf("error: %v", firstErr))
		return nil, firstErr
	}
	pr.trace.finish("ok")
	return pr.reply(wire.StatusOK), nil
}

// fillFromResponse installs a fetch's blocks from its response message,
// publishes them to waiters, and copies the request's spans into their
// destinations. A vectored fetch can only be answered by a ReadBlocksResp
// with one entry per run. Validation runs over every run before any run
// is filled, so a hostile response is rejected whole rather than
// half-published.
func (t *CachedTransport) fillFromResponse(pr *pendingRead, f fetch, msg wire.Message) error {
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
	bs := t.m.buf.BlockSize()
	for i, run := range f.runs {
		// Decode guarantees the lengths tile Data, but only the requester
		// knows what was asked for: an overlong length would shift every
		// later run's bytes and poison the shared cache with
		// misattributed data.
		if int(rr.Lens[i]) > len(run.keys)*bs {
			return fmt.Errorf("cachemod: vectored fetch extent %d overlong (%d > %d)",
				i, int(rr.Lens[i]), len(run.keys)*bs)
		}
	}
	data := rr.Data
	for i, run := range f.runs {
		served := int(rr.Lens[i])
		if err := t.fillRun(f.iod, run, data[:served], pr.admit); err != nil {
			// fillRun settled its own run's states; the caller's
			// abortRuns sweep closes the runs that never filled.
			return err
		}
		data = data[served:]
	}
	return nil
}

// fillRun slices one run's bytes into blocks, installs each block in the
// cache (zero-padded: data past what the iod stores reads as zero),
// publishes them to joined waiters, and copies the run's request spans
// into their destinations. data aliases the fetch response's leased frame
// buffer; this is the single copy of the miss path — frame to pooled slab
// — and everything downstream (cache frame, waiters, global-cache push,
// span destinations) reads from the slab, which returns to its pool when
// the last published state's reference drains. A read-around run
// (admitNever: don't-cache hint or streaming bypass) skips the install
// and the global-cache push — the slab serves the request and any
// joiners, then returns to its pool.
func (t *CachedTransport) fillRun(iod int, run fetchRun, data []byte, admit admitMode) error {
	bs := t.m.buf.BlockSize()
	// One zero-padded slab for the whole run; the published per-block
	// buffers are read-only slices of it.
	slab, mem := lease(&t.m.slabs, len(run.keys)*bs)
	n := copy(slab, data)
	zeroFill(slab[n:]) // pooled buffers carry the previous tenant's bytes
	for i, key := range run.keys {
		blockData := slab[i*bs : (i+1)*bs]
		st := run.states[i]
		stamp := st.stamp
		for {
			// The install (or, read-around, the resident patch) presents
			// the stamp snapshotted when the fetch was issued: the image
			// must be patched with any newer resident bytes before the
			// destinations, the waiters, or the global cache see it, and
			// if the block was written mid-flight — possibly flushed and
			// evicted, leaving nothing resident to patch from — the image
			// is refused whole (OutcomeStale) and re-read from the iod
			// against a fresh stamp. The loop terminates when a re-read
			// lands with no concurrent write to its block.
			var oc buffer.Outcome
			if admit == admitNever {
				oc = t.m.buf.PatchResident(key, blockData, stamp)
			} else {
				oc = t.m.buf.InstallFetchedAdmit(key, iod, blockData, admit == admitMust, stamp)
			}
			if oc != buffer.OutcomeStale {
				break
			}
			t.m.cfg.Registry.Counter("module.fetch_stale_retries").Inc()
			stamp = t.m.buf.WriteStamp(key)
			if err := t.m.readBlockInto(iod, key, blockData); err != nil {
				// Settle this run: earlier states were published (their
				// joiners and the done-channel protocol own them; drop
				// only our hold), the rest abort with the error.
				for j := 0; j < i; j++ {
					run.states[j].decref()
				}
				t.abortRuns([]fetchRun{{keys: run.keys[i:], states: run.states[i:]}}, err)
				mem.release()
				return err
			}
		}
		st.finalStamp = stamp
		switch admit {
		case admitNever:
			t.m.buf.NoteBypass(key)
		default:
			if t.m.gcNode != nil {
				// Feed the global cache: the block's home node gets a copy
				// (made before Push returns, so the slab's lifetime is not
				// extended by the asynchronous push).
				t.m.gcNode.Push(key, iod, blockData)
			}
		}
		t.m.publishFetched(st, key, blockData, mem)
	}
	for _, ts := range run.spans {
		lo := int(ts.sp.Key.Index-run.firstIdx)*bs + ts.sp.Off
		copy(ts.dst, slab[lo:])
	}
	// Drop the owner's hold on each state now that the spans are copied;
	// joined waiters keep the slab alive until they have copied too.
	for _, st := range run.states {
		st.decref()
	}
	mem.release() // the creator's hold
	return nil
}

// abortRuns publishes a fetch failure to waiters and clears the table.
// States already published by a successful fillRun are left untouched;
// for the rest, the owner's reference is dropped with the close.
func (t *CachedTransport) abortRuns(runs []fetchRun, err error) {
	for _, run := range runs {
		for i, key := range run.keys {
			st := run.states[i]
			if st == nil {
				continue
			}
			t.m.fetchMu.Lock()
			if t.m.fetches[key] == st {
				delete(t.m.fetches, key)
			}
			t.m.fetchMu.Unlock()
			select {
			case <-st.done:
			default:
				st.err = err
				close(st.done)
				st.decref()
			}
		}
	}
}

func (t *CachedTransport) abortFetches(fs []fetch, err error) {
	for _, f := range fs {
		// No drain needed: responses demultiplex by tag and the result
		// channel is buffered, so an abandoned fetch cannot stall others.
		t.abortRuns(f.runs, err)
	}
}

// --- write path ---

// sendWrite performs the write on the cache and fakes the acknowledgment;
// the flusher propagates the data later. A write that cannot get cache
// space blocks (bounded by WriteStall) and finally falls back to writing
// through, which matches the paper's "writes may need to block for
// availability of cache space" behaviour for requests larger than the
// cache.
func (t *CachedTransport) sendWrite(iod int, req *wire.Write) (*pendingOp, error) {
	if !t.m.WriteBehind() {
		ch, err := t.m.data[iod].Go(req)
		if err != nil {
			return nil, err
		}
		return &pendingOp{call: ch}, nil
	}
	if t.m.cachePolicy(req.File) == pvfs.CacheNone {
		// Write-around: a don't-cache file's writes go straight through —
		// buffering them would dirty frames for data the application
		// declared it will not reuse, and the flusher would pay to drain
		// them anyway.
		ch, err := t.m.data[iod].Go(req)
		if err != nil {
			return nil, err
		}
		t.m.cfg.Registry.Counter("module.write_around").Inc()
		return &pendingOp{call: ch}, nil
	}
	rt := t.m.traceStart("write", req.File, req.Offset, int64(len(req.Data)))
	tenant := t.m.tenantOf(req.File)
	if t.m.shedWrite(tenant) {
		// Overload shed: the tenant is over its dirty-frame quota and the
		// flusher made no room within OverloadStall. Shedding happens
		// before any span is buffered, so the whole operation is cleanly
		// re-issuable by the client's retry loop.
		rt.finish(fmt.Sprintf("shed overload tenant=%d (%d dirty)", tenant, t.m.buf.DirtyCountTenant(tenant)))
		return &pendingOp{ready: &wire.WriteAck{Status: wire.StatusOverload}}, nil
	}
	bs := t.m.buf.BlockSize()
	spans := blockio.Spans(req.File, req.Offset, int64(len(req.Data)), bs)
	deadline := time.Now().Add(t.m.cfg.WriteStall)
	for _, sp := range spans {
		src := req.Data[sp.Pos : sp.Pos+int64(sp.Len)]
		if err := t.writeSpan(iod, sp, src, deadline, tenant); err != nil {
			rt.finish(fmt.Sprintf("error: %v", err))
			return nil, err
		}
	}
	// Keep the flusher ahead of demand when the dirty list grows large.
	if t.m.buf.DirtyCount() > t.m.buf.Capacity()/2 {
		t.m.kickFlusher()
	}
	t.m.cfg.Registry.Counter("module.writes_buffered").Inc()
	rt.finish(fmt.Sprintf("buffered %d spans", len(spans)))
	return &pendingOp{ready: &wire.WriteAck{Status: wire.StatusOK}}, nil
}

// writeSpan applies one block span to the cache, handling read-modify-
// write and cache-full conditions. Dirty frames are charged to tenant
// (the per-principal quota and the flusher's weighted scheduling key on
// that attribution).
func (t *CachedTransport) writeSpan(iod int, sp blockio.Span, src []byte, deadline time.Time, tenant uint32) error {
	for {
		switch t.m.buf.WriteSpanTenant(sp.Key, iod, sp.Off, src, true, tenant) {
		case buffer.OutcomeOK:
			return nil
		case buffer.OutcomeNeedFetch:
			// Another process may already be fetching this block.
			t.m.fetchMu.Lock()
			st := t.m.fetches[sp.Key]
			t.m.fetchMu.Unlock()
			if st != nil {
				// Wait for the in-flight fetch to land; no data reference
				// is taken (the retry reads the cache, not st.data).
				<-st.done
				continue
			}
			if err := t.m.fetchBlockSpan(iod, sp.Key, 0, nil); err != nil {
				// Cannot complete the merge: write this span through.
				return t.writeThrough(iod, sp, src)
			}
		case buffer.OutcomeNoSpace:
			t.m.kickHarvester()
			t.m.kickFlusher()
			t.m.cfg.Registry.Counter("module.write_stalls").Inc()
			if !t.m.waitForSpace(deadline) {
				return t.writeThrough(iod, sp, src)
			}
		}
	}
}

// writeThrough sends one span straight to the iod, bypassing the cache.
func (t *CachedTransport) writeThrough(iod int, sp blockio.Span, src []byte) error {
	t.m.cfg.Registry.Counter("module.write_through").Inc()
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
func (t *CachedTransport) sendSyncWrite(iod int, req *wire.SyncWrite) (*pendingOp, error) {
	bs := t.m.buf.BlockSize()
	spans := blockio.Spans(req.File, req.Offset, int64(len(req.Data)), bs)
	if t.m.cachePolicy(req.File) == pvfs.CacheNone {
		spans = nil // write-around: the iod gets the data, the cache does not
	}
	for _, sp := range spans {
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
		return nil, err
	}
	t.m.cfg.Registry.Counter("module.sync_writes").Inc()
	return &pendingOp{call: ch}, nil
}
