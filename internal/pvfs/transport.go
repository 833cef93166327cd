package pvfs

import (
	"fmt"
	"sync"

	"pvfscache/internal/blockio"
	"pvfscache/internal/rpc"
	"pvfscache/internal/transport"
	"pvfscache/internal/wire"
)

// ReqID names one outstanding iod request issued through a Transport.
type ReqID uint64

// Transport carries libpvfs's split-phase iod traffic. The library first
// sends every per-iod request of an operation, then Recvs the responses —
// exactly the aggregate-then-wait socket discipline the paper describes.
// Reads go through SendRead (ReadSinker), writes and everything else
// through Send. The cache module implements this interface and interposes
// between the library and the network, just as the kernel module
// interposes on socket calls; DirectTransport is the uncached
// original-PVFS path.
//
// Requests may be Recv'd in any order: responses demultiplex by request
// tag (internal/rpc), so a slow iod no longer blocks unrelated requests.
// A Transport is intended for a single client process; the cache module's
// shared state behind it is internally synchronized.
//
// Lifetimes across the seam. The library reuses its request structs and
// sink slices from one operation to the next (opScratch), so a Transport
// may read req — and write through sink, see ReadSinker — until the
// matching Recv returns and must not keep either afterwards; every
// in-repo implementation consumes req inside the send call (rpc encodes
// before it returns). In the other direction a response is read-only to
// the caller: a transport may hand the same immutable message to every
// request it answers alike (a status-only reply, a faked acknowledgment).
type Transport interface {
	ReadSinker
	Send(iod int, req wire.Message) (ReqID, error)
	Recv(id ReqID) (wire.Message, error)
	Close() error
}

// StripeHinter is an optional Transport extension: the library announces
// each file's striping geometry when it opens or refreshes the file. A
// caching transport uses the hint to map block indices to the iods that
// store them — the cache module's readahead prefetcher only acts on files
// it has a hint for, because misrouting a prefetch would cache an iod's
// sparse zeros as real data. Transports without cross-request state
// (DirectTransport) simply do not implement it.
type StripeHinter interface {
	StripeHint(file blockio.FileID, meta wire.FileMeta, totalIODs int)
}

// ReadPatternHinter is an optional Transport extension: the library
// reports each application-level read (the whole byte range of one
// ReadAt) before issuing its per-iod pieces. Only the library knows where
// one request ends and the next begins — at the transport the pieces of
// a single striped read arrive as several ascending Sends,
// indistinguishable from a sequential scan — so sequential-readahead
// detection keys on this stream rather than on piece traffic.
type ReadPatternHinter interface {
	NoteRead(file blockio.FileID, offset, length int64)
}

// CachePolicy is a per-open caching hint — the paper's discretionary
// knob exposed to applications. It travels from an open flag through the
// transport (CachePolicyHinter) into the cache module's admission
// decisions; DirectTransport has no cache, so the hint is meaningful only
// on caching transports.
type CachePolicy uint8

const (
	// CacheDefault leaves the decision to the cache: the replacement
	// policy admits and the stream detector may bypass.
	CacheDefault CachePolicy = iota
	// CacheNone is don't-cache: reads are served around the cache
	// (read-around) and buffered writes go straight through
	// (write-around). For data the application knows it will not reuse.
	CacheNone
	// CacheMust is must-cache: blocks are always admitted — straight
	// into the protected working set under the ghost policy — and the
	// file is never stream-bypassed.
	CacheMust
)

// String implements fmt.Stringer for logs and flag output.
func (p CachePolicy) String() string {
	switch p {
	case CacheNone:
		return "none"
	case CacheMust:
		return "must"
	default:
		return "default"
	}
}

// CachePolicyHinter is an optional Transport extension: the library
// forwards each file's per-open cache-policy hint so a caching transport
// can apply it to admission decisions. Like the other hinter extensions,
// transports without cross-request state simply do not implement it.
type CachePolicyHinter interface {
	CachePolicyHint(file blockio.FileID, policy CachePolicy)
}

// TenantHinter is an optional Transport extension: the library forwards a
// per-open tenant (principal) tag and scheduling weight so a caching
// transport can charge the file's dirty residency and in-flight fetches to
// that principal and schedule its flush traffic by weight — the QoS
// counterpart of CachePolicyHinter. Tenant 0 is the untagged default;
// weight is clamped to ≥ 1. Like the other hinter extensions, transports
// without cross-request state simply do not implement it.
type TenantHinter interface {
	TenantHint(file blockio.FileID, tenant uint32, weight int)
}

// ReadSinker is the Transport's read path, and its only one: zero-copy.
// SendRead issues a *wire.ReadBlocks whose response bytes the transport
// scatters directly into sink — one caller-owned destination slice per
// extent of the request, lengths matching — instead of materializing them
// in a response message. On a successful Recv every sink byte has been
// filled: served data first, the remainder zeroed (PVFS sparse semantics),
// and the response is a status-only ReadBlocksResp: only its Status means
// anything. The transport declines a request it cannot sink (ok false, no
// request issued) — another message type, a sink that does not tile the
// extents — and the caller's read fails. Both the sink slice and the
// buffers it points at belong to the caller: the transport uses them until
// the matching Recv returns and not after.
type ReadSinker interface {
	SendRead(iod int, req wire.Message, sink [][]byte) (id ReqID, ok bool, err error)
}

// DirectTransport sends every request straight to the iods with no
// caching — the "no caching version" of the paper's experiments — over one
// pooled, multiplexed rpc client per daemon.
type DirectTransport struct {
	clients []*rpc.Client

	mu      sync.Mutex
	pending map[ReqID]directPending
	next    ReqID
}

// directPending is one outstanding round trip; sink, when non-nil, holds
// the caller-owned destinations of a read (see SendRead).
type directPending struct {
	ch   <-chan rpc.Result
	sink [][]byte
}

// NewDirectTransport returns a transport that dials each iod lazily on
// first use.
func NewDirectTransport(network transport.Network, iodAddrs []string) *DirectTransport {
	t := &DirectTransport{
		pending: make(map[ReqID]directPending),
		next:    1,
	}
	for _, addr := range iodAddrs {
		t.clients = append(t.clients, rpc.NewClient(rpc.ClientConfig{Network: network, Addr: addr}))
	}
	return t
}

// Send issues req to the iod and registers the request as outstanding.
func (t *DirectTransport) Send(iod int, req wire.Message) (ReqID, error) {
	return t.send(iod, req, nil)
}

// SendRead implements ReadSinker: the response's payload is copied from
// its leased frame buffer straight into the sink slices on Recv — no
// intermediate result buffer exists on this path.
func (t *DirectTransport) SendRead(iod int, req wire.Message, sink [][]byte) (ReqID, bool, error) {
	if _, ok := req.(*wire.ReadBlocks); !ok {
		return 0, false, nil
	}
	id, err := t.send(iod, req, sink)
	return id, err == nil, err
}

func (t *DirectTransport) send(iod int, req wire.Message, sink [][]byte) (ReqID, error) {
	if iod < 0 || iod >= len(t.clients) {
		return 0, fmt.Errorf("pvfs: iod index %d out of range (have %d)", iod, len(t.clients))
	}
	ch, err := t.clients[iod].Go(req)
	if err != nil {
		return 0, fmt.Errorf("pvfs: sending %v to iod %d: %w", req.WireType(), iod, err)
	}
	t.mu.Lock()
	id := t.next
	t.next++
	t.pending[id] = directPending{ch: ch, sink: sink}
	t.mu.Unlock()
	return id, nil
}

// Recv completes the given request, in any order.
func (t *DirectTransport) Recv(id ReqID) (wire.Message, error) {
	t.mu.Lock()
	p, ok := t.pending[id]
	delete(t.pending, id)
	t.mu.Unlock()
	if !ok {
		return nil, fmt.Errorf("pvfs: unknown request id %d", id)
	}
	res := <-p.ch
	if res.Err != nil {
		return nil, fmt.Errorf("pvfs: receiving: %w", res.Err)
	}
	if p.sink == nil {
		return res.Msg, nil
	}
	// The payload aliases a frame buffer that is released when Recv returns:
	// scatter it, then strip it from the message this transport decoded.
	defer res.Release()
	rr, ok := res.Msg.(*wire.ReadBlocksResp)
	if !ok {
		return nil, fmt.Errorf("pvfs: unexpected read reply %v", res.Msg.WireType())
	}
	if err := scatterRead(rr, p.sink); err != nil {
		return nil, err
	}
	rr.Data = nil
	return rr, nil
}

// scatterRead scatters the payload of a successful read reply into the
// sink slices, one per extent of the request — served bytes first, the
// rest zeroed (sparse semantics). A failed reply carries no bytes and
// leaves the sink alone.
func scatterRead(rr *wire.ReadBlocksResp, sink [][]byte) error {
	if rr.Status != wire.StatusOK {
		return nil
	}
	if len(rr.Lens) != len(sink) {
		return fmt.Errorf("pvfs: vectored read reply has %d extents, want %d", len(rr.Lens), len(sink))
	}
	data := rr.Data
	for i, dst := range sink {
		served := int(rr.Lens[i])
		if served > len(dst) || served > len(data) {
			return fmt.Errorf("pvfs: vectored read extent %d overlong (%d > %d)", i, served, len(dst))
		}
		clear(dst[copy(dst, data[:served]):])
		data = data[served:]
	}
	return nil
}

// Close closes every iod client; outstanding requests fail.
func (t *DirectTransport) Close() error {
	var firstErr error
	for _, c := range t.clients {
		if err := c.Close(); err != nil && firstErr == nil {
			firstErr = err
		}
	}
	return firstErr
}
