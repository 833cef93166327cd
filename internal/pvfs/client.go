// Package pvfs implements the client side of the parallel file system: the
// equivalent of libpvfs. A Client resolves names against the metadata
// server and moves data to and from the I/O daemons, striping requests over
// the daemons that hold each file; when several striping pieces of one
// read land on the same daemon they travel as one vectored request
// (wire.ReadBlocks) rather than one round trip each. All data traffic
// flows through a Transport; installing the cache module's transport adds
// per-node shared caching without the library (or the application)
// noticing — the transparency property the paper's design is built
// around. The library announces each file's striping geometry to
// transports that want it (StripeHinter), which is what lets the cache
// module's readahead prefetcher route upcoming blocks to the right
// daemons.
package pvfs

import (
	"errors"
	"fmt"
	"io"
	"time"

	"pvfscache/internal/blockio"
	"pvfscache/internal/rpc"
	"pvfscache/internal/transport"
	"pvfscache/internal/wire"
)

// StripeSpec controls file striping at create time. Zero values select the
// cluster defaults (stripe over all iods, 64 KB strips, base 0).
type StripeSpec struct {
	Base   uint32
	PCount uint32
	SSize  uint32
}

// Config assembles a client.
type Config struct {
	// Network connects to mgr (and to the iods when Transport is nil).
	Network transport.Network
	// MgrAddr is the metadata server's address.
	MgrAddr string
	// IODAddrs lists every iod data-port address, in cluster order.
	IODAddrs []string
	// ClientID identifies this client's node cache to the iods (0 means
	// anonymous: no coherence tracking).
	ClientID uint32
	// Transport overrides the data path. Nil builds a DirectTransport —
	// the original, uncached PVFS behaviour.
	Transport Transport
	// OverloadRetries bounds how many times an operation shed with
	// wire.StatusOverload is retried before the error surfaces to the
	// application. 0 takes the default (5); negative disables retrying.
	OverloadRetries int
	// OverloadBackoff is the first retry's sleep; it doubles per attempt
	// up to a 100 ms cap. 0 takes the default (2 ms).
	OverloadBackoff time.Duration
}

// Client is one application process's handle on the file system. It is not
// safe for concurrent use, matching a single-threaded PVFS process; run one
// Client per simulated process.
type Client struct {
	cfg   Config
	data  Transport
	mgr   *rpc.Client
	files map[blockio.FileID]*File
}

// NewClient validates cfg and returns a client. Connections are dialed
// lazily.
func NewClient(cfg Config) (*Client, error) {
	if cfg.Network == nil {
		return nil, errors.New("pvfs: Config.Network is required")
	}
	if cfg.MgrAddr == "" {
		return nil, errors.New("pvfs: Config.MgrAddr is required")
	}
	if len(cfg.IODAddrs) == 0 {
		return nil, errors.New("pvfs: Config.IODAddrs is required")
	}
	data := cfg.Transport
	if data == nil {
		data = NewDirectTransport(cfg.Network, cfg.IODAddrs)
	}
	// Metadata traffic is light; one pooled connection suffices.
	mgr := rpc.NewClient(rpc.ClientConfig{Network: cfg.Network, Addr: cfg.MgrAddr, Conns: 1})
	return &Client{cfg: cfg, data: data, mgr: mgr, files: make(map[blockio.FileID]*File)}, nil
}

// mgrCall performs one synchronous metadata round trip. Metadata replies
// carry no bulk payload, so the result never holds a lease.
func (c *Client) mgrCall(req wire.Message) (wire.Message, error) {
	res := c.mgr.Call(req)
	if res.Err != nil {
		return nil, fmt.Errorf("pvfs: mgr call: %w", res.Err)
	}
	return res.Msg, nil
}

// Create makes a new file and returns an open handle on it.
func (c *Client) Create(name string, spec StripeSpec) (*File, error) {
	resp, err := c.mgrCall(&wire.Create{Name: name, Base: spec.Base, PCount: spec.PCount, SSize: spec.SSize})
	if err != nil {
		return nil, err
	}
	cr, ok := resp.(*wire.CreateResp)
	if !ok {
		return nil, fmt.Errorf("pvfs: unexpected create reply %v", resp.WireType())
	}
	if err := cr.Status.Err(); err != nil {
		return nil, fmt.Errorf("pvfs: create %q: %w", name, err)
	}
	return c.newFile(name, cr.File, cr.Meta), nil
}

// Open resolves an existing file.
func (c *Client) Open(name string) (*File, error) {
	resp, err := c.mgrCall(&wire.Open{Name: name})
	if err != nil {
		return nil, err
	}
	or, ok := resp.(*wire.OpenResp)
	if !ok {
		return nil, fmt.Errorf("pvfs: unexpected open reply %v", resp.WireType())
	}
	if err := or.Status.Err(); err != nil {
		return nil, fmt.Errorf("pvfs: open %q: %w", name, err)
	}
	return c.newFile(name, or.File, or.Meta), nil
}

// OpenWithPolicy resolves an existing file and attaches a cache-policy
// hint — the paper's discretionary-caching knob at the application
// boundary. The hint reaches transports that implement CachePolicyHinter
// (the cache module's); others ignore it. It is advisory and node-wide
// per file: the last open's hint wins, like a POSIX advise.
func (c *Client) OpenWithPolicy(name string, policy CachePolicy) (*File, error) {
	f, err := c.Open(name)
	if err != nil {
		return nil, err
	}
	f.HintCachePolicy(policy)
	return f, nil
}

// OpenWithTenant resolves an existing file and tags it with a tenant
// (principal) ID and flush-scheduling weight — the QoS knob at the
// application boundary. On a caching transport the tag charges the file's
// dirty frames and in-flight fetches to that tenant's quota and budget;
// see TenantHinter. Like OpenWithPolicy, the hint is advisory and
// node-wide per file: the last open's tag wins.
func (c *Client) OpenWithTenant(name string, tenant uint32, weight int) (*File, error) {
	f, err := c.Open(name)
	if err != nil {
		return nil, err
	}
	f.HintTenant(tenant, weight)
	return f, nil
}

// retryOverload runs op, retrying (with doubling, capped backoff) while it
// fails with wire.ErrOverload — a shed request whose state the daemon
// discarded, so re-issuing the whole operation is safe. Retries exhaust
// after cfg.OverloadRetries attempts and the overload error surfaces.
func (c *Client) retryOverload(op func() error) error {
	retries := c.cfg.OverloadRetries
	if retries == 0 {
		retries = 5
	}
	backoff := c.cfg.OverloadBackoff
	if backoff <= 0 {
		backoff = 2 * time.Millisecond
	}
	const maxBackoff = 100 * time.Millisecond
	for attempt := 0; ; attempt++ {
		err := op()
		if err == nil || !errors.Is(err, wire.ErrOverload) || attempt >= retries {
			return err
		}
		time.Sleep(backoff)
		if backoff < maxBackoff {
			backoff *= 2
			if backoff > maxBackoff {
				backoff = maxBackoff
			}
		}
	}
}

func (c *Client) newFile(name string, id blockio.FileID, meta wire.FileMeta) *File {
	f := &File{client: c, name: name, id: id, meta: meta}
	c.files[id] = f
	c.hintStripe(f)
	return f
}

// hintStripe forwards the file's striping geometry to the transport when
// it wants one (see StripeHinter); the cache module's readahead needs it
// to route prefetched blocks to the right daemons.
func (c *Client) hintStripe(f *File) {
	if h, ok := c.data.(StripeHinter); ok {
		h.StripeHint(f.id, f.meta, len(c.cfg.IODAddrs))
	}
}

// Unlink removes a file from the namespace. Strip data at the iods is left
// for the store to garbage collect (PVFS semantics are similar: iods clean
// up out of band).
func (c *Client) Unlink(name string) error {
	resp, err := c.mgrCall(&wire.Unlink{Name: name})
	if err != nil {
		return err
	}
	sm, ok := resp.(*wire.StatusMsg)
	if !ok {
		return fmt.Errorf("pvfs: unexpected unlink reply %v", resp.WireType())
	}
	if err := sm.Status.Err(); err != nil {
		return fmt.Errorf("pvfs: unlink %q: %w", name, err)
	}
	return nil
}

// List returns every name in the cluster namespace.
func (c *Client) List() ([]string, error) {
	resp, err := c.mgrCall(&wire.List{})
	if err != nil {
		return nil, err
	}
	lr, ok := resp.(*wire.ListResp)
	if !ok {
		return nil, fmt.Errorf("pvfs: unexpected list reply %v", resp.WireType())
	}
	return lr.Names, lr.Status.Err()
}

// Close shuts down the data transport and the mgr connection.
func (c *Client) Close() error {
	err := c.data.Close()
	c.mgr.Close()
	return err
}

// File is an open handle. Offsets are explicit (pread/pwrite style), which
// is how the paper's micro-benchmark drives the system.
type File struct {
	client *Client
	name   string
	id     blockio.FileID
	meta   wire.FileMeta
}

// Name returns the path the file was opened with.
func (f *File) Name() string { return f.name }

// ID returns the cluster-wide file ID.
func (f *File) ID() blockio.FileID { return f.id }

// Meta returns the striping metadata (size as of the last refresh).
func (f *File) Meta() wire.FileMeta { return f.meta }

// Size returns the file size as known locally (updated by this handle's
// writes and by Refresh).
func (f *File) Size() int64 { return f.meta.Size }

// HintCachePolicy forwards a cache-policy hint for this file to the
// transport (see CachePolicy). A no-op on transports without a cache.
func (f *File) HintCachePolicy(policy CachePolicy) {
	if h, ok := f.client.data.(CachePolicyHinter); ok {
		h.CachePolicyHint(f.id, policy)
	}
}

// HintTenant forwards a tenant tag and scheduling weight for this file to
// the transport (see TenantHinter). A no-op on transports without a cache.
func (f *File) HintTenant(tenant uint32, weight int) {
	if h, ok := f.client.data.(TenantHinter); ok {
		h.TenantHint(f.id, tenant, weight)
	}
}

// Refresh re-reads the file's metadata from mgr.
func (f *File) Refresh() error {
	resp, err := f.client.mgrCall(&wire.Stat{File: f.id})
	if err != nil {
		return err
	}
	sr, ok := resp.(*wire.StatResp)
	if !ok {
		return fmt.Errorf("pvfs: unexpected stat reply %v", resp.WireType())
	}
	if err := sr.Status.Err(); err != nil {
		return err
	}
	f.meta = sr.Meta
	f.client.hintStripe(f)
	return nil
}

// ReadAt fills p from the file starting at off. It follows the libpvfs
// protocol: every per-iod request of the operation is sent before any
// response is awaited. When several striping pieces land on the same iod
// (a request spanning multiple striping cycles) they travel as one
// vectored ReadBlocks instead of one Read each, so each daemon serves at
// most one round trip per operation. Reads entirely beyond EOF return
// (0, io.EOF); reads crossing EOF return short. Bytes inside holes of
// sparse files read as zero.
//
// A read shed by a saturated node (wire.ErrOverload) is retried with
// backoff before the error surfaces; see Config.OverloadRetries.
func (f *File) ReadAt(p []byte, off int64) (n int, err error) {
	err = f.client.retryOverload(func() error {
		n, err = f.readAtOnce(p, off)
		return err
	})
	return n, err
}

func (f *File) readAtOnce(p []byte, off int64) (int, error) {
	if off < 0 {
		return 0, fmt.Errorf("pvfs: negative offset %d", off)
	}
	if len(p) == 0 {
		return 0, nil
	}
	size := f.meta.Size
	if off >= size {
		return 0, io.EOF
	}
	want := int64(len(p))
	if off+want > size {
		want = size - off
	}
	pieces, err := PiecesFor(f.id, f.meta, len(f.client.cfg.IODAddrs), off, want)
	if err != nil {
		return 0, err
	}
	pieces = splitOversizedPieces(pieces)
	// Report the request to the transport's sequential detector before
	// the pieces go out, so an established scan's readahead overlaps this
	// request's own fetches.
	if h, ok := f.client.data.(ReadPatternHinter); ok {
		h.NoteRead(f.id, off, want)
	}

	// Group the pieces per iod, preserving first-appearance order, so one
	// daemon gets one (possibly vectored) request — split into several
	// when a huge read would otherwise exceed what one response frame can
	// carry.
	groups := make(map[int][]Piece, len(pieces))
	var order []int
	for _, pc := range pieces {
		if _, ok := groups[pc.IOD]; !ok {
			order = append(order, pc.IOD)
		}
		groups[pc.IOD] = append(groups[pc.IOD], pc)
	}
	type sentGroup struct {
		pieces []Piece
		id     ReqID
		sunk   bool // response scatters straight into p (zero-copy path)
	}
	sinker, canSink := f.client.data.(ReadSinker)
	var sent []sentGroup
	// Every id sent is Recv'd, also when the operation fails part-way (a
	// later Send errors, an earlier Recv errors): a caching transport
	// holds shared state for each pending request — fetch-table claims
	// that other processes join and wait on — until its Recv.
	recvd := 0
	defer func() {
		for _, sg := range sent[recvd:] {
			f.client.data.Recv(sg.id) // the operation already failed; the reply is moot
		}
	}()
	for _, iod := range order {
		for _, grp := range splitVectorGroup(groups[iod]) {
			var req wire.Message
			if len(grp) == 1 {
				req = &wire.Read{
					Client: f.client.cfg.ClientID,
					File:   f.id,
					Offset: grp[0].Ext.Offset,
					Length: grp[0].Ext.Length,
				}
			} else {
				exts := make([]wire.ReadExtent, len(grp))
				for j, pc := range grp {
					exts[j] = wire.ReadExtent{Offset: pc.Ext.Offset, Length: pc.Ext.Length}
				}
				req = &wire.ReadBlocks{Client: f.client.cfg.ClientID, File: f.id, Exts: exts}
			}
			if canSink {
				// Zero-copy: hand the transport the destination regions of
				// the caller's buffer so response bytes land there directly,
				// with no intermediate result buffer or response payload.
				sink := make([][]byte, len(grp))
				for j, pc := range grp {
					sink[j] = p[pc.Pos : pc.Pos+pc.Ext.Length]
				}
				id, ok, err := sinker.SendRead(iod, req, sink)
				if err != nil {
					return 0, err
				}
				if ok {
					sent = append(sent, sentGroup{pieces: grp, id: id, sunk: true})
					continue
				}
				// Declined (the sink does not fit this transport): fall
				// back to copying.
			}
			id, err := f.client.data.Send(iod, req)
			if err != nil {
				return 0, err
			}
			sent = append(sent, sentGroup{pieces: grp, id: id})
		}
	}
	for _, sg := range sent {
		recvd++
		if sg.sunk {
			if err := f.recvSunkRead(sg.pieces, sg.id); err != nil {
				return 0, err
			}
			continue
		}
		if err := f.recvReadGroup(p, sg.pieces, sg.id); err != nil {
			return 0, err
		}
	}
	if want < int64(len(p)) {
		return int(want), io.EOF
	}
	return int(want), nil
}

// vectorBudget bounds the byte total of one vectored read's extents: the
// iod rejects requests whose response could not be framed
// (wire.MaxMessageSize/2), and the cache module may round the extents up
// to block boundaries before forwarding, so leave generous slack.
const vectorBudget = wire.MaxMessageSize/2 - (1 << 20)

// splitOversizedPieces subdivides any piece longer than vectorBudget
// (possible with huge strip sizes — SSize is a u32 from the wire) into
// budget-sized pieces on the same iod, so no single request can exceed
// what the iod will serve.
func splitOversizedPieces(pieces []Piece) []Piece {
	oversized := false
	for _, pc := range pieces {
		if pc.Ext.Length > vectorBudget {
			oversized = true
			break
		}
	}
	if !oversized {
		return pieces
	}
	out := make([]Piece, 0, len(pieces)+1)
	for _, pc := range pieces {
		for pc.Ext.Length > vectorBudget {
			out = append(out, Piece{
				IOD: pc.IOD,
				Ext: blockio.Extent{File: pc.Ext.File, Offset: pc.Ext.Offset, Length: vectorBudget},
				Pos: pc.Pos,
			})
			pc.Ext.Offset += vectorBudget
			pc.Ext.Length -= vectorBudget
			pc.Pos += vectorBudget
		}
		out = append(out, pc)
	}
	return out
}

// splitVectorGroup splits one iod's pieces into chunks whose extent
// totals stay within vectorBudget, so a read of any size decomposes into
// servable requests. Each chunk keeps at least one piece (pieces are
// pre-split to at most vectorBudget bytes each).
func splitVectorGroup(grp []Piece) [][]Piece {
	var out [][]Piece
	for len(grp) > 0 {
		n := 1
		bytes := grp[0].Ext.Length
		for n < len(grp) && bytes+grp[n].Ext.Length <= vectorBudget {
			bytes += grp[n].Ext.Length
			n++
		}
		out = append(out, grp[:n])
		grp = grp[n:]
	}
	return out
}

// recvSunkRead completes one iod's zero-copy read request: the transport
// has already scattered every byte into the caller's buffer (data then
// zeros), so only the status remains to be checked.
func (f *File) recvSunkRead(grp []Piece, id ReqID) error {
	resp, err := f.client.data.Recv(id)
	if err != nil {
		return err
	}
	switch rr := resp.(type) {
	case *wire.ReadResp:
		if err := rr.Status.Err(); err != nil {
			return fmt.Errorf("pvfs: read %q @%d: %w", f.name, grp[0].Ext.Offset, err)
		}
		return nil
	case *wire.ReadBlocksResp:
		if err := rr.Status.Err(); err != nil {
			return fmt.Errorf("pvfs: read %q: %w", f.name, err)
		}
		return nil
	default:
		return fmt.Errorf("pvfs: unexpected read reply %v", resp.WireType())
	}
}

// recvReadGroup completes one iod's read request and scatters the served
// bytes to the pieces' positions in the caller's buffer. Sparse or short
// strip data reads as zero.
func (f *File) recvReadGroup(p []byte, grp []Piece, id ReqID) error {
	resp, err := f.client.data.Recv(id)
	if err != nil {
		return err
	}
	fill := func(pc Piece, data []byte) {
		dst := p[pc.Pos : pc.Pos+pc.Ext.Length]
		n := copy(dst, data)
		for j := n; j < len(dst); j++ {
			dst[j] = 0
		}
	}
	switch rr := resp.(type) {
	case *wire.ReadResp:
		if len(grp) != 1 {
			return fmt.Errorf("pvfs: single read reply for %d pieces", len(grp))
		}
		if err := rr.Status.Err(); err != nil {
			return fmt.Errorf("pvfs: read %q @%d: %w", f.name, grp[0].Ext.Offset, err)
		}
		fill(grp[0], rr.Data)
		return nil
	case *wire.ReadBlocksResp:
		if err := rr.Status.Err(); err != nil {
			return fmt.Errorf("pvfs: read %q: %w", f.name, err)
		}
		if len(rr.Lens) != len(grp) {
			return fmt.Errorf("pvfs: vectored read reply has %d extents, want %d", len(rr.Lens), len(grp))
		}
		data := rr.Data
		for j, pc := range grp {
			served := int64(rr.Lens[j])
			if served > pc.Ext.Length || served > int64(len(data)) {
				return fmt.Errorf("pvfs: vectored read extent %d overlong (%d > %d)", j, served, pc.Ext.Length)
			}
			fill(pc, data[:served])
			data = data[served:]
		}
		return nil
	default:
		return fmt.Errorf("pvfs: unexpected read reply %v", resp.WireType())
	}
}

// WriteAt stores p at off using the default (no-coherence) write path and
// extends the file size at mgr when needed.
func (f *File) WriteAt(p []byte, off int64) (int, error) {
	return f.writeAt(p, off, false)
}

// SyncWriteAt is the paper's coherent write: data is propagated to the
// iods, and every other node cache holding the touched blocks is
// invalidated before the call returns.
func (f *File) SyncWriteAt(p []byte, off int64) (int, error) {
	return f.writeAt(p, off, true)
}

// writeAt retries whole shed operations like ReadAt does: an overloaded
// cache module rejects the write before buffering anything, so the
// operation is re-issuable from scratch.
func (f *File) writeAt(p []byte, off int64, sync bool) (n int, err error) {
	err = f.client.retryOverload(func() error {
		n, err = f.writeAtOnce(p, off, sync)
		return err
	})
	return n, err
}

func (f *File) writeAtOnce(p []byte, off int64, sync bool) (int, error) {
	if off < 0 {
		return 0, fmt.Errorf("pvfs: negative offset %d", off)
	}
	if len(p) == 0 {
		return 0, nil
	}
	pieces, err := PiecesFor(f.id, f.meta, len(f.client.cfg.IODAddrs), off, int64(len(p)))
	if err != nil {
		return 0, err
	}
	// As in readAtOnce, every id sent is Recv'd even when the operation
	// fails part-way, so the transport's pending table always drains.
	ids := make([]ReqID, 0, len(pieces))
	recvd := 0
	defer func() {
		for _, id := range ids[recvd:] {
			f.client.data.Recv(id) // the operation already failed; the reply is moot
		}
	}()
	for _, pc := range pieces {
		data := p[pc.Pos : pc.Pos+pc.Ext.Length]
		var req wire.Message
		if sync {
			req = &wire.SyncWrite{Client: f.client.cfg.ClientID, File: f.id, Offset: pc.Ext.Offset, Data: data}
		} else {
			req = &wire.Write{Client: f.client.cfg.ClientID, File: f.id, Offset: pc.Ext.Offset, Data: data}
		}
		id, err := f.client.data.Send(pc.IOD, req)
		if err != nil {
			return 0, err
		}
		ids = append(ids, id)
	}
	for i, pc := range pieces {
		recvd++
		resp, err := f.client.data.Recv(ids[i])
		if err != nil {
			return 0, err
		}
		var status wire.Status
		switch ack := resp.(type) {
		case *wire.WriteAck:
			status = ack.Status
		case *wire.SyncWriteAck:
			status = ack.Status
		default:
			return 0, fmt.Errorf("pvfs: unexpected write reply %v", resp.WireType())
		}
		if err := status.Err(); err != nil {
			return 0, fmt.Errorf("pvfs: write %q @%d: %w", f.name, pc.Ext.Offset, err)
		}
	}
	if end := off + int64(len(p)); end > f.meta.Size {
		f.meta.Size = end
		resp, err := f.client.mgrCall(&wire.SetSize{File: f.id, Size: end})
		if err != nil {
			return 0, err
		}
		if sm, ok := resp.(*wire.StatusMsg); !ok || sm.Status != wire.StatusOK {
			return 0, fmt.Errorf("pvfs: extending %q failed", f.name)
		}
	}
	return len(p), nil
}

// Close releases the handle. Data-path connections belong to the Client
// and stay open for other files.
func (f *File) Close() error {
	delete(f.client.files, f.id)
	return nil
}
