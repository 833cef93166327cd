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
	"slices"
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
	cfg  Config
	data Transport
	// The transport's optional extensions, resolved once in NewClient (nil
	// when data does not implement them).
	stripeHinter  StripeHinter
	patternHinter ReadPatternHinter
	policyHinter  CachePolicyHinter
	tenantHinter  TenantHinter

	mgr   *rpc.Client
	files map[blockio.FileID]*File
	// scratch is the one operation in progress (see opScratch).
	scratch opScratch
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
	c := &Client{cfg: cfg, data: data, mgr: mgr, files: make(map[blockio.FileID]*File)}
	c.stripeHinter, _ = data.(StripeHinter)
	c.patternHinter, _ = data.(ReadPatternHinter)
	c.policyHinter, _ = data.(CachePolicyHinter)
	c.tenantHinter, _ = data.(TenantHinter)
	return c, nil
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
	if c.stripeHinter != nil {
		c.stripeHinter.StripeHint(f.id, f.meta, len(c.cfg.IODAddrs))
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
	if h := f.client.policyHinter; h != nil {
		h.CachePolicyHint(f.id, policy)
	}
}

// HintTenant forwards a tenant tag and scheduling weight for this file to
// the transport (see TenantHinter). A no-op on transports without a cache.
func (f *File) HintTenant(tenant uint32, weight int) {
	if h := f.client.tenantHinter; h != nil {
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
// response is awaited. Each request is a vectored ReadBlocks carrying
// every striping piece that lands on its iod (one extent for a single
// piece), so each daemon serves at most one round trip per operation, and
// the transport sinks the response bytes straight into p. Reads entirely
// beyond EOF return (0, io.EOF); reads crossing EOF return short. Bytes
// inside holes of sparse files read as zero.
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
	c := f.client
	s := &c.scratch
	defer s.finish(c.data)
	// One request per iod, split only when a huge read would exceed what one
	// response frame can carry.
	if err := s.plan(f, p, off, want, true); err != nil {
		return 0, err
	}
	// Report the request to the transport's sequential detector before
	// the pieces go out, so an established scan's readahead overlaps this
	// request's own fetches.
	if c.patternHinter != nil {
		c.patternHinter.NoteRead(f.id, off, want)
	}
	for i := range s.reqs {
		r := &s.reqs[i]
		// Zero-copy: hand the transport the destination regions of the
		// caller's buffer so response bytes land there directly, with no
		// intermediate result buffer or response payload.
		r.readv = wire.ReadBlocks{Client: c.cfg.ClientID, File: f.id, Exts: s.exts[r.lo:r.hi]}
		id, ok, err := c.data.SendRead(s.pieces[r.lo].IOD, &r.readv, s.sink[r.lo:r.hi])
		if err != nil {
			return 0, err
		}
		if !ok {
			return 0, fmt.Errorf("pvfs: read %q @%d: transport declined the request", f.name, s.pieces[r.lo].Ext.Offset)
		}
		r.id = id
		s.sent++
	}
	for i := range s.reqs {
		r := &s.reqs[i]
		s.recvd++
		resp, err := c.data.Recv(r.id)
		if err != nil {
			return 0, err
		}
		// The bytes are already in p (data then zeros); only the status of
		// the status-only reply remains.
		rr, ok := resp.(*wire.ReadBlocksResp)
		if !ok {
			return 0, fmt.Errorf("pvfs: unexpected read reply %v", resp.WireType())
		}
		if err := rr.Status.Err(); err != nil {
			return 0, fmt.Errorf("pvfs: read %q @%d: %w", f.name, s.pieces[r.lo].Ext.Offset, err)
		}
	}
	if want < int64(len(p)) {
		return int(want), io.EOF
	}
	return int(want), nil
}

// vectorBudget bounds the byte total of one request: the iod rejects
// requests whose response could not be framed (wire.MaxMessageSize/2), and
// the cache module may round the extents up to block boundaries before
// forwarding, so leave generous slack.
const vectorBudget = wire.MaxMessageSize/2 - (1 << 20)

// opScratch is the working memory of one ReadAt or WriteAt. The Client
// (single-goroutine) owns the only one and every operation refills it, so
// the request path allocates nothing once the slices have grown to the
// largest shape seen. finish clears the entries that point into the caller's
// buffer, so the client never pins it between operations.
type opScratch struct {
	// pieces holds the operation's striping pieces grouped per iod, the iods
	// in first-appearance order; sink[i] is piece i's region of the caller's
	// buffer and exts[i] its extent as a vectored request lists it. A request
	// is an index range of all three.
	pieces []Piece
	sink   [][]byte
	exts   []wire.ReadExtent
	// reqs[:sent] have been issued and the first recvd of them received.
	reqs        []opReq
	sent, recvd int
	// Grouping state, zero between operations: next[iod] is where the iod's
	// next piece goes, order the iods as they first appear.
	next  []int
	order []int
}

// opReq is one request of the operation — pieces[lo:hi], all on one iod —
// and the message struct it travels in, reused like everything else here: a
// transport may not keep a request past the matching Recv (see Transport).
type opReq struct {
	lo, hi int
	id     ReqID
	readv  wire.ReadBlocks
	write  wire.Write
	sync   wire.SyncWrite
}

// plan fills the scratch for [off, off+length) of f, p being the caller's
// buffer: the pieces — none longer than vectorBudget, possible with huge
// strip sizes since SSize is a u32 from the wire — are counted per iod on a
// first walk and placed group by group on a second, then cut into requests.
// A vectored plan gives each iod one request for all its pieces, chunked so
// that no request's byte total exceeds vectorBudget; otherwise every piece
// is its own request.
func (s *opScratch) plan(f *File, p []byte, off, length int64, vectored bool) error {
	total := len(f.client.cfg.IODAddrs)
	it, err := iterPieces(f.id, f.meta, total, off, length, vectorBudget)
	if err != nil {
		return err
	}
	if len(s.next) < total {
		s.next = make([]int, total)
	}
	n := 0
	count := it
	for pc, ok := count.next(); ok; pc, ok = count.next() {
		if s.next[pc.IOD] == 0 {
			s.order = append(s.order, pc.IOD)
		}
		s.next[pc.IOD]++
		n++
	}
	start := 0
	for _, iod := range s.order {
		start, s.next[iod] = start+s.next[iod], start
	}
	s.pieces = slices.Grow(s.pieces, n)[:n]
	s.sink = slices.Grow(s.sink, n)[:n]
	s.exts = slices.Grow(s.exts, n)[:n]
	for pc, ok := it.next(); ok; pc, ok = it.next() {
		i := s.next[pc.IOD]
		s.next[pc.IOD]++
		s.pieces[i] = pc
		s.sink[i] = p[pc.Pos : pc.Pos+pc.Ext.Length]
		s.exts[i] = wire.ReadExtent{Offset: pc.Ext.Offset, Length: pc.Ext.Length}
	}
	for _, iod := range s.order {
		s.next[iod] = 0
	}
	s.order = s.order[:0]
	for lo := 0; lo < n; {
		hi, bytes := lo+1, s.pieces[lo].Ext.Length
		for vectored && hi < n && s.pieces[hi].IOD == s.pieces[lo].IOD && bytes+s.pieces[hi].Ext.Length <= vectorBudget {
			bytes += s.pieces[hi].Ext.Length
			hi++
		}
		s.reqs = append(s.reqs, opReq{lo: lo, hi: hi})
		lo = hi
	}
	return nil
}

// finish ends the operation. Every id sent is Recv'd, also when the
// operation failed part-way (a later Send errored, an earlier Recv errored):
// a caching transport holds shared state for each pending request —
// fetch-table claims that other processes join and wait on — until its Recv.
func (s *opScratch) finish(t Transport) {
	for ; s.recvd < s.sent; s.recvd++ {
		t.Recv(s.reqs[s.recvd].id) // the operation already failed; the reply is moot
	}
	clear(s.sink)
	clear(s.reqs)
	s.pieces, s.sink, s.exts, s.reqs = s.pieces[:0], s.sink[:0], s.exts[:0], s.reqs[:0]
	s.sent, s.recvd = 0, 0
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
	c := f.client
	s := &c.scratch
	defer s.finish(c.data)
	if err := s.plan(f, p, off, int64(len(p)), false); err != nil {
		return 0, err
	}
	for i := range s.reqs {
		r := &s.reqs[i]
		pc := s.pieces[r.lo]
		var req wire.Message
		if sync {
			r.sync = wire.SyncWrite{Client: c.cfg.ClientID, File: f.id, Offset: pc.Ext.Offset, Data: s.sink[r.lo]}
			req = &r.sync
		} else {
			r.write = wire.Write{Client: c.cfg.ClientID, File: f.id, Offset: pc.Ext.Offset, Data: s.sink[r.lo]}
			req = &r.write
		}
		id, err := c.data.Send(pc.IOD, req)
		if err != nil {
			return 0, err
		}
		r.id = id
		s.sent++
	}
	for i := range s.reqs {
		r := &s.reqs[i]
		s.recvd++
		resp, err := c.data.Recv(r.id)
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
			return 0, fmt.Errorf("pvfs: write %q @%d: %w", f.name, s.pieces[r.lo].Ext.Offset, err)
		}
	}
	if end := off + int64(len(p)); end > f.meta.Size {
		f.meta.Size = end
		resp, err := c.mgrCall(&wire.SetSize{File: f.id, Size: end})
		if err != nil {
			return 0, err
		}
		if sm, ok := resp.(*wire.StatusMsg); !ok || sm.Status != wire.StatusOK {
			return 0, fmt.Errorf("pvfs: extending %q failed", f.name)
		}
		// The file grew: a caching transport bounds its readahead by the
		// largest size it was told (see StripeHinter).
		c.hintStripe(f)
	}
	return len(p), nil
}

// Close releases the handle. Data-path connections belong to the Client
// and stay open for other files.
func (f *File) Close() error {
	delete(f.client.files, f.id)
	return nil
}
