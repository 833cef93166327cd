// Package iod implements the PVFS I/O daemon: the per-node data server
// that stores file strips and answers read/write requests from libpvfs
// clients. Requests arrive through the shared rpc core (internal/rpc), so
// tagged clients get concurrent, out-of-order service while legacy peers
// fall back to FIFO. Every read the data port serves is vectored
// (wire.ReadBlocks): all requested extents of a connection's request in
// one pass, packed into a single pooled buffer that is recycled once the
// response hits the wire. In addition, the daemon carries the two
// server-side pieces the paper adds:
//
//   - a separate flush port, served by the "server version of the flusher
//     thread", which accepts batched dirty-block flushes from the per-node
//     cache modules and writes them with local file-system calls; and
//   - a per-block coherence directory used by sync-writes: the directory
//     records which client caches hold a copy of each block, and a
//     sync-write invalidates every other holder before it is acknowledged.
package iod

import (
	"fmt"
	"sync"
	"sync/atomic"

	"pvfscache/internal/blockio"
	"pvfscache/internal/metrics"
	"pvfscache/internal/rpc"
	"pvfscache/internal/storage"
	"pvfscache/internal/storage/mem"
	"pvfscache/internal/transport"
	"pvfscache/internal/wire"
)

// Server is one I/O daemon.
type Server struct {
	id        int
	blockSize int
	store     storage.Backend
	ctr       counters
	network   transport.Network

	// draining, once set, stops the coherence directory from admitting
	// new holders: reads still serve data but are no longer tracked, so
	// the directory only shrinks while the daemon is being retired.
	draining atomic.Bool

	mu      sync.Mutex
	clients map[uint32]string              // client id -> invalidation listener address
	inval   map[uint32]*rpc.Client         // lazily dialed invalidation clients
	dir     map[blockio.BlockKey]holderSet // coherence directory

	srvMu   sync.Mutex
	servers []*rpc.Server

	readBufs rpc.BufPool // read buffers, recycled after each response is written

	observer AccessObserver
}

// AccessObserver receives one callback per block touched by client
// traffic. It feeds the sharing-pattern classifier (internal/sharing) —
// the paper's "classify different sharing patterns" ongoing-work item.
// Callbacks run on request-serving goroutines and must be fast and
// thread-safe.
type AccessObserver func(client uint32, file blockio.FileID, block int64, write bool)

type holderSet map[uint32]struct{}

// New returns an iod with the given index in the cluster's iod list,
// backed by the in-memory storage backend. network is used to dial client
// invalidation listeners; it may be nil when sync-writes are not used.
// reg may be nil.
func New(id int, blockSize int, network transport.Network, reg *metrics.Registry) *Server {
	return NewWithBackend(id, blockSize, network, reg, mem.New())
}

// NewWithBackend returns an iod serving strip data from the given
// storage backend. The caller owns the backend's lifecycle: iod.Close
// does not close it, so a crashed-and-restarted daemon can reopen the
// same on-disk state.
func NewWithBackend(id int, blockSize int, network transport.Network, reg *metrics.Registry, store storage.Backend) *Server {
	if blockSize <= 0 {
		blockSize = blockio.DefaultBlockSize
	}
	if reg == nil {
		reg = metrics.NewRegistry()
	}
	return &Server{
		id:        id,
		blockSize: blockSize,
		store:     store,
		ctr:       newCounters(reg),
		network:   network,
		clients:   make(map[uint32]string),
		inval:     make(map[uint32]*rpc.Client),
		dir:       make(map[blockio.BlockKey]holderSet),
	}
}

// ID returns the daemon's index in the cluster iod list.
func (s *Server) ID() int { return s.id }

// Store exposes the daemon's backing storage backend (tests and the
// simulator seed data through it).
func (s *Server) Store() storage.Backend { return s.store }

// ServeData accepts data-port connections until the listener closes.
func (s *Server) ServeData(l transport.Listener) error { return s.serve(l, s.handleData) }

// ServeFlush accepts flush-port connections until the listener closes.
// This is the server half of the flusher protocol.
func (s *Server) ServeFlush(l transport.Listener) error { return s.serve(l, s.handleFlush) }

// serve runs one rpc.Server over the listener. Tagged clients (the cache
// modules and libpvfs) get concurrent out-of-order service; untagged
// legacy clients are served FIFO. Read buffers return to the pool once
// each response hits the wire.
func (s *Server) serve(l transport.Listener, handler func(wire.Message) wire.Message) error {
	srv := rpc.NewServer(rpc.HandlerFunc(handler), rpc.ServerConfig{
		AfterWrite: s.recycleReadBuf,
	})
	s.srvMu.Lock()
	s.servers = append(s.servers, srv)
	s.srvMu.Unlock()
	return srv.Serve(l)
}

// recycleReadBuf returns a written read response's buffer to the pool: a
// vectored response carries all its extents in one backing buffer.
func (s *Server) recycleReadBuf(resp wire.Message) {
	if rr, ok := resp.(*wire.ReadBlocksResp); ok {
		s.readBufs.Put(rr.Data)
	}
}

// Close drops every open connection; in-flight requests fail at the
// clients, which redial. Listeners belong to the caller.
func (s *Server) Close() error {
	s.srvMu.Lock()
	servers := s.servers
	s.servers = nil
	s.srvMu.Unlock()
	for _, srv := range servers {
		srv.Close()
	}
	s.mu.Lock()
	inval := s.inval
	s.inval = make(map[uint32]*rpc.Client)
	s.mu.Unlock()
	for _, c := range inval {
		c.Close()
	}
	return nil
}

// handleData dispatches one data-port request.
func (s *Server) handleData(msg wire.Message) wire.Message {
	switch m := msg.(type) {
	case *wire.ReadBlocks:
		return s.readBlocks(m)
	case *wire.Write:
		return s.write(m)
	case *wire.SyncWrite:
		return s.syncWrite(m)
	case *wire.Register:
		s.RegisterClient(m.Client, m.Addr)
		return &wire.RegisterAck{Status: wire.StatusOK}
	default:
		return nil
	}
}

// handleFlush dispatches one flush-port request.
func (s *Server) handleFlush(msg wire.Message) wire.Message {
	m, ok := msg.(*wire.Flush)
	if !ok {
		return nil
	}
	return s.flush(m)
}

// SetObserver installs the access observer. Call before serving traffic.
func (s *Server) SetObserver(obs AccessObserver) { s.observer = obs }

// observe reports every block of a range to the observer, if any.
func (s *Server) observe(client uint32, file blockio.FileID, off, length int64, write bool) {
	if s.observer == nil || client == 0 {
		return
	}
	first, count := blockio.BlockRange(off, length, s.blockSize)
	for i := int64(0); i < count; i++ {
		s.observer(client, file, first+i, write)
	}
}

// RegisterClient records the invalidation address for a client cache.
// Re-registering replaces the address and drops any cached connection.
func (s *Server) RegisterClient(client uint32, addr string) {
	s.mu.Lock()
	old := s.inval[client]
	s.clients[client] = addr
	delete(s.inval, client)
	s.mu.Unlock()
	if old != nil {
		old.Close()
	}
}

// readBlocks serves a vectored read: every requested extent of the
// connection's request in one pass over the store, packed densely into a
// single pooled buffer (recycled by recycleReadBuf once the response has
// hit the wire). Extent lengths are attacker-controlled, so each one and
// their sum are bounded before any allocation.
func (s *Server) readBlocks(m *wire.ReadBlocks) *wire.ReadBlocksResp {
	total, ok := wire.ValidateExtents(m.Exts)
	if !ok {
		return &wire.ReadBlocksResp{Status: wire.StatusBadRequest}
	}
	buf := s.readBufs.Get(int(total))
	lens := make([]uint32, len(m.Exts))
	pos := 0
	for i, e := range m.Exts {
		n, err := s.store.ReadAt(m.File, e.Offset, buf[pos:pos+int(e.Length)])
		if err != nil {
			s.readBufs.Put(buf)
			s.ctr.ioErrors.Inc()
			return &wire.ReadBlocksResp{Status: wire.StatusFor(err)}
		}
		lens[i] = uint32(n)
		pos += n
		s.ctr.readBytes.Add(int64(n))
		if m.Track && m.Client != 0 {
			s.trackHolders(m.Client, m.File, e.Offset, e.Length)
		}
		s.observe(m.Client, m.File, e.Offset, e.Length, false)
	}
	s.ctr.reads.Inc()
	s.ctr.vectorReads.Inc()
	s.ctr.vectorExtents.Add(int64(len(m.Exts)))
	return &wire.ReadBlocksResp{Status: wire.StatusOK, Lens: lens, Data: buf[:pos]}
}

func (s *Server) write(m *wire.Write) *wire.WriteAck {
	// The ack is the durability promise: a backend failure must surface as
	// a non-OK status, never as an OK for bytes that were not stored (the
	// seed's silent-data-loss bug — simdisk could not fail, so no error
	// path existed).
	if err := s.store.WriteAt(m.File, m.Offset, m.Data); err != nil {
		s.ctr.ioErrors.Inc()
		return &wire.WriteAck{Status: wire.StatusFor(err)}
	}
	s.ctr.writes.Inc()
	s.ctr.writeBytes.Add(int64(len(m.Data)))
	s.observe(m.Client, m.File, m.Offset, int64(len(m.Data)), true)
	return &wire.WriteAck{Status: wire.StatusOK}
}

// flush applies one Flush frame. Each FlushBlock is a contiguous dirty
// run that may span several cache blocks (the client flusher coalesces
// adjacent dirty blocks before framing), written with a single store
// call; the coherence directory records the flusher as a holder of every
// covered block — the flushed blocks stay resident (clean) in its cache.
//
// Concurrency: the pipelined write-behind engine keeps several Flush
// frames from one client in flight concurrently, and rpc.Server serves
// them on parallel goroutines. Within one window that is safe: the runs
// are disjoint (the buffer manager's in-flight mark prevents a block
// from being taken twice), the storage.Backend orders writes that
// overlap in time (its ordering contract; both engines take a lock per
// write), and the directory update takes s.mu once per frame. Delivery is
// at-least-once — a frame whose ack is lost is re-sent after its blocks
// re-queue — and re-applying a frame is idempotent. The retry boundary
// is where a residual ordering race lives (inherited from the seed's
// serial retry loop, not introduced by the window): a frame whose
// connection died after delivery can still be executing here when the
// retried frame carrying newer bytes lands, and nothing orders the two
// stores. Closing that hole needs per-block generations on the wire so
// stale frames can be rejected; until then the client's backoff merely
// narrows the window.
func (s *Server) flush(m *wire.Flush) *wire.FlushAck {
	bs := int64(s.blockSize)
	blocks := int64(0)
	for _, blk := range m.Blocks {
		off := blk.Index*bs + int64(blk.Off)
		if err := s.store.WriteAt(m.File, off, blk.Data); err != nil {
			// Stop at the first failed run and fail the whole frame: the
			// client re-queues every block it carried (FlushFailed) and
			// re-sends after backoff, and re-applying the runs that did land
			// is idempotent. Acking here would silently lose the bytes.
			s.ctr.ioErrors.Inc()
			return &wire.FlushAck{Status: wire.StatusFor(err)}
		}
		_, count := blockio.BlockRange(off, int64(len(blk.Data)), s.blockSize)
		blocks += count
	}
	s.trackFlushed(m)
	s.ctr.flushes.Inc()
	s.ctr.flushBlocks.Add(blocks)
	s.ctr.flushRuns.Add(int64(len(m.Blocks)))
	return &wire.FlushAck{Status: wire.StatusOK}
}

// syncWrite performs the paper's coherent write: persist, then invalidate
// every other cache holding any touched block, then acknowledge.
func (s *Server) syncWrite(m *wire.SyncWrite) *wire.SyncWriteAck {
	if err := s.store.WriteAt(m.File, m.Offset, m.Data); err != nil {
		// Fail before touching the directory: no invalidations go out for
		// bytes that were never persisted.
		s.ctr.ioErrors.Inc()
		return &wire.SyncWriteAck{Status: wire.StatusFor(err)}
	}
	s.ctr.syncWrites.Inc()
	s.observe(m.Client, m.File, m.Offset, int64(len(m.Data)), true)

	victims := s.collectVictims(m.Client, m.File, m.Offset, int64(len(m.Data)))
	invalidated := uint32(0)
	for client, indices := range victims {
		if err := s.sendInvalidate(client, m.File, indices); err == nil {
			invalidated++
		}
		// Whether or not delivery succeeded, the directory entry is gone:
		// an unreachable cache is treated as departed.
	}
	// The writer keeps a current copy.
	if m.Client != 0 {
		s.trackHolders(m.Client, m.File, m.Offset, int64(len(m.Data)))
	}
	return &wire.SyncWriteAck{Status: wire.StatusOK, Invalidated: invalidated}
}

// StartDrain puts the daemon in drain mode: it keeps serving but stops
// recording new coherence-directory holders. Call it before flushing the
// clients so the directory cannot grow behind the drain's back.
func (s *Server) StartDrain() { s.draining.Store(true) }

// Draining reports whether StartDrain has been called.
func (s *Server) Draining() bool { return s.draining.Load() }

// HolderBlocks returns how many blocks the coherence directory currently
// records holders for.
func (s *Server) HolderBlocks() int {
	s.mu.Lock()
	defer s.mu.Unlock()
	return len(s.dir)
}

// DrainHolders hands off the remaining coherence state: every directory
// entry is invalidated at its holders and dropped, leaving the directory
// empty so the daemon can exit without orphaning cached copies. It
// returns the number of blocks handed off; delivery errors to individual
// clients (already-gone nodes) do not abort the sweep — their entries
// are dropped regardless, exactly as a sync-write's invalidation would.
func (s *Server) DrainHolders() (int, error) {
	s.draining.Store(true)
	s.mu.Lock()
	dir := s.dir
	s.dir = make(map[blockio.BlockKey]holderSet)
	s.mu.Unlock()

	victims := make(map[uint32]map[blockio.FileID][]int64)
	for key, hs := range dir {
		for client := range hs {
			files := victims[client]
			if files == nil {
				files = make(map[blockio.FileID][]int64)
				victims[client] = files
			}
			files[key.File] = append(files[key.File], key.Index)
		}
	}
	var firstErr error
	for client, files := range victims {
		for file, indices := range files {
			if err := s.sendInvalidateMode(client, file, indices, true); err != nil && firstErr == nil {
				firstErr = err
			}
		}
	}
	s.ctr.drainHandoffs.Add(int64(len(dir)))
	return len(dir), firstErr
}

// trackHolders registers client as a holder of every block in the range.
func (s *Server) trackHolders(client uint32, file blockio.FileID, off, length int64) {
	if s.draining.Load() {
		return
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	s.holdRange(client, file, off, length)
}

// holdRange is trackHolders' body (s.mu held).
func (s *Server) holdRange(client uint32, file blockio.FileID, off, length int64) {
	first, count := blockio.BlockRange(off, length, s.blockSize)
	for i := int64(0); i < count; i++ {
		key := blockio.BlockKey{File: file, Index: first + i}
		hs := s.dir[key]
		if hs == nil {
			hs = make(holderSet)
			s.dir[key] = hs
		}
		hs[client] = struct{}{}
	}
}

// trackFlushed registers the flusher as a holder of every block an
// applied Flush frame covers — one directory lock per frame — and tells
// the observer about each.
func (s *Server) trackFlushed(m *wire.Flush) {
	if m.Client == 0 {
		return
	}
	bs := int64(s.blockSize)
	if !s.draining.Load() {
		s.mu.Lock()
		for _, blk := range m.Blocks {
			s.holdRange(m.Client, m.File, blk.Index*bs+int64(blk.Off), int64(len(blk.Data)))
		}
		s.mu.Unlock()
	}
	for _, blk := range m.Blocks {
		s.observe(m.Client, m.File, blk.Index*bs+int64(blk.Off), int64(len(blk.Data)), true)
	}
}

// collectVictims removes every holder other than writer from the directory
// entries covering the range and returns them grouped by client.
func (s *Server) collectVictims(writer uint32, file blockio.FileID, off, length int64) map[uint32][]int64 {
	first, count := blockio.BlockRange(off, length, s.blockSize)
	victims := make(map[uint32][]int64)
	s.mu.Lock()
	defer s.mu.Unlock()
	for i := int64(0); i < count; i++ {
		key := blockio.BlockKey{File: file, Index: first + i}
		for client := range s.dir[key] {
			if client == writer {
				continue
			}
			victims[client] = append(victims[client], key.Index)
			delete(s.dir[key], client)
		}
		if len(s.dir[key]) == 0 {
			delete(s.dir, key)
		}
	}
	return victims
}

// Holders returns the clients the directory currently records for a block
// (test hook).
func (s *Server) Holders(key blockio.BlockKey) []uint32 {
	s.mu.Lock()
	defer s.mu.Unlock()
	var out []uint32
	for c := range s.dir[key] {
		out = append(out, c)
	}
	return out
}

// sendInvalidate delivers one Invalidate round trip to a client cache
// through a pooled rpc client (dialed lazily, redialed after failures).
func (s *Server) sendInvalidate(client uint32, file blockio.FileID, indices []int64) error {
	return s.sendInvalidateMode(client, file, indices, false)
}

// sendInvalidateMode is sendInvalidate with the drain flag exposed: a
// drain-marked invalidation lets the client keep blocks it has dirtied.
func (s *Server) sendInvalidateMode(client uint32, file blockio.FileID, indices []int64, drain bool) error {
	rc, err := s.invalClientFor(client)
	if err != nil {
		return err
	}
	res := rc.Call(&wire.Invalidate{File: file, Indices: indices, Drain: drain})
	if res.Err != nil {
		return res.Err
	}
	if _, ok := res.Msg.(*wire.InvalidAck); !ok {
		return fmt.Errorf("iod %d: unexpected invalidation reply %v", s.id, res.Msg.WireType())
	}
	s.ctr.invalidations.Inc()
	return nil
}

func (s *Server) invalClientFor(client uint32) (*rpc.Client, error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	addr, ok := s.clients[client]
	if !ok {
		return nil, fmt.Errorf("iod %d: client %d not registered", s.id, client)
	}
	rc := s.inval[client]
	if rc == nil {
		if s.network == nil {
			return nil, fmt.Errorf("iod %d: no network to reach client %d", s.id, client)
		}
		// Invalidations are one serial round trip per victim: one
		// connection is all the overlap there is to exploit.
		rc = rpc.NewClient(rpc.ClientConfig{Network: s.network, Addr: addr, Conns: 1})
		s.inval[client] = rc
	}
	return rc, nil
}
