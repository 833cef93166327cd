// Package globalcache implements the first item of the paper's ongoing
// work (§5): "a global cache that can be shared by all the nodes ...
// before disk operations are really invoked."
//
// Every block has a primary home node plus failover replicas, chosen by
// consistent hashing over an epoch-versioned membership view
// (internal/membership). When a node fetches a block from an iod it
// pushes a copy to the block's primary (PeerPut); when a node misses
// locally it asks the replica set in order (PeerGet) before going to the
// iod. Cluster memory thus acts as a second cache level between the
// per-node caches and the daemons.
//
// Robustness model:
//
//   - Reads walk the replica set: an error, timeout, or ejected peer
//     moves the fetch to the next replica (membership.failovers counts
//     each hop). A clean miss from a reachable peer ends the walk — the
//     common-case miss must not pay replicas × latency.
//   - Every peer RPC is bounded by fetchTimeout and every peer client
//     runs the rpc health breaker, so a dead peer costs a bounded error
//     and is then ejected until a background probe readmits it.
//   - The node joins the mgr-coordinated view at start, refreshes it
//     every refreshPeriod, carries the view's epoch on every peer RPC,
//     and answers mismatched epochs with StatusStaleEpoch so both sides
//     converge on the mgr's view.
package globalcache

import (
	"errors"
	"fmt"
	"sync"
	"sync/atomic"
	"time"

	"pvfscache/internal/blockio"
	"pvfscache/internal/cachemod/buffer"
	"pvfscache/internal/membership"
	"pvfscache/internal/metrics"
	"pvfscache/internal/rpc"
	"pvfscache/internal/transport"
	"pvfscache/internal/wire"
)

// The global cache's fixed settings (DESIGN.md §12); its ring is
// membership's default geometry. The fetch timeout is far above a healthy
// in-cluster round trip (microseconds to low milliseconds) but small
// enough that degrading to an iod read on a dead peer costs less than a
// human-visible stall. The refresh period bounds how long a quiet node
// lags the mgr's view; a busy one learns of a change from its first
// stale-epoch answer.
const (
	fetchTimeout  = 100 * time.Millisecond
	refreshPeriod = 500 * time.Millisecond
)

// Options wires a node into the global cache.
type Options struct {
	// SelfID is this node's stable member ID.
	SelfID uint32
	// MgrAddr is the mgr whose membership view the node joins at start,
	// refreshes, and leaves on Close.
	MgrAddr string
}

// Node is one node's complete global-cache presence: the peer service
// answering PeerGet/PeerPut against the local buffer manager, the client
// side that queries and feeds remote peers, and the membership state
// (current ring, epoch, refresh machinery) both sides share.
type Node struct {
	opts    Options
	buf     *buffer.Manager
	network transport.Network
	reg     *metrics.Registry

	l   transport.Listener
	srv *rpc.Server

	mc   *membership.Client
	ring atomic.Pointer[membership.Ring]

	refreshMu sync.Mutex // serializes view refreshes (single-flight)
	refreshQ  atomic.Bool

	mu    sync.Mutex
	peers map[string]*rpc.Client // keyed by address; members shift indices across views

	blockBufs rpc.BufPool
	pushBufs  rpc.BufPool
	pushCh    chan wire.PeerPut
	wg        sync.WaitGroup
	stop      chan struct{}
	once      sync.Once
	killed    atomic.Bool
}

// Start brings up a node's global cache on l: join the mgr's membership
// view, advertising l's address, serve the local buffer manager to
// peers, and start the push forwarder and view refresher. A failed join
// leaves nothing running; closing l stays the caller's.
func Start(opts Options, buf *buffer.Manager, l transport.Listener, network transport.Network, reg *metrics.Registry) (*Node, error) {
	if reg == nil {
		reg = metrics.NewRegistry()
	}
	mc := membership.NewClient(network, opts.MgrAddr)
	view, err := mc.Join(opts.SelfID, l.Addr())
	if err != nil {
		mc.Close()
		return nil, fmt.Errorf("globalcache: joining view via %s: %w", opts.MgrAddr, err)
	}
	n := &Node{
		opts:    opts,
		buf:     buf,
		network: network,
		reg:     reg,
		l:       l,
		mc:      mc,
		peers:   make(map[string]*rpc.Client),
		pushCh:  make(chan wire.PeerPut, 256),
		stop:    make(chan struct{}),
	}
	n.ring.Store(newRing(view))

	n.srv = rpc.NewServer(rpc.HandlerFunc(n.handle), rpc.ServerConfig{AfterWrite: n.recycle})
	go n.srv.Serve(l)

	n.wg.Add(2)
	go n.pushLoop()
	go n.refreshLoop()
	return n, nil
}

// newRing builds the ring a view routes blocks by.
func newRing(v membership.View) *membership.Ring {
	return membership.NewRing(v, membership.DefaultVNodes, membership.DefaultReplicas)
}

// Ring returns the node's current ring (test and bench introspection).
func (n *Node) Ring() *membership.Ring { return n.ring.Load() }

// Close leaves the view, stops the forwarder and refresher, and closes
// the service and every peer connection.
func (n *Node) Close() error {
	n.once.Do(func() { close(n.stop) })
	n.wg.Wait()
	// Best-effort deregistration: the mgr drops us from the view so
	// surviving peers stop routing to this address after their next
	// refresh. A dead mgr must not block shutdown.
	n.mc.Leave(n.opts.SelfID) //nolint:errcheck
	n.mc.Close()
	err := n.l.Close()
	n.srv.Close()
	n.mu.Lock()
	defer n.mu.Unlock()
	for _, rc := range n.peers {
		rc.Close()
	}
	n.peers = make(map[string]*rpc.Client)
	return err
}

// KillService fail-stops the peer service only — listener and server die,
// the client side keeps running and the view keeps its entry. It models a
// crashed cache peer for the chaos harness: other nodes' fetches to this
// node start failing and must fail over, while this node's own reads
// degrade to iod traffic.
func (n *Node) KillService() {
	if n.killed.Swap(true) {
		return
	}
	n.l.Close()
	n.srv.Close()
}

// --- service side ---

func (n *Node) handle(msg wire.Message) wire.Message {
	switch m := msg.(type) {
	case *wire.PeerGet:
		if st := n.epochCheck(m.Epoch); st != wire.StatusOK {
			return &wire.PeerGetResp{Status: st}
		}
		data := n.blockBufs.Get(n.buf.BlockSize())
		key := blockio.BlockKey{File: m.File, Index: m.Index}
		if n.buf.ReadSpan(key, 0, data) {
			n.reg.Counter("gcache.serve_hits").Inc()
			return &wire.PeerGetResp{Status: wire.StatusOK, Data: data}
		}
		n.blockBufs.Put(data)
		n.reg.Counter("gcache.serve_misses").Inc()
		return &wire.PeerGetResp{Status: wire.StatusNotFound}
	case *wire.PeerPut:
		if st := n.epochCheck(m.Epoch); st != wire.StatusOK {
			return &wire.PeerPutAck{Status: st}
		}
		// Wire-supplied Data is peer-controlled. Legitimate peers always
		// push whole blocks; an oversize one would panic InsertClean, and
		// a SHORT one would be zero-filled and marked whole-valid — this
		// node would then serve those fabricated zero bytes to the whole
		// cluster as the block's home. Reject anything but a whole block.
		if len(m.Data) != n.buf.BlockSize() {
			return &wire.PeerPutAck{Status: wire.StatusBadRequest}
		}
		key := blockio.BlockKey{File: m.File, Index: m.Index}
		n.buf.InsertClean(key, int(m.Owner), m.Data)
		n.reg.Counter("gcache.puts_rx").Inc()
		return &wire.PeerPutAck{Status: wire.StatusOK}
	default:
		return nil
	}
}

// epochCheck compares a request's epoch against ours. Mismatch answers
// StatusStaleEpoch; when the requester is ahead, we are the stale side
// and kick an async refresh so we catch up without blocking the handler.
func (n *Node) epochCheck(reqEpoch uint64) wire.Status {
	ours := n.ring.Load().Epoch()
	if reqEpoch == 0 || ours == 0 || reqEpoch == ours {
		return wire.StatusOK
	}
	n.reg.Counter("membership.stale_epochs").Inc()
	if reqEpoch > ours {
		n.asyncRefresh()
	}
	return wire.StatusStaleEpoch
}

// recycle returns a served block buffer to the pool after the response
// has been written.
func (n *Node) recycle(resp wire.Message) {
	if gr, ok := resp.(*wire.PeerGetResp); ok {
		n.blockBufs.Put(gr.Data)
	}
}

// --- membership refresh ---

// refreshLoop periodically re-fetches the view so epoch changes propagate
// even to idle nodes (a node that never trips a stale-epoch response
// still learns about joins within refreshPeriod).
func (n *Node) refreshLoop() {
	defer n.wg.Done()
	ticker := time.NewTicker(refreshPeriod)
	defer ticker.Stop()
	for {
		select {
		case <-n.stop:
			return
		case <-ticker.C:
			n.refreshView()
		}
	}
}

// refreshView fetches the current view and swaps the ring if the epoch
// moved. Concurrent callers collapse onto one fetch.
func (n *Node) refreshView() bool {
	moved, _ := n.Refresh()
	return moved
}

// Refresh fetches the mgr's current view now and routes by it, rather
// than at the next periodic refresh; moved reports whether the epoch
// changed. A node that joined before others only knows the view of its
// own join: until it refreshes it routes every block homed at a later
// joiner to itself.
func (n *Node) Refresh() (moved bool, err error) {
	n.refreshMu.Lock()
	defer n.refreshMu.Unlock()
	v, err := n.mc.Fetch()
	if err != nil {
		return false, err
	}
	cur := n.ring.Load()
	if v.Epoch == cur.Epoch() {
		return false, nil
	}
	n.ring.Store(newRing(v))
	n.reg.Counter("membership.epoch_refreshes").Inc()
	return true, nil
}

// asyncRefresh schedules a refreshView off the caller's goroutine,
// single-flight: one pending refresh at a time.
func (n *Node) asyncRefresh() {
	if !n.refreshQ.CompareAndSwap(false, true) {
		return
	}
	go func() {
		defer n.refreshQ.Store(false)
		n.refreshView()
	}()
}

// --- client side ---

// Get fetches a block from its replica set into dst and reports the
// number of payload bytes returned along with whether the get hit. The
// walk is primary-first: an error, timeout, or ejected peer fails over to
// the next replica; a clean miss from a reachable peer (or this node
// itself being the replica) ends the walk — the block is simply not in
// cluster memory. A stale-epoch answer refreshes the view and retries the
// walk once. A healthy peer always serves a whole block; the caller must
// validate n against its block size before trusting dst. The peer's
// response bytes are copied out of their leased frame before this
// returns, so dst is caller-owned plain memory.
func (n *Node) Get(key blockio.BlockKey, dst []byte) (int, bool) {
	var setBuf [8]int
	for attempt := 0; attempt < 2; attempt++ {
		ring := n.ring.Load()
		set := ring.ReplicaSet(key, setBuf[:0])
		members := ring.Members()
		stale := false
		tried := 0
		for _, mi := range set {
			m := members[mi]
			if m.ID == n.opts.SelfID {
				// Our own cache already missed; the block is not here.
				break
			}
			if tried > 0 {
				n.reg.Counter("membership.failovers").Inc()
			}
			tried++
			res, err := n.fetch(m.Addr, &wire.PeerGet{File: key.File, Index: key.Index, Epoch: ring.Epoch()})
			if err != nil {
				continue // next replica
			}
			gr, ok := res.Msg.(*wire.PeerGetResp)
			if !ok {
				res.Release()
				continue
			}
			switch gr.Status {
			case wire.StatusOK:
				nb := len(gr.Data)
				copy(dst, gr.Data)
				res.Release()
				n.reg.Counter("gcache.get_hits").Inc()
				return nb, true
			case wire.StatusStaleEpoch:
				res.Release()
				stale = true
			default:
				res.Release()
			}
			// A reachable peer answered without the block: stop walking.
			break
		}
		if stale && n.refreshView() {
			continue // one retry against the new ring
		}
		break
	}
	n.reg.Counter("gcache.get_misses").Inc()
	return 0, false
}

// Push asynchronously forwards a freshly fetched block to its primary
// home node. Blocks homed at this node are ignored (they are already in
// the local cache). data is copied into a pooled buffer before Push
// returns, so the caller may recycle it immediately.
func (n *Node) Push(key blockio.BlockKey, owner int, data []byte) {
	ring := n.ring.Load()
	p := ring.Primary(key)
	if p < 0 || ring.Members()[p].ID == n.opts.SelfID {
		return
	}
	cp := n.pushBufs.Get(len(data))
	copy(cp, data)
	select {
	case n.pushCh <- wire.PeerPut{File: key.File, Index: key.Index, Owner: uint32(owner), Data: cp}:
	default:
		n.pushBufs.Put(cp)
		n.reg.Counter("gcache.push_dropped").Inc()
	}
}

// pushLoop delivers queued pushes. The primary is re-resolved at send
// time against the current ring (the view may have moved since Push), and
// a stale-epoch answer refreshes the view and retries once against the
// new primary.
func (n *Node) pushLoop() {
	defer n.wg.Done()
	for {
		select {
		case <-n.stop:
			return
		case put := <-n.pushCh:
			n.deliverPush(&put)
			n.pushBufs.Put(put.Data)
		}
	}
}

func (n *Node) deliverPush(put *wire.PeerPut) {
	for attempt := 0; attempt < 2; attempt++ {
		ring := n.ring.Load()
		p := ring.Primary(blockio.BlockKey{File: put.File, Index: put.Index})
		if p < 0 {
			return
		}
		m := ring.Members()[p]
		if m.ID == n.opts.SelfID {
			return
		}
		put.Epoch = ring.Epoch()
		res, err := n.fetch(m.Addr, put)
		if err != nil {
			return // push is best-effort; the block just isn't replicated
		}
		ack, ok := res.Msg.(*wire.PeerPutAck)
		st := wire.StatusOK
		if ok {
			st = ack.Status
		}
		res.Release()
		if st == wire.StatusStaleEpoch && n.refreshView() {
			continue
		}
		if st == wire.StatusOK {
			n.reg.Counter("gcache.push_tx").Inc()
		}
		return
	}
}

// fetch performs one bounded exchange with a peer. A non-timeout failure
// gets one immediate retry so a stale pooled connection can redial;
// timeouts and ejections propagate straight out so the caller fails over
// instead of paying the bound twice.
func (n *Node) fetch(addr string, req wire.Message) (rpc.Result, error) {
	rc := n.peerClient(addr)
	res := rc.Call(req)
	if res.Err != nil && !errors.Is(res.Err, rpc.ErrCallTimeout) && !errors.Is(res.Err, rpc.ErrPeerEjected) {
		res = rc.Call(req)
	}
	if res.Err != nil {
		return rpc.Result{}, fmt.Errorf("globalcache: peer %s unreachable: %w", addr, res.Err)
	}
	return res, nil
}

func (n *Node) peerClient(addr string) *rpc.Client {
	n.mu.Lock()
	defer n.mu.Unlock()
	rc := n.peers[addr]
	if rc == nil {
		rc = rpc.NewClient(rpc.ClientConfig{
			Network:     n.network,
			Addr:        addr,
			CallTimeout: fetchTimeout,
			Health: &rpc.HealthConfig{
				OnEject:   func() { n.reg.Counter("membership.ejections").Inc() },
				OnReadmit: func() { n.reg.Counter("membership.readmissions").Inc() },
				OnProbe:   func() { n.reg.Counter("membership.reprobes").Inc() },
			},
		})
		n.peers[addr] = rc
	}
	return rc
}
