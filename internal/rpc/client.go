// Package rpc is the framed request/response core shared by every layer of
// the system: pvfs.DirectTransport, the cache module's iod clients, the
// iod's invalidation clients and the globalcache peer protocol all ride it.
//
//   - Client keeps a small pool of connections per peer and tags every
//     request (see wire.WriteTagged), so responses demultiplex by tag and
//     complete out of order: a slow read does not block unrelated requests
//     sharing the connection.
//   - Server is a shared accept/dispatch loop with a Handler interface,
//     serving internal/iod, internal/mgr, internal/globalcache and the
//     cache module's invalidation listener. Each connection's requests
//     are served by at most ServerConfig.Concurrency long-lived workers,
//     started as load demands; the read loop blocks while all are busy.
//
// A round trip starts no goroutine and makes no channel: Go delivers its
// Result to a reply channel the caller owns and re-uses (Call takes one
// from a pool), a request is served by a worker that already runs, and a
// response's lease comes from a pool.
//
// Every frame is tagged (see wire.WriteTagged); a peer that sends an
// untagged one has its connection dropped.
//
// Buffers move zero-copy: requests and responses are decoded with their
// bulk payload fields aliasing the connection's pooled frame buffer. On
// the server the frame is released when the Handler returns (handlers
// consume payloads, never retain them); on the client the frame travels
// with the Result as a Lease that the consumer releases once the payload
// bytes are dead. SetLeasePoison enables the debug mode that stamps
// released buffers so aliasing-after-release bugs surface loudly.
package rpc

import (
	"errors"
	"fmt"
	"sync"
	"sync/atomic"
	"time"

	"pvfscache/internal/transport"
	"pvfscache/internal/wire"
)

// DefaultConns is the connection-pool size per peer when ClientConfig
// leaves Conns zero. Two connections already let one slow response stream
// overlap with an unrelated request, and pools stay cheap on clusters with
// many peers.
const DefaultConns = 2

// ErrClosed is returned by calls on a closed client.
var ErrClosed = errors.New("rpc: client closed")

// Result is one completed round trip. Responses are decoded zero-copy:
// when Msg carries bulk payload bytes (ReadResp.Data and friends), those
// bytes alias the pooled frame buffer owned by Lease, and the consumer
// must call Release once they are dead — copy out first, release after.
// For payload-free responses Lease is nil and Release is a no-op.
type Result struct {
	Msg   wire.Message
	Err   error
	Lease *Lease
	gen   uint64 // the lease's generation this Result was handed
}

// Release recycles the frame buffer backing Msg's payload fields, if any.
// It is idempotent across the Result and its copies.
func (r Result) Release() { r.Lease.release(r.gen) }

// ClientConfig assembles a Client.
type ClientConfig struct {
	// Network dials the peer.
	Network transport.Network
	// Addr is the peer's address.
	Addr string
	// Conns is the connection-pool size (default DefaultConns).
	Conns int
	// CallTimeout bounds each synchronous Call round trip (zero = no
	// bound). On expiry the connection the request rode is torn down —
	// every waiter on it fails with ErrCallTimeout and the next call
	// re-dials — so a hung peer costs one timeout, not a hung caller.
	// Go is not subject to the timeout; async callers own their waits.
	CallTimeout time.Duration
	// Health, when non-nil, enables per-peer circuit breaking (see
	// HealthConfig): consecutive failures eject the peer, calls on an
	// ejected peer fail fast with ErrPeerEjected, and a background prober
	// readmits it.
	Health *HealthConfig
}

// Client issues concurrent round trips to one peer over a pool of
// connections. Connections are dialed lazily, redialed on the call after a
// failure, and shared by any number of goroutines; a failure fails every
// request in flight on the broken connection.
type Client struct {
	cfg    ClientConfig
	closed atomic.Bool
	hs     health
	stop   chan struct{} // closed by Close; stops the health prober

	mu    sync.Mutex
	conns []*clientConn
}

// clientConn is one pooled connection and its in-flight bookkeeping.
//
// Lock discipline: writeMu serializes dials and wire writes and is never
// held by the read loop; mu guards the bookkeeping and is only ever held
// briefly (never across a blocking write or dial), so the read loop can
// always acquire it to deliver responses — a writer blocked on a full
// transport buffer therefore cannot stop the reader from draining the
// other direction, which is what breaks the pipe-full deadlock.
type clientConn struct {
	client *Client

	writeMu sync.Mutex // dials + wire writes; taken before mu, never by readLoop

	mu      sync.Mutex
	conn    transport.Conn
	pending map[uint64]chan Result // tag -> waiter; its size is the load
	nextTag uint64
}

// NewClient returns a client for the peer at cfg.Addr. No connection is
// opened until the first call.
func NewClient(cfg ClientConfig) *Client {
	if cfg.Conns <= 0 {
		cfg.Conns = DefaultConns
	}
	c := &Client{cfg: cfg, conns: make([]*clientConn, cfg.Conns), stop: make(chan struct{})}
	for i := range c.conns {
		c.conns[i] = &clientConn{client: c}
	}
	return c
}

// Addr returns the peer address the client dials.
func (c *Client) Addr() string { return c.cfg.Addr }

// Go sends req and delivers exactly one Result to ch when the response
// arrives (or the connection fails). Requests issued concurrently may
// complete in any order. ch is the caller's reply slot: it must have a
// buffer of one and be empty, and the caller may re-use it for its next
// request once it has received this one's Result. When Go returns an
// error nothing is delivered and ch is left empty.
func (c *Client) Go(req wire.Message, ch chan Result) error {
	cc, err := c.pick()
	if err != nil {
		return err
	}
	_, err = cc.send(req, ch)
	return err
}

// replySlots recycles Call's reply channels. A channel goes back only
// after its one Result has been received, so it is always empty here.
var replySlots = sync.Pool{New: func() any { return make(chan Result, 1) }}

// Call is the synchronous form of Go, bounded by ClientConfig.CallTimeout
// when one is set. The caller owns the returned Result's lease (see
// Result.Release).
func (c *Client) Call(req wire.Message) Result {
	cc, err := c.pick()
	if err != nil {
		return Result{Err: err}
	}
	ch := replySlots.Get().(chan Result)
	defer replySlots.Put(ch)
	conn, err := cc.send(req, ch)
	if err != nil {
		return Result{Err: err}
	}
	if c.cfg.CallTimeout <= 0 {
		return <-ch
	}
	timer := time.NewTimer(c.cfg.CallTimeout)
	defer timer.Stop()
	select {
	case r := <-ch:
		return r
	case <-timer.C:
		// Fail the connection the request rode — but only if it is still
		// the live one; if it was already replaced, our waiter was failed
		// with it and the result below is immediate. After failLocked the
		// waiter is guaranteed a result (the response that raced in, or
		// ErrCallTimeout), so this receive cannot block.
		cc.mu.Lock()
		if cc.conn == conn {
			cc.failLocked(ErrCallTimeout)
		}
		cc.mu.Unlock()
		return <-ch
	}
}

// pick chooses the pooled connection with the fewest requests in flight.
func (c *Client) pick() (*clientConn, error) {
	c.mu.Lock()
	defer c.mu.Unlock()
	if c.closed.Load() {
		return nil, ErrClosed
	}
	if c.hs.ejected.Load() {
		return nil, ErrPeerEjected
	}
	best := c.conns[0]
	bestN := best.load()
	for _, cc := range c.conns[1:] {
		if n := cc.load(); n < bestN {
			best, bestN = cc, n
		}
	}
	return best, nil
}

// Close fails every in-flight request and closes the pool.
func (c *Client) Close() error {
	if c.closed.Swap(true) {
		return nil
	}
	close(c.stop)
	// The flag is set before any conn lock is taken, and send re-checks it
	// under the conn lock, so a send racing with Close either fails with
	// ErrClosed or registers its connection before failLocked reaps it —
	// never a leaked dial.
	for _, cc := range c.conns {
		cc.mu.Lock()
		cc.failLocked(ErrClosed)
		cc.mu.Unlock()
	}
	return nil
}

func (cc *clientConn) load() int {
	cc.mu.Lock()
	defer cc.mu.Unlock()
	return len(cc.pending)
}

// send writes req on this connection, dialing or redialing first if
// needed, with ch registered as its waiter. The waiter is registered
// before the write so the read loop can deliver (or failLocked can abort)
// no matter where the write blocks. The transport.Conn the request rode
// is returned so Call's timeout can fail exactly that connection and no
// newer one.
//
// A pooled connection can be dead before its read loop has noticed — the
// peer restarted since the last call. A frame whose write failed never
// reaches a handler (the server decodes whole frames only, and failLocked
// closes the connection), so send re-sends it once on a fresh dial when
// the failed connection was dialed before this send. A failed fresh
// connection is the caller's error. Either way the failed attempt's
// Result is taken back out of ch first: the re-sent request, or the
// caller's next one, finds ch empty.
func (cc *clientConn) send(req wire.Message, ch chan Result) (transport.Conn, error) {
	cc.writeMu.Lock()
	defer cc.writeMu.Unlock()
	for {
		conn, tag, fresh, err := cc.register(ch)
		if err != nil {
			return nil, err
		}
		werr := wire.WriteTagged(conn, tag, req)
		if werr == nil {
			return conn, nil
		}
		cc.mu.Lock()
		tooLarge := errors.Is(werr, wire.ErrTooLarge)
		withdrawn := false
		if tooLarge {
			// Encode-side rejection: no byte reached the wire, the
			// connection is still aligned. Withdraw only this waiter.
			if cc.pending[tag] == ch {
				delete(cc.pending, tag)
				withdrawn = true
			}
		} else if cc.conn == conn {
			cc.failLocked(werr)
		}
		cc.mu.Unlock()
		if !withdrawn {
			// Whoever took the waiter out of pending — failLocked here or
			// earlier, or a read loop that raced a late response in —
			// delivers its one Result: drain it.
			(<-ch).Release()
		}
		if tooLarge || fresh {
			return nil, fmt.Errorf("rpc: sending %v to %s: %w", req.WireType(), cc.client.cfg.Addr, werr)
		}
		// The stale connection is gone and its waiter drained: the next
		// pass dials, and registers ch again.
	}
}

// register returns the live connection, dialing one if there is none
// (fresh), and files ch under a new tag on it. The caller holds writeMu.
func (cc *clientConn) register(ch chan Result) (conn transport.Conn, tag uint64, fresh bool, err error) {
	cc.mu.Lock()
	if cc.client.closed.Load() {
		cc.mu.Unlock()
		return nil, 0, false, ErrClosed
	}
	if cc.conn == nil {
		// Dial without holding mu (writeMu already excludes concurrent
		// dialers), so a slow dial does not stall response delivery or
		// load inspection on the pool.
		cc.mu.Unlock()
		conn, err := cc.client.cfg.Network.Dial(cc.client.cfg.Addr)
		if err != nil {
			cc.client.noteFailure()
			return nil, 0, false, fmt.Errorf("rpc: dialing %s: %w", cc.client.cfg.Addr, err)
		}
		cc.mu.Lock()
		if cc.client.closed.Load() {
			cc.mu.Unlock()
			conn.Close()
			return nil, 0, false, ErrClosed
		}
		cc.conn = conn
		cc.pending = make(map[uint64]chan Result)
		go cc.readLoop(conn)
		fresh = true
	}
	conn = cc.conn
	cc.nextTag++
	tag = cc.nextTag
	cc.pending[tag] = ch
	cc.mu.Unlock()
	return conn, tag, fresh, nil
}

// readLoop demultiplexes responses from conn to their waiters until the
// connection fails or is replaced.
func (cc *clientConn) readLoop(conn transport.Conn) {
	for {
		tag, _, msg, payload, err := wire.ReadFrameAliased(conn)
		cc.mu.Lock()
		if cc.conn != conn {
			// A newer connection replaced this one; stop quietly.
			cc.mu.Unlock()
			wire.ReleasePayload(payload)
			return
		}
		if err != nil {
			cc.failLocked(err)
			cc.mu.Unlock()
			return
		}
		ch := cc.pending[tag]
		if ch == nil {
			cc.failLocked(fmt.Errorf("rpc: unsolicited %v from %s (tag %d)",
				msg.WireType(), cc.client.cfg.Addr, tag))
			cc.mu.Unlock()
			wire.ReleasePayload(payload)
			return
		}
		delete(cc.pending, tag)
		cc.mu.Unlock()
		cc.client.noteSuccess()
		lease, gen := newLease(payload)
		ch <- Result{Msg: msg, Lease: lease, gen: gen}
	}
}

// failLocked tears the connection down and fails every waiter. Every
// failure except our own shutdown counts against the peer's health (one
// count per connection failure, not per waiter).
func (cc *clientConn) failLocked(err error) {
	if !errors.Is(err, ErrClosed) {
		cc.client.noteFailure()
	}
	if cc.conn != nil {
		cc.conn.Close()
		cc.conn = nil
	}
	for _, ch := range cc.pending {
		ch <- Result{Err: err}
	}
	cc.pending = nil
}
