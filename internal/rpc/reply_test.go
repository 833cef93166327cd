package rpc

import (
	"errors"
	"runtime"
	"sync/atomic"
	"testing"
	"time"

	"pvfscache/internal/chaos/waitfor"
	"pvfscache/internal/transport"
	"pvfscache/internal/wire"
)

// failingNetwork dials connections whose next failWrites writes fail
// without sending a byte: a pooled connection that died under the client.
type failingNetwork struct {
	transport.Network
	failWrites atomic.Int32
}

func (n *failingNetwork) Dial(addr string) (transport.Conn, error) {
	c, err := n.Network.Dial(addr)
	if err != nil {
		return nil, err
	}
	return &failingConn{Conn: c, n: n}, nil
}

type failingConn struct {
	transport.Conn
	n *failingNetwork
}

var errWriteFailed = errors.New("test: write failed")

func (c *failingConn) Write(p []byte) (int, error) {
	for n := c.n.failWrites.Load(); n > 0; n = c.n.failWrites.Load() {
		if c.n.failWrites.CompareAndSwap(n, n-1) {
			return 0, errWriteFailed
		}
	}
	return c.Conn.Write(p)
}

// recvWithin receives ch's one Result, failing the test if none arrives.
func recvWithin(t *testing.T, ch chan Result) Result {
	t.Helper()
	select {
	case res := <-ch:
		return res
	case <-time.After(5 * time.Second):
		t.Fatal("no Result delivered")
		return Result{}
	}
}

// assertEmpty fails if ch holds a Result nobody asked for.
func assertEmpty(t *testing.T, ch chan Result, after string) {
	t.Helper()
	select {
	case res := <-ch:
		t.Fatalf("after %s the reply channel holds a stale Result (err %v)", after, res.Err)
	case <-time.After(10 * time.Millisecond):
	}
}

// TestReusedReplyChannelSeesOneResult re-uses one caller-owned reply
// channel across every way a round trip can end: a clean reply, a write
// that failed on a dead pooled connection and was re-sent on a redial, an
// encode-side rejection, a write that failed on the pooled connection and
// on its redial, and a connection failed by another call's CallTimeout.
// After each, the channel holds nothing stale, and the next call on it
// gets its own reply.
func TestReusedReplyChannelSeesOneResult(t *testing.T) {
	net := &failingNetwork{Network: transport.NewMem()}
	release := make(chan struct{})
	h := HandlerFunc(func(m wire.Message) wire.Message {
		if r, ok := m.(*wire.Read); ok && r.Offset < 0 {
			<-release
		}
		return echoHandler().Handle(m)
	})
	_, addr := startServer(t, net, h, ServerConfig{})
	c := NewClient(ClientConfig{Network: net, Addr: addr, Conns: 1, CallTimeout: 50 * time.Millisecond})
	defer c.Close()
	ch := make(chan Result, 1)
	call := func(off int64) {
		t.Helper()
		if err := c.Go(&wire.Read{Offset: off}, ch); err != nil {
			t.Fatalf("Go(%d): %v", off, err)
		}
		if got := echoed(t, recvWithin(t, ch)); got != off {
			t.Fatalf("Go(%d) received the reply of %d", off, got)
		}
		assertEmpty(t, ch, "a clean reply")
	}
	call(1)

	// The pooled connection's write fails; send re-sends on a redial.
	net.failWrites.Store(1)
	call(2)

	// Rejected before a byte is written: nothing is delivered.
	if err := c.Go(&wire.Write{Data: make([]byte, wire.MaxMessageSize)}, ch); !errors.Is(err, wire.ErrTooLarge) {
		t.Fatalf("oversized Go = %v, want ErrTooLarge", err)
	}
	assertEmpty(t, ch, "an oversized request")
	call(3)

	// The pooled connection and its redial both fail: Go's error, and
	// nothing in the channel.
	net.failWrites.Store(2)
	if err := c.Go(&wire.Read{Offset: 4}, ch); !errors.Is(err, errWriteFailed) {
		t.Fatalf("Go over two failed writes = %v, want the redial's write error", err)
	}
	assertEmpty(t, ch, "a failed redial")
	call(5)

	// A Call times out on the connection this Go rides: both fail with
	// ErrCallTimeout, the channel's Result is that error and only that.
	if err := c.Go(&wire.Read{Offset: -1}, ch); err != nil {
		t.Fatal(err)
	}
	if res := c.Call(&wire.Read{Offset: -2}); !errors.Is(res.Err, ErrCallTimeout) {
		t.Fatalf("blocked Call = %v, want ErrCallTimeout", res.Err)
	}
	if res := recvWithin(t, ch); !errors.Is(res.Err, ErrCallTimeout) {
		t.Fatalf("Go on the timed-out connection = %v, want ErrCallTimeout", res.Err)
	}
	close(release)
	assertEmpty(t, ch, "a CallTimeout")
	call(6)
	if got := echoed(t, c.Call(&wire.Read{Offset: 7})); got != 7 {
		t.Fatalf("Call after a timed-out Call received the reply of %d", got)
	}
}

// blockingHandler holds every Read until release closes, counting the
// requests in service.
type blockingHandler struct {
	inService atomic.Int64
	release   chan struct{}
}

func (h *blockingHandler) Handle(m wire.Message) wire.Message {
	if _, ok := m.(*wire.Read); !ok {
		return nil
	}
	h.inService.Add(1)
	<-h.release
	return &wire.ReadResp{Status: wire.StatusOK}
}

// sendReads writes n tagged Reads on conn.
func sendReads(t *testing.T, conn transport.Conn, n int) {
	t.Helper()
	for i := 0; i < n; i++ {
		if err := wire.WriteTagged(conn, uint64(i+1), &wire.Read{}); err != nil {
			t.Fatal(err)
		}
	}
}

// TestHostilePeersBoundGoroutines opens 32 connections that each fill
// every worker with a request the handler holds, plus one frame more than
// the workers can take. The server runs at most 1 + Concurrency
// goroutines per connection (ServerConfig's stated bound), serves no
// request beyond Concurrency per connection, and is back to its baseline
// once closed. How many connections a daemon accepts is not bounded here.
func TestHostilePeersBoundGoroutines(t *testing.T) {
	const conns, concurrency, slack = 32, 4, 8
	net := transport.NewMem()
	h := &blockingHandler{release: make(chan struct{})}
	l, err := net.Listen(":0")
	if err != nil {
		t.Fatal(err)
	}
	baseline := runtime.NumGoroutine()
	s := NewServer(h, ServerConfig{Concurrency: concurrency})
	served := make(chan struct{})
	go func() { s.Serve(l); close(served) }()
	var peers []transport.Conn
	for i := 0; i < conns; i++ {
		conn, err := net.Dial(l.Addr())
		if err != nil {
			t.Fatal(err)
		}
		peers = append(peers, conn)
		sendReads(t, conn, concurrency+1)
	}
	full := func() bool { return h.inService.Load() == conns*concurrency }
	waitfor.Until(t, 5*time.Second, full, "every worker holding a request")
	waitfor.Stable(t, 20*time.Millisecond, full, "no connection past Concurrency requests in service")
	if got, bound := runtime.NumGoroutine()-baseline, conns*(concurrency+1)+slack; got > bound {
		t.Fatalf("%d goroutines for %d connections of Concurrency %d, bound %d", got, conns, concurrency, bound)
	}
	close(h.release)
	l.Close()
	s.Close()
	<-served
	for _, c := range peers {
		c.Close()
	}
	waitfor.Until(t, 5*time.Second, func() bool { return runtime.NumGoroutine() <= baseline }, "the server's goroutines exiting")
}

// TestHandlerNilStopsWorkers: a handler's nil reply drops the connection,
// and every worker the connection started exits with it, while the
// server itself stays up.
func TestHandlerNilStopsWorkers(t *testing.T) {
	const concurrency = 4
	net := transport.NewMem()
	h := &blockingHandler{release: make(chan struct{})}
	_, addr := startServer(t, net, h, ServerConfig{Concurrency: concurrency})
	withServer := runtime.NumGoroutine()
	conn, err := net.Dial(addr)
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()
	sendReads(t, conn, concurrency-1)
	waitfor.Until(t, 5*time.Second, func() bool { return h.inService.Load() == concurrency-1 }, "the reads in service")
	if err := wire.WriteTagged(conn, 99, &wire.Stat{}); err != nil {
		t.Fatal(err)
	}
	if n, err := conn.Read(make([]byte, 64)); err == nil {
		t.Fatalf("a nil reply answered with %d bytes, want the connection dropped", n)
	}
	close(h.release)
	waitfor.Until(t, 5*time.Second, func() bool { return runtime.NumGoroutine() <= withServer }, "the connection's workers exiting")
}

// TestLeaseReleasesOncePerHandout: a Result and its copies release their
// frame buffer once, and a Result whose lease has been handed out again
// for another response releases nothing — with poison on, the new
// holder's bytes survive the stale release.
func TestLeaseReleasesOncePerHandout(t *testing.T) {
	SetLeasePoison(true)
	defer SetLeasePoison(false)
	first := make([]byte, 8)
	l, gen := newLease(first)
	r := Result{Lease: l, gen: gen}
	stale := r
	r.Release()
	if first[0] != wire.PoisonByte {
		t.Fatal("the first release did not recycle the buffer")
	}
	// The pool hands the recycled lease out again, as newLease does. The
	// new holder never releases it here: the lease is in the pool once.
	second := []byte("live data")
	l.buf = second
	stale.Release()
	r.Release()
	if string(second) != "live data" {
		t.Fatalf("a stale release recycled the next holder's buffer: %q", second)
	}
}
