package rpc

import (
	"bytes"
	"encoding/binary"
	"errors"
	"fmt"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"pvfscache/internal/transport"
	"pvfscache/internal/wire"
)

// echoHandler answers a Read with a ReadResp whose Data encodes the
// request's Offset, so callers can match responses to requests.
func echoHandler() Handler {
	return HandlerFunc(func(m wire.Message) wire.Message {
		r, ok := m.(*wire.Read)
		if !ok {
			return nil
		}
		data := binary.BigEndian.AppendUint64(nil, uint64(r.Offset))
		return &wire.ReadResp{Status: wire.StatusOK, Data: data}
	})
}

func echoed(t *testing.T, res Result) int64 {
	t.Helper()
	if res.Err != nil {
		t.Fatal(res.Err)
	}
	rr, ok := res.Msg.(*wire.ReadResp)
	if !ok {
		t.Fatalf("unexpected reply %v", res.Msg.WireType())
	}
	v := int64(binary.BigEndian.Uint64(rr.Data))
	res.Release() // rr.Data aliases the leased frame; dead after decoding
	return v
}

func startServer(t *testing.T, net transport.Network, h Handler, cfg ServerConfig) (*Server, string) {
	t.Helper()
	l, err := net.Listen(":0")
	if err != nil {
		t.Fatal(err)
	}
	s := NewServer(h, cfg)
	go s.Serve(l)
	t.Cleanup(func() { l.Close(); s.Close() })
	return s, l.Addr()
}

// TestOutOfOrderCompletion blocks the first request inside the handler
// until the second one has been served: with tag demultiplexing the second
// response overtakes the first on the same connection.
func TestOutOfOrderCompletion(t *testing.T) {
	net := transport.NewMem()
	release := make(chan struct{})
	h := HandlerFunc(func(m wire.Message) wire.Message {
		r := m.(*wire.Read)
		switch r.Offset {
		case 1:
			<-release // held until request 2 completes
		case 2:
			defer close(release)
		}
		data := binary.BigEndian.AppendUint64(nil, uint64(r.Offset))
		return &wire.ReadResp{Status: wire.StatusOK, Data: data}
	})
	_, addr := startServer(t, net, h, ServerConfig{})
	// A single pooled connection forces both requests onto one stream.
	c := NewClient(ClientConfig{Network: net, Addr: addr, Conns: 1})
	defer c.Close()

	ch1, ch2 := make(chan Result, 1), make(chan Result, 1)
	if err := c.Go(&wire.Read{Offset: 1}, ch1); err != nil {
		t.Fatal(err)
	}
	if err := c.Go(&wire.Read{Offset: 2}, ch2); err != nil {
		t.Fatal(err)
	}
	select {
	case res := <-ch2:
		if got := echoed(t, res); got != 2 {
			t.Fatalf("second response echoed %d", got)
		}
	case res := <-ch1:
		t.Fatalf("first (blocked) request completed first: %+v", res)
	}
	if got := echoed(t, <-ch1); got != 1 {
		t.Fatalf("first response echoed %d", got)
	}
}

// countingNetwork counts dials so tests can assert pool reuse.
type countingNetwork struct {
	transport.Network
	dials atomic.Int64
}

func (n *countingNetwork) Dial(addr string) (transport.Conn, error) {
	n.dials.Add(1)
	return n.Network.Dial(addr)
}

// TestConnectionPoolReuse issues many sequential calls and checks the
// client never dials more than its pool size.
func TestConnectionPoolReuse(t *testing.T) {
	net := &countingNetwork{Network: transport.NewMem()}
	_, addr := startServer(t, net, echoHandler(), ServerConfig{})
	c := NewClient(ClientConfig{Network: net, Addr: addr, Conns: 2})
	defer c.Close()
	for i := 0; i < 32; i++ {
		res := c.Call(&wire.Read{Offset: int64(i)})
		if res.Err != nil {
			t.Fatal(res.Err)
		}
		if got := echoed(t, res); got != int64(i) {
			t.Fatalf("call %d: wrong echo", i)
		}
	}
	if d := net.dials.Load(); d > 2 {
		t.Fatalf("dialed %d times for a pool of 2", d)
	}
}

// parkingNetwork dials connections whose Write of a payload-sized segment
// parks until the test releases it: a transport that still holds the
// request's bytes.
type parkingNetwork struct {
	transport.Network
	size    int           // a Write of exactly this many bytes parks
	parked  chan struct{} // receives once per parked Write
	release chan struct{} // closing it lets every parked Write proceed
}

func (n *parkingNetwork) Dial(addr string) (transport.Conn, error) {
	c, err := n.Network.Dial(addr)
	return &parkingConn{Conn: c, n: n}, err
}

type parkingConn struct {
	transport.Conn
	n *parkingNetwork
}

func (c *parkingConn) Write(p []byte) (int, error) {
	if len(p) == c.n.size {
		c.n.parked <- struct{}{}
		<-c.n.release
	}
	return c.Conn.Write(p)
}

// TestCallReturnsAfterItsWrite pins the borrow that lets a caller reuse a
// request's buffer as soon as Call returns (the flush streams' snapshot
// slab): Call does not return while the transport's Write still holds the
// request's bytes — with no CallTimeout, and with one that runs out many
// times over during the held write, since its timer starts only once the
// write has returned.
func TestCallReturnsAfterItsWrite(t *testing.T) {
	const size = 64 << 10
	for _, timeout := range []time.Duration{0, time.Millisecond} {
		t.Run(fmt.Sprint(timeout), func(t *testing.T) {
			net := &parkingNetwork{Network: transport.NewMem(), size: size,
				parked: make(chan struct{}, 1), release: make(chan struct{})}
			_, addr := startServer(t, net, HandlerFunc(func(wire.Message) wire.Message {
				return &wire.WriteAck{Status: wire.StatusOK}
			}), ServerConfig{})
			c := NewClient(ClientConfig{Network: net, Addr: addr, CallTimeout: timeout})
			defer c.Close()
			returned := make(chan Result, 1)
			go func() { returned <- c.Call(&wire.Write{File: 1, Data: make([]byte, size)}) }()
			<-net.parked
			select {
			case res := <-returned:
				t.Fatalf("Call returned (%v) while its write was still held", res.Err)
			case <-time.After(20 * time.Millisecond):
			}
			close(net.release)
			if res := <-returned; res.Err != nil && (timeout == 0 || !errors.Is(res.Err, ErrCallTimeout)) {
				t.Fatalf("Call after the write was released: %v", res.Err)
			}
		})
	}
}

// TestRedialAfterPeerCrash kills the server mid-conversation and checks
// the client fails in-flight calls, then recovers once a new server
// listens on the same address.
func TestRedialAfterPeerCrash(t *testing.T) {
	mem := transport.NewMem()
	l, err := mem.Listen("peer")
	if err != nil {
		t.Fatal(err)
	}
	s := NewServer(echoHandler(), ServerConfig{})
	go s.Serve(l)

	c := NewClient(ClientConfig{Network: mem, Addr: "peer", Conns: 2})
	defer c.Close()
	if res := c.Call(&wire.Read{Offset: 1}); res.Err != nil {
		t.Fatal(res.Err)
	} else {
		res.Release()
	}

	// Crash: close the listener and every server-side connection.
	l.Close()
	s.Close()

	// Calls now fail (possibly after one or two attempts while the broken
	// pool drains), and must NOT hang.
	failed := false
	for i := 0; i < 10; i++ {
		res := c.Call(&wire.Read{Offset: 2})
		res.Release()
		if res.Err != nil {
			failed = true
			break
		}
	}
	if !failed {
		t.Fatal("no call failed after peer crash")
	}

	// Revive the peer on the same address: the client redials.
	l2, err := mem.Listen("peer")
	if err != nil {
		t.Fatal(err)
	}
	s2 := NewServer(echoHandler(), ServerConfig{})
	go s2.Serve(l2)
	defer func() { l2.Close(); s2.Close() }()

	var lastErr error
	for i := 0; i < 10; i++ {
		res := c.Call(&wire.Read{Offset: 3})
		if res.Err != nil {
			lastErr = res.Err
			continue
		}
		if got := echoed(t, res); got != 3 {
			t.Fatal("wrong echo after redial")
		}
		return
	}
	t.Fatalf("client never recovered after peer revival: %v", lastErr)
}

// deafNetwork dials connections whose read loop does not see the peer go
// away: a failed Read is held until the client closes the connection
// itself. That pins the window in which a pooled connection is dead but
// not yet failed, so the next send finds it by its write alone.
type deafNetwork struct {
	transport.Network
	mu    sync.Mutex
	dials int
}

func (n *deafNetwork) Dial(addr string) (transport.Conn, error) {
	n.mu.Lock()
	n.dials++
	n.mu.Unlock()
	c, err := n.Network.Dial(addr)
	if err != nil {
		return nil, err
	}
	return &deafConn{Conn: c, closed: make(chan struct{})}, nil
}

func (n *deafNetwork) dialed() int {
	n.mu.Lock()
	defer n.mu.Unlock()
	return n.dials
}

type deafConn struct {
	transport.Conn
	once   sync.Once
	closed chan struct{}
}

func (c *deafConn) Read(p []byte) (int, error) {
	n, err := c.Conn.Read(p)
	if err != nil {
		<-c.closed
	}
	return n, err
}

func (c *deafConn) Close() error {
	c.once.Do(func() { close(c.closed) })
	return c.Conn.Close()
}

// TestSendRedialsDeadPooledConn restarts the peer between two calls while
// the client's read loop has not noticed: the next Call's write fails on
// the dead pooled connection, and send re-sends the frame once on a fresh
// dial instead of failing the call. With the peer gone for good, the fresh
// dial's failure is the call's error.
func TestSendRedialsDeadPooledConn(t *testing.T) {
	mem := transport.NewMem()
	net := &deafNetwork{Network: mem}
	serve := func() func() {
		l, err := mem.Listen("peer")
		if err != nil {
			t.Fatal(err)
		}
		s := NewServer(echoHandler(), ServerConfig{})
		go s.Serve(l)
		return func() { l.Close(); s.Close() }
	}
	stop := serve()
	c := NewClient(ClientConfig{Network: net, Addr: "peer", Conns: 1})
	defer c.Close()
	if got := echoed(t, c.Call(&wire.Read{Offset: 1})); got != 1 {
		t.Fatalf("echo = %d, want 1", got)
	}

	stop() // the restart: every server-side connection closes
	stop = serve()
	if got := echoed(t, c.Call(&wire.Read{Offset: 2})); got != 2 {
		t.Fatalf("echo after restart = %d, want 2", got)
	}
	if n := net.dialed(); n != 2 {
		t.Fatalf("%d dials, want 2: one redial after the restart", n)
	}

	stop() // gone for good: the redial is refused
	res := c.Call(&wire.Read{Offset: 3})
	res.Release()
	if res.Err == nil || !strings.Contains(res.Err.Error(), "dialing") {
		t.Fatalf("call to a stopped peer = %v, want the redial's error", res.Err)
	}
	if n := net.dialed(); n != 3 {
		t.Fatalf("%d dials, want 3: one redial, no more", n)
	}
}

// TestUntaggedFrameDropsConnection sends a Stat in the retired untagged
// form ([u32 len][u16 type][payload], no tag bit): the server drops that
// connection without answering, and a tagged client is still served.
func TestUntaggedFrameDropsConnection(t *testing.T) {
	net := transport.NewMem()
	h := HandlerFunc(func(m wire.Message) wire.Message {
		st, ok := m.(*wire.Stat)
		if !ok {
			return nil
		}
		return &wire.StatResp{Status: wire.StatusOK, Meta: wire.FileMeta{Size: int64(st.File)}}
	})
	_, addr := startServer(t, net, h, ServerConfig{})
	conn, err := net.Dial(addr)
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()
	untaggedStat := []byte{0, 0, 0, 0x0a, 0x01, 0x05, 0, 0, 0, 0, 0, 0, 0, 7}
	if _, err := conn.Write(untaggedStat); err != nil {
		t.Fatal(err)
	}
	if n, err := conn.Read(make([]byte, 64)); err == nil {
		t.Fatalf("untagged frame answered with %d bytes, want the connection dropped", n)
	}

	c := NewClient(ClientConfig{Network: net, Addr: addr, Conns: 1})
	defer c.Close()
	res := c.Call(&wire.Stat{File: 7})
	if res.Err != nil {
		t.Fatalf("tagged call after a dropped untagged peer: %v", res.Err)
	}
	if sr := res.Msg.(*wire.StatResp); sr.Meta.Size != 7 {
		t.Fatalf("stat answered %+v", sr)
	}
}

// TestHandlerNilClosesConnection checks the protocol-error path: a
// handler returning nil drops the connection and fails the caller instead
// of hanging it.
func TestHandlerNilClosesConnection(t *testing.T) {
	net := transport.NewMem()
	_, addr := startServer(t, net, echoHandler(), ServerConfig{})
	c := NewClient(ClientConfig{Network: net, Addr: addr, Conns: 1})
	defer c.Close()
	if res := c.Call(&wire.Stat{File: 1}); res.Err == nil {
		t.Fatal("expected error for message the handler rejects")
	}
}

// TestConcurrentStress hammers one client from many goroutines; run with
// -race. Payload echoes verify no response is delivered to the wrong
// caller under concurrency.
func TestConcurrentStress(t *testing.T) {
	net := transport.NewMem()
	h := HandlerFunc(func(m wire.Message) wire.Message {
		w, ok := m.(*wire.Write)
		if !ok {
			return nil
		}
		// Echo the payload back so callers can verify routing. The request
		// payload aliases the connection's frame buffer and is released
		// when Handle returns, so the echo must be a copy.
		return &wire.ReadResp{Status: wire.StatusOK, Data: append([]byte(nil), w.Data...)}
	})
	_, addr := startServer(t, net, h, ServerConfig{Concurrency: 4})
	c := NewClient(ClientConfig{Network: net, Addr: addr, Conns: 3})
	defer c.Close()

	const (
		goroutines = 16
		calls      = 200
	)
	var wg sync.WaitGroup
	errs := make(chan error, goroutines)
	for g := 0; g < goroutines; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			payload := make([]byte, 12)
			for i := 0; i < calls; i++ {
				binary.BigEndian.PutUint32(payload[0:4], uint32(g))
				binary.BigEndian.PutUint64(payload[4:12], uint64(i))
				res := c.Call(&wire.Write{Offset: int64(i), Data: payload})
				if res.Err != nil {
					errs <- fmt.Errorf("goroutine %d call %d: %w", g, i, res.Err)
					return
				}
				rr, ok := res.Msg.(*wire.ReadResp)
				if !ok || !bytes.Equal(rr.Data, payload) {
					errs <- fmt.Errorf("goroutine %d call %d: response routed to wrong caller", g, i)
					return
				}
				res.Release()
			}
		}(g)
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Error(err)
	}
}

// TestLeasePoisonRoundTrips drives the complete leased-buffer cycle with
// poison-on-release enabled: the server builds responses in pooled
// buffers recycled by AfterWrite after the vectored frame write, the
// client decodes them zero-copy into leased frames and releases after
// verification. Any buffer recycled while still aliased — on either side
// — surfaces as a poisoned or cross-request byte in the verification, and
// as a data race under -race.
func TestLeasePoisonRoundTrips(t *testing.T) {
	SetLeasePoison(true)
	defer SetLeasePoison(false)

	net := transport.NewMem()
	var pool BufPool
	h := HandlerFunc(func(m wire.Message) wire.Message {
		r, ok := m.(*wire.Read)
		if !ok {
			return nil
		}
		// An 8 KB pooled response stamped with a per-request byte, large
		// enough that the vectored (scatter-gather) encoder engages.
		data := pool.Get(8 << 10)
		fill := byte(r.Offset)
		if fill == wire.PoisonByte {
			fill ^= 0x55
		}
		for i := range data {
			data[i] = fill
		}
		return &wire.ReadResp{Status: wire.StatusOK, Data: data}
	})
	_, addr := startServer(t, net, h, ServerConfig{
		Concurrency: 4,
		AfterWrite: func(resp wire.Message) {
			if rr, ok := resp.(*wire.ReadResp); ok {
				pool.Put(rr.Data)
			}
		},
	})
	c := NewClient(ClientConfig{Network: net, Addr: addr, Conns: 2})
	defer c.Close()

	var wg sync.WaitGroup
	errs := make(chan error, 8)
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < 100; i++ {
				off := int64(g*100 + i)
				res := c.Call(&wire.Read{Offset: off})
				if res.Err != nil {
					errs <- res.Err
					return
				}
				rr := res.Msg.(*wire.ReadResp)
				want := byte(off)
				if want == wire.PoisonByte {
					want ^= 0x55
				}
				for j, b := range rr.Data {
					if b != want {
						errs <- fmt.Errorf("goroutine %d call %d: byte %d = %#x, want %#x (recycled under a live alias?)",
							g, i, j, b, want)
						res.Release()
						return
					}
				}
				res.Release()
			}
		}(g)
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Error(err)
	}
}

// TestLargeFramesNoDeadlock floods one connection with requests and
// responses far larger than the transport's 64 KB buffer. A writer that
// held the bookkeeping lock across a blocking write would deadlock here
// (reader unable to drain while the writer waits for buffer space).
func TestLargeFramesNoDeadlock(t *testing.T) {
	net := transport.NewMem()
	h := HandlerFunc(func(m wire.Message) wire.Message {
		w, ok := m.(*wire.Write)
		if !ok {
			return nil
		}
		return &wire.ReadResp{Status: wire.StatusOK, Data: make([]byte, len(w.Data))}
	})
	_, addr := startServer(t, net, h, ServerConfig{Concurrency: 8})
	c := NewClient(ClientConfig{Network: net, Addr: addr, Conns: 1})
	defer c.Close()

	done := make(chan struct{})
	go func() {
		defer close(done)
		var wg sync.WaitGroup
		for g := 0; g < 8; g++ {
			wg.Add(1)
			go func() {
				defer wg.Done()
				payload := make([]byte, 128<<10)
				for i := 0; i < 4; i++ {
					res := c.Call(&wire.Write{Data: payload})
					if res.Err != nil {
						t.Error(res.Err)
						return
					}
					if rr := res.Msg.(*wire.ReadResp); len(rr.Data) != len(payload) {
						t.Error("short echo")
						return
					}
					res.Release()
				}
			}()
		}
		wg.Wait()
	}()
	select {
	case <-done:
	case <-time.After(30 * time.Second):
		t.Fatal("deadlock: large-frame traffic did not complete")
	}
}
