package rpc

import (
	"errors"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"pvfscache/internal/transport"
	"pvfscache/internal/wire"
)

// blackhole accepts connections and never answers — the shape of a hung
// (not crashed) peer. The returned stop function closes the listener and
// drops every held conn.
func blackhole(t *testing.T, net transport.Network, addr string) func() {
	t.Helper()
	l, err := net.Listen(addr)
	if err != nil {
		t.Fatal(err)
	}
	var mu sync.Mutex
	var conns []transport.Conn
	go func() {
		for {
			c, err := l.Accept()
			if err != nil {
				return
			}
			mu.Lock()
			conns = append(conns, c)
			mu.Unlock()
		}
	}()
	return func() {
		l.Close()
		mu.Lock()
		defer mu.Unlock()
		for _, c := range conns {
			c.Close()
		}
		conns = nil
	}
}

// TestCallTimeoutOnHungPeer: a peer that accepts but never replies must
// cost one bounded timeout per call, not a hung caller.
func TestCallTimeoutOnHungPeer(t *testing.T) {
	net := transport.NewMem()
	stop := blackhole(t, net, "hung")
	defer stop()

	c := NewClient(ClientConfig{Network: net, Addr: "hung", Conns: 1, CallTimeout: 50 * time.Millisecond})
	defer c.Close()

	start := time.Now()
	res := c.Call(&wire.Read{Offset: 1})
	if !errors.Is(res.Err, ErrCallTimeout) {
		t.Fatalf("err = %v, want ErrCallTimeout", res.Err)
	}
	if d := time.Since(start); d > 2*time.Second {
		t.Fatalf("timeout took %v, want ~50ms", d)
	}
}

// TestConnDeathMidCall kills the pooled connection while a call is in
// flight: the in-flight call must fail fast with a retryable error (not
// hang, not ErrClosed), and the next call must re-dial and succeed once
// the peer is back.
func TestConnDeathMidCall(t *testing.T) {
	mem := &countingNetwork{Network: transport.NewMem()}
	stop := blackhole(t, mem, "flaky")

	c := NewClient(ClientConfig{Network: mem, Addr: "flaky", Conns: 1})
	defer c.Close()

	ch := make(chan Result, 1)
	if err := c.Go(&wire.Read{Offset: 7}, ch); err != nil {
		t.Fatal(err)
	}
	dialsBefore := mem.dials.Load()

	// Kill the server side of the connection mid-call.
	stop()
	select {
	case res := <-ch:
		if res.Err == nil {
			t.Fatal("in-flight call succeeded against a killed conn")
		}
		if errors.Is(res.Err, ErrClosed) {
			t.Fatalf("in-flight call failed with ErrClosed (not retryable): %v", res.Err)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("in-flight call hung after its connection died")
	}

	// Revive the peer on the same address; the next call must re-dial.
	l, err := mem.Network.Listen("flaky")
	if err != nil {
		t.Fatal(err)
	}
	s := NewServer(echoHandler(), ServerConfig{})
	go s.Serve(l)
	defer func() { l.Close(); s.Close() }()

	res := c.Call(&wire.Read{Offset: 9})
	if res.Err != nil {
		t.Fatalf("call after revival failed: %v", res.Err)
	}
	if got := echoed(t, res); got != 9 {
		t.Fatalf("wrong echo after re-dial: %d", got)
	}
	if mem.dials.Load() <= dialsBefore {
		t.Fatal("client reused the dead connection instead of re-dialing")
	}
}

// TestEjectAndReadmit drives the breaker end to end: consecutive dial
// failures eject the peer (calls fail fast without dialing), the prober
// readmits it once it accepts connections again, and traffic resumes.
func TestEjectAndReadmit(t *testing.T) {
	mem := &countingNetwork{Network: transport.NewMem()}
	var ejects, readmits, probes atomic.Int64
	c := NewClient(ClientConfig{
		Network: mem,
		Addr:    "peer",
		Conns:   1,
		Health: &HealthConfig{
			OnEject:   func() { ejects.Add(1) },
			OnReadmit: func() { readmits.Add(1) },
			OnProbe:   func() { probes.Add(1) },
		},
	})
	defer c.Close()

	// No listener: failThreshold dial failures open the breaker.
	for i := 0; i < failThreshold; i++ {
		if res := c.Call(&wire.Read{Offset: 1}); res.Err == nil {
			t.Fatal("call succeeded with no listener")
		}
	}
	if !c.Ejected() {
		t.Fatal("peer not ejected after failThreshold failures")
	}
	if ejects.Load() != 1 {
		t.Fatalf("OnEject fired %d times, want 1", ejects.Load())
	}

	// Ejected: calls fail fast with ErrPeerEjected and do not dial. The
	// prober's own dials keep running, so compare client-path dials via the
	// error identity rather than the dial count.
	res := c.Call(&wire.Read{Offset: 2})
	if !errors.Is(res.Err, ErrPeerEjected) {
		t.Fatalf("ejected-peer call err = %v, want ErrPeerEjected", res.Err)
	}

	// Revive the peer: the prober readmits within a few intervals.
	l, err := mem.Network.Listen("peer")
	if err != nil {
		t.Fatal(err)
	}
	s := NewServer(echoHandler(), ServerConfig{})
	go s.Serve(l)
	defer func() { l.Close(); s.Close() }()

	deadline := time.Now().Add(5 * time.Second)
	for c.Ejected() {
		if time.Now().After(deadline) {
			t.Fatalf("peer never readmitted (probes=%d)", probes.Load())
		}
		time.Sleep(time.Millisecond)
	}
	if readmits.Load() != 1 {
		t.Fatalf("OnReadmit fired %d times, want 1", readmits.Load())
	}
	if probes.Load() == 0 {
		t.Fatal("readmitted without a probe")
	}
	res = c.Call(&wire.Read{Offset: 3})
	if res.Err != nil {
		t.Fatalf("call after readmission failed: %v", res.Err)
	}
	if got := echoed(t, res); got != 3 {
		t.Fatalf("wrong echo after readmission: %d", got)
	}
}

// TestProbeStopsOnClose closes the client while ejected and checks the
// prober exits instead of dialing forever.
func TestProbeStopsOnClose(t *testing.T) {
	mem := &countingNetwork{Network: transport.NewMem()}
	c := NewClient(ClientConfig{
		Network: mem,
		Addr:    "gone",
		Health:  &HealthConfig{},
	})
	for i := 0; i < failThreshold; i++ {
		if res := c.Call(&wire.Read{Offset: 1}); res.Err == nil {
			t.Fatal("call succeeded with no listener")
		}
	}
	if !c.Ejected() {
		t.Fatal("not ejected at failThreshold")
	}
	c.Close()
	time.Sleep(5 * time.Millisecond)
	quiesced := mem.dials.Load()
	time.Sleep(3 * probeInterval) // a prober still running would dial in here
	if d := mem.dials.Load(); d != quiesced {
		t.Fatalf("prober still dialing after Close (%d -> %d)", quiesced, d)
	}
}
