package chaos

import (
	"bytes"
	"errors"
	"io"
	"sync"
	"testing"
	"time"

	"pvfscache/internal/chaos/waitfor"
	"pvfscache/internal/transport"
	"pvfscache/internal/wire"
)

// echoAccept starts a listener that drains (and discards) everything
// each accepted conn sends.
func drainListener(t *testing.T, net transport.Network) string {
	t.Helper()
	l, err := net.Listen(":0")
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { l.Close() })
	go func() {
		for {
			c, err := l.Accept()
			if err != nil {
				return
			}
			go io.Copy(io.Discard, c)
		}
	}()
	return l.Addr()
}

func TestCutRefusesDialsAndKillsConns(t *testing.T) {
	ctl := NewController(transport.NewMem())
	v := ctl.View("client")
	addr := drainListener(t, v)

	c, err := v.Dial(addr)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := c.Write([]byte("ok")); err != nil {
		t.Fatalf("pre-cut write: %v", err)
	}
	ctl.Cut(addr)
	if _, err := v.Dial(addr); !errors.Is(err, ErrInjected) {
		t.Fatalf("dial to cut addr: err=%v, want ErrInjected", err)
	}
	if _, err := c.Write([]byte("dead")); err == nil {
		t.Fatal("write on killed conn succeeded")
	}
	ctl.Restore(addr)
	c2, err := v.Dial(addr)
	if err != nil {
		t.Fatalf("dial after restore: %v", err)
	}
	if _, err := c2.Write([]byte("back")); err != nil {
		t.Fatalf("write after restore: %v", err)
	}
}

func TestPartitionBlocksDirectionallyUntilHeal(t *testing.T) {
	ctl := NewController(transport.NewMem())
	vA, vB := ctl.View("a"), ctl.View("b")
	addr := drainListener(t, vA)

	ca, err := vA.Dial(addr)
	if err != nil {
		t.Fatal(err)
	}
	cb, err := vB.Dial(addr)
	if err != nil {
		t.Fatal(err)
	}
	ctl.Partition([]string{"a"}, []string{addr})

	var mu sync.Mutex
	done := false
	go func() {
		ca.Write([]byte("blackholed"))
		mu.Lock()
		done = true
		mu.Unlock()
	}()
	// Origin b is unaffected — directionality.
	if _, err := cb.Write([]byte("flows")); err != nil {
		t.Fatalf("unpartitioned origin blocked: %v", err)
	}
	time.Sleep(20 * time.Millisecond)
	mu.Lock()
	early := done
	mu.Unlock()
	if early {
		t.Fatal("partitioned write completed before heal")
	}
	ctl.Heal()
	waitfor.Until(t, 2*time.Second, func() bool {
		mu.Lock()
		defer mu.Unlock()
		return done
	}, "blackholed write completing after heal")
}

func TestKillUnblocksPartitionedWriter(t *testing.T) {
	ctl := NewController(transport.NewMem())
	v := ctl.View("a")
	addr := drainListener(t, v)
	c, err := v.Dial(addr)
	if err != nil {
		t.Fatal(err)
	}
	ctl.Partition([]string{"a"}, []string{addr})
	errc := make(chan error, 1)
	go func() {
		_, err := c.Write([]byte("parked"))
		errc <- err
	}()
	time.Sleep(10 * time.Millisecond)
	ctl.Cut(addr) // kills the conn while its writer is parked in the blackhole
	select {
	case err := <-errc:
		if err == nil {
			t.Fatal("killed writer returned success")
		}
	case <-time.After(2 * time.Second):
		t.Fatal("writer still parked after its connection was killed")
	}
}

func TestBrownoutDelaysWrites(t *testing.T) {
	ctl := NewController(transport.NewMem())
	v := ctl.View("a")
	addr := drainListener(t, v)
	c, err := v.Dial(addr)
	if err != nil {
		t.Fatal(err)
	}
	const delay = 10 * time.Millisecond
	ctl.Brownout(delay, addr)
	start := time.Now()
	if _, err := c.Write([]byte("slow")); err != nil {
		t.Fatal(err)
	}
	if took := time.Since(start); took < delay {
		t.Fatalf("browned-out write took %v, want >= %v", took, delay)
	}
	ctl.Heal()
	start = time.Now()
	if _, err := c.Write([]byte("fast")); err != nil {
		t.Fatal(err)
	}
	if took := time.Since(start); took > delay {
		t.Fatalf("healed write still slow: %v", took)
	}
}

// frame encodes one tagged frame the way the rpc layer writes it.
func frame(t *testing.T, m wire.Message) []byte {
	t.Helper()
	var b bytes.Buffer
	if err := wire.WriteTagged(&b, 1, m); err != nil {
		t.Fatal(err)
	}
	return b.Bytes()
}

func TestShortWriteDeliversHalfFiresHookKillsConn(t *testing.T) {
	ctl := NewController(transport.NewMem())
	v := ctl.View("a")
	l, err := v.Listen(":0")
	if err != nil {
		t.Fatal(err)
	}
	defer l.Close()
	got := make(chan []byte, 1)
	go func() {
		c, err := l.Accept()
		if err != nil {
			return
		}
		b, _ := io.ReadAll(c)
		got <- b
	}()

	hooked := make(chan struct{})
	ctl.ArmShortWrite(l.Addr(), wire.TWrite, 1, func() { close(hooked) })
	c, err := v.Dial(l.Addr())
	if err != nil {
		t.Fatal(err)
	}
	first := frame(t, &wire.Write{File: 7, Data: []byte("first-ok")})
	if _, err := c.Write(first); err != nil {
		t.Fatalf("write before the armed count: %v", err)
	}
	second := frame(t, &wire.Write{File: 7, Data: []byte("0123456789abcdef")})
	n, err := c.Write(second)
	if !errors.Is(err, ErrInjected) {
		t.Fatalf("armed write: n=%d err=%v, want ErrInjected", n, err)
	}
	if n != len(second)/2 {
		t.Fatalf("armed write delivered %d bytes, want %d", n, len(second)/2)
	}
	select {
	case <-hooked:
	case <-time.After(time.Second):
		t.Fatal("hook never fired")
	}
	if _, err := c.Write(first); err == nil {
		t.Fatal("conn survived the short write")
	}
	// The peer sees exactly the pre-arm bytes plus the torn half frame.
	select {
	case b := <-got:
		want := string(first) + string(second[:len(second)/2])
		if string(b) != want {
			t.Fatalf("peer received %q, want %q", b, want)
		}
	case <-time.After(time.Second):
		t.Fatal("peer never saw EOF")
	}
	if ctl.Disarm(l.Addr()) {
		t.Fatal("arm still pending after firing")
	}
}

// TestShortWriteCountsFramesOfItsType arms a tear of the second Flush
// frame on an address that also carries reads: the first Flush, whose
// block data goes out in writes of their own, counts once; the
// ReadBlocks frame between them is not counted and arrives whole; and
// the next Flush is torn.
func TestShortWriteCountsFramesOfItsType(t *testing.T) {
	ctl := NewController(transport.NewMem())
	v := ctl.View("node0")
	l, err := v.Listen(":0")
	if err != nil {
		t.Fatal(err)
	}
	defer l.Close()
	type result struct {
		msgs []wire.Message
		err  error
	}
	got := make(chan result, 1)
	go func() {
		c, err := l.Accept()
		if err != nil {
			return
		}
		var r result
		for {
			_, _, m, _, err := wire.ReadFrameAliased(c)
			if err != nil {
				r.err = err
				break
			}
			r.msgs = append(r.msgs, m)
		}
		got <- r
	}()

	hooked := make(chan struct{})
	ctl.ArmShortWrite(l.Addr(), wire.TFlush, 1, func() { close(hooked) })
	c, err := v.Dial(l.Addr())
	if err != nil {
		t.Fatal(err)
	}
	// Block data that reads like a Flush header: only the length word of
	// the write that starts a frame may say where the next one starts.
	look := frame(t, &wire.Flush{File: 7})[:6]
	data := bytes.Repeat(look, (8<<10)/len(look)+1)[:8<<10]
	flush := &wire.Flush{Client: 1, File: 7, Blocks: []wire.FlushBlock{{Index: 0, Data: data}}}
	if err := wire.WriteTagged(c, 1, flush); err != nil {
		t.Fatalf("first Flush: %v", err)
	}
	read := &wire.ReadBlocks{Client: 1, File: 7, Exts: []wire.ReadExtent{{Offset: 0, Length: 4096}}}
	if err := wire.WriteTagged(c, 2, read); err != nil {
		t.Fatalf("ReadBlocks frame torn by a Flush arm: %v", err)
	}
	select {
	case <-hooked:
		t.Fatal("arm fired before the second Flush")
	default:
	}
	if err := wire.WriteTagged(c, 3, flush); !errors.Is(err, ErrInjected) {
		t.Fatalf("second Flush: err=%v, want ErrInjected", err)
	}
	select {
	case <-hooked:
	case <-time.After(time.Second):
		t.Fatal("hook never fired")
	}
	select {
	case r := <-got:
		if len(r.msgs) != 2 || r.msgs[0].WireType() != wire.TFlush || r.msgs[1].WireType() != wire.TReadBlocks {
			t.Fatalf("peer decoded %d whole frames (%v), want the first Flush and the ReadBlocks", len(r.msgs), r.msgs)
		}
		if r.err == nil || r.err == io.EOF {
			t.Fatalf("peer read err=%v after the torn Flush, want a short frame", r.err)
		}
	case <-time.After(time.Second):
		t.Fatal("peer never saw the connection end")
	}
}

func TestViewsShareOneFabric(t *testing.T) {
	ctl := NewController(transport.NewMem())
	addr := drainListener(t, ctl.View("server"))
	for _, origin := range []string{"node0", "node1"} {
		c, err := ctl.View(origin).Dial(addr)
		if err != nil {
			t.Fatalf("view %s dial: %v", origin, err)
		}
		if _, err := c.Write([]byte(origin)); err != nil {
			t.Fatalf("view %s write: %v", origin, err)
		}
		c.Close()
	}
}
