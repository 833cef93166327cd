package cachemod

import (
	"bytes"
	"runtime"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"pvfscache/internal/blockio"
	"pvfscache/internal/cachemod/buffer"
	"pvfscache/internal/globalcache"
	"pvfscache/internal/iod"
	"pvfscache/internal/metrics"
	"pvfscache/internal/mgr"
	"pvfscache/internal/rpc"
	"pvfscache/internal/transport"
	"pvfscache/internal/wire"
)

// TestHostilePeerBlockSizeRejected: a global-cache peer that answers
// PeerGet with anything but a whole block is buggy or hostile; installing
// or slicing its bytes used to panic the node (oversize data panics
// InstallFetched, short data the span copy). The read path must instead
// drop the response, count it, and fall through to the iod fetch.
func TestHostilePeerBlockSizeRejected(t *testing.T) {
	net := transport.NewMem()
	reg := metrics.NewRegistry()
	d := iod.New(0, 4096, net, reg)
	l, err := net.Listen("")
	if err != nil {
		t.Fatal(err)
	}
	defer l.Close()
	go d.ServeData(l)

	// Peer 0 is a stub that always claims a hit with an oversize block.
	pl, err := net.Listen("gc-hostile-peer")
	if err != nil {
		t.Fatal(err)
	}
	defer pl.Close()
	stub := rpc.NewServer(rpc.HandlerFunc(func(msg wire.Message) wire.Message {
		if _, ok := msg.(*wire.PeerGet); ok {
			return &wire.PeerGetResp{Status: wire.StatusOK, Data: make([]byte, 8192)}
		}
		return nil
	}), rpc.ServerConfig{})
	go stub.Serve(pl)
	defer stub.Close()

	// The mgr's view holds the stub as member 0; the module joins it as
	// member 1.
	mg := mgr.New(1, reg)
	ml, err := net.Listen("")
	if err != nil {
		t.Fatal(err)
	}
	defer ml.Close()
	go mg.Serve(ml)
	defer mg.Close()
	mg.Members().Join(0, "gc-hostile-peer")

	mod, err := New(Config{
		Network:      net,
		ClientID:     1,
		IODDataAddrs: []string{l.Addr()},
		Buffer:       buffer.Config{BlockSize: 4096, Capacity: 16},
		GlobalCache:  &globalcache.Options{SelfID: 1, MgrAddr: ml.Addr()},
		Registry:     reg,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer mod.Close()

	// A block whose ring primary is the hostile peer: the walk asks it
	// first.
	ring := mod.GlobalCacheNode().Ring()
	var key blockio.BlockKey
	for f := blockio.FileID(1); ; f++ {
		key = blockio.BlockKey{File: f, Index: 0}
		if ring.Members()[ring.Primary(key)].ID == 0 {
			break
		}
	}
	payload := bytes.Repeat([]byte{0x42}, 4096)
	d.Store().WriteAt(key.File, 0, payload)

	tr := mod.NewTransport()
	if !bytes.Equal(readAt(t, tr, 0, key.File, 0, 4096), payload) {
		t.Fatal("read did not fall through to the iod after the bad peer response")
	}
	snap := reg.Snapshot()
	if snap.Counters["module.gcache_bad_resp"] == 0 {
		t.Fatal("bad peer response not counted")
	}
	if snap.Counters["module.gcache_hits"] != 0 {
		t.Fatal("oversize peer response counted as a hit")
	}
}

// listenRecorder is a Network that remembers every listener opened on it.
type listenRecorder struct {
	transport.Network
	mu        sync.Mutex
	listeners []transport.Listener
}

func (n *listenRecorder) Listen(addr string) (transport.Listener, error) {
	l, err := n.Network.Listen(addr)
	if err == nil {
		n.mu.Lock()
		n.listeners = append(n.listeners, l)
		n.mu.Unlock()
	}
	return l, err
}

// TestGlobalCacheJoinFailureLeavesNothing: a global-cache node must join
// its mgr's view to start, so a module whose mgr address has no listener
// cannot start. New must return the join error, close every listener it
// opened (the invalidation listener and the peer-service one) and leave
// no goroutine behind.
func TestGlobalCacheJoinFailureLeavesNothing(t *testing.T) {
	mem := transport.NewMem()
	net := &listenRecorder{Network: mem}
	before := runtime.NumGoroutine()
	mod, err := New(Config{
		Network:      net,
		ClientID:     1,
		IODDataAddrs: []string{"iod-0"},
		GlobalCache:  &globalcache.Options{SelfID: 1, MgrAddr: "no-mgr"},
	})
	if err == nil {
		mod.Close()
		t.Fatal("New started a global-cache module whose mgr has no listener")
	}
	if !strings.Contains(err.Error(), "joining view via no-mgr") {
		t.Fatalf("New's error %q is not the failed join", err)
	}
	if len(net.listeners) != 2 {
		t.Fatalf("New opened %d listeners, want 2 (invalidations, peer service)", len(net.listeners))
	}
	for _, l := range net.listeners {
		if c, err := mem.Dial(l.Addr()); err == nil {
			c.Close()
			t.Fatalf("listener %s still accepts after the failed New", l.Addr())
		}
	}
	deadline := time.Now().Add(5 * time.Second)
	for runtime.NumGoroutine() > before {
		if time.Now().After(deadline) {
			buf := make([]byte, 1<<16)
			t.Fatalf("%d goroutines before New, %d after:\n%s", before, runtime.NumGoroutine(), buf[:runtime.Stack(buf, true)])
		}
		time.Sleep(time.Millisecond)
	}
}

// TestFlushAllWaitsForInFlightBlocks is the regression test for the race
// FlushAll's old fixed retry budget papered over: a block taken by a
// concurrent flusher round is invisible to TakeDirty (flushing=true), so
// FlushAll can only wait for that round to land. The old implementation
// retried 1000 times with a 1 ms sleep — a ~1 s budget that a slow flush
// port overruns, making FlushAll (and therefore Close) report falsely that
// dirty blocks were left behind while the flush was still in flight. The
// deadline-based wait must ride out a flush round far slower than that
// budget and return success once the data is durable.
func TestFlushAllWaitsForInFlightBlocks(t *testing.T) {
	if testing.Short() {
		t.Skip("multi-second in-flight flush delay")
	}
	const delay = 2 * time.Second // well past the old ~1 s retry budget

	net := transport.NewMem()
	reg := metrics.NewRegistry()
	d := iod.New(0, 4096, net, reg)

	// The iod is a stub that stalls every Flush for delay before applying
	// it to a real iod's store — a slow disk behind the flush peer. The
	// test reads nothing through it.
	started := make(chan struct{})
	l, err := net.Listen("")
	if err != nil {
		t.Fatal(err)
	}
	defer l.Close()
	stub := rpc.NewServer(rpc.HandlerFunc(func(msg wire.Message) wire.Message {
		if _, ok := msg.(*wire.Register); ok {
			return &wire.RegisterAck{Status: wire.StatusOK}
		}
		fm, ok := msg.(*wire.Flush)
		if !ok {
			return nil
		}
		close(started)
		time.Sleep(delay)
		for _, blk := range fm.Blocks {
			d.Store().WriteAt(fm.File, blk.Index*4096+int64(blk.Off), blk.Data)
		}
		return &wire.FlushAck{Status: wire.StatusOK}
	}), rpc.ServerConfig{})
	go stub.Serve(l)
	defer stub.Close()

	mod, err := New(Config{
		Network:      net,
		ClientID:     1,
		IODDataAddrs: []string{l.Addr()},
		Buffer:       buffer.Config{BlockSize: 4096, Capacity: 16},
		FlushPeriod:  time.Hour, // only the kicked round runs
		Registry:     reg,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer mod.Close()

	tr := mod.NewTransport()
	payload := bytes.Repeat([]byte{0x5A}, 4096)
	sendRecv(t, tr, 0, &wire.Write{File: 30, Offset: 0, Data: payload})

	// Put the block in flight on a background flusher round, then make
	// sure the round has really taken it before FlushAll starts.
	mod.kickAllStreams()
	select {
	case <-started:
	case <-time.After(5 * time.Second):
		t.Fatal("background flusher never picked up the dirty block")
	}

	t0 := time.Now()
	if err := mod.FlushAll(); err != nil {
		t.Fatalf("FlushAll failed while a flush was in flight: %v", err)
	}
	elapsed := time.Since(t0)
	if elapsed < delay/2 {
		t.Fatalf("FlushAll returned after %v without waiting for the in-flight round", elapsed)
	}
	if n := mod.Buffer().DirtyCount(); n != 0 {
		t.Fatalf("%d dirty blocks after FlushAll", n)
	}
	got := make([]byte, 4096)
	if n, _ := d.Store().ReadAt(30, 0, got); n != 4096 || !bytes.Equal(got, payload) {
		t.Fatalf("flushed data not durable (n=%d)", n)
	}
}

// TestProgressSignalBeforeWaitWakes: a signal sent after a waiter took the
// progress channel, but before it blocks on it, still wakes it; and a
// signal with no waiter allocates nothing (every flush ack sends one).
func TestProgressSignalBeforeWaitWakes(t *testing.T) {
	var p progress
	ch := p.next()
	p.signal()
	select {
	case <-ch:
	default:
		t.Fatal("a signal between taking the channel and waiting on it was lost")
	}
	if p.next() == ch {
		t.Fatal("the signal did not start a new generation")
	}
	p.signal()
	if allocs := testing.AllocsPerRun(100, p.signal); allocs != 0 {
		t.Fatalf("a signal with no waiter allocates %v times", allocs)
	}
}

// TestAwaitWakesOnSignalDuringCheck: a signal sent while await's check
// runs — a harvest that frees a frame just after a write found none —
// wakes the wait at once rather than after the stall.
func TestAwaitWakesOnSignalDuringCheck(t *testing.T) {
	r := newFetchRig(t, false, nil)
	calls := 0
	start := time.Now()
	done := r.mod.await(10*time.Second, func(signalled bool) (done, progressed bool) {
		calls++
		if calls == 1 {
			r.mod.progress.signal()
		}
		return calls > 1 && signalled, signalled
	})
	if !done || calls != 2 {
		t.Fatalf("await = %v after %d checks, want true after 2", done, calls)
	}
	if waited := time.Since(start); waited > 5*time.Second {
		t.Fatalf("the signal sent during the check was lost: woke after %v", waited)
	}
}

// TestAwaitPollIsNotProgress: with no progress signal, a wait whose check
// reports only the signal as progress gives up after its stall, although
// the stall spans several awaitPoll re-checks; none of them restarts it.
func TestAwaitPollIsNotProgress(t *testing.T) {
	r := newFetchRig(t, false, nil)
	const stall = 6 * awaitPoll
	var polls atomic.Int32
	start := time.Now()
	result := make(chan bool, 1)
	go func() { // Cleanup's Close ends a wait that never gives up
		result <- r.mod.await(stall, func(signalled bool) (done, progressed bool) {
			polls.Add(1)
			return false, signalled
		})
	}()
	var done bool
	select {
	case done = <-result:
	case <-time.After(10 * stall):
		t.Fatalf("await still waiting after %v, %d checks (stall %v)", 10*stall, polls.Load(), stall)
	}
	if waited := time.Since(start); done || waited < stall {
		t.Fatalf("await = %v after %v, want false after about %v", done, waited, stall)
	}
	if n := polls.Load(); n < 3 {
		t.Fatalf("%d checks, want a re-check every %v", n, awaitPoll)
	}
}
