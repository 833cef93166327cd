package cachemod

import (
	"bytes"
	"testing"
	"time"

	"pvfscache/internal/blockio"
	"pvfscache/internal/cachemod/buffer"
	"pvfscache/internal/globalcache"
	"pvfscache/internal/iod"
	"pvfscache/internal/membership"
	"pvfscache/internal/metrics"
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
	dl, err := net.Listen("")
	if err != nil {
		t.Fatal(err)
	}
	defer dl.Close()
	go d.ServeData(dl)

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

	mod, err := New(Config{
		Network:          net,
		ClientID:         1,
		IODDataAddrs:     []string{dl.Addr()},
		Buffer:           buffer.Config{BlockSize: 4096, Capacity: 16},
		DisableCoherence: true,
		GlobalCache: &globalcache.Options{
			SelfID: 1,
			Peers: []membership.Member{
				{ID: 0, Addr: "gc-hostile-peer"},
				{ID: 1, Addr: "gc-self-node"},
			},
			Replicas: 1, // primary only: the walk must hit the hostile peer
		},
		Registry: reg,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer mod.Close()

	// A block whose ring primary is the hostile peer.
	ring := membership.NewRing(membership.StaticView([]string{"gc-hostile-peer", "gc-self-node"}), 0, 1)
	var key blockio.BlockKey
	for f := blockio.FileID(1); ; f++ {
		key = blockio.BlockKey{File: f, Index: 0}
		if ring.Primary(key) == 0 {
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
	dl, err := net.Listen("")
	if err != nil {
		t.Fatal(err)
	}
	defer dl.Close()
	go d.ServeData(dl)

	// The flush port is a stub that stalls every Flush for delay before
	// applying it to the iod's store — a slow disk behind the flush peer.
	started := make(chan struct{})
	fl, err := net.Listen("")
	if err != nil {
		t.Fatal(err)
	}
	defer fl.Close()
	stub := rpc.NewServer(rpc.HandlerFunc(func(msg wire.Message) wire.Message {
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
	go stub.Serve(fl)
	defer stub.Close()

	mod, err := New(Config{
		Network:       net,
		ClientID:      1,
		IODDataAddrs:  []string{dl.Addr()},
		IODFlushAddrs: []string{fl.Addr()},
		Buffer:        buffer.Config{BlockSize: 4096, Capacity: 16},
		FlushPeriod:   time.Hour, // only the kicked round runs
		Registry:      reg,
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
	mod.kickFlusher()
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

// TestNewRejectsMismatchedFlushAddrs: with fewer flush addresses than
// iods, writes to the extra iods were acknowledged from the cache and then
// had no stream to drain them — FlushAll stalled out and the bytes never
// reached the iod. New must refuse any flush list that is neither one per
// iod nor empty (no write-behind).
func TestNewRejectsMismatchedFlushAddrs(t *testing.T) {
	data := []string{"iod-0", "iod-1"}
	for _, flush := range [][]string{nil, {"flush-0", "flush-1"}, {"flush-0"}, {"flush-0", "flush-1", "flush-2"}} {
		mod, err := New(Config{
			Network:          transport.NewMem(),
			ClientID:         1,
			IODDataAddrs:     data,
			IODFlushAddrs:    flush,
			DisableCoherence: true,
		})
		if want := len(flush) == 0 || len(flush) == len(data); want != (err == nil) {
			t.Errorf("%d flush addresses for %d iods: New returned %v", len(flush), len(data), err)
		}
		if err == nil {
			mod.Close()
		}
	}
}
