package iod

import (
	"bytes"
	"sync"
	"testing"

	"pvfscache/internal/blockio"
	"pvfscache/internal/rpc"
	"pvfscache/internal/wire"
)

// TestFlushRunCoversEveryBlock: a coalesced FlushBlock run spanning
// several cache blocks must land byte-exactly in the store, and the
// coherence directory must record the flusher as a holder of EVERY
// covered block — a sync-writer touching any of them must invalidate the
// flusher's cache.
func TestFlushRunCoversEveryBlock(t *testing.T) {
	s, net, addr := testDaemon(t)
	conn := dial(t, net, addr)

	// A run starting mid-block 2 and covering blocks 2..5 (tail partial).
	run := make([]byte, 3*4096+100)
	for i := range run {
		run[i] = byte(i * 7)
	}
	ack := call(t, conn, &wire.Flush{
		Client: 9,
		File:   4,
		Blocks: []wire.FlushBlock{{Index: 2, Off: 1000, Data: run}},
	}).(*wire.FlushAck)
	if ack.Status != wire.StatusOK {
		t.Fatalf("flush status %d", ack.Status)
	}
	got := make([]byte, len(run))
	if n, _ := s.Store().ReadAt(4, 2*4096+1000, got); n != len(run) || !bytes.Equal(got, run) {
		t.Fatalf("run not durable: n=%d", n)
	}
	for idx := int64(2); idx <= 5; idx++ {
		holders := s.Holders(blockio.BlockKey{File: 4, Index: idx})
		if len(holders) != 1 || holders[0] != 9 {
			t.Fatalf("block %d holders = %v, want [9]", idx, holders)
		}
	}
	if s.Holders(blockio.BlockKey{File: 4, Index: 6}) != nil {
		t.Fatal("holder recorded past the run's end")
	}
}

// TestFlushOverflowingBlockRejected: Index*blockSize+Off used to wrap
// past int64 and land the run at the start of the file with an OK ack.
// Every run is checked before any is written, so a frame with one bad
// run lands nothing.
func TestFlushOverflowingBlockRejected(t *testing.T) {
	s, _, _ := testDaemon(t)
	good := []byte("GOOD")
	if err := s.Store().WriteAt(7, 0, good); err != nil {
		t.Fatal(err)
	}
	for _, blocks := range [][]wire.FlushBlock{
		{{Index: 1 << 52, Data: []byte("EVIL")}},
		{{Index: -1, Off: 4092, Data: []byte("EVIL")}},
		{{Index: 0, Off: 4096, Data: []byte("EVIL")}},
		{{Index: 1<<51 - 1, Off: 4095, Data: []byte("EVIL")}},
		{{Index: 4, Data: []byte("fine")}, {Index: 1 << 52, Data: []byte("EVIL")}},
	} {
		ack := s.handle(&wire.Flush{File: 7, Blocks: blocks}).(*wire.FlushAck)
		if ack.Status != wire.StatusBadRequest {
			t.Fatalf("Flush %+v: status %d, want %d", blocks, ack.Status, wire.StatusBadRequest)
		}
	}
	got := make([]byte, 8)
	if n, err := s.Store().ReadAt(7, 0, got); n != len(good) || err != nil || !bytes.Equal(got[:n], good) {
		t.Fatalf("offset 0 reads %q (n=%d, err=%v), want %q", got[:n], n, err, good)
	}
}

// TestFlushConcurrentFramesFromOneClient pins the property the pipelined
// write-behind engine relies on: one client's window of Flush frames —
// disjoint runs, served on parallel server goroutines — applies without
// corruption, and every frame's bytes are durable and its blocks
// holder-tracked once all acks are in.
func TestFlushConcurrentFramesFromOneClient(t *testing.T) {
	s, net, addr := testDaemon(t)
	// A tagged rpc client gets concurrent out-of-order service — the same
	// path the cache module's flush streams use.
	rc := rpc.NewClient(rpc.ClientConfig{Network: net, Addr: addr, Conns: 2})
	defer rc.Close()

	const frames = 16
	const blocksPerFrame = 4
	pattern := func(frame, i int) byte { return byte(frame*31 + i*7 + 1) }

	var wg sync.WaitGroup
	errs := make(chan error, frames)
	for f := 0; f < frames; f++ {
		wg.Add(1)
		go func(f int) {
			defer wg.Done()
			msg := &wire.Flush{Client: 3, File: 8}
			for b := 0; b < blocksPerFrame; b++ {
				idx := int64(f*blocksPerFrame + b)
				data := bytes.Repeat([]byte{pattern(f, b)}, 4096)
				msg.Blocks = append(msg.Blocks, wire.FlushBlock{Index: idx, Data: data})
			}
			res := rc.Call(msg)
			if res.Err != nil {
				errs <- res.Err
				return
			}
			if ack, ok := res.Msg.(*wire.FlushAck); !ok || ack.Status != wire.StatusOK {
				errs <- res.Err
			}
		}(f)
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Fatal(err)
	}

	buf := make([]byte, 4096)
	for f := 0; f < frames; f++ {
		for b := 0; b < blocksPerFrame; b++ {
			idx := int64(f*blocksPerFrame + b)
			if n, _ := s.Store().ReadAt(8, idx*4096, buf); n != 4096 {
				t.Fatalf("block %d short read %d", idx, n)
			}
			if !bytes.Equal(buf, bytes.Repeat([]byte{pattern(f, b)}, 4096)) {
				t.Fatalf("block %d corrupted under concurrent frames", idx)
			}
			holders := s.Holders(blockio.BlockKey{File: 8, Index: idx})
			if len(holders) != 1 || holders[0] != 3 {
				t.Fatalf("block %d holders = %v", idx, holders)
			}
		}
	}
}
