package cachemod

import (
	"bytes"
	"errors"
	"testing"
	"time"

	"pvfscache/internal/blockio"
	"pvfscache/internal/cachemod/buffer"
	"pvfscache/internal/chaos/waitfor"
	"pvfscache/internal/iod"
	"pvfscache/internal/metrics"
	"pvfscache/internal/storage"
	"pvfscache/internal/storage/mem"
	"pvfscache/internal/transport"
	"pvfscache/internal/wire"
)

// TestFlushIOErrorRequeuesAndRetries closes the loop on the PR 8
// silent-data-loss fix at the system level: an iod whose *backend*
// fails (connection healthy, ack carries StatusIOError) must drive the
// flush stream's existing FlushFailed re-queue + backoff machinery
// exactly like a dead connection does — the dirty blocks survive in the
// cache, and once the disk heals every byte drains and is durable. The
// seed acked StatusOK unconditionally, so this scenario silently lost
// the bytes.
func TestFlushIOErrorRequeuesAndRetries(t *testing.T) {
	net := transport.NewMem()
	reg := metrics.NewRegistry()
	fb := storage.NewFaulty(mem.New())
	d := iod.NewWithBackend(0, 4096, net, reg, fb)
	l, err := net.Listen("")
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { l.Close(); d.Close() })
	go d.ServeData(l)

	mod, err := New(Config{
		Network:      net,
		ClientID:     1,
		IODDataAddrs: []string{l.Addr()},
		Buffer:       buffer.Config{BlockSize: 4096, Capacity: 64},
		FlushPeriod:  time.Hour,
		Registry:     reg,
	})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { mod.Close() })

	const blocks = 8
	file := blockio.FileID(40)
	payload := func(blk int) []byte { return bytes.Repeat([]byte{byte(3 + blk)}, 4096) }
	tr := mod.NewTransport()
	for blk := 0; blk < blocks; blk++ {
		resp := sendRecv(t, tr, 0, &wire.Write{File: file, Offset: int64(blk) * 4096, Data: payload(blk)})
		if ack := resp.(*wire.WriteAck); ack.Status != wire.StatusOK {
			t.Fatalf("write ack %v", ack.Status)
		}
	}
	if got := mod.Buffer().DirtyCount(); got != blocks {
		t.Fatalf("dirty = %d, want %d", got, blocks)
	}

	// Disk failure: acks come back StatusIOError over a healthy
	// connection. The stream must count errors, re-queue, and keep the
	// blocks dirty no matter how often it is kicked.
	fb.SetErr(errors.New("medium error"))
	waitfor.Until(t, 10*time.Second, func() bool {
		mod.kickAllStreams()
		return reg.Snapshot().Counters["module.flush_errors"] > 0
	}, "flush stream reporting the backend failure")
	waitfor.Stable(t, 40*time.Millisecond, func() bool {
		mod.kickAllStreams()
		return mod.Buffer().DirtyCount() == blocks
	}, "backlog of %d dirty blocks surviving IO-error acks", blocks)
	snap := reg.Snapshot()
	if snap.Counters["module.flush_requeued"] == 0 {
		t.Fatal("no blocks re-queued on StatusIOError acks")
	}
	if snap.Counters["iod.io_errors"] == 0 {
		t.Fatal("iod did not count the backend failures")
	}

	// Heal: the backlog drains and every byte is durable in the store.
	fb.SetErr(nil)
	if err := mod.FlushAll(); err != nil {
		t.Fatalf("FlushAll after heal: %v", err)
	}
	got := make([]byte, 4096)
	for blk := 0; blk < blocks; blk++ {
		if n, _ := d.Store().ReadAt(file, int64(blk)*4096, got); n != 4096 || !bytes.Equal(got, payload(blk)) {
			t.Fatalf("block %d not durable after heal (n=%d)", blk, n)
		}
	}
	if err := mod.Buffer().CheckConsistency(); err != nil {
		t.Fatal(err)
	}
}
