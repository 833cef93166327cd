package cachemod

// Tests for the pipelined write-behind engine (flusher.go): run
// coalescing, failure isolation between streams, and a -race storm of
// concurrent writers against the windowed drain.

import (
	"bytes"
	"fmt"
	"math/rand"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"pvfscache/internal/blockio"
	"pvfscache/internal/cachemod/buffer"
	"pvfscache/internal/chaos/waitfor"
	"pvfscache/internal/iod"
	"pvfscache/internal/metrics"
	"pvfscache/internal/pvfs"
	"pvfscache/internal/rpc"
	"pvfscache/internal/transport"
	"pvfscache/internal/wire"
)

// span names one dirty span for buildFlushChunks tests.
type span struct{ file, idx, off, n int }

// takeOf lays spans out the way a buffer take does: one buffer, slot k
// holding span k at its offset within the block, filled with idx+1.
func takeOf(bs int, spans ...span) []buffer.FlushItem {
	burst := make([]byte, len(spans)*bs)
	items := make([]buffer.FlushItem, len(spans))
	for k, sp := range spans {
		data := burst[k*bs+sp.off:][:sp.n]
		for i := range data {
			data[i] = byte(sp.idx + 1)
		}
		items[k] = buffer.FlushItem{
			Key:  blockio.BlockKey{File: blockio.FileID(sp.file), Index: int64(sp.idx)},
			Off:  sp.off,
			Data: data,
			Slot: k + 1,
		}
	}
	return items
}

func TestBuildFlushChunksCoalescesRuns(t *testing.T) {
	const bs = 4096
	items := takeOf(bs,
		// Blocks 0-2 of file 1: full, full, head-partial — one run.
		span{1, 0, 0, bs}, span{1, 1, 0, bs}, span{1, 2, 0, 100},
		// Block 4 (gap after 2) is full and block 5 starts at 0, so the
		// 4|5 boundary tiles and they merge; block 5's span stops short
		// of its block end, so the 5|6 boundary does not.
		span{1, 4, 0, bs}, span{1, 5, 0, bs - 1},
		span{1, 6, 0, bs},
		// Block 7 starts at off 8 — the left boundary tiles only when the
		// right block starts at 0, so 6|7 must not merge.
		span{1, 7, 8, 100},
		// File 2 always opens a new chunk (one file per Flush frame).
		span{2, 0, 0, bs},
	)
	chunks := buildFlushChunks(new(flushFrames), 9, items, bs)
	if len(chunks) != 2 {
		t.Fatalf("chunks = %d, want 2 (one per file)", len(chunks))
	}
	c0 := chunks[0]
	if c0.msg.File != 1 || c0.msg.Client != 9 || len(c0.items) != 7 {
		t.Fatalf("chunk 0: file=%v client=%d items=%d", c0.msg.File, c0.msg.Client, len(c0.items))
	}
	var got []string
	for _, b := range c0.msg.Blocks {
		got = append(got, fmt.Sprintf("%d+%d:%d", b.Index, b.Off, len(b.Data)))
	}
	want := []string{
		fmt.Sprintf("0+0:%d", 2*bs+100), // blocks 0-2 coalesced
		fmt.Sprintf("4+0:%d", 2*bs-1),   // blocks 4-5 coalesced
		fmt.Sprintf("6+0:%d", bs),
		"7+8:100",
	}
	if len(got) != len(want) {
		t.Fatalf("runs = %v, want %v", got, want)
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("run %d = %s, want %s (all: %v)", i, got[i], want[i], got)
		}
	}
	// The coalesced run's bytes are the blocks' bytes in order.
	run := c0.msg.Blocks[0].Data
	if !bytes.Equal(run[:bs], bytes.Repeat([]byte{1}, bs)) ||
		!bytes.Equal(run[bs:2*bs], bytes.Repeat([]byte{2}, bs)) ||
		!bytes.Equal(run[2*bs:], bytes.Repeat([]byte{3}, 100)) {
		t.Fatal("coalesced run bytes out of order")
	}
	if chunks[1].msg.File != 2 || len(chunks[1].items) != 1 {
		t.Fatalf("chunk 1: %+v", chunks[1].msg)
	}
}

// TestBuildFlushChunksNeverJoinsSeparateSnapshots: adjacency of the keys
// is not adjacency in memory. Items that do not sit in consecutive slots
// of one take buffer (here: each with a buffer of its own, Slot 0) go out
// as separate runs with their own bytes.
func TestBuildFlushChunksNeverJoinsSeparateSnapshots(t *testing.T) {
	const bs = 4096
	items := append(takeOf(bs, span{1, 0, 0, bs}), takeOf(bs, span{1, 1, 0, bs})...)
	items[0].Slot, items[1].Slot = 0, 0
	chunks := buildFlushChunks(new(flushFrames), 1, items, bs)
	if len(chunks) != 1 || len(chunks[0].msg.Blocks) != 2 {
		t.Fatalf("separate snapshots were joined: %d chunks, %+v", len(chunks), chunks)
	}
	for i, b := range chunks[0].msg.Blocks {
		if b.Index != int64(i) || !bytes.Equal(b.Data, bytes.Repeat([]byte{byte(i + 1)}, bs)) {
			t.Fatalf("run %d: index %d, %d bytes", i, b.Index, len(b.Data))
		}
	}
}

func TestBuildFlushChunksSplitsAtTarget(t *testing.T) {
	const bs = 4096
	// Enough full blocks of one file to exceed the chunk target twice.
	n := 2*flushChunkTarget/bs + 3
	spans := make([]span, n)
	for i := range spans {
		spans[i] = span{1, i, 0, bs}
	}
	chunks := buildFlushChunks(new(flushFrames), 1, takeOf(bs, spans...), bs)
	if len(chunks) < 3 {
		t.Fatalf("chunks = %d, want >= 3 for %d bytes", len(chunks), n*bs)
	}
	total := 0
	for _, c := range chunks {
		accounted := 0
		for _, b := range c.msg.Blocks {
			accounted += len(b.Data) + wire.FlushBlockOverhead
		}
		if accounted > flushChunkTarget {
			t.Fatalf("chunk accounted bytes %d exceed target %d", accounted, flushChunkTarget)
		}
		total += len(c.items)
	}
	if total != n {
		t.Fatalf("items across chunks = %d, want %d", total, n)
	}
}

// flushRig is a three-iod harness whose middle iod can be taken down
// (connections drop) and brought back, or made to hold its Flush acks.
type flushRig struct {
	net     *transport.MemNetwork
	reg     *metrics.Registry
	iods    []*iod.Server
	mod     *Module
	down    atomic.Bool
	calls   atomic.Int64  // flush frames that reached iod 1 while up
	hold    atomic.Bool   // iod 1 applies a frame, then sits on its ack ...
	release chan struct{} // ... until this is closed
}

func newFlushRig(t *testing.T, cfgEdit func(*Config)) *flushRig {
	t.Helper()
	r := &flushRig{net: transport.NewMem(), reg: metrics.NewRegistry(), release: make(chan struct{})}
	var addrs []string
	for i := 0; i < 3; i++ {
		d := iod.New(i, 4096, r.net, r.reg)
		r.iods = append(r.iods, d)
		l, err := r.net.Listen("")
		if err != nil {
			t.Fatal(err)
		}
		t.Cleanup(func() { l.Close() })
		go d.ServeData(l)
		addr := l.Addr()
		if i == 1 {
			// iod 1's address: a gate in front of the real daemon.
			// While down, every frame kills its connection — reads,
			// writes and the Register a fresh connection opens with
			// included — because the daemon is unreachable. When up, a
			// Flush is applied like the real handler would and the rest
			// pass through to the daemon.
			fwd := rpc.NewClient(rpc.ClientConfig{Network: r.net, Addr: l.Addr()})
			gl, err := r.net.Listen("")
			if err != nil {
				t.Fatal(err)
			}
			d := d
			srv := rpc.NewServer(rpc.HandlerFunc(func(msg wire.Message) wire.Message {
				if r.down.Load() {
					return nil // drop the connection: iod down
				}
				fm, ok := msg.(*wire.Flush)
				if !ok {
					return fwd.Call(msg).Msg // nil on error: the connection drops
				}
				r.calls.Add(1)
				for _, blk := range fm.Blocks {
					d.Store().WriteAt(fm.File, blk.Index*4096+int64(blk.Off), blk.Data)
				}
				if r.hold.Load() {
					<-r.release
				}
				return &wire.FlushAck{Status: wire.StatusOK}
			}), rpc.ServerConfig{})
			go srv.Serve(gl)
			t.Cleanup(func() { gl.Close(); srv.Close(); fwd.Close() })
			addr = gl.Addr()
		}
		addrs = append(addrs, addr)
	}
	cfg := Config{
		Network:      r.net,
		ClientID:     1,
		IODDataAddrs: addrs,
		Buffer:       buffer.Config{BlockSize: 4096, Capacity: 128},
		FlushPeriod:  time.Hour, // only kicks and FlushAll drive the streams
		Registry:     r.reg,
	}
	if cfgEdit != nil {
		cfgEdit(&cfg)
	}
	mod, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { mod.Close() })
	r.mod = mod
	return r
}

// TestFlushStreamFailureIsolation is the failure-isolation regression:
// with one iod down, the other streams must drain their
// backlog, the down iod's chunks must re-queue (not be lost, not block
// the others), and once the iod recovers FlushAll must succeed with every
// byte durable.
func TestFlushStreamFailureIsolation(t *testing.T) {
	r := newFlushRig(t, nil)
	r.down.Store(true)

	const blocks = 16
	tr := r.mod.NewTransport()
	payload := func(iodIdx, blk int) []byte {
		return bytes.Repeat([]byte{byte(1 + iodIdx*3 + blk*7)}, 4096)
	}
	// One file per iod, written whole-block through the cache.
	for iodIdx := 0; iodIdx < 3; iodIdx++ {
		file := blockio.FileID(10 + iodIdx)
		for blk := 0; blk < blocks; blk++ {
			resp := sendRecv(t, tr, iodIdx, &wire.Write{
				File: file, Offset: int64(blk) * 4096, Data: payload(iodIdx, blk),
			})
			if ack := resp.(*wire.WriteAck); ack.Status != wire.StatusOK {
				t.Fatalf("write ack %v", ack.Status)
			}
		}
	}
	if got := r.mod.Buffer().DirtyCount(); got != 3*blocks {
		t.Fatalf("dirty = %d, want %d", got, 3*blocks)
	}

	// Kick everything; the healthy iods must drain while iod 1 is down.
	waitfor.Until(t, 10*time.Second, func() bool {
		r.mod.kickAllStreams()
		return r.mod.Buffer().DirtyCount() <= blocks
	}, "healthy streams draining around the down iod")
	// Only iod 1's blocks remain, re-queued and intact — repeated kicks
	// must not lose (or duplicate) them while iod 1 stays down.
	waitfor.Stable(t, 40*time.Millisecond, func() bool {
		r.mod.kickAllStreams()
		return r.mod.Buffer().DirtyCount() == blocks
	}, "down iod's backlog of %d dirty blocks surviving repeated kicks", blocks)
	for iodIdx := 0; iodIdx < 3; iodIdx += 2 {
		got := make([]byte, 4096)
		for blk := 0; blk < blocks; blk++ {
			if n, _ := r.iods[iodIdx].Store().ReadAt(blockio.FileID(10+iodIdx), int64(blk)*4096, got); n != 4096 ||
				!bytes.Equal(got, payload(iodIdx, blk)) {
				t.Fatalf("iod %d block %d not durable while iod 1 was down", iodIdx, blk)
			}
		}
	}
	snap := r.reg.Snapshot()
	if snap.Counters["module.flush_errors"] == 0 {
		t.Fatal("no flush errors counted for the down iod")
	}
	if snap.Counters["module.flush_requeued"] == 0 {
		t.Fatal("no re-queued blocks counted for the down iod")
	}

	// Recovery: the backlog drains and every byte is durable.
	r.down.Store(false)
	if err := r.mod.FlushAll(); err != nil {
		t.Fatalf("FlushAll after recovery: %v", err)
	}
	got := make([]byte, 4096)
	for blk := 0; blk < blocks; blk++ {
		if n, _ := r.iods[1].Store().ReadAt(blockio.FileID(11), int64(blk)*4096, got); n != 4096 ||
			!bytes.Equal(got, payload(1, blk)) {
			t.Fatalf("recovered iod block %d not durable (n=%d)", blk, n)
		}
	}
	if err := r.mod.Buffer().CheckConsistency(); err != nil {
		t.Fatal(err)
	}
}

// TestStaleFlushAckAfterInvalidateRewrite is the module-level twin of the
// buffer test of the same name: a flush ack that arrives after its block
// was invalidated (a foreign sync-write) and written again must not mark
// the new bytes clean. The iod applies the first flush and holds the ack;
// the block is invalidated and rewritten; the ack is released. FlushAll
// must still carry the rewritten bytes to the iod.
func TestStaleFlushAckAfterInvalidateRewrite(t *testing.T) {
	r := newFlushRig(t, nil)
	r.hold.Store(true)
	tr := r.mod.NewTransport()
	const file = blockio.FileID(11)
	write := func(fill byte) {
		t.Helper()
		resp := sendRecv(t, tr, 1, &wire.Write{File: file, Data: bytes.Repeat([]byte{fill}, 4096)})
		if ack := resp.(*wire.WriteAck); ack.Status != wire.StatusOK {
			t.Fatalf("write ack %v", ack.Status)
		}
	}
	flushed := func() int64 { return r.reg.Snapshot().Counters["module.flushed_blocks"] }

	write(0xA1)
	r.mod.kickAllStreams()
	waitfor.Until(t, 10*time.Second, func() bool { return r.calls.Load() == 1 },
		"the first flush reaching iod 1")
	if ack := r.mod.handleInvalidate(&wire.Invalidate{File: file, Indices: []int64{0}}).(*wire.InvalidAck); ack.Status != wire.StatusOK {
		t.Fatalf("invalidate ack %v", ack.Status)
	}
	write(0xB2)
	r.hold.Store(false)
	close(r.release)
	waitfor.Until(t, 10*time.Second, func() bool { return flushed() == 1 },
		"the held ack settling")
	if got := r.mod.Buffer().DirtyCount(); got != 1 {
		t.Errorf("dirty = %d after the stale ack, want 1: the rewritten block was marked clean unflushed", got)
	}
	if err := r.mod.FlushAll(); err != nil {
		t.Fatal(err)
	}
	got := make([]byte, 4096)
	if n, _ := r.iods[1].Store().ReadAt(file, 0, got); n != 4096 || !bytes.Equal(got, bytes.Repeat([]byte{0xB2}, 4096)) {
		t.Fatalf("iod holds %#x… (n=%d), want the rewritten 0xB2 bytes", got[0], n)
	}
	if err := r.mod.Buffer().CheckConsistency(); err != nil {
		t.Fatal(err)
	}
}

// TestPressureKickNotStarvedByFailingStream: a pressure kick wakes every
// stream, so when the iod owning the oldest dirty data is down the healthy
// backlogs still drain (writers would otherwise stall the full WriteStall
// and be shed even though draining the other iods frees space at once).
func TestPressureKickNotStarvedByFailingStream(t *testing.T) {
	r := newFlushRig(t, nil)
	r.down.Store(true)
	tr := r.mod.NewTransport()
	block := bytes.Repeat([]byte{0x77}, 4096)

	// iod 1's block is dirtied first: the oldest.
	sendRecv(t, tr, 1, &wire.Write{File: 11, Offset: 0, Data: block})
	// Let stream 1 fail once so it is marked failing.
	kick(r.mod.streams[1].kick)
	waitfor.Until(t, 10*time.Second, func() bool {
		return r.mod.streams[1].failing.Load()
	}, "stream 1 entering the failing state")

	// Younger dirty data on the healthy iods.
	sendRecv(t, tr, 0, &wire.Write{File: 10, Offset: 0, Data: block})
	sendRecv(t, tr, 2, &wire.Write{File: 12, Offset: 0, Data: block})

	// Only pressure kicks: they must reach the healthy streams even though
	// the oldest dirty block belongs to iod 1.
	waitfor.Until(t, 10*time.Second, func() bool {
		r.mod.kickAllStreams()
		return r.mod.Buffer().DirtyCount() <= 1
	}, "healthy streams draining past the failing one")
	got := make([]byte, 4096)
	if n, _ := r.iods[0].Store().ReadAt(10, 0, got); n != 4096 || !bytes.Equal(got, block) {
		t.Fatal("iod 0's block not durable")
	}
	if n, _ := r.iods[2].Store().ReadAt(12, 0, got); n != 4096 || !bytes.Equal(got, block) {
		t.Fatal("iod 2's block not durable")
	}
	// Bring iod 1 back so the Close-time FlushAll drains its block
	// instead of riding the stall timeout.
	r.down.Store(false)
}

// TestPressureKickWakesEveryStream: a buffered write that finds more than
// half the cache dirty kicks every flush stream, not only the one owning
// the oldest dirty block. Four iods hold dirty blocks and the flush period
// never fires, so one such write must drain all four.
func TestPressureKickWakesEveryStream(t *testing.T) {
	const iods, perIOD = 4, 3
	r := newRigN(t, iods, func(c *Config) {
		c.Buffer = buffer.Config{BlockSize: 4096, Capacity: 16, Shards: 1}
		c.FlushPeriod = time.Hour // only the pressure kick drives the streams
	})
	block := func(i int) []byte { return bytes.Repeat([]byte{byte(0x40 + i)}, 4096) }
	// Dirty the blocks in the buffer itself: a buffered write past half
	// the cache would already kick.
	for i := 0; i < iods; i++ {
		for b := 0; b < perIOD; b++ {
			key := blockio.BlockKey{File: blockio.FileID(20 + i), Index: int64(b)}
			if out := r.mod.buf.WriteSpan(key, i, 0, block(i), true); out != buffer.OutcomeOK {
				t.Fatalf("write of %v: %v", key, out)
			}
		}
	}
	if n := r.mod.buf.DirtyCount(); n <= r.mod.buf.Capacity()/2 {
		t.Fatalf("dirty = %d, want past half of %d", n, r.mod.buf.Capacity())
	}
	sendRecv(t, r.mod.NewTransport(), 0, &wire.Write{File: 20, Offset: perIOD * 4096, Data: block(0)})
	waitfor.Until(t, 5*time.Second, func() bool { return r.mod.buf.DirtyCount() == 0 },
		"every stream draining after one pressure kick")
	got := make([]byte, 4096)
	for i := 0; i < iods; i++ {
		for b := 0; b < perIOD; b++ {
			if n, _ := r.iods[i].Store().ReadAt(blockio.FileID(20+i), int64(b)*4096, got); n != 4096 || !bytes.Equal(got, block(i)) {
				t.Fatalf("iod %d block %d not durable (n=%d)", i, b, n)
			}
		}
	}
}

// TestPipelinedFlushStorm races concurrent writers (re-dirtying blocks
// mid-flight), invalidations of blocks being flushed, and the windowed
// multi-stream drain, then asserts the buffer manager's structural
// invariants and a byte oracle: after FlushAll, every block's durable
// bytes at its iod equal the last generation its writer wrote. Run under
// -race in CI.
func TestPipelinedFlushStorm(t *testing.T) {
	r := newRig(t, func(c *Config) {
		c.Buffer = buffer.Config{BlockSize: 4096, Capacity: 96, Shards: 8}
		c.FlushPeriod = time.Millisecond // streams churn constantly
		c.FlushWindow = 4
	})
	mod := r.mod

	const (
		writers   = 4
		blocksPer = 16
		rounds    = 150
	)
	pattern := func(w, blk, gen int) byte { return byte(w*53 + blk*17 + gen*29 + 1) }
	lastGen := make([][]int, writers)

	// A sacrificial file whose blocks get invalidated while in flight:
	// flushDone/flushFailed on evicted blocks must be no-ops, not
	// corruption. Its bytes carry no oracle.
	const invalFile = blockio.FileID(40)
	invTr := mod.NewTransport()
	for blk := 0; blk < 8; blk++ {
		sendRecv(t, invTr, 0, &wire.Write{
			File: invalFile, Offset: int64(blk) * 4096, Data: bytes.Repeat([]byte{0xEE}, 4096),
		})
	}

	var writersWG, auxWG sync.WaitGroup
	stopInval := make(chan struct{})
	auxWG.Add(1)
	go func() { // invalidator: races Invalidate against in-flight flushes
		defer auxWG.Done()
		rng := rand.New(rand.NewSource(7))
		for {
			select {
			case <-stopInval:
				return
			default:
			}
			blk := int64(rng.Intn(8))
			mod.Buffer().Invalidate(blockio.BlockKey{File: invalFile, Index: blk})
			// Re-dirty it so there is always something in flight to race.
			sendRecvNoT(invTr, 0, &wire.Write{
				File: invalFile, Offset: blk * 4096, Data: bytes.Repeat([]byte{0xEE}, 4096),
			})
		}
	}()

	for w := 0; w < writers; w++ {
		lastGen[w] = make([]int, blocksPer)
		writersWG.Add(1)
		go func(w int) {
			defer writersWG.Done()
			tr := mod.NewTransport()
			rng := rand.New(rand.NewSource(int64(w)))
			file := blockio.FileID(20 + w)
			iodIdx := w % 2
			for g := 1; g <= rounds; g++ {
				blk := rng.Intn(blocksPer)
				data := bytes.Repeat([]byte{pattern(w, blk, g)}, 4096)
				if err := sendRecvNoT(tr, iodIdx, &wire.Write{
					File: file, Offset: int64(blk) * 4096, Data: data,
				}); err != nil {
					t.Errorf("writer %d: %v", w, err)
					return
				}
				lastGen[w][blk] = g
			}
		}(w)
	}
	// Writers finish first so lastGen is final before the oracle reads
	// it; the invalidator keeps racing until they do.
	done := make(chan struct{})
	go func() {
		writersWG.Wait()
		close(stopInval)
		auxWG.Wait()
		close(done)
	}()
	select {
	case <-done:
	case <-time.After(60 * time.Second):
		t.Fatal("storm did not finish")
	}

	if err := mod.FlushAll(); err != nil {
		t.Fatalf("FlushAll: %v", err)
	}
	if err := mod.Buffer().CheckConsistency(); err != nil {
		t.Fatal(err)
	}
	got := make([]byte, 4096)
	for w := 0; w < writers; w++ {
		file := blockio.FileID(20 + w)
		iodIdx := w % 2
		for blk := 0; blk < blocksPer; blk++ {
			g := lastGen[w][blk]
			if g == 0 {
				continue // never written
			}
			want := bytes.Repeat([]byte{pattern(w, blk, g)}, 4096)
			if n, _ := r.iods[iodIdx].Store().ReadAt(file, int64(blk)*4096, got); n != 4096 || !bytes.Equal(got, want) {
				t.Fatalf("writer %d block %d: durable bytes are not generation %d", w, blk, g)
			}
		}
	}
	snap := r.reg.Snapshot()
	if snap.Counters["module.flushed_blocks"] == 0 {
		t.Fatal("storm flushed nothing")
	}
}

// sendRecvNoT is sendRecv without the test helper (usable from goroutines
// that must not call t.Fatal).
func sendRecvNoT(tr pvfs.Transport, iodIdx int, req wire.Message) error {
	id, err := tr.Send(iodIdx, req)
	if err != nil {
		return err
	}
	resp, err := tr.Recv(id)
	if err != nil {
		return err
	}
	if ack, ok := resp.(*wire.WriteAck); ok && ack.Status != wire.StatusOK {
		return fmt.Errorf("write ack status %v", ack.Status)
	}
	return nil
}

// TestReusedSlabKeepsBurstsApart drains many bursts through each stream's
// one reused snapshot slab while the iods make some Flush calls time out
// (the chunk re-queues and is sent again from a later burst's slab). Every
// block is written once with bytes of its own, one file per iod (a fake
// iod's image is shared by every file), so each iod must end up
// holding exactly the written image: a frame that read a slot after the
// next take overwrote it would leave another block's bytes behind.
func TestReusedSlabKeepsBurstsApart(t *testing.T) {
	const file, blocks = 90, 256
	const timeout = 20 * time.Millisecond
	r := newFetchRig(t, false, func(c *Config) {
		c.Buffer.Capacity = 32
		c.FlushWindow = 2
	})
	for i, s := range r.mod.streams {
		// Stream clients whose calls time out; no drain has run yet, and
		// the first one starts from a kick sent after this store. The
		// module's own client for the iod still carries its reads.
		s.client = rpc.NewClient(rpc.ClientConfig{Network: r.net, Addr: r.addrs[i], CallTimeout: timeout})
		t.Cleanup(func() { s.client.Close() })
	}
	for _, f := range r.iods {
		var frames atomic.Int64
		f.script = func(req, honest wire.Message) wire.Message {
			if _, ok := req.(*wire.Flush); ok && frames.Add(1)%4 == 0 {
				time.Sleep(3 * timeout) // this call times out
			}
			return honest
		}
	}
	payload := func(iod, blk int) []byte {
		p := make([]byte, fakeBS)
		for i := range p {
			p[i] = byte(iod*131 + blk*7 + i%13)
		}
		return p
	}
	tr := r.mod.NewTransport()
	for blk := 0; blk < blocks; blk++ {
		for iod := range r.iods {
			sendRecv(t, tr, iod, &wire.Write{File: file + blockio.FileID(iod), Offset: int64(blk) * fakeBS, Data: payload(iod, blk)})
		}
	}
	if err := r.mod.FlushAll(); err != nil {
		t.Fatal(err)
	}
	if r.reg.Counter("module.flush_requeued").Value() == 0 {
		t.Fatal("no flush call timed out and re-queued")
	}
	for iod, f := range r.iods {
		for blk := 0; blk < blocks; blk++ {
			if got := f.read(int64(blk)*fakeBS, fakeBS); !bytes.Equal(got, payload(iod, blk)) {
				t.Fatalf("iod %d block %d holds bytes that were not written there: %x want %x", iod, blk, got[:16], payload(iod, blk)[:16])
			}
		}
	}
}
