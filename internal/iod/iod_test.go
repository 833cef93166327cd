package iod

import (
	"bytes"
	"testing"

	"pvfscache/internal/blockio"
	"pvfscache/internal/metrics"
	"pvfscache/internal/rpc"
	"pvfscache/internal/transport"
	"pvfscache/internal/wire"
)

// testDaemon starts an iod with data and flush listeners on a fresh
// in-memory network and returns a dialer helper.
func testDaemon(t *testing.T) (*Server, transport.Network, string, string) {
	t.Helper()
	net := transport.NewMem()
	s := New(0, 4096, net, metrics.NewRegistry())
	dl, err := net.Listen("iod-data")
	if err != nil {
		t.Fatal(err)
	}
	fl, err := net.Listen("iod-flush")
	if err != nil {
		t.Fatal(err)
	}
	go s.ServeData(dl)
	go s.ServeFlush(fl)
	t.Cleanup(func() { dl.Close(); fl.Close() })
	return s, net, "iod-data", "iod-flush"
}

func call(t *testing.T, conn transport.Conn, req wire.Message) wire.Message {
	t.Helper()
	if err := wire.WriteMessage(conn, req); err != nil {
		t.Fatal(err)
	}
	resp, err := wire.ReadMessage(conn)
	if err != nil {
		t.Fatal(err)
	}
	return resp
}

// ext is the extent list of a one-extent ReadBlocks, the shape of every
// single-piece read.
func ext(off, length int64) []wire.ReadExtent {
	return []wire.ReadExtent{{Offset: off, Length: length}}
}

func TestWriteThenRead(t *testing.T) {
	_, net, data, _ := testDaemon(t)
	conn, err := net.Dial(data)
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()

	payload := bytes.Repeat([]byte{0x42}, 1000)
	wa := call(t, conn, &wire.Write{Client: 1, File: 7, Offset: 500, Data: payload}).(*wire.WriteAck)
	if wa.Status != wire.StatusOK {
		t.Fatalf("write status %d", wa.Status)
	}
	rr := call(t, conn, &wire.ReadBlocks{Client: 1, File: 7, Exts: ext(500, 1000)}).(*wire.ReadBlocksResp)
	if rr.Status != wire.StatusOK || !bytes.Equal(rr.Data, payload) {
		t.Fatalf("read: status=%d len=%d", rr.Status, len(rr.Data))
	}
}

// TestNegativeOffsetWritesFail: offsets are attacker-controlled, and the
// in-memory store panics on a negative one. Each write path must answer
// with a non-OK status instead, and the daemon must keep serving.
func TestNegativeOffsetWritesFail(t *testing.T) {
	_, net, data, flush := testDaemon(t)
	conn, _ := net.Dial(data)
	defer conn.Close()
	fconn, _ := net.Dial(flush)
	defer fconn.Close()
	payload := bytes.Repeat([]byte{0x5C}, 12)
	call(t, conn, &wire.Write{File: 2, Offset: 0, Data: payload})

	if wa := call(t, conn, &wire.Write{File: 2, Offset: -8, Data: payload}).(*wire.WriteAck); wa.Status == wire.StatusOK {
		t.Fatal("Write at offset -8 acknowledged")
	}
	if sa := call(t, conn, &wire.SyncWrite{Client: 1, File: 2, Offset: -8, Data: payload}).(*wire.SyncWriteAck); sa.Status == wire.StatusOK {
		t.Fatal("SyncWrite at offset -8 acknowledged")
	}
	fa := call(t, fconn, &wire.Flush{Client: 1, File: 2, Blocks: []wire.FlushBlock{{Index: -2, Data: payload}}}).(*wire.FlushAck)
	if fa.Status == wire.StatusOK {
		t.Fatal("Flush of block -2 acknowledged")
	}
	rr := call(t, conn, &wire.ReadBlocks{File: 2, Exts: ext(0, 64)}).(*wire.ReadBlocksResp)
	if rr.Status != wire.StatusOK || !bytes.Equal(rr.Data, payload) {
		t.Fatalf("read after the rejected writes: status=%d data=%x", rr.Status, rr.Data)
	}
}

func TestVectoredReadServesAllExtents(t *testing.T) {
	_, net, data, _ := testDaemon(t)
	conn, _ := net.Dial(data)
	defer conn.Close()
	payload := bytes.Repeat([]byte{0xA5}, 16<<10)
	call(t, conn, &wire.Write{Client: 1, File: 3, Offset: 0, Data: payload})

	rr := call(t, conn, &wire.ReadBlocks{Client: 1, File: 3, Exts: []wire.ReadExtent{
		{Offset: 0, Length: 4096},
		{Offset: 8192, Length: 4096},
		{Offset: 15 << 10, Length: 4096}, // crosses end of data: short
		{Offset: 64 << 10, Length: 4096}, // entirely past end: empty
	}}).(*wire.ReadBlocksResp)
	if rr.Status != wire.StatusOK {
		t.Fatalf("status %d", rr.Status)
	}
	wantLens := []uint32{4096, 4096, 1 << 10, 0}
	if len(rr.Lens) != len(wantLens) {
		t.Fatalf("lens = %v", rr.Lens)
	}
	pos := 0
	for i, want := range wantLens {
		if rr.Lens[i] != want {
			t.Fatalf("extent %d served %d bytes, want %d", i, rr.Lens[i], want)
		}
		for _, b := range rr.Data[pos : pos+int(want)] {
			if b != 0xA5 {
				t.Fatalf("extent %d data corrupt", i)
			}
		}
		pos += int(want)
	}
	if pos != len(rr.Data) {
		t.Fatalf("data has %d trailing bytes", len(rr.Data)-pos)
	}
}

func TestVectoredReadRejectsHostileExtents(t *testing.T) {
	_, net, data, _ := testDaemon(t)
	conn, _ := net.Dial(data)
	defer conn.Close()
	for _, exts := range [][]wire.ReadExtent{
		{{Offset: 0, Length: -1}},
		{{Offset: -1, Length: 4096}},
		{{Offset: 0, Length: wire.MaxMessageSize}},
		{{Offset: 0, Length: wire.MaxMessageSize / 2}, {Offset: 0, Length: wire.MaxMessageSize / 2}},
	} {
		rr := call(t, conn, &wire.ReadBlocks{File: 1, Exts: exts}).(*wire.ReadBlocksResp)
		if rr.Status != wire.StatusBadRequest {
			t.Fatalf("extents %v: status %d, want BadRequest", exts, rr.Status)
		}
	}
}

func TestVectoredReadTracksHolders(t *testing.T) {
	s, net, data, _ := testDaemon(t)
	conn, _ := net.Dial(data)
	defer conn.Close()
	call(t, conn, &wire.Write{Client: 1, File: 5, Offset: 0, Data: make([]byte, 12<<10)})
	call(t, conn, &wire.ReadBlocks{Client: 9, File: 5, Track: true, Exts: []wire.ReadExtent{
		{Offset: 0, Length: 4096},
		{Offset: 8192, Length: 4096},
	}})
	for _, idx := range []int64{0, 2} {
		if h := s.Holders(blockio.BlockKey{File: 5, Index: idx}); len(h) != 1 || h[0] != 9 {
			t.Fatalf("block %d holders = %v", idx, h)
		}
	}
	if h := s.Holders(blockio.BlockKey{File: 5, Index: 1}); len(h) != 0 {
		t.Fatalf("untouched block holders = %v", h)
	}
}

func TestFlushPortWritesBlocks(t *testing.T) {
	s, net, _, flush := testDaemon(t)
	conn, _ := net.Dial(flush)
	defer conn.Close()

	fa := call(t, conn, &wire.Flush{
		Client: 3,
		File:   9,
		Blocks: []wire.FlushBlock{
			{Index: 0, Off: 0, Data: bytes.Repeat([]byte{1}, 4096)},
			{Index: 2, Off: 100, Data: []byte("partial")},
		},
	}).(*wire.FlushAck)
	if fa.Status != wire.StatusOK {
		t.Fatalf("flush status %d", fa.Status)
	}
	buf := make([]byte, 4096)
	if n, _ := s.Store().ReadAt(9, 0, buf); n != 4096 || buf[0] != 1 {
		t.Fatalf("block 0 not stored: n=%d", n)
	}
	got := make([]byte, 7)
	s.Store().ReadAt(9, 2*4096+100, got)
	if string(got) != "partial" {
		t.Fatalf("partial flush stored %q", got)
	}
	// Flushed blocks register the client as a holder.
	holders := s.Holders(blockio.BlockKey{File: 9, Index: 0})
	if len(holders) != 1 || holders[0] != 3 {
		t.Fatalf("holders = %v", holders)
	}
}

func TestFlushPortRejectsDataMessages(t *testing.T) {
	_, net, _, flush := testDaemon(t)
	conn, _ := net.Dial(flush)
	defer conn.Close()
	if err := wire.WriteMessage(conn, &wire.ReadBlocks{File: 1, Exts: ext(0, 4)}); err != nil {
		t.Fatal(err)
	}
	if _, err := wire.ReadMessage(conn); err == nil {
		t.Fatal("flush port served a data message")
	}
}

func TestTrackOnlyWhenRequested(t *testing.T) {
	s, net, data, _ := testDaemon(t)
	conn, _ := net.Dial(data)
	defer conn.Close()
	call(t, conn, &wire.Write{File: 4, Offset: 0, Data: make([]byte, 8192)})

	call(t, conn, &wire.ReadBlocks{Client: 5, File: 4, Track: false, Exts: ext(0, 4096)})
	if h := s.Holders(blockio.BlockKey{File: 4, Index: 0}); len(h) != 0 {
		t.Fatalf("untracked read registered holders %v", h)
	}
	call(t, conn, &wire.ReadBlocks{Client: 5, File: 4, Track: true, Exts: ext(0, 8192)})
	if h := s.Holders(blockio.BlockKey{File: 4, Index: 1}); len(h) != 1 || h[0] != 5 {
		t.Fatalf("tracked read holders %v", h)
	}
	// Anonymous clients (id 0) are never tracked.
	call(t, conn, &wire.ReadBlocks{Client: 0, File: 4, Track: true, Exts: ext(0, 4096)})
	for _, h := range s.Holders(blockio.BlockKey{File: 4, Index: 0}) {
		if h == 0 {
			t.Fatal("anonymous client tracked")
		}
	}
}

// invalListener runs a minimal client-side invalidation handler — an
// rpc.Server, like the cache module's — and records what it was asked to
// drop.
func invalListener(t *testing.T, net transport.Network, addr string) *[]int64 {
	t.Helper()
	l, err := net.Listen(addr)
	if err != nil {
		t.Fatal(err)
	}
	var got []int64
	srv := rpc.NewServer(rpc.HandlerFunc(func(msg wire.Message) wire.Message {
		inv, ok := msg.(*wire.Invalidate)
		if !ok {
			return nil
		}
		got = append(got, inv.Indices...)
		return &wire.InvalidAck{Status: wire.StatusOK}
	}), rpc.ServerConfig{})
	go srv.Serve(l)
	t.Cleanup(func() { l.Close(); srv.Close() })
	return &got
}

func TestSyncWriteInvalidatesOtherHolders(t *testing.T) {
	s, net, data, _ := testDaemon(t)
	dropped := invalListener(t, net, "client2-inval")
	s.RegisterClient(2, "client2-inval")

	conn, _ := net.Dial(data)
	defer conn.Close()
	call(t, conn, &wire.Write{File: 6, Offset: 0, Data: make([]byte, 8192)})
	// Client 2 reads blocks 0 and 1 with tracking.
	call(t, conn, &wire.ReadBlocks{Client: 2, File: 6, Track: true, Exts: ext(0, 8192)})

	// Client 1 sync-writes block 0: client 2 must be invalidated.
	ack := call(t, conn, &wire.SyncWrite{Client: 1, File: 6, Offset: 0, Data: make([]byte, 4096)}).(*wire.SyncWriteAck)
	if ack.Status != wire.StatusOK {
		t.Fatalf("sync write status %d", ack.Status)
	}
	if ack.Invalidated != 1 {
		t.Fatalf("invalidated %d caches, want 1", ack.Invalidated)
	}
	if len(*dropped) != 1 || (*dropped)[0] != 0 {
		t.Fatalf("client 2 asked to drop %v, want [0]", *dropped)
	}
	// Block 1 was untouched: client 2 still holds it.
	if h := s.Holders(blockio.BlockKey{File: 6, Index: 1}); len(h) != 1 || h[0] != 2 {
		t.Fatalf("block 1 holders %v", h)
	}
	// Block 0: the writer is now the holder.
	h := s.Holders(blockio.BlockKey{File: 6, Index: 0})
	if len(h) != 1 || h[0] != 1 {
		t.Fatalf("block 0 holders %v", h)
	}
}

func TestSyncWriteByHolderDoesNotSelfInvalidate(t *testing.T) {
	s, net, data, _ := testDaemon(t)
	dropped := invalListener(t, net, "client7-inval")
	s.RegisterClient(7, "client7-inval")

	conn, _ := net.Dial(data)
	defer conn.Close()
	call(t, conn, &wire.Write{File: 2, Offset: 0, Data: make([]byte, 4096)})
	call(t, conn, &wire.ReadBlocks{Client: 7, File: 2, Track: true, Exts: ext(0, 4096)})
	ack := call(t, conn, &wire.SyncWrite{Client: 7, File: 2, Offset: 0, Data: make([]byte, 4096)}).(*wire.SyncWriteAck)
	if ack.Invalidated != 0 {
		t.Fatalf("writer invalidated itself: %d", ack.Invalidated)
	}
	if len(*dropped) != 0 {
		t.Fatalf("writer received invalidations %v", *dropped)
	}
}

func TestSyncWriteUnreachableClientDegradesGracefully(t *testing.T) {
	s, net, data, _ := testDaemon(t)
	s.RegisterClient(9, "nowhere") // never listening

	conn, _ := net.Dial(data)
	defer conn.Close()
	call(t, conn, &wire.ReadBlocks{Client: 9, File: 3, Track: true, Exts: ext(0, 4096)})
	ack := call(t, conn, &wire.SyncWrite{Client: 1, File: 3, Offset: 0, Data: make([]byte, 4096)}).(*wire.SyncWriteAck)
	if ack.Status != wire.StatusOK {
		t.Fatalf("sync write should succeed despite unreachable cache: %d", ack.Status)
	}
	if ack.Invalidated != 0 {
		t.Fatalf("invalidated = %d", ack.Invalidated)
	}
	// The departed cache is dropped from the directory.
	if h := s.Holders(blockio.BlockKey{File: 3, Index: 0}); len(h) != 1 || h[0] != 1 {
		t.Fatalf("holders = %v", h)
	}
}

func TestRegisterClientReplacesAddress(t *testing.T) {
	s, net, data, _ := testDaemon(t)
	// Register at a dead address first, then re-register at a live one.
	s.RegisterClient(4, "dead")
	dropped := invalListener(t, net, "live")
	s.RegisterClient(4, "live")

	conn, _ := net.Dial(data)
	defer conn.Close()
	call(t, conn, &wire.ReadBlocks{Client: 4, File: 1, Track: true, Exts: ext(0, 4096)})
	ack := call(t, conn, &wire.SyncWrite{Client: 1, File: 1, Offset: 0, Data: make([]byte, 4096)}).(*wire.SyncWriteAck)
	if ack.Invalidated != 1 {
		t.Fatalf("invalidated = %d", ack.Invalidated)
	}
	if len(*dropped) != 1 {
		t.Fatalf("live listener got %v", *dropped)
	}
}

func TestDefaultBlockSizeApplied(t *testing.T) {
	s := New(0, 0, nil, nil)
	if s.blockSize != blockio.DefaultBlockSize {
		t.Errorf("block size = %d", s.blockSize)
	}
}

func TestRegisterOverWire(t *testing.T) {
	s, net, data, _ := testDaemon(t)
	conn, _ := net.Dial(data)
	defer conn.Close()
	ra := call(t, conn, &wire.Register{Client: 11, Addr: "somewhere"}).(*wire.RegisterAck)
	if ra.Status != wire.StatusOK {
		t.Fatalf("register status %d", ra.Status)
	}
	s.mu.Lock()
	addr := s.clients[11]
	s.mu.Unlock()
	if addr != "somewhere" {
		t.Fatalf("registered addr %q", addr)
	}
}
