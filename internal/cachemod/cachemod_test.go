package cachemod

import (
	"bytes"
	"errors"
	"fmt"
	"slices"
	"sync"
	"testing"
	"time"

	"pvfscache/internal/blockio"
	"pvfscache/internal/cachemod/buffer"
	"pvfscache/internal/iod"
	"pvfscache/internal/metrics"
	"pvfscache/internal/pvfs"
	"pvfscache/internal/rpc"
	"pvfscache/internal/transport"
	"pvfscache/internal/wire"
)

// rig is a two-iod test harness with one cache module.
type rig struct {
	net   *transport.MemNetwork
	iods  []*iod.Server
	mod   *Module
	reg   *metrics.Registry
	addrs []string
}

func newRig(t *testing.T, cfgEdit func(*Config)) *rig {
	t.Helper()
	return newRigN(t, 2, cfgEdit)
}

// newRigN is newRig with n iods.
func newRigN(t *testing.T, n int, cfgEdit func(*Config)) *rig {
	t.Helper()
	net := transport.NewMem()
	reg := metrics.NewRegistry()
	r := &rig{net: net, reg: reg}
	for i := 0; i < n; i++ {
		d := iod.New(i, 4096, net, reg)
		r.iods = append(r.iods, d)
		l, err := net.Listen("")
		if err != nil {
			t.Fatal(err)
		}
		t.Cleanup(func() { l.Close() })
		go d.ServeData(l)
		r.addrs = append(r.addrs, l.Addr())
	}
	cfg := Config{
		Network:      net,
		ClientID:     1,
		IODDataAddrs: slices.Clone(r.addrs), // an edit may front an iod; r.addrs stays direct
		Buffer:       buffer.Config{BlockSize: 4096, Capacity: 64},
		FlushPeriod:  20 * time.Millisecond,
		Registry:     reg,
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

// seed stores bytes directly at an iod.
func (r *rig) seed(iodIdx int, file blockio.FileID, off int64, data []byte) {
	r.iods[iodIdx].Store().WriteAt(file, off, data)
}

// sendRecv runs one Send/Recv pair on a transport: every message but a read.
func sendRecv(t *testing.T, tr pvfs.Transport, iodIdx int, req wire.Message) wire.Message {
	t.Helper()
	id, err := tr.Send(iodIdx, req)
	if err != nil {
		t.Fatal(err)
	}
	resp, err := tr.Recv(id)
	if err != nil {
		t.Fatal(err)
	}
	return resp
}

// sinkFor returns a buffer holding exts' bytes packed in order and the sink
// that tiles it, one slice per extent.
func sinkFor(exts []wire.ReadExtent) ([]byte, [][]byte) {
	var total int64
	for _, e := range exts {
		total += e.Length
	}
	buf, sink := make([]byte, total), make([][]byte, len(exts))
	rest := buf
	for i, e := range exts {
		sink[i], rest = rest[:e.Length], rest[e.Length:]
	}
	return buf, sink
}

// startRead issues [off, off+length) of file as a one-extent ReadBlocks
// through SendRead — the shape libpvfs gives a single-piece read — and
// returns the request and the buffer its reply fills.
func startRead(tr pvfs.Transport, iodIdx int, file blockio.FileID, off, length int64) (pvfs.ReqID, []byte, error) {
	req := &wire.ReadBlocks{File: file, Exts: []wire.ReadExtent{{Offset: off, Length: length}}}
	buf, sink := sinkFor(req.Exts)
	id, ok, err := tr.SendRead(iodIdx, req, sink)
	if err == nil && !ok {
		err = errors.New("SendRead declined a one-extent read")
	}
	return id, buf, err
}

// finishRead receives a read and returns the status of its status-only
// reply.
func finishRead(tr pvfs.Transport, id pvfs.ReqID) (wire.Status, error) {
	resp, err := tr.Recv(id)
	if err != nil {
		return 0, err
	}
	rr, ok := resp.(*wire.ReadBlocksResp)
	if !ok {
		return 0, fmt.Errorf("read reply %T", resp)
	}
	return rr.Status, nil
}

// readOnce runs one startRead/finishRead pair.
func readOnce(tr pvfs.Transport, iodIdx int, file blockio.FileID, off, length int64) ([]byte, wire.Status, error) {
	id, buf, err := startRead(tr, iodIdx, file, off, length)
	if err != nil {
		return nil, 0, err
	}
	status, err := finishRead(tr, id)
	return buf, status, err
}

// readAt is readOnce for a read that must succeed; it returns the bytes.
func readAt(t *testing.T, tr pvfs.Transport, iodIdx int, file blockio.FileID, off, length int64) []byte {
	t.Helper()
	buf, status, err := readOnce(tr, iodIdx, file, off, length)
	if err == nil {
		err = status.Err()
	}
	if err != nil {
		t.Fatalf("read file %d @%d+%d: %v", file, off, length, err)
	}
	return buf
}

func TestReadMissThenHit(t *testing.T) {
	r := newRig(t, nil)
	data := bytes.Repeat([]byte{0xAD}, 8192)
	r.seed(0, 5, 0, data)

	tr := r.mod.NewTransport()
	before := r.reg.Snapshot()
	if !bytes.Equal(readAt(t, tr, 0, 5, 0, 8192), data) {
		t.Fatal("first read wrong data")
	}
	mid := r.reg.Snapshot()
	if d := mid.Diff(before); d["iod.reads"] == 0 {
		t.Fatal("first read should reach the iod")
	}
	if !bytes.Equal(readAt(t, tr, 0, 5, 0, 8192), data) {
		t.Fatal("second read wrong data")
	}
	if d := r.reg.Snapshot().Diff(mid); d["iod.reads"] != 0 {
		t.Fatalf("second read hit the network (%d iod reads)", d["iod.reads"])
	}
}

// TestCloseSettlesAbandonedRead: a read abandoned between Send and Recv
// (the process died, or libpvfs gave up on the operation) must not keep
// its share of the node-wide state. Its fetch-table claims in particular:
// the next reader of those blocks, from any process, joins whatever is in
// the table and waits on it with no timeout.
func TestCloseSettlesAbandonedRead(t *testing.T) {
	r := newRig(t, func(c *Config) { c.TenantFetchBudget = 8 })
	data := bytes.Repeat([]byte{0x5A}, 2*4096)
	r.seed(0, 12, 0, data)
	r.mod.NewTransport().TenantHint(12, 3, 1)

	dying := r.mod.NewTransport()
	if _, _, err := startRead(dying, 0, 12, 0, 2*4096); err != nil {
		t.Fatal(err)
	}
	if err := dying.Close(); err != nil {
		t.Fatal(err)
	}

	got := make(chan []byte, 1)
	go func() {
		b, status, err := readOnce(r.mod.NewTransport(), 0, 12, 0, 2*4096)
		if err == nil {
			err = status.Err()
		}
		if err != nil {
			t.Error(err)
		}
		got <- b
	}()
	select {
	case b := <-got:
		if !bytes.Equal(b, data) {
			t.Fatal("second reader got wrong data")
		}
	case <-time.After(time.Second):
		t.Fatal("second reader wedged on the abandoned read's fetch claims")
	}
	r.mod.fetchMu.Lock()
	left := len(r.mod.fetches)
	r.mod.fetchMu.Unlock()
	if left != 0 {
		t.Errorf("%d fetch-table entries left behind", left)
	}
	waitTenantInflight(t, r.mod, 3, 0)
}

func TestPartialHitSplitsRequest(t *testing.T) {
	// Cache the middle block of a three-block range, then read the whole
	// range: the cached block splits the misses into two runs, but both
	// runs leave in ONE vectored sub-request carrying two extents — a
	// cache hit in the middle of a request costs an extent boundary, not
	// an extra round trip.
	r := newRig(t, nil)
	data := bytes.Repeat([]byte{7}, 3*4096)
	r.seed(0, 9, 0, data)

	tr := r.mod.NewTransport()
	// Fault in just the middle block.
	readAt(t, tr, 0, 9, 4096, 4096)

	before := r.reg.Snapshot()
	if !bytes.Equal(readAt(t, tr, 0, 9, 0, 3*4096), data) {
		t.Fatal("split read wrong data")
	}
	d := r.reg.Snapshot().Diff(before)
	if d["module.read_subrequests"] != 1 {
		t.Fatalf("sub-requests = %d, want 1 (vectored)", d["module.read_subrequests"])
	}
	if d["module.read_vector_fetches"] != 1 {
		t.Fatalf("vector fetches = %d, want 1", d["module.read_vector_fetches"])
	}
	if d["iod.reads"] != 1 || d["iod.vector_extents"] != 2 {
		t.Fatalf("iod reads = %d (vector extents %d), want one round trip with 2 extents",
			d["iod.reads"], d["iod.vector_extents"])
	}
}

func TestGroupRunsBoundsFetchSize(t *testing.T) {
	var owned []tgtSpan
	for _, r := range [][2]int64{{0, 3}, {10, 10}} { // a 3-block run, then a 10-block run
		for idx := r[0]; idx < r[0]+r[1]; idx++ {
			owned = append(owned, tgtSpan{
				sp: blockio.Span{Key: blockio.BlockKey{File: 1, Index: idx}, Len: 1024},
				st: newFetchState(false),
			})
		}
	}
	var out []fetchRun
	s := fetchScratch{owned: owned}
	for _, batch := range s.groupRuns(4) {
		blocks := 0
		for _, run := range batch {
			blocks += len(run.spans)
		}
		if blocks > 4 {
			t.Fatalf("batch carries %d blocks, bound is 4", blocks)
		}
		out = append(out, batch...)
	}
	if len(out) != 4 { // 3-block run intact, 10-block run split 4+4+2
		t.Fatalf("split into %d runs, want 4", len(out))
	}
	wantFirst := []int64{0, 10, 14, 18}
	wantN := []int{3, 4, 4, 2}
	for i, run := range out {
		if run.firstIdx != wantFirst[i] || len(run.spans) != wantN[i] {
			t.Fatalf("run %d = first %d n %d, want first %d n %d",
				i, run.firstIdx, len(run.spans), wantFirst[i], wantN[i])
		}
		for j, ts := range run.spans {
			if ts.sp.Key.Index != run.firstIdx+int64(j) || ts.st == nil {
				t.Fatalf("run %d span %d is block %d (state %v), want block %d with its claim",
					i, j, ts.sp.Key.Index, ts.st, run.firstIdx+int64(j))
			}
		}
	}
}

// TestSubBlockStridedReadSplitsFetches reproduces the rounding-inflation
// regression: sub-block extents at block stride each round up to a full
// cache block, so a ~9 MB request inflates to ~37 MB of block fetches —
// past what one response frame may carry. The miss engine must split the
// fetch into several round trips instead of letting the iod reject it.
func TestSubBlockStridedReadSplitsFetches(t *testing.T) {
	r := newRig(t, nil)
	const file = 40
	const nblocks = 9000 // 9000 × 4 KB of rounded blocks ≈ 36.9 MB > 32 MB
	data := bytes.Repeat([]byte{0xE7}, nblocks*4096)
	r.seed(0, file, 0, data)

	tr := r.mod.NewTransport()
	exts := make([]wire.ReadExtent, nblocks)
	for i := range exts {
		exts[i] = wire.ReadExtent{Offset: int64(i) * 4096, Length: 1024}
	}
	_, sink := sinkFor(exts)
	before := r.reg.Snapshot()
	id, ok, err := tr.SendRead(0, &wire.ReadBlocks{File: file, Exts: exts}, sink)
	if err != nil || !ok {
		t.Fatalf("SendRead: ok=%v err=%v", ok, err)
	}
	if status, err := finishRead(tr, id); err != nil || status != wire.StatusOK {
		t.Fatalf("status %d, err %v", status, err)
	}
	for i, dst := range sink {
		if !bytes.Equal(dst, data[i*4096:i*4096+1024]) {
			t.Fatalf("extent %d data wrong", i)
		}
	}
	d := r.reg.Snapshot().Diff(before)
	if d["iod.reads"] != 2 { // 8191-block batch + 809-block batch
		t.Fatalf("iod reads = %d, want 2 (split fetch)", d["iod.reads"])
	}
}

func TestWriteFakedAckAndFlush(t *testing.T) {
	r := newRig(t, nil)
	tr := r.mod.NewTransport()
	payload := bytes.Repeat([]byte{0x3C}, 4096)

	before := r.reg.Snapshot()
	ack := sendRecv(t, tr, 1, &wire.Write{File: 2, Offset: 0, Data: payload}).(*wire.WriteAck)
	if ack.Status != wire.StatusOK {
		t.Fatalf("ack status %d", ack.Status)
	}
	// The ack was faked: no iod write happened yet.
	if d := r.reg.Snapshot().Diff(before); d["iod.writes"] != 0 {
		t.Fatal("write went straight to the iod (not write-behind)")
	}
	if err := r.mod.FlushAll(); err != nil {
		t.Fatal(err)
	}
	got := make([]byte, 4096)
	if n, _ := r.iods[1].Store().ReadAt(2, 0, got); n != 4096 || !bytes.Equal(got, payload) {
		t.Fatalf("flush did not persist data (n=%d)", n)
	}
}

func TestWriteReadYourOwn(t *testing.T) {
	r := newRig(t, nil)
	tr := r.mod.NewTransport()
	payload := bytes.Repeat([]byte{0x11}, 10000)
	sendRecv(t, tr, 0, &wire.Write{File: 3, Offset: 500, Data: payload})
	if !bytes.Equal(readAt(t, tr, 0, 3, 500, 10000), payload) {
		t.Fatal("read-your-own-write failed")
	}
}

func TestUnalignedWriteRMW(t *testing.T) {
	// Writing two disjoint spans of one block forces a read-modify-write
	// fetch; both spans and the iod's original bytes must survive.
	r := newRig(t, nil)
	orig := bytes.Repeat([]byte{0xEE}, 4096)
	r.seed(0, 4, 0, orig)

	tr := r.mod.NewTransport()
	sendRecv(t, tr, 0, &wire.Write{File: 4, Offset: 100, Data: []byte("aaaa")})
	sendRecv(t, tr, 0, &wire.Write{File: 4, Offset: 3000, Data: []byte("bbbb")})
	if err := r.mod.FlushAll(); err != nil {
		t.Fatal(err)
	}
	got := make([]byte, 4096)
	r.iods[0].Store().ReadAt(4, 0, got)
	if string(got[100:104]) != "aaaa" || string(got[3000:3004]) != "bbbb" {
		t.Fatal("spans lost")
	}
	if got[0] != 0xEE || got[200] != 0xEE || got[4095] != 0xEE {
		t.Fatal("original bytes clobbered by RMW")
	}
}

// TestReadMergesUnflushedWriteWithFetch is the regression test for the
// stale-read bug the cluster consistency oracle uncovered: a block that is
// only partially valid (one buffered write, not yet flushed) misses on a
// whole-block read, the whole block is fetched from the iod — which still
// holds the pre-write bytes — and the response used to be assembled from
// the fetched image alone, surfacing stale bytes for the written range.
// The fetched image must be patched with the resident bytes before it
// reaches the reader (buffer.InstallFetched).
func TestReadMergesUnflushedWriteWithFetch(t *testing.T) {
	r := newRig(t, func(c *Config) { c.FlushPeriod = time.Hour }) // flusher never runs
	old := bytes.Repeat([]byte{0xAA}, 4096)
	r.seed(0, 15, 0, old)

	tr := r.mod.NewTransport()
	fresh := []byte("fresh bytes!")
	sendRecv(t, tr, 0, &wire.Write{File: 15, Offset: 100, Data: fresh})
	if r.mod.Buffer().DirtyCount() != 1 {
		t.Fatal("write was not buffered dirty")
	}

	got := readAt(t, tr, 0, 15, 0, 4096)
	if !bytes.Equal(got[100:100+len(fresh)], fresh) {
		t.Fatalf("read returned stale bytes %q for the unflushed write", got[100:100+len(fresh)])
	}
	if !bytes.Equal(got[:100], old[:100]) || !bytes.Equal(got[100+len(fresh):], old[100+len(fresh):]) {
		t.Fatal("bytes outside the write were not served from the fetch")
	}
}

func TestConcurrentTransportsShareCache(t *testing.T) {
	r := newRig(t, nil)
	data := bytes.Repeat([]byte{0x55}, 64*1024)
	r.seed(0, 8, 0, data)

	// Process A faults the data in; processes B..E read concurrently and
	// must all be served without extra iod traffic.
	trA := r.mod.NewTransport()
	readAt(t, trA, 0, 8, 0, 64*1024)

	before := r.reg.Snapshot()
	var wg sync.WaitGroup
	for i := 0; i < 4; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			got, status, err := readOnce(r.mod.NewTransport(), 0, 8, 0, 64*1024)
			if err != nil || status != wire.StatusOK {
				t.Errorf("read: status %v, err %v", status, err)
				return
			}
			if !bytes.Equal(got, data) {
				t.Error("wrong data")
			}
		}()
	}
	wg.Wait()
	if d := r.reg.Snapshot().Diff(before); d["iod.reads"] != 0 {
		t.Fatalf("shared reads caused %d iod reads", d["iod.reads"])
	}
}

func TestFetchDeduplication(t *testing.T) {
	// Two processes missing the same cold blocks concurrently: the module
	// must not fetch them twice.
	r := newRig(t, nil)
	data := bytes.Repeat([]byte{0x99}, 128*1024)
	r.seed(0, 12, 0, data)

	var wg sync.WaitGroup
	for i := 0; i < 2; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			got, status, err := readOnce(r.mod.NewTransport(), 0, 12, 0, 128*1024)
			if err != nil || status != wire.StatusOK || !bytes.Equal(got, data) {
				t.Errorf("wrong data (status %v, err %v)", status, err)
			}
		}()
	}
	wg.Wait()
	snap := r.reg.Snapshot()
	blocks := int64(128 * 1024 / 4096)
	fetched := snap.Counters["iod.read_bytes"]
	// At most the data once plus a small slack for races on the last
	// block boundary.
	if fetched > int64(128*1024)+8192 {
		t.Errorf("fetched %d bytes for %d-byte file: duplicate fetches", fetched, 128*1024)
	}
	if snap.Counters["module.fetch_joins"] == 0 && snap.Counters["cache.hits"] < blocks {
		t.Error("no deduplication observed")
	}
}

func TestSyncWritePassesThrough(t *testing.T) {
	r := newRig(t, nil)
	tr := r.mod.NewTransport()
	payload := bytes.Repeat([]byte{0x77}, 4096)
	ack := sendRecv(t, tr, 0, &wire.SyncWrite{Client: 1, File: 6, Offset: 0, Data: payload}).(*wire.SyncWriteAck)
	if ack.Status != wire.StatusOK {
		t.Fatalf("ack %d", ack.Status)
	}
	// Sync-writes persist immediately — no flush needed.
	got := make([]byte, 4096)
	if n, _ := r.iods[0].Store().ReadAt(6, 0, got); n != 4096 || !bytes.Equal(got, payload) {
		t.Fatal("sync write not persisted")
	}
	// And the local cache holds a clean copy.
	if r.mod.Buffer().DirtyCount() != 0 {
		t.Fatal("sync write left dirty blocks")
	}
	before := r.reg.Snapshot()
	if !bytes.Equal(readAt(t, tr, 0, 6, 0, 4096), payload) {
		t.Fatal("read after sync write wrong")
	}
	if d := r.reg.Snapshot().Diff(before); d["iod.reads"] != 0 {
		t.Fatal("read after sync write went to network")
	}
}

func TestInvalidationListener(t *testing.T) {
	r := newRig(t, nil)
	tr := r.mod.NewTransport()
	r.seed(0, 7, 0, make([]byte, 4096))
	readAt(t, tr, 0, 7, 0, 4096)
	if !r.mod.Buffer().Contains(blockio.BlockKey{File: 7, Index: 0}, 0, 4096) {
		t.Fatal("block not cached")
	}
	// Another client's sync write invalidates our copy via the iod.
	direct := rpc.NewClient(rpc.ClientConfig{Network: r.net, Addr: r.addrs[0]})
	defer direct.Close()
	res := direct.Call(&wire.SyncWrite{Client: 99, File: 7, Offset: 0, Data: make([]byte, 4096)})
	if res.Err != nil {
		t.Fatal(res.Err)
	}
	if ack := res.Msg.(*wire.SyncWriteAck); ack.Invalidated != 1 {
		t.Fatalf("invalidated %d", ack.Invalidated)
	}
	if r.mod.Buffer().Contains(blockio.BlockKey{File: 7, Index: 0}, 0, 4096) {
		t.Fatal("block survived invalidation")
	}
}

func TestWriteLargerThanCacheCompletes(t *testing.T) {
	// 64-block cache (256 KB); write 1 MB, 4× the capacity. The write
	// stalls for frames the flushes free and must keep the data intact.
	r := newRig(t, func(c *Config) {
		c.WriteStall = 200 * time.Millisecond
	})
	tr := r.mod.NewTransport()
	payload := bytes.Repeat([]byte{0xAB}, 1<<20)
	ack := sendRecv(t, tr, 0, &wire.Write{File: 13, Offset: 0, Data: payload}).(*wire.WriteAck)
	if ack.Status != wire.StatusOK {
		t.Fatalf("ack %d", ack.Status)
	}
	if stalls := r.reg.Counter("module.write_stalls").Value(); stalls == 0 {
		t.Fatal("a write of 4× the cache never stalled for a frame")
	}
	if err := r.mod.FlushAll(); err != nil {
		t.Fatal(err)
	}
	got := make([]byte, 1<<20)
	if n, _ := r.iods[0].Store().ReadAt(13, 0, got); n != 1<<20 || !bytes.Equal(got, payload) {
		t.Fatalf("large write corrupted (n=%d)", n)
	}
}

func TestConfigValidation(t *testing.T) {
	if _, err := New(Config{}); err == nil {
		t.Error("missing network accepted")
	}
	if _, err := New(Config{Network: transport.NewMem()}); err == nil {
		t.Error("zero client id accepted")
	}
	if _, err := New(Config{Network: transport.NewMem(), ClientID: 1}); err == nil {
		t.Error("missing iods accepted")
	}
}

func TestRecvUnknownID(t *testing.T) {
	r := newRig(t, nil)
	tr := r.mod.NewTransport()
	if _, err := tr.Recv(12345); err == nil {
		t.Error("unknown id accepted")
	}
}

func TestPassthroughMessage(t *testing.T) {
	// Register is not a cached message type: it must pass through to the
	// iod untouched.
	r := newRig(t, nil)
	tr := r.mod.NewTransport()
	resp := sendRecv(t, tr, 0, &wire.Register{Client: 42, Addr: "x"})
	if _, ok := resp.(*wire.RegisterAck); !ok {
		t.Fatalf("passthrough reply %T", resp)
	}
}

// TestSendRefusesReads: SendRead is a read's one way in. Send refuses both
// read types before touching anything — forwarding one would read the iod
// past dirty cached bytes — so no claim is registered, no op is pending,
// no tenant budget is charged and nothing reaches the iod.
func TestSendRefusesReads(t *testing.T) {
	r := newRig(t, func(c *Config) { c.TenantFetchBudget = 8 })
	r.seed(0, 16, 0, bytes.Repeat([]byte{0x3E}, 2*4096))
	tr := r.mod.NewTransport()
	tr.TenantHint(16, 4, 1)
	before := r.reg.Snapshot()
	for _, req := range []wire.Message{
		&wire.Read{File: 16, Offset: 0, Length: 2 * 4096},
		&wire.ReadBlocks{File: 16, Exts: []wire.ReadExtent{{Offset: 0, Length: 2 * 4096}}},
	} {
		if id, err := tr.Send(0, req); err == nil {
			t.Fatalf("Send(%v) = request %d, want an error", req.WireType(), id)
		}
	}
	r.mod.fetchMu.Lock()
	claims := len(r.mod.fetches)
	r.mod.fetchMu.Unlock()
	if claims != 0 || len(tr.pending) != 0 || r.mod.TenantInflight(4) != 0 {
		t.Fatalf("refused reads left %d claims, %d pending ops, %d budget blocks", claims, len(tr.pending), r.mod.TenantInflight(4))
	}
	if d := r.reg.Snapshot().Diff(before); d["iod.reads"] != 0 {
		t.Fatalf("refused reads reached the iod (%d reads)", d["iod.reads"])
	}
}

func TestCloseFlushesDirtyBlocks(t *testing.T) {
	net := transport.NewMem()
	reg := metrics.NewRegistry()
	d := iod.New(0, 4096, net, reg)
	l, _ := net.Listen("")
	defer l.Close()
	go d.ServeData(l)

	mod, err := New(Config{
		Network:      net,
		ClientID:     1,
		IODDataAddrs: []string{l.Addr()},
		Buffer:       buffer.Config{BlockSize: 4096, Capacity: 16},
		FlushPeriod:  time.Hour, // flusher never fires on its own
		Registry:     reg,
	})
	if err != nil {
		t.Fatal(err)
	}
	tr := mod.NewTransport()
	payload := bytes.Repeat([]byte{0xCD}, 4096)
	sendRecv(t, tr, 0, &wire.Write{File: 20, Offset: 0, Data: payload})
	if err := mod.Close(); err != nil {
		t.Fatal(err)
	}
	got := make([]byte, 4096)
	if n, _ := d.Store().ReadAt(20, 0, got); n != 4096 || !bytes.Equal(got, payload) {
		t.Fatal("Close lost dirty data")
	}
}
