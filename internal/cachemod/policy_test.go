package cachemod

// Live tests for the discretionary-admission surface: per-open
// cache-policy hints (don't-cache / must-cache) and the streaming bypass
// that routes detected scans around the cache.

import (
	"bytes"
	"sync"
	"testing"
	"time"

	"pvfscache/internal/blockio"
	"pvfscache/internal/cachemod/buffer"
	"pvfscache/internal/chaos/waitfor"
	"pvfscache/internal/pvfs"
	"pvfscache/internal/wire"
)

func TestCacheNoneReadAround(t *testing.T) {
	r := newRig(t, nil)
	const file = 40
	data := bytes.Repeat([]byte{0x61}, 8192)
	r.seed(0, file, 0, data)

	tr := r.mod.NewTransport()
	tr.CachePolicyHint(file, pvfs.CacheNone)

	for pass := 0; pass < 2; pass++ {
		before := r.reg.Snapshot()
		if !bytes.Equal(readAt(t, tr, 0, file, 0, 8192), data) {
			t.Fatalf("pass %d wrong data", pass)
		}
		// Every pass reaches the iod: nothing was admitted.
		if d := r.reg.Snapshot().Diff(before); d["iod.reads"] == 0 {
			t.Fatalf("pass %d served from cache despite don't-cache", pass)
		}
	}
	if r.mod.buf.Contains(blockio.BlockKey{File: file, Index: 0}, 0, 4096) {
		t.Fatal("don't-cache block became resident")
	}
	if st := r.mod.buf.Stats(); st.BypassReads == 0 {
		t.Fatal("bypass_reads not counted")
	}
	// Clearing the hint restores normal admission.
	tr.CachePolicyHint(file, pvfs.CacheDefault)
	readAt(t, tr, 0, file, 0, 8192)
	if !r.mod.buf.Contains(blockio.BlockKey{File: file, Index: 0}, 0, 4096) {
		t.Fatal("default policy no longer admits")
	}
}

func TestCacheNoneWriteAround(t *testing.T) {
	r := newRig(t, nil)
	const file = 41
	tr := r.mod.NewTransport()
	tr.CachePolicyHint(file, pvfs.CacheNone)

	payload := bytes.Repeat([]byte{0x62}, 4096)
	ack := sendRecv(t, tr, 0, &wire.Write{File: file, Offset: 0, Data: payload}).(*wire.WriteAck)
	if ack.Status != wire.StatusOK {
		t.Fatalf("write-around status %v", ack.Status)
	}
	if got := r.reg.Counter("module.write_around").Value(); got != 1 {
		t.Fatalf("write_around = %d, want 1", got)
	}
	if got := r.reg.Counter("module.writes_buffered").Value(); got != 0 {
		t.Fatalf("writes_buffered = %d, want 0", got)
	}
	if n := r.mod.buf.DirtyCount(); n != 0 {
		t.Fatalf("%d dirty blocks after a write-around", n)
	}
	// The iod has the bytes already — no flush needed.
	got := make([]byte, 4096)
	if n, _ := r.iods[0].Store().ReadAt(file, 0, got); n != len(got) || !bytes.Equal(got, payload) {
		t.Fatal("write-around bytes did not reach the iod")
	}
}

func TestCacheMustPinsWorkingSet(t *testing.T) {
	// A must-cache file's blocks are admitted pinned-protected under the
	// ghost policy: a one-pass scan many times the cache size cannot
	// displace them, even though the must-cache blocks were only ever
	// read once.
	r := newRig(t, func(c *Config) {
		c.Buffer.Policy = buffer.PolicyGhost
		c.Buffer.Capacity = 16
		c.ReadaheadWindow = -1
	})
	const hot, cold = 44, 45
	hotData := bytes.Repeat([]byte{0x65}, 4096)
	r.seed(0, hot, 0, hotData)
	r.seed(0, cold, 0, bytes.Repeat([]byte{0x66}, 64*4096))

	tr := r.mod.NewTransport()
	tr.CachePolicyHint(hot, pvfs.CacheMust)
	readAt(t, tr, 0, hot, 0, 4096)
	for i := int64(0); i < 64; i++ {
		readAt(t, tr, 0, cold, i*4096, 4096)
	}
	if !r.mod.buf.Contains(blockio.BlockKey{File: hot, Index: 0}, 0, 4096) {
		t.Fatal("must-cache block displaced by a scan")
	}
	before := r.reg.Snapshot()
	if !bytes.Equal(readAt(t, tr, 0, hot, 0, 4096), hotData) {
		t.Fatal("pinned block has wrong data")
	}
	if d := r.reg.Snapshot().Diff(before); d["iod.reads"] != 0 {
		t.Fatal("pinned block re-read hit the network")
	}
	if err := r.mod.buf.CheckConsistency(); err != nil {
		t.Fatal(err)
	}
}

func TestStreamingBypassKicksInMidScan(t *testing.T) {
	r := newRig(t, func(c *Config) {
		c.ReadaheadWindow = -1 // isolate the bypass from prefetch traffic
		c.BypassThreshold = raMinStreak
	})
	const file = 42
	data := bytes.Repeat([]byte{0x63}, 16*4096)
	r.seed(0, file, 0, data)

	tr := r.mod.NewTransport()
	hintAll(tr, file) // the detector runs on announced files only
	for i := int64(0); i < 8; i++ {
		if !bytes.Equal(readSeq(t, tr, file, i*4096, 4096), data[i*4096:(i+1)*4096]) {
			t.Fatalf("block %d wrong data", i)
		}
	}
	// The scan's head (streak below threshold) was admitted; its tail was
	// served read-around.
	if !r.mod.buf.Contains(blockio.BlockKey{File: file, Index: 0}, 0, 4096) {
		t.Fatal("pre-threshold block not cached")
	}
	if r.mod.buf.Contains(blockio.BlockKey{File: file, Index: 7}, 0, 4096) {
		t.Fatal("post-threshold stream block was admitted")
	}
	if st := r.mod.buf.Stats(); st.BypassReads == 0 {
		t.Fatal("bypass_reads not counted")
	}
	if got := r.reg.Counter("module.stream_bypasses").Value(); got == 0 {
		t.Fatal("stream_bypasses not counted")
	}
	// A must-cache hint overrides the bypass even mid-stream.
	tr.CachePolicyHint(file, pvfs.CacheMust)
	readSeq(t, tr, file, 8*4096, 4096)
	if !r.mod.buf.Contains(blockio.BlockKey{File: file, Index: 8}, 0, 4096) {
		t.Fatal("must-cache hint did not override the stream bypass")
	}
}

// TestStreamBypassesCountedOncePerRequest: module.stream_bypasses counts
// streaming requests, not admission decisions. A bypassed request that also
// tops up the readahead window has its file's admission mode read twice —
// once for the prefetch, once for itself — and used to count twice.
func TestStreamBypassesCountedOncePerRequest(t *testing.T) {
	r := newRig(t, func(c *Config) { c.BypassThreshold = raMinStreak }) // readahead on
	const file, reads = 46, 24
	r.seed(0, file, 0, bytes.Repeat([]byte{0x67}, 64*4096))

	tr := r.mod.NewTransport()
	hintAll(tr, file)
	for i := int64(0); i < reads; i++ {
		readSeq(t, tr, file, i*4096, 4096)
	}
	waitCounter(t, r.reg, "module.prefetch_issued", 1) // or the test exercises nothing
	// The streak reaches the threshold on request raMinStreak-1 (counting
	// from 0); that request and every later one streams.
	if got, want := r.reg.Counter("module.stream_bypasses").Value(), int64(reads-(raMinStreak-1)); got != want {
		t.Fatalf("stream_bypasses = %d after %d streaming reads", got, want)
	}
}

// TestStreamingBypassCountsPrefetchedBlocks is the sibling with readahead
// on: once the bypass engages, the stream's blocks arrive through both
// the demand path and the prefetcher, and cache.bypass_reads must count
// every block served around the cache exactly once, whichever path
// fetched it. The fake iod holds the prefetch replies until the demand
// reads have joined them, so each block is fetched exactly once.
func TestStreamingBypassCountsPrefetchedBlocks(t *testing.T) {
	const file, nblocks, engaged = 44, 16, raMinStreak - 1 // first bypassed block
	r := newFetchRig(t, false, func(c *Config) { c.BypassThreshold = raMinStreak })
	image := pattern(nblocks)
	r.iods[0].image = image
	release := make(chan struct{})
	var mu sync.Mutex
	served := make(map[int64]int) // block → times the iod served it data
	r.iods[0].script = func(req, honest wire.Message) wire.Message {
		rb, ok := req.(*wire.ReadBlocks)
		if !ok {
			return honest
		}
		if rb.Exts[0].Offset > engaged*fakeBS {
			<-release // a prefetch: demand reads of these blocks only ever join
		}
		mu.Lock()
		for i, e := range rb.Exts {
			got := int64(honest.(*wire.ReadBlocksResp).Lens[i])
			for off := int64(0); off < got; off += fakeBS {
				served[(e.Offset+off)/fakeBS]++
			}
		}
		mu.Unlock()
		return honest
	}

	tr := r.mod.NewTransport()
	hintAll(tr, file)
	for i := int64(0); i <= engaged; i++ {
		readSeq(t, tr, file, i*fakeBS, fakeBS)
	}
	var ids []pvfs.ReqID
	var bufs [][]byte
	for i := int64(engaged + 1); i < nblocks; i++ {
		tr.NoteRead(file, i*fakeBS, fakeBS)
		id, buf, err := startRead(tr, 0, file, i*fakeBS, fakeBS)
		if err != nil {
			t.Fatal(err)
		}
		ids = append(ids, id)
		bufs = append(bufs, buf)
	}
	close(release)
	for n, id := range ids {
		status, err := finishRead(tr, id)
		i := engaged + 1 + n
		if err != nil || status != wire.StatusOK || !bytes.Equal(bufs[n], image[i*fakeBS:(i+1)*fakeBS]) {
			t.Fatalf("block %d: wrong data under bypass (status %v, err %v)", i, status, err)
		}
	}
	waitfor.Until(t, 5*time.Second, func() bool { return len(r.claims()) == 0 }, "prefetches past the file's end settled")

	mu.Lock()
	defer mu.Unlock()
	for i := int64(0); i < nblocks; i++ {
		if served[i] != 1 {
			t.Fatalf("block %d fetched %d times, want once (demand reads must join the prefetch)", i, served[i])
		}
	}
	if r.reg.Counter("module.prefetch_blocks").Value() == 0 {
		t.Fatal("no block arrived through the prefetcher")
	}
	if got, want := r.mod.buf.Stats().BypassReads, int64(nblocks-engaged); got != want {
		t.Fatalf("bypass_reads = %d, want %d: every block served after the bypass engaged, demand- and prefetch-fetched alike", got, want)
	}
}

func TestBypassedStreamStillCorrectWithDirtyOverlay(t *testing.T) {
	// The read-around path must still overlay resident dirty bytes on the
	// fetched image: a buffered write followed by a bypassed stream read
	// of the same block returns the written bytes, not the iod's stale
	// copy.
	r := newRig(t, func(c *Config) {
		c.ReadaheadWindow = -1
		c.BypassThreshold = raMinStreak
	})
	const file = 43
	data := bytes.Repeat([]byte{0x64}, 16*4096)
	r.seed(0, file, 0, data)

	tr := r.mod.NewTransport()
	hintAll(tr, file)
	// Dirty the first 16 bytes of block 6 via write-behind.
	dirty := bytes.Repeat([]byte{0xEE}, 16)
	if ack := sendRecv(t, tr, 0, &wire.Write{File: file, Offset: 6 * 4096, Data: dirty}).(*wire.WriteAck); ack.Status != wire.StatusOK {
		t.Fatal("write failed")
	}
	// Scan up to and past block 6; by then the stream is bypassed.
	for i := int64(0); i < 8; i++ {
		got := readSeq(t, tr, file, i*4096, 4096)
		want := data[i*4096 : (i+1)*4096]
		if i == 6 {
			want = append(append([]byte{}, dirty...), data[6*4096+16:(6+1)*4096]...)
		}
		if !bytes.Equal(got, want) {
			t.Fatalf("block %d wrong data under bypass", i)
		}
	}
}
