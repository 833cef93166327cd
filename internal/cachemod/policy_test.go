package cachemod

// Live tests for the discretionary-admission surface: the per-open
// cache-policy hints (don't-cache / must-cache), the one input to a read's
// admission. Writes ignore the hint: every write goes through the cache.

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

// TestCacheNoneWritesGoThroughTheCache: a don't-cache hint steers reads
// only. A write or sync-write to a block that is already resident — clean
// after a read, or dirty after a buffered write — must update the resident
// copy: the next read returns the new bytes, and a later flush of the
// resident block must not put the older bytes back at the iod. Writing
// around the cache broke both.
func TestCacheNoneWritesGoThroughTheCache(t *testing.T) {
	const file = 41
	oldB, newB := bytes.Repeat([]byte{0x61}, 4096), bytes.Repeat([]byte{0x62}, 4096)
	resident := []struct {
		name string
		make func(t *testing.T, r *rig, tr *CachedTransport)
	}{
		{"clean", func(t *testing.T, r *rig, tr *CachedTransport) {
			r.seed(0, file, 0, oldB)
			readAt(t, tr, 0, file, 0, 4096)
		}},
		{"dirty", func(t *testing.T, r *rig, tr *CachedTransport) {
			sendRecv(t, tr, 0, &wire.Write{Client: 1, File: file, Data: oldB})
		}},
	}
	// Client is the module's own id, as libpvfs sends it: a sync-write's iod
	// invalidates every holder but the writer.
	writes := []wire.Message{
		&wire.Write{Client: 1, File: file, Data: newB},
		&wire.SyncWrite{Client: 1, File: file, Data: newB},
	}
	for _, res := range resident {
		for _, w := range writes {
			t.Run(res.name+"/"+w.WireType().String(), func(t *testing.T) {
				r := newRig(t, func(c *Config) { c.FlushPeriod = time.Hour })
				tr := r.mod.NewTransport()
				res.make(t, r, tr)
				if !r.mod.buf.Contains(blockio.BlockKey{File: file, Index: 0}, 0, 4096) {
					t.Fatal("setup left the block not resident")
				}
				tr.CachePolicyHint(file, pvfs.CacheNone)
				sendRecv(t, tr, 0, w)
				if got := readAt(t, tr, 0, file, 0, 4096); !bytes.Equal(got, newB) {
					t.Fatalf("read after an acknowledged %v returned %#x, want %#x", w.WireType(), got[0], newB[0])
				}
				if err := r.mod.FlushAll(); err != nil {
					t.Fatal(err)
				}
				got := make([]byte, 4096)
				if n, _ := r.iods[0].Store().ReadAt(file, 0, got); n != len(got) || !bytes.Equal(got, newB) {
					t.Fatalf("iod holds %#x after FlushAll, want %#x", got[0], newB[0])
				}
			})
		}
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

// TestCacheNoneCountsPrefetchedBlocks: a don't-cache file's scan keeps its
// readahead, so its blocks arrive through both the demand path and the
// prefetcher, and cache.bypass_reads must count every block served around
// the cache exactly once, whichever path fetched it. The fake iod holds
// the prefetch replies until the demand reads have joined them, so each
// block is fetched exactly once.
func TestCacheNoneCountsPrefetchedBlocks(t *testing.T) {
	const file, nblocks, opens = 44, 16, raMinStreak - 1 // block whose read opens the window
	r := newFetchRig(t, false, nil)
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
		if rb.Exts[0].Offset > opens*fakeBS {
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
	tr.CachePolicyHint(file, pvfs.CacheNone)
	for i := int64(0); i <= opens; i++ {
		readSeq(t, tr, file, i*fakeBS, fakeBS)
	}
	var ids []pvfs.ReqID
	var bufs [][]byte
	for i := int64(opens + 1); i < nblocks; i++ {
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
		i := opens + 1 + n
		if err != nil || status != wire.StatusOK || !bytes.Equal(bufs[n], image[i*fakeBS:(i+1)*fakeBS]) {
			t.Fatalf("block %d: wrong data read around (status %v, err %v)", i, status, err)
		}
	}
	waitfor.Until(t, 5*time.Second, func() bool { return r.inFlight() == 0 }, "prefetches past the file's end settled")

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
	if got := r.mod.buf.Stats().BypassReads; got != nblocks {
		t.Fatalf("bypass_reads = %d, want %d: every block, demand- and prefetch-fetched alike", got, nblocks)
	}
}

// TestCacheNoneReadOverlaysDirtyBytes: the read-around path must still
// overlay resident dirty bytes on the fetched image: a buffered write
// followed by a don't-cache read of the same block returns the written
// bytes, not the iod's stale copy.
func TestCacheNoneReadOverlaysDirtyBytes(t *testing.T) {
	r := newRig(t, func(c *Config) { c.ReadaheadWindow = -1 })
	const file = 43
	data := bytes.Repeat([]byte{0x64}, 8*4096)
	r.seed(0, file, 0, data)

	tr := r.mod.NewTransport()
	tr.CachePolicyHint(file, pvfs.CacheNone)
	// Dirty the first 16 bytes of block 6: the write is buffered.
	dirty := bytes.Repeat([]byte{0xEE}, 16)
	if ack := sendRecv(t, tr, 0, &wire.Write{File: file, Offset: 6 * 4096, Data: dirty}).(*wire.WriteAck); ack.Status != wire.StatusOK {
		t.Fatal("write failed")
	}
	for i := int64(0); i < 8; i++ {
		got := readAt(t, tr, 0, file, i*4096, 4096)
		want := data[i*4096 : (i+1)*4096]
		if i == 6 {
			want = append(append([]byte{}, dirty...), data[6*4096+16:(6+1)*4096]...)
		}
		if !bytes.Equal(got, want) {
			t.Fatalf("block %d wrong data read around", i)
		}
	}
	if r.mod.buf.Contains(blockio.BlockKey{File: file, Index: 0}, 0, 4096) {
		t.Fatal("don't-cache read admitted its block")
	}
}
