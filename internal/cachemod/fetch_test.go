package cachemod

import (
	"bytes"
	"errors"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"pvfscache/internal/blockio"
	"pvfscache/internal/cachemod/buffer"
	"pvfscache/internal/chaos/waitfor"
	"pvfscache/internal/metrics"
	"pvfscache/internal/pvfs"
	"pvfscache/internal/rpc"
	"pvfscache/internal/transport"
	"pvfscache/internal/wire"
)

const fakeBS = 4096

// fakeIOD is a scripted iod: one rpc.Server over a single in-memory
// image every file reads from. It accepts every
// Register and never invalidates on its own. script, when set, sees each request with
// the honest reply and returns what goes on the wire instead; a nil reply
// drops the connection (an rpc error).
type fakeIOD struct {
	mu     sync.Mutex
	image  []byte
	script func(req, honest wire.Message) wire.Message
}

func (f *fakeIOD) read(off, n int64) []byte {
	f.mu.Lock()
	defer f.mu.Unlock()
	lo, hi := min(off, int64(len(f.image))), min(off+n, int64(len(f.image)))
	return append([]byte(nil), f.image[lo:hi]...)
}

func (f *fakeIOD) write(off int64, p []byte) {
	f.mu.Lock()
	defer f.mu.Unlock()
	if need := int(off) + len(p); need > len(f.image) {
		f.image = append(f.image, make([]byte, need-len(f.image))...)
	}
	copy(f.image[off:], p)
}

func (f *fakeIOD) Handle(req wire.Message) wire.Message {
	var honest wire.Message
	switch r := req.(type) {
	case *wire.Register:
		honest = &wire.RegisterAck{Status: wire.StatusOK}
	case *wire.ReadBlocks:
		rr := &wire.ReadBlocksResp{Status: wire.StatusOK}
		for _, e := range r.Exts {
			b := f.read(e.Offset, e.Length)
			rr.Lens = append(rr.Lens, uint32(len(b)))
			rr.Data = append(rr.Data, b...)
		}
		honest = rr
	case *wire.Write:
		f.write(r.Offset, r.Data)
		honest = &wire.WriteAck{Status: wire.StatusOK}
	case *wire.SyncWrite:
		f.write(r.Offset, r.Data)
		honest = &wire.SyncWriteAck{Status: wire.StatusOK}
	case *wire.Flush:
		for _, blk := range r.Blocks {
			f.write(blk.Index*fakeBS+int64(blk.Off), blk.Data)
		}
		honest = &wire.FlushAck{Status: wire.StatusOK}
	}
	f.mu.Lock()
	script := f.script
	f.mu.Unlock()
	if script != nil {
		return script(req, honest)
	}
	return honest
}

// scriptNet lets a test stop the module at its first Dial once hold is
// set — after every claim of the operation under test is registered and
// before any of them can land or settle — and fail one chosen dial.
type scriptNet struct {
	transport.Network
	hold    chan struct{} // non-nil: every Dial waits for it to close
	reached chan struct{} // closed when the first held Dial arrives

	mu       sync.Mutex
	once     sync.Once
	dials    map[string]int
	failAddr string // the failNth-th Dial of failAddr is refused
	failNth  int
}

func (n *scriptNet) Dial(addr string) (transport.Conn, error) {
	n.mu.Lock()
	n.dials[addr]++
	refuse := addr == n.failAddr && n.dials[addr] == n.failNth
	n.mu.Unlock()
	if n.hold != nil {
		n.once.Do(func() { close(n.reached) })
		<-n.hold
	}
	if refuse {
		return nil, errors.New("scriptNet: dial refused")
	}
	return n.Network.Dial(addr)
}

// fetchRig is one module over two fake iods.
type fetchRig struct {
	net   *scriptNet
	iods  [2]*fakeIOD
	addrs [2]string
	mod   *Module
	reg   *metrics.Registry
}

func newFetchRig(t *testing.T, hold bool, cfgEdit func(*Config)) *fetchRig {
	t.Helper()
	r := &fetchRig{reg: metrics.NewRegistry()}
	r.net = &scriptNet{Network: transport.NewMem(), reached: make(chan struct{}), dials: make(map[string]int)}
	for i := range r.iods {
		r.iods[i] = &fakeIOD{}
		l, err := r.net.Listen("")
		if err != nil {
			t.Fatal(err)
		}
		srv := rpc.NewServer(r.iods[i], rpc.ServerConfig{})
		go srv.Serve(l)
		t.Cleanup(func() { l.Close(); srv.Close() })
		r.addrs[i] = l.Addr()
	}
	cfg := Config{
		Network:           r.net,
		ClientID:          1,
		IODDataAddrs:      r.addrs[:],
		Buffer:            buffer.Config{BlockSize: fakeBS, Capacity: 64},
		FlushPeriod:       time.Hour,
		TenantFetchBudget: 1 << 14,
		Registry:          r.reg,
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
	if hold {
		// New registered over the iod clients, dialing every iod. Swap
		// in undialed clients, the flush streams' too, and forget those
		// dials, so the operation under test makes the first Dial, the
		// one hold stops.
		for i, rc := range mod.data {
			rc.Close()
			mod.data[i] = rpc.NewClient(rpc.ClientConfig{Network: r.net, Addr: cfg.IODDataAddrs[i]})
			mod.streams[i].client = mod.data[i]
		}
		r.net.dials = make(map[string]int)
		r.net.hold = make(chan struct{})
	}
	return r
}

// claims snapshots the fetch table. The rig holds one reference per
// snapshotted state, taken under fetchMu as a joiner takes it, so a state
// is not recycled for another claim while the test still inspects it; the
// references drop when the test ends.
func (r *fetchRig) claims(t *testing.T) map[blockio.BlockKey]*fetchState {
	r.mod.fetchMu.Lock()
	out := make(map[blockio.BlockKey]*fetchState, len(r.mod.fetches))
	for k, st := range r.mod.fetches {
		st.refs.Add(1)
		out[k] = st
	}
	r.mod.fetchMu.Unlock()
	t.Cleanup(func() {
		for _, st := range out {
			st.decref()
		}
	})
	return out
}

// inFlight counts the fetch table's entries.
func (r *fetchRig) inFlight() int {
	r.mod.fetchMu.Lock()
	defer r.mod.fetchMu.Unlock()
	return len(r.mod.fetches)
}

// checkSettled asserts the protocol's exit invariants for every snapshotted
// state: its gate open, no holder left on the state or its slab but the
// rig's own reference (claims), nothing in the table, and the tenant's
// in-flight budget returned.
func (r *fetchRig) checkSettled(t *testing.T, states map[blockio.BlockKey]*fetchState, tenant uint32) {
	t.Helper()
	opened := make(chan struct{})
	go func() {
		for _, st := range states {
			st.done.Wait()
		}
		close(opened)
	}()
	select {
	case <-opened:
	case <-time.After(5 * time.Second):
		t.Fatal("a claim's gate never opened")
	}
	// A published state holds one reference on its slab; the rig's holds
	// keep those alive, and nothing else may.
	slabHolds := make(map[*memRef]int32)
	for _, st := range states {
		if st.mem != nil {
			slabHolds[st.mem]++
		}
	}
	waitfor.Until(t, 5*time.Second, func() bool {
		for _, st := range states {
			if st.refs.Load() != 1 {
				return false
			}
		}
		for mem, n := range slabHolds {
			if mem.refs.Load() != n {
				return false
			}
		}
		return r.inFlight() == 0
	}, "every claim settled: gate open, refs drained to the rig's own, table empty")
	waitTenantInflight(t, r.mod, tenant, 0)
}

// pattern is the fake iods' image: every block distinguishable.
func pattern(nblocks int) []byte {
	p := make([]byte, nblocks*fakeBS)
	for i := range p {
		p[i] = byte(i/fakeBS*31 + i%251)
	}
	return p
}

// TestFetchProtocolSettlesEveryClaim drives the one claim → land → settle
// unit through every way a fetch can end, as a demand read and as a
// prefetch, with a second process joined on every block. Whatever the
// reply, no claim, reference or budget charge may outlive the operation,
// the joiner must still read correct bytes (falling back to its own fetch
// when the owner left nothing), and the error a joiner sees must name the
// real cause.
func TestFetchProtocolSettlesEveryClaim(t *testing.T) {
	const file, tenant = 77, 3
	// Two runs, blocks {0,1} and {3,4}: two extents in one ReadBlocks.
	exts := []wire.ReadExtent{{Offset: 0, Length: 2 * fakeBS}, {Offset: 3 * fakeBS, Length: 2 * fakeBS}}
	idxs := []int64{0, 1, 3, 4}

	type row struct {
		name     string
		imageLen int // bytes the iods store (default: all five blocks)
		// mangle rewrites the first ReadBlocks reply.
		mangle   func(rr *wire.ReadBlocksResp) wire.Message
		failDial bool
		cause    func(error) bool // nil: the fetch succeeds
	}
	textHas := func(s string) func(error) bool {
		return func(err error) bool { return strings.Contains(err.Error(), s) }
	}
	rows := []row{
		{name: "ok"},
		{name: "short tail", imageLen: 3*fakeBS + fakeBS/2},
		{name: "overlong len", cause: textHas("overlong"),
			mangle: func(rr *wire.ReadBlocksResp) wire.Message {
				// Extent 0 claims 1 KB of extent 1's bytes; the sum still tiles.
				rr.Lens[0] += 1024
				rr.Lens[1] -= 1024
				return rr
			}},
		{name: "extent-count mismatch", cause: textHas("extents, want"),
			mangle: func(rr *wire.ReadBlocksResp) wire.Message {
				rr.Lens = []uint32{rr.Lens[0] + rr.Lens[1]}
				return rr
			}},
		{name: "wrong reply type", cause: textHas("fetch failed"),
			mangle: func(rr *wire.ReadBlocksResp) wire.Message {
				return &wire.ReadResp{Status: wire.StatusOK, Data: rr.Data}
			}},
		{name: "error status", cause: func(err error) bool { return errors.Is(err, wire.ErrOverload) },
			mangle: func(*wire.ReadBlocksResp) wire.Message {
				return &wire.ReadBlocksResp{Status: wire.StatusOverload}
			}},
		{name: "rpc error", cause: func(err error) bool { return !errors.Is(err, wire.ErrBadRequest) },
			mangle: func(*wire.ReadBlocksResp) wire.Message { return nil }},
		{name: "Go fails on the 2nd batch", failDial: true, cause: textHas("dial refused")},
	}

	for _, kind := range []string{"demand", "prefetch"} {
		for _, row := range rows {
			t.Run(kind+"/"+row.name, func(t *testing.T) {
				r := newFetchRig(t, true, nil)
				image := pattern(5)
				if row.imageLen > 0 {
					image = image[:row.imageLen]
				}
				want := make([]byte, 5*fakeBS) // what any reader must see
				copy(want, image)
				sendDone := make(chan struct{})
				for _, f := range r.iods {
					f.image = image
					var mangled atomic.Bool
					f.script = func(req, honest wire.Message) wire.Message {
						rr, ok := honest.(*wire.ReadBlocksResp)
						if !ok || mangled.Swap(true) {
							return honest
						}
						if row.failDial {
							<-sendDone // keep batch 1 in flight so batch 2 dials
						}
						if row.mangle != nil {
							return row.mangle(rr)
						}
						return honest
					}
				}
				owner, joiner := r.mod.NewTransport(), r.mod.NewTransport()
				owner.TenantHint(file, tenant, 1)
				req := &wire.ReadBlocks{File: file, Exts: exts}

				// Start the operation; it stops at its first Dial with every
				// claim registered.
				type sent struct {
					id  pvfs.ReqID
					err error
				}
				sendc := make(chan sent, 1)
				var ownerBuf []byte
				if kind == "demand" {
					ownerReq := req
					if row.failDial {
						// Two batches need more blocks than one frame carries:
						// sub-block extents at block stride. The 2nd dial of
						// iod 0 (batch 2, while batch 1 is in flight) fails.
						big := make([]wire.ReadExtent, maxFetchBlocks(fakeBS)+5)
						for i := range big {
							big[i] = wire.ReadExtent{Offset: int64(i) * fakeBS, Length: 1}
						}
						ownerReq = &wire.ReadBlocks{File: file, Exts: big}
						r.net.failAddr, r.net.failNth = r.addrs[0], 2
					}
					buf, sink := sinkFor(ownerReq.Exts)
					ownerBuf = buf
					go func() {
						id, ok, err := owner.SendRead(0, ownerReq, sink)
						if err == nil && !ok {
							err = errors.New("SendRead declined")
						}
						close(sendDone)
						sendc <- sent{id, err}
					}()
				} else {
					hint := stripeHint{meta: wire.FileMeta{Size: 1 << 20, PCount: 1, SSize: 1 << 20}, total: 2}
					if row.failDial {
						// One batch per iod: blocks alternate, iod 1 refuses.
						hint.meta.PCount, hint.meta.SSize = 2, fakeBS
						r.net.failAddr, r.net.failNth = r.addrs[1], 1
					}
					r.mod.prefetchRange(file, hint, idxs, pvfs.CacheDefault)
					close(sendDone)
				}
				<-r.net.reached
				states := r.claims(t)
				if len(states) < len(idxs) {
					t.Fatalf("%d claims registered, want at least %d", len(states), len(idxs))
				}
				// A second process joins every block, then the wire opens.
				got, jsink := sinkFor(exts)
				jid, ok, err := joiner.SendRead(0, req, jsink)
				if err != nil || !ok {
					t.Fatalf("joiner SendRead: ok=%v err=%v", ok, err)
				}
				close(r.net.hold)

				if kind == "demand" {
					s := <-sendc
					err := s.err
					if err == nil {
						var status wire.Status
						if status, err = finishRead(owner, s.id); err == nil {
							err = status.Err()
						}
					}
					switch {
					case row.cause == nil && err != nil:
						t.Fatalf("owner read failed: %v", err)
					case row.cause != nil && (err == nil || !row.cause(err)):
						t.Fatalf("owner error = %v, want the row's cause", err)
					case row.cause == nil:
						if !bytes.Equal(ownerBuf[:2*fakeBS], want[:2*fakeBS]) || !bytes.Equal(ownerBuf[2*fakeBS:], want[3*fakeBS:]) {
							t.Fatal("owner read wrong bytes")
						}
					}
				}
				if status, err := finishRead(joiner, jid); err != nil || status != wire.StatusOK {
					t.Fatalf("joiner read failed: status %v, err %v", status, err)
				}
				if !bytes.Equal(got[:2*fakeBS], want[:2*fakeBS]) || !bytes.Equal(got[2*fakeBS:], want[3*fakeBS:]) {
					t.Fatal("joiner read wrong bytes")
				}
				r.checkSettled(t, states, tenant)

				// What the joiners were told: the real cause, never a mask.
				failed := 0
				for key, st := range states {
					if st.err == nil {
						continue
					}
					failed++
					if row.cause == nil || !row.cause(st.err) {
						t.Errorf("block %d settled with %v, not the row's cause", key.Index, st.err)
					}
				}
				if (row.cause != nil) != (failed > 0) {
					t.Errorf("%d claims settled with an error", failed)
				}
				if kind == "prefetch" && row.name == "short tail" {
					// Block 3 is half stored: installed zero-padded. Block 4
					// lies past the served length: dropped, then fetched by
					// the joiner's own validated read.
					if got := r.reg.Counter("module.prefetch_blocks").Value(); got != 3 {
						t.Errorf("prefetch_blocks = %d, want 3 (block 4 dropped)", got)
					}
				}
			})
		}
	}
}

// staleRaces are the interleavings staleRig puts inside one fetch's
// flight, each after which the fetched image is no longer the newest
// acknowledged data:
//   - local: this node writes the block, flushes it and evicts it;
//   - remote: another node's sync-write lands at the iod, whose
//     invalidation reaches this node while block 0 is not resident;
//   - drain: the same, with a drain invalidation (InvalidateClean).
var staleRaces = []string{"local", "remote", "drain"}

// staleRig is a rig whose iod 0, on the first ReadBlocks for block 0,
// captures the old bytes, then — before replying with them — runs the
// named race (staleRaces) against the module, deterministically.
func staleRig(t *testing.T, race string, file blockio.FileID, oldB, newB []byte) *fetchRig {
	r := newFetchRig(t, false, func(c *Config) { c.Buffer.Capacity = 8 })
	key := blockio.BlockKey{File: file, Index: 0}
	r.iods[0].image = append([]byte(nil), oldB...)
	var raced atomic.Bool
	r.iods[0].script = func(req, honest wire.Message) wire.Message {
		if _, ok := req.(*wire.ReadBlocks); !ok || raced.Swap(true) {
			return honest
		}
		if race != "local" {
			r.iods[0].write(0, newB)
			r.mod.handleInvalidate(&wire.Invalidate{File: file, Indices: []int64{0}, Drain: race == "drain"})
			return honest // the pre-write image
		}
		tr := r.mod.NewTransport()
		id, err := tr.Send(0, &wire.Write{File: file, Offset: 0, Data: newB})
		if err == nil {
			_, err = tr.Recv(id)
		}
		if err == nil {
			err = r.mod.FlushAll()
		}
		if err != nil {
			t.Errorf("racing write: %v", err)
		}
		// Evict by replacement: push clean filler through the cache.
		for i := int64(0); r.mod.buf.Contains(key, 0, fakeBS) && i < 64; i++ {
			r.mod.buf.InsertClean(blockio.BlockKey{File: file + 1, Index: i}, 0, oldB)
		}
		if r.mod.buf.Contains(key, 0, fakeBS) {
			t.Error("written block was not evicted")
		}
		return honest // the pre-write image
	}
	return r
}

// TestStaleFetchDemandRetries: a demand fetch whose block is overtaken by
// a staleRaces interleaving while the fetch is in flight must not serve
// or install the pre-write image; it re-reads once against a fresh stamp.
func TestStaleFetchDemandRetries(t *testing.T) {
	const file = 81
	for _, race := range staleRaces {
		t.Run(race, func(t *testing.T) {
			oldB, newB := bytes.Repeat([]byte{0x0D}, fakeBS), bytes.Repeat([]byte{0xE7}, fakeBS)
			r := staleRig(t, race, file, oldB, newB)
			if got := readAt(t, r.mod.NewTransport(), 0, file, 0, fakeBS); !bytes.Equal(got, newB) {
				t.Fatalf("read returned %#x..., want the acknowledged write %#x", got[0], newB[0])
			}
			if got := r.reg.Counter("module.fetch_stale_retries").Value(); got != 1 {
				t.Fatalf("fetch_stale_retries = %d, want 1", got)
			}
			got := make([]byte, fakeBS)
			if !r.mod.buf.ReadSpan(blockio.BlockKey{File: file, Index: 0}, 0, got) || !bytes.Equal(got, newB) {
				t.Fatal("cache does not hold the re-read image")
			}
		})
	}
}

// TestStaleFetchPrefetchDrops: the same races against a prefetch. The
// speculative image is dropped, not re-read and not installed.
func TestStaleFetchPrefetchDrops(t *testing.T) {
	const file = 82
	for _, race := range staleRaces {
		t.Run(race, func(t *testing.T) {
			oldB, newB := bytes.Repeat([]byte{0x0D}, fakeBS), bytes.Repeat([]byte{0xE7}, fakeBS)
			r := staleRig(t, race, file, oldB, newB)
			hint := stripeHint{meta: wire.FileMeta{Size: 1 << 20, PCount: 1, SSize: 1 << 20}, total: 2}
			r.mod.prefetchRange(file, hint, []int64{0}, pvfs.CacheDefault)
			waitCounter(t, r.reg, "module.prefetch_stale_drops", 1)
			waitfor.Until(t, 5*time.Second, func() bool { return r.inFlight() == 0 }, "prefetch claim settled")
			if got := r.reg.Counter("module.prefetch_stale_drops").Value(); got != 1 {
				t.Fatalf("prefetch_stale_drops = %d, want 1", got)
			}
			if r.mod.buf.Contains(blockio.BlockKey{File: file, Index: 0}, 0, fakeBS) {
				t.Fatal("stale prefetched image was installed")
			}
			if got := r.reg.Counter("module.fetch_stale_retries").Value(); got != 0 {
				t.Fatalf("prefetch re-read a stale block (%d retries)", got)
			}
			// A demand read now fetches the current store.
			if !bytes.Equal(readAt(t, r.mod.NewTransport(), 0, file, 0, fakeBS), newB) {
				t.Fatal("demand read after the drop returned old bytes")
			}
		})
	}
}

// fullCacheRig is a capacity-4 fetchRig whose frames all hold dirty
// blocks of file 1 (block i filled with byte i) with their flushes held at
// iod 0, so no frame can be freed: a write of any other block finds no
// frame. heldFetch, when true, also holds the first ReadBlocks of block
// k, carrying the image from before anything the test writes; release
// lets the flushes land and frees their frames. stall is the module's
// WriteStall.
type fullCacheRig struct {
	*fetchRig
	tr                      *CachedTransport
	fetchHeld, releaseFetch chan struct{}
	releaseFlush            chan struct{}
}

const fullCap, fullK = 4, 4 // capacity, and the block read and written (not a filler)

func newFullCacheRig(t *testing.T, oldB []byte, stall time.Duration) *fullCacheRig {
	r := &fullCacheRig{
		fetchRig: newFetchRig(t, false, func(c *Config) {
			c.Buffer.Capacity = fullCap
			c.WriteStall = stall
		}),
		fetchHeld: make(chan struct{}), releaseFetch: make(chan struct{}), releaseFlush: make(chan struct{}),
	}
	r.iods[0].image = append(make([]byte, fullK*fakeBS), oldB...)
	flushHeld := make(chan struct{})
	var flushOnce, fetchOnce sync.Once
	r.iods[0].script = func(req, honest wire.Message) wire.Message {
		switch req := req.(type) {
		case *wire.Flush:
			flushOnce.Do(func() { close(flushHeld) })
			<-r.releaseFlush
		case *wire.ReadBlocks:
			if req.Exts[0].Offset == fullK*fakeBS {
				fetchOnce.Do(func() { close(r.fetchHeld) })
				<-r.releaseFetch // honest holds the image from before the write
			}
		}
		return honest
	}
	t.Cleanup(r.release)
	r.tr = r.mod.NewTransport()
	for i := int64(0); i < fullCap; i++ {
		sendRecv(t, r.tr, 0, &wire.Write{File: 1, Offset: i * fakeBS, Data: bytes.Repeat([]byte{byte(i)}, fakeBS)})
	}
	r.mod.kickAllStreams()
	<-flushHeld
	return r
}

// release lets the held flushes land (idempotent; Cleanup calls it too).
func (r *fullCacheRig) release() {
	select {
	case <-r.releaseFlush:
	default:
		close(r.releaseFlush)
	}
	select {
	case <-r.releaseFetch:
	default:
		close(r.releaseFetch)
	}
}

// startHeldRead starts a demand read of block fullK and returns once its
// fetch is held at the iod.
func (r *fullCacheRig) startHeldRead(t *testing.T) (*CachedTransport, pvfs.ReqID) {
	t.Helper()
	rd := r.mod.NewTransport()
	id, _, err := startRead(rd, 0, 1, fullK*fakeBS, fakeBS)
	if err != nil {
		t.Fatal(err)
	}
	<-r.fetchHeld
	return rd, id
}

// TestStalledWriteShedsWhileFetchInFlight: a write that finds the cache full
// of in-flight dirty blocks waits for flush progress, and when WriteStall
// passes with none it is shed with StatusOverload: no byte of it reaches
// the iod. A demand fetch of the same block is in flight across the shed
// write and its retry; once the flushes land and the retry is buffered,
// the fetch must not install its pre-write image — the retry moved the
// block's write stamp — and the read after the retry's ack returns the
// retry's bytes.
func TestStalledWriteShedsWhileFetchInFlight(t *testing.T) {
	oldB, newB := bytes.Repeat([]byte{0x0D}, fakeBS), bytes.Repeat([]byte{0xE7}, fakeBS)
	r := newFullCacheRig(t, oldB, 20*time.Millisecond)
	rd, id := r.startHeldRead(t)
	write := &wire.Write{File: 1, Offset: fullK * fakeBS, Data: newB}
	if ack := sendRecv(t, r.tr, 0, write).(*wire.WriteAck); !errors.Is(ack.Status.Err(), wire.ErrOverload) {
		t.Fatalf("stalled write: status %v, want overload", ack.Status)
	}
	if got := r.iods[0].read(fullK*fakeBS, fakeBS); !bytes.Equal(got, oldB) {
		t.Fatalf("shed write reached the iod: %#x...", got[0])
	}
	// The flushes land and free their frames; the retry is buffered while
	// the fetch is still held, then the fetch lands.
	close(r.releaseFlush)
	waitfor.Until(t, 5*time.Second, func() bool { return r.mod.buf.DirtyCount() == 0 }, "held flushes acknowledged")
	if ack := sendRecv(t, r.tr, 0, write).(*wire.WriteAck); ack.Status != wire.StatusOK {
		t.Fatalf("retried write: status %v", ack.Status)
	}
	close(r.releaseFetch)
	if status, err := finishRead(rd, id); err != nil || status != wire.StatusOK {
		t.Fatalf("overtaken read: status %v, err %v", status, err)
	}
	if got := readAt(t, r.tr, 0, 1, fullK*fakeBS, fakeBS); !bytes.Equal(got, newB) {
		t.Fatalf("read after the acknowledged write returned %#x..., want %#x", got[0], newB[0])
	}
}

// TestWriteAgainstStalledFlushPortSheds: with every frame dirty and the
// iod's Flush replies stalled, a write waits WriteStall for flush
// progress, is shed with ErrOverload, and leaves the iod's bytes
// unchanged — also after the flushes recover and the cache drains. WriteStall is well
// above awaitPoll: the wait's periodic re-checks are not progress, so they
// must not push the deadline back.
func TestWriteAgainstStalledFlushPortSheds(t *testing.T) {
	const stall = 300 * time.Millisecond
	oldB := bytes.Repeat([]byte{0x0D}, fakeBS)
	r := newFullCacheRig(t, oldB, stall)
	start := time.Now()
	acked := make(chan wire.Message, 1)
	go func() {
		var resp wire.Message
		id, err := r.tr.Send(0, &wire.Write{File: 1, Offset: fullK * fakeBS, Data: bytes.Repeat([]byte{0xE7}, fakeBS)})
		if err == nil {
			resp, _ = r.tr.Recv(id)
		}
		acked <- resp
	}()
	var resp wire.Message
	select {
	case resp = <-acked:
	case <-time.After(10 * stall):
		t.Fatalf("write against stalled flushes still blocked after %v (WriteStall %v)", 10*stall, stall)
	}
	if ack, ok := resp.(*wire.WriteAck); !ok || !errors.Is(ack.Status.Err(), wire.ErrOverload) {
		t.Fatalf("write against stalled flushes: reply %v, want ErrOverload", resp)
	}
	if waited := time.Since(start); waited < stall {
		t.Fatalf("shed after %v, before WriteStall (%v)", waited, stall)
	}
	if got := r.reg.Counter("module.write_stalls").Value(); got != 1 {
		t.Fatalf("write_stalls = %d, want 1", got)
	}
	r.release()
	if err := r.mod.FlushAll(); err != nil {
		t.Fatal(err)
	}
	if got := r.iods[0].read(fullK*fakeBS, fakeBS); !bytes.Equal(got, oldB) {
		t.Fatalf("shed write reached the iod: %#x...", got[0])
	}
}

// TestSyncWriteWithoutFrameOvertakesFetch: a sync-write that finds no
// frame skips the cache and goes to the iod, which never invalidates the
// writer's own node. A demand fetch of the block, in flight across the
// write, must not install its pre-write image after the ack: the ack moves
// the block's write stamp.
func TestSyncWriteWithoutFrameOvertakesFetch(t *testing.T) {
	oldB, newB := bytes.Repeat([]byte{0x0D}, fakeBS), bytes.Repeat([]byte{0xE7}, fakeBS)
	r := newFullCacheRig(t, oldB, 20*time.Millisecond)
	rd, id := r.startHeldRead(t)
	if ack := sendRecv(t, r.tr, 0, &wire.SyncWrite{File: 1, Offset: fullK * fakeBS, Data: newB}).(*wire.SyncWriteAck); ack.Status != wire.StatusOK {
		t.Fatalf("sync-write: status %v", ack.Status)
	}
	close(r.releaseFlush)
	waitfor.Until(t, 5*time.Second, func() bool { return r.mod.buf.DirtyCount() == 0 }, "held flushes acknowledged")
	close(r.releaseFetch)
	if status, err := finishRead(rd, id); err != nil || status != wire.StatusOK {
		t.Fatalf("overtaken read: status %v, err %v", status, err)
	}
	if got := readAt(t, r.tr, 0, 1, fullK*fakeBS, fakeBS); !bytes.Equal(got, newB) {
		t.Fatalf("read after the acknowledged sync-write returned %#x..., want %#x", got[0], newB[0])
	}
}

// TestSyncWriteIntoGapOvertakesFetch: a sync-write into a resident
// partial block, in a range that does not touch the block's valid bytes,
// cannot merge and skips the cache. The block's demand fetch, in flight
// across the write, must not leave the gap — the range just written
// included — filled from its pre-write image after the ack: whether the
// partial copy is clean (left by an earlier sync-write) or dirty (a
// buffered write), and whether the fetch lands after the ack or, holding
// the image the iod served before the write, between the iod's write and
// the ack.
func TestSyncWriteIntoGapOvertakesFetch(t *testing.T) {
	const file, half = 86, fakeBS / 2
	head := bytes.Repeat([]byte{0x5A}, 100)
	for _, tc := range []struct {
		name       string
		head       wire.Message
		fetchFirst bool
	}{
		{"clean", &wire.SyncWrite{File: file, Offset: 0, Data: head}, false},
		{"dirty", &wire.Write{File: file, Offset: 0, Data: head}, false},
		{"dirty/fetch-lands-first", &wire.Write{File: file, Offset: 0, Data: head}, true},
	} {
		t.Run(tc.name, func(t *testing.T) {
			r := newFetchRig(t, false, nil)
			r.iods[0].image = bytes.Repeat([]byte{0x0D}, fakeBS)
			tr := r.mod.NewTransport()
			sendRecv(t, tr, 0, tc.head) // the block's first bytes: a partial copy
			fetchHeld, releaseFetch, releaseAck := make(chan struct{}), make(chan struct{}), make(chan struct{})
			var once sync.Once
			r.iods[0].script = func(req, honest wire.Message) wire.Message {
				switch req.(type) {
				case *wire.ReadBlocks:
					once.Do(func() { close(fetchHeld) })
					<-releaseFetch
				case *wire.SyncWrite:
					<-releaseAck // the iod holds the bytes; the ack waits
				}
				return honest
			}
			rd := r.mod.NewTransport()
			id, _, err := startRead(rd, 0, file, 0, fakeBS)
			if err != nil {
				t.Fatal(err)
			}
			<-fetchHeld
			tail := bytes.Repeat([]byte{0xE7}, half)
			sw, err := tr.Send(0, &wire.SyncWrite{File: file, Offset: half, Data: tail})
			if err != nil {
				t.Fatal(err)
			}
			if tc.fetchFirst {
				waitfor.Until(t, 5*time.Second, func() bool {
					return bytes.Equal(r.iods[0].read(half, half), tail)
				}, "the iod applied the sync-write")
				close(releaseFetch)
				if status, err := finishRead(rd, id); err != nil || status != wire.StatusOK {
					t.Fatalf("overtaken read: status %v, err %v", status, err)
				}
			}
			close(releaseAck)
			if ack, err := tr.Recv(sw); err != nil || ack.(*wire.SyncWriteAck).Status != wire.StatusOK {
				t.Fatalf("sync-write: %v, %v", ack, err)
			}
			if !tc.fetchFirst {
				close(releaseFetch)
				if status, err := finishRead(rd, id); err != nil || status != wire.StatusOK {
					t.Fatalf("overtaken read: status %v, err %v", status, err)
				}
			}
			if got := readAt(t, tr, 0, file, half, half); !bytes.Equal(got, tail) {
				t.Fatalf("read after the acknowledged sync-write returned %#x..., want %#x", got[0], tail[0])
			}
		})
	}
}

// TestRefusedSyncWriteLeavesNoCopy: a sync-write the iod refuses with an
// error status was never applied there, so the bytes the send wrote into
// the cache must not outlive the reply: the read after it returns what
// the iod holds.
func TestRefusedSyncWriteLeavesNoCopy(t *testing.T) {
	const file = 88
	oldB, newB := bytes.Repeat([]byte{0x0D}, fakeBS), bytes.Repeat([]byte{0xE7}, fakeBS)
	r := newFetchRig(t, false, nil)
	r.iods[0].image = append([]byte(nil), oldB...)
	r.iods[0].script = func(req, honest wire.Message) wire.Message {
		if _, ok := req.(*wire.SyncWrite); ok {
			r.iods[0].write(0, oldB) // undo the fake's write: the iod refused it
			return &wire.SyncWriteAck{Status: wire.StatusIOError}
		}
		return honest
	}
	tr := r.mod.NewTransport()
	if ack := sendRecv(t, tr, 0, &wire.SyncWrite{File: file, Offset: 0, Data: newB}).(*wire.SyncWriteAck); ack.Status != wire.StatusIOError {
		t.Fatalf("sync-write: status %v, want %v", ack.Status, wire.StatusIOError)
	}
	if got := readAt(t, tr, 0, file, 0, fakeBS); !bytes.Equal(got, oldB) {
		t.Fatalf("read after the refused sync-write returned %#x..., want the iod's %#x", got[0], oldB[0])
	}
}

// TestSyncWriteWaitsForInFlightFlush: a sync-write of a block whose flush
// is in flight must not reach the iod before that flush does. The fake
// iod holds the Flush until the sync-write is acknowledged (or, when the
// module rightly holds the sync-write back, until the test gives up
// waiting for it) and only then applies the Flush's bytes. After both
// acknowledgments the iod must hold the sync-write's bytes, not the
// flush's older ones.
func TestSyncWriteWaitsForInFlightFlush(t *testing.T) { syncWriteBehindHeldFlush(t, false) }

// TestSyncWriteWaitsForFlushOfInvalidatedBlock is the same race with a
// foreign invalidation of the block while its flush is held: dropping the
// block must not drop the record of its flush, or the sync-write finds no
// frame, skips its wait and lands ahead of the older bytes.
func TestSyncWriteWaitsForFlushOfInvalidatedBlock(t *testing.T) { syncWriteBehindHeldFlush(t, true) }

// syncWriteBehindHeldFlush runs a sync-write while the block's flush is
// held at the iod, first invalidating the block when invalidate is set.
func syncWriteBehindHeldFlush(t *testing.T, invalidate bool) {
	const file = 87
	r := newFetchRig(t, false, nil)
	flushHeld, releaseFlush, flushDone := make(chan struct{}), make(chan struct{}), make(chan struct{})
	var once sync.Once
	r.iods[0].script = func(req, honest wire.Message) wire.Message {
		fl, ok := req.(*wire.Flush)
		first := false
		if ok {
			once.Do(func() { first = true })
		}
		if first {
			close(flushHeld)
			<-releaseFlush
			for _, blk := range fl.Blocks { // the flush lands now
				r.iods[0].write(blk.Index*fakeBS+int64(blk.Off), blk.Data)
			}
			close(flushDone)
		}
		return honest
	}
	tr := r.mod.NewTransport()
	sendRecv(t, tr, 0, &wire.Write{File: file, Offset: 0, Data: bytes.Repeat([]byte{0x0D}, fakeBS)})
	r.mod.kickAllStreams()
	<-flushHeld
	if invalidate {
		r.mod.handleInvalidate(&wire.Invalidate{File: file, Indices: []int64{0}})
	}
	newB := bytes.Repeat([]byte{0xE7}, fakeBS)
	acked := make(chan wire.Message, 1)
	go func() {
		id, err := tr.Send(0, &wire.SyncWrite{File: file, Offset: 0, Data: newB})
		if err != nil {
			acked <- nil
			return
		}
		resp, _ := tr.Recv(id)
		acked <- resp
	}()
	var ack wire.Message
	select {
	case ack = <-acked:
	case <-time.After(200 * time.Millisecond):
	}
	close(releaseFlush)
	if ack == nil {
		ack = <-acked
	}
	if a, ok := ack.(*wire.SyncWriteAck); !ok || a.Status != wire.StatusOK {
		t.Fatalf("sync-write reply %v", ack)
	}
	<-flushDone
	if got := r.iods[0].read(0, fakeBS); !bytes.Equal(got, newB) {
		t.Fatalf("after both acks the iod holds %#x..., want the sync-write's %#x", got[0], newB[0])
	}
}

// TestBlockReadRejectsMisshapenReply: the synchronous one-block read asks
// for one extent of one block. A reply with more extents, or a longer one,
// is refused before a byte of it reaches the cache.
func TestBlockReadRejectsMisshapenReply(t *testing.T) {
	key := blockio.BlockKey{File: 84, Index: 0}
	for _, lens := range [][]uint32{{fakeBS, fakeBS}, {fakeBS + 1}} {
		r := newFetchRig(t, false, nil)
		r.iods[0].script = func(req, honest wire.Message) wire.Message {
			var total uint32
			for _, l := range lens {
				total += l
			}
			return &wire.ReadBlocksResp{Status: wire.StatusOK, Lens: lens, Data: make([]byte, total)}
		}
		if err := r.mod.fetchBlockSpan(0, key, 0, make([]byte, fakeBS), pvfs.CacheDefault); err == nil {
			t.Fatalf("lens %v: misshapen block read accepted", lens)
		}
		if r.mod.buf.Contains(key, 0, 1) {
			t.Fatalf("lens %v: misshapen block read installed", lens)
		}
	}
}

// TestSyncFallbackIgnoresOwnLaterClaim: process T's first read joins A's
// fetch of a block; A goes away and settles it empty; T's second read,
// sent before the first is received, claims the block anew. Receiving the
// first read falls back to a synchronous fetch, which must not wait on the
// table: the claim there is T's own and lands only when T receives the
// second read.
func TestSyncFallbackIgnoresOwnLaterClaim(t *testing.T) {
	const file = 83
	r := newFetchRig(t, false, nil)
	want := pattern(1)
	r.iods[0].write(0, want)
	a, tr := r.mod.NewTransport(), r.mod.NewTransport()
	if _, _, err := startRead(a, 0, file, 0, fakeBS); err != nil { // A claims
		t.Fatal(err)
	}
	id0, buf0, err := startRead(tr, 0, file, 0, fakeBS) // T joins A
	if err != nil {
		t.Fatal(err)
	}
	first := r.claims(t)
	a.Close()                                           // A's claim settles with nothing published
	id1, buf1, err := startRead(tr, 0, file, 0, fakeBS) // T claims anew
	if err != nil {
		t.Fatal(err)
	}
	second := r.claims(t)
	done := make(chan error, 1)
	go func() {
		for i, id := range []pvfs.ReqID{id0, id1} {
			status, err := finishRead(tr, id)
			if err == nil && (status != wire.StatusOK || !bytes.Equal([][]byte{buf0, buf1}[i], want)) {
				err = errors.New("wrong bytes")
			}
			if err != nil {
				done <- err
				return
			}
		}
		done <- nil
	}()
	select {
	case err := <-done:
		if err != nil {
			t.Fatal(err)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("receiving the joined read waits on the caller's own later claim")
	}
	if got := r.reg.Counter("module.sync_fetches").Value(); got != 1 {
		t.Fatalf("sync_fetches = %d, want 1", got)
	}
	r.checkSettled(t, first, 0)
	r.checkSettled(t, second, 0)
}

// TestCacheNoneJoinFallbackReadsAround: a don't-cache read that joins a
// fetch the owner leaves empty falls back to a synchronous fetch of its
// own, and that fetch reads around like the request: the bytes are served,
// the block is not admitted.
func TestCacheNoneJoinFallbackReadsAround(t *testing.T) {
	const file = 85
	r := newFetchRig(t, false, nil)
	want := pattern(1)
	r.iods[0].write(0, want)
	release := make(chan struct{})
	var first atomic.Bool
	r.iods[0].script = func(req, honest wire.Message) wire.Message {
		if _, ok := req.(*wire.ReadBlocks); ok && first.CompareAndSwap(false, true) {
			<-release // the prefetch: answered empty once the demand read joined
			return &wire.ReadBlocksResp{Status: wire.StatusOK, Lens: []uint32{0}}
		}
		return honest
	}
	tr := r.mod.NewTransport()
	tr.CachePolicyHint(file, pvfs.CacheNone)
	hint := stripeHint{meta: wire.FileMeta{Size: 1 << 20, PCount: 1, SSize: 1 << 20}, total: 2}
	r.mod.prefetchRange(file, hint, []int64{0}, pvfs.CacheNone)
	id, buf, err := startRead(tr, 0, file, 0, fakeBS)
	if err != nil {
		t.Fatal(err)
	}
	if got := r.reg.Counter("module.read_vector_fetches").Value(); got != 0 {
		t.Fatalf("read_vector_fetches = %d, want 0: the demand read must join the prefetch", got)
	}
	close(release)
	status, err := finishRead(tr, id)
	if err != nil || status != wire.StatusOK || !bytes.Equal(buf, want) {
		t.Fatalf("joined read: status %v, err %v, right bytes %v", status, err, bytes.Equal(buf, want))
	}
	if got := r.reg.Counter("module.sync_fetches").Value(); got != 1 {
		t.Fatalf("sync_fetches = %d, want 1", got)
	}
	if r.mod.buf.Contains(blockio.BlockKey{File: file, Index: 0}, 0, 1) {
		t.Fatal("the don't-cache join fallback admitted its block")
	}
}

// settleOne is an owner's exit from a single claim, as land or abandon
// takes it.
func (r *fetchRig) settleOne(key blockio.BlockKey, st *fetchState, err error) {
	r.mod.settle([]fetchRun{{firstIdx: key.Index, spans: []tgtSpan{{sp: blockio.Span{Key: key}, st: st}}}}, err)
}

// TestRecycledStateStartsClean: fetch states are pooled, so a new claim
// often gets the state its block's previous claim used. Whatever that
// claim set — a published image, its slab, its stamps, a failure — must
// not reach the new one: a leftover image would read as published to
// settle (which then never opens the gate) and would serve a joiner the
// old bytes.
func TestRecycledStateStartsClean(t *testing.T) {
	r := newFetchRig(t, false, nil)
	key := blockio.BlockKey{File: 91, Index: 0}
	var prev *fetchState
	reused := 0
	for i := 0; i < 200; i++ {
		st, owner := r.mod.claim(key, false)
		if !owner {
			t.Fatalf("claim %d joined a settled fetch", i)
		}
		if st == prev {
			reused++
		}
		if st.data != nil || st.err != nil || st.mem != nil || st.finalStamp != 0 ||
			st.stamp != r.mod.buf.WriteStamp(key) || st.refs.Load() != 1 {
			t.Fatalf("claim %d starts with a previous claim's state: data %d bytes, err %v, mem %v, stamp %d, final %d, refs %d",
				i, len(st.data), st.err, st.mem != nil, st.stamp, st.finalStamp, st.refs.Load())
		}
		if i%2 == 0 {
			img, mem := r.mod.slabs.lease(fakeBS)
			r.mod.publish(st, key, img, mem, 77)
			mem.release() // the creator's hold
			r.settleOne(key, st, nil)
		} else {
			st.stamp = 99
			r.settleOne(key, st, errors.New("fetch failed"))
		}
		prev = st
	}
	if reused == 0 {
		t.Fatal("no claim re-used a recycled state: the test checked nothing")
	}
}

// TestAwaitFetchHoldsItsState: a read-modify-write waits out an in-flight
// fetch through awaitFetch while the block is claimed and settled over and
// over. awaitFetch holds a reference for its wait, so the state it waits
// on cannot be recycled for the next claim mid-wait; without it the next
// claim re-arms a gate that a waiter is still inside (the race detector
// and sync.WaitGroup's reuse check both report it).
func TestAwaitFetchHoldsItsState(t *testing.T) {
	r := newFetchRig(t, false, nil)
	key := blockio.BlockKey{File: 92, Index: 0}
	stop := make(chan struct{})
	var waiters sync.WaitGroup
	for i := 0; i < 4; i++ {
		waiters.Add(1)
		go func() {
			defer waiters.Done()
			for {
				select {
				case <-stop:
					return
				default:
					r.mod.awaitFetch(key)
				}
			}
		}()
	}
	for i := 0; i < 2000; i++ {
		st, owner := r.mod.claim(key, false)
		if !owner {
			t.Fatalf("claim %d joined a settled fetch", i)
		}
		r.settleOne(key, st, nil)
	}
	close(stop)
	done := make(chan struct{})
	go func() { waiters.Wait(); close(done) }()
	select {
	case <-done:
	case <-time.After(5 * time.Second):
		t.Fatal("an awaitFetch never returned")
	}
}
