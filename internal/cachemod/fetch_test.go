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

// fakeIOD is a scripted iod: one rpc.Server (data and flush port alike)
// over a single in-memory image every file reads from. script, when set,
// sees each request with the honest reply and returns what goes on the
// wire instead; a nil reply drops the connection (an rpc error).
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

// scriptNet lets a test stop the module at its first Dial — after every
// claim of the operation under test is registered and before any of them
// can land or settle — and fail one chosen dial.
type scriptNet struct {
	transport.Network
	hold    chan struct{} // non-nil: every Dial waits for it to close
	reached chan struct{} // closed when the first Dial arrives

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
	n.once.Do(func() { close(n.reached) })
	if n.hold != nil {
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
	if hold {
		r.net.hold = make(chan struct{})
	}
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
		IODFlushAddrs:     r.addrs[:],
		Buffer:            buffer.Config{BlockSize: fakeBS, Capacity: 64},
		FlushPeriod:       time.Hour,
		DisableCoherence:  true,
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
	return r
}

// claims snapshots the fetch table.
func (r *fetchRig) claims() map[blockio.BlockKey]*fetchState {
	r.mod.fetchMu.Lock()
	defer r.mod.fetchMu.Unlock()
	out := make(map[blockio.BlockKey]*fetchState, len(r.mod.fetches))
	for k, st := range r.mod.fetches {
		out[k] = st
	}
	return out
}

// checkSettled asserts the protocol's exit invariants for every snapshotted
// state: done closed, no holder left on the state or its slab, nothing in
// the table, and the tenant's in-flight budget returned.
func (r *fetchRig) checkSettled(t *testing.T, states map[blockio.BlockKey]*fetchState, tenant uint32) {
	t.Helper()
	waitfor.Until(t, 5*time.Second, func() bool {
		for _, st := range states {
			select {
			case <-st.done:
			default:
				return false
			}
			if st.refs.Load() != 0 || (st.mem != nil && st.mem.refs.Load() != 0) {
				return false
			}
		}
		return len(r.claims()) == 0
	}, "every claim settled: done closed, refs drained, table empty")
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
					r.mod.prefetchRange(file, hint, idxs, admitDefault)
					close(sendDone)
				}
				<-r.net.reached
				states := r.claims()
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

// staleRig is a rig whose iod 0, on the first ReadBlocks for block 0,
// captures the old bytes, then — before replying with them — writes the
// block through the module, flushes it, and evicts it: the whole PR 10
// race inside one fetch's flight, deterministically.
func staleRig(t *testing.T, file blockio.FileID, oldB, newB []byte) *fetchRig {
	r := newFetchRig(t, false, func(c *Config) { c.Buffer.Capacity = 8 })
	key := blockio.BlockKey{File: file, Index: 0}
	r.iods[0].image = append([]byte(nil), oldB...)
	var raced atomic.Bool
	r.iods[0].script = func(req, honest wire.Message) wire.Message {
		if _, ok := req.(*wire.ReadBlocks); !ok || raced.Swap(true) {
			return honest
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

// TestStaleFetchDemandRetries: a demand fetch whose block is written,
// flushed and evicted while the fetch is in flight must not serve or
// install the pre-write image; it re-reads once against a fresh stamp.
func TestStaleFetchDemandRetries(t *testing.T) {
	const file = 81
	oldB, newB := bytes.Repeat([]byte{0x0D}, fakeBS), bytes.Repeat([]byte{0xE7}, fakeBS)
	r := staleRig(t, file, oldB, newB)
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
}

// TestStaleFetchPrefetchDrops: the same race against a prefetch. The
// speculative image is dropped, not re-read and not installed.
func TestStaleFetchPrefetchDrops(t *testing.T) {
	const file = 82
	oldB, newB := bytes.Repeat([]byte{0x0D}, fakeBS), bytes.Repeat([]byte{0xE7}, fakeBS)
	r := staleRig(t, file, oldB, newB)
	hint := stripeHint{meta: wire.FileMeta{Size: 1 << 20, PCount: 1, SSize: 1 << 20}, total: 2}
	r.mod.prefetchRange(file, hint, []int64{0}, admitDefault)
	waitCounter(t, r.reg, "module.prefetch_stale_drops", 1)
	waitfor.Until(t, 5*time.Second, func() bool { return len(r.claims()) == 0 }, "prefetch claim settled")
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
		if err := r.mod.fetchBlockSpan(0, key, 0, make([]byte, fakeBS), false); err == nil {
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
	first := r.claims()
	a.Close()                                           // A's claim settles with nothing published
	id1, buf1, err := startRead(tr, 0, file, 0, fakeBS) // T claims anew
	if err != nil {
		t.Fatal(err)
	}
	second := r.claims()
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
