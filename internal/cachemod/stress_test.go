package cachemod

// The module-level half of the concurrency test wall (CI runs it under
// -race): concurrent readers, writers, the module's own flusher and
// harvester threads, readahead claims and coherence invalidations all
// storm one sharded cache module. Afterwards the frame-accounting
// invariants must hold — free + resident == capacity, the buffer
// manager's structural consistency check passes, no frame keeps a flush
// token once the last ack lands — and, because dirty
// blocks are never evictable, every writer's last generation must be
// durable at the iod once FlushAll returns.

import (
	"bytes"
	"fmt"
	"math/rand"
	"sync"
	"testing"
	"time"

	"pvfscache/internal/blockio"
	"pvfscache/internal/cachemod/buffer"
	"pvfscache/internal/chaos/waitfor"
	"pvfscache/internal/testseed"
	"pvfscache/internal/wire"
)

const (
	stormBS         = 4096
	stormCapacity   = 64  // blocks: far below the combined working set
	stormScanBlocks = 128 // scan file length in blocks
	stormWriterBlks = 32  // blocks owned by each writer
)

// stormPattern is the uniform fill byte for one generation of one block;
// uniform fills make torn reads detectable from the data alone.
func stormPattern(file blockio.FileID, blk int, gen int) byte {
	return byte(int(file)*37 + blk*11 + gen*101)
}

func TestModuleConcurrencyStorm(t *testing.T) {
	seed := testseed.Base(t)
	r := newRig(t, func(c *Config) {
		c.Buffer = buffer.Config{BlockSize: stormBS, Capacity: stormCapacity, Shards: 8}
		c.FlushPeriod = 2 * time.Millisecond // flusher + harvester churn constantly
		c.ReadaheadWindow = 8
	})
	mod := r.mod

	// The scan file (file 3) stripes block-round-robin over the two iods:
	// block idx lives on iod idx%2, matching the stripe hint below, so
	// both demand reads and prefetches route to the daemon holding the
	// data.
	scanFile := blockio.FileID(3)
	for blk := 0; blk < stormScanBlocks; blk++ {
		pat := bytes.Repeat([]byte{stormPattern(scanFile, blk, 0)}, stormBS)
		r.seed(blk%2, scanFile, int64(blk)*stormBS, pat)
	}
	mod.NewTransport().StripeHint(scanFile, wire.FileMeta{
		Size:   stormScanBlocks * stormBS,
		Base:   0,
		PCount: 2,
		SSize:  stormBS,
	}, 2)

	var wg sync.WaitGroup
	fail := func(format string, args ...any) {
		t.Error(fmt.Errorf(format, args...))
	}

	// Two writers, each owning a disjoint block range of its own file, so
	// the last generation written per block is well defined.
	lastGen := make([][]int, 2)
	for w := 0; w < 2; w++ {
		lastGen[w] = make([]int, stormWriterBlks)
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			file := blockio.FileID(w + 1)
			iodIdx := w % 2
			tr := mod.NewTransport()
			rng := rand.New(rand.NewSource(seed + int64(w)))
			for gen := 1; gen <= 400; gen++ {
				blk := rng.Intn(stormWriterBlks)
				data := bytes.Repeat([]byte{stormPattern(file, blk, gen)}, stormBS)
				id, err := tr.Send(iodIdx, &wire.Write{File: file, Offset: int64(blk) * stormBS, Data: data})
				if err != nil {
					fail("writer %d: %v", w, err)
					return
				}
				resp, err := tr.Recv(id)
				if err != nil {
					fail("writer %d: %v", w, err)
					return
				}
				if ack, ok := resp.(*wire.WriteAck); !ok || ack.Status != wire.StatusOK {
					fail("writer %d: ack %v", w, resp)
					return
				}
				lastGen[w][blk] = gen
			}
		}(w)
	}

	// Four readers over the writers' files: any single block they see must
	// be untorn (one uniform generation fill, or zero if never written).
	for g := 0; g < 4; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			tr := mod.NewTransport()
			rng := rand.New(rand.NewSource(seed + int64(100+g)))
			for i := 0; i < 400; i++ {
				w := rng.Intn(2)
				file := blockio.FileID(w + 1)
				blk := rng.Intn(stormWriterBlks)
				nblocks := 1 + rng.Intn(2)
				length := int64(nblocks) * stormBS
				got, status, err := readOnce(tr, w%2, file, int64(blk)*stormBS, length)
				if err != nil || status != wire.StatusOK {
					fail("reader %d: status %v, err %v", g, status, err)
					return
				}
				for b := 0; b < nblocks; b++ {
					blockBytes := got[b*stormBS : (b+1)*stormBS]
					for _, v := range blockBytes {
						if v != blockBytes[0] {
							fail("reader %d: torn block %d of file %d", g, blk+b, file)
							return
						}
					}
				}
			}
		}(g)
	}

	// A scanner walking the striped file engages the readahead prefetcher
	// (claims land in the shared fetch table on this goroutine, transfers
	// run on prefetch workers) while invalidations yank its blocks.
	wg.Add(1)
	go func() {
		defer wg.Done()
		tr := mod.NewTransport()
		for pass := 0; pass < 3; pass++ {
			for blk := 0; blk < stormScanBlocks; blk++ {
				off := int64(blk) * stormBS
				tr.NoteRead(scanFile, off, stormBS) // the libpvfs-level hint stream
				got, status, err := readOnce(tr, blk%2, scanFile, off, stormBS)
				if err != nil || status != wire.StatusOK {
					fail("scanner: status %v, err %v", status, err)
					return
				}
				want := stormPattern(scanFile, blk, 0)
				for _, v := range got {
					if v != want {
						fail("scanner: block %d read %#x, want %#x", blk, v, want)
						return
					}
				}
			}
		}
	}()

	// An invalidator fires coherence invalidations at the scan file — the
	// path an iod takes when a foreign client sync-writes. Only clean
	// blocks are targeted (the writers' files stay untouched), so no
	// acknowledged write-behind data is ever discarded.
	wg.Add(1)
	go func() {
		defer wg.Done()
		rng := rand.New(rand.NewSource(seed + 9))
		for i := 0; i < 500; i++ {
			blk := int64(rng.Intn(stormScanBlocks))
			mod.handleInvalidate(&wire.Invalidate{File: scanFile, Indices: []int64{blk}})
		}
	}()

	// A third file takes coherence invalidations while its blocks flush:
	// the path a foreign sync-write takes, which drops a block whose flush
	// is in flight (last writer wins, so the oracle skips this file). Its
	// writer and invalidator run until one such drop has happened.
	contended := blockio.FileID(4)
	inflightDrops := r.reg.Counter("cache.invalidated_in_flight")
	stopContended := make(chan struct{})
	wg.Add(2)
	go func() {
		defer wg.Done()
		tr := mod.NewTransport()
		data := bytes.Repeat([]byte{0xC4}, stormBS)
		for blk := 0; ; blk = (blk + 1) % stormWriterBlks {
			select {
			case <-stopContended:
				return
			default:
			}
			id, err := tr.Send(0, &wire.Write{File: contended, Offset: int64(blk) * stormBS, Data: data})
			if err == nil {
				_, err = tr.Recv(id)
			}
			if err != nil {
				fail("contended writer: %v", err)
				return
			}
		}
	}()
	go func() {
		defer wg.Done()
		defer close(stopContended)
		rng := rand.New(rand.NewSource(seed + 10))
		for deadline := time.Now().Add(10 * time.Second); inflightDrops.Value() == 0 && time.Now().Before(deadline); {
			mod.handleInvalidate(&wire.Invalidate{File: contended, Indices: []int64{int64(rng.Intn(stormWriterBlks))}})
		}
	}()

	wg.Wait()
	if t.Failed() {
		return
	}
	if inflightDrops.Value() == 0 {
		t.Fatal("no invalidation hit a block in flight: the storm never dropped one mid-flush")
	}
	if err := mod.FlushAll(); err != nil {
		t.Fatal(err)
	}
	// Once the last acks land no frame may carry a token: a leaked one
	// keeps its frame unevictable for good. A token at or behind the
	// key's stamp makes FlushPending true for the stamp after it.
	waitfor.Until(t, 10*time.Second, func() bool {
		for _, f := range []struct {
			file   blockio.FileID
			blocks int
		}{{1, stormWriterBlks}, {2, stormWriterBlks}, {scanFile, stormScanBlocks}, {contended, stormWriterBlks}} {
			for blk := 0; blk < f.blocks; blk++ {
				k := blockio.BlockKey{File: f.file, Index: int64(blk)}
				if mod.buf.FlushPending(k, mod.buf.WriteStamp(k)+1) {
					return false
				}
			}
		}
		return true
	}, "every in-flight token released after the drain")

	// Frame accounting after the storm.
	st := mod.Buffer().Stats()
	if st.Free+st.Resident != stormCapacity {
		t.Fatalf("frames leaked: free=%d resident=%d capacity=%d", st.Free, st.Resident, stormCapacity)
	}
	if err := mod.Buffer().CheckConsistency(); err != nil {
		t.Fatal(err)
	}

	// No dirty block was evicted: after FlushAll every writer block's last
	// acknowledged generation must be durable at its iod. Every write went
	// through the cache, so the oracle always runs.
	for w := 0; w < 2; w++ {
		file := blockio.FileID(w + 1)
		got := make([]byte, stormBS)
		for blk := 0; blk < stormWriterBlks; blk++ {
			gen := lastGen[w][blk]
			if gen == 0 {
				continue
			}
			want := stormPattern(file, blk, gen)
			if n, _ := r.iods[w%2].Store().ReadAt(file, int64(blk)*stormBS, got); n != stormBS {
				t.Fatalf("file %d block %d: short store read %d", file, blk, n)
			}
			for _, v := range got {
				if v != want {
					t.Fatalf("file %d block %d: stored %#x, want gen %d (%#x) — dirty data lost",
						file, blk, v, gen, want)
				}
			}
		}
	}
}
