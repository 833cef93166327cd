package cachemod

// The module-level half of the concurrency test wall (CI runs it under
// -race): concurrent readers, writers, the module's own flusher and
// harvester threads, readahead claims and coherence invalidations all
// storm one sharded cache module. Afterwards the frame-accounting
// invariants must hold — free + resident == capacity, the buffer
// manager's structural consistency check passes — and, because dirty
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
	// run on prefetch goroutines) while invalidations yank its blocks.
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

	wg.Wait()
	if t.Failed() {
		return
	}
	if err := mod.FlushAll(); err != nil {
		t.Fatal(err)
	}

	// Frame accounting after the storm.
	st := mod.Buffer().Stats()
	if st.Free+st.Resident != stormCapacity {
		t.Fatalf("frames leaked: free=%d resident=%d capacity=%d", st.Free, st.Resident, stormCapacity)
	}
	if err := mod.Buffer().CheckConsistency(); err != nil {
		t.Fatal(err)
	}

	// No dirty block was evicted: after FlushAll every writer block's last
	// acknowledged generation must be durable at its iod. (If cache
	// pressure ever forced a write through, ordering against an in-flight
	// flush of an older generation is not defined — skip the byte oracle
	// rather than flake; the storm is sized so this does not happen.)
	snap := r.reg.Snapshot()
	if wt := snap.Counters["module.write_through"]; wt > 0 {
		t.Logf("skipping durability oracle: %d writes fell back to write-through", wt)
		return
	}
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
