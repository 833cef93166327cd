package cluster

import (
	"fmt"
	"sync"
	"testing"
	"time"

	"pvfscache/internal/cachemod"
	"pvfscache/internal/pvfs"
	"pvfscache/internal/rpc"
	"pvfscache/internal/wire"
)

// The zero-copy data path introduces exactly one new failure mode:
// aliasing-after-release. A payload alias (a decoded message's Data, a
// pooled miss slab, a prefetch block, a leased response frame) that
// outlives its lease gets overwritten by the buffer's next tenant, and a
// served read — or worse, an installed cache frame — silently carries
// another request's bytes. These storms run the full stack with
// poison-on-release enabled (every released buffer is stamped with
// wire.PoisonByte) under -race, and verify every served byte against a
// position-derived pattern: a recycled-buffer alias surfaces as poison or
// a cross-request byte, either of which fails the equality check, and the
// race detector flags the concurrent reuse itself.

// patternAt is the expected byte at file offset off: position-derived, so
// verification needs no reference copy and any shifted/stale/poisoned
// byte is detected, not just "some valid-looking data".
func patternAt(off int64) byte {
	b := byte(off>>13) ^ byte(off>>5) ^ byte(off)
	if b == wire.PoisonByte {
		b ^= 0x55 // never legitimately equal to the poison stamp
	}
	return b
}

func fillPattern(p []byte, off int64) {
	for i := range p {
		p[i] = patternAt(off + int64(i))
	}
}

func checkPattern(p []byte, off int64) error {
	for i := range p {
		if want := patternAt(off + int64(i)); p[i] != want {
			poisoned := ""
			if p[i] == wire.PoisonByte {
				poisoned = " (poison: alias outlived its lease)"
			}
			return fmt.Errorf("byte at offset %d = %#x, want %#x%s", off+int64(i), p[i], want, poisoned)
		}
	}
	return nil
}

// runLeaseStorm drives readers, re-writers and scanners from several
// processes per node over a cache far smaller than the working set, so
// every layer of the zero-copy path cycles its pools under contention:
// vectored miss slabs, fetch joins, readahead blocks, iod response
// buffers, flusher batches — and with two nodes and the global cache
// enabled, the peer get/put path too.
func runLeaseStorm(t *testing.T, cfg Config) {
	t.Helper()
	rpc.SetLeasePoison(true)
	t.Cleanup(func() { rpc.SetLeasePoison(false) })

	c := startTest(t, cfg)
	const (
		fileBytes = 2 << 20
		stripe    = 4096 // single-block strips: reads vector across iods
	)
	seed, err := c.NewProcess(0)
	if err != nil {
		t.Fatal(err)
	}
	f, err := seed.Create("lease.dat", pvfs.StripeSpec{PCount: uint32(len(c.IODs)), SSize: stripe})
	if err != nil {
		t.Fatal(err)
	}
	img := make([]byte, fileBytes)
	fillPattern(img, 0)
	if _, err := f.WriteAt(img, 0); err != nil {
		t.Fatal(err)
	}
	if err := c.FlushAll(); err != nil {
		t.Fatal(err)
	}
	seed.Close()

	deadline := time.Now().Add(2 * time.Second)
	var wg sync.WaitGroup
	errs := make(chan error, 64)
	fail := func(err error) {
		select {
		case errs <- err:
		default:
		}
	}
	for node := 0; node < cfg.ClientNodes; node++ {
		// Random-offset readers: demand misses, hits, and fetch joins.
		for w := 0; w < 3; w++ {
			wg.Add(1)
			go func(node, w int) {
				defer wg.Done()
				p, err := c.NewProcess(node)
				if err != nil {
					fail(err)
					return
				}
				defer p.Close()
				fh, err := p.Open("lease.dat")
				if err != nil {
					fail(err)
					return
				}
				rng := uint64(node*31 + w*7 + 1)
				buf := make([]byte, 24<<10)
				for time.Now().Before(deadline) {
					rng = rng*6364136223846793005 + 1442695040888963407
					off := int64(rng % (fileBytes - uint64(len(buf))))
					n, err := fh.ReadAt(buf, off)
					if err != nil {
						fail(fmt.Errorf("node %d reader %d: %v", node, w, err))
						return
					}
					if err := checkPattern(buf[:n], off); err != nil {
						fail(fmt.Errorf("node %d reader %d: %v", node, w, err))
						return
					}
				}
			}(node, w)
		}
		// A sequential scanner to engage the readahead prefetcher.
		wg.Add(1)
		go func(node int) {
			defer wg.Done()
			p, err := c.NewProcess(node)
			if err != nil {
				fail(err)
				return
			}
			defer p.Close()
			fh, err := p.Open("lease.dat")
			if err != nil {
				fail(err)
				return
			}
			buf := make([]byte, 4096)
			off := int64(0)
			for time.Now().Before(deadline) {
				n, err := fh.ReadAt(buf, off)
				if err != nil {
					fail(fmt.Errorf("node %d scanner: %v", node, err))
					return
				}
				if err := checkPattern(buf[:n], off); err != nil {
					fail(fmt.Errorf("node %d scanner: %v", node, err))
					return
				}
				off += int64(n)
				if off >= fileBytes {
					off = 0
				}
			}
		}(node)
		// A re-writer: writes the same pattern back (idempotent, so
		// readers' expectations hold), keeping the dirty list, flusher
		// and write-behind merge paths hot.
		wg.Add(1)
		go func(node int) {
			defer wg.Done()
			p, err := c.NewProcess(node)
			if err != nil {
				fail(err)
				return
			}
			defer p.Close()
			fh, err := p.Open("lease.dat")
			if err != nil {
				fail(err)
				return
			}
			rng := uint64(node + 99)
			buf := make([]byte, 10<<10)
			for time.Now().Before(deadline) {
				rng = rng*6364136223846793005 + 1442695040888963407
				off := int64(rng % (fileBytes - uint64(len(buf))))
				fillPattern(buf, off)
				if _, err := fh.WriteAt(buf, off); err != nil {
					fail(fmt.Errorf("node %d writer: %v", node, err))
					return
				}
			}
		}(node)
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Error(err)
	}
	if t.Failed() {
		return
	}

	// Installed-frame oracle: after the storm, re-read the whole file
	// through warm caches on every node. Any cache frame installed from a
	// recycled buffer serves corrupt bytes here even if the storm's own
	// read missed it.
	for node := 0; node < cfg.ClientNodes; node++ {
		p, err := c.NewProcess(node)
		if err != nil {
			t.Fatal(err)
		}
		got := make([]byte, fileBytes)
		fh, err := p.Open("lease.dat")
		if err != nil {
			t.Fatal(err)
		}
		if _, err := fh.ReadAt(got, 0); err != nil {
			t.Fatal(err)
		}
		if err := checkPattern(got, 0); err != nil {
			t.Errorf("node %d post-storm image: %v", node, err)
		}
		p.Close()
	}
}

// TestLeaseLifetimesUnderPoison is the zero-copy lifetime wall: one node,
// many processes, cache 16x smaller than the file, readahead on.
func TestLeaseLifetimesUnderPoison(t *testing.T) {
	runLeaseStorm(t, Config{
		IODs:        4,
		ClientNodes: 1,
		Caching:     true,
		CacheBlocks: 32, // 128 KB vs a 2 MB working set: constant recycling
		Module:      cachemod.Config{ReadaheadWindow: 16},
	})
}

// TestLeaseLifetimesGlobalCachePoison adds a second node and the
// cooperative global cache, so peer get/put leases and push-pool buffers
// recycle under the same poison oracle.
func TestLeaseLifetimesGlobalCachePoison(t *testing.T) {
	runLeaseStorm(t, Config{
		IODs:        2,
		ClientNodes: 2,
		Caching:     true,
		CacheBlocks: 64,
		GlobalCache: true,
		Module:      cachemod.Config{ReadaheadWindow: 8},
	})
}
