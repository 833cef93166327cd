package cachemod

import (
	"bytes"
	"testing"

	"pvfscache/internal/blockio"
	"pvfscache/internal/pvfs"
	"pvfscache/internal/wire"
)

// TestFileTableBound: the module's one per-file table stays within
// maxHintedFiles however many files are announced, and what it sheds first
// is what costs least to lose. Announcing more plain files than the table
// holds drops plain records (geometry and detector: re-learned on the next
// StripeHint and a few reads), while an earlier file's don't-cache policy
// and tenant tag survive.
func TestFileTableBound(t *testing.T) {
	r := newRig(t, func(c *Config) { c.TenantFetchBudget = 8 })
	const hinted, plain, tenant = 7, 100, 3
	data := bytes.Repeat([]byte{0x71}, 16*4096)
	r.seed(0, hinted, 0, data)
	r.seed(0, plain, 0, data)

	tr := r.mod.NewTransport()
	hintAll(tr, hinted)
	tr.CachePolicyHint(hinted, pvfs.CacheNone)
	tr.TenantHint(hinted, tenant, 1)
	for id := blockio.FileID(plain); id < plain+maxHintedFiles+10; id++ {
		hintAll(tr, id)
		r.mod.filesMu.RLock()
		n := len(r.mod.files)
		r.mod.filesMu.RUnlock()
		if n > maxHintedFiles {
			t.Fatalf("file table holds %d records after announcing file %d, bound %d", n, id, maxHintedFiles)
		}
	}

	// The hinted file is still charged to its tenant and still reads around
	// the cache.
	id, buf, err := startRead(tr, 0, hinted, 0, 2*4096)
	if err != nil {
		t.Fatal(err)
	}
	if got := r.mod.TenantInflight(tenant); got != 2 {
		t.Fatalf("tenant inflight = %d with a 2-block read in flight, want 2: the tag was lost", got)
	}
	if status, err := finishRead(tr, id); err != nil || status != wire.StatusOK || !bytes.Equal(buf, data[:2*4096]) {
		t.Fatalf("hinted read: status %v, err %v", status, err)
	}
	if r.mod.buf.Contains(blockio.BlockKey{File: hinted, Index: 0}, 0, 4096) {
		t.Fatal("don't-cache block became resident: the policy was lost")
	}

	// The first plain file was dropped; it reads with every default, and its
	// next StripeHint is all it takes to be prefetched again.
	if r.mod.file(plain) != nil {
		t.Fatalf("plain file %d kept its record through %d later announcements", plain, maxHintedFiles+9)
	}
	readSeq(t, tr, plain, 0, 4096)
	hintAll(tr, plain)
	for i := int64(1); i <= raMinStreak; i++ {
		readSeq(t, tr, plain, i*4096, 4096)
	}
	waitCounter(t, r.reg, "module.prefetch_issued", 1)
}
