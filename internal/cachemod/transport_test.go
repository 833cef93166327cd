package cachemod

import (
	"bytes"
	"testing"

	"pvfscache/internal/pvfs"
	"pvfscache/internal/wire"
)

// TestCloseWithRecycledAndPendingReads: Close on a transport that holds both
// kinds of pendingRead — one recycled on the free list, two pending between
// Send and Recv (one of them the recycled struct in its second life) — must
// leave the protocol's exit invariants intact: every claim settled, no
// reference or budget charge left, the pending table empty. The free list
// must pin nothing while it waits, and the transport keeps serving after
// Close.
func TestCloseWithRecycledAndPendingReads(t *testing.T) {
	const file, tenant = 90, 5
	r := newFetchRig(t, false, nil)
	image := pattern(16)
	gate := make(chan struct{})
	r.iods[0].image = image
	r.iods[0].script = func(req, honest wire.Message) wire.Message {
		if rb, ok := req.(*wire.ReadBlocks); ok && rb.Exts[0].Offset >= 4*fakeBS {
			<-gate // keeps the reads of blocks 4.. pending
		}
		return honest
	}
	tr, other := r.mod.NewTransport(), r.mod.NewTransport()
	tr.TenantHint(file, tenant, 1)
	read := func(tr *CachedTransport, blk, n int64) (pvfs.ReqID, []byte) {
		t.Helper()
		id, buf, err := startRead(tr, 0, file, blk*fakeBS, n*fakeBS)
		if err != nil {
			t.Fatal(err)
		}
		return id, buf
	}

	// A miss completes: its pendingRead is recycled, emptied.
	id, buf := read(tr, 0, 2)
	if _, err := tr.Recv(id); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(buf, image[:2*fakeBS]) {
		t.Fatal("first read wrong bytes")
	}
	if len(tr.free) != 1 {
		t.Fatalf("free list holds %d reads, want 1", len(tr.free))
	}
	recycled := tr.free[0]
	if recycled.qos != nil || len(recycled.owned)+len(recycled.fetches)+len(recycled.waits) != 0 {
		t.Fatalf("recycled read still carries state: %+v", recycled)
	}
	for _, o := range recycled.owned[:cap(recycled.owned)] {
		if o.dst != nil || o.st != nil {
			t.Fatal("recycled read pins a caller buffer or a fetchState")
		}
	}
	for _, f := range recycled.fetches[:cap(recycled.fetches)] {
		if f.ch != nil || f.runs != nil {
			t.Fatal("recycled read pins a fetch")
		}
	}

	// Two reads stay pending behind the gate; the first re-uses the
	// recycled struct. A second process joins one of them.
	id1, _ := read(tr, 4, 2)
	id2, _ := read(tr, 8, 2)
	if len(tr.free) != 0 || tr.pending[id1].read != recycled || tr.pending[id2].read == recycled {
		t.Fatal("pending reads did not take the recycled struct first")
	}
	jid, jbuf := read(other, 4, 2)
	states := r.claims()
	if len(states) != 4 {
		t.Fatalf("%d claims registered, want 4", len(states))
	}

	if err := tr.Close(); err != nil {
		t.Fatal(err)
	}
	if len(tr.pending) != 0 {
		t.Fatalf("%d ops pending after Close", len(tr.pending))
	}
	for _, id := range []pvfs.ReqID{id1, id2} {
		if _, err := tr.Recv(id); err == nil {
			t.Fatal("an abandoned read was still receivable")
		}
	}
	close(gate)
	// The joiner's owner left it nothing: it fetches for itself.
	if _, err := other.Recv(jid); err != nil {
		t.Fatalf("joiner read failed: %v", err)
	}
	if !bytes.Equal(jbuf, image[4*fakeBS:6*fakeBS]) {
		t.Fatal("joiner read wrong bytes")
	}
	r.checkSettled(t, states, tenant)

	// The transport serves on: a fresh miss, then a hit that needs no
	// pendingRead at all.
	for i := 0; i < 2; i++ {
		id, buf := read(tr, 12, 2)
		if _, err := tr.Recv(id); err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(buf, image[12*fakeBS:14*fakeBS]) {
			t.Fatal("read after Close wrong bytes")
		}
	}
	if len(tr.free) != 1 {
		t.Fatalf("free list holds %d reads after a miss and a hit, want 1", len(tr.free))
	}
	r.checkSettled(t, r.claims(), tenant)
}
