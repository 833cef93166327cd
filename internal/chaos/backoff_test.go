package chaos

import (
	"bytes"
	"testing"
	"time"

	"pvfscache/internal/chaos/waitfor"
	"pvfscache/internal/cluster"
	"pvfscache/internal/pvfs"
	"pvfscache/internal/transport"
)

// TestFlushBackoffUnderIODDeath kills one iod under dirty
// write-behind data and watches the per-stream health surface: the dead
// daemon's stream must enter backoff and keep retrying (errors advance),
// the other streams must stay healthy, and when the daemon returns the
// stream must recover and drain — with the data readable from the
// restored daemon byte for byte.
func TestFlushBackoffUnderIODDeath(t *testing.T) {
	base := transport.NewMem()
	ctl := NewController(base)
	cl, err := cluster.Start(cluster.Config{
		Network:     base,
		NodeNetwork: func(n int) transport.Network { return ctl.View(nodeOrigin(n)) },
		Caching:     true,
		ClientNodes: 1,
		IODs:        2,
		FlushPeriod: 5 * time.Millisecond,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer cl.Close()
	mod := cl.Module(0)

	health := mod.StreamHealth()
	if len(health) != 2 {
		t.Fatalf("expected 2 flush streams, got %d", len(health))
	}
	for _, h := range health {
		if h.Failing || h.Errors != 0 || h.Backoff != 0 {
			t.Fatalf("stream %d unhealthy before any traffic: %+v", h.IOD, h)
		}
	}

	// Fail-stop iod 0, then dirty blocks striped over both
	// daemons (default 64 KB strips: the first strip of each cycle is iod
	// 0's).
	ctl.Cut(cl.IODDataAddrs[0])
	proc, err := cl.NewProcess(0)
	if err != nil {
		t.Fatal(err)
	}
	defer proc.Close()
	f, err := proc.Create("bk/data", pvfs.StripeSpec{})
	if err != nil {
		t.Fatal(err)
	}
	data := make([]byte, 256<<10)
	for i := range data {
		data[i] = byte(i * 131)
	}
	if _, err := f.WriteAt(data, 0); err != nil {
		t.Fatalf("cached write: %v", err)
	}

	// The dead daemon's stream enters backoff and keeps retrying.
	waitfor.Until(t, 5*time.Second, func() bool {
		h := mod.StreamHealth()[0]
		return h.Failing && h.Errors >= 1 && h.Backoff > 0
	}, "stream 0 entering backoff after iod death")
	before := mod.StreamHealth()[0].Errors
	waitfor.Until(t, 5*time.Second, func() bool {
		return mod.StreamHealth()[0].Errors > before
	}, "stream 0 retrying (errors advancing past %d)", before)
	if h := mod.StreamHealth()[1]; h.Failing {
		t.Fatalf("healthy iod's stream went failing: %+v", h)
	}

	// Restore the daemon: the stream must recover, the backlog drain, and
	// the health surface go quiet again.
	ctl.Restore(cl.IODDataAddrs[0])
	waitfor.Until(t, 10*time.Second, func() bool {
		return mod.FlushAll() == nil
	}, "drain succeeding after restore")
	waitfor.Until(t, 5*time.Second, func() bool {
		h := mod.StreamHealth()[0]
		return !h.Failing && h.Backoff == 0
	}, "stream 0 recovering after restore")

	// Every byte must have survived the outage via requeue.
	direct, err := pvfs.NewClient(pvfs.Config{
		Network: cl.Network, MgrAddr: cl.MgrAddr, IODAddrs: cl.IODDataAddrs,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer direct.Close()
	df, err := direct.Open("bk/data")
	if err != nil {
		t.Fatal(err)
	}
	got := make([]byte, len(data))
	if n, err := df.ReadAt(got, 0); err != nil || n != len(data) {
		t.Fatalf("read back: n=%d err=%v", n, err)
	}
	if !bytes.Equal(got, data) {
		t.Fatal("data corrupted across iod death and recovery")
	}
}
