package cachemod

import (
	"bytes"
	"strings"
	"testing"
	"time"

	"pvfscache/internal/cachemod/buffer"
	"pvfscache/internal/metrics"
	"pvfscache/internal/transport"
	"pvfscache/internal/wire"
)

// waitTenantInflight polls until the tenant's in-flight charge reaches
// want. Budget release happens on the request's completion goroutine, so
// assertions after Recv must tolerate a scheduling gap.
func waitTenantInflight(t *testing.T, m *Module, tenant uint32, want int64) {
	t.Helper()
	deadline := time.Now().Add(2 * time.Second)
	for {
		got := m.TenantInflight(tenant)
		if got == want {
			return
		}
		if time.Now().After(deadline) {
			t.Fatalf("tenant %d inflight = %d, want %d", tenant, got, want)
		}
		time.Sleep(time.Millisecond)
	}
}

// TestTenantWriteQuotaShedsAndRecovers drives one tagged tenant into its
// dirty quota: over-quota writes must shed with StatusOverload instead of
// queueing, the tenant's dirty residency must never exceed the quota, and
// after a drain the same tenant buffers again.
func TestTenantWriteQuotaShedsAndRecovers(t *testing.T) {
	r := newRig(t, func(c *Config) {
		c.TenantDirtyQuota = 0.25         // 16 of the rig's 64 frames
		c.OverloadStall = time.Nanosecond // shed immediately, don't wait for drain
		c.FlushPeriod = time.Hour         // only shed-kicked drains run
	})
	const quota = 16
	tr := r.mod.NewTransport()
	tr.TenantHint(7, 1, 1)

	oks, sheds := 0, 0
	for i := 0; i < 48; i++ {
		ack := sendRecv(t, tr, 0, &wire.Write{
			Client: 1, File: 7, Offset: int64(i) * 4096, Data: bytes.Repeat([]byte{byte(i)}, 4096),
		}).(*wire.WriteAck)
		switch ack.Status {
		case wire.StatusOK:
			oks++
		case wire.StatusOverload:
			sheds++
		default:
			t.Fatalf("write %d: status %v", i, ack.Status)
		}
		if got := r.mod.Buffer().DirtyCountTenant(1); got > quota {
			t.Fatalf("tenant dirty residency %d exceeds quota %d", got, quota)
		}
	}
	if sheds == 0 {
		t.Fatal("no writes shed: the quota never engaged")
	}
	if oks < quota {
		t.Fatalf("only %d writes buffered, want at least the quota %d", oks, quota)
	}
	if v := r.reg.Counter(metrics.Labeled("module.tenant_write_sheds", "tenant", "1")).Value(); v == 0 {
		t.Fatal("tenant_write_sheds counter never incremented")
	}

	// Recovery: a full drain releases the quota and the tenant is
	// admitted again — shedding is load feedback, not a penalty box.
	if err := r.mod.FlushAll(); err != nil {
		t.Fatal(err)
	}
	ack := sendRecv(t, tr, 0, &wire.Write{
		Client: 1, File: 7, Offset: 1 << 20, Data: bytes.Repeat([]byte{0xEE}, 4096),
	}).(*wire.WriteAck)
	if ack.Status != wire.StatusOK {
		t.Fatalf("post-drain write: status %v, want OK", ack.Status)
	}

	// Untagged traffic is never shed: tenant 0 has no quota.
	for i := 0; i < 20; i++ {
		ack := sendRecv(t, tr, 0, &wire.Write{
			Client: 1, File: 8, Offset: int64(i) * 4096, Data: bytes.Repeat([]byte{0xAA}, 4096),
		}).(*wire.WriteAck)
		if ack.Status != wire.StatusOK {
			t.Fatalf("untagged write %d: status %v, want OK", i, ack.Status)
		}
	}
}

// TestTenantFetchBudget pins the read-side budget protocol: a tenant's
// concurrent miss fetches are capped, a request that would exceed the cap
// sheds retryably, the charge is released on completion (including the
// full-cache-hit path), and an oversized request is still admitted when
// the tenant is otherwise idle so it cannot be starved forever.
func TestTenantFetchBudget(t *testing.T) {
	r := newRig(t, func(c *Config) {
		c.TenantFetchBudget = 4
		c.ReadaheadWindow = -1 // keep fetch counts exactly the demand misses
	})
	tr := r.mod.NewTransport()
	tr.TenantHint(9, 3, 1)

	// Hold a 3-block fetch in flight: the charge is taken synchronously
	// at Send, before any round trip completes.
	id1, _, err := startRead(tr, 0, 9, 0, 3*4096)
	if err != nil {
		t.Fatal(err)
	}
	if got := r.mod.TenantInflight(3); got != 3 {
		t.Fatalf("inflight after first Send = %d, want 3", got)
	}

	// A second 3-block read would put the tenant at 6 > 4: shed.
	if _, status, err := readOnce(tr, 0, 9, 1<<20, 3*4096); err != nil || status != wire.StatusOverload {
		t.Fatalf("over-budget read: status %v (err %v), want Overload", status, err)
	}
	if got := r.mod.TenantInflight(3); got != 3 {
		t.Fatalf("inflight after shed = %d, want 3 (shed must not charge)", got)
	}
	if v := r.reg.Counter(metrics.Labeled("module.tenant_read_sheds", "tenant", "3")).Value(); v == 0 {
		t.Fatal("tenant_read_sheds counter never incremented")
	}

	// Completing the first read releases its whole charge.
	if _, err := tr.Recv(id1); err != nil {
		t.Fatal(err)
	}
	waitTenantInflight(t, r.mod, 3, 0)

	// Oversized request (8 blocks > budget 4) admitted when the tenant
	// has nothing else in flight, and fully released afterwards.
	readAt(t, tr, 0, 9, 2<<20, 8*4096)
	waitTenantInflight(t, r.mod, 3, 0)

	// A full cache hit takes and releases the budget on the synchronous
	// path — re-read what the oversized fetch just cached.
	readAt(t, tr, 0, 9, 2<<20, 8*4096)
	waitTenantInflight(t, r.mod, 3, 0)

	// Untagged files never charge any tenant.
	readAt(t, tr, 0, 10, 0, 2*4096)
	if got := r.mod.TenantInflight(0); got != 0 {
		t.Fatalf("tenant 0 inflight = %d, want 0 (untagged is never charged)", got)
	}
}

// TestFetchBudgetReleasedOnError pins the leak-proofing of the budget
// protocol: when every fetch fails (iod unreachable), the tenant's charge
// must still return to zero — a leaked charge would throttle the tenant
// forever on a transient outage.
func TestFetchBudgetReleasedOnError(t *testing.T) {
	net := transport.NewMem()
	mod, err := New(Config{
		Network:           net,
		ClientID:          1,
		IODDataAddrs:      []string{"dead:0"}, // nothing listens: dials are refused
		IODFlushAddrs:     []string{"dead:1"},
		Buffer:            buffer.Config{BlockSize: 4096, Capacity: 16},
		DisableCoherence:  true,
		TenantFetchBudget: 8,
		Registry:          metrics.NewRegistry(),
	})
	if err != nil {
		t.Fatal(err)
	}
	defer mod.Close()
	tr := mod.NewTransport()
	tr.TenantHint(5, 2, 1)

	id, _, err := startRead(tr, 0, 5, 0, 2*4096)
	if err == nil {
		if _, rerr := tr.Recv(id); rerr == nil {
			t.Fatal("read against an unreachable iod succeeded")
		}
	}
	waitTenantInflight(t, mod, 2, 0)
}

// TestTraceModeCapturesRequests smoke-tests per-request trace mode
// end-to-end at the module seam: arm, run ops, drain, and verify one-shot
// consumption semantics.
func TestTraceModeCapturesRequests(t *testing.T) {
	r := newRig(t, nil)
	tr := r.mod.NewTransport()
	r.mod.ArmTrace(2)

	ack := sendRecv(t, tr, 0, &wire.Write{
		Client: 1, File: 6, Offset: 0, Data: bytes.Repeat([]byte{1}, 4096),
	}).(*wire.WriteAck)
	if ack.Status != wire.StatusOK {
		t.Fatalf("write status %v", ack.Status)
	}
	readAt(t, tr, 0, 6, 0, 4096)

	if got := r.mod.TraceArmed(); got != 0 {
		t.Fatalf("TraceArmed = %d after two traced requests, want 0", got)
	}
	text := r.mod.TraceText()
	if !strings.Contains(text, "write file=6") {
		t.Errorf("trace output missing the write request:\n%s", text)
	}
	if !strings.Contains(text, "read file=6") {
		t.Errorf("trace output missing the read request:\n%s", text)
	}
	if !strings.Contains(text, "done:") {
		t.Errorf("trace output missing completion hops:\n%s", text)
	}
	if again := r.mod.TraceText(); again != "" {
		t.Fatalf("second drain not empty:\n%s", again)
	}
	// Disarmed: nothing further is captured.
	readAt(t, tr, 0, 6, 0, 4096)
	if text := r.mod.TraceText(); text != "" {
		t.Fatalf("disarmed request captured a trace:\n%s", text)
	}
}
