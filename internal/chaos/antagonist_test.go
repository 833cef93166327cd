package chaos

import (
	"bytes"
	"errors"
	"os"
	"path/filepath"
	"sort"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"pvfscache/internal/cachemod"
	"pvfscache/internal/cluster"
	"pvfscache/internal/metrics"
	"pvfscache/internal/pvfs"
	"pvfscache/internal/transport"
	"pvfscache/internal/wire"
)

// Antagonist-wall tuning. The victim's quota-on p99 must stay within
// degradeFactor × its solo baseline (with a floor absorbing scheduler
// noise on sub-millisecond baselines) — that factor is the documented
// bounded-degradation contract of the tenant dirty quotas.
const (
	antagCacheBlocks  = 300  // the paper's 1.2 MB node cache
	antagQuota        = 0.25 // antagonist may dirty 75 of 300 frames
	degradeFactor     = 10
	degradeFloor      = 10 * time.Millisecond
	antagQuotaBlocks  = int(antagQuota * antagCacheBlocks)
	antagOccupancyCap = 2 * antagQuotaBlocks // on: stay under; off: must exceed
)

// p99 returns the 99th-percentile sample.
func p99(samples []time.Duration) time.Duration {
	sort.Slice(samples, func(i, j int) bool { return samples[i] < samples[j] })
	return samples[(len(samples)*99)/100]
}

// antagonistRun boots one caching node over browned-out iods,
// runs a solo victim baseline, then lets antagonist writers saturate the
// shared cache while the victim keeps issuing small writes. It returns
// the victim's solo and under-load p99 latencies, the peak dirty-frame
// occupancy the antagonist tenant reached, and the node's registry.
func antagonistRun(t *testing.T, quota float64) (solo, loaded time.Duration, maxDirty int, reg *metrics.Registry) {
	t.Helper()
	base := transport.NewMem()
	ctl := NewController(base)
	cl, err := cluster.Start(cluster.Config{
		Network:     base,
		NodeNetwork: func(node int) transport.Network { return ctl.View(nodeOrigin(node)) },
		IODs:        2,
		ClientNodes: 1,
		Caching:     true,
		CacheBlocks: antagCacheBlocks,
		FlushPeriod: 2 * time.Millisecond,
		Module: cachemod.Config{
			FlushWindow: 1, // serialize flush frames so the brownout paces the drain

			WriteStall:       300 * time.Millisecond,
			OverloadStall:    5 * time.Millisecond,
			TenantDirtyQuota: quota,
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	defer cl.Close()
	reg = cl.Reg

	// Slow every write to the iods: the drain becomes the bottleneck, so
	// the antagonist's dirty backlog actually accumulates instead of
	// vanishing into an infinitely fast in-memory iod.
	ctl.Brownout(5*time.Millisecond, cl.IODDataAddrs...)
	defer ctl.Heal() // runs before cl.Close: the final FlushAll drains at full speed

	proc, err := cl.NewProcess(0)
	if err != nil {
		t.Fatal(err)
	}
	defer proc.Close()
	const antagSize = 2 << 20 // 512 blocks: deeper than the whole cache
	const victimSize = 256 << 10
	if _, err := proc.Create("qos/victim.dat", pvfs.StripeSpec{}); err != nil {
		t.Fatal(err)
	}
	if _, err := proc.Create("qos/antag.dat", pvfs.StripeSpec{}); err != nil {
		t.Fatal(err)
	}
	victim, err := proc.OpenWithTenant("qos/victim.dat", 1, 1)
	if err != nil {
		t.Fatal(err)
	}

	victimPass := func(n int) []time.Duration {
		data := bytes.Repeat([]byte{0x5A}, 4096)
		lats := make([]time.Duration, 0, n)
		for i := 0; i < n; i++ {
			off := int64(i) * 4096 % victimSize
			start := time.Now()
			if _, err := victim.WriteAt(data, off); err != nil {
				t.Errorf("victim write %d: %v", i, err)
			}
			lats = append(lats, time.Since(start))
			time.Sleep(500 * time.Microsecond)
		}
		return lats
	}

	// Phase 1: the victim alone on the node.
	solo = p99(victimPass(100))

	// Phase 2: antagonist writers saturate the shared cache.
	stop := make(chan struct{})
	var wg sync.WaitGroup
	for g := 0; g < 2; g++ {
		// One Client per goroutine: pvfs.Client is not safe for
		// concurrent use (it models a single-threaded PVFS process), so
		// each antagonist writer is its own simulated process.
		aproc, err := cl.NewProcess(0)
		if err != nil {
			t.Fatalf("antagonist process: %v", err)
		}
		defer aproc.Close()
		f, err := aproc.OpenWithTenant("qos/antag.dat", 2, 1)
		if err != nil {
			t.Fatalf("antagonist open: %v", err)
		}
		wg.Add(1)
		go func(g int, f *pvfs.File) {
			defer wg.Done()
			data := bytes.Repeat([]byte{byte(g)}, 64<<10)
			for off := int64(g) * (64 << 10); ; off = (off + 64<<10) % antagSize {
				select {
				case <-stop:
					return
				default:
				}
				// Overload sheds surface after the client's bounded
				// retries; for the antagonist that is throttling working
				// as intended, not a failure.
				if _, err := f.WriteAt(data, off); err != nil && !errors.Is(err, wire.ErrOverload) {
					t.Errorf("antagonist write: %v", err)
					return
				}
			}
		}(g, f)
	}
	var peak atomic.Int64
	wg.Add(1)
	go func() {
		defer wg.Done()
		buf := cl.Module(0).Buffer()
		for {
			select {
			case <-stop:
				return
			default:
			}
			if n := int64(buf.DirtyCountTenant(2)); n > peak.Load() {
				peak.Store(n)
			}
			time.Sleep(500 * time.Microsecond)
		}
	}()
	time.Sleep(150 * time.Millisecond) // let the backlog build

	loaded = p99(victimPass(60))
	close(stop)
	wg.Wait()
	return solo, loaded, int(peak.Load()), reg
}

// TestAntagonistBoundedDegradation is the noisy-neighbour wall. With
// tenant dirty quotas on, a saturating antagonist may cost the victim at
// most degradeFactor × its solo p99 (floored at degradeFloor), and the
// antagonist's dirty residency stays pinned near its quota. The ablation
// runs the identical storm with quotas off and shows the unbounded shape:
// the antagonist's backlog blows straight through the quota line and owns
// the cache.
func TestAntagonistBoundedDegradation(t *testing.T) {
	if testing.Short() {
		t.Skip("antagonist wall needs real wall-clock phases; skipped in -short")
	}

	solo, loaded, maxDirty, reg := antagonistRun(t, antagQuota)
	bound := degradeFactor * solo
	if floor := time.Duration(degradeFactor) * degradeFloor; bound < floor {
		bound = floor
	}
	t.Logf("quotas on: victim p99 solo=%v loaded=%v (bound %v), antagonist peak dirty %d/%d blocks",
		solo, loaded, bound, maxDirty, antagQuotaBlocks)
	if loaded > bound {
		t.Errorf("victim p99 %v exceeds the bounded-degradation contract %v (%d× solo %v)",
			loaded, bound, degradeFactor, solo)
	}
	if maxDirty > antagOccupancyCap {
		t.Errorf("antagonist peak dirty occupancy %d blocks blew past quota %d (cap %d): quota not engaged",
			maxDirty, antagQuotaBlocks, antagOccupancyCap)
	}
	if v := reg.Counter(metrics.Labeled("module.tenant_write_sheds", "tenant", "2")).Value(); v == 0 {
		t.Error("antagonist was never shed: the storm did not engage the quota")
	}
	if dir := os.Getenv("METRICS_DUMP_DIR"); dir != "" {
		// CI artifact: the quota-on run's full registry, Prometheus text.
		if err := os.MkdirAll(dir, 0o755); err != nil {
			t.Fatalf("metrics dump dir: %v", err)
		}
		var buf bytes.Buffer
		if err := reg.WritePrometheus(&buf); err != nil {
			t.Fatalf("metrics dump render: %v", err)
		}
		path := filepath.Join(dir, "antagonist-metrics.prom")
		if err := os.WriteFile(path, buf.Bytes(), 0o644); err != nil {
			t.Fatalf("metrics dump: %v", err)
		}
		t.Logf("antagonist metrics written to %s", path)
	}

	// Ablation: same storm, quotas off. The victim's writes wait for flush
	// progress behind the antagonist's backlog, and the occupancy shape is
	// unbounded — the antagonist's backlog dwarfs the quota line.
	soloOff, loadedOff, maxDirtyOff, _ := antagonistRun(t, 0)
	t.Logf("quotas off: victim p99 solo=%v loaded=%v, antagonist peak dirty %d blocks",
		soloOff, loadedOff, maxDirtyOff)
	if maxDirtyOff <= antagOccupancyCap {
		t.Errorf("ablation: antagonist peaked at %d dirty blocks, expected the unbounded shape (> %d)",
			maxDirtyOff, antagOccupancyCap)
	}
}
