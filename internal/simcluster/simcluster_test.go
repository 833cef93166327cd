package simcluster

import (
	"testing"
	"time"

	"pvfscache/internal/microbench"
	"pvfscache/internal/sim"
)

func runOnce(t *testing.T, caching bool, mb microbench.Params, pl Placement, nodes int) Result {
	t.Helper()
	env := sim.NewEnv()
	c := New(env, DefaultParams(), 4, nodes, caching)
	res, err := Run(c, mb, pl)
	if err != nil {
		t.Fatalf("run: %v", err)
	}
	return res
}

func baseRead() microbench.Params {
	return microbench.Params{
		Instances:   1,
		Nodes:       2,
		RequestSize: 64 << 10,
		TotalBytes:  2 << 20,
		Read:        true,
		Seed:        1,
	}
}

func TestRunCompletesNoCaching(t *testing.T) {
	mb := baseRead()
	res := runOnce(t, false, mb, SameNodes(1, 2), 2)
	if res.Requests != 2*mb.Requests() {
		t.Errorf("requests = %d, want %d", res.Requests, 2*mb.Requests())
	}
	if res.MaxInstanceTime() <= 0 {
		t.Error("zero completion time")
	}
	if res.Hits != 0 || res.Misses != 0 {
		t.Error("no-caching run recorded cache activity")
	}
}

func TestRunCompletesCaching(t *testing.T) {
	mb := baseRead()
	mb.Locality = 0.5
	res := runOnce(t, true, mb, SameNodes(1, 2), 2)
	if res.Hits == 0 {
		t.Error("locality 0.5 produced no cache hits")
	}
	if res.MaxInstanceTime() <= 0 {
		t.Error("zero completion time")
	}
}

func TestDeterministicVirtualTime(t *testing.T) {
	mb := baseRead()
	mb.Locality = 0.5
	mb.Sharing = 0.5
	mb.Instances = 2
	a := runOnce(t, true, mb, SameNodes(2, 2), 2)
	b := runOnce(t, true, mb, SameNodes(2, 2), 2)
	if a.MaxInstanceTime() != b.MaxInstanceTime() {
		t.Errorf("nondeterministic: %v vs %v", a.MaxInstanceTime(), b.MaxInstanceTime())
	}
	if a.Hits != b.Hits || a.Misses != b.Misses {
		t.Errorf("nondeterministic counters: %d/%d vs %d/%d", a.Hits, a.Misses, b.Hits, b.Misses)
	}
}

func TestFullLocalityCachingBeatsNoCaching(t *testing.T) {
	mb := baseRead()
	mb.Locality = 1.0
	cached := runOnce(t, true, mb, SameNodes(1, 2), 2)
	direct := runOnce(t, false, mb, SameNodes(1, 2), 2)
	if cached.MaxInstanceTime() >= direct.MaxInstanceTime() {
		t.Errorf("l=1: caching %v should beat no-caching %v",
			cached.MaxInstanceTime(), direct.MaxInstanceTime())
	}
}

func TestZeroLocalityOverheadSmall(t *testing.T) {
	// Figure 4(a): with no locality, the caching version must be close to
	// the original (small overhead), not dramatically worse.
	mb := baseRead()
	mb.Locality = 0
	cached := runOnce(t, true, mb, SameNodes(1, 2), 2)
	direct := runOnce(t, false, mb, SameNodes(1, 2), 2)
	ratio := float64(cached.MaxInstanceTime()) / float64(direct.MaxInstanceTime())
	if ratio > 1.25 {
		t.Errorf("l=0 caching overhead ratio %.2f too large (cached %v vs %v)",
			ratio, cached.MaxInstanceTime(), direct.MaxInstanceTime())
	}
}

func TestWriteBehindBeatsDirectWrites(t *testing.T) {
	// Figure 4(b): the caching version wins for writes even with l=0,
	// because writes complete in memory and flush in the background.
	mb := baseRead()
	mb.Read = false
	mb.Locality = 0
	mb.RequestSize = 16 << 10
	cached := runOnce(t, true, mb, SameNodes(1, 2), 2)
	direct := runOnce(t, false, mb, SameNodes(1, 2), 2)
	if cached.MaxInstanceTime() >= direct.MaxInstanceTime() {
		t.Errorf("writes: caching %v should beat no-caching %v",
			cached.MaxInstanceTime(), direct.MaxInstanceTime())
	}
}

func TestSharingImprovesSecondInstance(t *testing.T) {
	// Figure 6 mechanism: two instances sharing 100% of their data on the
	// same nodes finish faster with caching than without, even at l=0.
	mb := baseRead()
	mb.Instances = 2
	mb.Locality = 0
	mb.Sharing = 1.0
	cached := runOnce(t, true, mb, SameNodes(2, 2), 2)
	direct := runOnce(t, false, mb, SameNodes(2, 2), 2)
	if cached.MaxInstanceTime() >= direct.MaxInstanceTime() {
		t.Errorf("s=100%%: caching %v should beat no-caching %v",
			cached.MaxInstanceTime(), direct.MaxInstanceTime())
	}
	if cached.Hits+cached.Joins == 0 {
		t.Error("inter-application sharing produced neither hits nor fetch joins")
	}
}

func TestMoreSharingMoreBenefit(t *testing.T) {
	mb := baseRead()
	mb.Instances = 2
	mb.Locality = 0
	var times []time.Duration
	for _, s := range []float64{0.25, 1.0} {
		mb.Sharing = s
		res := runOnce(t, true, mb, SameNodes(2, 2), 2)
		times = append(times, res.MaxInstanceTime())
	}
	if times[1] >= times[0] {
		t.Errorf("s=100%% (%v) should beat s=25%% (%v)", times[1], times[0])
	}
}

func TestPlacements(t *testing.T) {
	same := SameNodes(2, 3)
	if len(same.InstanceNodes) != 2 || same.MaxNode() != 2 {
		t.Errorf("SameNodes: %+v", same)
	}
	disj := DisjointNodes(2, 3)
	if disj.MaxNode() != 5 {
		t.Errorf("DisjointNodes max = %d", disj.MaxNode())
	}
	for i, nodes := range disj.InstanceNodes {
		for k, n := range nodes {
			if n != i*3+k {
				t.Errorf("disjoint[%d][%d] = %d", i, k, n)
			}
		}
	}
}

func TestPlacementValidation(t *testing.T) {
	mb := baseRead()
	env := sim.NewEnv()
	c := New(env, DefaultParams(), 4, 1, false)
	// Placement instance count mismatch.
	if _, err := Run(c, mb, SameNodes(2, 2)); err == nil {
		t.Error("expected instance-count mismatch error")
	}
	// Placement exceeds cluster nodes.
	env2 := sim.NewEnv()
	c2 := New(env2, DefaultParams(), 4, 1, false)
	if _, err := Run(c2, mb, SameNodes(1, 2)); err == nil {
		t.Error("expected node-range error")
	}
}

func TestColocationVsSpreadFullLocality(t *testing.T) {
	// Figure 8(c) headline: at l=1 the cached co-located run beats the
	// uncached spread run.
	mb := baseRead()
	mb.Instances = 2
	mb.Nodes = 3
	mb.Locality = 1.0
	mb.Sharing = 0.5
	cachedColoc := runOnce(t, true, mb, SameNodes(2, 3), 3)
	directSpread := runOnce(t, false, mb, DisjointNodes(2, 3), 6)
	if cachedColoc.MaxInstanceTime() >= directSpread.MaxInstanceTime() {
		t.Errorf("l=1: cached co-located %v should beat uncached spread %v",
			cachedColoc.MaxInstanceTime(), directSpread.MaxInstanceTime())
	}
}

func TestColocationVsSpreadZeroLocality(t *testing.T) {
	// Figure 8(a) headline: at l=0 parallelism wins — the uncached spread
	// run beats the cached co-located run.
	mb := baseRead()
	mb.Instances = 2
	mb.Nodes = 3
	mb.Locality = 0
	mb.Sharing = 0.25
	cachedColoc := runOnce(t, true, mb, SameNodes(2, 3), 3)
	directSpread := runOnce(t, false, mb, DisjointNodes(2, 3), 6)
	if directSpread.MaxInstanceTime() >= cachedColoc.MaxInstanceTime() {
		t.Errorf("l=0: uncached spread %v should beat cached co-located %v",
			directSpread.MaxInstanceTime(), cachedColoc.MaxInstanceTime())
	}
}

func TestWarmVsColdFirstRead(t *testing.T) {
	// A cold file pays disk time on first access; a warm one does not.
	read := func(warm bool) time.Duration {
		env := sim.NewEnv()
		c := New(env, DefaultParams(), 1, 1, false)
		id := c.CreateFile("f", 1<<20, warm)
		_, meta := c.Lookup("f")
		var took time.Duration
		env.Go("r", func(p *sim.Proc) {
			t0 := env.Now()
			c.Read(p, c.Nodes[0], id, meta, 0, 64<<10)
			took = env.Now() - t0
			c.Finish()
		})
		env.Run()
		return took
	}
	cold := read(false)
	warm := read(true)
	if cold <= warm {
		t.Errorf("cold read %v should exceed warm read %v", cold, warm)
	}
	if cold-warm < 10*time.Millisecond {
		t.Errorf("disk penalty %v implausibly small", cold-warm)
	}
}

// TestPipelinedFlushShortensDrain validates the write-behind pipeline
// model: the same write workload must finish no later — and with a full
// dirty cache across several iods, strictly earlier — when the flusher
// drains with parallel streams and a message window than with the serial
// calibration default. The serial configuration stays the deterministic
// baseline the figures are regenerated with.
func TestPipelinedFlushShortensDrain(t *testing.T) {
	mb := microbench.Params{
		Instances:   1,
		Nodes:       1,
		RequestSize: 256 << 10,
		TotalBytes:  4 << 20,
		Read:        false,
		Seed:        1,
	}
	run := func(streams, window int) time.Duration {
		env := sim.NewEnv()
		p := DefaultParams()
		p.FlushStreams = streams
		p.FlushWindow = window
		c := New(env, p, 4, 1, true)
		res, err := Run(c, mb, SameNodes(1, 1))
		if err != nil {
			t.Fatalf("run(streams=%d, window=%d): %v", streams, window, err)
		}
		return res.MaxInstanceTime()
	}
	serial := run(1, 1)
	piped := run(4, 4)
	if piped > serial {
		t.Fatalf("pipelined drain slower than serial: %v > %v", piped, serial)
	}
	if piped == serial {
		t.Logf("warning: pipelined flush made no virtual-time difference (serial=%v)", serial)
	}
	// Determinism: the pipelined configuration must reproduce itself.
	if again := run(4, 4); again != piped {
		t.Fatalf("pipelined run not deterministic: %v vs %v", piped, again)
	}
}
