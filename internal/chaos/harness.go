package chaos

import (
	"errors"
	"fmt"
	"math/rand"
	"os"
	"path/filepath"
	"sync"
	"sync/atomic"
	"time"

	"pvfscache/internal/chaos/waitfor"
	"pvfscache/internal/cluster"
	"pvfscache/internal/transport"
	"pvfscache/internal/wire"
	"pvfscache/internal/workload"
)

// Faults lists the injectable fault kinds.
//
//   - none: baseline, zero tolerated op errors
//   - connkill: every connection to one random iod is torn down once;
//     the rpc pools must redial and no data may be lost
//   - crash: an iod fail-stops mid-flush — a flush frame is cut short
//     halfway, both daemon ports go down, and the daemon returns later;
//     flush streams must back off, requeue, and drain after restore
//   - partition: one iod becomes unreachable from every client node
//     (directional blackhole, writes stall rather than fail) until heal
//   - brownout: one iod serves with per-write latency injected (slow
//     node); no errors tolerated, only slowness
//   - restart: an iod fail-stops mid-flush like crash, but the daemon
//     process actually dies (ports closed, backend volatile state gone)
//     and reboots from the same data directory — so the run exercises
//     journal replay, not just reconnection. Forces the disk backend.
//   - drain: one iod is gracefully drained (modules flush what they owe
//     it, remaining holders are handed off) and rejoined; op errors are
//     bounded by the down window exactly as for a crash
func Faults() []string {
	return []string{"none", "connkill", "crash", "partition", "brownout", "restart", "drain"}
}

// MembershipFaults lists the global-cache membership faults. They are
// deliberately kept out of Faults(): they force GlobalCache on, and a
// cooperative cache is only coherent for scenarios that never rewrite a
// block other nodes may re-read later (a copy pushed to its ring home
// goes stale when the block is rewritten and flushed), so the full
// scenario×fault matrix must not auto-pair them. Pair them only with the
// scenarios GCSafeScenarios lists.
//
//   - killpeer: one node's global-cache service fail-stops mid-run; the
//     other nodes' gets must fail over (replicas, then the iods) within
//     their bounded fetch timeouts and no op may error
//   - join: a new caching node joins the live ring mid-run — the mgr
//     bumps the epoch, peers refetch the view on stale-epoch answers —
//     with no op errors
func MembershipFaults() []string { return []string{"killpeer", "join"} }

// GCSafeScenarios are the workload scenarios whose block-sharing shape
// keeps the global cache coherent: no node ever re-reads a block another
// node rewrote after it was pushed to the ring.
func GCSafeScenarios() []string { return []string{"sequential", "prodcons"} }

// ErrTCPUnavailable marks environments where TCP sockets cannot be used;
// tests skip rather than fail on it.
var ErrTCPUnavailable = errors.New("chaos: tcp unavailable in this environment")

// errGrace is how long after a fault window closes op errors are still
// attributed to it (in-flight requests surface their failures slightly
// late; rpc pools redial on the next call).
const errGrace = time.Second

// RunConfig describes one chaos run.
type RunConfig struct {
	// Scenario names a workload scenario (workload.Scenarios).
	Scenario string
	// Fault names a fault kind (Faults). "" = none.
	Fault string
	// Seed drives the workload, the fault plan, and every payload.
	Seed int64
	// Params sizes the workload; zero fields take workload defaults.
	Params workload.Params
	// TCP runs over real sockets instead of the in-memory network.
	TCP bool
	// IODs is the daemon count (default 4).
	IODs int
	// FlushPeriod is the write-behind interval (default 5ms: fast enough
	// that a crash lands mid-flush within the run).
	FlushPeriod time.Duration
	// GlobalCache boots the cluster with the cooperative global cache in
	// mgr-joined membership mode. Forced on by the membership faults;
	// only the GCSafeScenarios workloads may run with it.
	GlobalCache bool
	// Backend selects the iods' storage engine ("", "mem", "disk" — see
	// cluster.Config.Backend). The restart fault requires disk and
	// defaults to it: a mem-backed daemon forgets every acknowledged
	// byte when it dies, so rebooting one can never pass the oracle.
	Backend string
	// DataDir is the disk backend's root directory. Empty: a fresh
	// directory is created under CHAOS_ARTIFACT_DIR (or the system temp
	// dir), removed when the run passes and kept — journals included —
	// as a failure artifact otherwise.
	DataDir string
	// TraceDir receives the run's trace file. Empty: the trace is saved
	// only when the run fails, into CHAOS_ARTIFACT_DIR or the system
	// temp directory.
	TraceDir string
	// Log receives progress lines (nil = silent).
	Log func(format string, args ...any)
	// Meddle, when set, is invoked after the workload drains and before
	// the durable check — a test hook for out-of-band interference (e.g.
	// corrupting stored bytes behind the oracle's back) used to prove
	// the harness catches and reproduces real failures.
	Meddle func(c *cluster.Cluster)
}

// RunResult reports one run's outcome; valid even when Run errors.
type RunResult struct {
	Trace       *workload.Trace
	TracePath   string        // saved trace ("" if not written)
	Ops         int           // ops executed
	OpErrors    int           // ops that returned an error (all must be fault-bounded)
	DoubtWrites int           // failed writes unresolved at final check
	DoubtBytes  int64         // bytes those may have changed
	FaultStart  time.Duration // fault window relative to run start (0,0 = never fired)
	FaultEnd    time.Duration
	Elapsed     time.Duration
	DataDir     string // disk-backend data root ("" for mem; kept on failure)
}

// Run executes one seeded chaos run: boot a live cluster behind a fault
// controller, generate the scenario from the seed, drive every client
// concurrently with all ops recorded, inject the fault plan, heal, drain
// every cache, and judge the durable image with the oracle. Any oracle
// violation, unbounded op error, or drain failure returns an error; the
// trace is saved so the failure replays deterministically (see
// TestChaosReplay).
func Run(cfg RunConfig) (*RunResult, error) {
	if cfg.Fault == "" {
		cfg.Fault = "none"
	}
	if !validFault(cfg.Fault) {
		return nil, fmt.Errorf("chaos: unknown fault %q (have %v and %v)",
			cfg.Fault, Faults(), MembershipFaults())
	}
	if isMembershipFault(cfg.Fault) {
		cfg.GlobalCache = true
	}
	if cfg.GlobalCache && !gcSafeScenario(cfg.Scenario) {
		return nil, fmt.Errorf("chaos: scenario %q is not global-cache safe (have %v)",
			cfg.Scenario, GCSafeScenarios())
	}
	if cfg.IODs <= 0 {
		cfg.IODs = 4
	}
	if cfg.FlushPeriod <= 0 {
		cfg.FlushPeriod = 5 * time.Millisecond
	}
	if cfg.Log == nil {
		cfg.Log = func(string, ...any) {}
	}
	sc, err := workload.Lookup(cfg.Scenario)
	if err != nil {
		return nil, err
	}
	cfg.Params.Seed = cfg.Seed
	spec, err := sc.Generate(cfg.Params)
	if err != nil {
		return nil, err
	}

	// Network fabric behind the fault controller. Every client node dials
	// through its own labeled view so partitions can target node traffic;
	// servers and the harness's own setup/read-back clients use the raw
	// fabric and are never faulted.
	var base transport.Network = transport.NewMem()
	if cfg.TCP {
		probe, err := transport.NewTCP().Listen("127.0.0.1:0")
		if err != nil {
			return nil, fmt.Errorf("%w: %v", ErrTCPUnavailable, err)
		}
		probe.Close()
		base = transport.NewTCP()
	}
	ctl := NewController(base)

	// Storage backend: the restart fault reboots a daemon from its data
	// directory, which only means anything on the disk engine.
	backend := cfg.Backend
	if cfg.Fault == "restart" && backend == "" {
		backend = "disk"
	}
	if cfg.Fault == "restart" && backend != "disk" {
		return nil, fmt.Errorf("chaos: the restart fault requires Backend \"disk\", got %q", backend)
	}
	dataDir := cfg.DataDir
	cleanupData := false
	if backend == "disk" && dataDir == "" {
		root := os.Getenv("CHAOS_ARTIFACT_DIR")
		if root == "" {
			root = os.TempDir()
		}
		if err := os.MkdirAll(root, 0o755); err != nil {
			return nil, err
		}
		dataDir, err = os.MkdirTemp(root, fmt.Sprintf("chaos-data-%s-seed%d-", cfg.Fault, cfg.Seed))
		if err != nil {
			return nil, err
		}
		cleanupData = true
	}

	cl, err := cluster.Start(cluster.Config{
		Network:     base,
		NodeNetwork: func(node int) transport.Network { return ctl.View(nodeOrigin(node)) },
		IODs:        cfg.IODs,
		ClientNodes: spec.Params.Nodes,
		Caching:     true,
		GlobalCache: cfg.GlobalCache,
		FlushPeriod: cfg.FlushPeriod,
		Backend:     backend,
		DataDir:     dataDir,
	})
	if err != nil {
		return nil, err
	}
	defer cl.Close()

	s, err := newSession(cl, spec, cfg.Seed)
	if err != nil {
		return nil, err
	}
	defer s.close()
	r := &runner{session: s, cfg: cfg, ctl: ctl}
	res, err := r.run()
	if res != nil {
		res.DataDir = dataDir
	}
	if err != nil && res != nil && res.TracePath != "" {
		err = fmt.Errorf("%w\nreproduce: seed=%d trace=%s\n  go test ./internal/chaos -run TestChaosReplay -trace=%s",
			err, cfg.Seed, res.TracePath, res.TracePath)
	}
	if cleanupData {
		if err == nil {
			os.RemoveAll(dataDir)
			if res != nil {
				res.DataDir = ""
			}
		} else {
			// Keep the directory — journals and shard files are the crash
			// forensics — and point the failure at it.
			err = fmt.Errorf("%w\ndisk backend data kept at %s", err, dataDir)
		}
	}
	return res, err
}

func validFault(f string) bool {
	for _, k := range Faults() {
		if k == f {
			return true
		}
	}
	return isMembershipFault(f)
}

func isMembershipFault(f string) bool {
	for _, k := range MembershipFaults() {
		if k == f {
			return true
		}
	}
	return false
}

func gcSafeScenario(s string) bool {
	for _, k := range GCSafeScenarios() {
		if k == s {
			return true
		}
	}
	return false
}

func nodeOrigin(node int) string { return fmt.Sprintf("node%d", node) }

// runner is one Run: the session driven concurrently under the fault
// plan, every op recorded.
type runner struct {
	*session
	cfg RunConfig
	ctl *Controller
	rec *workload.Recorder
}

func (r *runner) run() (*RunResult, error) {
	spec, cfg := r.spec, r.cfg
	r.rec = workload.NewRecorder()
	plan := newFaultPlan(r)
	go plan.run()

	r.bar = newBarrier(len(r.clients))
	var wg sync.WaitGroup
	for c := range r.clients {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			for _, op := range spec.Ops[c] {
				op = r.rec.Begin(op)
				r.rec.End(op, r.do(op))
			}
		}(c)
	}
	wg.Wait()
	plan.finish()

	// Heal everything that could still be in force, then drain every
	// cache so the durable check sees the whole run.
	r.ctl.Heal()
	durableErr := r.durable(cfg.Meddle)

	trace := r.rec.Trace(spec.Scenario, spec.Params)
	res := &RunResult{
		Trace:      trace,
		Ops:        len(trace.Records),
		FaultStart: time.Duration(plan.startNS.Load()),
		FaultEnd:   time.Duration(plan.endNS.Load()),
		Elapsed:    time.Duration(r.rec.Since()),
	}

	failure := durableErr
	fail := func(format string, args ...any) {
		if failure == nil {
			failure = fmt.Errorf(format, args...)
		}
	}
	res.DoubtWrites, res.DoubtBytes = r.oracle.DoubtStats()

	// Bounded-error accounting: every op error must fall inside the
	// fault window (plus grace), and a fault-free run tolerates none.
	winStart, winEnd := plan.startNS.Load(), plan.endNS.Load()
	for _, rec := range trace.Records {
		if rec.Err == "" {
			continue
		}
		res.OpErrors++
		if winStart == 0 {
			fail("chaos: op %d errored with no fault active: %s", rec.Seq, rec.Err)
			continue
		}
		end := winEnd
		if end == 0 {
			end = r.rec.Since() // window forced open until run end
		}
		if rec.T < winStart-int64(10*time.Millisecond) || rec.T > end+int64(errGrace) {
			fail("chaos: op %d errored at t=%v outside fault window [%v, %v]: %s",
				rec.Seq, time.Duration(rec.T), time.Duration(winStart), time.Duration(end), rec.Err)
		}
	}
	for _, v := range r.violations() {
		fail("%v", v)
	}

	// Persist the trace: always when a directory was asked for, and on
	// failure so the printed path reproduces the run.
	if cfg.TraceDir != "" || failure != nil {
		dir := cfg.TraceDir
		if dir == "" {
			dir = os.Getenv("CHAOS_ARTIFACT_DIR")
		}
		if dir == "" {
			dir = os.TempDir()
		}
		if err := os.MkdirAll(dir, 0o755); err == nil {
			path := filepath.Join(dir, fmt.Sprintf("chaos-%s-%s-seed%d.trace",
				spec.Scenario, cfg.Fault, cfg.Seed))
			if err := trace.Save(path); err == nil {
				res.TracePath = path
			} else {
				cfg.Log("chaos: saving trace: %v", err)
			}
		}
	}
	cfg.Log("chaos: %s/%s seed=%d: %d ops, %d errors, doubt %d writes/%d bytes, fault [%v,%v], %v",
		spec.Scenario, cfg.Fault, cfg.Seed, res.Ops, res.OpErrors,
		res.DoubtWrites, res.DoubtBytes, res.FaultStart, res.FaultEnd, res.Elapsed)
	return res, failure
}

// faultPlan schedules one seeded fault against the running workload. The
// trigger is progress-based (a fraction of the run's ops completed)
// rather than wall-clock, so the fault reliably lands mid-run however
// fast the machine is; crash is traffic-triggered instead (the armed
// short write fires on real flush frames).
type faultPlan struct {
	r    *runner
	rng  *rand.Rand
	stop chan struct{}
	done chan struct{}

	startNS, endNS atomic.Int64
}

func newFaultPlan(r *runner) *faultPlan {
	return &faultPlan{
		r: r,
		// Offset the seed so the fault draw is independent of the
		// workload's own draws.
		rng:  rand.New(rand.NewSource(r.cfg.Seed ^ 0x6368616F73)),
		stop: make(chan struct{}),
		done: make(chan struct{}),
	}
}

func (p *faultPlan) markStart() { p.startNS.Store(p.r.rec.Since()) }
func (p *faultPlan) markEnd()   { p.endNS.Store(p.r.rec.Since()) }

// waitProgress blocks until the given fraction of the run's ops have
// completed; it reports whether the threshold was hit. A finished run
// has trivially passed any threshold, so the fault still engages (and
// then exercises the drain) when the workload outruns the first poll.
func (p *faultPlan) waitProgress(frac float64) bool {
	total := p.r.spec.TotalOps()
	want := int(frac * float64(total))
	for {
		if p.r.rec.Count() >= want {
			return true
		}
		select {
		case <-p.stop:
			return p.r.rec.Count() >= want
		case <-time.After(waitfor.Interval):
		}
	}
}

// hold keeps the fault in force for its full duration — even when the
// ops finish first, so the final drain runs against the fault too (the
// harness's drain loop retries until well past any heal).
func (p *faultPlan) hold(d time.Duration) {
	time.Sleep(d)
}

func (p *faultPlan) run() {
	defer close(p.done)
	r := p.r
	kind := r.cfg.Fault
	if kind == "none" {
		return
	}
	iod := p.rng.Intn(len(r.cl.IODDataAddrs))
	addr := r.cl.IODDataAddrs[iod]
	startFrac := 0.1 + 0.25*p.rng.Float64()
	dur := time.Duration(30+p.rng.Intn(60)) * time.Millisecond
	origins := make([]string, r.spec.Params.Nodes)
	for i := range origins {
		origins[i] = nodeOrigin(i)
	}

	switch kind {
	case "connkill":
		if !p.waitProgress(startFrac) {
			return
		}
		p.markStart()
		r.ctl.KillConns(addr)
		p.markEnd()
		r.cfg.Log("chaos: killed conns to iod %d", iod)

	case "partition":
		if !p.waitProgress(startFrac) {
			return
		}
		p.markStart()
		r.ctl.Partition(origins, []string{addr})
		r.cfg.Log("chaos: partitioned iod %d from %v", iod, origins)
		p.hold(dur)
		r.ctl.Heal()
		p.markEnd()

	case "brownout":
		if !p.waitProgress(startFrac) {
			return
		}
		p.markStart()
		r.ctl.Brownout(2*time.Millisecond, addr)
		r.cfg.Log("chaos: brownout on iod %d", iod)
		p.hold(dur)
		r.ctl.Heal()
		p.markEnd()

	case "crash":
		if !p.cutOnFlush(iod, addr) {
			return // never fired: fault skipped this run
		}
		p.hold(dur)
		r.ctl.Restore(addr)
		p.markEnd()
		r.cfg.Log("chaos: restored iod %d", iod)

	case "killpeer":
		// Fail-stop one node's global-cache service. No heal: the run must
		// pass with the peer gone — gets fail over to replicas and then
		// the iods inside their bounded timeouts, so no op ever errors.
		if !p.waitProgress(startFrac) {
			return
		}
		node := p.rng.Intn(r.spec.Params.Nodes)
		p.markStart()
		r.cl.Module(node).KillPeerService()
		p.markEnd()
		r.cfg.Log("chaos: killed global-cache service on node %d", node)

	case "join":
		// Grow the ring mid-run: the mgr bumps the epoch and peers chase
		// it via stale-epoch answers. Nothing is torn down, so no op may
		// error here either.
		if !p.waitProgress(startFrac) {
			return
		}
		p.markStart()
		node, err := r.cl.AddCacheNode()
		if err != nil {
			r.violation(fmt.Errorf("chaos: AddCacheNode: %w", err))
		}
		p.markEnd()
		r.cfg.Log("chaos: node %d joined the global-cache ring", node)

	case "drain":
		// Graceful rolling restart of one iod: flush everything the
		// modules owe it, hand off its remaining holders, close, rejoin.
		// The drain wait is bounded by the writers finishing their
		// passes; op errors are confined to the closed window.
		if !p.waitProgress(startFrac) {
			return
		}
		p.markStart()
		if err := r.cl.DrainIOD(iod, 15*time.Second); err != nil {
			r.violation(fmt.Errorf("chaos: DrainIOD(%d): %w", iod, err))
		}
		r.cfg.Log("chaos: drained iod %d", iod)
		p.hold(dur)
		if err := r.cl.RejoinIOD(iod); err != nil {
			r.violation(fmt.Errorf("chaos: RejoinIOD(%d): %w", iod, err))
		}
		p.markEnd()
		r.cfg.Log("chaos: rejoined iod %d", iod)

	case "restart":
		// Same mid-flush trigger as crash, but the daemon really dies:
		// ports close, the backend fail-stops (dirty cache and buffered
		// state gone), and a fresh daemon reboots from the same directory
		// — journal replay under live traffic. The controller Cut keeps
		// clients from racing the reboot; Restore lifts it only after the
		// new daemon is listening.
		if !p.cutOnFlush(iod, addr) {
			return
		}
		if err := r.cl.CrashIOD(iod); err != nil {
			r.violation(fmt.Errorf("chaos: CrashIOD(%d): %w", iod, err))
		}
		r.cfg.Log("chaos: killed iod %d", iod)
		p.hold(dur)
		if err := r.cl.RestartIOD(iod); err != nil {
			r.violation(fmt.Errorf("chaos: RestartIOD(%d): %w", iod, err))
		}
		r.ctl.Restore(addr)
		p.markEnd()
		r.cfg.Log("chaos: rebooted iod %d from its data dir", iod)
	}
}

// cutOnFlush arms a short write of one of the next Flush frames to iod's
// address, whose hook cuts the address, and waits for it to fire: the
// stream sees a torn frame exactly as a crashed peer would leave it,
// while reads on the same address pass until the cut. The arm gets one
// last chance after the workload drains (dirty data still flushes on the
// period). It reports false when the arm never fired and was disarmed —
// the fault sat the run out.
func (p *faultPlan) cutOnFlush(iod int, addr string) bool {
	trig := make(chan struct{})
	p.r.ctl.ArmShortWrite(addr, wire.TFlush, p.rng.Intn(2), func() {
		p.markStart()
		p.r.ctl.Cut(addr)
		close(trig)
	})
	p.r.cfg.Log("chaos: armed a cut of iod %d on a Flush frame", iod)
	select {
	case <-trig:
	case <-p.stop:
		select {
		case <-trig:
		case <-time.After(2 * p.r.cfg.FlushPeriod):
			if p.r.ctl.Disarm(addr) {
				return false
			}
			<-trig // fired concurrently with the disarm race
		}
	}
	p.r.cfg.Log("chaos: cut iod %d mid-Flush", iod)
	return true
}

// finish ends the plan: signals the run is over, waits for the scheduler
// to heal/restore whatever it applied, and leaves the window marks set.
func (p *faultPlan) finish() {
	close(p.stop)
	<-p.done
}
