// Package cachemod implements the paper's contribution: a per-node cache
// module that interposes between libpvfs and the I/O daemons and services
// the requests of every application process on the node from one shared
// block cache.
//
// The kernel module of the paper intercepts libpvfs's socket calls; here
// the same interception happens at the pvfs.Transport boundary, which
// carries exactly the traffic those socket calls carry. Per request the
// module:
//
//   - checks which blocks are already cached and discounts them, then
//     fetches all the missing runs of the request in one vectored
//     sub-request per iod (wire.ReadBlocks) — a cached block in the middle
//     of a request costs an extent boundary, not an extra round trip;
//   - returns control to libpvfs with the transfers marked pending, and
//     fakes the acknowledgments locally — libpvfs's subsequent receive
//     calls complete from the cache module's state machine;
//   - detects ascending per-file scans and prefetches a configurable
//     window of upcoming blocks through the same vectored path
//     (sequential readahead; see readahead.go), never displacing dirty
//     data;
//   - performs writes into the cache and returns immediately, leaving the
//     propagation to the pipelined write-behind engine: one flush stream
//     per iod, each keeping a bounded window of coalesced-run Flush
//     frames in flight, all iods draining in parallel (see flusher.go);
//   - runs a harvester thread that refills the free list between a low and
//     a high watermark so allocations do not pay eviction latency;
//   - moves read bytes zero-copy: libpvfs hands down the caller's buffer
//     regions (pvfs.ReadSinker) and every span — cache hit, fetch join,
//     fetched run — is copied straight into them, while fetched images
//     live in pooled, reference-counted slabs rather than per-request
//     allocations (see DESIGN.md §4 "Buffer ownership and lifetimes").
//
// One Module runs per node. Each application process obtains its own
// pvfs.Transport from NewTransport; all of them share the cache — which is
// what makes inter-application data sharing pay off — as well as the fetch
// table that deduplicates concurrent fetches of the same block across
// processes and the prefetcher. How a block gets from an iod into the
// cache — claim, land, settle, and the ownership rules between them — is
// one protocol; it lives in fetch.go.
package cachemod

import (
	"errors"
	"fmt"
	"maps"
	"sync"
	"sync/atomic"
	"time"

	"pvfscache/internal/blockio"
	"pvfscache/internal/cachemod/buffer"
	"pvfscache/internal/globalcache"
	"pvfscache/internal/metrics"
	"pvfscache/internal/pvfs"
	"pvfscache/internal/rpc"
	"pvfscache/internal/transport"
	"pvfscache/internal/wire"
)

// Config assembles a Module.
type Config struct {
	// Network reaches the iods and hosts the invalidation listener.
	Network transport.Network
	// ClientID identifies this node's cache to the iods. Must be nonzero.
	ClientID uint32
	// IODDataAddrs lists every iod's address, in cluster order. Reads,
	// sync-writes and the flush streams' frames share its connections.
	IODDataAddrs []string
	// Buffer sizes the block cache (see buffer.Config for defaults: 300
	// blocks of 4 KB — the paper's 1.2 MB cache).
	Buffer buffer.Config
	// FlushPeriod is each flush stream's wake-up interval (default 1s).
	FlushPeriod time.Duration
	// FlushWindow is each stream's bound on concurrent Flush frames in
	// flight to its iod (default 4; 1 = one blocking round trip at a time).
	// It bounds frames only: a burst takes at most flushBurst blocks
	// whatever the window.
	// Kept on purpose: the antagonist wall needs 1 so a browned-out iod
	// paces its own drain, and the drain benchmarks use 1 as their control.
	FlushWindow int
	// WriteStall is a deadline on flush progress (default 2s): a write that
	// finds no frame, or a sync-write behind its block's in-flight flush,
	// waits while flush acks or harvests keep coming, and the wait restarts
	// at each one. When WriteStall passes with none, the write is shed with
	// StatusOverload: the bytes of the span that found no frame never reach
	// the iod, and the client's overload retry re-issues the operation.
	WriteStall time.Duration
	// TenantDirtyQuota bounds one tagged tenant's share of the cache's
	// dirty frames: a tenant may hold at most TenantDirtyQuota × capacity
	// × weight dirty blocks before its buffered writes are shed with
	// StatusOverload (after a bounded OverloadStall wait for flush
	// progress). 0 (the default) disables the quota. Untagged traffic
	// (tenant 0) is never shed — quotas only constrain principals that
	// opted into tagging, so existing workloads see no behaviour change.
	TenantDirtyQuota float64
	// TenantFetchBudget bounds one tagged tenant's in-flight read blocks:
	// a read whose block count would push the tenant past
	// TenantFetchBudget × weight outstanding blocks is shed with
	// StatusOverload instead of queueing unboundedly. A request larger
	// than the whole budget is admitted alone (when nothing else is in
	// flight) rather than wedged forever. 0 (the default) disables the
	// budget.
	TenantFetchBudget int
	// OverloadStall bounds how long an over-quota write waits for flush
	// progress before shedding (default 20ms), in all: unlike WriteStall it
	// does not restart at each sign of progress. Deliberately much shorter
	// than WriteStall: a quota shed is a fast, explicit retry signal
	// (wire.StatusOverload → pvfs.Client backoff), not a stall.
	OverloadStall time.Duration
	// ReadaheadWindow is how many blocks the scan-readahead prefetcher
	// keeps in flight ahead of a detected scan — ascending, strided or
	// backward (default 8, capped at 1024; negative disables readahead).
	// Prefetches travel the same vectored read path as demand misses and
	// never displace dirty data: insertion only evicts clean blocks, and
	// a prefetched copy of a partially dirty block preserves the dirty
	// bytes. Readahead needs striping hints (see CachedTransport
	// StripeHint) to know which iod holds each upcoming block; files
	// without a hint are never prefetched.
	ReadaheadWindow int
	// GlobalCache, when non-nil, enables the cooperative global cache
	// extension (the paper's §5 ongoing work): this module serves its
	// blocks to peers and probes a block's replica set before fetching
	// from the iods. The node listens wherever it can (":0"), joins the
	// mgr's epoch-versioned view at MgrAddr and advertises the address it
	// got (see globalcache.Options).
	GlobalCache *globalcache.Options
	// Registry receives the module's counters; nil uses a private one.
	Registry *metrics.Registry
}

func (c *Config) fillDefaults() error {
	if c.Network == nil {
		return errors.New("cachemod: Config.Network is required")
	}
	if c.ClientID == 0 {
		return errors.New("cachemod: Config.ClientID must be nonzero")
	}
	if len(c.IODDataAddrs) == 0 {
		return errors.New("cachemod: Config.IODDataAddrs is required")
	}
	if c.FlushPeriod <= 0 {
		c.FlushPeriod = time.Second
	}
	if c.FlushWindow <= 0 {
		c.FlushWindow = 4
	}
	if c.WriteStall <= 0 {
		c.WriteStall = 2 * time.Second
	}
	if c.TenantDirtyQuota < 0 {
		c.TenantDirtyQuota = 0 // disabled
	}
	if c.TenantDirtyQuota > 1 {
		c.TenantDirtyQuota = 1
	}
	if c.TenantFetchBudget < 0 {
		c.TenantFetchBudget = 0 // disabled
	}
	if c.OverloadStall <= 0 {
		c.OverloadStall = 20 * time.Millisecond
	}
	if c.ReadaheadWindow == 0 {
		c.ReadaheadWindow = 8
	}
	if c.ReadaheadWindow < 0 {
		c.ReadaheadWindow = 0 // disabled
	}
	if c.ReadaheadWindow > 1024 {
		c.ReadaheadWindow = 1024
	}
	if c.Registry == nil {
		c.Registry = metrics.NewRegistry()
	}
	c.Buffer.Registry = c.Registry
	return nil
}

// Module is the per-node cache module.
type Module struct {
	cfg Config
	ctr counters
	buf *buffer.Manager

	data []*rpc.Client // per-iod clients (module-owned, pooled)

	// slabs recycles the pooled buffers fetched images land in; fetchTable
	// deduplicates in-flight fetches (see fetch.go for both).
	slabs slabPool
	fetchTable

	// files is the module's one per-file table (see fileState): one lock,
	// taken shared on the request path, one bound, one eviction rule. qos,
	// the per-tenant QoS states the records point at (see qos.go), shares
	// the lock.
	filesMu sync.RWMutex
	files   map[blockio.FileID]*fileState
	qos     map[uint32]*tenantState

	// traceArm counts requests still to be traced (ArmTrace); traces is
	// the bounded ring of captured per-request hop logs (see trace.go).
	traceArm atomic.Int64
	traceMu  sync.Mutex
	traces   []string

	// progress is signalled by every flush ack and every harvest that
	// frees frames; every wait in the module waits on it (see await).
	progress progress

	invalListener transport.Listener
	invalServer   *rpc.Server

	gcNode *globalcache.Node // nil without the global cache

	// streams is the pipelined write-behind engine: one flush stream per
	// iod (see flusher.go).
	streams []*flushStream

	// prefetchQ hands readahead rounds to the prefetch workers (see
	// readahead.go); unbuffered, so a send is a handoff.
	prefetchQ  chan *prefetchJob
	prefetchWG sync.WaitGroup

	harvestKick chan struct{}
	stop        chan struct{}
	stopOnce    sync.Once
	wg          sync.WaitGroup
}

// New builds and starts a module: background threads launch and the
// invalidation listener opens. The module registers with an iod on every
// connection it opens to it (see registeringNetwork), so New itself
// contacts no iod.
func New(cfg Config) (*Module, error) {
	if err := cfg.fillDefaults(); err != nil {
		return nil, err
	}
	m := &Module{
		cfg:         cfg,
		ctr:         newCounters(cfg.Registry),
		buf:         buffer.New(cfg.Buffer),
		fetchTable:  fetchTable{fetches: make(map[blockio.BlockKey]*fetchState)},
		files:       make(map[blockio.FileID]*fileState),
		qos:         make(map[uint32]*tenantState),
		prefetchQ:   make(chan *prefetchJob),
		harvestKick: make(chan struct{}, 1),
		stop:        make(chan struct{}),
	}
	l, err := cfg.Network.Listen(":0")
	if err != nil {
		return nil, fmt.Errorf("cachemod: invalidation listener: %w", err)
	}
	m.invalListener = l
	m.invalServer = rpc.NewServer(rpc.HandlerFunc(m.handleInvalidate), rpc.ServerConfig{})
	m.wg.Add(1)
	go func() {
		defer m.wg.Done()
		m.invalServer.Serve(l)
	}()
	iodNet := registeringNetwork{Network: cfg.Network, reg: wire.Register{Client: cfg.ClientID, Addr: l.Addr()}}
	for _, addr := range cfg.IODDataAddrs {
		m.data = append(m.data, rpc.NewClient(rpc.ClientConfig{Network: iodNet, Addr: addr}))
	}

	if cfg.GlobalCache != nil {
		l, err := cfg.Network.Listen(":0")
		if err != nil {
			m.Close()
			return nil, fmt.Errorf("cachemod: global-cache listener: %w", err)
		}
		m.gcNode, err = globalcache.Start(*cfg.GlobalCache, m.buf, l, cfg.Network, cfg.Registry)
		if err != nil {
			l.Close()
			m.Close()
			return nil, err
		}
	}

	for i, rc := range m.data {
		s := &flushStream{m: m, iod: i, client: rc, kick: make(chan struct{}, 1),
			window: make(chan struct{}, m.cfg.FlushWindow)}
		m.streams = append(m.streams, s)
		m.wg.Add(1)
		go s.loop()
	}
	m.wg.Add(1)
	go m.harvesterLoop()
	if cfg.ReadaheadWindow > 0 {
		m.startPrefetchWorkers()
	}
	return m, nil
}

// registeringNetwork dials the module's iod connections: a fresh
// connection carries one Register round trip before the rpc client may
// send anything on it, whether it goes on to carry reads, sync-writes or
// flush frames. An iod keeps client addresses only in memory, so one that
// restarted or rejoined learns this cache's invalidation address before
// the cache's first request on the new connection can make it a holder
// of any block.
type registeringNetwork struct {
	transport.Network
	reg wire.Register
}

func (n registeringNetwork) Dial(addr string) (transport.Conn, error) {
	conn, err := n.Network.Dial(addr)
	if err != nil {
		return nil, err
	}
	if err := n.register(conn); err != nil {
		conn.Close()
		return nil, fmt.Errorf("cachemod: registering with %s: %w", addr, err)
	}
	return conn, nil
}

func (n registeringNetwork) register(conn transport.Conn) error {
	if err := wire.WriteTagged(conn, 0, &n.reg); err != nil {
		return err
	}
	_, _, msg, payload, err := wire.ReadFrameAliased(conn)
	if err != nil {
		return err
	}
	wire.ReleasePayload(payload)
	ack, ok := msg.(*wire.RegisterAck)
	if !ok {
		return fmt.Errorf("register reply %v", msg.WireType())
	}
	return ack.Status.Err()
}

// Buffer exposes the underlying buffer manager (stats, tests).
func (m *Module) Buffer() *buffer.Manager { return m.buf }

// Registry returns the module's metrics registry.
func (m *Module) Registry() *metrics.Registry { return m.cfg.Registry }

// StreamHealth reports each flush stream's failure state, one entry per
// iod in cluster order. Tests and the chaos harness use it to watch a
// stream enter backoff when its daemon dies and recover when the daemon
// returns.
func (m *Module) StreamHealth() []StreamHealth {
	out := make([]StreamHealth, len(m.streams))
	for i, s := range m.streams {
		out[i] = StreamHealth{
			IOD:     s.iod,
			Failing: s.failing.Load(),
			Errors:  s.errors.Load(),
			Backoff: time.Duration(s.backoff.Load()),
		}
	}
	return out
}

// Close flushes all dirty blocks, stops the background threads and closes
// every connection.
func (m *Module) Close() error {
	var err error
	m.stopOnce.Do(func() {
		// Final flush: drain the dirty list before tearing down.
		err = m.FlushAll()
		close(m.stop)
		if m.gcNode != nil {
			m.gcNode.Close()
		}
		m.invalListener.Close()
		m.invalServer.Close()
		m.wg.Wait()
		for _, rc := range m.data {
			rc.Close()
		}
		m.prefetchWG.Wait()
	})
	return err
}

// --- background threads ---

// flushAllTimeout bounds how long FlushAll tolerates a complete stall: no
// drop in the dirty count at all. It is a deadline on progress, not a
// retry budget — it resets every time the dirty count reaches a new low,
// so a large backlog draining slowly (or a single in-flight round slower
// than the timeout's worth of other rounds) never trips it.
const flushAllTimeout = 30 * time.Second

// awaitPoll is how often a wait re-checks its condition with no progress
// signal in between: a failed flush chunk clears its blocks' in-flight
// tokens (making evictable any frame an invalidation emptied mid-flush),
// and an invalidation drops blocks, without one; and FlushAll and DrainIOD
// re-kick their streams this often.
const awaitPoll = 50 * time.Millisecond

// FlushAll synchronously drains the entire dirty list (used on Close and
// by tests needing durability): it kicks every flush stream and waits for
// the dirty count to reach zero, so the drain runs at the full pipelined
// width — all iods in parallel, FlushWindow frames each — rather than as
// one serial sweep. Blocks already in flight on a stream are invisible to
// TakeDirtyOwned, so FlushAll simply waits for those frames to land; it
// errors only after flushAllTimeout passes without the dirty count making
// any progress — which means an iod is persistently refusing flushes, since
// every failed chunk re-queues its blocks for the stream's next (backed
// off) attempt. (With concurrent writers continuously re-dirtying the
// cache, "progress" means a new low-water mark of the dirty count; a
// steady state that never drains still errors after the timeout rather
// than blocking forever.)
func (m *Module) FlushAll() error {
	minSeen := m.buf.DirtyCount()
	n, lastKick := minSeen, time.Time{} // the first check kicks
	if m.await(flushAllTimeout, func(bool) (done, progressed bool) {
		if n = m.buf.DirtyCount(); n < minSeen {
			minSeen, progressed = n, true
		}
		// Re-kick sparingly. A kicked stream drains its whole backlog and
		// a failing stream re-kicks itself after backoff, so most
		// wake-ups need no new kick — kicking at every ack would have
		// every idle stream re-scanning all shards for nothing. But
		// concurrent writers can dirty blocks after a stream's round
		// ended, and a block re-dirtied while in flight becomes eligible
		// only once its ack lands, so nudge the streams periodically.
		if n > 0 && time.Since(lastKick) >= awaitPoll {
			m.kickAllStreams()
			lastKick = time.Now()
		}
		return n == 0, progressed
	}) {
		return nil
	}
	return fmt.Errorf("cachemod: %d dirty blocks remain after FlushAll stalled for %v", n, flushAllTimeout)
}

// harvesterLoop is the paper's harvester kernel thread: whenever the free
// list falls below the low watermark it frees blocks up to the high
// watermark, preferring clean victims; if everything evictable is dirty it
// kicks every flush stream.
func (m *Module) harvesterLoop() {
	defer m.wg.Done()
	ticker := time.NewTicker(m.cfg.FlushPeriod / 4)
	defer ticker.Stop()
	for {
		select {
		case <-m.stop:
			return
		case <-ticker.C:
		case <-m.harvestKick:
		}
		if m.buf.NeedsHarvest() {
			freed := m.buf.Harvest()
			m.ctr.harvested.Add(int64(freed))
			if m.buf.NeedsHarvest() {
				m.kickAllStreams()
			}
			if freed > 0 {
				m.progress.signal()
			}
		}
	}
}

// handleInvalidate serves one Invalidate from an iod (via the module's
// rpc server on the invalidation listener).
func (m *Module) handleInvalidate(msg wire.Message) wire.Message {
	inv, ok := msg.(*wire.Invalidate)
	if !ok {
		return nil
	}
	for _, idx := range inv.Indices {
		key := blockio.BlockKey{File: inv.File, Index: idx}
		if inv.Drain {
			m.buf.InvalidateClean(key)
		} else {
			m.buf.Invalidate(key)
		}
	}
	m.ctr.invalidationsRx.Inc()
	return &wire.InvalidAck{Status: wire.StatusOK}
}

// --- helpers shared with the transport FSM ---

// GlobalCacheNode exposes the module's global-cache node, or nil when the
// global cache is disabled. Chaos harnesses and tests use it to inspect
// the membership ring or fail-stop the peer service.
func (m *Module) GlobalCacheNode() *globalcache.Node { return m.gcNode }

// KillPeerService fail-stops this node's global-cache service without
// touching the rest of the module: peers see connection errors and fail
// over, while this node keeps serving its applications (and keeps its
// client side, so its own reads still probe the surviving peers).
func (m *Module) KillPeerService() {
	if m.gcNode != nil {
		m.gcNode.KillService()
	}
}

// DrainIOD flushes every dirty block owned by iod and waits until none
// remain or the deadline passes. It is the cache-module half of a graceful
// iod drain: the caller quiesces writers for the target iod, drains here,
// and only then retires the daemon. Unlike FlushAll it is directed — only
// the target iod's stream is kicked, so the other streams keep their
// write-behind period.
func (m *Module) DrainIOD(iod int, deadline time.Time) error {
	n := 0
	if m.await(time.Until(deadline), func(bool) (done, _ bool) {
		if n = m.buf.DirtyCountOwned(iod); n > 0 {
			kick(m.streams[iod].kick)
		}
		return n == 0, false
	}) {
		return nil
	}
	return fmt.Errorf("cachemod: drain iod %d: %d dirty blocks remain at deadline", iod, n)
}

// kickAllStreams wakes every flush stream: FlushAll's full-width drain,
// and every space-pressure kick (the harvester, a stalled or over-quota
// write, a dirty list past half the cache). A stream with nothing to take
// goes back to sleep after one scan, and a failing stream ignores kicks
// while it backs off, so waking them all never starves a healthy backlog
// behind a down iod.
func (m *Module) kickAllStreams() {
	for _, s := range m.streams {
		kick(s.kick)
	}
}

// progress is the module's one flush-progress signal, a generation
// channel: next hands out the channel the following signal closes, and
// signal closes it and clears it, so a signal with no waiter allocates
// nothing. A waiter takes the channel before it re-checks its condition,
// so a signal sent between the check and the wait is never lost: it has
// already closed the channel the waiter holds.
type progress struct {
	mu sync.Mutex
	ch chan struct{}
}

// next returns the channel the next signal closes.
func (p *progress) next() <-chan struct{} {
	p.mu.Lock()
	defer p.mu.Unlock()
	if p.ch == nil {
		p.ch = make(chan struct{})
	}
	return p.ch
}

// signal wakes every waiter.
func (p *progress) signal() {
	p.mu.Lock()
	if p.ch != nil {
		close(p.ch)
		p.ch = nil
	}
	p.mu.Unlock()
}

// await blocks until check reports done and returns true; it is the one
// wait of the module. check runs once up front and again at every
// progress signal and after every awaitPoll without one, each time after
// the next signal's channel was taken; signalled tells it whether a
// progress signal woke this run. stall is a deadline on progress: it
// restarts whenever check reports progressed, and once it has passed
// await returns the next check's verdict. A wait whose progress is the
// signal itself reports signalled, so the awaitPoll re-checks never push
// the deadline back. It returns false when the module stops. The wait
// keeps one timer, whatever the number of wake-ups, and takes it from a
// pool: a steady-state wait allocates only the channels it waits on.
func (m *Module) await(stall time.Duration, check func(signalled bool) (done, progressed bool)) bool {
	timer := timers.Get().(*time.Timer)
	defer func() { timer.Stop(); timers.Put(timer) }()
	deadline := time.Now().Add(stall)
	for signalled := false; ; {
		ch := m.progress.next()
		done, progressed := check(signalled)
		if progressed {
			deadline = time.Now().Add(stall)
		}
		left := time.Until(deadline)
		if done || left <= 0 {
			return done
		}
		timer.Reset(min(awaitPoll, left))
		select {
		case <-ch:
			signalled = true
		case <-timer.C:
			signalled = false
		case <-m.stop:
			return false
		}
	}
}

// timers recycles await's timers (await Resets one at each wake). A new timer
// is three allocations — the timer, its channel and the channel's buffer —
// on every FlushAll, DrainIOD and stalled write.
var timers = sync.Pool{New: func() any { return time.NewTimer(time.Hour) }}

// fileState is the module's one per-file record: what libpvfs announced
// about the file — striping geometry and largest size (StripeHint), cache
// policy (CachePolicyHint), tenant (TenantHint) — and the scan detector its
// reads drive. Only the hint methods create records (announce); a request
// resolves its file's record once (file) and a nil record means every
// default: no policy, untagged, never detected or prefetched. The policy and
// the tenant are single words every request reads, hence atomics; a request
// racing a hint change may legitimately see either side of it.
type fileState struct {
	policy atomic.Uint32               // pvfs.CachePolicy
	tenant atomic.Pointer[tenantState] // nil: untagged

	// mu is a leaf: never held across claim, the buffer or rpc.
	mu   sync.Mutex
	hint stripeHint // total == 0: no usable geometry announced
	ra   raState
}

// maxHintedFiles bounds the file table. Everything in a record re-arrives —
// hints on the next open or refresh, streaks within a few requests — so
// dropping one costs a brief lapse, not correctness.
const maxHintedFiles = 4096

// file returns id's record, nil when the file was never announced: the one
// table lookup of a request.
func (m *Module) file(id blockio.FileID) *fileState {
	m.filesMu.RLock()
	fs := m.files[id]
	m.filesMu.RUnlock()
	return fs
}

// announce returns id's record, creating it: the hint methods' entry. A
// full table first drops the records holding only what the next StripeHint
// or a few reads rebuild (geometry, detector); a policy or a tenant tag is
// lost only when hinted files alone fill the table, which resets it.
func (m *Module) announce(id blockio.FileID) *fileState {
	m.filesMu.Lock()
	defer m.filesMu.Unlock()
	fs := m.files[id]
	if fs == nil {
		if n := len(m.files); n >= maxHintedFiles {
			maps.DeleteFunc(m.files, func(_ blockio.FileID, rec *fileState) bool {
				policy, ts := rec.hints()
				return policy == pvfs.CacheDefault && ts == nil
			})
			if len(m.files) == n {
				clear(m.files)
			}
		}
		fs = &fileState{}
		m.files[id] = fs
	}
	return fs
}

// hints returns the file's cache policy and tenant (CacheDefault and nil
// for a file never announced).
func (fs *fileState) hints() (pvfs.CachePolicy, *tenantState) {
	if fs == nil {
		return pvfs.CacheDefault, nil
	}
	return pvfs.CachePolicy(fs.policy.Load()), fs.tenant.Load()
}
