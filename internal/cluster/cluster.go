// Package cluster assembles a complete live system: one metadata server,
// a set of I/O daemons (one address each), and a
// cache module per client node. It is the programmatic equivalent of
// booting the paper's 6-node testbed, over either the in-memory transport
// (tests, examples, benchmarks) or TCP (the cmd/ binaries).
package cluster

import (
	"errors"
	"fmt"
	"path/filepath"
	"strconv"
	"time"

	"pvfscache/internal/admin"
	"pvfscache/internal/cachemod"
	"pvfscache/internal/globalcache"
	"pvfscache/internal/iod"
	"pvfscache/internal/metrics"
	"pvfscache/internal/mgr"
	"pvfscache/internal/pvfs"
	"pvfscache/internal/storage"
	"pvfscache/internal/storage/disk"
	"pvfscache/internal/storage/mem"
	"pvfscache/internal/transport"
)

// Config describes the cluster to boot.
type Config struct {
	// Network carries all traffic. Nil uses a fresh in-memory network.
	Network transport.Network
	// NodeNetwork, when set, supplies the Network a given client node's
	// traffic dials through (its cache module's iod connections and its
	// processes' mgr connections). Server listeners and iod-originated
	// dials keep using Network. The chaos harness uses this to give each
	// node a labeled fault-injection view of one underlying fabric, so
	// faults can partition node traffic directionally; outside of fault
	// injection leave it nil.
	NodeNetwork func(node int) transport.Network
	// IODs is the number of I/O daemons (default 4).
	IODs int
	// ClientNodes is the number of compute nodes that may run application
	// processes (default 2). Each gets its own cache module when Caching
	// is set.
	ClientNodes int
	// Caching enables the per-node cache module — the paper's "caching
	// version". When false the cluster behaves like original PVFS.
	Caching bool
	// Module is the template every node's cache-module config is copied
	// from; its zero value is the paper's configuration (see
	// cachemod.Config). Module.Buffer.BlockSize also sizes the iods'
	// blocks. Per node, moduleConfig overwrites exactly these fields:
	// Network, ClientID, IODDataAddrs, Registry and
	// GlobalCache (the wiring), Buffer.Capacity (from CacheBlocks) and
	// FlushPeriod.
	Module cachemod.Config
	// CacheBlocks is the per-node cache capacity in blocks (default 300,
	// i.e. the paper's 1.2 MB).
	CacheBlocks int
	// FlushPeriod overrides the flush streams' interval (default 1s;
	// tests use shorter).
	FlushPeriod time.Duration
	// GlobalCache enables the cooperative global cache extension: node
	// caches serve each other misses before the iods are consulted. Each
	// module joins the mgr's epoch-versioned membership view, so nodes
	// added later (AddCacheNode) enter the ring live.
	GlobalCache bool
	// Backend selects the iods' storage engine: "" or "mem" for the
	// in-memory simdisk store, "disk" for the WAL-backed on-disk engine
	// (requires DataDir).
	Backend string
	// DataDir is the disk backend's root; each iod gets an `iod<N>`
	// subdirectory. Required when Backend is "disk". A directory left by
	// a previous (possibly crashed) cluster is recovered on boot.
	DataDir string
	// Fsync is the disk backend's journal fsync policy: "osync",
	// "interval", or "onclose" (default). See disk.ParsePolicy.
	Fsync string
	// AdminAddr, when non-empty, starts one admin HTTP endpoint (metrics,
	// pprof, trace mode; see internal/admin) per caching client node on a
	// real TCP socket — even when the cluster itself runs the in-memory
	// transport. Use "127.0.0.1:0" to let each node pick a free port; the
	// bound addresses land in Cluster.AdminAddrs.
	AdminAddr string
	// Registry collects metrics from every component; nil creates one.
	Registry *metrics.Registry
}

// Cluster is a running system.
type Cluster struct {
	Network transport.Network
	Mgr     *mgr.Server
	IODs    []*iod.Server
	Modules []*cachemod.Module // indexed by client node; nil without caching
	Reg     *metrics.Registry

	// Admins holds each caching node's admin endpoint (nil entries when
	// Config.AdminAddr is empty); AdminAddrs the bound TCP addresses.
	Admins     []*admin.Server
	AdminAddrs []string

	MgrAddr      string
	IODDataAddrs []string

	// Backends holds each iod's storage backend; the cluster owns their
	// lifecycle (iod.Close never closes its backend) so CrashIOD /
	// RestartIOD can reboot a daemon onto recovered on-disk state.
	Backends []storage.Backend

	cfg       Config
	listeners []transport.Listener // mgr listener(s)
	iodPorts  []transport.Listener // one listener per iod
	nextProc  map[int]int
	nodeNet   func(node int) transport.Network
}

// newBackend builds iod i's storage backend from the cluster config.
func newBackend(cfg Config, i int) (storage.Backend, error) {
	switch cfg.Backend {
	case "", "mem":
		return mem.New(), nil
	case "disk":
		if cfg.DataDir == "" {
			return nil, errors.New("cluster: Backend \"disk\" requires DataDir")
		}
		pol, err := disk.ParsePolicy(cfg.Fsync)
		if err != nil {
			return nil, err
		}
		return disk.Open(disk.Options{
			Dir:   filepath.Join(cfg.DataDir, fmt.Sprintf("iod%d", i)),
			Fsync: pol,
		})
	}
	return nil, fmt.Errorf("cluster: unknown backend %q (want \"mem\" or \"disk\")", cfg.Backend)
}

// nodeNetwork resolves the Network a client node dials through.
func (c *Cluster) nodeNetwork(node int) transport.Network {
	if c.nodeNet != nil {
		if n := c.nodeNet(node); n != nil {
			return n
		}
	}
	return c.Network
}

// Start boots the cluster.
func Start(cfg Config) (*Cluster, error) {
	if cfg.Network == nil {
		cfg.Network = transport.NewMem()
	}
	if cfg.IODs <= 0 {
		cfg.IODs = 4
	}
	if cfg.ClientNodes <= 0 {
		cfg.ClientNodes = 2
	}
	if cfg.Registry == nil {
		cfg.Registry = metrics.NewRegistry()
	}
	c := &Cluster{
		Network:  cfg.Network,
		nodeNet:  cfg.NodeNetwork,
		Reg:      cfg.Registry,
		cfg:      cfg,
		nextProc: make(map[int]int),
	}

	// Metadata server.
	c.Mgr = mgr.New(cfg.IODs, cfg.Registry)
	ml, err := cfg.Network.Listen(":0")
	if err != nil {
		return nil, fmt.Errorf("cluster: mgr listener: %w", err)
	}
	c.listeners = append(c.listeners, ml)
	c.MgrAddr = ml.Addr()
	go c.Mgr.Serve(ml)

	// I/O daemons: one listener each, over a storage
	// backend the cluster owns (so a daemon can be crashed and rebooted
	// onto the same backend directory).
	c.IODs = make([]*iod.Server, cfg.IODs)
	c.iodPorts = make([]transport.Listener, cfg.IODs)
	c.IODDataAddrs = make([]string, cfg.IODs)
	for i := range c.IODDataAddrs {
		be, err := newBackend(cfg, i)
		if err != nil {
			c.Close()
			return nil, fmt.Errorf("cluster: iod %d backend: %w", i, err)
		}
		c.Backends = append(c.Backends, be)
		if err := c.bootIOD(i, be, ":0"); err != nil {
			c.Close()
			return nil, err
		}
	}

	// Cache modules, one per client node. With the global cache enabled
	// each module joins the mgr's membership view at boot, so the first
	// epochs are the boot joins and later AddCacheNode calls simply keep
	// bumping the same view. A node knows only the view of its own join,
	// so once every node has joined each one is brought to the final
	// view: none starts out routing the later joiners' blocks to itself.
	if cfg.Caching {
		for node := 0; node < cfg.ClientNodes; node++ {
			mod, err := cachemod.New(c.moduleConfig(node))
			if err != nil {
				c.Close()
				return nil, fmt.Errorf("cluster: cache module for node %d: %w", node, err)
			}
			c.Modules = append(c.Modules, mod)
			if err := c.startAdmin(node, mod); err != nil {
				c.Close()
				return nil, err
			}
		}
		for node, mod := range c.Modules {
			if gc := mod.GlobalCacheNode(); gc != nil {
				if _, err := gc.Refresh(); err != nil {
					c.Close()
					return nil, fmt.Errorf("cluster: global-cache view for node %d: %w", node, err)
				}
			}
		}
	} else {
		c.Modules = make([]*cachemod.Module, cfg.ClientNodes)
	}
	return c, nil
}

// bootIOD boots daemon i over be on a fresh listener at addr (":0" picks
// one) and serves it, filling the daemon's slots.
func (c *Cluster) bootIOD(i int, be storage.Backend, addr string) error {
	dl, err := c.Network.Listen(addr)
	if err != nil {
		return fmt.Errorf("cluster: iod %d listener: %w", i, err)
	}
	d := iod.NewWithBackend(i, c.cfg.Module.Buffer.BlockSize, c.Network, c.Reg, be)
	c.IODs[i], c.iodPorts[i], c.IODDataAddrs[i] = d, dl, dl.Addr()
	go d.ServeData(dl)
	return nil
}

// startAdmin boots a node's admin endpoint when Config.AdminAddr is set.
// The Collect hook refreshes gauges computed from live module state —
// per-tenant dirty residency above all — at scrape time, so the data path
// never maintains labeled gauges.
func (c *Cluster) startAdmin(node int, mod *cachemod.Module) error {
	if c.cfg.AdminAddr == "" {
		c.Admins = append(c.Admins, nil)
		c.AdminAddrs = append(c.AdminAddrs, "")
		return nil
	}
	nodeTag := strconv.Itoa(node)
	srv, err := admin.Start(c.cfg.AdminAddr, admin.Config{
		Registry: c.Reg,
		Tracer:   mod,
		Collect: func(r *metrics.Registry) {
			for tenant, n := range mod.Buffer().DirtyByTenant() {
				name := metrics.Labeled("module.tenant_dirty_blocks",
					"node", nodeTag, "tenant", strconv.FormatUint(uint64(tenant), 10))
				r.Gauge(name).Set(int64(n))
			}
			r.Gauge(metrics.Labeled("module.dirty_blocks", "node", nodeTag)).
				Set(int64(mod.Buffer().DirtyCount()))
		},
	})
	if err != nil {
		return fmt.Errorf("cluster: admin endpoint for node %d: %w", node, err)
	}
	c.Admins = append(c.Admins, srv)
	c.AdminAddrs = append(c.AdminAddrs, srv.Addr())
	return nil
}

// moduleConfig builds one client node's cache-module config: the
// Config.Module template with the fields its doc names written over it.
func (c *Cluster) moduleConfig(node int) cachemod.Config {
	mc := c.cfg.Module
	mc.Network = c.nodeNetwork(node)
	mc.ClientID = uint32(node + 1)
	mc.IODDataAddrs = c.IODDataAddrs
	mc.Registry = c.Reg
	mc.GlobalCache = nil
	if c.cfg.GlobalCache {
		mc.GlobalCache = &globalcache.Options{SelfID: uint32(node), MgrAddr: c.MgrAddr}
	}
	mc.Buffer.Capacity = c.cfg.CacheBlocks
	mc.FlushPeriod = c.cfg.FlushPeriod
	return mc
}

// AddCacheNode boots one more caching client node after the cluster is
// up: its module joins the live global-cache membership view (bumping the
// epoch), and subsequent pushes and gets spread across the grown ring. It
// returns the new node's index, usable with NewProcess and Module.
func (c *Cluster) AddCacheNode() (int, error) {
	if !c.cfg.Caching {
		return 0, errors.New("cluster: AddCacheNode requires Caching")
	}
	node := len(c.Modules)
	mod, err := cachemod.New(c.moduleConfig(node))
	if err != nil {
		return 0, fmt.Errorf("cluster: cache module for node %d: %w", node, err)
	}
	c.Modules = append(c.Modules, mod)
	if err := c.startAdmin(node, mod); err != nil {
		return 0, err
	}
	return node, nil
}

// NewProcess returns a PVFS client representing one application process on
// the given client node. With caching enabled the process shares the
// node's cache module with every other process on that node; without it
// the process gets direct connections, like original PVFS.
func (c *Cluster) NewProcess(node int) (*pvfs.Client, error) {
	if node < 0 || node >= len(c.Modules) {
		return nil, fmt.Errorf("cluster: node %d out of range", node)
	}
	cfg := pvfs.Config{
		Network:  c.nodeNetwork(node),
		MgrAddr:  c.MgrAddr,
		IODAddrs: c.IODDataAddrs,
		ClientID: uint32(node + 1),
	}
	if mod := c.Modules[node]; mod != nil {
		cfg.Transport = mod.NewTransport()
	}
	return pvfs.NewClient(cfg)
}

// Module returns the cache module of a node (nil without caching).
func (c *Cluster) Module(node int) *cachemod.Module {
	if node < 0 || node >= len(c.Modules) {
		return nil
	}
	return c.Modules[node]
}

// FlushAll drains every node's dirty blocks to the iods.
func (c *Cluster) FlushAll() error {
	var firstErr error
	for _, m := range c.Modules {
		if m == nil {
			continue
		}
		if err := m.FlushAll(); err != nil && firstErr == nil {
			firstErr = err
		}
	}
	return firstErr
}

// CrashIOD fail-stops daemon i: its listener closes, in-flight requests
// die at the clients, and the backend drops its volatile state exactly
// like a killed process would (a disk backend keeps its directory; the
// mem backend loses everything — that asymmetry is the point). The
// daemon's slots stay in place so RestartIOD can reboot it.
func (c *Cluster) CrashIOD(i int) error {
	if i < 0 || i >= len(c.IODs) {
		return fmt.Errorf("cluster: iod %d out of range", i)
	}
	c.iodPorts[i].Close()
	c.IODs[i].Close()
	be := c.Backends[i]
	if cr, ok := be.(storage.Crasher); ok {
		return cr.Crash()
	}
	return be.Close()
}

// RestartIOD reboots daemon i after CrashIOD: a fresh backend opens
// from the same configuration (the disk backend replays its journal
// from the same directory), and a fresh daemon re-listens on the same
// address, so clients and flush streams reconnect without
// reconfiguration. The coherence directory is volatile daemon state and
// starts empty — documented in DESIGN.md §11.
func (c *Cluster) RestartIOD(i int) error {
	if i < 0 || i >= len(c.IODs) {
		return fmt.Errorf("cluster: iod %d out of range", i)
	}
	be, err := newBackend(c.cfg, i)
	if err != nil {
		return fmt.Errorf("cluster: iod %d restart backend: %w", i, err)
	}
	if err := c.bootIOD(i, be, c.IODDataAddrs[i]); err != nil {
		be.Close()
		return err
	}
	c.Backends[i] = be
	return nil
}

// DrainIOD gracefully retires daemon i, in contrast to CrashIOD's
// fail-stop: the daemon first stops admitting new coherence holders, then
// every cache module flushes the dirty blocks it owes the daemon
// (directed at that iod's stream only), the daemon invalidates and drops
// its remaining directory entries, and only then does its listener close. The
// storage backend stays open and keeps its data — a graceful exit hands
// its state off rather than losing it — so RejoinIOD can bring the
// daemon back without recovery. timeout bounds the whole flush wait.
func (c *Cluster) DrainIOD(i int, timeout time.Duration) error {
	if i < 0 || i >= len(c.IODs) {
		return fmt.Errorf("cluster: iod %d out of range", i)
	}
	deadline := time.Now().Add(timeout)
	d := c.IODs[i]
	d.StartDrain()
	var firstErr error
	for _, m := range c.Modules {
		if m == nil {
			continue
		}
		if err := m.DrainIOD(i, deadline); err != nil && firstErr == nil {
			firstErr = err
		}
	}
	if _, err := d.DrainHolders(); err != nil && firstErr == nil {
		firstErr = err
	}
	c.iodPorts[i].Close()
	d.Close()
	return firstErr
}

// RejoinIOD brings a drained daemon back: a fresh daemon re-listens on
// the same address over the still-open backend DrainIOD handed off, so
// no journal recovery runs and no data moved. (After CrashIOD use
// RestartIOD, which reopens the backend through recovery.)
func (c *Cluster) RejoinIOD(i int) error {
	if i < 0 || i >= len(c.IODs) {
		return fmt.Errorf("cluster: iod %d out of range", i)
	}
	return c.bootIOD(i, c.Backends[i], c.IODDataAddrs[i])
}

// Close stops admin endpoints, modules, listeners, daemons, and backends.
func (c *Cluster) Close() error {
	var firstErr error
	note := func(err error) {
		if err != nil && firstErr == nil {
			firstErr = err
		}
	}
	for _, a := range c.Admins {
		if a != nil {
			note(a.Close())
		}
	}
	for _, m := range c.Modules {
		if m != nil {
			note(m.Close())
		}
	}
	for _, l := range c.listeners {
		if err := l.Close(); !errors.Is(err, transport.ErrClosed) {
			note(err)
		}
	}
	for _, l := range c.iodPorts {
		// A nil slot is an iod that Start never got to boot.
		if l == nil {
			continue
		}
		if err := l.Close(); !errors.Is(err, transport.ErrClosed) {
			note(err)
		}
	}
	note(c.Mgr.Close())
	for _, d := range c.IODs {
		if d != nil {
			note(d.Close())
		}
	}
	for _, be := range c.Backends {
		note(be.Close())
	}
	return firstErr
}
