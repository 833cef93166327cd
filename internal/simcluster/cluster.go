package simcluster

import (
	"fmt"
	"time"

	"pvfscache/internal/blockio"
	"pvfscache/internal/cachemod/buffer"
	"pvfscache/internal/metrics"
	"pvfscache/internal/pvfs"
	"pvfscache/internal/sim"
	"pvfscache/internal/simdisk"
	"pvfscache/internal/wire"
)

// cacheShards is each node cache's lock-stripe count. The simulator drives
// the cache from a single goroutine in virtual time, and the paper's
// figures assume one global clock hand; per-shard clock hands would
// perturb the regenerated replacement sequences without modeling any real
// parallelism.
const cacheShards = 1

// Cluster is one simulated system: client nodes, I/O daemons, and the hub
// joining them. Data content is not simulated — only timing and the cache
// policy state, which uses the same buffer.Manager as the live system.
type Cluster struct {
	Env     *sim.Env
	P       Params
	Caching bool
	IODs    []*IOD
	Nodes   []*Node
	Reg     *metrics.Registry

	files    map[string]fileEntry
	nextFile blockio.FileID
	nicOrder map[*sim.Resource]int
	done     bool

	zeroBlock []byte
	scratch   []byte
}

type fileEntry struct {
	id   blockio.FileID
	meta wire.FileMeta
}

// IOD is one simulated I/O daemon: a single-threaded server with a disk
// and an OS page cache, plus the flush-port peer of the paper.
type IOD struct {
	c    *Cluster
	id   int
	CPU  *sim.Resource
	NIC  *sim.Resource
	Disk *sim.Resource
	dm   *simdisk.Model

	pageCache map[blockio.BlockKey]struct{}
	pageFIFO  []blockio.BlockKey
}

// Node is one simulated client node: a CPU, and (when caching) the shared
// cache module state: buffer manager, fetch table, flusher daemon.
type Node struct {
	c     *Cluster
	id    int
	CPU   *sim.Resource
	NIC   *sim.Resource
	Cache *buffer.Manager

	fetches   map[blockio.BlockKey]*sim.Signal
	space     *sim.Signal
	lastFlush time.Duration
	dirtyHint bool
}

// New builds a simulated cluster. With caching=false the model reproduces
// original PVFS (every request goes to the network).
func New(env *sim.Env, p Params, nIODs, nNodes int, caching bool) *Cluster {
	c := &Cluster{
		Env:       env,
		P:         p,
		Caching:   caching,
		Reg:       metrics.NewRegistry(),
		files:     make(map[string]fileEntry),
		nextFile:  1,
		nicOrder:  make(map[*sim.Resource]int),
		zeroBlock: make([]byte, p.BlockSize),
		scratch:   make([]byte, p.BlockSize),
	}
	for i := 0; i < nIODs; i++ {
		io := &IOD{
			c:    c,
			id:   i,
			CPU:  env.NewResource(fmt.Sprintf("iod%d.cpu", i), 1),
			NIC:  env.NewResource(fmt.Sprintf("iod%d.nic", i), 1),
			Disk: env.NewResource(fmt.Sprintf("iod%d.disk", i), 1),
			dm: &simdisk.Model{
				AvgSeek:      p.DiskSeek,
				AvgRotation:  p.DiskRotation,
				TransferRate: p.DiskRate,
			},
			pageCache: make(map[blockio.BlockKey]struct{}),
		}
		c.nicOrder[io.NIC] = len(c.nicOrder)
		c.IODs = append(c.IODs, io)
	}
	for n := 0; n < nNodes; n++ {
		node := &Node{
			c:       c,
			id:      n,
			CPU:     env.NewResource(fmt.Sprintf("node%d.cpu", n), 1),
			NIC:     env.NewResource(fmt.Sprintf("node%d.nic", n), 1),
			fetches: make(map[blockio.BlockKey]*sim.Signal),
			space:   env.NewSignal(),
		}
		if caching {
			node.Cache = buffer.New(buffer.Config{
				BlockSize: p.BlockSize,
				Capacity:  p.CacheBlocks,
				Shards:    cacheShards,
				LowWater:  p.LowWater,
				HighWater: p.HighWater,
				Policy:    p.Policy,
				Registry:  c.Reg,
			})
			env.Go(fmt.Sprintf("node%d.flusher", n), node.flusherDaemon)
		}
		c.nicOrder[node.NIC] = len(c.nicOrder)
		c.Nodes = append(c.Nodes, node)
	}
	return c
}

// Finish marks the workload complete so the background daemons exit and
// Env.Run can terminate.
func (c *Cluster) Finish() { c.done = true }

// CreateFile registers a file striped over all iods and returns its ID.
// warm pre-loads the daemons' page caches with the file's blocks,
// representing a dataset written earlier and still memory-resident (the
// steady state the paper measures reads in).
func (c *Cluster) CreateFile(name string, size int64, warm bool) blockio.FileID {
	if fe, ok := c.files[name]; ok {
		return fe.id
	}
	id := c.nextFile
	c.nextFile++
	meta := wire.FileMeta{
		Size:   size,
		Base:   0,
		PCount: uint32(len(c.IODs)),
		SSize:  c.P.StripSize,
	}
	c.files[name] = fileEntry{id: id, meta: meta}
	if warm {
		bs := int64(c.P.BlockSize)
		for off := int64(0); off < size; off += bs {
			pieces := c.pieces(id, meta, off, bs)
			for _, pc := range pieces {
				key := blockio.BlockKey{File: id, Index: pc.Ext.Offset / bs}
				c.IODs[pc.IOD].pageInsert(key)
			}
		}
	}
	return id
}

// Lookup resolves a registered file.
func (c *Cluster) Lookup(name string) (blockio.FileID, wire.FileMeta) {
	fe, ok := c.files[name]
	if !ok {
		panic("simcluster: unknown file " + name)
	}
	return fe.id, fe.meta
}

// transfer moves one message from the src port to the dst port. Ethernet
// pipelines frames, so the message occupies both NICs concurrently for one
// wire time rather than store-and-forwarding the whole message per hop.
// NICs are acquired in a fixed global order to avoid deadlock between
// opposite-direction transfers.
func (c *Cluster) transfer(p *sim.Proc, src, dst *sim.Resource, payload int64) {
	t := c.P.wireTime(payload)
	first, second := src, dst
	if c.nicOrder[first] > c.nicOrder[second] {
		first, second = second, first
	}
	first.Acquire(p)
	second.Acquire(p)
	p.Sleep(t)
	second.Release(p)
	first.Release(p)
	c.Reg.Counter("sim.messages").Inc()
	c.Reg.Counter("sim.wire_bytes").Add(payload + c.P.MsgHeader)
}

// --- IOD model ---

func (io *IOD) pageInsert(key blockio.BlockKey) {
	if _, ok := io.pageCache[key]; ok {
		return
	}
	if len(io.pageFIFO) >= io.c.P.IODPageCacheBlocks {
		old := io.pageFIFO[0]
		io.pageFIFO = io.pageFIFO[1:]
		delete(io.pageCache, old)
	}
	io.pageCache[key] = struct{}{}
	io.pageFIFO = append(io.pageFIFO, key)
}

// serveRead charges the daemon-side cost of reading [off, off+length) of a
// file: page-cache copies for resident blocks, a disk access otherwise.
func (io *IOD) serveRead(p *sim.Proc, file blockio.FileID, off, length int64) {
	io.CPU.Acquire(p)
	bs := io.c.P.BlockSize
	first, count := blockio.BlockRange(off, length, bs)
	allWarm := true
	for i := int64(0); i < count; i++ {
		if _, ok := io.pageCache[blockio.BlockKey{File: file, Index: first + i}]; !ok {
			allWarm = false
			break
		}
	}
	service := io.c.P.IODService
	if allWarm {
		service += io.c.P.memTime(length)
	} else {
		io.Disk.Acquire(p)
		p.Sleep(io.dm.AccessTime(file, off, length))
		io.Disk.Release(p)
		for i := int64(0); i < count; i++ {
			io.pageInsert(blockio.BlockKey{File: file, Index: first + i})
		}
	}
	p.Sleep(service)
	io.CPU.Release(p)
	io.c.Reg.Counter("sim.iod_reads").Inc()
}

// serveWrite charges the daemon-side cost of absorbing a write into its
// page cache (the write-back to disk happens off the critical path, as
// under Linux).
func (io *IOD) serveWrite(p *sim.Proc, file blockio.FileID, off, length int64) {
	io.CPU.Acquire(p)
	p.Sleep(io.c.P.IODService + io.c.P.memTime(length))
	bs := io.c.P.BlockSize
	first, count := blockio.BlockRange(off, length, bs)
	for i := int64(0); i < count; i++ {
		io.pageInsert(blockio.BlockKey{File: file, Index: first + i})
	}
	io.CPU.Release(p)
	io.c.Reg.Counter("sim.iod_writes").Inc()
}

// --- client request paths ---

// rpc performs one request/response round trip from a node process to an
// iod, with serve charging the daemon-side time.
func (c *Cluster) rpc(p *sim.Proc, node *Node, io *IOD, reqPayload, respPayload int64, serve func(*sim.Proc)) {
	node.CPU.Use(p, c.P.MsgOverhead)
	c.transfer(p, node.NIC, io.NIC, reqPayload)
	serve(p)
	c.transfer(p, io.NIC, node.NIC, respPayload)
	node.CPU.Use(p, c.P.MsgOverhead)
}

// pieces splits a byte range over the iods. The model constructs every
// FileMeta itself, so invalid geometry here is a modelling bug, not wire
// input.
func (c *Cluster) pieces(file blockio.FileID, meta wire.FileMeta, off, length int64) []pvfs.Piece {
	ps, err := pvfs.PiecesFor(file, meta, len(c.IODs), off, length)
	if err != nil {
		panic(err)
	}
	return ps
}

// Read performs one application read call of [off, off+length) against the
// named file, advancing virtual time by its full cost.
func (c *Cluster) Read(p *sim.Proc, node *Node, file blockio.FileID, meta wire.FileMeta, off, length int64) {
	node.CPU.Use(p, c.P.ReqOverhead)
	pieces := c.pieces(file, meta, off, length)
	for _, pc := range pieces {
		if node.Cache == nil {
			io := c.IODs[pc.IOD]
			ext := pc.Ext
			c.rpc(p, node, io, 0, ext.Length, func(p *sim.Proc) { io.serveRead(p, file, ext.Offset, ext.Length) })
			continue
		}
		node.cachedRead(p, pc.IOD, pc.Ext)
	}
	c.Reg.Counter("sim.app_reads").Inc()
}

// Write performs one application write call.
func (c *Cluster) Write(p *sim.Proc, node *Node, file blockio.FileID, meta wire.FileMeta, off, length int64) {
	node.CPU.Use(p, c.P.ReqOverhead)
	pieces := c.pieces(file, meta, off, length)
	for _, pc := range pieces {
		if node.Cache == nil {
			io := c.IODs[pc.IOD]
			ext := pc.Ext
			c.rpc(p, node, io, ext.Length, 0, func(p *sim.Proc) { io.serveWrite(p, file, ext.Offset, ext.Length) })
			continue
		}
		node.cachedWrite(p, pc.IOD, pc.Ext)
	}
	c.Reg.Counter("sim.app_writes").Inc()
}
