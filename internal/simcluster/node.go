package simcluster

import (
	"fmt"
	"sort"
	"time"

	"pvfscache/internal/blockio"
	"pvfscache/internal/cachemod/buffer"
	"pvfscache/internal/sim"
	"pvfscache/internal/wire"
)

// copyCost scales the per-block lookup+copy cost to a span's length.
func (c *Cluster) copyCost(spanLen int) time.Duration {
	return time.Duration(float64(c.P.HitCopy) * float64(spanLen) / float64(c.P.BlockSize))
}

// cachedRead services one per-iod piece of a read through the node cache:
// hits are copied at memory speed, misses are grouped into runs of
// consecutive blocks and fetched with one sub-request per run (a cached
// block in the middle splits the request), and blocks other processes are
// already fetching are joined rather than re-fetched.
func (n *Node) cachedRead(p *sim.Proc, iod int, ext blockio.Extent) {
	c := n.c
	bs := c.P.BlockSize
	spans := blockio.Spans(ext.File, ext.Offset, ext.Length, bs)
	n.CPU.Use(p, c.P.MissCheck)

	var hitCost time.Duration
	var missing, waits []blockio.Span
	for _, sp := range spans {
		if n.Cache.ReadSpan(sp.Key, sp.Off, c.scratch[:sp.Len]) {
			hitCost += c.copyCost(sp.Len)
			continue
		}
		if _, inFlight := n.fetches[sp.Key]; inFlight {
			waits = append(waits, sp)
			continue
		}
		n.fetches[sp.Key] = c.Env.NewSignal()
		missing = append(missing, sp)
	}
	if hitCost > 0 {
		n.CPU.Use(p, hitCost)
	}

	io := c.IODs[iod]
	for start := 0; start < len(missing); {
		end := start + 1
		for end < len(missing) && missing[end].Key.Index == missing[end-1].Key.Index+1 {
			end++
		}
		run := missing[start:end]
		// The sub-request carries only the missing bytes, exactly as the
		// paper states ("the external request is for only the missing
		// data"): consecutive spans tile a contiguous byte range.
		runOff := run[0].FileOffset(bs)
		var runLen int64
		for _, sp := range run {
			runLen += int64(sp.Len)
		}
		c.rpc(p, n, io, 0, runLen, func(p *sim.Proc) { io.serveRead(p, ext.File, runOff, runLen) })
		c.Reg.Counter("sim.read_subrequests").Inc()
		for _, sp := range run {
			n.insertSpan(p, sp, iod)
			if sig := n.fetches[sp.Key]; sig != nil {
				delete(n.fetches, sp.Key)
				sig.Fire()
			}
		}
		start = end
	}

	for _, sp := range waits {
		if sig, still := n.fetches[sp.Key]; still {
			sig.Wait(p)
		}
		c.Reg.Counter("sim.fetch_joins").Inc()
		if n.Cache.ReadSpan(sp.Key, sp.Off, c.scratch[:sp.Len]) {
			n.CPU.Use(p, c.copyCost(sp.Len))
			continue
		}
		// The owner fetched a different part of the block (or its insert
		// was bypassed): fetch our span ourselves.
		spanOff := sp.FileOffset(bs)
		spanLen := int64(sp.Len)
		c.rpc(p, n, io, 0, spanLen, func(p *sim.Proc) { io.serveRead(p, ext.File, spanOff, spanLen) })
		n.insertSpan(p, sp, iod)
	}
}

// insertSpan installs a fetched span as valid clean data, waiting briefly
// for space when the cache is saturated with dirty blocks and bypassing
// the cache if the pressure persists (the data still reaches the
// application either way).
func (n *Node) insertSpan(p *sim.Proc, sp blockio.Span, iod int) {
	c := n.c
	for attempt := 0; attempt < 2; attempt++ {
		switch n.Cache.WriteSpan(sp.Key, iod, sp.Off, c.zeroBlock[:sp.Len], false) {
		case buffer.OutcomeOK:
			n.CPU.Use(p, c.P.InsertCost)
			return
		case buffer.OutcomeNeedFetch:
			// Disjoint from resident valid data; not worth merging on the
			// read path — serve without caching this span.
			c.Reg.Counter("sim.insert_bypass").Inc()
			return
		case buffer.OutcomeNoSpace:
			n.dirtyHint = true
			n.space.Wait(p)
		}
	}
	c.Reg.Counter("sim.insert_bypass").Inc()
}

// cachedWrite services one per-iod piece of a write through the node
// cache: the data is copied into cache blocks, marked dirty, and the call
// returns — the flusher propagates it later. When the cache is full of
// dirty blocks the writer blocks until the flusher frees space, which is
// precisely the behaviour that erodes the write-behind advantage at large
// request sizes in the paper's Figure 4(b).
func (n *Node) cachedWrite(p *sim.Proc, iod int, ext blockio.Extent) {
	c := n.c
	bs := c.P.BlockSize
	spans := blockio.Spans(ext.File, ext.Offset, ext.Length, bs)
	n.CPU.Use(p, c.P.MissCheck)
	io := c.IODs[iod]
	for _, sp := range spans {
		for {
			outcome := n.Cache.WriteSpan(sp.Key, iod, sp.Off, c.zeroBlock[:sp.Len], true)
			if outcome == buffer.OutcomeOK {
				n.CPU.Use(p, c.copyCost(sp.Len))
				break
			}
			if outcome == buffer.OutcomeNeedFetch {
				// Read-modify-write: fetch the whole block first.
				blockOff := sp.Key.Index * int64(bs)
				c.rpc(p, n, io, 0, int64(bs), func(p *sim.Proc) { io.serveRead(p, ext.File, blockOff, int64(bs)) })
				n.Cache.InsertClean(sp.Key, iod, c.zeroBlock)
				c.Reg.Counter("sim.write_rmw").Inc()
				continue
			}
			// OutcomeNoSpace: stall until the flusher makes room.
			n.dirtyHint = true
			c.Reg.Counter("sim.write_stalls").Inc()
			n.space.Wait(p)
		}
	}
}

// flushGroup is one flush message: dirty blocks of one file bound for one
// iod.
type flushGroup struct {
	owner int
	file  blockio.FileID
	items []buffer.FlushItem
}

// flusherDaemon is the node's flusher thread: every FlushTick it checks
// for period expiry or space pressure, drains the dirty list to the iods'
// flush ports, runs the harvester, and wakes any stalled writers.
func (n *Node) flusherDaemon(p *sim.Proc) {
	c := n.c
	for !c.done {
		p.Sleep(c.P.FlushTick)
		period := c.Env.Now()-n.lastFlush >= c.P.FlushPeriod
		pressure := n.dirtyHint || n.Cache.NeedsHarvest() ||
			n.Cache.DirtyCount() > c.P.CacheBlocks/2
		if !period && !pressure {
			continue
		}
		n.lastFlush = c.Env.Now()
		n.dirtyHint = false
		n.flushOnce(p)
		if n.Cache.NeedsHarvest() {
			freed := n.Cache.Harvest()
			c.Reg.Counter("sim.harvested").Add(int64(freed))
		}
		n.space.Fire()
	}
}

// simFlushChunkBlocks bounds the blocks per simulated flush message,
// mirroring the live engine's 256 KB frames (64 blocks of 4 KB) so
// FlushWindow has message granularity to overlap even when one file
// holds all the dirty data.
const simFlushChunkBlocks = 64

// flushOnce drains the entire dirty list in deterministic order. With
// Params.FlushStreams and Params.FlushWindow at their calibration
// default (1), each (iod, file) chunk drains as one serial message —
// the pre-pipeline model the figures assume. Larger values model the
// live system's pipelined write-behind engine in virtual time: up to
// FlushStreams iods drain concurrently, each with up to FlushWindow
// messages in flight, overlapping the per-message wire and daemon
// service times exactly as the live streams overlap real round trips.
func (n *Node) flushOnce(p *sim.Proc) {
	c := n.c
	items := n.Cache.TakeDirty(0)
	if len(items) == 0 {
		return
	}
	byKey := make(map[[2]int64][]buffer.FlushItem)
	for _, it := range items {
		k := [2]int64{int64(it.Owner), int64(it.Key.File)}
		byKey[k] = append(byKey[k], it)
	}
	keys := make([][2]int64, 0, len(byKey))
	for k := range byKey {
		keys = append(keys, k)
	}
	sort.Slice(keys, func(i, j int) bool {
		if keys[i][0] != keys[j][0] {
			return keys[i][0] < keys[j][0]
		}
		return keys[i][1] < keys[j][1]
	})
	// Chunk each (iod, file) group and collect the chunks per iod, in
	// deterministic order.
	perIOD := make(map[int][]flushGroup)
	var iods []int
	for _, k := range keys {
		owner := int(k[0])
		group := byKey[k]
		if _, seen := perIOD[owner]; !seen {
			iods = append(iods, owner)
		}
		for len(group) > 0 {
			nn := min(simFlushChunkBlocks, len(group))
			perIOD[owner] = append(perIOD[owner], flushGroup{
				owner: owner, file: blockio.FileID(k[1]), items: group[:nn],
			})
			group = group[nn:]
		}
	}
	streams := max(c.P.FlushStreams, 1)
	window := max(c.P.FlushWindow, 1)
	if streams == 1 && window == 1 {
		// Seed shape: one blocking message at a time, serially across iods.
		for _, owner := range iods {
			for _, g := range perIOD[owner] {
				n.sendFlushGroup(p, g)
			}
		}
		return
	}
	streamRes := c.Env.NewResource(fmt.Sprintf("node%d.flushstreams", n.id), streams)
	done := c.Env.NewSignal()
	left := len(iods)
	for _, owner := range iods {
		gs := perIOD[owner]
		c.Env.Go(fmt.Sprintf("node%d.flushstream%d", n.id, owner), func(sp *sim.Proc) {
			streamRes.Acquire(sp)
			if window == 1 || len(gs) == 1 {
				for _, g := range gs {
					n.sendFlushGroup(sp, g)
				}
			} else {
				winRes := c.Env.NewResource(fmt.Sprintf("node%d.flushwin%d", n.id, owner), window)
				innerDone := c.Env.NewSignal()
				innerLeft := len(gs)
				for gi, g := range gs {
					c.Env.Go(fmt.Sprintf("node%d.flushchunk%d.%d", n.id, owner, gi), func(cp *sim.Proc) {
						winRes.Acquire(cp)
						n.sendFlushGroup(cp, g)
						winRes.Release(cp)
						innerLeft--
						if innerLeft == 0 {
							innerDone.Fire()
						}
					})
				}
				if innerLeft > 0 {
					innerDone.Wait(sp)
				}
			}
			streamRes.Release(sp)
			left--
			if left == 0 {
				done.Fire()
			}
		})
	}
	if left > 0 {
		done.Wait(p)
	}
}

// sendFlushGroup charges one flush message's round trip and marks its
// blocks clean on acknowledgment.
func (n *Node) sendFlushGroup(p *sim.Proc, g flushGroup) {
	c := n.c
	io := c.IODs[g.owner]
	var payload int64
	for _, it := range g.items {
		payload += int64(len(it.Data)) + wire.FlushBlockOverhead
	}
	c.rpc(p, n, io, payload, 0, func(p *sim.Proc) { io.serveFlush(p, g) })
	n.Cache.FlushDone(g.items)
	c.Reg.Counter("sim.flush_rounds").Inc()
	c.Reg.Counter("sim.flushed_blocks").Add(int64(len(g.items)))
}

// serveFlush charges the iod-side cost of absorbing one flush message.
func (io *IOD) serveFlush(p *sim.Proc, g flushGroup) {
	io.CPU.Acquire(p)
	var total int64
	for _, it := range g.items {
		total += int64(len(it.Data))
	}
	p.Sleep(io.c.P.IODService + io.c.P.memTime(total))
	for _, it := range g.items {
		io.pageInsert(it.Key)
	}
	io.CPU.Release(p)
}
