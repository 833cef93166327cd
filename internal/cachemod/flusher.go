package cachemod

// The pipelined write-behind engine: one flush stream per iod, each
// draining its own daemon's share of the dirty list with a bounded
// window of concurrent Flush frames in flight, all streams running in
// parallel. This is the write-side half of the architecture the read
// side already has — the miss engine fans a request's runs out to every
// iod at once (transport.go), and the streams fan the dirty list back
// the same way, so one slow iod delays only its own drain.
//
// Lifecycle of a dirty block (see DESIGN.md "The write path"):
//
//	dirty ──TakeDirtyOwnedInto──► taken ──frame──► in flight ──ack──► clean
//	  ▲                                                │
//	  └─────────────── FlushFailed (re-queue, ─────────┘ error / bad ack
//	                   original age priority)
//
// Failure isolation: a failed chunk re-queues only its own blocks
// (FlushFailed keeps their oldest-first priority), the stream stops
// framing the rest of its burst and backs off exponentially, and every
// other stream keeps draining — a down iod costs exactly its own
// backlog, not the node's.

import (
	"fmt"
	"sync"
	"sync/atomic"
	"time"

	"pvfscache/internal/cachemod/buffer"
	"pvfscache/internal/rpc"
	"pvfscache/internal/wire"
)

const (
	// flushChunkTarget is the soft size of one Flush frame's accounted
	// bytes (run data + per-run overhead). It trades framing overhead
	// against pipelining granularity: frames this size are large enough
	// to amortize the round trip and small enough that a FlushWindow of
	// them overlaps usefully. The hard capacity bound is
	// wire.MaxFlushPayload, derived from wire.MaxMessageSize — the
	// compile-time assertion below keeps the two from drifting into
	// ErrTooLarge retry loops.
	flushChunkTarget = 256 << 10

	// flushBurst bounds the dirty blocks one drain burst takes, whatever
	// FlushWindow: 256 blocks is 1 MB of snapshot slab with 4 KB blocks,
	// four frames at the chunk target.
	flushBurst = 256

	// flushBackoffMin/Max bound a failed stream's retry backoff.
	flushBackoffMin = 5 * time.Millisecond
	flushBackoffMax = 500 * time.Millisecond
)

// A chunk framed at the target can never exceed what a Flush frame may
// carry (conversion to uint fails to compile if the target outgrows the
// wire-derived capacity).
const _ = uint(wire.MaxFlushPayload - flushChunkTarget)

// flushStream is the write-behind pipeline of one iod: it sends on the
// module's client for that daemon, beside the reads, and is the only
// goroutine that takes that daemon's dirty blocks, so per-iod drains are
// single-writer and the in-flight window never carries the same block
// twice.
type flushStream struct {
	m      *Module
	iod    int
	client *rpc.Client
	kick   chan struct{} // capacity 1: coalesced wake-ups

	// failing is set while the stream's drains are erroring (cleared by
	// the first clean drain); StreamHealth reports it.
	failing atomic.Bool

	// errors counts failed drains and backoff holds the current retry
	// delay in nanoseconds (0 while healthy) — the per-stream health the
	// chaos harness and Module.StreamHealth expose.
	errors  atomic.Int64
	backoff atomic.Int64

	// Drain storage, owned by the loop goroutine and reused by every
	// burst, so a steady-state burst allocates nothing: the take's
	// snapshot slab and item lists, the frames cut from them, and the
	// window of frames in flight. At most flushBurst blocks of slab (1 MB
	// with 4 KB blocks). Reuse is safe because sendChunks
	// returns only after every chunk's Call has returned, and Call returns
	// only after its frame's write has: no frame still reads the slab
	// when the next take overwrites it.
	take    buffer.TakeScratch
	frames  flushFrames
	window  chan struct{} // capacity FlushWindow: one slot per frame in flight
	sending sync.WaitGroup
	errMu   sync.Mutex
	sendErr error // the burst's first failure
}

// StreamHealth is one flush stream's externally visible state.
type StreamHealth struct {
	IOD     int
	Failing bool          // last drain errored; stream is backing off
	Errors  int64         // cumulative failed drains
	Backoff time.Duration // current retry delay (0 while healthy)
}

// kick wakes the loop waiting on ch — a flush stream's or the
// harvester's — if it is idle; kicks coalesce (ch has capacity 1).
func kick(ch chan struct{}) {
	select {
	case ch <- struct{}{}:
	default:
	}
}

// loop is the stream's goroutine: wake on the flush period or on a kick
// (space pressure, FlushAll, DrainIOD); drain; on failure back off
// exponentially (isolated to this stream) and retry. A backing-off stream
// does not read its kick channel, so pressure kicks aimed at every stream
// reach a down iod's stream only once its backoff has passed.
func (s *flushStream) loop() {
	m := s.m
	defer m.wg.Done()
	ticker := time.NewTicker(m.cfg.FlushPeriod)
	defer ticker.Stop()
	var backoff time.Duration
	for {
		select {
		case <-m.stop:
			return
		case <-ticker.C:
		case <-s.kick:
		}
		err := s.drain()
		s.failing.Store(err != nil)
		if err == nil {
			backoff = 0
			s.backoff.Store(0)
			continue
		}
		m.ctr.flushErrors.Inc()
		s.errors.Add(1)
		backoff = min(max(2*backoff, flushBackoffMin), flushBackoffMax)
		s.backoff.Store(int64(backoff))
		t := time.NewTimer(backoff)
		select {
		case <-m.stop:
			t.Stop()
			return
		case <-t.C:
		}
		kick(s.kick) // retry the backlog after the backoff
	}
}

// drain moves this iod's eligible dirty blocks out in pipelined bursts
// until none remain or a chunk fails. Each burst takes up to flushBurst
// blocks (run-ordered), coalesces them into contiguous runs, frames the
// runs into chunks and keeps FlushWindow frames in flight.
func (s *flushStream) drain() error {
	for {
		items := s.m.buf.TakeDirtyOwnedInto(&s.take, s.iod, flushBurst)
		if len(items) == 0 {
			return nil
		}
		err := s.sendChunks(buildFlushChunks(&s.frames, s.m.cfg.ClientID, items, s.m.buf.BlockSize()))
		if err != nil {
			return err
		}
		if len(items) < flushBurst {
			return nil
		}
	}
}

// flushChunk is one wire.Flush frame plus the taken items it carries —
// the unit of acknowledgment: the whole chunk is marked clean or
// re-queued together.
type flushChunk struct {
	msg   wire.Flush
	items []buffer.FlushItem
}

// flushFrames is the storage buildFlushChunks frames a burst into,
// reused from burst to burst: the chunks, and one array holding every
// chunk's FlushBlock runs.
type flushFrames struct {
	chunks []flushChunk
	blocks []wire.FlushBlock
}

// buildFlushChunks coalesces a run-ordered snapshot (TakeDirtyOwned's
// (file, index) order) into wire frames. Adjacent dirty blocks of one
// file whose spans tile the block boundary — the left block dirty to its
// end, the right dirty from its start — merge into one contiguous
// FlushBlock run, the write-side analogue of the read path's vectored
// runs: one length-prefixed entry and one iod store call instead of one
// per block. Such blocks were snapshotted into consecutive slots of the
// take's buffer (buffer.FlushItem.Slot), where tiling spans are
// contiguous, so a run's data is a slice of that buffer, not a copy.
// Runs pack into chunks of at most flushChunkTarget accounted bytes, one
// file per chunk (the Flush header names a single file). A chunk's runs
// are consecutive items, so its items are a subslice of items; the
// chunks and their runs live in fr until the next call.
func buildFlushChunks(fr *flushFrames, client uint32, items []buffer.FlushItem, blockSize int) []flushChunk {
	// Every run holds an item and every chunk a run, so len(items) bounds
	// both counts: sized up front, neither array moves while chunks point
	// into it.
	if cap(fr.chunks) < len(items) {
		fr.chunks = make([]flushChunk, 0, len(items))
		fr.blocks = make([]wire.FlushBlock, 0, len(items))
	}
	chunks, blocks := fr.chunks[:0], fr.blocks[:0]
	var cur *flushChunk
	first, firstRun, curBytes := 0, 0, 0 // cur's first item and run, its accounted bytes
	for i := 0; i < len(items); {
		// Maximal contiguous run starting at i, bounded (run bytes plus
		// its framing overhead) by the chunk target so a run always fits
		// one frame.
		runBytes := len(items[i].Data)
		j := i + 1
		for j < len(items) &&
			items[j].Key.File == items[j-1].Key.File &&
			items[j].Key.Index == items[j-1].Key.Index+1 &&
			items[j-1].Slot != 0 && items[j].Slot == items[j-1].Slot+1 &&
			items[j-1].Off+len(items[j-1].Data) == blockSize &&
			items[j].Off == 0 &&
			runBytes+len(items[j].Data)+wire.FlushBlockOverhead <= flushChunkTarget {
			runBytes += len(items[j].Data)
			j++
		}
		if cur != nil &&
			(cur.msg.File != items[i].Key.File ||
				curBytes+runBytes+wire.FlushBlockOverhead > flushChunkTarget) {
			cur = nil
		}
		if cur == nil {
			chunks = append(chunks, flushChunk{msg: wire.Flush{Client: client, File: items[i].Key.File}})
			cur = &chunks[len(chunks)-1]
			first, firstRun, curBytes = i, len(blocks), 0
		}
		blocks = append(blocks, wire.FlushBlock{
			Index: items[i].Key.Index,
			Off:   uint32(items[i].Off),
			Data:  items[i].Data[:runBytes:runBytes],
		})
		cur.msg.Blocks = blocks[firstRun:len(blocks):len(blocks)]
		cur.items = items[first:j:j]
		curBytes += runBytes + wire.FlushBlockOverhead
		i = j
	}
	return chunks
}

// sendChunks pushes the chunks with at most FlushWindow frames in flight
// to this stream's iod. Completions are handled as they land: an acked
// chunk's blocks are marked clean at once (waking stalled writers — a
// fast chunk's space is usable while slower chunks are still flying), a
// failed chunk's blocks are re-queued. After the first failure no
// further chunk is framed onto the wire; the remainder re-queues
// immediately so the stream backs off as a unit while the other streams
// keep draining. It returns once every chunk's send has returned.
func (s *flushStream) sendChunks(chunks []flushChunk) error {
	m := s.m
	s.sendErr = nil // the last burst's senders are done (sending.Wait)
	for i := range chunks {
		c := &chunks[i]
		if s.burstErr() != nil {
			m.buf.FlushFailed(c.items)
			m.ctr.flushRequeued.Add(int64(len(c.items)))
			continue
		}
		s.window <- struct{}{}
		s.sending.Add(1)
		go s.sendChunk(c)
	}
	s.sending.Wait()
	return s.sendErr
}

// burstErr returns the current burst's first failure, if any.
func (s *flushStream) burstErr() error {
	s.errMu.Lock()
	defer s.errMu.Unlock()
	return s.sendErr
}

// sendChunk sends one chunk in its own window slot and hands its items
// back: to FlushDone on an OK ack, else to FlushFailed.
func (s *flushStream) sendChunk(c *flushChunk) {
	m := s.m
	defer s.sending.Done()
	defer func() { <-s.window }()
	res := s.client.Call(&c.msg)
	err := res.Err
	if err == nil {
		if ack, ok := res.Msg.(*wire.FlushAck); !ok {
			err = fmt.Errorf("cachemod: unexpected flush reply %v from iod %d",
				res.Msg.WireType(), s.iod)
		} else {
			err = ack.Status.Err()
		}
	}
	if err != nil {
		s.errMu.Lock()
		if s.sendErr == nil {
			s.sendErr = err
		}
		s.errMu.Unlock()
		m.buf.FlushFailed(c.items)
		m.ctr.flushRequeued.Add(int64(len(c.items)))
		return
	}
	m.buf.FlushDone(c.items)
	m.ctr.flushRounds.Inc()
	m.ctr.flushedBlocks.Add(int64(len(c.items)))
	if merged := len(c.items) - len(c.msg.Blocks); merged > 0 {
		m.ctr.flushCoalesced.Add(int64(merged))
	}
	m.progress.signal()
}
