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
//	dirty ──TakeDirtyOwned──► taken ──frame──► in flight ──ack──► clean
//	  ▲                                            │
//	  └───────────── FlushFailed (re-queue, ───────┘ error / bad ack
//	                 original age priority)
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

	// flushBackoffMin/Max bound a failed stream's retry backoff.
	flushBackoffMin = 5 * time.Millisecond
	flushBackoffMax = 500 * time.Millisecond
)

// A chunk framed at the target can never exceed what a Flush frame may
// carry (conversion to uint fails to compile if the target outgrows the
// wire-derived capacity).
const _ = uint(wire.MaxFlushPayload - flushChunkTarget)

// flushStream is the write-behind pipeline of one iod: it owns the
// daemon's flush-port client and is the only goroutine that takes that
// daemon's dirty blocks, so per-iod drains are single-writer and the
// in-flight window never carries the same block twice.
type flushStream struct {
	m      *Module
	iod    int
	client *rpc.Client
	kick   chan struct{} // capacity 1: coalesced wake-ups

	// failing is set while the stream's drains are erroring (cleared by
	// the first clean drain). Pressure kicks consult it: a directed kick
	// at a failing stream cannot free space, so the kicker falls back to
	// waking every stream rather than letting healthy backlogs idle
	// behind a down iod's old dirty data.
	failing atomic.Bool

	// errors counts failed drains and backoff holds the current retry
	// delay in nanoseconds (0 while healthy) — the per-stream health the
	// chaos harness and Module.StreamHealth expose.
	errors  atomic.Int64
	backoff atomic.Int64
}

// StreamHealth is one flush stream's externally visible state.
type StreamHealth struct {
	IOD     int
	Failing bool          // last drain errored; stream is backing off
	Errors  int64         // cumulative failed drains
	Backoff time.Duration // current retry delay (0 while healthy)
}

// kickStream wakes the stream's loop if it is idle; kicks coalesce.
func (s *flushStream) kickStream() {
	select {
	case s.kick <- struct{}{}:
	default:
	}
}

// loop is the stream's goroutine: wake on the flush period, on a
// directed pressure kick, or on a FlushAll sweep; drain; on failure back
// off exponentially (isolated to this stream) and retry.
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
		s.kickStream() // retry the backlog after the backoff
	}
}

// drain moves this iod's eligible dirty blocks out in pipelined bursts
// until none remain or a chunk fails. Each burst takes up to
// FlushBatch×FlushWindow blocks (run-ordered), coalesces them into
// contiguous runs, frames the runs into chunks and keeps FlushWindow
// frames in flight.
func (s *flushStream) drain() error {
	burst := s.m.cfg.FlushBatch * s.m.cfg.FlushWindow
	for {
		items := s.m.buf.TakeDirtyOwned(s.iod, burst)
		if len(items) == 0 {
			return nil
		}
		err := s.sendChunks(buildFlushChunks(s.m.cfg.ClientID, items, s.m.buf.BlockSize()))
		if err != nil {
			return err
		}
		if len(items) < burst {
			return nil
		}
	}
}

// flushChunk is one wire.Flush frame plus the taken items it carries —
// the unit of acknowledgment: the whole chunk is marked clean or
// re-queued together.
type flushChunk struct {
	msg   *wire.Flush
	items []buffer.FlushItem
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
// file per chunk (the Flush header names a single file).
func buildFlushChunks(client uint32, items []buffer.FlushItem, blockSize int) []flushChunk {
	var chunks []flushChunk
	var cur flushChunk
	curBytes := 0
	closeCur := func() {
		if len(cur.items) > 0 {
			chunks = append(chunks, cur)
			cur = flushChunk{}
			curBytes = 0
		}
	}
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
		run := items[i:j]
		if cur.msg != nil &&
			(cur.msg.File != run[0].Key.File ||
				curBytes+runBytes+wire.FlushBlockOverhead > flushChunkTarget) {
			closeCur()
		}
		if cur.msg == nil {
			cur.msg = &wire.Flush{Client: client, File: run[0].Key.File}
		}
		cur.msg.Blocks = append(cur.msg.Blocks, wire.FlushBlock{
			Index: run[0].Key.Index,
			Off:   uint32(run[0].Off),
			Data:  run[0].Data[:runBytes:runBytes],
		})
		cur.items = append(cur.items, run...)
		curBytes += runBytes + wire.FlushBlockOverhead
		i = j
	}
	closeCur()
	return chunks
}

// sendChunks pushes the chunks with at most FlushWindow frames in flight
// to this stream's iod. Completions are handled as they land: an acked
// chunk's blocks are marked clean at once (waking stalled writers — a
// fast chunk's space is usable while slower chunks are still flying), a
// failed chunk's blocks are re-queued. After the first failure no
// further chunk is framed onto the wire; the remainder re-queues
// immediately so the stream backs off as a unit while the other streams
// keep draining.
func (s *flushStream) sendChunks(chunks []flushChunk) error {
	m := s.m
	sem := make(chan struct{}, m.cfg.FlushWindow)
	var (
		wg       sync.WaitGroup
		failed   atomic.Bool
		errMu    sync.Mutex
		firstErr error
	)
	fail := func(err error) {
		errMu.Lock()
		if firstErr == nil {
			firstErr = err
		}
		errMu.Unlock()
		failed.Store(true)
	}
	for _, c := range chunks {
		if failed.Load() {
			m.buf.FlushFailed(c.items)
			m.ctr.flushRequeued.Add(int64(len(c.items)))
			continue
		}
		sem <- struct{}{} // window slot
		wg.Add(1)
		go func(c flushChunk) {
			defer wg.Done()
			defer func() { <-sem }()
			res := s.client.Call(c.msg)
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
				fail(err)
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
			m.signalSpace()
		}(c)
	}
	wg.Wait()
	return firstErr
}
