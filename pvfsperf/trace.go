package main

import (
	"bufio"
	"fmt"
	"os"
	"sync/atomic"
	"time"

	"pvfscache/internal/blockio"
	"pvfscache/internal/cachemod"
	"pvfscache/internal/pvfs"
	"pvfscache/internal/transport"
	"pvfscache/internal/wire"
)

// Span names. The root span of an op is the File.ReadAt / File.WriteAt
// call; its children are the calls libpvfs makes through the transport
// seam while serving it.
const (
	spanReadAt = iota
	spanWriteAt
	spanSend
	spanSendRead
	spanRecv
	spanHint
	spanKinds
)

var spanNames = [spanKinds]string{"ReadAt", "WriteAt", "Send", "SendRead", "Recv", "Hint"}

// span is one recorded interval. Times are nanoseconds since the tracer's
// epoch; parent is the id of the op's root span, 0 for the root itself.
type span struct {
	op, id, parent uint64
	kind           uint8
	start, end     int64
}

// spanCap bounds the spans one client keeps (40 B each). The per-kind sums
// below cover every span of the window, so the layer metrics do not depend
// on the cap; the buffer is the raw record written out afterwards.
const spanCap = 1 << 16

// tracer records the spans of one client. A pvfs.Client is driven by one
// goroutine, so nothing here is synchronized.
type tracer struct {
	epoch   time.Time
	spans   []span
	dropped int64
	sumNS   [spanKinds]int64
	count   [spanKinds]int64
	op      uint64 // current op
	root    uint64 // id of the current op's root span
	nextID  uint64
	reads   int64 // read requests that crossed the seam
}

func newTracer() *tracer {
	return &tracer{epoch: time.Now(), spans: make([]span, 0, spanCap)}
}

func (t *tracer) now() int64 { return int64(time.Since(t.epoch)) }

// beginOp opens an op's root span and returns its start time.
func (t *tracer) beginOp() int64 {
	t.op++
	t.nextID++
	t.root = t.nextID
	return t.now()
}

func (t *tracer) endOp(kind uint8, start int64) {
	t.record(span{op: t.op, id: t.root, kind: kind, start: start, end: t.now()})
}

// child records one seam call made on behalf of the current op.
func (t *tracer) child(kind uint8, start int64) {
	t.nextID++
	t.record(span{op: t.op, id: t.nextID, parent: t.root, kind: kind, start: start, end: t.now()})
}

func (t *tracer) record(s span) {
	t.sumNS[s.kind] += s.end - s.start
	t.count[s.kind]++
	if len(t.spans) < cap(t.spans) {
		t.spans = append(t.spans, s)
	} else {
		t.dropped++
	}
}

// seamNS is the time spent inside the transport seam: cachemod and
// everything below it.
func (t *tracer) seamNS() int64 {
	return t.sumNS[spanSend] + t.sumNS[spanSendRead] + t.sumNS[spanRecv] + t.sumNS[spanHint]
}

// writeSpans appends the recorded spans as CSV rows.
func writeSpans(path string, tracers []*tracer) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	w := bufio.NewWriter(f)
	fmt.Fprintln(w, "client,op,span,parent,name,start_ns,end_ns")
	for c, t := range tracers {
		for _, s := range t.spans {
			fmt.Fprintf(w, "%d,%d,%d,%d,%s,%d,%d\n", c, s.op, s.id, s.parent, spanNames[s.kind], s.start, s.end)
		}
	}
	if err := w.Flush(); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

// seam is the timing wrapper interposed at pvfs.Config.Transport around the
// cache module's transport. It forwards all five optional extensions, so a
// traced client stays on the zero-copy, readahead-enabled path an untraced
// one takes.
type seam struct {
	inner *cachemod.CachedTransport
	t     *tracer
}

var (
	_ pvfs.Transport         = (*seam)(nil)
	_ pvfs.StripeHinter      = (*seam)(nil)
	_ pvfs.ReadPatternHinter = (*seam)(nil)
	_ pvfs.CachePolicyHinter = (*seam)(nil)
	_ pvfs.TenantHinter      = (*seam)(nil)
	_ pvfs.ReadSinker        = (*seam)(nil)
)

func (s *seam) Send(iod int, req wire.Message) (pvfs.ReqID, error) {
	switch req.(type) {
	case *wire.Read, *wire.ReadBlocks:
		s.t.reads++
	}
	defer s.t.child(spanSend, s.t.now())
	return s.inner.Send(iod, req)
}

func (s *seam) SendRead(iod int, req wire.Message, sink [][]byte) (pvfs.ReqID, bool, error) {
	s.t.reads++
	defer s.t.child(spanSendRead, s.t.now())
	return s.inner.SendRead(iod, req, sink)
}

func (s *seam) Recv(id pvfs.ReqID) (wire.Message, error) {
	defer s.t.child(spanRecv, s.t.now())
	return s.inner.Recv(id)
}

func (s *seam) Close() error { return s.inner.Close() }

func (s *seam) StripeHint(file blockio.FileID, meta wire.FileMeta, totalIODs int) {
	defer s.t.child(spanHint, s.t.now())
	s.inner.StripeHint(file, meta, totalIODs)
}

func (s *seam) NoteRead(file blockio.FileID, offset, length int64) {
	defer s.t.child(spanHint, s.t.now())
	s.inner.NoteRead(file, offset, length)
}

func (s *seam) CachePolicyHint(file blockio.FileID, policy pvfs.CachePolicy) {
	defer s.t.child(spanHint, s.t.now())
	s.inner.CachePolicyHint(file, policy)
}

func (s *seam) TenantHint(file blockio.FileID, tenant uint32, weight int) {
	defer s.t.child(spanHint, s.t.now())
	s.inner.TenantHint(file, tenant, weight)
}

// countingNet is the counting wrapper interposed at cluster.Config.Network:
// it counts every Write on every connection of the fabric, dialed or
// accepted, so each direction of each connection is counted once.
type countingNet struct {
	transport.Network
	writes, bytes atomic.Int64
}

func (n *countingNet) Dial(addr string) (transport.Conn, error) {
	c, err := n.Network.Dial(addr)
	if err != nil {
		return nil, err
	}
	return &countingConn{Conn: c, n: n}, nil
}

func (n *countingNet) Listen(addr string) (transport.Listener, error) {
	l, err := n.Network.Listen(addr)
	if err != nil {
		return nil, err
	}
	return &countingListener{Listener: l, n: n}, nil
}

type countingListener struct {
	transport.Listener
	n *countingNet
}

func (l *countingListener) Accept() (transport.Conn, error) {
	c, err := l.Listener.Accept()
	if err != nil {
		return nil, err
	}
	return &countingConn{Conn: c, n: l.n}, nil
}

type countingConn struct {
	transport.Conn
	n *countingNet
}

func (c *countingConn) Write(p []byte) (int, error) {
	c.n.writes.Add(1)
	c.n.bytes.Add(int64(len(p)))
	return c.Conn.Write(p)
}
