package chaos

import (
	"fmt"
	"sync"
	"time"

	"pvfscache/internal/cachemod"
	"pvfscache/internal/chaos/waitfor"
	"pvfscache/internal/cluster"
	"pvfscache/internal/pvfs"
	"pvfscache/internal/workload"
)

// session executes one workload Spec against a live cluster, judged by
// the oracle: it creates the files with the oracle's initial images,
// opens every client's process and handles, runs each op through one
// switch (do), and checks the durable image once the caches drain
// (durable). Run drives it from one goroutine per client under a fault
// plan; Replay drives it from one goroutine in recorded Seq order.
type session struct {
	spec    *workload.Spec
	cl      *cluster.Cluster
	oracle  *Oracle
	clients []sessionClient
	// bar is the clients' rendezvous. Nil when one goroutine runs every
	// client in Seq order: everything before a barrier already ran.
	bar *barrier

	violMu sync.Mutex
	viols  []error
}

// sessionClient is one workload client: its process on its node, the
// node's cache module, and an open handle per Spec file.
type sessionClient struct {
	proc  *pvfs.Client
	mod   *cachemod.Module
	files []*pvfs.File
	buf   []byte // read buffer, Params.MaxIO long
}

// newSession creates the spec's files on cl at full size with the
// deterministic initial pattern, through a direct (uncached) client on
// the raw fabric, so the cluster and the oracle's reference images agree
// before any client starts; then it opens every client, placed per the
// spec.
func newSession(cl *cluster.Cluster, spec *workload.Spec, seed int64) (*session, error) {
	s := &session{spec: spec, cl: cl, oracle: NewOracle(seed, spec.Files)}
	if err := s.createFiles(); err != nil {
		return nil, err
	}
	for c := range spec.Ops {
		proc, err := cl.NewProcess(spec.Placement[c])
		if err != nil {
			s.close()
			return nil, err
		}
		s.clients = append(s.clients, sessionClient{
			proc: proc,
			mod:  cl.Module(spec.Placement[c]),
			buf:  make([]byte, spec.Params.MaxIO),
		})
		for _, fs := range spec.Files {
			f, err := proc.Open(fs.Name)
			if err != nil {
				s.close()
				return nil, fmt.Errorf("chaos: client %d open %s: %w", c, fs.Name, err)
			}
			s.clients[c].files = append(s.clients[c].files, f)
		}
	}
	return s, nil
}

// direct returns an uncached client on the raw fabric, which no fault
// plan touches.
func (s *session) direct() (*pvfs.Client, error) {
	return pvfs.NewClient(pvfs.Config{
		Network: s.cl.Network, MgrAddr: s.cl.MgrAddr, IODAddrs: s.cl.IODDataAddrs,
	})
}

func (s *session) createFiles() error {
	setup, err := s.direct()
	if err != nil {
		return err
	}
	defer setup.Close()
	for fi, fs := range s.spec.Files {
		f, err := setup.Create(fs.Name, pvfs.StripeSpec{SSize: uint32(fs.SSize), PCount: uint32(fs.PCount)})
		if err != nil {
			return fmt.Errorf("chaos: setup create %s: %w", fs.Name, err)
		}
		img := s.oracle.InitImage(fi)
		for off := 0; off < len(img); off += 256 << 10 {
			end := min(off+256<<10, len(img))
			if _, err := f.WriteAt(img[off:end], int64(off)); err != nil {
				return fmt.Errorf("chaos: setup write %s @%d: %w", fs.Name, off, err)
			}
		}
	}
	return nil
}

// close closes every client process the session opened.
func (s *session) close() {
	for _, c := range s.clients {
		c.proc.Close()
	}
}

// do executes one op on its client. A read whose bytes the oracle
// rejects is also recorded as a violation, which fails the run whatever
// faults were in force.
func (s *session) do(op workload.Op) error {
	c := &s.clients[op.Client]
	switch op.Kind {
	case workload.KindWrite:
		data := s.oracle.BeginWrite(op)
		_, err := c.files[op.File].WriteAt(data, op.Off)
		s.oracle.EndWrite(op, err)
		return err
	case workload.KindRead:
		snap := s.oracle.BeginRead(op)
		buf := c.buf[:op.Len]
		n, err := c.files[op.File].ReadAt(buf, op.Off)
		if err == nil && int64(n) != op.Len {
			err = fmt.Errorf("chaos: short read %d of %d", n, op.Len)
		}
		if err != nil {
			s.oracle.AbortRead(op)
			return err
		}
		if err := s.oracle.CheckRead(op, snap, buf); err != nil {
			s.violation(err)
			return err
		}
		return nil
	case workload.KindFlush:
		// A flush op must eventually succeed — faults heal well inside
		// the deadline, and producer-consumer hand-offs depend on
		// durability before the barrier.
		var err error
		waitfor.Poll(20*time.Second, func() bool {
			err = c.mod.FlushAll()
			return err == nil
		})
		return err
	case workload.KindBarrier:
		if s.bar != nil {
			s.bar.wait()
		}
		return nil
	case workload.KindCreate:
		f, err := c.proc.Create(scratchName(op.Client, op.File), pvfs.StripeSpec{})
		if f != nil {
			f.Close()
		}
		return err
	case workload.KindUnlink:
		return c.proc.Unlink(scratchName(op.Client, op.File))
	case workload.KindList:
		_, err := c.proc.List()
		return err
	}
	return fmt.Errorf("chaos: unexecutable op kind %v", op.Kind)
}

// durable drains every cache, retrying while faults heal, lets meddle
// (when set) interfere out of band, and checks the durable image through
// a fresh direct client.
func (s *session) durable(meddle func(*cluster.Cluster)) error {
	var drainErr error
	waitfor.Poll(20*time.Second, func() bool {
		drainErr = s.cl.FlushAll()
		return drainErr == nil
	})
	if meddle != nil {
		meddle(s.cl)
	}
	if drainErr != nil {
		return fmt.Errorf("chaos: final drain never succeeded: %w", drainErr)
	}
	final, err := s.direct()
	if err != nil {
		return err
	}
	defer final.Close()
	handles := make([]*pvfs.File, len(s.spec.Files))
	for fi, fs := range s.spec.Files {
		if handles[fi], err = final.Open(fs.Name); err != nil {
			return fmt.Errorf("chaos: final open %s: %w", fs.Name, err)
		}
	}
	return s.oracle.FinalCheck(func(file int, off int64, p []byte) error {
		n, err := handles[file].ReadAt(p, off)
		if err == nil && n != len(p) {
			err = fmt.Errorf("short read %d of %d", n, len(p))
		}
		return err
	})
}

// violation records an oracle violation (or a fault plan's own failure);
// the first eight are kept.
func (s *session) violation(err error) {
	s.violMu.Lock()
	if len(s.viols) < 8 {
		s.viols = append(s.viols, err)
	}
	s.violMu.Unlock()
}

func (s *session) violations() []error {
	s.violMu.Lock()
	defer s.violMu.Unlock()
	return append([]error(nil), s.viols...)
}

func scratchName(client, id int) string {
	return fmt.Sprintf("wl/scratch-c%d-%d", client, id)
}

// barrier is a cyclic rendezvous for the client goroutines.
type barrier struct {
	mu      sync.Mutex
	n       int
	arrived int
	ch      chan struct{}
}

func newBarrier(n int) *barrier {
	return &barrier{n: n, ch: make(chan struct{})}
}

func (b *barrier) wait() {
	b.mu.Lock()
	b.arrived++
	if b.arrived == b.n {
		b.arrived = 0
		close(b.ch)
		b.ch = make(chan struct{})
		b.mu.Unlock()
		return
	}
	ch := b.ch
	b.mu.Unlock()
	<-ch
}
