package main

import (
	"errors"
	"fmt"
	"io/fs"
	"os"
	"path/filepath"
	"runtime"
	"sync"
	"sync/atomic"
	"syscall"
	"time"

	"pvfscache/internal/cluster"
	"pvfscache/internal/metrics"
	"pvfscache/internal/pvfs"
	"pvfscache/internal/transport"
)

// verifyEvery: one read in this many is verified inside the timed loop;
// every slot is verified once more after it.
const verifyEvery = 64

// world is one booted cluster with its seeded files and its clients.
type world struct {
	spec    *spec
	seed    int64
	cl      *cluster.Cluster
	net     *countingNet // traced runs only
	dataDir string       // disk backend only
	base    []int        // first global slot id of each file
	acked   []atomic.Uint64
	clients []*client
}

// client is one application process: its libpvfs handle(s), its op
// generator and what it has measured since the last reset.
type client struct {
	w     *world
	gen   func() op
	buf   []byte
	plain handles
	seam  handles // through the timing wrapper; traced runs only
	tr    *tracer

	rd, wr    hist
	ops       int64
	bytes     int64
	failed    int64
	firstFail error
}

type handles struct {
	proc  *pvfs.Client
	files []*pvfs.File
}

// setUp boots the workload's cluster, writes every slot of every file once
// (sequence number 1), starts the clients and runs the warm-up ops.
func setUp(s *spec, seed int64, traced bool, tmp string) (w *world, err error) {
	w = &world{spec: s, seed: seed}
	defer func() {
		if err != nil {
			w.close()
		}
	}()
	cfg := s.cluster
	if traced {
		w.net = &countingNet{Network: transport.NewMem()}
		cfg.Network = w.net
	}
	if cfg.Backend == "disk" {
		if w.dataDir, err = os.MkdirTemp(tmp, "iods-"); err != nil {
			return w, err
		}
		cfg.DataDir = w.dataDir
	}
	if w.cl, err = cluster.Start(cfg); err != nil {
		return w, err
	}
	total := 0
	for f := range s.files {
		w.base = append(w.base, total)
		total += s.slots(f)
	}
	w.acked = make([]atomic.Uint64, total)

	seeder, err := w.cl.NewProcess(0)
	if err != nil {
		return w, err
	}
	defer seeder.Close()
	buf := make([]byte, s.opSize)
	for f, fsp := range s.files {
		file, err := seeder.Create(fsp.name, pvfs.StripeSpec{})
		if err != nil {
			return w, err
		}
		for slot := 0; slot < s.slots(f); slot++ {
			g := w.base[f] + slot
			fillSlot(buf, seed, g, 1)
			if _, err := file.WriteAt(buf, int64(slot)*int64(s.opSize)); err != nil {
				return w, fmt.Errorf("seeding %s: %w", fsp.name, err)
			}
			w.acked[g].Store(1)
		}
	}
	if err := w.cl.FlushAll(); err != nil {
		return w, fmt.Errorf("seeding: %w", err)
	}

	for c := 0; c < clients; c++ {
		cl := &client{w: w, gen: s.gen(seed, c), buf: make([]byte, s.opSize)}
		w.clients = append(w.clients, cl)
		if cl.plain.proc, err = w.cl.NewProcess(0); err != nil {
			return w, err
		}
		if err := cl.plain.open(s); err != nil {
			return w, err
		}
		if !traced {
			continue
		}
		// What Cluster.NewProcess does, with the timing wrapper around
		// the module's transport.
		cl.tr = newTracer()
		cl.seam.proc, err = pvfs.NewClient(pvfs.Config{
			Network:   w.cl.Network,
			MgrAddr:   w.cl.MgrAddr,
			IODAddrs:  w.cl.IODDataAddrs,
			ClientID:  1,
			Transport: &seam{inner: w.cl.Module(0).NewTransport(), t: cl.tr},
		})
		if err != nil {
			return w, err
		}
		if err := cl.seam.open(s); err != nil {
			return w, err
		}
	}
	w.run(false, func(cl *client, _ time.Time) bool { return cl.ops >= int64(s.warmOps) })
	if err := w.firstFailure(); err != nil {
		return w, fmt.Errorf("warm-up: %w", err)
	}
	runtime.GC()
	return w, nil
}

func (h *handles) open(s *spec) error {
	for _, fsp := range s.files {
		f, err := h.proc.Open(fsp.name)
		if err != nil {
			return err
		}
		h.files = append(h.files, f)
	}
	return nil
}

func (w *world) close() {
	for _, cl := range w.clients {
		for _, h := range []handles{cl.plain, cl.seam} {
			if h.proc != nil {
				h.proc.Close()
			}
		}
	}
	if w.cl != nil {
		w.cl.Close()
	}
	if w.dataDir != "" {
		os.RemoveAll(w.dataDir)
	}
}

func (w *world) firstFailure() error {
	for _, cl := range w.clients {
		if cl.firstFail != nil {
			return cl.firstFail
		}
	}
	return nil
}

// run resets every client's measurements — not its tracer, which keeps the
// spans of all traced slices — and drives all clients, each in
// its own goroutine, until done — asked after each op, with the time the op
// returned — reports true for it.
func (w *world) run(traced bool, done func(*client, time.Time) bool) {
	var wg sync.WaitGroup
	for _, cl := range w.clients {
		cl.rd, cl.wr = hist{}, hist{}
		cl.ops, cl.bytes, cl.failed = 0, 0, 0
		wg.Add(1)
		go func() {
			defer wg.Done()
			cl.loop(traced, done)
		}()
	}
	wg.Wait()
}

// loop is the closed loop of one application process.
func (cl *client) loop(traced bool, done func(*client, time.Time) bool) {
	w := cl.w
	h, tr := cl.plain, (*tracer)(nil)
	if traced {
		h, tr = cl.seam, cl.tr
	}
	for n, end := int64(0), (time.Time{}); n == 0 || !done(cl, end); n++ {
		o := cl.gen()
		g := w.base[o.file] + o.slot
		off := int64(o.slot) * int64(len(cl.buf))
		var err error
		if o.write {
			seq := w.acked[g].Load() + 1 // a slot has one writer
			fillSlot(cl.buf, w.seed, g, seq)
			var t0 int64
			if tr != nil {
				t0 = tr.beginOp()
			}
			start := time.Now()
			_, err = h.files[o.file].WriteAt(cl.buf, off)
			end = time.Now()
			cl.wr.add(int64(end.Sub(start)))
			if tr != nil {
				tr.endOp(spanWriteAt, t0)
			}
			if err == nil {
				w.acked[g].Store(seq)
			}
		} else {
			minSeq := w.acked[g].Load()
			var t0 int64
			if tr != nil {
				t0 = tr.beginOp()
			}
			start := time.Now()
			var got int
			got, err = h.files[o.file].ReadAt(cl.buf, off)
			end = time.Now()
			cl.rd.add(int64(end.Sub(start)))
			if tr != nil {
				tr.endOp(spanReadAt, t0)
			}
			if err == nil && got != len(cl.buf) {
				err = fmt.Errorf("short read: %d of %d bytes", got, len(cl.buf))
			}
			if err == nil && n%verifyEvery == 0 {
				err = checkSlot(cl.buf, w.seed, g, minSeq)
			}
		}
		cl.ops++
		if err != nil {
			cl.fail(fmt.Errorf("%s slot %d: %w", w.spec.files[o.file].name, o.slot, err))
			continue
		}
		cl.bytes += int64(len(cl.buf))
	}
}

func (cl *client) fail(err error) {
	cl.failed++
	if cl.firstFail == nil {
		cl.firstFail = err
	}
}

// window is what one measured interval — a slice of a run — produced.
type window struct {
	wall       time.Duration
	ops        int64
	bytes      int64
	failed     int64
	rd, wr     hist
	cpu        time.Duration // user + system, whole process
	mallocs    uint64
	allocBytes uint64
	wchar      int64            // bytes passed to write-like syscalls
	syscw      int64            // write-like syscalls
	counters   map[string]int64 // registry counter deltas; traced worlds only
	netWrites  int64
	netBytes   int64
}

// add folds another window into win, so counts made over several slices
// read as one interval.
func (win *window) add(o *window) {
	win.wall += o.wall
	win.ops += o.ops
	win.bytes += o.bytes
	win.failed += o.failed
	win.rd.merge(&o.rd)
	win.wr.merge(&o.wr)
	win.cpu += o.cpu
	win.mallocs += o.mallocs
	win.allocBytes += o.allocBytes
	win.wchar += o.wchar
	win.syscw += o.syscw
	win.netWrites += o.netWrites
	win.netBytes += o.netBytes
	for name, v := range o.counters {
		if win.counters == nil {
			win.counters = make(map[string]int64)
		}
		win.counters[name] += v
	}
}

// measure drives the clients for d and, on a draining workload, keeps the
// clock running until every byte written is on the backends.
func (w *world) measure(d time.Duration, traced bool) (window, error) {
	var win window
	var regBefore metrics.Snapshot
	if w.net != nil {
		regBefore = w.cl.Reg.Snapshot()
		win.netWrites, win.netBytes = -w.net.writes.Load(), -w.net.bytes.Load()
	}
	before := takeSysSnap()
	deadline := before.at.Add(d)
	w.run(traced, func(_ *client, now time.Time) bool { return !now.Before(deadline) })
	var err error
	if w.spec.drain {
		err = w.drain()
	}
	after := takeSysSnap()
	win.wall = after.at.Sub(before.at)
	win.cpu = after.cpu - before.cpu
	win.mallocs = after.mallocs - before.mallocs
	win.allocBytes = after.allocBytes - before.allocBytes
	win.wchar = after.wchar - before.wchar
	win.syscw = after.syscw - before.syscw
	if w.net != nil {
		win.counters = w.cl.Reg.Snapshot().Diff(regBefore)
		win.netWrites += w.net.writes.Load()
		win.netBytes += w.net.bytes.Load()
	}
	for _, cl := range w.clients {
		win.ops += cl.ops
		win.bytes += cl.bytes
		win.failed += cl.failed
		win.rd.merge(&cl.rd)
		win.wr.merge(&cl.wr)
	}
	return win, err
}

func (w *world) drain() error {
	if err := w.cl.FlushAll(); err != nil {
		return fmt.Errorf("drain: %w", err)
	}
	for i, be := range w.cl.Backends {
		if err := be.Sync(); err != nil {
			return fmt.Errorf("drain: syncing iod %d: %w", i, err)
		}
	}
	return nil
}

// readBack reads every slot of every file and verifies it against the last
// write acknowledged to it. With restartCheck it first restarts every iod
// and empties the node cache, so the bytes come from what the disk engine
// recovered. It returns the slots attempted and those that failed.
func (w *world) readBack() (attempted, failed int64, first error) {
	note := func(err error) {
		failed++
		if first == nil {
			first = err
		}
	}
	if w.spec.restartCheck {
		if err := w.drain(); err != nil {
			return 1, 1, err
		}
		for i := range w.cl.IODs {
			if err := errors.Join(w.cl.CrashIOD(i), w.cl.RestartIOD(i)); err != nil {
				return 1, 1, fmt.Errorf("restarting iod %d: %w", i, err)
			}
		}
	}
	h := w.clients[0].plain
	buf := w.clients[0].buf
	for f, file := range h.files {
		if w.spec.restartCheck {
			w.cl.Module(0).Buffer().InvalidateFile(file.ID())
		}
		for slot := 0; slot < w.spec.slots(f); slot++ {
			attempted++
			g := w.base[f] + slot
			minSeq := w.acked[g].Load()
			n, err := file.ReadAt(buf, int64(slot)*int64(len(buf)))
			if err == nil && n != len(buf) {
				err = fmt.Errorf("short read: %d of %d bytes", n, len(buf))
			}
			if err == nil {
				err = checkSlot(buf, w.seed, g, minSeq)
			}
			if err != nil {
				note(fmt.Errorf("read-back of %s slot %d: %w", w.spec.files[f].name, slot, err))
			}
		}
	}
	return attempted, failed, first
}

// liveBytes is the user data the workload's files hold.
func (s *spec) liveBytes() int64 {
	var n int64
	for _, f := range s.files {
		n += f.size
	}
	return n
}

// dirBytes sums the disk space allocated to the regular files under dir.
// Allocated, not apparent: the engine's data files are sparse.
func dirBytes(dir string) (int64, error) {
	var n int64
	err := filepath.WalkDir(dir, func(_ string, d fs.DirEntry, err error) error {
		if err != nil || !d.Type().IsRegular() {
			return err
		}
		info, err := d.Info()
		if err != nil {
			return err
		}
		if st, ok := info.Sys().(*syscall.Stat_t); ok {
			n += st.Blocks * 512
		}
		return nil
	})
	return n, err
}
