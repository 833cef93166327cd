package main

import (
	"bytes"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"runtime"
	"slices"
	"time"

	"pvfscache/internal/blockio"
	"pvfscache/internal/cachemod/buffer"
	"pvfscache/internal/cluster"
	"pvfscache/internal/iod"
	"pvfscache/internal/metrics"
	"pvfscache/internal/pvfs"
	"pvfscache/internal/rpc"
	"pvfscache/internal/storage/disk"
	"pvfscache/internal/storage/mem"
	"pvfscache/internal/transport"
	"pvfscache/internal/wire"
)

// The probes drive one layer's public functions standalone, with the op
// shape the workloads produce, so a layer has a number of its own to set
// beside the end-to-end ones. Each runs for probeBudget in probeBatches
// batches and reports the median batch. None depends on the workload, so a
// traced run measures them once.
const (
	probeBudget  = time.Second
	probeBatches = 5
	kb64         = 64 << 10
)

// prober carries the budget and collects the probes' results.
type prober struct {
	budget time.Duration
	tmp    string
	out    map[string]float64
}

// timeOp runs op back to back and returns the median batch's nanoseconds
// per call and the heap allocations per call over all batches.
func (p *prober) timeOp(op func() error) (ns, allocs float64, err error) {
	batch := p.budget / probeBatches
	n := 1
	for {
		start := time.Now()
		for i := 0; i < n; i++ {
			if err := op(); err != nil {
				return 0, 0, err
			}
		}
		if d := time.Since(start); d >= batch/20 || n >= 1<<30 {
			n = max(1, int(float64(n)*float64(batch)/float64(max(d, 1))))
			break
		}
		n *= 2
	}
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	mallocs := ms.Mallocs
	per := make([]float64, probeBatches)
	for b := range per {
		start := time.Now()
		for i := 0; i < n; i++ {
			if err := op(); err != nil {
				return 0, 0, err
			}
		}
		per[b] = float64(time.Since(start)) / float64(n)
	}
	runtime.ReadMemStats(&ms)
	slices.Sort(per)
	return per[probeBatches/2], float64(ms.Mallocs-mallocs) / float64(n*probeBatches), nil
}

// timeSection is timeOp for a probe that needs untimed preparation before
// every timed section: it times each section on its own.
func (p *prober) timeSection(prep, section func() error) (ns float64, err error) {
	var samples []float64
	for end := time.Now().Add(p.budget); time.Now().Before(end) || len(samples) < probeBatches; {
		if err := prep(); err != nil {
			return 0, err
		}
		start := time.Now()
		if err := section(); err != nil {
			return 0, err
		}
		samples = append(samples, float64(time.Since(start)))
	}
	per := make([]float64, probeBatches)
	for b := range per {
		group := samples[b*len(samples)/probeBatches : (b+1)*len(samples)/probeBatches]
		for _, s := range group {
			per[b] += s / float64(len(group))
		}
	}
	slices.Sort(per)
	return per[probeBatches/2], nil
}

// runProbes runs every probe and returns their results by metric name, in
// the unit the metric table gives.
func runProbes(budget time.Duration, tmp string) (map[string]float64, error) {
	p := &prober{budget: budget, tmp: tmp, out: make(map[string]float64)}
	for _, probe := range []func() error{
		p.control, p.buffer, p.fabric, p.wire, p.rpc, p.iod, p.storageMem, p.storageDisk, p.live,
	} {
		if err := probe(); err != nil {
			return nil, err
		}
	}
	return p.out, nil
}

// control: the hardware and harness controls — memcpy at the request sizes
// (the roofline of a cached hit; the source walks 8 MB like hit_shared's
// file does), and what the loop itself adds inside the measured window: the
// time.Now pair around every op and the payload generated before every
// write. A read's verification costs as much as a fill, once in
// verifyEvery reads.
func (p *prober) control() error {
	src := make([]byte, 8<<20)
	for i := range src {
		src[i] = byte(i)
	}
	for _, c := range []struct {
		name string
		size int
	}{{"control.memcpy_16k_ns", 16 << 10}, {"control.memcpy_64k_ns", kb64}} {
		dst := make([]byte, c.size)
		off := 0
		ns, _, _ := p.timeOp(func() error {
			copy(dst, src[off:off+c.size])
			off = (off + c.size) % len(src)
			return nil
		})
		p.out[c.name] = ns
	}
	var sink time.Duration
	ns, _, _ := p.timeOp(func() error {
		sink += time.Since(time.Now())
		return nil
	})
	p.out["bench.timer_ns"] = ns
	for _, c := range []struct {
		name string
		size int
	}{{"bench.fill_16k_ns", 16 << 10}, {"bench.fill_64k_ns", kb64}} {
		buf := make([]byte, c.size)
		seq := uint64(0)
		ns, _, _ := p.timeOp(func() error {
			seq++
			fillSlot(buf, 1, int(seq%512), seq)
			return nil
		})
		p.out[c.name] = ns
	}
	return nil
}

// buffer: the block cache's four hot calls on one 4 KB block.
func (p *prober) buffer() error {
	const resident = 1024
	m := buffer.New(buffer.Config{Capacity: 2 * resident})
	block := make([]byte, blockSize)
	key := func(i int) blockio.BlockKey { return blockio.BlockKey{File: 1, Index: int64(i)} }
	for i := 0; i < resident; i++ {
		if out := m.InsertClean(key(i), 0, block); out != buffer.OutcomeOK {
			return fmt.Errorf("buffer probe: preload: %v", out)
		}
	}
	i := 0
	ns, _, err := p.timeOp(func() error {
		i++
		if !m.ReadSpan(key(i%resident), 0, block) {
			return fmt.Errorf("buffer probe: ReadSpan missed a resident block")
		}
		return nil
	})
	if err != nil {
		return err
	}
	p.out["buffer.readspan_4k_ns"] = ns

	// Dirty a batch, then take it and hand it back: the flusher's side.
	const batch = 64
	ns, err = p.timeSection(func() error {
		for j := 0; j < batch; j++ {
			i++
			if out := m.WriteSpan(key(i%resident), 0, 0, block, true); out != buffer.OutcomeOK {
				return fmt.Errorf("buffer probe: WriteSpan: %v", out)
			}
		}
		return nil
	}, func() error {
		items := m.TakeDirtyOwned(0, batch)
		if len(items) != batch {
			return fmt.Errorf("buffer probe: TakeDirtyOwned returned %d of %d", len(items), batch)
		}
		m.FlushDone(items)
		return nil
	})
	if err != nil {
		return err
	}
	p.out["buffer.takedirty_ns_per_block"] = ns / batch

	ns, _, err = p.timeOp(func() error {
		i++
		if out := m.WriteSpan(key(i%resident), 0, 0, block, true); out != buffer.OutcomeOK {
			return fmt.Errorf("buffer probe: WriteSpan: %v", out)
		}
		return nil
	})
	if err != nil {
		return err
	}
	p.out["buffer.writespan_4k_ns"] = ns
	m.FlushDone(m.TakeDirty(0))

	// Ever-new keys into a full cache: install plus the eviction it forces.
	i = 2 * resident
	ns, _, err = p.timeOp(func() error {
		i++
		k := blockio.BlockKey{File: 2, Index: int64(i)}
		if out := m.InstallFetched(k, 0, block, m.WriteStamp(k)); out != buffer.OutcomeOK {
			return fmt.Errorf("buffer probe: InstallFetched: %v", out)
		}
		return nil
	})
	p.out["buffer.install_4k_ns"] = ns
	return err
}

// fabric: bare MemNetwork ping-pong, the control under every rpc number.
func (p *prober) fabric() error {
	net := transport.NewMem()
	l, err := net.Listen(":0")
	if err != nil {
		return err
	}
	defer l.Close()
	// The peer answers an 8-byte request whose first byte selects the
	// reply: 8 bytes or 64 KB.
	go func() {
		conn, err := l.Accept()
		if err != nil {
			return
		}
		defer conn.Close()
		req, big := make([]byte, 8), make([]byte, kb64)
		for {
			if _, err := io.ReadFull(conn, req); err != nil {
				return
			}
			reply := req
			if req[0] == 1 {
				reply = big
			}
			if _, err := conn.Write(reply); err != nil {
				return
			}
		}
	}()
	conn, err := net.Dial(l.Addr())
	if err != nil {
		return err
	}
	defer conn.Close() // ends the peer's ReadFull
	for _, c := range []struct {
		name  string
		big   byte
		reply []byte
	}{{"transport.pipe_rtt_us", 0, make([]byte, 8)}, {"transport.pipe_64k_us", 1, make([]byte, kb64)}} {
		req := []byte{c.big, 0, 0, 0, 0, 0, 0, 0}
		ns, _, err := p.timeOp(func() error {
			if _, err := conn.Write(req); err != nil {
				return err
			}
			_, err := io.ReadFull(conn, c.reply)
			return err
		})
		if err != nil {
			return fmt.Errorf("fabric probe: %w", err)
		}
		p.out[c.name] = ns / 1e3
	}
	return nil
}

// blocksResp64k is the response a 64 KB miss brings back: 16 blocks.
func blocksResp64k() *wire.ReadBlocksResp {
	resp := &wire.ReadBlocksResp{Status: wire.StatusOK, Data: make([]byte, kb64)}
	for i := 0; i < kb64/blockSize; i++ {
		resp.Lens = append(resp.Lens, blockSize)
	}
	return resp
}

// wire: framing a 16-block vectored read response and decoding it in
// zero-copy mode.
func (p *prober) wire() error {
	resp := blocksResp64k()
	var frame bytes.Buffer
	ns, _, err := p.timeOp(func() error {
		frame.Reset()
		return wire.WriteTagged(&frame, 7, resp)
	})
	if err != nil {
		return fmt.Errorf("wire probe: %w", err)
	}
	p.out["wire.encode_64k_ns"] = ns
	rd := bytes.NewReader(nil)
	ns, allocs, err := p.timeOp(func() error {
		rd.Reset(frame.Bytes())
		_, _, _, payload, err := wire.ReadFrameAliased(rd)
		wire.ReleasePayload(payload)
		return err
	})
	if err != nil {
		return fmt.Errorf("wire probe: %w", err)
	}
	p.out["wire.decode_64k_ns"] = ns
	p.out["wire.decode_64k_allocs"] = allocs
	return nil
}

// call is one synchronous round trip whose reply must carry StatusOK.
func call(c *rpc.Client, req wire.Message) error {
	res := c.Call(req)
	if res.Err != nil {
		return res.Err
	}
	defer res.Release()
	var st wire.Status
	switch m := res.Msg.(type) {
	case *wire.ReadResp:
		st = m.Status
	case *wire.ReadBlocksResp:
		st = m.Status
	case *wire.WriteAck:
		st = m.Status
	case *wire.FlushAck:
		st = m.Status
	default:
		return fmt.Errorf("unexpected reply %v", res.Msg.WireType())
	}
	return st.Err()
}

// rpc: Client.Call against an echo server over the in-memory fabric, with
// a header-only reply and with a 64 KB one.
func (p *prober) rpc() error {
	net := transport.NewMem()
	l, err := net.Listen(":0")
	if err != nil {
		return err
	}
	small, big := &wire.ReadResp{Status: wire.StatusOK}, blocksResp64k()
	srv := rpc.NewServer(rpc.HandlerFunc(func(m wire.Message) wire.Message {
		if _, ok := m.(*wire.ReadBlocks); ok {
			return big
		}
		return small
	}), rpc.ServerConfig{})
	go srv.Serve(l)
	defer srv.Close()
	defer l.Close()
	c := rpc.NewClient(rpc.ClientConfig{Network: net, Addr: l.Addr()})
	defer c.Close()

	ns, _, err := p.timeOp(func() error { return call(c, &wire.Read{}) })
	if err != nil {
		return fmt.Errorf("rpc probe: %w", err)
	}
	p.out["rpc.call_hdr_us"] = ns / 1e3
	req := &wire.ReadBlocks{Exts: []wire.ReadExtent{{Length: kb64}}}
	ns, allocs, err := p.timeOp(func() error { return call(c, req) })
	if err != nil {
		return fmt.Errorf("rpc probe: %w", err)
	}
	p.out["rpc.call_64k_us"] = ns / 1e3
	p.out["rpc.call_64k_allocs"] = allocs
	return nil
}

// iod: an rpc client against a standalone daemon on the mem backend — a
// 16-block vectored read on the data port, a 64 KB run on the flush port.
// Subtract rpc.call_64k_us for the handlers' own time.
func (p *prober) iod() error {
	net := transport.NewMem()
	d := iod.NewWithBackend(0, blockSize, net, metrics.NewRegistry(), mem.New())
	defer d.Close()
	var clients [2]*rpc.Client
	for i, serve := range []func(transport.Listener) error{d.ServeData, d.ServeFlush} {
		l, err := net.Listen(":0")
		if err != nil {
			return err
		}
		defer l.Close()
		go serve(l)
		clients[i] = rpc.NewClient(rpc.ClientConfig{Network: net, Addr: l.Addr()})
		defer clients[i].Close()
	}
	const file, span = 1, 8 << 20
	data := make([]byte, kb64)
	for off := int64(0); off < span; off += kb64 {
		if err := call(clients[0], &wire.Write{File: file, Offset: off, Data: data}); err != nil {
			return fmt.Errorf("iod probe: %w", err)
		}
	}
	read := &wire.ReadBlocks{File: file, Exts: make([]wire.ReadExtent, kb64/blockSize)}
	off := int64(0)
	ns, _, err := p.timeOp(func() error {
		for i := range read.Exts {
			read.Exts[i] = wire.ReadExtent{Offset: off + int64(i)*blockSize, Length: blockSize}
		}
		off = (off + kb64) % span
		return call(clients[0], read)
	})
	if err != nil {
		return fmt.Errorf("iod probe: %w", err)
	}
	p.out["iod.readblocks_64k_us"] = ns / 1e3
	flush := &wire.Flush{File: file, Blocks: []wire.FlushBlock{{Data: data}}}
	ns, _, err = p.timeOp(func() error {
		flush.Blocks[0].Index = off / blockSize
		off = (off + kb64) % span
		return call(clients[1], flush)
	})
	if err != nil {
		return fmt.Errorf("iod probe: %w", err)
	}
	p.out["iod.flush_64k_us"] = ns / 1e3
	return nil
}

// storageMem: the in-memory backend, 64 KB at rotating offsets.
func (p *prober) storageMem() error {
	const span = 8 << 20
	be := mem.New()
	data := make([]byte, kb64)
	off := int64(0)
	next := func() int64 { off = (off + kb64) % span; return off }
	ns, _, err := p.timeOp(func() error { return be.WriteAt(1, next(), data) })
	if err != nil {
		return fmt.Errorf("storage_mem probe: %w", err)
	}
	p.out["storage_mem.write_64k_ns"] = ns
	ns, _, err = p.timeOp(func() error { _, err := be.ReadAt(1, next(), data); return err })
	if err != nil {
		return fmt.Errorf("storage_mem probe: %w", err)
	}
	p.out["storage_mem.read_64k_ns"] = ns
	return nil
}

// storageDisk: the journal + checkpoint engine under the fsync policy the
// disk workload fixes ("onclose"), and its control — a plain os.File
// append of the same 64 KB under the same policy.
func (p *prober) storageDisk() error {
	const span = 16 << 20
	dir, err := os.MkdirTemp(p.tmp, "probe-disk-")
	if err != nil {
		return err
	}
	defer os.RemoveAll(dir)
	be, err := disk.Open(disk.Options{Dir: filepath.Join(dir, "engine"), Fsync: disk.SyncOnClose})
	if err != nil {
		return err
	}
	defer be.Close()
	data := make([]byte, kb64)
	off := int64(0)
	next := func() int64 { off = (off + kb64) % span; return off }
	ns, _, err := p.timeOp(func() error { return be.WriteAt(1, next(), data) })
	if err != nil {
		return fmt.Errorf("storage_disk probe: %w", err)
	}
	p.out["storage_disk.write_64k_us"] = ns / 1e3
	ns, _, err = p.timeOp(func() error { _, err := be.ReadAt(1, next(), data); return err })
	if err != nil {
		return fmt.Errorf("storage_disk probe: %w", err)
	}
	p.out["storage_disk.read_64k_us"] = ns / 1e3
	ns, err = p.timeSection(func() error { return be.WriteAt(1, next(), data) }, be.Sync)
	if err != nil {
		return fmt.Errorf("storage_disk probe: %w", err)
	}
	p.out["storage_disk.sync_ms"] = ns / 1e6

	raw, err := os.OpenFile(filepath.Join(dir, "raw.log"), os.O_WRONLY|os.O_CREATE|os.O_APPEND, 0o666)
	if err != nil {
		return err
	}
	defer raw.Close()
	written := 0
	ns, _, err = p.timeOp(func() error {
		if written += kb64; written > 64<<20 {
			written = 0
			if err := raw.Truncate(0); err != nil {
				return err
			}
		}
		_, err := raw.Write(data)
		return err
	})
	if err != nil {
		return fmt.Errorf("storage_disk probe: %w", err)
	}
	p.out["storage_disk.raw_append_64k_us"] = ns / 1e3
	return nil
}

// live: probes that need a whole cluster — a metadata open, original PVFS
// with no cache module (a miss's p50 minus control.direct_read_64k_us is
// the module's miss overhead, the paper's Fig 4), and a global-cache
// remote hit.
func (p *prober) live() error {
	const span = 8 << 20
	seedFile := func(c *cluster.Cluster, node int, name string, size int64) (*pvfs.Client, *pvfs.File, error) {
		proc, err := c.NewProcess(node)
		if err != nil {
			return nil, nil, err
		}
		f, err := proc.Create(name, pvfs.StripeSpec{})
		if err == nil {
			_, err = f.WriteAt(make([]byte, size), 0)
		}
		if err == nil {
			err = c.FlushAll()
		}
		if err != nil {
			proc.Close()
		}
		return proc, f, err
	}

	direct, err := cluster.Start(cluster.Config{IODs: 4, ClientNodes: 1})
	if err != nil {
		return err
	}
	defer direct.Close()
	proc, f, err := seedFile(direct, 0, "probe.dat", span)
	if err != nil {
		return fmt.Errorf("live probe: %w", err)
	}
	defer proc.Close()
	buf := make([]byte, kb64)
	off := int64(0)
	next := func() int64 { off = (off + kb64) % span; return off }
	ns, _, err := p.timeOp(func() error { _, err := f.ReadAt(buf, next()); return err })
	if err != nil {
		return fmt.Errorf("live probe: %w", err)
	}
	p.out["control.direct_read_64k_us"] = ns / 1e3
	ns, _, err = p.timeOp(func() error { _, err := f.WriteAt(buf, next()); return err })
	if err != nil {
		return fmt.Errorf("live probe: %w", err)
	}
	p.out["control.direct_write_64k_us"] = ns / 1e3
	ns, _, err = p.timeOp(func() error {
		h, err := proc.Open("probe.dat")
		if err != nil {
			return err
		}
		return h.Close()
	})
	if err != nil {
		return fmt.Errorf("live probe: %w", err)
	}
	p.out["mgr.open_us"] = ns / 1e3

	// Node 0 caches the data; node 1 drops its own copy before each read,
	// so every read is served by peer gets.
	gc, err := cluster.Start(cluster.Config{IODs: 2, ClientNodes: 2, Caching: true, GlobalCache: true})
	if err != nil {
		return err
	}
	defer gc.Close()
	holder, _, err := seedFile(gc, 0, "gc.dat", 256<<10)
	if err != nil {
		return fmt.Errorf("live probe: %w", err)
	}
	defer holder.Close()
	reader, err := gc.NewProcess(1)
	if err != nil {
		return err
	}
	defer reader.Close()
	rf, err := reader.Open("gc.dat")
	if err != nil {
		return fmt.Errorf("live probe: %w", err)
	}
	ns, err = p.timeSection(func() error {
		gc.Module(1).Buffer().InvalidateFile(rf.ID())
		return nil
	}, func() error { _, err := rf.ReadAt(buf, 0); return err })
	if err != nil {
		return fmt.Errorf("live probe: %w", err)
	}
	p.out["globalcache.remote_get_64k_us"] = ns / 1e3
	return nil
}
