package pvfs_test

import (
	"bytes"
	"errors"
	"io"
	"testing"

	"pvfscache/internal/blockio"
	"pvfscache/internal/cluster"
	"pvfscache/internal/pvfs"
	"pvfscache/internal/wire"
)

// hazardTransport wraps a live transport the way pvfsperf's tracing seam
// does — forwarding the zero-copy and hinting extensions — and adds the two
// things the scratch-reuse test needs: out is the set of ids sent and not
// yet Recv'd, and the failAt-th send (Send or SendRead) is refused.
type hazardTransport struct {
	inner  pvfs.Transport
	sends  int
	failAt int
	out    map[pvfs.ReqID]bool
}

var errHazard = errors.New("hazard: send refused")

func (h *hazardTransport) refuse() bool {
	h.sends++
	return h.sends == h.failAt
}

func (h *hazardTransport) Send(iod int, req wire.Message) (pvfs.ReqID, error) {
	if h.refuse() {
		return 0, errHazard
	}
	id, err := h.inner.Send(iod, req)
	if err == nil {
		h.out[id] = true
	}
	return id, err
}

func (h *hazardTransport) SendRead(iod int, req wire.Message, sink [][]byte) (pvfs.ReqID, bool, error) {
	if h.refuse() {
		return 0, false, errHazard
	}
	id, ok, err := h.inner.SendRead(iod, req, sink)
	if ok && err == nil {
		h.out[id] = true
	}
	return id, ok, err
}

func (h *hazardTransport) Recv(id pvfs.ReqID) (wire.Message, error) {
	delete(h.out, id)
	return h.inner.Recv(id)
}

func (h *hazardTransport) Close() error { return h.inner.Close() }

func (h *hazardTransport) StripeHint(file blockio.FileID, meta wire.FileMeta, totalIODs int) {
	if s, ok := h.inner.(pvfs.StripeHinter); ok {
		s.StripeHint(file, meta, totalIODs)
	}
}

func (h *hazardTransport) NoteRead(file blockio.FileID, offset, length int64) {
	if s, ok := h.inner.(pvfs.ReadPatternHinter); ok {
		s.NoteRead(file, offset, length)
	}
}

// imaged is a file with the plain in-memory image its bytes are checked
// against.
type imaged struct {
	f   *pvfs.File
	img []byte
}

func (m *imaged) write(t *testing.T, sync bool, off int64, p []byte) {
	t.Helper()
	var err error
	if sync {
		_, err = m.f.SyncWriteAt(p, off)
	} else {
		_, err = m.f.WriteAt(p, off)
	}
	if err != nil {
		t.Fatalf("write %s @%d+%d: %v", m.f.Name(), off, len(p), err)
	}
	if need := int(off) + len(p); need > len(m.img) {
		m.img = append(m.img, make([]byte, need-len(m.img))...)
	}
	copy(m.img[off:], p)
}

func (m *imaged) read(t *testing.T, off, length int64) {
	t.Helper()
	buf := bytes.Repeat([]byte{0xEE}, int(length))
	n, err := m.f.ReadAt(buf, off)
	want := m.img[min(off, int64(len(m.img))):min(off+length, int64(len(m.img)))]
	if short := len(want) < len(buf); (err == io.EOF) != short || (err != nil && err != io.EOF) {
		t.Fatalf("read %s @%d+%d: n=%d err=%v, image holds %d", m.f.Name(), off, length, n, err, len(want))
	}
	if n != len(want) || !bytes.Equal(buf[:n], want) {
		t.Fatalf("read %s @%d+%d: wrong bytes (n=%d, want %d)", m.f.Name(), off, length, n, len(want))
	}
	for _, b := range buf[n:] {
		if b != 0xEE {
			t.Fatalf("read %s @%d+%d wrote past the %d bytes it returned", m.f.Name(), off, length, n)
		}
	}
}

func fill(seed byte, n int) []byte {
	p := make([]byte, n)
	for i := range p {
		p[i] = seed + byte(i*7+i/4096)
	}
	return p
}

// TestEveryReadIsVectored: a read has one shape on the wire. A single-piece
// and a multi-strip ReadAt, through the uncached transport and through the
// cache module, each reach the iods, and only as ReadBlocks: iod.reads
// equals iod.vector_reads afterwards. The registry sums the iods and a
// daemon's vector reads are a subset of its reads, so equal sums mean equal
// counts at every iod.
func TestEveryReadIsVectored(t *testing.T) {
	for _, cached := range []bool{false, true} {
		name := "direct"
		if cached {
			name = "cached"
		}
		t.Run(name, func(t *testing.T) {
			cl, err := cluster.Start(cluster.Config{IODs: 3, ClientNodes: 1, Caching: cached, CacheBlocks: 48})
			if err != nil {
				t.Fatal(err)
			}
			defer cl.Close()
			// The bytes are written around the reader's cache, so its reads
			// miss and go to the iods.
			w, err := pvfs.NewClient(pvfs.Config{Network: cl.Network, MgrAddr: cl.MgrAddr, IODAddrs: cl.IODDataAddrs, ClientID: 9})
			if err != nil {
				t.Fatal(err)
			}
			defer w.Close()
			fw, err := w.Create("v", pvfs.StripeSpec{SSize: 4096})
			if err != nil {
				t.Fatal(err)
			}
			img := fill(3, 64<<10)
			if _, err := fw.WriteAt(img, 0); err != nil {
				t.Fatal(err)
			}
			c, err := cl.NewProcess(0)
			if err != nil {
				t.Fatal(err)
			}
			defer c.Close()
			fr, err := c.Open("v")
			if err != nil {
				t.Fatal(err)
			}
			m := &imaged{f: fr, img: img}
			reads, vreads := cl.Reg.Counter("iod.reads"), cl.Reg.Counter("iod.vector_reads")
			for _, rd := range []struct {
				name        string
				off, length int64
			}{
				{"one piece", 5*4096 + 100, 1000},
				{"eight pieces over three iods", 8 * 4096, 8 * 4096},
			} {
				before := reads.Value()
				m.read(t, rd.off, rd.length)
				if reads.Value() == before {
					t.Fatalf("%s: no read reached an iod", rd.name)
				}
				if reads.Value() != vreads.Value() {
					t.Fatalf("%s: iod.reads = %d, iod.vector_reads = %d: a read travelled in another shape", rd.name, reads.Value(), vreads.Value())
				}
			}
		})
	}
}

// TestScratchReuseAcrossShapes is the reuse-hazard test of the client's one
// opScratch: a single Client interleaves operations of very different shapes
// on two files — one piece, eight pieces over two striping cycles (vectored
// per iod), a read crossing EOF, an operation whose second send is refused,
// one piece again, plain and coherent writes — so each operation plans into
// slices, request structs and sink entries the previous one left behind.
// File "a" has PCount 4 on a client that knows three iods (PCount >
// totalIODs: the iods repeat inside a cycle). Every byte read is checked
// against a plain in-memory image and every id sent is Recv'd, against the
// uncached transport and against the cache module's.
func TestScratchReuseAcrossShapes(t *testing.T) {
	for _, cached := range []bool{false, true} {
		name := "direct"
		if cached {
			name = "cached"
		}
		t.Run(name, func(t *testing.T) {
			cl, err := cluster.Start(cluster.Config{IODs: 4, ClientNodes: 1, Caching: cached, CacheBlocks: 48})
			if err != nil {
				t.Fatal(err)
			}
			defer cl.Close()
			addrs := cl.IODDataAddrs[:3]
			var inner pvfs.Transport = pvfs.NewDirectTransport(cl.Network, addrs)
			if cached {
				inner = cl.Module(0).NewTransport()
			}
			hz := &hazardTransport{inner: inner, out: make(map[pvfs.ReqID]bool)}
			c, err := pvfs.NewClient(pvfs.Config{
				Network: cl.Network, MgrAddr: cl.MgrAddr, IODAddrs: addrs, ClientID: 1,
				Transport: hz, OverloadRetries: -1,
			})
			if err != nil {
				t.Fatal(err)
			}
			defer c.Close()
			fa, err := c.Create("a", pvfs.StripeSpec{SSize: 4096})
			if err != nil {
				t.Fatal(err)
			}
			fb, err := c.Create("b", pvfs.StripeSpec{Base: 1, PCount: 2, SSize: 8192})
			if err != nil {
				t.Fatal(err)
			}
			if fa.Meta().PCount <= uint32(len(addrs)) {
				t.Fatalf("file a has PCount %d, want more than the client's %d iods", fa.Meta().PCount, len(addrs))
			}
			a, b := &imaged{f: fa}, &imaged{f: fb}
			drained := func(what string) {
				t.Helper()
				if len(hz.out) != 0 {
					t.Fatalf("%s: %d id(s) sent and never Recv'd", what, len(hz.out))
				}
			}
			a.write(t, false, 0, fill(1, 96<<10))      // 24 pieces, 8 cycles
			b.write(t, false, 0, fill(2, 40<<10+1000)) // EOF inside a strip
			drained("seeding")

			for round := int64(0); round < 3; round++ {
				shift := round * 3 * 4096
				a.read(t, 5*4096+100+shift, 1000) // one piece
				drained("one piece")
				a.read(t, 2*4096+shift, 8*4096) // eight pieces, two cycles
				drained("eight pieces")
				b.read(t, int64(len(b.img))-5000, 16<<10) // crosses EOF
				drained("crossing EOF")
				b.read(t, int64(len(b.img)), 4096) // at EOF: nothing planned
				drained("at EOF")

				// The second send of a multi-iod read is refused: the first
				// request is already out and must still be Recv'd.
				hz.failAt = hz.sends + 2
				if _, err := fa.ReadAt(make([]byte, 8*4096), shift); !errors.Is(err, errHazard) {
					t.Fatalf("refused read: err = %v", err)
				}
				drained("refused read")
				// The same for a write; it rewrites what the image already
				// holds, so whichever pieces landed change nothing.
				hz.failAt = hz.sends + 2
				if _, err := fb.WriteAt(b.img[8192+shift:8192+shift+16384], 8192+shift); !errors.Is(err, errHazard) {
					t.Fatalf("refused write: err = %v", err)
				}
				drained("refused write")

				b.read(t, 8192+shift+50, 500) // one piece, after the failures
				drained("one piece after failure")
				a.write(t, false, int64(len(a.img))-2048, fill(byte(10+round), 5*4096)) // extends the file
				b.write(t, true, 3*8192+shift, fill(byte(20+round), 3000))              // coherent, one piece
				a.write(t, true, 4096+shift, fill(byte(30+round), 3*4096))              // coherent, three iods
				drained("writes")
				a.read(t, 0, int64(len(a.img))+4096)
				b.read(t, 0, int64(len(b.img))+4096)
				drained("whole files")
			}
		})
	}
}
