package iod

import (
	"bytes"
	"math"
	"slices"
	"testing"

	"pvfscache/internal/blockio"
	"pvfscache/internal/transport"
	"pvfscache/internal/wire"
)

// Operations FuzzIODStore drives, by the input's kind byte.
const (
	fuzzWrite      = iota // wire.Write at offset
	fuzzSyncWrite         // wire.SyncWrite at offset
	fuzzFlush             // one FlushBlock at index, blockOff
	fuzzFlushPair         // a valid block over the probe, then the fuzzed one
	fuzzReadBlocks        // one extent at offset of length
	fuzzKinds
)

// fuzzRun is one write the store is expected to hold, oldest first.
type fuzzRun struct {
	off  int64
	data []byte
}

// expect returns the bytes a read of n bytes at off must return, given
// the writes the store acknowledged: short past the highest written
// byte (an empty write writes none), zeros in holes, and the newest
// write's byte wherever writes overlap.
func expect(runs []fuzzRun, off int64, n int) []byte {
	var size int64
	for _, r := range runs {
		if len(r.data) > 0 {
			size = max(size, r.off+int64(len(r.data)))
		}
	}
	if off >= size {
		return []byte{}
	}
	want := make([]byte, min(int64(n), size-off))
	for _, r := range runs {
		lo, hi := max(off, r.off), min(off+int64(len(want)), r.off+int64(len(r.data)))
		if lo < hi {
			copy(want[lo-off:hi-off], r.data[lo-r.off:hi-r.off])
		}
	}
	return want
}

// rangeOK is the storage range rule: off ≥ 0 and no int64 overflow.
func rangeOK(off int64, n int) bool { return off >= 0 && int64(n) <= math.MaxInt64-off }

// FuzzIODStore drives the iod's handler — Write, SyncWrite, ReadBlocks
// and Flush — with fuzzer-chosen file,
// offset, block index, in-block offset and length, over a fresh mem store
// per input (so a long fuzz run cannot pile up pages). Each input first
// writes a probe block at offset 0. Nothing may panic, every reply is the
// request's ack type with a known status, the ack is OK exactly when the
// range is valid, a successful write reads back byte-identical through
// ReadBlocks (holes as zeros, into recycled read buffers), and a rejected
// one leaves the probe unchanged.
func FuzzIODStore(f *testing.F) {
	f.Add(uint8(fuzzWrite), uint64(1), int64(3*4096), int64(0), uint32(0), uint32(4096)) // a hole below
	f.Add(uint8(fuzzSyncWrite), uint64(2), int64(100), int64(0), uint32(0), uint32(9000))
	f.Add(uint8(fuzzFlush), uint64(3), int64(0), int64(3), uint32(1000), uint32(3*4096+100))
	f.Add(uint8(fuzzFlushPair), uint64(4), int64(0), int64(16), uint32(0), uint32(64<<10))
	f.Add(uint8(fuzzReadBlocks), uint64(5), int64(2000), int64(0), uint32(0), uint32(8192))

	probe := bytes.Repeat([]byte("probe!"), 4096/6+1)[:4096]
	f.Fuzz(func(t *testing.T, kind uint8, file uint64, offset, index int64, blockOff, length uint32) {
		s := New(0, 4096, transport.NewMem(), nil)
		const bs = 4096
		id := blockio.FileID(file)
		data := fuzzBytes(int(length%(64<<10+1)), kind)
		ack := s.handle(&wire.Write{File: id, Data: probe}).(*wire.WriteAck)
		if ack.Status != wire.StatusOK {
			t.Fatalf("probe write: status %d", ack.Status)
		}
		runs := []fuzzRun{{0, probe}}

		var (
			resp  wire.Message
			valid bool
			add   []fuzzRun
		)
		switch kind % fuzzKinds {
		case fuzzWrite:
			resp = s.handle(&wire.Write{Client: 1, File: id, Offset: offset, Data: data})
			valid, add = rangeOK(offset, len(data)), []fuzzRun{{offset, data}}
		case fuzzSyncWrite:
			resp = s.handle(&wire.SyncWrite{Client: 1, File: id, Offset: offset, Data: data})
			valid, add = rangeOK(offset, len(data)), []fuzzRun{{offset, data}}
		case fuzzFlush, fuzzFlushPair:
			blk := wire.FlushBlock{Index: index, Off: blockOff, Data: data}
			valid = index >= 0 && blockOff < bs && index <= (math.MaxInt64-int64(blockOff))/bs &&
				rangeOK(index*bs+int64(blockOff), len(data))
			blocks := []wire.FlushBlock{blk}
			if kind%fuzzKinds == fuzzFlushPair {
				lead := bytes.Repeat([]byte{0xEE}, bs)
				blocks = []wire.FlushBlock{{Index: 0, Data: lead}, blk}
				add = append(add, fuzzRun{0, lead})
			}
			if valid {
				add = append(add, fuzzRun{index*bs + int64(blockOff), data})
			}
			resp = s.handle(&wire.Flush{Client: 1, File: id, Blocks: blocks})
		default:
			resp = s.handle(&wire.ReadBlocks{File: id, Exts: []wire.ReadExtent{{Offset: offset, Length: int64(len(data))}}})
			valid = rangeOK(offset, len(data))
		}

		var status wire.Status
		switch r := resp.(type) {
		case *wire.WriteAck:
			status = r.Status
		case *wire.SyncWriteAck:
			status = r.Status
		case *wire.FlushAck:
			status = r.Status
		case *wire.ReadBlocksResp:
			status = r.Status
			if status == wire.StatusOK {
				if want := expect(runs, offset, len(data)); !bytes.Equal(r.Data, want) {
					t.Fatalf("ReadBlocks(%d, %d) returned %d bytes, want %d", offset, len(data), len(r.Data), len(want))
				}
			}
			s.recycleReadBuf(r)
		default:
			t.Fatalf("kind %d: reply %T", kind%fuzzKinds, resp)
		}
		if status > wire.StatusOverload {
			t.Fatalf("kind %d: unknown status %d", kind%fuzzKinds, status)
		}
		if (status == wire.StatusOK) != valid {
			t.Fatalf("kind %d at offset %d index %d off %d len %d: status %d, valid range %v",
				kind%fuzzKinds, offset, index, blockOff, len(data), status, valid)
		}
		if status == wire.StatusOK {
			runs = append(runs, add...)
		}

		checkReadBack(t, s, id, runs)
	})
}

// checkReadBack reads back every acknowledged run, the probe first, from
// its start and from 8 KB below it: each read recycles its buffer, so a
// later read's holes land on stale bytes.
func checkReadBack(t *testing.T, s *Server, id blockio.FileID, runs []fuzzRun) {
	t.Helper()
	for _, r := range runs {
		for _, lo := range []int64{r.off, max(0, r.off-8192)} {
			n := min(len(r.data)+int(r.off-lo), 64<<10)
			rr := s.handle(&wire.ReadBlocks{File: id, Exts: []wire.ReadExtent{{Offset: lo, Length: int64(n)}}}).(*wire.ReadBlocksResp)
			if rr.Status != wire.StatusOK {
				t.Fatalf("read-back at %d: status %d", lo, rr.Status)
			}
			if want := expect(runs, lo, n); !bytes.Equal(rr.Data, want) {
				t.Fatalf("read-back of %d bytes at %d differs from the acknowledged writes", n, lo)
			}
			s.recycleReadBuf(rr)
		}
	}
}

// fuzzBytes is a length-n payload whose bytes depend on seed.
func fuzzBytes(n int, seed uint8) []byte {
	data := make([]byte, n)
	for i := range data {
		data[i] = byte(i*131 + int(seed) + 1)
	}
	return data
}

// Messages FuzzIODHandle sends, by the input's kind byte.
const (
	handleReadBlocks = iota // extents (offset, length) and (index, blockOff)
	handleWrite
	handleSyncWrite
	handleRegister
	handleFlush    // one FlushBlock at index, blockOff
	handleUnserved // wire.Invalidate: the iod sends it and does not serve it
	handleKinds
)

// FuzzIODHandle feeds one message with fuzzer-chosen fields — client,
// file, Track, offsets, block index and in-block offset, lengths, and a
// registration address — to the one handler of a fresh mem-backed iod. Before it, client 7 registers at an address
// nothing listens on and holds the probe block through a tracked read, so
// every sync-write over the probe fans out an invalidation that fails.
// Nothing may panic; a message the iod does not serve is answered nil;
// otherwise the reply is the request's ack type with a known status, OK
// exactly when the range is valid. An OK read returns the model's bytes,
// an OK Register records the address, an OK sync-write by another client
// drops client 7 from the blocks it covers without counting it
// invalidated, and every acknowledged write reads back afterwards.
func FuzzIODHandle(f *testing.F) {
	f.Add(uint8(handleReadBlocks), uint32(3), uint64(1), true, int64(0), int64(8192), uint32(100), uint32(4096), "")
	f.Add(uint8(handleWrite), uint32(3), uint64(1), false, int64(2000), int64(0), uint32(0), uint32(9000), "")
	f.Add(uint8(handleSyncWrite), uint32(3), uint64(1), false, int64(100), int64(0), uint32(0), uint32(100), "")
	f.Add(uint8(handleSyncWrite), uint32(7), uint64(1), false, int64(0), int64(0), uint32(0), uint32(4096), "")
	f.Add(uint8(handleRegister), uint32(9), uint64(0), false, int64(0), int64(0), uint32(0), uint32(0), "cache-9")
	f.Add(uint8(handleRegister), uint32(7), uint64(0), false, int64(0), int64(0), uint32(0), uint32(0), "elsewhere")
	f.Add(uint8(handleFlush), uint32(3), uint64(1), false, int64(0), int64(1), uint32(1000), uint32(5000), "")
	f.Add(uint8(handleFlush), uint32(3), uint64(1), false, int64(0), int64(1), uint32(0), uint32(10), "")
	f.Add(uint8(handleUnserved), uint32(0), uint64(1), false, int64(0), int64(0), uint32(0), uint32(0), "")

	probe := bytes.Repeat([]byte("probe!"), 4096/6+1)[:4096]
	f.Fuzz(func(t *testing.T, kind uint8, client uint32, file uint64, track bool,
		offset, index int64, blockOff, length uint32, addr string) {
		const bs, holder = 4096, uint32(7)
		s := New(0, bs, transport.NewMem(), nil)
		id := blockio.FileID(file)
		if s.handle(&wire.Write{File: id, Data: probe}).(*wire.WriteAck).Status != wire.StatusOK {
			t.Fatal("probe write failed")
		}
		s.handle(&wire.Register{Client: holder, Addr: "nowhere"})
		rr := s.handle(&wire.ReadBlocks{Client: holder, File: id, Track: true, Exts: []wire.ReadExtent{{Length: bs}}}).(*wire.ReadBlocksResp)
		s.recycleReadBuf(rr)
		runs := []fuzzRun{{0, probe}}
		data := fuzzBytes(int(length%(64<<10+1)), kind)

		var (
			msg   wire.Message
			reply wire.Type // the ack type of msg; 0 when the iod does not serve msg
			valid = true
			add   []fuzzRun
			exts  []wire.ReadExtent
		)
		k := kind % handleKinds
		switch k {
		case handleReadBlocks:
			exts = []wire.ReadExtent{{Offset: offset, Length: int64(len(data))}, {Offset: index, Length: int64(int32(blockOff))}}
			var total int64
			for _, e := range exts {
				total += max(e.Length, 0)
				valid = valid && e.Offset >= 0 && e.Length >= 0 && e.Length <= wire.MaxMessageSize/2 &&
					total <= wire.MaxMessageSize/2 && rangeOK(e.Offset, int(e.Length))
			}
			msg, reply = &wire.ReadBlocks{Client: client, File: id, Track: track, Exts: exts}, wire.TReadBlocksResp
		case handleWrite:
			msg, reply = &wire.Write{Client: client, File: id, Offset: offset, Data: data}, wire.TWriteAck
			valid, add = rangeOK(offset, len(data)), []fuzzRun{{offset, data}}
		case handleSyncWrite:
			msg, reply = &wire.SyncWrite{Client: client, File: id, Offset: offset, Data: data}, wire.TSyncWriteAck
			valid, add = rangeOK(offset, len(data)), []fuzzRun{{offset, data}}
		case handleRegister:
			msg, reply = &wire.Register{Client: client, Addr: addr}, wire.TRegisterAck
		case handleFlush:
			msg, reply = &wire.Flush{Client: client, File: id, Blocks: []wire.FlushBlock{{Index: index, Off: blockOff, Data: data}}}, wire.TFlushAck
			valid = index >= 0 && blockOff < bs && index <= (math.MaxInt64-int64(blockOff))/bs &&
				rangeOK(index*bs+int64(blockOff), len(data))
			add = []fuzzRun{{index*bs + int64(blockOff), data}}
		default:
			msg = &wire.Invalidate{File: id, Indices: []int64{index}}
		}

		resp := s.handle(msg)
		if reply == 0 {
			if resp != nil {
				t.Fatalf("%v: reply %T, want none", msg.WireType(), resp)
			}
			checkReadBack(t, s, id, runs)
			return
		}

		if resp == nil || resp.WireType() != reply {
			t.Fatalf("%v: reply %T", msg.WireType(), resp)
		}
		var status wire.Status
		switch r := resp.(type) {
		case *wire.ReadBlocksResp:
			status = r.Status
			if k == handleReadBlocks && status == wire.StatusOK {
				var want []byte
				for i, e := range exts {
					ext := expect(runs, e.Offset, int(e.Length))
					if int(r.Lens[i]) != len(ext) {
						t.Fatalf("extent %d at %d: served %d bytes, want %d", i, e.Offset, r.Lens[i], len(ext))
					}
					want = append(want, ext...)
				}
				if !bytes.Equal(r.Data, want) {
					t.Fatal("ReadBlocks data differs from the model")
				}
			}
			s.recycleReadBuf(r)
		case *wire.WriteAck:
			status = r.Status
		case *wire.SyncWriteAck:
			status = r.Status
			if r.Invalidated != 0 {
				t.Fatalf("sync-write counted %d invalidations delivered to an unreachable holder", r.Invalidated)
			}
		case *wire.RegisterAck:
			status = r.Status
		case *wire.FlushAck:
			status = r.Status
		}
		if status > wire.StatusOverload {
			t.Fatalf("%v: unknown status %d", msg.WireType(), status)
		}
		if (status == wire.StatusOK) != valid {
			t.Fatalf("%v at offset %d index %d off %d len %d: status %d, valid range %v",
				msg.WireType(), offset, index, blockOff, len(data), status, valid)
		}
		if status == wire.StatusOK {
			runs = append(runs, add...)
		}
		switch {
		case status != wire.StatusOK:
		case k == handleRegister:
			s.mu.Lock()
			got := s.clients[client]
			s.mu.Unlock()
			if got != addr {
				t.Fatalf("client %d registered at %q, want %q", client, got, addr)
			}
		case k == handleSyncWrite && client != holder && len(data) > 0 && offset < bs:
			if slices.Contains(s.Holders(blockio.BlockKey{File: id}), holder) {
				t.Fatal("a sync-write over the probe block left its unreachable holder in the directory")
			}
		}
		checkReadBack(t, s, id, runs)
	})
}
