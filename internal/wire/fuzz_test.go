package wire

// Native Go fuzz targets for every count-prefixed decoder in the package,
// seeded with valid encodings of each message type. Three properties are
// enforced on every input the fuzzer finds:
//
//   - no panic: hostile frames and payloads must fail with an error, never
//     crash the daemon that read them off a socket;
//   - no over-allocation: a count prefix can only pre-allocate what the
//     payload it arrived in could possibly hold (the codec.count guard),
//     so a 4-byte hostile count cannot pin gigabytes;
//   - canonical round trip: anything that decodes re-encodes to a frame
//     that decodes to the same message and re-encodes identically;
//   - no alias outlives its buffer: a decode with every recycled payload
//     buffer poisoned re-encodes exactly like one without.
//
// CI runs each target for a ~30 s smoke (see .github/workflows/ci.yml);
// the committed corpora under testdata/fuzz keep the interesting inputs
// from past runs as regression seeds.

import (
	"bytes"
	"encoding/binary"
	"errors"
	"reflect"
	"testing"

	"pvfscache/internal/blockio"
)

// fuzzSampleMessages returns one populated value of every wire message,
// used to seed the corpus with valid encodings.
func fuzzSampleMessages() []Message {
	return []Message{
		&Create{Name: "f.dat", Base: 1, PCount: 4, SSize: 64 << 10},
		&CreateResp{Status: StatusOK, File: 7, Meta: FileMeta{Size: 1 << 20, Base: 1, PCount: 4, SSize: 64 << 10}},
		&Open{Name: "f.dat"},
		&OpenResp{Status: StatusNotFound, File: 9, Meta: FileMeta{Size: 3}},
		&Stat{File: 7},
		&StatResp{Status: StatusOK, Meta: FileMeta{Size: 42, PCount: 2, SSize: 4096}},
		&Unlink{Name: "gone"},
		&SetSize{File: 7, Size: 1 << 30},
		&List{},
		&ListResp{Status: StatusOK, Names: []string{"a", "bb", ""}},
		&StatusMsg{Status: StatusIOError},
		&Read{Client: 3, File: 7, Offset: 8192, Length: 4096, Track: true},
		&ReadResp{Status: StatusOK, Data: []byte{1, 2, 3}},
		&Write{Client: 3, File: 7, Offset: 0, Data: []byte("hello")},
		&WriteAck{Status: StatusOK},
		&SyncWrite{Client: 3, File: 7, Offset: 12, Data: []byte("sync")},
		&SyncWriteAck{Status: StatusOK, Invalidated: 2},
		&ReadBlocks{Client: 3, File: 7, Track: true, Exts: []ReadExtent{{0, 4096}, {16384, 8192}}},
		&ReadBlocksResp{Status: StatusOK, Lens: []uint32{2, 3}, Data: []byte{1, 2, 3, 4, 5}},
		&Flush{Client: 3, File: 7, Blocks: []FlushBlock{{Index: 1, Off: 100, Data: []byte("dirty")}}},
		&FlushAck{Status: StatusOK},
		&Invalidate{File: 7, Indices: []int64{0, 5, 9}},
		&InvalidAck{Status: StatusOK},
		&Register{Client: 3, Addr: "node0:9000"},
		&RegisterAck{Status: StatusOK},
		&PeerGet{File: 7, Index: 5, Epoch: 4},
		&PeerGetResp{Status: StatusOK, Data: []byte{9, 9}},
		&PeerPut{File: 7, Index: 5, Owner: 1, Epoch: 4, Data: []byte{8, 8}},
		&PeerPutAck{Status: StatusOK},
		&ViewGet{},
		&ViewResp{Status: StatusOK, Epoch: 4, IDs: []uint32{1, 2}, Addrs: []string{"node1:9100", "node2:9100"}},
		&JoinView{ID: 2, Addr: "node2:9100"},
		&LeaveView{ID: 1},
	}
}

// encodeFrame frames m exactly as the transport writers do.
func encodeFrame(tag uint64, m Message) ([]byte, error) {
	var buf bytes.Buffer
	err := WriteTagged(&buf, tag, m)
	return buf.Bytes(), err
}

// untagged rewrites a frame in the retired untagged form, [u32
// len][u16 type][payload] with no tag bit and no tag, which a reader must
// reject with ErrUntagged.
func untagged(frame []byte) []byte {
	out := binary.BigEndian.AppendUint32(nil, binary.BigEndian.Uint32(frame)&^tagBit-8)
	out = append(out, frame[4:6]...)
	return append(out, frame[14:]...)
}

// decodeEncoding decodes one frame, re-encodes the message while its
// payload is still held, then releases the payload. With poison set,
// every payload buffer recycled during the decode — by the decoder itself
// when it judged that nothing aliases it, or by the release — is stamped
// with PoisonByte first, so a field that aliases a buffer the decoder
// already gave back re-encodes as poison.
func decodeEncoding(t *testing.T, frame []byte, poison bool) (Message, []byte) {
	t.Helper()
	SetPoisonReleased(poison)
	defer SetPoisonReleased(false)
	tag, tagged, m, payload, err := ReadFrameAliased(bytes.NewReader(frame))
	if err != nil {
		t.Fatalf("decode (poison %v): %v", poison, err)
	}
	if !tagged {
		t.Fatalf("%v decoded without its tag", m.WireType())
	}
	enc, err := encodeFrame(tag, m)
	ReleasePayload(payload)
	if err != nil {
		t.Fatalf("decoded %v does not re-encode: %v", m.WireType(), err)
	}
	return m, enc
}

// FuzzDecode feeds arbitrary bytes through the full frame reader — length
// word, tag bit, type dispatch and every message decoder behind it. Any
// frame that decodes must round-trip canonically and decode the same with
// recycled buffers poisoned; an untagged length word must be rejected as
// ErrUntagged.
func FuzzDecode(f *testing.F) {
	requireEveryType(f, fuzzSampleMessages())
	for _, m := range fuzzSampleMessages() {
		if enc, err := encodeFrame(0xDEADBEEF, m); err == nil {
			f.Add(untagged(enc))
			f.Add(enc)
		}
	}
	// Hostile shapes: truncated header, oversize length, tagged bit with a
	// short body, unknown type, hostile element count.
	f.Add([]byte{0x00})
	f.Add([]byte{0xFF, 0xFF, 0xFF, 0xFF, 0x01, 0x0b})
	f.Add([]byte{0x80, 0x00, 0x00, 0x02, 0x01, 0x0b})
	f.Add(frameFor(Type(0x7f7f), nil))
	f.Add(frameFor(TInvalidate, []byte{0, 0, 0, 0, 0, 0, 0, 7, 0,
		0xFF, 0xFF, 0xFF, 0xFF})) // count 2^32-1
	f.Fuzz(func(t *testing.T, data []byte) {
		_, _, m, payload, err := ReadFrameAliased(bytes.NewReader(data))
		if err != nil {
			if payload != nil {
				t.Fatalf("rejected frame returned a payload: %v", err)
			}
			if len(data) >= 4 && data[0]&0x80 == 0 && !errors.Is(err, ErrUntagged) {
				t.Fatalf("untagged length word rejected with %v, want ErrUntagged", err)
			}
			return // rejected cleanly; not panicking is the property
		}
		ReleasePayload(payload)
		_, enc1 := decodeEncoding(t, data, false)
		if _, poisoned := decodeEncoding(t, data, true); !bytes.Equal(enc1, poisoned) {
			t.Fatalf("%v: a decoded field aliases a payload buffer the decoder recycled", m.WireType())
		}
		m2, enc2 := decodeEncoding(t, enc1, false)
		if m2.WireType() != m.WireType() {
			t.Fatalf("type changed across round trip: %v -> %v", m.WireType(), m2.WireType())
		}
		if !bytes.Equal(enc1, enc2) {
			t.Fatalf("%v encoding not canonical", m.WireType())
		}
	})
}

// FuzzVectorDecode drives the vectored-read decoders (the newest
// count-prefixed payloads) directly on raw payload bytes, checking the
// count guard's allocation bound and the Lens-tile-Data invariant that the
// cache module's fill path depends on.
func FuzzVectorDecode(f *testing.F) {
	rb := &ReadBlocks{Client: 1, File: 2, Track: true, Exts: []ReadExtent{{0, 4096}, {8192, 4096}}}
	f.Add(encodePayload(rb))
	resp := &ReadBlocksResp{Status: StatusOK, Lens: []uint32{1, 4}, Data: []byte{1, 2, 3, 4, 5}}
	f.Add(encodePayload(resp))
	f.Add([]byte{0, 0, 0, 1, 0xFF, 0xFF, 0xFF, 0xFF}) // hostile counts
	f.Fuzz(func(t *testing.T, payload []byte) {
		var req ReadBlocks
		if err := decodePayload(&req, payload); err == nil {
			if len(req.Exts)*16 > len(payload) {
				t.Fatalf("ReadBlocks decoded %d extents from %d bytes (over-allocation)",
					len(req.Exts), len(payload))
			}
			enc := encodePayload(&req)
			var again ReadBlocks
			if err := decodePayload(&again, enc); err != nil {
				t.Fatalf("ReadBlocks re-decode: %v", err)
			}
			if !reflect.DeepEqual(req, again) {
				t.Fatal("ReadBlocks round trip diverged")
			}
		}
		var rsp ReadBlocksResp
		if err := decodePayload(&rsp, payload); err == nil {
			if len(rsp.Lens)*4 > len(payload) {
				t.Fatalf("ReadBlocksResp decoded %d lens from %d bytes (over-allocation)",
					len(rsp.Lens), len(payload))
			}
			var sum int64
			for _, l := range rsp.Lens {
				sum += int64(l)
			}
			if sum != int64(len(rsp.Data)) {
				t.Fatalf("decode accepted Lens summing %d against %d data bytes", sum, len(rsp.Data))
			}
			enc := encodePayload(&rsp)
			var again ReadBlocksResp
			if err := decodePayload(&again, enc); err != nil {
				t.Fatalf("ReadBlocksResp re-decode: %v", err)
			}
			if !reflect.DeepEqual(rsp, again) {
				t.Fatal("ReadBlocksResp round trip diverged")
			}
		}
	})
}

// FuzzFrameRoundTrip builds messages from structured fuzz inputs, frames
// them, and requires the decoder to be an exact inverse — field-for-field
// via the canonical re-encoding. tagged only drives the messages' Track
// fields; it stays in the signature so the committed corpus still parses.
func FuzzFrameRoundTrip(f *testing.F) {
	f.Add(uint8(0), uint64(7), int64(4096), int64(8192), []byte("payload"), uint64(1), true)
	f.Add(uint8(1), uint64(1), int64(0), int64(0), []byte{}, uint64(0), false)
	f.Add(uint8(2), uint64(9), int64(-1), int64(1<<40), []byte("x"), uint64(1<<63), true)
	f.Add(uint8(3), uint64(0), int64(100), int64(200), []byte("abcde"), uint64(3), false)
	f.Add(uint8(4), uint64(5), int64(5), int64(6), []byte("names"), uint64(0), true)
	f.Fuzz(func(t *testing.T, kind uint8, file uint64, a, b int64, blob []byte, tag uint64, tagged bool) {
		var m Message
		switch kind % 6 {
		case 0:
			m = &Read{Client: uint32(file), File: blockio.FileID(file), Offset: a, Length: b, Track: tagged}
		case 1:
			m = &Write{Client: 1, File: blockio.FileID(file), Offset: a, Data: blob}
		case 2:
			m = &ReadBlocks{Client: 2, File: blockio.FileID(file), Track: !tagged,
				Exts: []ReadExtent{{Offset: a, Length: b}, {Offset: b, Length: a}}}
		case 3:
			m = &Flush{Client: 3, File: blockio.FileID(file),
				Blocks: []FlushBlock{{Index: a, Off: uint32(b), Data: blob}}}
		case 4:
			m = &Invalidate{File: blockio.FileID(file), Indices: []int64{a, b, a ^ b}}
		case 5:
			m = &PeerPut{File: blockio.FileID(file), Index: a, Owner: uint32(b), Data: blob}
		}
		enc, err := encodeFrame(tag, m)
		if err != nil {
			return // e.g. a blob pushing the frame past MaxMessageSize
		}
		tag2, tagged2, got, payload, err := ReadFrameAliased(bytes.NewReader(enc))
		if err != nil {
			t.Fatalf("valid %v frame rejected: %v", m.WireType(), err)
		}
		defer ReleasePayload(payload)
		if !tagged2 || tag2 != tag {
			t.Fatalf("tag lost: %d -> %d/%v", tag, tag2, tagged2)
		}
		if got.WireType() != m.WireType() {
			t.Fatalf("type changed: %v -> %v", m.WireType(), got.WireType())
		}
		// Compare via re-encoding: nil and empty slices frame identically,
		// so this is exact field equality without reflect's nil-vs-empty
		// false negatives.
		reEnc, err := encodeFrame(tag, got)
		if err != nil {
			t.Fatalf("decoded %v does not re-encode: %v", got.WireType(), err)
		}
		if !bytes.Equal(enc, reEnc) {
			t.Fatalf("%v round trip changed the encoding", m.WireType())
		}
	})
}
