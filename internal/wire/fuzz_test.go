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
//     that decodes to the same message and re-encodes identically.
//
// CI runs each target for a ~30 s smoke (see .github/workflows/ci.yml);
// the committed corpora under testdata/fuzz keep the interesting inputs
// from past runs as regression seeds.

import (
	"bytes"
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
func encodeFrame(tag uint64, tagged bool, m Message) ([]byte, error) {
	var buf bytes.Buffer
	var err error
	if tagged {
		err = WriteTagged(&buf, tag, m)
	} else {
		err = WriteMessage(&buf, m)
	}
	return buf.Bytes(), err
}

// FuzzDecode feeds arbitrary bytes through the full frame reader — length
// word, tag bit, type dispatch and every message decoder behind it. Any
// frame that decodes must round-trip canonically.
func FuzzDecode(f *testing.F) {
	requireEveryType(f, fuzzSampleMessages())
	for _, m := range fuzzSampleMessages() {
		if enc, err := encodeFrame(0, false, m); err == nil {
			f.Add(enc)
		}
		if enc, err := encodeFrame(0xDEADBEEF, true, m); err == nil {
			f.Add(enc)
		}
	}
	// Hostile shapes: truncated header, oversize length, tagged bit with a
	// short body, unknown type, hostile element count.
	f.Add([]byte{0x00})
	f.Add([]byte{0xFF, 0xFF, 0xFF, 0xFF, 0x01, 0x0b})
	f.Add([]byte{0x80, 0x00, 0x00, 0x02, 0x01, 0x0b})
	f.Add([]byte{0x00, 0x00, 0x00, 0x02, 0x7f, 0x7f})
	f.Add([]byte{0x00, 0x00, 0x00, 0x0e, 0x04, 0x01, // Invalidate
		0, 0, 0, 0, 0, 0, 0, 7, 0xFF, 0xFF, 0xFF, 0xFF}) // count 2^32-1
	f.Fuzz(func(t *testing.T, data []byte) {
		tag, tagged, m, err := ReadFrame(bytes.NewReader(data))
		// The zero-copy decoder must accept and reject exactly the same
		// frames as the copying one, and decode to the same message.
		ztag, ztagged, zm, payload, zerr := ReadFrameAliased(bytes.NewReader(data))
		if (err == nil) != (zerr == nil) {
			t.Fatalf("decode modes disagree: copying err %v, aliased err %v", err, zerr)
		}
		if err != nil {
			return // rejected cleanly; not panicking is the property
		}
		if ztag != tag || ztagged != tagged || zm.WireType() != m.WireType() {
			t.Fatalf("aliased decode header diverged: %d/%v/%v vs %d/%v/%v",
				tag, tagged, m.WireType(), ztag, ztagged, zm.WireType())
		}
		zenc, err := encodeFrame(ztag, ztagged, zm)
		if err != nil {
			t.Fatalf("aliased-decoded %v does not re-encode: %v", zm.WireType(), err)
		}
		ReleasePayload(payload)
		enc1, err := encodeFrame(tag, tagged, m)
		if err != nil {
			t.Fatalf("decoded %v does not re-encode: %v", m.WireType(), err)
		}
		if !bytes.Equal(enc1, zenc) {
			t.Fatalf("%v: aliased decode diverged from copying decode", m.WireType())
		}
		tag2, tagged2, m2, err := ReadFrame(bytes.NewReader(enc1))
		if err != nil {
			t.Fatalf("re-encoded %v does not decode: %v", m.WireType(), err)
		}
		if tag2 != tag || tagged2 != tagged || m2.WireType() != m.WireType() {
			t.Fatalf("frame header changed across round trip: tag %d/%v -> %d/%v type %v -> %v",
				tag, tagged, tag2, tagged2, m.WireType(), m2.WireType())
		}
		enc2, err := encodeFrame(tag2, tagged2, m2)
		if err != nil {
			t.Fatalf("second re-encode failed: %v", err)
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
// them (tagged and untagged), and requires the decoder to be an exact
// inverse — field-for-field via the canonical re-encoding.
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
		enc, err := encodeFrame(tag, tagged, m)
		if err != nil {
			return // e.g. a blob pushing the frame past MaxMessageSize
		}
		tag2, tagged2, got, err := ReadFrame(bytes.NewReader(enc))
		if err != nil {
			t.Fatalf("valid %v frame rejected: %v", m.WireType(), err)
		}
		if tagged2 != tagged || (tagged && tag2 != tag) {
			t.Fatalf("tag lost: %d/%v -> %d/%v", tag, tagged, tag2, tagged2)
		}
		if got.WireType() != m.WireType() {
			t.Fatalf("type changed: %v -> %v", m.WireType(), got.WireType())
		}
		// Compare via re-encoding: nil and empty slices frame identically,
		// so this is exact field equality without reflect's nil-vs-empty
		// false negatives.
		reEnc, err := encodeFrame(tag, tagged, got)
		if err != nil {
			t.Fatalf("decoded %v does not re-encode: %v", got.WireType(), err)
		}
		if !bytes.Equal(enc, reEnc) {
			t.Fatalf("%v round trip changed the encoding", m.WireType())
		}
	})
}
