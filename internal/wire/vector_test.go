package wire

import (
	"bytes"
	"encoding/binary"
	"reflect"
	"testing"
)

func TestReadBlocksRoundTrip(t *testing.T) {
	want := &ReadBlocks{
		Client: 7,
		File:   11,
		Track:  true,
		Exts: []ReadExtent{
			{Offset: 0, Length: 4096},
			{Offset: 12288, Length: 8192},
			{Offset: 1 << 30, Length: 4096},
		},
	}
	got := roundTrip(t, want).(*ReadBlocks)
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("got %+v want %+v", got, want)
	}

	empty := roundTrip(t, &ReadBlocks{Client: 1, File: 2}).(*ReadBlocks)
	if len(empty.Exts) != 0 {
		t.Fatalf("empty extents decoded as %v", empty.Exts)
	}
}

func TestReadBlocksRespRoundTrip(t *testing.T) {
	want := &ReadBlocksResp{
		Status: StatusOK,
		Lens:   []uint32{3, 0, 5},
		Data:   []byte("abcdefgh"), // 3 + 0 + 5
	}
	got := roundTrip(t, want).(*ReadBlocksResp)
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("got %+v want %+v", got, want)
	}

	empty := roundTrip(t, &ReadBlocksResp{Status: StatusNotFound}).(*ReadBlocksResp)
	if len(empty.Lens) != 0 || len(empty.Data) != 0 {
		t.Fatalf("empty resp decoded as %+v", empty)
	}
}

// frameFor wraps a raw payload in a frame of the given type, with tag 1.
func frameFor(typ Type, payload []byte) []byte {
	frame := binary.BigEndian.AppendUint32(nil, uint32(2+8+len(payload))|tagBit)
	frame = binary.BigEndian.AppendUint16(frame, uint16(typ))
	frame = binary.BigEndian.AppendUint64(frame, 1)
	return append(frame, payload...)
}

// TestReadBlocksHostileCount declares an extent count far beyond what the
// payload holds: decode must reject it before allocating anything.
func TestReadBlocksHostileCount(t *testing.T) {
	payload := encodePayload(&ReadBlocks{Client: 1, File: 2})
	// The extent count is the final u32 of an extent-less encoding.
	binary.BigEndian.PutUint32(payload[len(payload)-4:], 0xffffffff)
	if _, err := readMessage(bytes.NewReader(frameFor(TReadBlocks, payload))); err == nil {
		t.Fatal("hostile extent count accepted")
	}
}

// TestReadBlocksRespHostileCount does the same for the response's length
// vector.
func TestReadBlocksRespHostileCount(t *testing.T) {
	payload := binary.BigEndian.AppendUint16(nil, uint16(StatusOK))
	payload = binary.BigEndian.AppendUint32(payload, 0xffffffff) // Lens count with no bytes behind it
	if _, err := readMessage(bytes.NewReader(frameFor(TReadBlocksResp, payload))); err == nil {
		t.Fatal("hostile length count accepted")
	}
}

// TestReadBlocksRespLensMismatch rejects responses whose per-extent
// lengths do not tile Data exactly — otherwise Lens could address bytes
// Data does not hold.
func TestReadBlocksRespLensMismatch(t *testing.T) {
	for _, lens := range [][]uint32{
		{9},          // claims more than Data holds
		{1},          // claims less than Data holds
		{0xffffffff}, // u32 overflow bait
	} {
		m := &ReadBlocksResp{Status: StatusOK, Lens: lens, Data: []byte("abc")}
		payload := encodePayload(m)
		if _, err := readMessage(bytes.NewReader(frameFor(TReadBlocksResp, payload))); err == nil {
			t.Fatalf("lens %v accepted for 3-byte data", lens)
		}
	}
}

func TestVectorTypeStrings(t *testing.T) {
	if TReadBlocks.String() != "ReadBlocks" || TReadBlocksResp.String() != "ReadBlocksResp" {
		t.Fatalf("type strings: %q %q", TReadBlocks.String(), TReadBlocksResp.String())
	}
}
