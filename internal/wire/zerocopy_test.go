package wire

import (
	"bytes"
	"testing"

	"pvfscache/internal/blockio"
)

// TestVectoredEncodeMatchesCopyingEncode checks that the scatter-gather
// frame writer (head pieces + uncopied bulk fields) produces
// byte-identical frames to the copying encoder for every message with a
// bulk field, at sizes straddling the minVecTail threshold — a Flush with
// several runs included, where some runs are segments of their own and
// others are copied between them.
func TestVectoredEncodeMatchesCopyingEncode(t *testing.T) {
	sizes := []int{0, 1, minVecTail - 1, minVecTail, minVecTail + 1, 64 << 10}
	for _, n := range sizes {
		data := make([]byte, n)
		for i := range data {
			data[i] = byte(i * 31)
		}
		msgs := []Message{
			&ReadResp{Status: StatusOK, Data: data},
			&ReadBlocksResp{Status: StatusOK, Lens: []uint32{uint32(n)}, Data: data},
			&Write{Client: 7, File: 3, Offset: 99, Data: data},
			&SyncWrite{Client: 7, File: 3, Offset: 99, Data: data},
			&PeerGetResp{Status: StatusOK, Data: data},
			&PeerPut{File: 3, Index: 5, Owner: 2, Data: data},
			&Flush{Client: 7, File: 3, Blocks: []FlushBlock{
				{Index: 1, Off: 5, Data: data},
				{Index: 4, Data: data[:n/2]},
				{Index: 9, Off: 1, Data: data[:min(n, 3)]},
				{Index: 12, Data: data},
			}},
		}
		for _, m := range msgs {
			var vec bytes.Buffer
			if err := WriteTagged(&vec, 42, m); err != nil {
				t.Fatalf("%v (%d bytes): %v", m.WireType(), n, err)
			}
			// Reference: the same walk with every tail copied.
			var ref codec
			if err := ref.encodeFrame(42, m, false); err != nil {
				t.Fatalf("%v (%d bytes): %v", m.WireType(), n, err)
			}
			if !bytes.Equal(vec.Bytes(), ref.buf) {
				t.Fatalf("%v (%d bytes): vectored frame differs from copying frame", m.WireType(), n)
			}
		}
	}
}

// TestAliasedDecodeAliasesPayload round-trips every data-carrying message
// and checks that its bytes survive, that they really alias the returned
// payload buffer, that poison-on-release shows through the alias, and that
// payload-free messages retain nothing.
func TestAliasedDecodeAliasesPayload(t *testing.T) {
	data := bytes.Repeat([]byte{0xC4, 0x11, 0x7E}, 1500)
	aliasing := []Message{
		&ReadResp{Status: StatusOK, Data: data},
		&ReadBlocksResp{Status: StatusOK, Lens: []uint32{uint32(len(data))}, Data: data},
		&Write{Client: 1, File: 2, Offset: 3, Data: data},
		&SyncWrite{Client: 1, File: 2, Offset: 3, Data: data},
		&PeerGetResp{Status: StatusOK, Data: data},
		&PeerPut{File: 2, Index: 9, Owner: 1, Data: data},
		&Flush{Client: 1, File: 2, Blocks: []FlushBlock{{Index: 4, Off: 8, Data: data}}},
	}
	for _, m := range aliasing {
		var buf bytes.Buffer
		if err := WriteTagged(&buf, 1, m); err != nil {
			t.Fatal(err)
		}
		_, _, aliased, payload, err := ReadFrameAliased(&buf)
		if err != nil {
			t.Fatalf("%v: aliased decode: %v", m.WireType(), err)
		}
		if payload == nil {
			t.Fatalf("%v: aliased decode retained no payload", m.WireType())
		}
		aData := payloadOf(t, aliased)
		if !bytes.Equal(aData, data) {
			t.Fatalf("%v: decoded bytes differ from the sent ones", m.WireType())
		}
		if !aliasesInto(aData, payload) {
			t.Fatalf("%v: aliased Data does not point into the payload buffer", m.WireType())
		}
		// Poison-on-release must be visible through the live alias: that
		// is exactly how the lease tests catch use-after-release.
		SetPoisonReleased(true)
		ReleasePayload(payload)
		SetPoisonReleased(false)
		if aData[0] != PoisonByte || aData[len(aData)-1] != PoisonByte {
			t.Fatalf("%v: released payload was not poisoned", m.WireType())
		}
	}

	// A message with no bulk payload must not retain the buffer.
	var buf bytes.Buffer
	if err := WriteTagged(&buf, 1, &Open{Name: "some/file"}); err != nil {
		t.Fatal(err)
	}
	_, _, m, payload, err := ReadFrameAliased(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if payload != nil {
		t.Fatalf("payload-free %v retained a payload buffer", m.WireType())
	}
	if m.(*Open).Name != "some/file" {
		t.Fatal("string field corrupted by aliased decode")
	}
}

// payloadOf extracts the bulk Data field of a data-carrying message.
func payloadOf(t *testing.T, m Message) []byte {
	t.Helper()
	switch v := m.(type) {
	case *ReadResp:
		return v.Data
	case *ReadBlocksResp:
		return v.Data
	case *Write:
		return v.Data
	case *SyncWrite:
		return v.Data
	case *PeerGetResp:
		return v.Data
	case *PeerPut:
		return v.Data
	case *Flush:
		return v.Blocks[0].Data
	default:
		t.Fatalf("no payload accessor for %v", m.WireType())
		return nil
	}
}

// aliasesInto reports whether sub's backing array lies within buf's.
func aliasesInto(sub, buf []byte) bool {
	if len(sub) == 0 || len(buf) == 0 {
		return false
	}
	for i := range buf {
		if &buf[i] == &sub[0] {
			return true
		}
	}
	return false
}

// TestAliasedDecodeHostileInput: truncated payloads must be rejected
// without retaining (or leaking) the buffer.
func TestAliasedDecodeHostileInput(t *testing.T) {
	good, err := encodeFrame(0, &ReadResp{Status: StatusOK, Data: bytes.Repeat([]byte{1}, 64)})
	if err != nil {
		t.Fatal(err)
	}
	for cut := 7; cut < len(good); cut += 11 {
		if _, _, _, payload, err := ReadFrameAliased(bytes.NewReader(good[:cut])); err == nil || payload != nil {
			t.Fatalf("truncated frame at %d accepted (payload=%v)", cut, payload != nil)
		}
	}
}

func TestAliasedFlushBlockKeys(t *testing.T) {
	m := &Flush{Client: 1, File: blockio.FileID(9)}
	for i := 0; i < 4; i++ {
		m.Blocks = append(m.Blocks, FlushBlock{Index: int64(i), Data: bytes.Repeat([]byte{byte(i)}, 2048)})
	}
	var buf bytes.Buffer
	if err := WriteTagged(&buf, 1, m); err != nil {
		t.Fatal(err)
	}
	_, _, got, payload, err := ReadFrameAliased(&buf)
	if err != nil {
		t.Fatal(err)
	}
	defer ReleasePayload(payload)
	f := got.(*Flush)
	if len(f.Blocks) != 4 {
		t.Fatalf("decoded %d blocks", len(f.Blocks))
	}
	for i, blk := range f.Blocks {
		if blk.Index != int64(i) || len(blk.Data) != 2048 || blk.Data[0] != byte(i) {
			t.Fatalf("block %d corrupt after aliased decode", i)
		}
		if !aliasesInto(blk.Data, payload) {
			t.Fatalf("block %d does not alias the payload", i)
		}
	}
}
