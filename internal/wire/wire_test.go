package wire

import (
	"bytes"
	"encoding/binary"
	"io"
	"reflect"
	"runtime"
	"testing"
	"testing/quick"

	"pvfscache/internal/blockio"
)

// encodePayload returns m's payload, without a frame header.
func encodePayload(m Message) []byte {
	var c codec
	m.walk(&c)
	return c.buf
}

// decodePayload walks payload into m, without the frame reader's
// trailing-bytes check; byte fields alias payload.
func decodePayload(m Message, payload []byte) error {
	c := codec{buf: payload, dec: true}
	m.walk(&c)
	return c.err
}

// requireEveryType fails unless msgs holds a value of every registered
// message type, so a sample list cannot silently fall behind the registry.
func requireEveryType(t testing.TB, msgs []Message) {
	t.Helper()
	seen := make(map[Type]bool)
	for _, m := range msgs {
		seen[m.WireType()] = true
	}
	for typ := range registry {
		if !seen[typ] {
			t.Errorf("no sample of registered type %v", typ)
		}
	}
}

// readMessage decodes one frame from r. The message's byte fields alias a
// payload buffer that is never released, so they stay valid.
func readMessage(r io.Reader) (Message, error) {
	_, _, m, _, err := ReadFrameAliased(r)
	return m, err
}

// roundTrip encodes m through a buffer and decodes it back.
func roundTrip(t *testing.T, m Message) Message {
	t.Helper()
	var buf bytes.Buffer
	if err := WriteTagged(&buf, 1, m); err != nil {
		t.Fatalf("write %v: %v", m.WireType(), err)
	}
	got, err := readMessage(&buf)
	if err != nil {
		t.Fatalf("read %v: %v", m.WireType(), err)
	}
	return got
}

func TestRoundTripAllTypes(t *testing.T) {
	msgs := []Message{
		&Create{Name: "data/mesh.bin", Base: 2, PCount: 4, SSize: 65536},
		&CreateResp{Status: StatusOK, File: 42, Meta: FileMeta{Size: 1 << 20, Base: 1, PCount: 3, SSize: 8192}},
		&Open{Name: "x"},
		&OpenResp{Status: StatusNotFound},
		&Stat{File: 9},
		&StatResp{Status: StatusOK, Meta: FileMeta{Size: 7}},
		&Unlink{Name: "gone"},
		&SetSize{File: 3, Size: 1234567},
		&List{},
		&ListResp{Status: StatusOK, Names: []string{"a", "b", "c"}},
		&StatusMsg{Status: StatusExists},
		&Read{Client: 5, File: 11, Offset: 8192, Length: 4096, Track: true},
		&ReadResp{Status: StatusOK, Data: []byte("hello world")},
		&Write{Client: 1, File: 2, Offset: 0, Data: bytes.Repeat([]byte{0xAB}, 4096)},
		&WriteAck{Status: StatusOK},
		&SyncWrite{Client: 2, File: 8, Offset: 100, Data: []byte{1, 2, 3}},
		&SyncWriteAck{Status: StatusOK, Invalidated: 3},
		&Flush{Client: 4, File: 6, Blocks: []FlushBlock{
			{Index: 0, Data: []byte("b0")},
			{Index: 17, Data: []byte("b17")},
		}},
		&FlushAck{Status: StatusOK},
		&Invalidate{File: 6, Indices: []int64{1, 5, 9}},
		&InvalidAck{Status: StatusOK},
		&PeerGet{File: 2, Index: 44},
		&PeerGetResp{Status: StatusOK, Data: []byte("blk")},
		&ReadBlocks{Client: 5, File: 11, Track: true, Exts: []ReadExtent{{0, 4096}, {12288, 8192}}},
		&ReadBlocksResp{Status: StatusOK, Lens: []uint32{3, 0, 2}, Data: []byte("abcde")},
		&Register{Client: 5, Addr: "node5:9000"},
		&RegisterAck{Status: StatusOK},
		&PeerPut{File: 2, Index: 44, Owner: 3, Epoch: 9, Data: []byte("blk")},
		&PeerPutAck{Status: StatusStaleEpoch},
		&ViewGet{},
		&ViewResp{Status: StatusOK, Epoch: 9, IDs: []uint32{3}, Addrs: []string{"node3:9100"}},
		&JoinView{ID: 3, Addr: "node3:9100"},
		&LeaveView{ID: 3},
	}
	requireEveryType(t, msgs)
	for _, m := range msgs {
		got := roundTrip(t, m)
		if !reflect.DeepEqual(normalize(got), normalize(m)) {
			t.Errorf("%v round trip:\n got %#v\nwant %#v", m.WireType(), got, m)
		}
	}
}

// normalize maps nil and empty slices to a comparable form.
func normalize(m Message) Message {
	switch v := m.(type) {
	case *ReadResp:
		if len(v.Data) == 0 {
			v.Data = []byte{}
		}
	case *PeerGetResp:
		if len(v.Data) == 0 {
			v.Data = []byte{}
		}
	case *ListResp:
		if len(v.Names) == 0 {
			v.Names = []string{}
		}
	case *Invalidate:
		if len(v.Indices) == 0 {
			v.Indices = []int64{}
		}
	case *Flush:
		if len(v.Blocks) == 0 {
			v.Blocks = []FlushBlock{}
		}
	}
	return m
}

func TestEmptyCollections(t *testing.T) {
	got := roundTrip(t, &ListResp{Status: StatusOK}).(*ListResp)
	if len(got.Names) != 0 {
		t.Errorf("names = %v", got.Names)
	}
	inv := roundTrip(t, &Invalidate{File: 1}).(*Invalidate)
	if len(inv.Indices) != 0 {
		t.Errorf("indices = %v", inv.Indices)
	}
	fl := roundTrip(t, &Flush{Client: 1, File: 1}).(*Flush)
	if len(fl.Blocks) != 0 {
		t.Errorf("blocks = %v", fl.Blocks)
	}
}

func TestReadMessageTruncatedHeader(t *testing.T) {
	_, err := readMessage(bytes.NewReader([]byte{0x80, 0, 0}))
	if err == nil {
		t.Fatal("expected error on truncated header")
	}
}

func TestReadMessageTruncatedPayload(t *testing.T) {
	var buf bytes.Buffer
	if err := WriteTagged(&buf, 1, &Read{File: 1, Offset: 2, Length: 3}); err != nil {
		t.Fatal(err)
	}
	raw := buf.Bytes()
	_, err := readMessage(bytes.NewReader(raw[:len(raw)-2]))
	if err == nil {
		t.Fatal("expected error on truncated payload")
	}
	if err != io.ErrUnexpectedEOF {
		t.Logf("got %v (acceptable, any error)", err)
	}
}

func TestReadMessageUnknownType(t *testing.T) {
	frame := frameFor(Type(0xFFFF), nil)
	_, err := readMessage(bytes.NewReader(frame))
	if err == nil {
		t.Fatal("expected unknown-type error")
	}
}

func TestReadMessageOversize(t *testing.T) {
	frame := []byte{0xFF, 0xFF, 0xFF, 0xFF, 0, 0}
	_, err := readMessage(bytes.NewReader(frame))
	if err != ErrTooLarge {
		t.Fatalf("got %v, want ErrTooLarge", err)
	}
}

func TestReadMessageTrailingBytes(t *testing.T) {
	// A Stat payload is exactly 8 bytes; declare 2 extra.
	var buf bytes.Buffer
	if err := WriteTagged(&buf, 1, &Stat{File: 1}); err != nil {
		t.Fatal(err)
	}
	raw := buf.Bytes()
	raw = append(raw, 0xEE, 0xEE)
	raw[3] += 2 // the length word counts type + tag + payload
	_, err := readMessage(bytes.NewReader(raw))
	if err == nil {
		t.Fatal("expected trailing-bytes error")
	}
}

func TestStatusErrMapping(t *testing.T) {
	if StatusOK.Err() != nil {
		t.Error("OK should map to nil")
	}
	for _, s := range []Status{StatusNotFound, StatusExists, StatusIOError, StatusBadRequest, StatusShortRead} {
		err := s.Err()
		if err == nil {
			t.Errorf("status %d mapped to nil", s)
		}
		if got := StatusFor(err); got != s {
			t.Errorf("StatusFor(%v) = %d, want %d", err, got, s)
		}
	}
	if StatusFor(nil) != StatusOK {
		t.Error("StatusFor(nil) != OK")
	}
}

func TestTypeString(t *testing.T) {
	if TRead.String() != "Read" {
		t.Errorf("TRead = %q", TRead.String())
	}
	if Type(0x9999).String() == "" {
		t.Error("unknown type should still render")
	}
}

// Property: any Read message survives a round trip.
func TestReadRoundTripProperty(t *testing.T) {
	f := func(client uint32, file uint64, off, length int64, track bool) bool {
		m := &Read{Client: client, File: blockio.FileID(file), Offset: off, Length: length, Track: track}
		var buf bytes.Buffer
		if err := WriteTagged(&buf, 1, m); err != nil {
			return false
		}
		got, err := readMessage(&buf)
		if err != nil {
			return false
		}
		return reflect.DeepEqual(got, m)
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

// Property: arbitrary Write payloads survive a round trip.
func TestWriteRoundTripProperty(t *testing.T) {
	f := func(data []byte, off int64) bool {
		m := &Write{Client: 1, File: 2, Offset: off, Data: data}
		var buf bytes.Buffer
		if err := WriteTagged(&buf, 1, m); err != nil {
			return false
		}
		got, err := readMessage(&buf)
		if err != nil {
			return false
		}
		w := got.(*Write)
		return w.Offset == off && bytes.Equal(w.Data, data)
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func TestBackToBackMessages(t *testing.T) {
	var buf bytes.Buffer
	for i := 0; i < 10; i++ {
		if err := WriteTagged(&buf, uint64(i), &Stat{File: blockio.FileID(i)}); err != nil {
			t.Fatal(err)
		}
	}
	for i := 0; i < 10; i++ {
		tag, _, m, _, err := ReadFrameAliased(&buf)
		if err != nil {
			t.Fatalf("msg %d: %v", i, err)
		}
		if got := m.(*Stat).File; got != blockio.FileID(i) || tag != uint64(i) {
			t.Errorf("msg %d: file = %d, tag = %d", i, got, tag)
		}
	}
}

func TestTaggedRoundTrip(t *testing.T) {
	var buf bytes.Buffer
	want := &Read{Client: 7, File: 3, Offset: 4096, Length: 8192, Track: true}
	if err := WriteTagged(&buf, 0xdeadbeefcafe, want); err != nil {
		t.Fatal(err)
	}
	tag, tagged, m, _, err := ReadFrameAliased(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if !tagged || tag != 0xdeadbeefcafe {
		t.Fatalf("tag = %#x tagged = %v", tag, tagged)
	}
	r, ok := m.(*Read)
	if !ok || *r != *want {
		t.Fatalf("got %+v want %+v", m, want)
	}
}

// TestUntaggedFrameRejected: a frame without the tag bit in its length
// word is the retired untagged form, rejected from the length word alone —
// before the type, the payload or any buffer.
func TestUntaggedFrameRejected(t *testing.T) {
	for _, frame := range [][]byte{
		{0, 0, 0, 0x0a, 0x01, 0x05, 0, 0, 0, 0, 0, 0, 0, 7}, // an untagged Stat
		{0, 0, 0, 0x0a},                // its length word, and nothing behind it
		{0x7F, 0xFF, 0xFF, 0xFF, 0, 0}, // an untagged length past the limit
	} {
		if _, err := readMessage(bytes.NewReader(frame)); err != ErrUntagged {
			t.Errorf("% x: err %v, want ErrUntagged", frame, err)
		}
	}
}

// TestViewRespListParity: the view's ID and address lists are parallel, so
// a response whose counts differ is rejected rather than misread.
func TestViewRespListParity(t *testing.T) {
	var buf bytes.Buffer
	if err := WriteTagged(&buf, 1, &ViewResp{Epoch: 3, IDs: []uint32{1, 2}, Addrs: []string{"node1:9100"}}); err != nil {
		t.Fatal(err)
	}
	if _, err := readMessage(&buf); err == nil {
		t.Fatal("ViewResp with 2 IDs and 1 address accepted")
	}
}

// TestHostileCountRejected feeds a tiny payload declaring an enormous
// element count: decode must fail instead of pre-allocating gigabytes.
func TestHostileCountRejected(t *testing.T) {
	for _, m := range []Message{&Invalidate{}, &Flush{}, &ListResp{}} {
		payload := encodePayload(m)
		// The count is the last u32 in each empty encoding; overwrite it.
		binary.BigEndian.PutUint32(payload[len(payload)-4:], 0xffffffff)
		if _, err := readMessage(bytes.NewReader(frameFor(m.WireType(), payload))); err == nil {
			t.Errorf("%v: hostile count accepted", m.WireType())
		}
	}
}

// TestHeaderOnlyFrameAllocation sends a header that declares a
// MaxMessageSize payload and then ends: the reader may take one pooled
// buffer, not the declared 64 MB, so an idle hostile connection pins
// little memory while its read blocks.
func TestHeaderOnlyFrameAllocation(t *testing.T) {
	hdr := frameFor(TWrite, nil)
	binary.BigEndian.PutUint32(hdr, MaxMessageSize|tagBit)
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	_, _, _, payload, err := ReadFrameAliased(bytes.NewReader(hdr))
	runtime.ReadMemStats(&after)
	if err == nil || payload != nil {
		t.Fatalf("header-only frame: err %v, payload retained %v", err, payload != nil)
	}
	if got := after.TotalAlloc - before.TotalAlloc; got > 2<<20 {
		t.Fatalf("header-only frame allocated %d bytes, want ≤ 2 MB", got)
	}
}

// TestLargeFrameRoundTrip: a payload past the pooled buffer size grows as
// it arrives and still decodes byte-identical; cut short, it is rejected.
func TestLargeFrameRoundTrip(t *testing.T) {
	data := make([]byte, 5<<20+1)
	for i := range data {
		data[i] = byte(i * 131)
	}
	var buf bytes.Buffer
	if err := WriteTagged(&buf, 9, &Write{Client: 1, File: 2, Offset: 3, Data: data}); err != nil {
		t.Fatal(err)
	}
	frame := buf.Bytes()
	m, err := readMessage(bytes.NewReader(frame))
	if err != nil {
		t.Fatal(err)
	}
	if w := m.(*Write); w.Offset != 3 || !bytes.Equal(w.Data, data) {
		t.Fatalf("5 MB Write decoded %d bytes at offset %d, not the sent ones", len(w.Data), w.Offset)
	}
	for _, cut := range []int{len(frame) - 1, 3 << 20, pooledBufCap + 14, 100} {
		if _, _, _, payload, err := ReadFrameAliased(bytes.NewReader(frame[:cut])); err == nil || payload != nil {
			t.Fatalf("frame cut at %d bytes: err %v, payload retained %v", cut, err, payload != nil)
		}
	}
}
