package pvfs

import (
	"errors"
	"testing"
	"testing/quick"

	"pvfscache/internal/blockio"
	"pvfscache/internal/transport"
	"pvfscache/internal/wire"
)

func meta(base, pcount, ssize uint32) wire.FileMeta {
	return wire.FileMeta{Base: base, PCount: pcount, SSize: ssize}
}

func mustPieces(t *testing.T, file blockio.FileID, m wire.FileMeta, total int, off, length int64) []Piece {
	t.Helper()
	pieces, err := PiecesFor(file, m, total, off, length)
	if err != nil {
		t.Fatalf("PiecesFor: %v", err)
	}
	return pieces
}

func TestPiecesSingleStrip(t *testing.T) {
	pieces := mustPieces(t, 1, meta(0, 4, 65536), 4, 100, 200)
	if len(pieces) != 1 {
		t.Fatalf("pieces = %d", len(pieces))
	}
	p := pieces[0]
	if p.IOD != 0 || p.Ext.Offset != 100 || p.Ext.Length != 200 || p.Pos != 0 {
		t.Errorf("piece = %+v", p)
	}
}

func TestPiecesSpanStrips(t *testing.T) {
	// 64 KB strips over 4 iods; read 200 KB from offset 0: strips 0,1,2
	// full, strip 3 partial (8 KB).
	pieces := mustPieces(t, 1, meta(0, 4, 65536), 4, 0, 200<<10)
	if len(pieces) != 4 {
		t.Fatalf("pieces = %d: %+v", len(pieces), pieces)
	}
	for i, p := range pieces {
		if p.IOD != i {
			t.Errorf("piece %d on iod %d", i, p.IOD)
		}
	}
	if pieces[3].Ext.Length != 200<<10-3*(64<<10) {
		t.Errorf("tail length = %d", pieces[3].Ext.Length)
	}
}

func TestPiecesRoundRobinWrap(t *testing.T) {
	// 2 iods, 4 strips: iods alternate 0,1,0,1.
	pieces := mustPieces(t, 1, meta(0, 2, 4096), 4, 0, 16384)
	want := []int{0, 1, 0, 1}
	if len(pieces) != 4 {
		t.Fatalf("pieces = %d", len(pieces))
	}
	for i, p := range pieces {
		if p.IOD != want[i] {
			t.Errorf("strip %d on iod %d, want %d", i, p.IOD, want[i])
		}
	}
}

func TestPiecesBaseOffsetsIODs(t *testing.T) {
	pieces := mustPieces(t, 1, meta(2, 2, 4096), 4, 0, 8192)
	if pieces[0].IOD != 2 || pieces[1].IOD != 3 {
		t.Errorf("base=2 pieces on iods %d,%d", pieces[0].IOD, pieces[1].IOD)
	}
	// Base + pcount wraps modulo total iods.
	pieces = mustPieces(t, 1, meta(3, 2, 4096), 4, 0, 8192)
	if pieces[0].IOD != 3 || pieces[1].IOD != 0 {
		t.Errorf("wrap pieces on iods %d,%d", pieces[0].IOD, pieces[1].IOD)
	}
}

func TestPiecesEmptyAndInvalid(t *testing.T) {
	if got := mustPieces(t, 1, meta(0, 2, 4096), 4, 0, 0); got != nil {
		t.Errorf("zero length pieces = %v", got)
	}
	// Invalid striping metadata arrives from the wire (a hostile or
	// corrupt mgr response): it must surface as an error, never a panic.
	for _, m := range []wire.FileMeta{
		meta(0, 2, 0),    // zero strip size
		meta(0, 0, 4096), // zero pcount
	} {
		if _, err := PiecesFor(1, m, 4, 0, 10); err == nil {
			t.Errorf("meta %+v accepted", m)
		}
	}
	if _, err := PiecesFor(1, meta(0, 2, 4096), 0, 0, 10); err == nil {
		t.Error("zero totalIODs accepted")
	}
}

// Property: pieces tile the request exactly and each lies within one
// strip of its iod.
func TestPiecesTileProperty(t *testing.T) {
	f := func(off uint32, length uint16, pcount, ssizeExp uint8) bool {
		total := 4
		pc := uint32(pcount%4) + 1
		ssize := uint32(1) << (10 + ssizeExp%7) // 1 KB .. 64 KB
		m := meta(0, pc, ssize)
		offset := int64(off % (1 << 22))
		n := int64(length)
		pieces, err := PiecesFor(1, m, total, offset, n)
		if err != nil {
			return false
		}
		if n == 0 {
			return pieces == nil
		}
		var sum int64
		cursor := offset
		pos := int64(0)
		for _, p := range pieces {
			if p.Ext.Offset != cursor || p.Pos != pos {
				return false
			}
			// Entirely within one strip.
			strip := p.Ext.Offset / int64(ssize)
			if (p.Ext.Offset+p.Ext.Length-1)/int64(ssize) != strip {
				return false
			}
			// Mapped to the right iod.
			if p.IOD != int((strip%int64(pc)))%total {
				return false
			}
			sum += p.Ext.Length
			cursor += p.Ext.Length
			pos += p.Ext.Length
		}
		return sum == n
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func TestNewClientValidation(t *testing.T) {
	if _, err := NewClient(Config{}); err == nil {
		t.Error("missing network accepted")
	}
	if _, err := NewClient(Config{Network: fakeNetwork{}}); err == nil {
		t.Error("missing mgr addr accepted")
	}
	if _, err := NewClient(Config{Network: fakeNetwork{}, MgrAddr: "m"}); err == nil {
		t.Error("missing iods accepted")
	}
}

// fakeNetwork satisfies transport.Network without ever connecting; the
// client dials lazily, so construction-time validation tests never touch
// it.
type fakeNetwork struct{}

func (fakeNetwork) Listen(string) (transport.Listener, error) {
	return nil, transport.ErrClosed
}

func (fakeNetwork) Dial(string) (transport.Conn, error) {
	return nil, transport.ErrClosed
}

var _ transport.Network = fakeNetwork{}

func TestFileHelpers(t *testing.T) {
	f := &File{name: "x", id: 7, meta: wire.FileMeta{Size: 100, PCount: 2, SSize: 4096}}
	if f.Name() != "x" || f.ID() != blockio.FileID(7) || f.Size() != 100 {
		t.Error("accessors wrong")
	}
	if f.Meta().PCount != 2 {
		t.Error("meta accessor wrong")
	}
}

// failSendTransport fails the failAt-th Send; everything else is the
// bookkeeping fake, whose reqs map is the set of ids sent but not Recv'd.
type failSendTransport struct {
	*shedTransport
	failAt int
}

var errSendFailed = errors.New("send failed")

func (t *failSendTransport) Send(iod int, req wire.Message) (ReqID, error) {
	if t.sends+1 == t.failAt {
		t.sends++
		return 0, errSendFailed
	}
	return t.shedTransport.Send(iod, req)
}

func (t *failSendTransport) SendRead(iod int, req wire.Message, sink [][]byte) (ReqID, bool, error) {
	id, err := t.Send(iod, req)
	return id, err == nil, err
}

// TestFailedSendStillRecvsIssuedRequests: when the Send to a later iod
// fails, the requests already issued to earlier iods must still be Recv'd.
// A caching transport holds shared state per pending request (fetch-table
// claims that other processes join), so an abandoned id wedges them.
func TestFailedSendStillRecvsIssuedRequests(t *testing.T) {
	for _, write := range []bool{false, true} {
		tr := &failSendTransport{shedTransport: newShedTransport(0), failAt: 2}
		c := &Client{
			cfg:   Config{IODAddrs: []string{"iod0", "iod1"}, ClientID: 1, OverloadRetries: -1},
			data:  tr,
			files: make(map[blockio.FileID]*File),
		}
		f := &File{client: c, name: "two-iods", id: 7, meta: meta(0, 2, 4096)}
		f.meta.Size = 1 << 20
		buf := make([]byte, 8192) // one 4 KB piece on each iod
		var err error
		if write {
			_, err = f.WriteAt(buf, 0)
		} else {
			_, err = f.ReadAt(buf, 0)
		}
		if !errors.Is(err, errSendFailed) {
			t.Fatalf("write=%v: err = %v, want the Send error", write, err)
		}
		if tr.sends != 2 {
			t.Fatalf("write=%v: sends = %d, want 2", write, tr.sends)
		}
		if len(tr.reqs) != 0 {
			t.Errorf("write=%v: %d issued request(s) never Recv'd", write, len(tr.reqs))
		}
	}
}
