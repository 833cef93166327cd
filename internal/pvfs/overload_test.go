package pvfs

import (
	"errors"
	"testing"
	"time"

	"pvfscache/internal/blockio"
	"pvfscache/internal/wire"
)

// shedTransport is a fake Transport whose first shed ops fail with
// StatusOverload, then succeed — the cache module's shedding behaviour
// distilled to its wire contract.
type shedTransport struct {
	shed  int // ops remaining to shed
	sends int // total Sends observed
	next  ReqID
	reqs  map[ReqID]wire.Message
}

func newShedTransport(shed int) *shedTransport {
	return &shedTransport{shed: shed, next: 1, reqs: make(map[ReqID]wire.Message)}
}

func (t *shedTransport) Send(iod int, req wire.Message) (ReqID, error) {
	t.sends++
	id := t.next
	t.next++
	t.reqs[id] = req
	return id, nil
}

// SendRead leaves the sink alone: a status-only reply stands for bytes the
// transport already scattered.
func (t *shedTransport) SendRead(iod int, req wire.Message, sink [][]byte) (ReqID, bool, error) {
	id, err := t.Send(iod, req)
	return id, err == nil, err
}

func (t *shedTransport) Recv(id ReqID) (wire.Message, error) {
	req, ok := t.reqs[id]
	if !ok {
		return nil, errors.New("unknown req id")
	}
	delete(t.reqs, id)
	status := wire.StatusOK
	if t.shed > 0 {
		t.shed--
		status = wire.StatusOverload
	}
	switch req.(type) {
	case *wire.Write:
		return &wire.WriteAck{Status: status}, nil
	case *wire.ReadBlocks:
		return &wire.ReadBlocksResp{Status: status}, nil
	default:
		return nil, errors.New("unexpected request type")
	}
}

func (t *shedTransport) Close() error { return nil }

func testClientFile(tr Transport, retries int) (*Client, *File) {
	c := &Client{
		cfg: Config{
			IODAddrs:        []string{"iod0"},
			ClientID:        1,
			OverloadRetries: retries,
			OverloadBackoff: time.Microsecond,
		},
		data:  tr,
		files: make(map[blockio.FileID]*File),
	}
	f := &File{
		client: c,
		name:   "qos-test",
		id:     7,
		meta:   wire.FileMeta{Base: 0, PCount: 1, SSize: 64 << 10, Size: 1 << 20},
	}
	return c, f
}

func TestOverloadRetryWriteSucceeds(t *testing.T) {
	tr := newShedTransport(2)
	_, f := testClientFile(tr, 0) // default retry budget
	// Write within Size so no mgr SetSize round trip is needed.
	if _, err := f.WriteAt(make([]byte, 512), 0); err != nil {
		t.Fatalf("WriteAt after sheds: %v", err)
	}
	if tr.sends != 3 {
		t.Errorf("sends = %d, want 3 (2 sheds + 1 success)", tr.sends)
	}
}

func TestOverloadRetryReadSucceeds(t *testing.T) {
	tr := newShedTransport(1)
	_, f := testClientFile(tr, 0)
	if _, err := f.ReadAt(make([]byte, 512), 0); err != nil {
		t.Fatalf("ReadAt after shed: %v", err)
	}
	if tr.sends != 2 {
		t.Errorf("sends = %d, want 2 (1 shed + 1 success)", tr.sends)
	}
}

func TestOverloadRetryExhausts(t *testing.T) {
	tr := newShedTransport(1 << 30) // sheds forever
	_, f := testClientFile(tr, 3)
	_, err := f.WriteAt(make([]byte, 512), 0)
	if !errors.Is(err, wire.ErrOverload) {
		t.Fatalf("err = %v, want wrapped ErrOverload", err)
	}
	if tr.sends != 4 {
		t.Errorf("sends = %d, want 4 (1 + 3 retries)", tr.sends)
	}
}

func TestOverloadRetryDisabled(t *testing.T) {
	tr := newShedTransport(1)
	_, f := testClientFile(tr, -1)
	if _, err := f.WriteAt(make([]byte, 512), 0); !errors.Is(err, wire.ErrOverload) {
		t.Fatalf("err = %v, want immediate ErrOverload with retries disabled", err)
	}
	if tr.sends != 1 {
		t.Errorf("sends = %d, want 1 (no retries)", tr.sends)
	}
}

// Non-overload errors must not be retried: a genuine IO error surfaces on
// the first attempt.
func TestOverloadRetrySkipsOtherErrors(t *testing.T) {
	tr := &ioErrTransport{}
	_, f := testClientFile(tr, 0)
	if _, err := f.WriteAt(make([]byte, 512), 0); !errors.Is(err, wire.ErrIO) {
		t.Fatalf("err = %v, want ErrIO", err)
	}
	if tr.sends != 1 {
		t.Errorf("sends = %d, want 1 (IO errors are not retried)", tr.sends)
	}
}

type ioErrTransport struct{ sends int }

func (t *ioErrTransport) Send(iod int, req wire.Message) (ReqID, error) {
	t.sends++
	return 1, nil
}

func (t *ioErrTransport) SendRead(iod int, req wire.Message, sink [][]byte) (ReqID, bool, error) {
	id, err := t.Send(iod, req)
	return id, err == nil, err
}

func (t *ioErrTransport) Recv(id ReqID) (wire.Message, error) {
	return &wire.WriteAck{Status: wire.StatusIOError}, nil
}

func (t *ioErrTransport) Close() error { return nil }
