package iod

import (
	"bytes"
	"errors"
	"testing"

	"pvfscache/internal/metrics"
	"pvfscache/internal/storage"
	"pvfscache/internal/storage/mem"
	"pvfscache/internal/transport"
	"pvfscache/internal/wire"
)

// faultyDaemon starts an iod whose backend can be switched to fail, for
// driving the StatusIOError ack paths the seed never had.
func faultyDaemon(t *testing.T) (*storage.Faulty, transport.Network) {
	t.Helper()
	net := transport.NewMem()
	fb := storage.NewFaulty(mem.New())
	s := NewWithBackend(0, 4096, net, metrics.NewRegistry(), fb)
	dl, err := net.Listen("iod-data")
	if err != nil {
		t.Fatal(err)
	}
	fl, err := net.Listen("iod-flush")
	if err != nil {
		t.Fatal(err)
	}
	go s.ServeData(dl)
	go s.ServeFlush(fl)
	t.Cleanup(func() { dl.Close(); fl.Close(); s.Close() })
	return fb, net
}

// TestBackendErrorsBecomeIOErrorAcks pins the silent-data-loss fix:
// when the backend fails a write, the ack must carry StatusIOError —
// never StatusOK for bytes that were not stored — and reads against a
// failing backend must not fabricate data. Healing the backend restores
// OK service on the same connections.
func TestBackendErrorsBecomeIOErrorAcks(t *testing.T) {
	fb, net := faultyDaemon(t)
	dc, err := net.Dial("iod-data")
	if err != nil {
		t.Fatal(err)
	}
	defer dc.Close()
	fc, err := net.Dial("iod-flush")
	if err != nil {
		t.Fatal(err)
	}
	defer fc.Close()

	payload := bytes.Repeat([]byte{7}, 512)
	fb.SetErr(errors.New("disk on fire"))

	wa := call(t, dc, &wire.Write{Client: 1, File: 3, Offset: 0, Data: payload}).(*wire.WriteAck)
	if wa.Status != wire.StatusIOError {
		t.Fatalf("Write ack status = %v, want StatusIOError", wa.Status)
	}
	sa := call(t, dc, &wire.SyncWrite{Client: 1, File: 3, Offset: 0, Data: payload}).(*wire.SyncWriteAck)
	if sa.Status != wire.StatusIOError {
		t.Fatalf("SyncWrite ack status = %v, want StatusIOError", sa.Status)
	}
	if sa.Invalidated != 0 {
		t.Fatalf("failed sync-write invalidated %d caches", sa.Invalidated)
	}
	fa := call(t, fc, &wire.Flush{Client: 1, File: 3, Blocks: []wire.FlushBlock{
		{Index: 0, Off: 0, Data: payload},
	}}).(*wire.FlushAck)
	if fa.Status != wire.StatusIOError {
		t.Fatalf("Flush ack status = %v, want StatusIOError", fa.Status)
	}
	rr := call(t, dc, &wire.ReadBlocks{Client: 1, File: 3, Exts: ext(0, 512)}).(*wire.ReadBlocksResp)
	if rr.Status != wire.StatusIOError || len(rr.Data) != 0 {
		t.Fatalf("ReadBlocks resp = %v with %d bytes, want StatusIOError and none", rr.Status, len(rr.Data))
	}

	// The wire layer maps the status to a retryable error for clients.
	if err := fa.Status.Err(); err == nil {
		t.Fatal("StatusIOError must map to a non-nil client error")
	}

	fb.SetErr(nil)
	wa = call(t, dc, &wire.Write{Client: 1, File: 3, Offset: 0, Data: payload}).(*wire.WriteAck)
	if wa.Status != wire.StatusOK {
		t.Fatalf("post-heal write status = %v", wa.Status)
	}
	rr = call(t, dc, &wire.ReadBlocks{Client: 1, File: 3, Exts: ext(0, 512)}).(*wire.ReadBlocksResp)
	if rr.Status != wire.StatusOK || !bytes.Equal(rr.Data, payload) {
		t.Fatalf("post-heal read: %v, %d bytes", rr.Status, len(rr.Data))
	}
}

// TestFlushPartialFailureFailsWholeFrame: a multi-run flush frame whose
// backend fails partway must fail the frame (the client re-queues all
// of it; re-applying the landed runs is idempotent).
func TestFlushPartialFailureFailsWholeFrame(t *testing.T) {
	fb, net := faultyDaemon(t)
	fc, err := net.Dial("iod-flush")
	if err != nil {
		t.Fatal(err)
	}
	defer fc.Close()

	// Healthy first, then broken: the frame below writes run 0 fine and
	// trips on run 1 only if the error lands between — instead, break it
	// up front so run 0 itself fails; either way the ack must be non-OK.
	fb.SetErr(errors.New("enospc"))
	fa := call(t, fc, &wire.Flush{Client: 1, File: 5, Blocks: []wire.FlushBlock{
		{Index: 0, Off: 0, Data: bytes.Repeat([]byte{1}, 4096)},
		{Index: 1, Off: 0, Data: bytes.Repeat([]byte{2}, 4096)},
	}}).(*wire.FlushAck)
	if fa.Status == wire.StatusOK {
		t.Fatal("flush frame acked OK despite backend failure")
	}

	// Retry after heal: idempotent re-apply, everything lands.
	fb.SetErr(nil)
	fa = call(t, fc, &wire.Flush{Client: 1, File: 5, Blocks: []wire.FlushBlock{
		{Index: 0, Off: 0, Data: bytes.Repeat([]byte{1}, 4096)},
		{Index: 1, Off: 0, Data: bytes.Repeat([]byte{2}, 4096)},
	}}).(*wire.FlushAck)
	if fa.Status != wire.StatusOK {
		t.Fatalf("retried flush status = %v", fa.Status)
	}
}
