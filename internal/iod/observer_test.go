package iod

import (
	"sync"
	"testing"

	"pvfscache/internal/blockio"
	"pvfscache/internal/sharing"
	"pvfscache/internal/wire"
)

// TestObserverFeedsSharingClassifier wires a sharing.Tracker into an iod
// and verifies a producer-consumer access sequence is classified.
func TestObserverFeedsSharingClassifier(t *testing.T) {
	s, net, data, flush := testDaemon(t)
	tracker := sharing.NewTracker()
	var mu sync.Mutex
	s.SetObserver(func(client uint32, file blockio.FileID, block int64, write bool) {
		mu.Lock()
		tracker.Observe(sharing.Event{Client: client, File: file, Block: block, Write: write})
		mu.Unlock()
	})

	conn := dial(t, net, data)
	fconn := dial(t, net, flush)

	// Client 1 produces two blocks (one via write, one via flush).
	call(t, conn, &wire.Write{Client: 1, File: 5, Offset: 0, Data: make([]byte, 4096)})
	call(t, fconn, &wire.Flush{Client: 1, File: 5, Blocks: []wire.FlushBlock{
		{Index: 1, Data: make([]byte, 4096)},
	}})
	// Client 2 consumes both.
	call(t, conn, &wire.ReadBlocks{Client: 2, File: 5, Exts: ext(0, 8192)})

	sums := tracker.Summarize()
	if len(sums) != 1 {
		t.Fatalf("summaries = %d", len(sums))
	}
	if sums[0].Dominant != sharing.ProducerConsumer {
		t.Errorf("dominant = %v, want producer-consumer", sums[0].Dominant)
	}
	if sums[0].Blocks != 2 {
		t.Errorf("blocks = %d", sums[0].Blocks)
	}
}

func TestObserverIgnoresAnonymousClients(t *testing.T) {
	s, net, data, _ := testDaemon(t)
	count := 0
	s.SetObserver(func(uint32, blockio.FileID, int64, bool) { count++ })
	conn := dial(t, net, data)
	call(t, conn, &wire.Write{Client: 0, File: 1, Offset: 0, Data: make([]byte, 4096)})
	call(t, conn, &wire.ReadBlocks{Client: 0, File: 1, Exts: ext(0, 4096)})
	if count != 0 {
		t.Errorf("anonymous traffic observed %d times", count)
	}
}

func TestObserverSyncWrite(t *testing.T) {
	s, net, data, _ := testDaemon(t)
	var events []bool
	s.SetObserver(func(_ uint32, _ blockio.FileID, _ int64, write bool) {
		events = append(events, write)
	})
	conn := dial(t, net, data)
	call(t, conn, &wire.SyncWrite{Client: 3, File: 2, Offset: 0, Data: make([]byte, 8192)})
	if len(events) != 2 || !events[0] || !events[1] {
		t.Errorf("sync write events = %v, want two writes", events)
	}
}
