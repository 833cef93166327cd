package wire

import (
	"bytes"
	"testing"
)

// TestMaxFlushPayloadMatchesCodec pins the derived Flush frame budget to
// the codec: a Flush whose accounted bytes (len(Data)+FlushBlockOverhead
// per run) exactly reach MaxFlushPayload must frame successfully as a
// tagged message, and one byte more must fail with ErrTooLarge. If the
// encoding of Flush ever grows a field without the constants moving with
// it, this test fails instead of a flusher looping on ErrTooLarge
// retries in production.
func TestMaxFlushPayloadMatchesCodec(t *testing.T) {
	// Two runs, splitting the budget, so the per-run overhead is
	// exercised more than once.
	budget := MaxFlushPayload - 2*FlushBlockOverhead
	half := budget / 2
	mk := func(extra int) *Flush {
		return &Flush{
			Client: 1,
			File:   2,
			Blocks: []FlushBlock{
				{Index: 0, Off: 128, Data: make([]byte, half)},
				{Index: 9, Off: 0, Data: make([]byte, budget-half+extra)},
			},
		}
	}

	var buf bytes.Buffer
	if err := WriteTagged(&buf, 7, mk(0)); err != nil {
		t.Fatalf("Flush at exactly MaxFlushPayload failed to frame: %v", err)
	}
	var over discard
	if err := WriteTagged(&over, 7, mk(1)); err != ErrTooLarge {
		t.Fatalf("Flush one byte over MaxFlushPayload: err = %v, want ErrTooLarge", err)
	}
}

// discard is an io.Writer that ignores everything (the oversize frame
// should be rejected before any write, but scatter-gather writes may emit
// the head first on other paths).
type discard struct{}

func (discard) Write(p []byte) (int, error) { return len(p), nil }

// TestFlushRunRoundTrip pins the multi-block run shape: Data longer than
// one cache block survives encode/decode unchanged (the codec has no
// block-size notion; the run length is the iod's to interpret).
func TestFlushRunRoundTrip(t *testing.T) {
	run := make([]byte, 3*4096+77) // spans four 4 KB blocks
	for i := range run {
		run[i] = byte(i * 31)
	}
	in := &Flush{Client: 3, File: 11, Blocks: []FlushBlock{{Index: 5, Off: 4019, Data: run}}}
	var buf bytes.Buffer
	if err := WriteTagged(&buf, 1, in); err != nil {
		t.Fatal(err)
	}
	msg, err := readMessage(&buf)
	if err != nil {
		t.Fatal(err)
	}
	out, ok := msg.(*Flush)
	if !ok {
		t.Fatalf("decoded %T", msg)
	}
	if out.Client != in.Client || out.File != in.File || len(out.Blocks) != 1 {
		t.Fatalf("header mismatch: %+v", out)
	}
	got := out.Blocks[0]
	if got.Index != 5 || got.Off != 4019 || !bytes.Equal(got.Data, run) {
		t.Fatalf("run mismatch: index=%d off=%d len=%d", got.Index, got.Off, len(got.Data))
	}
}
