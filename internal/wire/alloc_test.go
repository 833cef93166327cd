package wire

import (
	"bytes"
	"io"
	"testing"
)

// frameAllocPins are the exact allocations of one frame, per sample: encode
// is WriteTagged to io.Discard, decode is ReadFrameAliased + ReleasePayload.
// A pin only ever moves down: lower it in the change that removes an
// allocation. The /64k samples take the scatter-gather tail on encode and
// alias the tail on decode.
var frameAllocPins = map[string]struct{ encode, decode int }{
	"Create":             {0, 2},
	"CreateResp":         {0, 1},
	"Flush":              {0, 2},
	"Flush/64k":          {0, 2},
	"FlushAck":           {0, 1},
	"InvalidAck":         {0, 1},
	"Invalidate":         {0, 2},
	"JoinView":           {0, 2},
	"LeaveView":          {0, 1},
	"List":               {0, 0},
	"ListResp":           {0, 3},
	"Open":               {0, 2},
	"OpenResp":           {0, 1},
	"PeerGet":            {0, 1},
	"PeerGetResp":        {0, 1},
	"PeerPut":            {0, 1},
	"PeerPutAck":         {0, 1},
	"Read":               {0, 1},
	"ReadBlocks":         {0, 2},
	"ReadBlocksResp":     {0, 2},
	"ReadBlocksResp/64k": {0, 2},
	"ReadResp":           {0, 1},
	"ReadResp/64k":       {0, 1},
	"Register":           {0, 2},
	"RegisterAck":        {0, 1},
	"SetSize":            {0, 1},
	"Stat":               {0, 1},
	"StatResp":           {0, 1},
	"Status":             {0, 1},
	"SyncWrite":          {0, 1},
	"SyncWriteAck":       {0, 1},
	"Unlink":             {0, 2},
	"ViewGet":            {0, 0},
	"ViewResp":           {0, 5},
	"Write":              {0, 1},
	"Write/64k":          {0, 1},
	"WriteAck":           {0, 1},
}

// allocSamples is the sample set plus the 64 KB shapes the data path sends.
func allocSamples() map[string]Message {
	s := make(map[string]Message)
	for _, m := range fuzzSampleMessages() {
		s[m.WireType().String()] = m
	}
	data := make([]byte, 64<<10)
	s["ReadResp/64k"] = &ReadResp{Status: StatusOK, Data: data}
	s["ReadBlocksResp/64k"] = &ReadBlocksResp{Status: StatusOK, Lens: []uint32{32 << 10, 32 << 10}, Data: data}
	s["Write/64k"] = &Write{Client: 1, File: 2, Offset: 3, Data: data}
	s["Flush/64k"] = &Flush{Client: 1, File: 2, Blocks: []FlushBlock{{Index: 0, Data: data}}}
	return s
}

func TestFrameAllocPins(t *testing.T) {
	if raceEnabled {
		t.Skip("sync.Pool drops items at random under the race detector")
	}
	samples := allocSamples()
	for label, m := range samples {
		enc := testing.AllocsPerRun(100, func() {
			if err := WriteTagged(io.Discard, 7, m); err != nil {
				t.Fatal(err)
			}
		})
		var buf bytes.Buffer
		if err := WriteTagged(&buf, 7, m); err != nil {
			t.Fatal(err)
		}
		frame := buf.Bytes()
		rd := bytes.NewReader(frame)
		dec := testing.AllocsPerRun(100, func() {
			rd.Reset(frame)
			_, _, _, payload, err := ReadFrameAliased(rd)
			if err != nil {
				t.Fatal(err)
			}
			ReleasePayload(payload)
		})
		pin, ok := frameAllocPins[label]
		if !ok {
			t.Errorf("%s: no allocation pin", label)
			continue
		}
		if enc != float64(pin.encode) || dec != float64(pin.decode) {
			t.Errorf("%s: encode %v decode %v allocations a frame, pinned at %d and %d",
				label, enc, dec, pin.encode, pin.decode)
		}
	}
	for label := range frameAllocPins {
		if _, ok := samples[label]; !ok {
			t.Errorf("pin %s has no sample", label)
		}
	}
}
