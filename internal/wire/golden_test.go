package wire

import (
	"bytes"
	"encoding/hex"
	"flag"
	"fmt"
	"io"
	"os"
	"strings"
	"testing"
)

var updateGolden = flag.Bool("update", false, "rewrite testdata/frames.golden from the current encoder")

const goldenPath = "testdata/frames.golden"

// segments is an io.Writer that keeps every Write call apart, so a frame
// written scatter-gather shows its head and its tail as two segments.
type segments [][]byte

func (s *segments) Write(p []byte) (int, error) {
	*s = append(*s, bytes.Clone(p))
	return len(p), nil
}

// goldenFrames renders one line per frame: a label, then the hex of each
// write the frame writer made. The cases are every sample message, plus
// each bulk-tail message with a payload one byte below and one byte above
// minVecTail, where the writer switches from one copied frame to a head +
// tail pair of writes.
func goldenFrames(t *testing.T) string {
	type frameCase struct {
		label string
		m     Message
	}
	var cases []frameCase
	for _, m := range fuzzSampleMessages() {
		cases = append(cases, frameCase{m.WireType().String() + "/tagged", m})
	}
	for _, n := range []int{minVecTail - 1, minVecTail + 1} {
		data := make([]byte, n)
		for i := range data {
			data[i] = byte(i * 31)
		}
		for _, m := range []Message{
			&ReadResp{Status: StatusOK, Data: data},
			&ReadBlocksResp{Status: StatusOK, Lens: []uint32{7, uint32(n - 7)}, Data: data},
			&Write{Client: 7, File: 3, Offset: 99, Data: data},
			&SyncWrite{Client: 7, File: 3, Offset: 99, Data: data},
			&PeerGetResp{Status: StatusOK, Data: data},
			&PeerPut{File: 3, Index: 5, Owner: 2, Epoch: 6, Data: data},
		} {
			cases = append(cases, frameCase{fmt.Sprintf("%v/tail%d", m.WireType(), n), m})
		}
	}

	var out strings.Builder
	for _, c := range cases {
		write := func(w io.Writer) error { return WriteTagged(w, 0x0102030405060708, c.m) }
		var buf bytes.Buffer
		var segs segments
		if err := write(&buf); err != nil {
			t.Fatalf("%s: %v", c.label, err)
		}
		if err := write(&segs); err != nil {
			t.Fatalf("%s: %v", c.label, err)
		}
		if !bytes.Equal(bytes.Join(segs, nil), buf.Bytes()) {
			t.Fatalf("%s: the segmented write differs from the buffered one", c.label)
		}
		out.WriteString(c.label)
		for _, s := range segs {
			out.WriteString(" " + hex.EncodeToString(s))
		}
		out.WriteString("\n")
	}
	return out.String()
}

// TestFrameGolden pins the bytes on the wire, and how many writes carry
// them, for one value of every message type. The golden file was generated
// before the codec became one field walk per message and is never
// regenerated to make a codec change pass: a diff here is a format change.
func TestFrameGolden(t *testing.T) {
	got := goldenFrames(t)
	if *updateGolden {
		if err := os.WriteFile(goldenPath, []byte(got), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	want, err := os.ReadFile(goldenPath)
	if err != nil {
		t.Fatal(err)
	}
	gotLines, wantLines := strings.Split(got, "\n"), strings.Split(string(want), "\n")
	for i := 0; i < len(gotLines) || i < len(wantLines); i++ {
		var g, w string
		if i < len(gotLines) {
			g = gotLines[i]
		}
		if i < len(wantLines) {
			w = wantLines[i]
		}
		if g != w {
			t.Fatalf("%s line %d differs:\n got %.200s\nwant %.200s", goldenPath, i+1, g, w)
		}
	}
}
