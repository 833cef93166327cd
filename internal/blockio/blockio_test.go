package blockio

import (
	"testing"
	"testing/quick"
)

func TestSpansSingleBlock(t *testing.T) {
	spans := Spans(1, 100, 200, DefaultBlockSize)
	if len(spans) != 1 {
		t.Fatalf("got %d spans, want 1", len(spans))
	}
	s := spans[0]
	if s.Key != (BlockKey{File: 1, Index: 0}) {
		t.Errorf("key = %v", s.Key)
	}
	if s.Off != 100 || s.Len != 200 || s.Pos != 0 {
		t.Errorf("span = %+v", s)
	}
	if full(s) {
		t.Error("partial span reported Full")
	}
}

func TestSpansAlignedMultiBlock(t *testing.T) {
	spans := Spans(7, 0, 3*DefaultBlockSize, DefaultBlockSize)
	if len(spans) != 3 {
		t.Fatalf("got %d spans, want 3", len(spans))
	}
	for i, s := range spans {
		if s.Key.Index != int64(i) {
			t.Errorf("span %d index = %d", i, s.Key.Index)
		}
		if !full(s) {
			t.Errorf("span %d not full: %+v", i, s)
		}
		if s.Pos != int64(i*DefaultBlockSize) {
			t.Errorf("span %d pos = %d", i, s.Pos)
		}
	}
}

func TestSpansUnalignedStraddle(t *testing.T) {
	// Range starts mid-block 0 and ends mid-block 2.
	off := int64(DefaultBlockSize - 10)
	length := int64(DefaultBlockSize + 20)
	spans := Spans(3, off, length, DefaultBlockSize)
	if len(spans) != 3 {
		t.Fatalf("got %d spans, want 3: %+v", len(spans), spans)
	}
	if spans[0].Off != DefaultBlockSize-10 || spans[0].Len != 10 {
		t.Errorf("first span %+v", spans[0])
	}
	if !full(spans[1]) {
		t.Errorf("middle span %+v", spans[1])
	}
	if spans[2].Off != 0 || spans[2].Len != 10 {
		t.Errorf("last span %+v", spans[2])
	}
}

func TestSpansZeroLength(t *testing.T) {
	if got := Spans(1, 50, 0, DefaultBlockSize); got != nil {
		t.Errorf("zero length: got %v", got)
	}
	if got := Spans(1, 50, -3, DefaultBlockSize); got != nil {
		t.Errorf("negative length: got %v", got)
	}
}

// Property: spans tile the request exactly — contiguous positions, lengths
// summing to the request length, offsets reconstructing file offsets.
func TestSpansTileProperty(t *testing.T) {
	f := func(off uint32, length uint16, bsExp uint8) bool {
		blockSize := 1 << (4 + bsExp%10) // 16B .. 8KB
		offset := int64(off % (1 << 20))
		n := int64(length)
		if n == 0 {
			return Spans(1, offset, n, blockSize) == nil
		}
		spans := Spans(1, offset, n, blockSize)
		var total int64
		pos := int64(0)
		cursor := offset
		for _, s := range spans {
			if s.Pos != pos {
				return false
			}
			if s.FileOffset(blockSize) != cursor {
				return false
			}
			if s.Len <= 0 || s.Len > blockSize {
				return false
			}
			if s.Off < 0 || s.Off+s.Len > blockSize {
				return false
			}
			total += int64(s.Len)
			pos += int64(s.Len)
			cursor += int64(s.Len)
		}
		return total == n
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func TestBlockRange(t *testing.T) {
	cases := []struct {
		off, length int64
		first, cnt  int64
	}{
		{0, 1, 0, 1},
		{0, 4096, 0, 1},
		{0, 4097, 0, 2},
		{4095, 2, 0, 2},
		{8192, 4096, 2, 1},
		{100, 0, 0, 0},
	}
	for _, c := range cases {
		first, cnt := BlockRange(c.off, c.length, 4096)
		if first != c.first || cnt != c.cnt {
			t.Errorf("BlockRange(%d,%d) = (%d,%d), want (%d,%d)",
				c.off, c.length, first, cnt, c.first, c.cnt)
		}
	}
}

func TestBlocks(t *testing.T) {
	if Blocks(0, 4096) != 0 {
		t.Error("Blocks(0) != 0")
	}
	if Blocks(1, 4096) != 1 {
		t.Error("Blocks(1) != 1")
	}
	if Blocks(4096, 4096) != 1 {
		t.Error("Blocks(4096) != 1")
	}
	if Blocks(4097, 4096) != 2 {
		t.Error("Blocks(4097) != 2")
	}
}

// full reports whether a span covers its entire block.
func full(s Span) bool { return s.Off == 0 && s.Len == DefaultBlockSize }
