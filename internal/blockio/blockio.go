// Package blockio provides the block arithmetic shared by the PVFS client,
// the I/O daemons and the cache module.
//
// The cache operates on fixed-size blocks (4 KB in the paper, matching the
// Linux page size). File byte ranges are decomposed into block spans: a span
// names one block plus the sub-range of that block the request touches.
package blockio

import "fmt"

// DefaultBlockSize is the cache block size used throughout the paper:
// 4 KB, chosen to equal the page size.
const DefaultBlockSize = 4096

// FileID identifies a file in the cluster namespace. IDs are allocated by
// the metadata server and are never reused within a cluster lifetime.
type FileID uint64

// BlockKey identifies one cache block: a file and a block index within it.
type BlockKey struct {
	File  FileID
	Index int64
}

// String renders the key as "file:index" for logs and tests.
func (k BlockKey) String() string { return fmt.Sprintf("%d:%d", k.File, k.Index) }

// Mix returns a well-distributed 64-bit hash of the key (a Fibonacci/
// SplitMix-style multiply-xor). It is the single routing hash of the
// system: the global cache chooses a block's home node from its low bits
// (Mix % peers) and the buffer manager chooses the block's shard from its
// high bits ((Mix >> 32) & mask). One hash, two disjoint bit ranges — so
// the layers stripe consistently yet independently: conditioning on a
// block's home node must not collapse its shard distribution.
func (k BlockKey) Mix() uint64 {
	h := uint64(k.File)*0x9E3779B97F4A7C15 + uint64(k.Index)*0xBF58476D1CE4E5B9
	h ^= h >> 31
	return h
}

// Span is the intersection of a byte range with a single block.
// Off is the offset of the range within the block; Len never exceeds
// blockSize-Off.
type Span struct {
	Key BlockKey
	Off int   // offset within the block
	Len int   // bytes of the block covered
	Pos int64 // offset of this span within the original request buffer
}

// FileOffset returns the absolute file offset of the span's first byte.
func (s Span) FileOffset(blockSize int) int64 {
	return s.Key.Index*int64(blockSize) + int64(s.Off)
}

// Spans decomposes the byte range [offset, offset+length) of file into
// block spans, in increasing block order. A zero or negative length yields
// no spans. blockSize must be positive.
func Spans(file FileID, offset, length int64, blockSize int) []Span {
	if length <= 0 {
		return nil
	}
	it := IterSpans(file, offset, length, blockSize)
	_, n := BlockRange(offset, length, blockSize)
	spans := make([]Span, 0, n)
	for sp, ok := it.Next(); ok; sp, ok = it.Next() {
		spans = append(spans, sp)
	}
	return spans
}

// SpanIter yields the spans of Spans one at a time, for the request path,
// which visits each span once and must not allocate.
type SpanIter struct {
	file         FileID
	bs, cur, end int64 // block size; next byte to cover; exclusive end
	pos          int64
}

// IterSpans returns an iterator over the spans Spans would return.
func IterSpans(file FileID, offset, length int64, blockSize int) SpanIter {
	if length <= 0 {
		return SpanIter{}
	}
	if blockSize <= 0 {
		panic("blockio: non-positive block size")
	}
	return SpanIter{file: file, bs: int64(blockSize), cur: offset, end: offset + length}
}

// Next returns the next span, or false when the range is covered.
func (it *SpanIter) Next() (Span, bool) {
	if it.cur >= it.end {
		return Span{}, false
	}
	idx := it.cur / it.bs
	off := it.cur - idx*it.bs
	n := min(it.bs-off, it.end-it.cur)
	sp := Span{Key: BlockKey{File: it.file, Index: idx}, Off: int(off), Len: int(n), Pos: it.pos}
	it.cur += n
	it.pos += n
	return sp, true
}

// BlockRange returns the first block index and the number of blocks touched
// by the byte range [offset, offset+length).
func BlockRange(offset, length int64, blockSize int) (first int64, count int64) {
	if length <= 0 {
		return offset / int64(blockSize), 0
	}
	bs := int64(blockSize)
	first = offset / bs
	last := (offset + length - 1) / bs
	return first, last - first + 1
}

// Blocks returns the number of whole blocks needed to hold n bytes.
func Blocks(n int64, blockSize int) int64 {
	bs := int64(blockSize)
	return (n + bs - 1) / bs
}

// Extent is a contiguous byte range within one file. Extents are the unit
// the client library aggregates into per-iod network requests, and the unit
// the cache module splits around cached holes.
type Extent struct {
	File   FileID
	Offset int64
	Length int64
}
