package pvfs

import (
	"fmt"

	"pvfscache/internal/blockio"
	"pvfscache/internal/wire"
)

// Piece is the part of a request that one iod serves: a contiguous
// file-space extent that lies entirely within strips held by that iod,
// plus the extent's position within the caller's buffer.
type Piece struct {
	IOD int // global iod index
	Ext blockio.Extent
	Pos int64 // offset of this piece within the request buffer
}

// PiecesFor splits the byte range [offset, offset+length) of a striped file
// into per-iod pieces, in increasing file-offset order. The file is striped
// round-robin in units of meta.SSize over meta.PCount iods starting at
// meta.Base (all indices into the cluster's iod list of size totalIODs).
//
// The metadata arrives from the wire (an OpenResp or StatResp), so invalid
// geometry is an input error, not a programming error: a hostile or corrupt
// mgr response must not be able to crash the client.
func PiecesFor(file blockio.FileID, meta wire.FileMeta, totalIODs int, offset, length int64) ([]Piece, error) {
	if length <= 0 {
		return nil, nil
	}
	it, err := iterPieces(file, meta, totalIODs, offset, length, length)
	if err != nil {
		return nil, err
	}
	var pieces []Piece
	for pc, ok := it.next(); ok; pc, ok = it.next() {
		pieces = append(pieces, pc)
	}
	return pieces, nil
}

// pieceIter yields the pieces of PiecesFor one at a time, none longer than
// maxLen: the request path walks it twice (count, then place) instead of
// building a slice per operation.
type pieceIter struct {
	file                       blockio.FileID
	ssize, pcount, base, total int64
	cur, end, pos, maxLen      int64
}

func iterPieces(file blockio.FileID, meta wire.FileMeta, totalIODs int, offset, length, maxLen int64) (pieceIter, error) {
	ssize := int64(meta.SSize)
	pcount := int64(meta.PCount)
	if ssize <= 0 || pcount <= 0 || totalIODs <= 0 {
		return pieceIter{}, fmt.Errorf("pvfs: invalid striping metadata (ssize=%d pcount=%d iods=%d): %w",
			ssize, pcount, totalIODs, wire.ErrBadRequest)
	}
	return pieceIter{
		file: file, ssize: ssize, pcount: pcount, base: int64(meta.Base), total: int64(totalIODs),
		cur: offset, end: offset + length, maxLen: maxLen,
	}, nil
}

func (it *pieceIter) next() (Piece, bool) {
	if it.cur >= it.end {
		return Piece{}, false
	}
	strip := it.cur / it.ssize
	n := min((strip+1)*it.ssize, it.end, it.cur+it.maxLen) - it.cur
	pc := Piece{
		IOD: int((it.base + strip%it.pcount) % it.total),
		Ext: blockio.Extent{File: it.file, Offset: it.cur, Length: n},
		Pos: it.pos,
	}
	it.cur += n
	it.pos += n
	return pc, true
}
