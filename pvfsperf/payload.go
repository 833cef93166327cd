package main

import (
	"encoding/binary"
	"fmt"
)

// Every 4 KB block the benchmark writes describes itself: a header naming
// the slot (one op-sized unit of a file), the block's position in the slot,
// the write's sequence number and the seed, then a body that is a pure function of
// (seed, slot, block, seq). A reader needs no copy of what was written: it
// checks the header against where it read, the sequence number against the
// last write acknowledged to that slot, and regenerates the body.
const (
	blockSize   = 4096
	blockHeader = 32 // slot, block, seq, seed: u64 each
)

// fillSlot generates the payload of write number seq to a slot.
func fillSlot(dst []byte, seed int64, slot int, seq uint64) {
	for b := 0; b*blockSize < len(dst); b++ {
		blk := dst[b*blockSize : (b+1)*blockSize]
		binary.LittleEndian.PutUint64(blk[0:], uint64(slot))
		binary.LittleEndian.PutUint64(blk[8:], uint64(b))
		binary.LittleEndian.PutUint64(blk[16:], seq)
		binary.LittleEndian.PutUint64(blk[24:], uint64(seed))
		x, step := bodySeed(seed, slot, b, seq), uint64(bodyStep) // a variable's multiples wrap
		// Four words a turn, each from x alone: see bodyStep.
		for body := blk[blockHeader:]; len(body) >= 32; body = body[32:] {
			binary.LittleEndian.PutUint64(body[0:], (x+1*step)*bodyMul)
			binary.LittleEndian.PutUint64(body[8:], (x+2*step)*bodyMul)
			binary.LittleEndian.PutUint64(body[16:], (x+3*step)*bodyMul)
			binary.LittleEndian.PutUint64(body[24:], (x+4*step)*bodyMul)
			x += 4 * step
		}
	}
}

// checkSlot verifies what a read of a whole slot returned. minSeq is the
// sequence number of the last write acknowledged to the slot before the
// read began: an older block is stale data. A block newer than minSeq is a
// concurrent write landing mid-read, which is legal per block.
func checkSlot(got []byte, seed int64, slot int, minSeq uint64) error {
	for b := 0; b*blockSize < len(got); b++ {
		blk := got[b*blockSize : (b+1)*blockSize]
		gotSlot := binary.LittleEndian.Uint64(blk[0:])
		gotBlock := binary.LittleEndian.Uint64(blk[8:])
		seq := binary.LittleEndian.Uint64(blk[16:])
		gotSeed := binary.LittleEndian.Uint64(blk[24:])
		if gotSlot != uint64(slot) || gotBlock != uint64(b) || gotSeed != uint64(seed) {
			return fmt.Errorf("slot %d block %d: holds slot %d block %d of seed %d", slot, b, gotSlot, gotBlock, int64(gotSeed))
		}
		if seq < minSeq {
			return fmt.Errorf("slot %d block %d: stale seq %d, write %d was acknowledged", slot, b, seq, minSeq)
		}
		x, step := bodySeed(seed, slot, b, seq), uint64(bodyStep)
		for body := blk[blockHeader:]; len(body) >= 32; body = body[32:] {
			if binary.LittleEndian.Uint64(body[0:]) != (x+1*step)*bodyMul ||
				binary.LittleEndian.Uint64(body[8:]) != (x+2*step)*bodyMul ||
				binary.LittleEndian.Uint64(body[16:]) != (x+3*step)*bodyMul ||
				binary.LittleEndian.Uint64(body[24:]) != (x+4*step)*bodyMul {
				return fmt.Errorf("slot %d block %d seq %d: body differs in the 32 bytes at %d", slot, b, seq, blockSize-len(body))
			}
			x += 4 * step
		}
	}
	return nil
}

// The body is a counter stepped by an odd constant and multiplied by
// another, so no word waits for the one before it and filling costs about
// what copying does. The loop generates a payload before every write,
// inside the measured window, and workload.Fill's xorshift — three
// dependent shifts a word — took longer over 16 KB than a cached 16 KB
// write. bench.fill_*_ns reports what is left.
const (
	bodyStep = 0x9E3779B97F4A7C15
	bodyMul  = 0xBF58476D1CE4E5B9
)

func bodySeed(seed int64, slot, block int, seq uint64) uint64 {
	return uint64(seed)*0x9E3779B97F4A7C15 ^
		uint64(slot+1)*0xBF58476D1CE4E5B9 ^
		uint64(block+1)*0x94D049BB133111EB ^
		(seq+1)*0xD6E8FEB86659FD93
}
