package wire

import (
	"encoding/binary"
	"errors"
	"net"

	"pvfscache/internal/blockio"
)

// errTruncated reports a payload shorter than its declared fields.
var errTruncated = errors.New("truncated payload")

// codec walks one message's fields in wire order. Every message lists its
// fields once, in a walk method, and that one list drives both directions:
// encoding appends each field to buf; decoding reads each field from buf at
// pos into the message. A decode error is sticky — once the payload is
// short every later field reads nothing — so a walk never checks errors
// between fields.
type codec struct {
	buf []byte
	pos int // decode cursor
	dec bool
	err error

	// aliased (decode): a bulk byte field was handed out as a subslice of
	// buf (every decode is zero-copy), so buf must outlive the message.
	aliased bool

	// vec (encode): a bulk byte field of at least minVecTail bytes is not
	// copied into buf; segs keeps it, behind its length prefix, for the
	// frame writer to send from the caller's buffer as a segment of its
	// own.
	vec  bool
	segs []vecSeg

	// Scratch a pooled codec carries so that framing allocates nothing:
	// the header readFrame reads, and the frame's segment list.
	hdr  [14]byte
	vecs [][]byte
	bufs net.Buffers
}

// vecSeg is one bulk field left out of an encoded buf: data goes on the
// wire right after buf[:at].
type vecSeg struct {
	at   int
	data []byte
}

// minVecTail is the smallest bulk field worth a segment of its own in a
// scatter-gather write; below it, one copy into the frame buffer is
// cheaper than a second write on the transport.
const minVecTail = 1 << 10

// take returns the next n payload bytes, or nil once the payload is short.
func (c *codec) take(n int) []byte {
	if c.err != nil || n > len(c.buf)-c.pos {
		c.fail()
		return nil
	}
	b := c.buf[c.pos : c.pos+n : c.pos+n]
	c.pos += n
	return b
}

func (c *codec) fail() {
	if c.err == nil {
		c.err = errTruncated
	}
}

// check rejects a decoded message that breaks an invariant its fields
// cannot express on their own.
func (c *codec) check(ok bool) {
	if c.dec && !ok {
		c.fail()
	}
}

func (c *codec) bool(v *bool) {
	if !c.dec {
		var b byte
		if *v {
			b = 1
		}
		c.buf = append(c.buf, b)
	} else if b := c.take(1); b != nil {
		*v = b[0] != 0
	}
}

func (c *codec) u32(v *uint32) {
	if !c.dec {
		c.buf = binary.BigEndian.AppendUint32(c.buf, *v)
	} else if b := c.take(4); b != nil {
		*v = binary.BigEndian.Uint32(b)
	}
}

func (c *codec) u64(v *uint64) {
	if !c.dec {
		c.buf = binary.BigEndian.AppendUint64(c.buf, *v)
	} else if b := c.take(8); b != nil {
		*v = binary.BigEndian.Uint64(b)
	}
}

func (c *codec) i64(v *int64) {
	if !c.dec {
		c.buf = binary.BigEndian.AppendUint64(c.buf, uint64(*v))
	} else if b := c.take(8); b != nil {
		*v = int64(binary.BigEndian.Uint64(b))
	}
}

func (c *codec) status(v *Status) {
	if !c.dec {
		c.buf = binary.BigEndian.AppendUint16(c.buf, uint16(*v))
	} else if b := c.take(2); b != nil {
		*v = Status(binary.BigEndian.Uint16(b))
	}
}

func (c *codec) file(v *blockio.FileID) { c.u64((*uint64)(v)) }

// str walks a length-prefixed string. The string conversion always copies,
// so it never aliases the payload.
func (c *codec) str(v *string) {
	if !c.dec {
		c.buf = append(binary.BigEndian.AppendUint32(c.buf, uint32(len(*v))), *v...)
		return
	}
	var n uint32
	c.u32(&n)
	if b := c.take(int(n)); c.err == nil {
		*v = string(b)
	}
}

// bytes walks a length-prefixed byte field. On decode the field aliases
// the payload; take's full slice expression keeps an append by the
// consumer from scribbling over the next field. On encode with vec set, a
// field of at least minVecTail bytes is left in segs behind its length
// prefix, and the frame writer sends it straight from the caller's buffer
// (one writev on TCP, one pipe write per segment in memory).
func (c *codec) bytes(v *[]byte) {
	if !c.dec {
		c.buf = binary.BigEndian.AppendUint32(c.buf, uint32(len(*v)))
		if c.vec && len(*v) >= minVecTail {
			c.segs = append(c.segs, vecSeg{at: len(c.buf), data: *v})
		} else {
			c.buf = append(c.buf, *v...)
		}
		return
	}
	var n uint32
	c.u32(&n)
	if b := c.take(int(n)); c.err == nil {
		*v = b
		c.aliased = c.aliased || n > 0
	}
}

// count walks a u32 element count. On decode a count the rest of the
// payload cannot hold, at minElemSize encoded bytes an element, is rejected
// before anything is allocated, so a hostile 4-byte count cannot
// pre-allocate gigabytes.
func (c *codec) count(n, minElemSize int) int {
	v := uint32(n)
	c.u32(&v)
	if c.err != nil || c.dec && int64(v)*int64(minElemSize) > int64(len(c.buf)-c.pos) {
		c.fail()
		return 0
	}
	return int(v)
}

// list walks a u32-counted slice, each element with elem.
func list[E any](c *codec, s *[]E, minElemSize int, elem func(*codec, *E)) {
	n := c.count(len(*s), minElemSize)
	if c.dec {
		*s = make([]E, n)
	}
	for i := 0; i < n && c.err == nil; i++ {
		elem(c, &(*s)[i])
	}
}

func (c *codec) meta(m *FileMeta) {
	c.i64(&m.Size)
	c.u32(&m.Base)
	c.u32(&m.PCount)
	c.u32(&m.SSize)
}

func (m *Create) walk(c *codec) {
	c.str(&m.Name)
	c.u32(&m.Base)
	c.u32(&m.PCount)
	c.u32(&m.SSize)
}

func (m *CreateResp) walk(c *codec) {
	c.status(&m.Status)
	c.file(&m.File)
	c.meta(&m.Meta)
}

func (m *Open) walk(c *codec) { c.str(&m.Name) }

func (m *OpenResp) walk(c *codec) {
	c.status(&m.Status)
	c.file(&m.File)
	c.meta(&m.Meta)
}

func (m *Stat) walk(c *codec) { c.file(&m.File) }

func (m *StatResp) walk(c *codec) {
	c.status(&m.Status)
	c.meta(&m.Meta)
}

func (m *Unlink) walk(c *codec) { c.str(&m.Name) }

func (m *SetSize) walk(c *codec) {
	c.file(&m.File)
	c.i64(&m.Size)
}

func (m *List) walk(c *codec) {}

func (m *ListResp) walk(c *codec) {
	c.status(&m.Status)
	list(c, &m.Names, 4, (*codec).str) // each name is at least its u32 length prefix
}

func (m *StatusMsg) walk(c *codec) { c.status(&m.Status) }

func (m *Read) walk(c *codec) {
	c.u32(&m.Client)
	c.file(&m.File)
	c.i64(&m.Offset)
	c.i64(&m.Length)
	c.bool(&m.Track)
}

func (m *ReadResp) walk(c *codec) {
	c.status(&m.Status)
	c.bytes(&m.Data)
}

func (m *Write) walk(c *codec) {
	c.u32(&m.Client)
	c.file(&m.File)
	c.i64(&m.Offset)
	c.bytes(&m.Data)
}

func (m *WriteAck) walk(c *codec) { c.status(&m.Status) }

func (m *SyncWrite) walk(c *codec) {
	c.u32(&m.Client)
	c.file(&m.File)
	c.i64(&m.Offset)
	c.bytes(&m.Data)
}

func (m *SyncWriteAck) walk(c *codec) {
	c.status(&m.Status)
	c.u32(&m.Invalidated)
}

func (m *Flush) walk(c *codec) {
	c.u32(&m.Client)
	c.file(&m.File)
	list(c, &m.Blocks, 16, func(c *codec, b *FlushBlock) {
		c.i64(&b.Index)
		c.u32(&b.Off)
		c.bytes(&b.Data)
	})
}

func (m *FlushAck) walk(c *codec) { c.status(&m.Status) }

func (m *Invalidate) walk(c *codec) {
	c.file(&m.File)
	c.bool(&m.Drain)
	list(c, &m.Indices, 8, (*codec).i64)
}

func (m *InvalidAck) walk(c *codec) { c.status(&m.Status) }

func (m *PeerGet) walk(c *codec) {
	c.file(&m.File)
	c.i64(&m.Index)
	c.u64(&m.Epoch)
}

func (m *PeerGetResp) walk(c *codec) {
	c.status(&m.Status)
	c.bytes(&m.Data)
}
