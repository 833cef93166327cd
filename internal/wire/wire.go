// Package wire defines the binary protocol spoken between the PVFS client
// library, the metadata server (mgr), the I/O daemons (iod), and the cache
// module's background threads (flusher, coherence).
//
// Every frame is [u32 length|1<<31][u16 message type][u64 tag][payload].
// All integers are big-endian; variable-length fields are length-prefixed;
// the length counts type + tag + payload. The peer echoes the tag on the
// response, so responses complete out of order (see internal/rpc). The
// high bit of the length word marks the tag; a length word without it
// fails with ErrUntagged. The format is hand-rolled on encoding/binary so
// the module stays stdlib-only.
//
// The protocol deliberately mirrors the structure described in the paper:
// data reads/writes, sync-writes and the flushes served by the iod-side
// flusher peer all travel to an iod's one address, and invalidations
// travel from iods to the per-node cache module.
//
// Every read is a ReadBlocks (see vector.go): several disjoint extents of a
// file from one iod in a single round trip. Read and ReadResp remain only
// as a header-only pair for pvfsperf's rpc probe.
package wire

import (
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"reflect"
	"strings"
	"sync"
	"sync/atomic"

	"pvfscache/internal/blockio"
)

// MaxMessageSize bounds a single framed message (64 MB + slack); it protects
// servers from corrupt or hostile length fields.
const MaxMessageSize = 64<<20 + 4096

// Type identifies a message kind on the wire.
type Type uint16

// Message types. The numbering groups mgr traffic in 0x01xx, iod data
// traffic in 0x02xx, flush traffic in 0x03xx, coherence in 0x04xx, and the
// global-cache extension in 0x05xx.
const (
	TCreate       Type = 0x0101
	TCreateResp   Type = 0x0102
	TOpen         Type = 0x0103
	TOpenResp     Type = 0x0104
	TStat         Type = 0x0105
	TStatResp     Type = 0x0106
	TUnlink       Type = 0x0107
	TSetSize      Type = 0x0108
	TList         Type = 0x0109
	TListResp     Type = 0x010a
	TStatus       Type = 0x010b
	TRead         Type = 0x0201
	TReadResp     Type = 0x0202
	TWrite        Type = 0x0203
	TWriteAck     Type = 0x0204
	TSyncWrite    Type = 0x0205
	TSyncWriteAck Type = 0x0206
	TFlush        Type = 0x0301
	TFlushAck     Type = 0x0302
	TInvalidate   Type = 0x0401
	TInvalidAck   Type = 0x0402
	TPeerGet      Type = 0x0501
	TPeerGetResp  Type = 0x0502
)

// String names the message type for logs.
func (t Type) String() string {
	if name, ok := typeNames[t]; ok {
		return name
	}
	return fmt.Sprintf("Type(0x%04x)", uint16(t))
}

// Status is a protocol-level result code.
type Status uint16

// Status codes.
const (
	StatusOK Status = iota
	StatusNotFound
	StatusExists
	StatusIOError
	StatusBadRequest
	StatusShortRead  // read extended past end of stored data
	StatusStaleEpoch // peer's membership epoch differs from the request's
	StatusDraining   // peer is draining and not admitting new work
	StatusOverload   // node is saturated; the request was shed and may be retried
)

// Err converts a non-OK status to an error; StatusOK yields nil.
func (s Status) Err() error {
	switch s {
	case StatusOK:
		return nil
	case StatusNotFound:
		return ErrNotFound
	case StatusExists:
		return ErrExists
	case StatusIOError:
		return ErrIO
	case StatusBadRequest:
		return ErrBadRequest
	case StatusShortRead:
		return ErrShortRead
	case StatusStaleEpoch:
		return ErrStaleEpoch
	case StatusDraining:
		return ErrDraining
	case StatusOverload:
		return ErrOverload
	default:
		return fmt.Errorf("wire: unknown status %d", uint16(s))
	}
}

// Sentinel errors corresponding to status codes.
var (
	ErrNotFound   = errors.New("wire: not found")
	ErrExists     = errors.New("wire: already exists")
	ErrIO         = errors.New("wire: i/o error")
	ErrBadRequest = errors.New("wire: bad request")
	ErrShortRead  = errors.New("wire: short read")
	ErrStaleEpoch = errors.New("wire: stale membership epoch")
	ErrDraining   = errors.New("wire: peer draining")
	ErrOverload   = errors.New("wire: node overloaded, retry")
	ErrTooLarge   = errors.New("wire: message exceeds size limit")
	ErrUntagged   = errors.New("wire: untagged frame")
)

// StatusFor maps an error back to a status code for the server side.
func StatusFor(err error) Status {
	switch {
	case err == nil:
		return StatusOK
	case errors.Is(err, ErrNotFound):
		return StatusNotFound
	case errors.Is(err, ErrExists):
		return StatusExists
	case errors.Is(err, ErrBadRequest):
		return StatusBadRequest
	case errors.Is(err, ErrShortRead):
		return StatusShortRead
	case errors.Is(err, ErrStaleEpoch):
		return StatusStaleEpoch
	case errors.Is(err, ErrDraining):
		return StatusDraining
	case errors.Is(err, ErrOverload):
		return StatusOverload
	default:
		return StatusIOError
	}
}

// Message is any protocol message.
type Message interface {
	// WireType returns the message's type tag.
	WireType() Type
	// walk lists the payload's fields once, in wire order; the codec
	// encodes or decodes them (see codec).
	walk(c *codec)
}

// FileMeta carries a file's striping metadata and current size, exactly the
// attributes libpvfs fetches from mgr on open.
type FileMeta struct {
	Size   int64  // current file size in bytes
	Base   uint32 // index of the first iod holding strip 0
	PCount uint32 // number of iods the file is striped over
	SSize  uint32 // strip size in bytes
}

// FlushBlock is one dirty run carried by a flush message. Index names the
// first cache block of the run and Off is the offset of Data within that
// block: the flusher sends only the dirty span of a partially written
// block. Data may extend past the end of block Index into the following
// blocks — the flusher coalesces adjacent dirty blocks of one file into a
// single contiguous run, and the iod writes the whole run with one store
// call, recording every covered block in its coherence directory.
//
// Ownership: on the encode side Data is borrowed from the sender until
// WriteTagged returns: a run of at least 1 KB is not copied into the frame
// but sent from the sender's buffer (a flush stream's snapshot slab) as a
// segment of the scatter-gather write, so the sender may reuse that
// buffer only once the write has returned. On the decode side it aliases
// the connection's pooled frame buffer and must be consumed before the
// server handler returns (see rpc.Server).
type FlushBlock struct {
	Index int64
	Off   uint32
	Data  []byte
}

// Flush frame capacity, derived from the codec so a flusher's chunk
// budget cannot drift from what a frame can actually carry (a chunk
// framed over the limit would fail WriteTagged with ErrTooLarge and
// retry forever, since retrying never shrinks it):
const (
	// flushHeaderBytes is the fixed Flush encoding head:
	// Client (u32) + File (u64) + block count (u32).
	flushHeaderBytes = 4 + 8 + 4
	// FlushBlockOverhead is the per-run encoding overhead in a Flush
	// message: Index (i64) + Off (u32) + the Data length prefix (u32).
	FlushBlockOverhead = 8 + 4 + 4
	// MaxFlushPayload is the largest sum of
	// len(FlushBlock.Data) + FlushBlockOverhead that a single Flush frame
	// can carry: MaxMessageSize minus the frame's type word, the request
	// tag, and the Flush head. A flusher that keeps each chunk's
	// accounted bytes at or under this bound can never hit ErrTooLarge.
	MaxFlushPayload = MaxMessageSize - 2 - 8 - flushHeaderBytes
)

// --- mgr messages ---

// Create asks mgr to create a file with the given striping.
type Create struct {
	Name   string
	Base   uint32
	PCount uint32
	SSize  uint32
}

// CreateResp returns the new file's ID and metadata.
type CreateResp struct {
	Status Status
	File   blockio.FileID
	Meta   FileMeta
}

// Open resolves a name to a file ID and metadata.
type Open struct{ Name string }

// OpenResp carries the result of an Open.
type OpenResp struct {
	Status Status
	File   blockio.FileID
	Meta   FileMeta
}

// Stat fetches current metadata by file ID.
type Stat struct{ File blockio.FileID }

// StatResp carries the result of a Stat.
type StatResp struct {
	Status Status
	Meta   FileMeta
}

// Unlink removes a name from the namespace.
type Unlink struct{ Name string }

// SetSize grows the recorded file size to at least Size (writes extend
// files; mgr keeps the authoritative size).
type SetSize struct {
	File blockio.FileID
	Size int64
}

// List requests all file names.
type List struct{}

// ListResp carries the namespace contents.
type ListResp struct {
	Status Status
	Names  []string
}

// StatusMsg is a bare status reply used by Unlink and SetSize.
type StatusMsg struct{ Status Status }

// --- iod data messages ---

// Read requests [Offset, Offset+Length) of a file's data held by this iod.
// Offsets are in file coordinates; the iod maps them to its local strips.
// Client identifies the requesting node's cache for the coherence directory;
// Track is set when the requester caches the result.
type Read struct {
	Client uint32
	File   blockio.FileID
	Offset int64
	Length int64
	Track  bool
}

// ReadResp returns the requested bytes. Data may be shorter than requested
// when the read extends past written data; missing bytes read as zero on
// the client side (sparse semantics).
type ReadResp struct {
	Status Status
	Data   []byte
}

// Write stores Data at Offset.
type Write struct {
	Client uint32
	File   blockio.FileID
	Offset int64
	Data   []byte
}

// WriteAck acknowledges a Write.
type WriteAck struct{ Status Status }

// SyncWrite is the paper's coherent write: the iod persists the data and
// invalidates every other client cache holding copies of the touched blocks
// before acknowledging.
type SyncWrite struct {
	Client uint32
	File   blockio.FileID
	Offset int64
	Data   []byte
}

// SyncWriteAck acknowledges a SyncWrite after invalidations complete.
type SyncWriteAck struct {
	Status      Status
	Invalidated uint32 // number of remote caches invalidated
}

// --- flush messages ---

// Flush carries a batch of dirty runs of ONE file from a node's flusher
// to the iod-side flusher peer, which writes them with local file-system
// calls. A cache module may have several Flush frames in flight to one
// iod concurrently (the pipelined write-behind engine); the runs of the
// frames of one round are disjoint, so the iod may apply concurrent
// frames in any order. Delivery is at-least-once: a frame whose ack is
// lost is re-sent by the flusher after re-queuing its blocks, and the
// iod applies it again idempotently. (Re-sends are not ordered against
// the original: a lost-ack frame still executing at the iod can race a
// retry carrying newer bytes — see iod.flush for the residual race.)
type Flush struct {
	Client uint32
	File   blockio.FileID
	Blocks []FlushBlock
}

// FlushAck acknowledges a Flush batch.
type FlushAck struct{ Status Status }

// --- coherence messages ---

// Invalidate tells a client cache to drop its copies of the listed blocks.
// Drain marks a graceful-drain handoff rather than a sync-write conflict:
// the receiver keeps blocks it has dirtied (discarding them would lose
// acknowledged writes; they flush to the daemon's successor) and drops
// only clean copies.
type Invalidate struct {
	File    blockio.FileID
	Indices []int64
	Drain   bool
}

// InvalidAck acknowledges an Invalidate.
type InvalidAck struct{ Status Status }

// --- global-cache extension ---

// PeerGet asks a peer node's cache for a single block. Epoch is the
// membership epoch the requester routed with; a peer holding a different
// view answers StatusStaleEpoch so the requester refetches the view
// before retrying (epoch 0 on either side skips the check — static
// rings).
type PeerGet struct {
	File  blockio.FileID
	Index int64
	Epoch uint64
}

// PeerGetResp returns the block if the peer holds it.
type PeerGetResp struct {
	Status Status
	Data   []byte
}

// WireType implementations.
func (*Create) WireType() Type       { return TCreate }
func (*CreateResp) WireType() Type   { return TCreateResp }
func (*Open) WireType() Type         { return TOpen }
func (*OpenResp) WireType() Type     { return TOpenResp }
func (*Stat) WireType() Type         { return TStat }
func (*StatResp) WireType() Type     { return TStatResp }
func (*Unlink) WireType() Type       { return TUnlink }
func (*SetSize) WireType() Type      { return TSetSize }
func (*List) WireType() Type         { return TList }
func (*ListResp) WireType() Type     { return TListResp }
func (*StatusMsg) WireType() Type    { return TStatus }
func (*Read) WireType() Type         { return TRead }
func (*ReadResp) WireType() Type     { return TReadResp }
func (*Write) WireType() Type        { return TWrite }
func (*WriteAck) WireType() Type     { return TWriteAck }
func (*SyncWrite) WireType() Type    { return TSyncWrite }
func (*SyncWriteAck) WireType() Type { return TSyncWriteAck }
func (*Flush) WireType() Type        { return TFlush }
func (*FlushAck) WireType() Type     { return TFlushAck }
func (*Invalidate) WireType() Type   { return TInvalidate }
func (*InvalidAck) WireType() Type   { return TInvalidAck }
func (*PeerGet) WireType() Type      { return TPeerGet }
func (*PeerGetResp) WireType() Type  { return TPeerGetResp }

// registry holds one constructor per message type; New and Type.String
// both read it, so registering a message is this one line.
var registry = map[Type]func() Message{
	TCreate:         func() Message { return new(Create) },
	TCreateResp:     func() Message { return new(CreateResp) },
	TOpen:           func() Message { return new(Open) },
	TOpenResp:       func() Message { return new(OpenResp) },
	TStat:           func() Message { return new(Stat) },
	TStatResp:       func() Message { return new(StatResp) },
	TUnlink:         func() Message { return new(Unlink) },
	TSetSize:        func() Message { return new(SetSize) },
	TList:           func() Message { return new(List) },
	TListResp:       func() Message { return new(ListResp) },
	TStatus:         func() Message { return new(StatusMsg) },
	TRead:           func() Message { return new(Read) },
	TReadResp:       func() Message { return new(ReadResp) },
	TWrite:          func() Message { return new(Write) },
	TWriteAck:       func() Message { return new(WriteAck) },
	TSyncWrite:      func() Message { return new(SyncWrite) },
	TSyncWriteAck:   func() Message { return new(SyncWriteAck) },
	TReadBlocks:     func() Message { return new(ReadBlocks) },
	TReadBlocksResp: func() Message { return new(ReadBlocksResp) },
	TFlush:          func() Message { return new(Flush) },
	TFlushAck:       func() Message { return new(FlushAck) },
	TInvalidate:     func() Message { return new(Invalidate) },
	TInvalidAck:     func() Message { return new(InvalidAck) },
	TRegister:       func() Message { return new(Register) },
	TRegisterAck:    func() Message { return new(RegisterAck) },
	TPeerGet:        func() Message { return new(PeerGet) },
	TPeerGetResp:    func() Message { return new(PeerGetResp) },
	TPeerPut:        func() Message { return new(PeerPut) },
	TPeerPutAck:     func() Message { return new(PeerPutAck) },
	TViewGet:        func() Message { return new(ViewGet) },
	TViewResp:       func() Message { return new(ViewResp) },
	TJoinView:       func() Message { return new(JoinView) },
	TLeaveView:      func() Message { return new(LeaveView) },
}

// typeNames derives each type's name from its struct, once: StatusMsg is
// the one struct named apart from its type (it would collide with Status).
var typeNames = func() map[Type]string {
	names := make(map[Type]string, len(registry))
	for t, mk := range registry {
		names[t] = strings.TrimSuffix(reflect.TypeOf(mk()).Elem().Name(), "Msg")
	}
	return names
}()

// New constructs an empty message of the given type, or nil for unknown
// types.
func New(t Type) Message {
	if mk := registry[t]; mk != nil {
		return mk()
	}
	return nil
}

// tagBit marks a frame whose header carries a u64 request tag, which every
// frame does. It sits in the length word, far above MaxMessageSize.
const tagBit = 1 << 31

// encoders recycle codecs with their frame buffers. decoders hold no buffer:
// a connection's reader keeps its codec while it blocks for the next frame,
// and must not pin an encode buffer meanwhile. payloadPool recycles decode
// buffers in *[]byte holders, and payloadHolders recycles the emptied
// holders, so neither taking a buffer nor returning one allocates.
// Oversized buffers are not returned so a rare huge message cannot pin
// memory.
var (
	encoders       = sync.Pool{New: func() any { return &codec{buf: make([]byte, 0, 4096)} }}
	decoders       = sync.Pool{New: func() any { return new(codec) }}
	payloadPool    = sync.Pool{New: func() any { b := make([]byte, 0, 4096); return &b }}
	payloadHolders sync.Pool
)

// pooledBufCap bounds the capacity of buffers kept in the pools (1 MB).
const pooledBufCap = 1 << 20

// putCodec clears c, keeping buf and the segment scratch for its next use
// (emptied, so a pooled codec pins no caller's bytes), and returns it to
// pool.
func putCodec(pool *sync.Pool, c *codec, buf []byte) {
	if cap(buf) > pooledBufCap {
		buf = nil
	}
	clear(c.segs)
	clear(c.vecs)
	*c = codec{buf: buf[:0], segs: c.segs[:0], vecs: c.vecs[:0]}
	pool.Put(c)
}

// getPayloadBuf returns an n-byte decode buffer from payloadPool.
func getPayloadBuf(n int) []byte {
	h := payloadPool.Get().(*[]byte)
	b := *h
	*h = nil
	payloadHolders.Put(h)
	if cap(b) < n {
		return make([]byte, n)
	}
	return b[:n]
}

// poisonPayloads, when set, overwrites every payload buffer with
// PoisonByte as it is recycled, whether the decoder recycles it or the
// caller releases it. Tests enable it so an alias that outlives its buffer
// reads an obvious poison pattern (and trips the race detector on
// concurrent reuse) instead of silently reading stale-but-plausible bytes.
var poisonPayloads atomic.Bool

// PoisonByte is the fill pattern SetPoisonReleased stamps over released
// payload buffers.
const PoisonByte = 0xDB

// SetPoisonReleased toggles poison-on-release for payload buffers (debug
// mode for the zero-copy lease protocol; see rpc.Lease).
func SetPoisonReleased(on bool) { poisonPayloads.Store(on) }

// ReleasePayload recycles a payload buffer obtained from ReadFrameAliased.
// It must be called exactly once, after every alias into the buffer is
// dead. Nil is a no-op. It is the one place a payload buffer is recycled.
func ReleasePayload(b []byte) {
	if b == nil {
		return
	}
	if poisonPayloads.Load() {
		for i := range b {
			b[i] = PoisonByte
		}
	}
	if cap(b) > pooledBufCap {
		return
	}
	h, _ := payloadHolders.Get().(*[]byte)
	if h == nil {
		h = new([]byte)
	}
	*h = b[:0]
	payloadPool.Put(h)
}

// encodeFrame walks m into c.buf behind its frame header. With vec set,
// every bulk field of at least minVecTail bytes stays in c.segs instead of
// being copied (see codec.bytes).
func (c *codec) encodeFrame(tag uint64, m Message, vec bool) error {
	c.buf = binary.BigEndian.AppendUint16(append(c.buf[:0], 0, 0, 0, 0), uint16(m.WireType()))
	c.buf = binary.BigEndian.AppendUint64(c.buf, tag)
	c.vec = vec
	m.walk(c)
	size := len(c.buf) - 4
	for _, sg := range c.segs {
		size += len(sg.data)
	}
	if size > MaxMessageSize {
		return ErrTooLarge
	}
	binary.BigEndian.PutUint32(c.buf, uint32(size)|tagBit)
	return nil
}

// WriteTagged frames and writes m to w with a request tag; the peer echoes
// the tag on the response so replies can complete out of order. It makes
// one write, or one scatter-gather write of the head pieces and the bulk
// fields the walk left uncopied, so no bulk field is ever copied into a
// frame: a Write's data, a response's payload and every run of a Flush go
// out from the caller's buffer. m's bytes are borrowed only until
// WriteTagged returns; every transport copies them inside Write. Callers
// serialize writes per connection (rpc's per-connection write locks), so
// the segments cannot interleave with another frame.
func WriteTagged(w io.Writer, tag uint64, m Message) error {
	c := encoders.Get().(*codec)
	err := c.encodeFrame(tag, m, true)
	switch {
	case err != nil:
	case len(c.segs) == 0:
		_, err = w.Write(c.buf)
	default:
		at := 0
		for _, sg := range c.segs {
			if sg.at > at {
				c.vecs = append(c.vecs, c.buf[at:sg.at])
			}
			c.vecs = append(c.vecs, sg.data)
			at = sg.at
		}
		if at < len(c.buf) {
			c.vecs = append(c.vecs, c.buf[at:])
		}
		c.bufs = c.vecs
		_, err = c.bufs.WriteTo(w)
	}
	putCodec(&encoders, c, c.buf)
	return err
}

// ReadFrameAliased reads one frame from r and decodes it zero-copy: bulk
// payload fields of the message (Write.Data, flush block data, peer block
// data, ...) alias the returned payload buffer instead of being copied out
// of it. The caller owns payload and must pass it to ReleasePayload
// exactly once, after every alias is dead; payload is nil when the message
// kept no alias (the buffer was recycled internally). tagged is true on
// every nil-error return: a frame without the tag bit fails with
// ErrUntagged, judged from its length word alone.
func ReadFrameAliased(r io.Reader) (tag uint64, tagged bool, m Message, payload []byte, err error) {
	c := decoders.Get().(*codec)
	defer putCodec(&decoders, c, nil)
	hdr := c.hdr[:]
	if _, err := io.ReadFull(r, hdr[:4]); err != nil {
		return 0, false, nil, nil, err
	}
	word := binary.BigEndian.Uint32(hdr[:4])
	size := word &^ tagBit
	switch {
	case word&tagBit == 0:
		return 0, false, nil, nil, ErrUntagged
	case size < 2+8 || size > MaxMessageSize:
		return 0, false, nil, nil, ErrTooLarge
	}
	if _, err := io.ReadFull(r, hdr[4:]); err != nil {
		return 0, false, nil, nil, err
	}
	t := Type(binary.BigEndian.Uint16(hdr[4:6]))
	tag = binary.BigEndian.Uint64(hdr[6:14])
	if payload, err = readPayload(r, int(size-2-8)); err != nil {
		return 0, false, nil, nil, err
	}
	m = New(t)
	if m == nil {
		ReleasePayload(payload)
		return 0, false, nil, nil, fmt.Errorf("wire: unknown message type 0x%04x", uint16(t))
	}
	c.buf, c.dec = payload, true
	m.walk(c)
	trailing := len(payload) - c.pos
	if c.err != nil || trailing != 0 || !c.aliased {
		// Nothing in the message aliases the buffer (or the message is
		// rejected): recycle it now.
		ReleasePayload(payload)
		payload = nil
	}
	if c.err != nil {
		return 0, false, nil, nil, fmt.Errorf("wire: decoding %v: %w", t, c.err)
	}
	if trailing != 0 {
		return 0, false, nil, nil, fmt.Errorf("wire: %d trailing bytes after %v", trailing, t)
	}
	return tag, true, m, payload, nil
}

// readPayload reads an n-byte payload. Up to pooledBufCap it is one pooled
// buffer; beyond that the buffer doubles as bytes arrive, so a header that
// declares more than its peer sends pins memory in proportion to what
// arrived, not to what was declared.
func readPayload(r io.Reader, n int) ([]byte, error) {
	b := getPayloadBuf(min(n, pooledBufCap))
	for got := 0; ; {
		if _, err := io.ReadFull(r, b[got:]); err != nil {
			ReleasePayload(b)
			return nil, err
		}
		if got = len(b); got == n {
			return b, nil
		}
		b = append(b, make([]byte, min(got, n-got))...)
	}
}
