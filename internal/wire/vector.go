package wire

import "pvfscache/internal/blockio"

// Vectored read message types (iod data group).
const (
	TReadBlocks     Type = 0x0207
	TReadBlocksResp Type = 0x0208
)

// ReadExtent is one contiguous byte range of a ReadBlocks request, in file
// coordinates.
type ReadExtent struct {
	Offset int64
	Length int64
}

// ReadBlocks is the vectored read: it asks one iod for several disjoint
// extents of a file in a single round trip. The cache module uses it to
// fetch all the missing blocks of a request (and its readahead window) at
// once instead of issuing one Read per run of consecutive blocks, and
// libpvfs uses it when several striping pieces of one operation land on
// the same iod. Client and Track have Read's semantics, applied to every
// extent.
type ReadBlocks struct {
	Client uint32
	File   blockio.FileID
	Track  bool
	Exts   []ReadExtent
}

// ReadBlocksResp answers a ReadBlocks. The extents' bytes are concatenated
// in request order in Data, with no padding: Lens[i] is the byte count
// actually served for extent i, which may be short when the extent extends
// past stored data (the missing tail reads as zero on the client side,
// PVFS's sparse semantics). A single backing buffer lets the server
// recycle it through the rpc AfterWrite hook, like ReadResp.
type ReadBlocksResp struct {
	Status Status
	Lens   []uint32
	Data   []byte
}

// ValidateExtents checks a vectored read's extents: every offset and
// length non-negative, and each length plus the running total within
// MaxMessageSize/2 so the response can always be framed. It returns the
// byte total and whether the extents are acceptable. The iod and the
// caching transport share it so the bound is defined once, next to
// MaxMessageSize.
func ValidateExtents(exts []ReadExtent) (total int64, ok bool) {
	for _, e := range exts {
		if e.Offset < 0 || e.Length < 0 || e.Length > MaxMessageSize/2 {
			return 0, false
		}
		total += e.Length
		if total > MaxMessageSize/2 {
			return 0, false
		}
	}
	return total, true
}

// WireType implementations.
func (*ReadBlocks) WireType() Type     { return TReadBlocks }
func (*ReadBlocksResp) WireType() Type { return TReadBlocksResp }

func (m *ReadBlocks) walk(c *codec) {
	c.u32(&m.Client)
	c.file(&m.File)
	c.bool(&m.Track)
	list(c, &m.Exts, 16, func(c *codec, e *ReadExtent) {
		c.i64(&e.Offset)
		c.i64(&e.Length)
	})
}

func (m *ReadBlocksResp) walk(c *codec) {
	c.status(&m.Status)
	list(c, &m.Lens, 4, (*codec).u32)
	c.bytes(&m.Data)
	// The lengths must tile Data exactly; a mismatch means a corrupt or
	// hostile peer and would otherwise let Lens address bytes Data does
	// not hold.
	var sum int64
	for _, l := range m.Lens {
		sum += int64(l)
	}
	c.check(sum == int64(len(m.Data)))
}
