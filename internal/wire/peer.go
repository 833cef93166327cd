package wire

import "pvfscache/internal/blockio"

// PeerPut pushes one whole block into a peer node's cache — the
// global-cache extension's block placement: after fetching a block from an
// iod, a node forwards a copy to the block's home node so that later
// misses anywhere in the cluster can be served from cluster memory before
// touching the iod.
type PeerPut struct {
	File  blockio.FileID
	Index int64
	Owner uint32 // iod index storing the block
	Epoch uint64 // sender's membership epoch (0 = unchecked, static rings)
	Data  []byte
}

// PeerPutAck acknowledges a PeerPut.
type PeerPutAck struct{ Status Status }

// Global-cache message types (extension group).
const (
	TPeerPut    Type = 0x0503
	TPeerPutAck Type = 0x0504
)

// WireType implementations.
func (*PeerPut) WireType() Type    { return TPeerPut }
func (*PeerPutAck) WireType() Type { return TPeerPutAck }

func (m *PeerPut) walk(c *codec) {
	c.file(&m.File)
	c.i64(&m.Index)
	c.u32(&m.Owner)
	c.u64(&m.Epoch)
	c.bytes(&m.Data)
}

func (m *PeerPutAck) walk(c *codec) { c.status(&m.Status) }
