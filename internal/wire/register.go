package wire

// Register announces a client cache to an iod: it carries the client's ID
// and the address of its invalidation listener. The iod uses the address to
// deliver Invalidate messages when other clients issue sync-writes to
// blocks this client caches.
type Register struct {
	Client uint32
	Addr   string
}

// RegisterAck acknowledges a Register.
type RegisterAck struct{ Status Status }

// Registration message types (coherence group).
const (
	TRegister    Type = 0x0403
	TRegisterAck Type = 0x0404
)

// WireType implementations.
func (*Register) WireType() Type    { return TRegister }
func (*RegisterAck) WireType() Type { return TRegisterAck }

func (m *Register) walk(c *codec) {
	c.u32(&m.Client)
	c.str(&m.Addr)
}

func (m *RegisterAck) walk(c *codec) { c.status(&m.Status) }
