package wire

// Membership messages (0x06xx): the mgr-coordinated view protocol. A
// global-cache node Joins with its peer-service address when it boots,
// Leaves when it drains, and any node can fetch the current view. The
// mgr answers every one of them with a ViewResp carrying the full
// epoch-stamped member list, so a join doubles as the joiner's first
// view fetch.
const (
	TViewGet   Type = 0x0601
	TViewResp  Type = 0x0602
	TJoinView  Type = 0x0603
	TLeaveView Type = 0x0604
)

// ViewGet asks the mgr for the current membership view.
type ViewGet struct{}

// ViewResp carries an epoch-stamped membership view: parallel ID and
// address lists, sorted by ID.
type ViewResp struct {
	Status Status
	Epoch  uint64
	IDs    []uint32
	Addrs  []string
}

// JoinView registers (or re-addresses) a global-cache member.
type JoinView struct {
	ID   uint32
	Addr string
}

// LeaveView deregisters a member that is draining out of the ring.
type LeaveView struct{ ID uint32 }

// WireType implementations.
func (*ViewGet) WireType() Type   { return TViewGet }
func (*ViewResp) WireType() Type  { return TViewResp }
func (*JoinView) WireType() Type  { return TJoinView }
func (*LeaveView) WireType() Type { return TLeaveView }

func (m *ViewGet) walk(c *codec) {}

func (m *ViewResp) walk(c *codec) {
	c.status(&m.Status)
	c.u64(&m.Epoch)
	list(c, &m.IDs, 4, (*codec).u32)
	list(c, &m.Addrs, 4, (*codec).str)
	c.check(len(m.IDs) == len(m.Addrs)) // parallel lists
}

func (m *JoinView) walk(c *codec) {
	c.u32(&m.ID)
	c.str(&m.Addr)
}

func (m *LeaveView) walk(c *codec) { c.u32(&m.ID) }
