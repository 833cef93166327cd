package membership

import (
	"fmt"
	"time"

	"pvfscache/internal/rpc"
	"pvfscache/internal/transport"
	"pvfscache/internal/wire"
)

// mgrTimeout bounds each view RPC against the mgr. View traffic is tiny
// control-plane metadata; a second of patience is generous and keeps a
// dead mgr from hanging a join or a stale-epoch refresh forever.
const mgrTimeout = time.Second

// Client speaks the membership view protocol to the mgr: Join on boot,
// Fetch on stale-epoch refresh, Leave on drain. It is safe for concurrent
// use.
type Client struct {
	rc *rpc.Client
}

// NewClient returns a view client for the mgr at addr.
func NewClient(network transport.Network, addr string) *Client {
	return &Client{rc: rpc.NewClient(rpc.ClientConfig{
		Network:     network,
		Addr:        addr,
		Conns:       1,
		CallTimeout: mgrTimeout,
	})}
}

// Join registers (or re-addresses) member id at addr and returns the
// resulting view.
func (c *Client) Join(id uint32, addr string) (View, error) {
	return c.roundTrip(&wire.JoinView{ID: id, Addr: addr})
}

// Leave deregisters member id and returns the resulting view.
func (c *Client) Leave(id uint32) (View, error) {
	return c.roundTrip(&wire.LeaveView{ID: id})
}

// Fetch returns the mgr's current view.
func (c *Client) Fetch() (View, error) {
	return c.roundTrip(&wire.ViewGet{})
}

// Close releases the underlying connection pool.
func (c *Client) Close() error { return c.rc.Close() }

func (c *Client) roundTrip(req wire.Message) (View, error) {
	res := c.rc.Call(req)
	if res.Err != nil {
		return View{}, res.Err
	}
	defer res.Release()
	vr, ok := res.Msg.(*wire.ViewResp)
	if !ok {
		return View{}, fmt.Errorf("membership: unexpected %v reply to %v", res.Msg.WireType(), req.WireType())
	}
	if err := vr.Status.Err(); err != nil {
		return View{}, err
	}
	return ViewFromResp(vr), nil
}

// ViewFromResp decodes a wire view into a View.
func ViewFromResp(vr *wire.ViewResp) View {
	v := View{Epoch: vr.Epoch, Members: make([]Member, len(vr.IDs))}
	for i := range vr.IDs {
		v.Members[i] = Member{ID: vr.IDs[i], Addr: vr.Addrs[i]}
	}
	return v
}

// ViewToResp encodes a View as a wire reply (the mgr side of
// ViewFromResp).
func ViewToResp(v View) *wire.ViewResp {
	vr := &wire.ViewResp{Status: wire.StatusOK, Epoch: v.Epoch}
	vr.IDs = make([]uint32, len(v.Members))
	vr.Addrs = make([]string, len(v.Members))
	for i, m := range v.Members {
		vr.IDs[i] = m.ID
		vr.Addrs[i] = m.Addr
	}
	return vr
}
