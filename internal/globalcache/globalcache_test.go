package globalcache

import (
	"bytes"
	"sync"
	"testing"
	"time"

	"pvfscache/internal/blockio"
	"pvfscache/internal/cachemod/buffer"
	"pvfscache/internal/membership"
	"pvfscache/internal/metrics"
	"pvfscache/internal/rpc"
	"pvfscache/internal/transport"
	"pvfscache/internal/wire"
)

const testBlock = 64

// rig is a cluster of global-cache nodes joined through one fake mgr on
// one in-memory network, every node's view refreshed to the last join.
type rig struct {
	net   transport.Network
	bufs  []*buffer.Manager
	nodes []*Node
	regs  []*metrics.Registry
}

func newRig(t *testing.T, count int) *rig {
	t.Helper()
	r := &rig{net: transport.NewMem()}
	fakeMgr(t, r.net, "mgr", nil)
	for i := 0; i < count; i++ {
		buf := buffer.New(buffer.Config{BlockSize: testBlock, Capacity: 32})
		reg := metrics.NewRegistry()
		r.bufs = append(r.bufs, buf)
		r.nodes = append(r.nodes, startNode(t, r.net, uint32(i), buf, reg))
		r.regs = append(r.regs, reg)
	}
	// Earlier joiners hold earlier epochs until they refresh.
	for _, n := range r.nodes {
		n.refreshView()
	}
	return r
}

// startNode starts member id of the view the fake mgr at "mgr" keeps,
// listening on a fresh address, and closes it when the test ends.
func startNode(t *testing.T, net transport.Network, id uint32, buf *buffer.Manager, reg *metrics.Registry) *Node {
	t.Helper()
	l, err := net.Listen(":0")
	if err != nil {
		t.Fatal(err)
	}
	n, err := Start(Options{SelfID: id, MgrAddr: "mgr"}, buf, l, net, reg)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { n.Close() })
	return n
}

// keyWithReplicas searches for a block key whose replica set (as node
// `from` computes it) starts with the given member indices.
func keyWithReplicas(t *testing.T, n *Node, want ...int) blockio.BlockKey {
	t.Helper()
	var buf [8]int
	for i := int64(0); i < 1<<20; i++ {
		key := blockio.BlockKey{File: 1, Index: i}
		set := n.Ring().ReplicaSet(key, buf[:0])
		if len(set) < len(want) {
			continue
		}
		match := true
		for j, w := range want {
			if set[j] != w {
				match = false
				break
			}
		}
		if match {
			return key
		}
	}
	t.Fatal("no key found with the requested replica set")
	return blockio.BlockKey{}
}

func TestGetServedFromPrimary(t *testing.T) {
	r := newRig(t, 2)
	key := keyWithReplicas(t, r.nodes[0], 1)
	data := bytes.Repeat([]byte{0xAB}, testBlock)
	r.bufs[1].InsertClean(key, 0, data)

	got := make([]byte, testBlock)
	n, ok := r.nodes[0].Get(key, got)
	if !ok {
		t.Fatal("peer get missed")
	}
	if n != testBlock || !bytes.Equal(got, data) {
		t.Fatal("peer get wrong data")
	}
}

func TestGetMissesWhenPeerCold(t *testing.T) {
	r := newRig(t, 2)
	if _, ok := r.nodes[0].Get(keyWithReplicas(t, r.nodes[0], 1), make([]byte, testBlock)); ok {
		t.Fatal("cold peer returned a hit")
	}
}

func TestGetSkipsSelfHomedBlocks(t *testing.T) {
	r := newRig(t, 2)
	key := keyWithReplicas(t, r.nodes[0], 0)
	r.bufs[0].InsertClean(key, 0, make([]byte, testBlock))
	// Node 0 is the primary: Get must not loop back to itself.
	if _, ok := r.nodes[0].Get(key, make([]byte, testBlock)); ok {
		t.Fatal("self-homed get should report false")
	}
}

func TestPushLandsAtPrimary(t *testing.T) {
	r := newRig(t, 2)
	key := keyWithReplicas(t, r.nodes[0], 1)
	data := bytes.Repeat([]byte{0x5A}, testBlock)
	r.nodes[0].Push(key, 3, data)

	deadline := time.Now().Add(2 * time.Second)
	for !r.bufs[1].Contains(key, 0, testBlock) {
		if time.Now().After(deadline) {
			t.Fatal("push never arrived at the primary")
		}
		time.Sleep(time.Millisecond)
	}
	dst := make([]byte, testBlock)
	r.bufs[1].ReadSpan(key, 0, dst)
	if !bytes.Equal(dst, data) {
		t.Fatal("pushed data corrupt")
	}
}

func TestPushToSelfIgnored(t *testing.T) {
	r := newRig(t, 2)
	key := keyWithReplicas(t, r.nodes[0], 0)
	r.nodes[0].Push(key, 0, make([]byte, testBlock))
	time.Sleep(20 * time.Millisecond)
	if r.bufs[0].Contains(key, 0, testBlock) {
		t.Fatal("self push inserted a block")
	}
}

// TestFailoverToReplica kills the primary's service and checks a read
// fails over to the secondary replica that holds the block, counting the
// hop in membership.failovers.
func TestFailoverToReplica(t *testing.T) {
	r := newRig(t, 3)
	key := keyWithReplicas(t, r.nodes[0], 1, 2)
	data := bytes.Repeat([]byte{0xC3}, testBlock)
	r.bufs[2].InsertClean(key, 0, data)

	r.nodes[1].KillService()

	got := make([]byte, testBlock)
	n, ok := r.nodes[0].Get(key, got)
	if !ok {
		t.Fatal("get did not fail over to the replica")
	}
	if n != testBlock || !bytes.Equal(got, data) {
		t.Fatal("failover served wrong data")
	}
	if r.regs[0].Counter("membership.failovers").Value() == 0 {
		t.Fatal("failover not counted")
	}
}

// TestDeadPeerDegradesInBoundedTime is the regression test for the
// unbounded-hang bug: a blackholed peer (accepts, never answers) must
// cost at most the fetch timeout per replica, not an indefinite hang.
func TestDeadPeerDegradesInBoundedTime(t *testing.T) {
	net := transport.NewMem()
	// A blackhole listener stands in for member 1: accepts and holds.
	bl, err := net.Listen("blackhole")
	if err != nil {
		t.Fatal(err)
	}
	defer bl.Close()
	var held []transport.Conn
	var mu sync.Mutex
	go func() {
		for {
			c, err := bl.Accept()
			if err != nil {
				return
			}
			mu.Lock()
			held = append(held, c)
			mu.Unlock()
		}
	}()
	defer func() {
		mu.Lock()
		defer mu.Unlock()
		for _, c := range held {
			c.Close()
		}
	}()

	fakeMgr(t, net, "mgr", nil).Join(1, "blackhole")
	n := startNode(t, net, 0, buffer.New(buffer.Config{BlockSize: testBlock, Capacity: 8}), nil)

	key := keyWithReplicas(t, n, 1)
	start := time.Now()
	if _, ok := n.Get(key, make([]byte, testBlock)); ok {
		t.Fatal("blackholed peer returned a hit")
	}
	if d := time.Since(start); d > 2*time.Second {
		t.Fatalf("get against a hung peer took %v, want ~the %v fetch timeout", d, fetchTimeout)
	}
}

func TestStartRejectsBadOptions(t *testing.T) {
	net := transport.NewMem()
	buf := buffer.New(buffer.Config{BlockSize: testBlock, Capacity: 8})
	l, err := net.Listen("x")
	if err != nil {
		t.Fatal(err)
	}
	defer l.Close()
	if _, err := Start(Options{}, buf, l, net, nil); err == nil {
		t.Fatal("a node without a mgr started")
	}
	if _, err := Start(Options{MgrAddr: "no-mgr"}, buf, l, net, nil); err == nil {
		t.Fatal("a node whose mgr has no listener started")
	}
}

// TestOversizedPeerPutRejected checks a hostile PeerPut larger than the
// block size gets a bad-request ack instead of panicking the node.
func TestOversizedPeerPutRejected(t *testing.T) {
	r := newRig(t, 2)
	c := rpc.NewClient(rpc.ClientConfig{Network: r.net, Addr: r.nodes[1].l.Addr()})
	defer c.Close()
	res := c.Call(&wire.PeerPut{File: 1, Index: 0, Data: make([]byte, 2*testBlock)})
	if res.Err != nil {
		t.Fatal(res.Err)
	}
	ack, ok := res.Msg.(*wire.PeerPutAck)
	if !ok || ack.Status != wire.StatusBadRequest {
		t.Fatalf("oversized put got %+v", res.Msg)
	}
}

// fakeMgr answers the membership view protocol from a Tracker — the mgr
// side of the global cache without booting a cluster. A non-nil
// answerViews decides per ViewGet whether the view is served; a refused
// one fails like a dead mgr, so no refresh of any node can move its view.
func fakeMgr(t *testing.T, net transport.Network, addr string, answerViews func() bool) *membership.Tracker {
	t.Helper()
	tr := membership.NewTracker(nil)
	l, err := net.Listen(addr)
	if err != nil {
		t.Fatal(err)
	}
	s := rpc.NewServer(rpc.HandlerFunc(func(m wire.Message) wire.Message {
		switch m := m.(type) {
		case *wire.ViewGet:
			if answerViews != nil && !answerViews() {
				return &wire.ViewResp{Status: wire.StatusDraining}
			}
			return membership.ViewToResp(tr.View())
		case *wire.JoinView:
			return membership.ViewToResp(tr.Join(m.ID, m.Addr))
		case *wire.LeaveView:
			return membership.ViewToResp(tr.Leave(m.ID))
		default:
			return nil
		}
	}), rpc.ServerConfig{})
	go s.Serve(l)
	t.Cleanup(func() { l.Close(); s.Close() })
	return tr
}

// TestDynamicJoinAndStaleEpochConvergence boots two nodes against a fake
// mgr that serves a view only once node A has answered a stale epoch,
// and only until A's periodic refresh could first fire (refreshPeriod
// after A started). So the periodic refresh cannot move A, and only the
// stale-epoch protocol can reconcile the views: node A joins at epoch 1,
// node B's join bumps to epoch 2, and A learns of it when B's first
// fetch hits A with a newer epoch.
func TestDynamicJoinAndStaleEpochConvergence(t *testing.T) {
	net := transport.NewMem()
	aReg := metrics.NewRegistry()
	aStart := time.Now()
	fakeMgr(t, net, "mgr", func() bool {
		return aReg.Counter("membership.stale_epochs").Value() > 0 && time.Since(aStart) < refreshPeriod
	})
	newBuf := func() *buffer.Manager { return buffer.New(buffer.Config{BlockSize: testBlock, Capacity: 16}) }

	a := startNode(t, net, 0, newBuf(), aReg)
	if got := a.Ring().Epoch(); got != 1 {
		t.Fatalf("first joiner sees epoch %d, want 1", got)
	}
	b := startNode(t, net, 1, newBuf(), metrics.NewRegistry())
	if got := b.Ring().Epoch(); got != 2 {
		t.Fatalf("second joiner sees epoch %d, want 2", got)
	}

	// B routes a get to A carrying epoch 2; A (still at 1) must answer
	// StaleEpoch and refresh itself.
	key := keyWithReplicas(t, b, 0) // primary = member index 0 (node A) in B's ring
	if _, ok := b.Get(key, make([]byte, testBlock)); ok {
		t.Fatal("unexpected hit")
	}
	deadline := time.Now().Add(5 * time.Second)
	for a.Ring().Epoch() != 2 {
		if time.Now().After(deadline) {
			t.Fatalf("node A never converged (epoch %d, stale_epochs=%d)",
				a.Ring().Epoch(), aReg.Counter("membership.stale_epochs").Value())
		}
		time.Sleep(time.Millisecond)
	}
	if aReg.Counter("membership.stale_epochs").Value() == 0 {
		t.Fatal("stale-epoch path never engaged")
	}

	// With views converged, traffic flows: B caches a block homed at A,
	// pushes it, and A-homed gets hit.
	data := bytes.Repeat([]byte{0x7E}, testBlock)
	b.Push(key, 0, data)
	got := make([]byte, testBlock)
	deadline = time.Now().Add(5 * time.Second)
	for {
		if n, ok := b.Get(key, got); ok && n == testBlock && bytes.Equal(got, data) {
			break
		}
		if time.Now().After(deadline) {
			t.Fatal("pushed block never became fetchable after convergence")
		}
		time.Sleep(time.Millisecond)
	}
}
