// Package chaos injects seeded faults into the transport seam and judges
// the survivors: a Controller wraps any transport.Network (in-memory or
// TCP) with connection kill, directional partition, brownout latency,
// short writes and crash hooks; an Oracle extends the byte-for-byte
// consistency check with bounded-error accounting for ops in flight at
// fault time; and the harness (harness.go) runs internal/workload
// scenarios against a live cluster under a seeded fault plan, recording
// a replayable trace of every run.
package chaos

import (
	"encoding/binary"
	"errors"
	"fmt"
	"sync"
	"time"

	"pvfscache/internal/transport"
	"pvfscache/internal/wire"
)

// ErrInjected marks every error the fault layer originates, so tests can
// tell injected failures from real bugs.
var ErrInjected = errors.New("chaos: injected fault")

// Controller wraps one underlying Network with fault state shared by all
// of its views. Faults act on the dialer side only: a labeled View's
// dials and the writes of the connections they return pass through the
// fault rules, while listeners and accepted connections stay raw. That
// one-sided design still kills both directions of a connection (closing
// the dial side tears down the peer on TCP and the in-memory pipe alike)
// and is what lets the same Controller serve MemNetwork and TCP without
// either knowing.
type Controller struct {
	under transport.Network

	mu    sync.Mutex
	cond  *sync.Cond // broadcast on every rule change: wakes blackholed writers
	cut   map[string]bool
	drop  map[string]map[string]bool // origin -> addr -> blackhole
	slow  map[string]time.Duration   // addr -> per-write delay
	arms  map[string]*shortArm       // addr -> armed short write
	conns map[*faultConn]struct{}
}

type shortArm struct {
	typ   wire.Type
	count int
	hook  func()
}

// NewController wraps a network.
func NewController(under transport.Network) *Controller {
	c := &Controller{
		under: under,
		cut:   make(map[string]bool),
		drop:  make(map[string]map[string]bool),
		slow:  make(map[string]time.Duration),
		arms:  make(map[string]*shortArm),
		conns: make(map[*faultConn]struct{}),
	}
	c.cond = sync.NewCond(&c.mu)
	return c
}

// View returns a Network whose dials carry the given origin label.
// Partition rules select traffic by (origin, dialed addr); every view
// shares the controller's fault state and underlying network.
func (c *Controller) View(origin string) transport.Network {
	return &view{ctl: c, origin: origin}
}

type view struct {
	ctl    *Controller
	origin string
}

func (v *view) Listen(addr string) (transport.Listener, error) {
	return v.ctl.under.Listen(addr)
}

func (v *view) Dial(addr string) (transport.Conn, error) {
	c := v.ctl
	c.mu.Lock()
	refused := c.cut[addr]
	c.mu.Unlock()
	if refused {
		return nil, fmt.Errorf("%w: dial %s refused (cut)", ErrInjected, addr)
	}
	raw, err := c.under.Dial(addr)
	if err != nil {
		return nil, err
	}
	fc := &faultConn{ctl: c, origin: v.origin, addr: addr, raw: raw}
	c.mu.Lock()
	c.conns[fc] = struct{}{}
	c.mu.Unlock()
	return fc, nil
}

// Cut fail-stops an address: new dials are refused and every existing
// connection to it (from any view) is killed. Restore undoes it; the rpc
// layer's redial-on-next-call then recovers automatically.
func (c *Controller) Cut(addrs ...string) {
	c.mu.Lock()
	var victims []*faultConn
	for _, a := range addrs {
		c.cut[a] = true
		for fc := range c.conns {
			if fc.addr == a {
				victims = append(victims, fc)
			}
		}
	}
	c.cond.Broadcast()
	c.mu.Unlock()
	for _, fc := range victims {
		fc.kill()
	}
}

// Restore lifts a Cut.
func (c *Controller) Restore(addrs ...string) {
	c.mu.Lock()
	for _, a := range addrs {
		delete(c.cut, a)
	}
	c.cond.Broadcast()
	c.mu.Unlock()
}

// Partition blackholes traffic from the given origins to the given
// addresses: writes on matching connections block (like frames dropped
// under TCP retransmission) until Heal, so no errors surface — just
// stalls. Directional: only origin→addr traffic is affected.
func (c *Controller) Partition(origins, addrs []string) {
	c.mu.Lock()
	for _, o := range origins {
		m := c.drop[o]
		if m == nil {
			m = make(map[string]bool)
			c.drop[o] = m
		}
		for _, a := range addrs {
			m[a] = true
		}
	}
	c.cond.Broadcast()
	c.mu.Unlock()
}

// Brownout delays every write to the given addresses by d — the
// slow-node fault.
func (c *Controller) Brownout(d time.Duration, addrs ...string) {
	c.mu.Lock()
	for _, a := range addrs {
		c.slow[a] = d
	}
	c.mu.Unlock()
}

// Heal clears all partition and brownout rules and wakes blocked
// writers. Cuts are not healed — use Restore.
func (c *Controller) Heal() {
	c.mu.Lock()
	c.drop = make(map[string]map[string]bool)
	c.slow = make(map[string]time.Duration)
	c.cond.Broadcast()
	c.mu.Unlock()
}

// KillConns abruptly closes every connection dialed to the given
// addresses without refusing future dials — the transient connection
// loss fault.
func (c *Controller) KillConns(addrs ...string) {
	set := make(map[string]bool, len(addrs))
	for _, a := range addrs {
		set[a] = true
	}
	c.mu.Lock()
	var victims []*faultConn
	for fc := range c.conns {
		if set[fc.addr] {
			victims = append(victims, fc)
		}
	}
	c.mu.Unlock()
	for _, fc := range victims {
		fc.kill()
	}
}

// ArmShortWrite arms a one-shot fault on an address: the (after+1)-th
// frame of type typ written to it delivers only half of the write that
// starts it, fires hook, and kills the connection. Frames of other types
// pass whole and are not counted. Arming wire.TFlush at an iod and
// cutting the daemon from the hook is the "iod crashes mid-flush"
// scenario: the stream sees a torn frame exactly as a crashed peer would
// leave it, while the reads sharing the address pass. Disarm cancels a
// pending arm.
func (c *Controller) ArmShortWrite(addr string, typ wire.Type, after int, hook func()) {
	c.mu.Lock()
	c.arms[addr] = &shortArm{typ: typ, count: after + 1, hook: hook}
	c.mu.Unlock()
}

// Disarm cancels a pending ArmShortWrite; it reports whether the arm was
// still pending.
func (c *Controller) Disarm(addr string) bool {
	c.mu.Lock()
	_, ok := c.arms[addr]
	delete(c.arms, addr)
	c.mu.Unlock()
	return ok
}

// faultConn is the dial-side wrapper applying the controller's rules.
type faultConn struct {
	ctl    *Controller
	origin string
	addr   string
	raw    transport.Conn

	// frameRem is how many bytes of the frame being written are still to
	// come (c.mu held); a write that finds it 0 starts a frame.
	frameRem int

	killMu sync.Mutex
	killed bool
}

func (fc *faultConn) Read(p []byte) (int, error) { return fc.raw.Read(p) }

func (fc *faultConn) Write(p []byte) (int, error) {
	c := fc.ctl
	c.mu.Lock()
	for c.blackholedLocked(fc.origin, fc.addr) && !c.cut[fc.addr] && !fc.isKilled() {
		c.cond.Wait()
	}
	if c.cut[fc.addr] || fc.isKilled() {
		c.mu.Unlock()
		return 0, fmt.Errorf("%w: write to %s (connection killed)", ErrInjected, fc.addr)
	}
	delay := c.slow[fc.addr]
	var fire *shortArm
	if typ, starts := fc.nextFrame(p); starts {
		if arm := c.arms[fc.addr]; arm != nil && arm.typ == typ {
			arm.count--
			if arm.count <= 0 {
				delete(c.arms, fc.addr)
				fire = arm
			}
		}
	}
	c.mu.Unlock()

	if delay > 0 {
		time.Sleep(delay)
	}
	if fire != nil {
		n, _ := fc.raw.Write(p[:len(p)/2])
		if fire.hook != nil {
			fire.hook()
		}
		fc.kill()
		return n, fmt.Errorf("%w: short write to %s (%d of %d bytes, peer crashed)",
			ErrInjected, fc.addr, n, len(p))
	}
	return fc.raw.Write(p)
}

// nextFrame accounts p against the frame being written (c.mu held) and
// reports the type of the frame p starts, if it starts one. The write
// that starts a frame carries at least its length word and type, as
// wire.WriteTagged's writes do; the rest of the frame may follow in
// further writes.
func (fc *faultConn) nextFrame(p []byte) (typ wire.Type, starts bool) {
	if fc.frameRem == 0 && len(p) >= 6 {
		fc.frameRem = 4 + int(binary.BigEndian.Uint32(p)&^(1<<31))
		typ, starts = wire.Type(binary.BigEndian.Uint16(p[4:])), true
	}
	fc.frameRem = max(fc.frameRem-len(p), 0)
	return typ, starts
}

func (fc *faultConn) Close() error { return fc.kill() }

// kill tears the connection down in both directions and unblocks any
// writer parked in a blackhole. The killed flag is set before the
// broadcast so a woken writer's re-check observes it.
func (fc *faultConn) kill() error {
	err := fc.kill0()
	fc.ctl.mu.Lock()
	delete(fc.ctl.conns, fc)
	fc.ctl.cond.Broadcast()
	fc.ctl.mu.Unlock()
	return err
}

func (fc *faultConn) kill0() error {
	fc.killMu.Lock()
	already := fc.killed
	fc.killed = true
	fc.killMu.Unlock()
	if already {
		return nil
	}
	return fc.raw.Close()
}

func (fc *faultConn) isKilled() bool {
	fc.killMu.Lock()
	defer fc.killMu.Unlock()
	return fc.killed
}

func (c *Controller) blackholedLocked(origin, addr string) bool {
	if m := c.drop[origin]; m != nil && m[addr] {
		return true
	}
	return false
}
