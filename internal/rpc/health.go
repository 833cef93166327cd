package rpc

import (
	"errors"
	"sync/atomic"
	"time"
)

// Health errors. Both are retryable by design: ErrPeerEjected means the
// breaker is open and the caller should route around the peer (the
// global-cache client fails over to the next replica); ErrCallTimeout
// means one round trip exceeded ClientConfig.CallTimeout and the
// connection it rode was torn down, so the next call re-dials.
var (
	ErrPeerEjected  = errors.New("rpc: peer ejected by health checker")
	ErrCallTimeout  = errors.New("rpc: call timed out")
	errProbeStopped = errors.New("rpc: probe stopped")
)

// The breaker's fixed settings, the global cache's (its only user): three
// failures in a row tell a dead peer from one lost connection, and a
// 100 ms re-dial readmits a revived peer within about one fetch timeout.
const (
	failThreshold = 3
	probeInterval = 100 * time.Millisecond
)

// HealthConfig turns on per-peer circuit breaking for a Client. After
// failThreshold consecutive connection-level failures the peer is
// ejected: every call fails fast with ErrPeerEjected instead of paying a
// dial or timeout, while a background prober re-dials the peer every
// probeInterval and readmits it on the first successful dial.
//
// A probe only proves the peer accepts connections — a half-dead peer
// that accepts but never answers will be readmitted and re-ejected after
// another failThreshold timeouts. That oscillation is bounded by
// probeInterval and is the cost of keeping probes protocol-free.
type HealthConfig struct {
	// OnEject, OnReadmit, and OnProbe are observability hooks (metrics
	// counters). They may be invoked from request goroutines and from the
	// prober and must not call back into the Client.
	OnEject   func()
	OnReadmit func()
	OnProbe   func()
}

// health is the breaker state embedded in Client.
type health struct {
	consecFails atomic.Int32
	ejected     atomic.Bool
}

// Ejected reports whether the health checker currently has the peer
// ejected (always false without a HealthConfig).
func (c *Client) Ejected() bool { return c.hs.ejected.Load() }

// noteSuccess records a completed round trip: the failure streak resets.
func (c *Client) noteSuccess() {
	if c.cfg.Health == nil {
		return
	}
	c.hs.consecFails.Store(0)
}

// noteFailure records a connection-level failure and opens the breaker at
// the threshold. Failures that say nothing about the peer's health — an
// encode-side ErrTooLarge never reaches the wire, ErrClosed is our own
// shutdown — must not be counted; callers filter them.
func (c *Client) noteFailure() {
	h := c.cfg.Health
	if h == nil {
		return
	}
	n := c.hs.consecFails.Add(1)
	if n >= failThreshold && c.hs.ejected.CompareAndSwap(false, true) {
		if h.OnEject != nil {
			h.OnEject()
		}
		go c.probeLoop()
	}
}

// probeLoop re-dials the ejected peer until a dial succeeds (readmit) or
// the client closes. One loop runs per ejection; CompareAndSwap in
// noteFailure guarantees that.
func (c *Client) probeLoop() {
	h := c.cfg.Health
	ticker := time.NewTicker(probeInterval)
	defer ticker.Stop()
	for {
		select {
		case <-c.stop:
			return
		case <-ticker.C:
		}
		if h.OnProbe != nil {
			h.OnProbe()
		}
		conn, err := c.cfg.Network.Dial(c.cfg.Addr)
		if err != nil {
			continue
		}
		conn.Close()
		c.hs.consecFails.Store(0)
		c.hs.ejected.Store(false)
		if h.OnReadmit != nil {
			h.OnReadmit()
		}
		return
	}
}
