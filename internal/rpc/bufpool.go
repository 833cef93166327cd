package rpc

import "sync"

// defaultBufCap bounds the capacity of buffers a BufPool retains (1 MB),
// so one oversized response cannot pin memory forever.
const defaultBufCap = 1 << 20

// BufPool recycles response payload buffers. Servers that build responses
// around large byte slices (iod reads, global-cache blocks) take buffers
// from a BufPool in their handler and return them from the Server's
// AfterWrite hook once the frame encoder is done with them.
//
// Buffers travel in *[]byte holders, and the holders are recycled through
// a pool of their own, so in steady state neither Get nor Put allocates
// (boxing a slice header for sync.Pool would cost one allocation a Put).
//
// The zero value is ready to use.
type BufPool struct {
	// MaxCap overrides the retained-capacity bound (default 1 MB).
	MaxCap  int
	pool    sync.Pool // *[]byte holding a buffer
	holders sync.Pool // empty *[]byte, for the next Put
}

// Get returns an n-byte buffer, reusing a pooled one when large enough.
func (p *BufPool) Get(n int) []byte {
	if h, ok := p.pool.Get().(*[]byte); ok {
		b := *h
		*h = nil
		p.holders.Put(h)
		if cap(b) >= n {
			return b[:n]
		}
	}
	return make([]byte, n)
}

// Put returns a buffer for reuse. Nil and oversized buffers are dropped.
func (p *BufPool) Put(b []byte) {
	max := p.MaxCap
	if max <= 0 {
		max = defaultBufCap
	}
	if b == nil || cap(b) > max {
		return
	}
	h, _ := p.holders.Get().(*[]byte)
	if h == nil {
		h = new([]byte)
	}
	*h = b[:0]
	p.pool.Put(h)
}
