package rpc

import (
	"sync"
	"sync/atomic"

	"pvfscache/internal/wire"
)

// Lease owns one pooled frame buffer whose bytes a zero-copy-decoded
// message's payload fields alias (see wire.ReadFrameAliased). Whoever ends
// up holding the last alias must call Result.Release exactly when that
// alias dies; the buffer then returns to the frame pool for the next
// request. Releasing early is the failure mode zero-copy introduces — a
// recycled buffer would be overwritten under a live alias — so debug
// builds can enable poison-on-release (SetLeasePoison) to make any such
// bug read an unmistakable pattern instead of stale-but-plausible bytes.
//
// Leases are pooled too. A lease is handed out under a generation, which
// its Result carries, and releasing moves the generation on: only the
// first release of a Result, or of any copy of it, recycles anything, and
// a Result whose lease has since been recycled for another response
// releases nothing.
type Lease struct {
	buf []byte
	gen atomic.Uint64
}

var leases = sync.Pool{New: func() any { return new(Lease) }}

// newLease wraps a payload buffer from wire.ReadFrameAliased and returns
// it with its current generation; nil buffers (no alias retained) yield a
// nil lease, whose release is a no-op.
func newLease(buf []byte) (*Lease, uint64) {
	if buf == nil {
		return nil, 0
	}
	l := leases.Get().(*Lease)
	l.buf = buf
	return l, l.gen.Load()
}

// release returns the leased frame buffer to the pool, and the lease to
// its own, if gen is still the lease's generation. It is nil-safe; after
// the first call for a generation every alias into the buffer is dead.
func (l *Lease) release(gen uint64) {
	if l == nil || !l.gen.CompareAndSwap(gen, gen+1) {
		return
	}
	buf := l.buf
	l.buf = nil
	leases.Put(l)
	wire.ReleasePayload(buf)
}

// SetLeasePoison toggles the lease protocol's debug mode: every released
// frame buffer is overwritten with wire.PoisonByte before recycling, so a
// payload alias used after its lease was released reads poison (and the
// race detector flags the concurrent reuse). Tests enable it around
// zero-copy lifetime storms.
func SetLeasePoison(on bool) { wire.SetPoisonReleased(on) }
