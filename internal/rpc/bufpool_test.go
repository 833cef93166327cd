//go:build !race

// sync.Pool drops items at random under the race detector, so the pin
// only holds without it.

package rpc

import "testing"

// TestBufPoolSteadyStateAllocFree: a Get/Put cycle recycles the buffer and
// its holder, so neither allocates once the pool is warm.
func TestBufPoolSteadyStateAllocFree(t *testing.T) {
	var pool BufPool
	pool.Put(make([]byte, 64<<10))
	if n := testing.AllocsPerRun(1000, func() { pool.Put(pool.Get(64 << 10)) }); n != 0 {
		t.Fatalf("Get+Put allocates %v times in steady state, want 0", n)
	}
}
