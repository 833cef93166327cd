package rpc

import (
	"testing"
	"time"

	"pvfscache/internal/transport"
	"pvfscache/internal/wire"
)

// benchServer answers reads after a simulated 100 µs service time (disk or
// remote-peer latency), which is what makes request overlap matter: the
// multiplexed pool overlaps the waits of concurrent callers.
func benchServer(b *testing.B, net transport.Network) string {
	b.Helper()
	l, err := net.Listen(":0")
	if err != nil {
		b.Fatal(err)
	}
	h := HandlerFunc(func(m wire.Message) wire.Message {
		if _, ok := m.(*wire.Read); !ok {
			return nil
		}
		time.Sleep(100 * time.Microsecond)
		return &wire.ReadResp{Status: wire.StatusOK, Data: make([]byte, 4096)}
	})
	s := NewServer(h, ServerConfig{Concurrency: 16})
	go s.Serve(l)
	b.Cleanup(func() { l.Close(); s.Close() })
	return l.Addr()
}

func benchCalls(b *testing.B, c *Client) {
	b.Helper()
	b.SetParallelism(8)
	b.ResetTimer()
	b.RunParallel(func(pb *testing.PB) {
		for pb.Next() {
			res := c.Call(&wire.Read{Offset: 0, Length: 4096})
			if res.Err != nil {
				b.Error(res.Err)
				return
			}
			res.Release()
		}
	})
}

// BenchmarkMultiplexedPool: tagged requests over a small pool complete
// out of order, so concurrent callers overlap their service times.
func BenchmarkMultiplexedPool(b *testing.B) {
	net := transport.NewMem()
	addr := benchServer(b, net)
	c := NewClient(ClientConfig{Network: net, Addr: addr, Conns: 2})
	defer c.Close()
	benchCalls(b, c)
}
