package cluster

// End-to-end consistency oracle: a randomized mixed read/write/flush
// workload runs against the live cluster while an in-memory reference
// image of the file is maintained alongside. Every read is checked
// byte-for-byte against the reference, and after a final flush the file is
// re-read through a direct (uncached) client to prove the bytes the iods
// hold equal the reference too. The same seeded workload runs with the
// single-mutex ablation (Module.Buffer.Shards=1) and the lock-striped manager:
// sharding is a locking change, so the two runs must be externally
// indistinguishable — identical bytes at every step.

import (
	"bytes"
	"fmt"
	"math/rand"
	"testing"
	"time"

	"pvfscache/internal/cachemod"
	"pvfscache/internal/cachemod/buffer"
	"pvfscache/internal/pvfs"
	"pvfscache/internal/testseed"
)

const (
	oracleFileSize = 1 << 20 // 1 MB reference image
	oracleOps      = 400
	oracleMaxIO    = 48 << 10 // up to 48 KB per operation (unaligned)
)

// runConsistencyOracle drives the seeded workload against a cluster with
// the given shard count and returns the final durable file image as read
// back through an uncached client.
func runConsistencyOracle(t *testing.T, shards int, seed int64) []byte {
	return runConsistencyOracleCfg(t, shards, seed, nil)
}

// runConsistencyOracleCfg is runConsistencyOracle with a config hook, so
// the same seeded workload can judge alternative cluster shapes (the
// disk backend, notably) byte-for-byte.
func runConsistencyOracleCfg(t *testing.T, shards int, seed int64, edit func(*Config)) []byte {
	t.Helper()
	cfg := Config{
		IODs:        3, // odd iod count exercises uneven striping
		ClientNodes: 1,
		Caching:     true,
		CacheBlocks: 48, // 192 KB cache against a 1 MB file: heavy eviction
		Module:      cachemod.Config{Buffer: buffer.Config{Shards: shards}},
		FlushPeriod: 5 * time.Millisecond,
	}
	if edit != nil {
		edit(&cfg)
	}
	c := startTest(t, cfg)
	p, err := c.NewProcess(0)
	if err != nil {
		t.Fatal(err)
	}
	defer p.Close()
	name := fmt.Sprintf("oracle-%d.dat", shards)
	f, err := p.Create(name, pvfs.StripeSpec{SSize: 16 << 10})
	if err != nil {
		t.Fatal(err)
	}

	// Pre-size the file with a zero image so random reads never cross EOF;
	// the reference starts as the same zeros.
	ref := make([]byte, oracleFileSize)
	if n, err := f.WriteAt(ref, 0); err != nil || n != oracleFileSize {
		t.Fatalf("pre-size write: n=%d err=%v", n, err)
	}
	rng := rand.New(rand.NewSource(seed))
	scratch := make([]byte, oracleMaxIO)
	for i := 0; i < oracleOps; i++ {
		off := int64(rng.Intn(oracleFileSize - 1))
		length := 1 + rng.Intn(oracleMaxIO)
		if off+int64(length) > oracleFileSize {
			length = int(oracleFileSize - off)
		}
		switch op := rng.Intn(10); {
		case op < 5: // write random bytes, mirrored into the reference
			data := scratch[:length]
			rng.Read(data)
			if n, err := f.WriteAt(data, off); err != nil || n != length {
				t.Fatalf("op %d: write n=%d err=%v", i, n, err)
			}
			copy(ref[off:], data)
		case op < 9: // read and compare byte-for-byte (unwritten bytes are zero)
			got := scratch[:length]
			if n, err := f.ReadAt(got, off); err != nil || n != length {
				t.Fatalf("op %d: read n=%d err=%v", i, n, err)
			}
			if !bytes.Equal(got, ref[off:off+int64(length)]) {
				t.Fatalf("op %d: read at %d+%d diverged from reference (shards=%d)",
					i, off, length, shards)
			}
		default: // flush everything dirty to the iods mid-workload
			if err := c.Module(0).FlushAll(); err != nil {
				t.Fatalf("op %d: flush: %v", i, err)
			}
		}
	}
	if err := c.Module(0).FlushAll(); err != nil {
		t.Fatal(err)
	}

	// Read the durable image back through a direct client — no cache
	// module in the path, so these are the bytes the iods actually hold.
	direct, err := pvfs.NewClient(pvfs.Config{
		Network:  c.Network,
		MgrAddr:  c.MgrAddr,
		IODAddrs: c.IODDataAddrs,
		ClientID: 999,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer direct.Close()
	df, err := direct.Open(name)
	if err != nil {
		t.Fatal(err)
	}
	final := make([]byte, oracleFileSize)
	if _, err := df.ReadAt(final, 0); err != nil {
		t.Fatalf("direct read-back: %v", err)
	}
	if !bytes.Equal(final, ref) {
		t.Fatalf("durable image diverged from reference (shards=%d)", shards)
	}
	return final
}

func TestConsistencyOracleShardedMatchesSingleShard(t *testing.T) {
	seed := testseed.Base(t)
	single := runConsistencyOracle(t, 1, seed)
	sharded := runConsistencyOracle(t, 8, seed)
	if !bytes.Equal(single, sharded) {
		t.Fatal("sharded and single-shard runs produced different bytes")
	}
}
