package main

import (
	"math/rand"
	"time"

	"pvfscache/internal/cluster"
	"pvfscache/internal/microbench"
)

// clients is fixed: two application processes on one node, each issuing its
// next call only when the previous one returned. The sandbox has two
// cores; more clients would measure the scheduler.
const clients = 2

// op is one file-system call a generator asks for: a whole slot (an
// op-sized, op-aligned unit) of one file.
type op struct {
	file, slot int
	write      bool
}

// spec describes one workload. The program under test sees only the calls
// the generators produce and the payloads fillSlot makes from the seed.
type spec struct {
	name    string
	why     string
	cluster cluster.Config
	opSize  int
	files   []fileSpec
	// warmOps is the number of ops each client issues, unmeasured, after
	// seeding. A count and not a duration, so set-up time moves when the
	// system's speed does.
	warmOps int
	// gen returns client c's op generator.
	gen func(seed int64, c int) func() op
	// drain: the clock stops only after every dirty block has reached the
	// iods and every backend has synced.
	drain bool
	// restartCheck: restart every iod after the run and read everything
	// back from what the disk engine recovers.
	restartCheck bool
}

type fileSpec struct {
	name string
	size int64
}

func (s *spec) slots(file int) int { return int(s.files[file].size / int64(s.opSize)) }

// base is common to every workload: 4 iods on the in-memory fabric, one
// client node, the cache module on.
func base(cfg cluster.Config) cluster.Config {
	cfg.IODs = 4
	cfg.ClientNodes = 1
	cfg.Caching = true
	return cfg
}

func specs() []*spec {
	return []*spec{hitShared(), scanMiss(), zipfRW(), writeDrainDisk()}
}

func specByName(name string) *spec {
	for _, s := range specs() {
		if s.name == name {
			return s
		}
	}
	return nil
}

// hitShared: both instances read the same 8 MB file at uniform-random
// slots; the 16 MB cache holds all of it.
func hitShared() *spec {
	s := &spec{
		name:    "hit_shared",
		why:     "two instances re-read one cached 8 MB file at 16 KB: pvfs, cachemod and buffer do all the work, rpc and iod none",
		cluster: base(cluster.Config{CacheBlocks: 4096}),
		opSize:  16 << 10,
		files:   []fileSpec{{"hit/shared.dat", 8 << 20}},
		warmOps: 50_000,
	}
	s.gen = func(seed int64, c int) func() op {
		rnd := rand.New(rand.NewSource(seed*1_000_003 + int64(c)))
		n := s.slots(0)
		return func() op { return op{slot: rnd.Intn(n)} }
	}
	return s
}

// scanMiss: the paper's §4.1 micro-benchmark, two instances on one node,
// half of the requests to the file they share, no locality, through the
// paper's 1.2 MB cache. The streams are looped for as long as the run
// lasts.
func scanMiss() *spec {
	p := microbench.Params{
		Instances:   clients,
		Nodes:       1,
		RequestSize: 64 << 10,
		TotalBytes:  64 << 20,
		Read:        true,
		Locality:    0,
		Sharing:     0.5,
		FileSize:    32 << 20,
	}
	names := []string{microbench.SharedFile, microbench.PrivateFile(0), microbench.PrivateFile(1)}
	s := &spec{
		name:    "scan_miss",
		why:     "the paper's micro-benchmark at 64 KB through a 1.2 MB cache: nearly every block is fetched, so rpc, wire, iod and storage dominate",
		cluster: base(cluster.Config{}),
		opSize:  int(p.RequestSize),
		warmOps: 512,
	}
	index := make(map[string]int)
	for i, n := range names {
		index[n] = i
		s.files = append(s.files, fileSpec{n, p.FileSize})
	}
	s.gen = func(seed int64, c int) func() op {
		p := p
		p.Seed = seed
		stream := p.Stream(c, 0)
		i := 0
		return func() op {
			r := stream[i%len(stream)]
			i++
			return op{file: index[r.File], slot: int(r.Offset / p.RequestSize)}
		}
	}
	return s
}

// zipfRW: 70% reads zipf(1.1) over the whole 64 MB file, 30% write-behind
// writes zipf(1.1) inside the client's own half, through a cache of 1/16
// of the data. Ranks are scattered over the file by an odd multiplier, so
// hot slots are not neighbours and the readahead stays out of it.
func zipfRW() *spec {
	s := &spec{
		name:    "zipf_rw",
		why:     "skewed 70/30 read/write mix over 16x the cache: dirty list, eviction of dirty frames and the background flush compete with demand misses",
		cluster: base(cluster.Config{CacheBlocks: 1024, FlushPeriod: 100 * time.Millisecond}),
		opSize:  16 << 10,
		files:   []fileSpec{{"zipf/data.dat", 64 << 20}},
		warmOps: 20_000,
	}
	s.gen = func(seed int64, c int) func() op {
		rnd := rand.New(rand.NewSource(seed*1_000_003 + int64(c)))
		n := uint64(s.slots(0))
		half := n / clients
		reads := rand.NewZipf(rnd, 1.1, 1, n-1)
		writes := rand.NewZipf(rnd, 1.1, 1, half-1)
		return func() op {
			if rnd.Float64() < 0.7 {
				return op{slot: int(reads.Uint64() * 2654435761 % n)}
			}
			return op{slot: int(uint64(c)*half + writes.Uint64()*40503%half), write: true}
		}
	}
	return s
}

// writeDrainDisk: each client writes sequentially, wrapping, over its own
// 64 MB half of the file into WAL-backed iods. The 4 MB cache fills at
// once, so the sustained rate is the drain rate. Fsync policy "onclose",
// stated and fixed.
func writeDrainDisk() *spec {
	s := &spec{
		name:         "write_drain_disk",
		why:          "sequential 64 KB writes into disk-backed iods: flusher streams, iod flush port and the journal + checkpoint engine set the rate",
		cluster:      base(cluster.Config{CacheBlocks: 1024, Backend: "disk", Fsync: "onclose"}),
		opSize:       64 << 10,
		files:        []fileSpec{{"drain/data.dat", 128 << 20}},
		warmOps:      256,
		drain:        true,
		restartCheck: true,
	}
	s.gen = func(seed int64, c int) func() op {
		region := s.slots(0) / clients
		i := 0
		return func() op {
			o := op{slot: c*region + i%region, write: true}
			i++
			return o
		}
	}
	return s
}
