// Command pvfs-bench is the command-line driver of a live cluster: it runs
// the paper's micro-benchmark program (§4.1) against an in-process cluster
// (the default, for a zero-setup demo) or against external
// pvfs-mgr/pvfs-iod daemons over TCP, and with -chaos it reproduces a
// fault-injection cell. It is not the repository's benchmark — that is
// pvfsperf/ (BENCHMARK.json) — and no performance statement cites the
// timings it prints.
//
// Examples:
//
//	# self-contained: boots an in-memory cluster and compares
//	# caching vs no-caching for the given parameters
//	pvfs-bench -d 65536 -l 0.5 -s 0.5 -instances 2 -p 2
//
//	# against a running TCP cluster, caching enabled
//	pvfs-bench -mgr host:7000 -iods h1:7010,h2:7010 -caching -d 65536 -total 8388608
//
// The tool reports per-request latency, total completion time per
// instance, and the cache-module counters. The cache module runs at its
// defaults, the paper's configuration; its tuning knobs are
// cachemod.Config fields (see docs/TUNING.md), varied by the ablation
// pairs of `go test -bench`, not by flags here. A run fails (exit status
// 1) when the final flush cannot drain the write-behind.
//
// The in-process iods keep their blocks in memory by default;
// -backend=disk puts each one on a WAL-backed on-disk store instead
// (-datadir picks the directory):
//
//	pvfs-bench -backend disk -datadir /tmp/pvfs -write
//
// With -chaos the tool instead runs a seeded fault-injection scenario
// under the consistency oracle:
//
//	pvfs-bench -chaos -scenario zipfian -fault partition -seed 42
//
// See docs/TESTING.md for the scenario and fault catalogue.
package main

import (
	"errors"
	"flag"
	"fmt"
	"log"
	"os"
	"strings"
	"sync"
	"time"

	"pvfscache/internal/cachemod"
	"pvfscache/internal/cluster"
	"pvfscache/internal/metrics"
	"pvfscache/internal/microbench"
	"pvfscache/internal/pvfs"
	"pvfscache/internal/transport"
)

var (
	mgrAddr   = flag.String("mgr", "", "mgr address (empty boots an in-process cluster)")
	iodList   = flag.String("iods", "", "comma-separated iod addresses")
	caching   = flag.Bool("caching", true, "enable the cache module")
	instances = flag.Int("instances", 1, "application instances (degree of multiprogramming)")
	procs     = flag.Int("p", 2, "processes (nodes) per instance")
	reqSize   = flag.Int64("d", 64<<10, "request size in bytes (per process)")
	total     = flag.Int64("total", 4<<20, "bytes moved per process")
	locality  = flag.Float64("l", 0, "degree of locality in [0,1]")
	sharing   = flag.Float64("s", 0, "degree of inter-instance sharing in [0,1]")
	write     = flag.Bool("write", false, "issue writes instead of reads")
	seed      = flag.Int64("seed", 1, "workload seed")
	backend   = flag.String("backend", "", "iod storage engine for the in-process cluster: mem (default) or disk")
	dataDir   = flag.String("datadir", "", "data directory for -backend disk (default: a temp dir, removed at exit)")
)

func main() {
	log.SetFlags(0)
	log.SetPrefix("pvfs-bench: ")
	flag.Parse()

	if *chaosMode {
		runChaos()
		return
	}

	mb := microbench.Params{
		Instances:   *instances,
		Nodes:       *procs,
		RequestSize: *reqSize,
		TotalBytes:  *total,
		Read:        !*write,
		Locality:    *locality,
		Sharing:     *sharing,
		Seed:        *seed,
	}
	if err := mb.Validate(); err != nil {
		log.Fatal(err)
	}

	var err error
	if *mgrAddr == "" {
		err = runInProcess(mb)
	} else {
		err = runAgainst(mb, transport.NewTCP())
	}
	if err != nil {
		log.Fatal(err)
	}
}

// resolveDataDir returns the data directory to use and a cleanup func.
// With -backend disk and no -datadir, the run gets a throwaway temp dir.
func resolveDataDir() (string, func()) {
	if *backend != "disk" || *dataDir != "" {
		return *dataDir, func() {}
	}
	dir, err := os.MkdirTemp("", "pvfs-bench-data-*")
	if err != nil {
		log.Fatalf("-backend disk: %v", err)
	}
	return dir, func() { os.RemoveAll(dir) }
}

func splitList(s string) []string {
	if s == "" {
		return nil
	}
	parts := strings.Split(s, ",")
	out := parts[:0]
	for _, p := range parts {
		if p = strings.TrimSpace(p); p != "" {
			out = append(out, p)
		}
	}
	return out
}

// runInProcess boots a full in-memory cluster and runs the benchmark with
// and without caching for comparison. Closing a cluster runs its final
// flush; an error there is the run's error.
func runInProcess(mb microbench.Params) error {
	dataDir, cleanup := resolveDataDir()
	defer cleanup()
	modes := []bool{*caching}
	if *caching {
		modes = []bool{true, false}
	}
	for i, withCache := range modes {
		sub := dataDir
		if sub != "" && len(modes) > 1 {
			// Each mode gets a fresh tree so the second run does not
			// replay the first run's files.
			sub = fmt.Sprintf("%s/mode%d", dataDir, i)
		}
		c, err := cluster.Start(cluster.Config{
			IODs:        4,
			ClientNodes: mb.Nodes,
			Caching:     withCache,
			FlushPeriod: 100 * time.Millisecond,
			Backend:     *backend,
			DataDir:     sub,
		})
		if err != nil {
			return err
		}
		runWorkload(withCache, mb, c.NewProcess)
		if withCache {
			printModuleStats(c.Reg)
		}
		if err := c.Close(); err != nil {
			return fmt.Errorf("closing the in-process cluster: %w", err)
		}
	}
	return nil
}

// runAgainst executes the benchmark against external daemons. Closing
// each module runs its final flush; an error there is the run's error.
func runAgainst(mb microbench.Params, net transport.Network) error {
	if *backend != "" {
		return errors.New("-backend applies to the in-process cluster only; external daemons own their storage")
	}
	iods := splitList(*iodList)
	if len(iods) == 0 {
		return errors.New("-iods is required with -mgr")
	}
	var modules []*cachemod.Module
	if *caching {
		for node := 0; node < mb.Nodes; node++ {
			mod, err := cachemod.New(cachemod.Config{
				Network:      net,
				ClientID:     uint32(node + 1),
				IODDataAddrs: iods,
			})
			if err != nil {
				return fmt.Errorf("cache module for node %d: %w", node, err)
			}
			modules = append(modules, mod)
		}
	}
	runWorkload(*caching, mb, func(node int) (*pvfs.Client, error) {
		cfg := pvfs.Config{
			Network:  net,
			MgrAddr:  *mgrAddr,
			IODAddrs: iods,
			ClientID: uint32(node + 1),
		}
		if *caching {
			cfg.Transport = modules[node].NewTransport()
		}
		return pvfs.NewClient(cfg)
	})
	var errs []error
	for node, mod := range modules {
		if err := mod.Close(); err != nil {
			errs = append(errs, fmt.Errorf("closing the cache module of node %d: %w", node, err))
		}
	}
	return errors.Join(errs...)
}

// runWorkload creates the benchmark files, spawns one goroutine per
// (instance, node) process, and reports timing.
func runWorkload(withCache bool, mb microbench.Params, newProc func(node int) (*pvfs.Client, error)) {
	setup, err := newProc(0)
	if err != nil {
		log.Fatal(err)
	}
	files := mb.Files()
	for name, size := range files {
		f, err := setup.Create(name, pvfs.StripeSpec{})
		if err != nil {
			// Already present from a previous run: fine.
			continue
		}
		// Seed the file so reads have data to fetch.
		chunk := make([]byte, 256<<10)
		for off := int64(0); off < size; off += int64(len(chunk)) {
			n := int64(len(chunk))
			if off+n > size {
				n = size - off
			}
			if _, err := f.WriteAt(chunk[:n], off); err != nil {
				log.Fatalf("seeding %s: %v", name, err)
			}
		}
		f.Close()
	}
	setup.Close()

	type procResult struct {
		instance int
		elapsed  time.Duration
		requests int
	}
	results := make(chan procResult, mb.Instances*mb.Nodes)
	var wg sync.WaitGroup
	start := time.Now()
	for inst := 0; inst < mb.Instances; inst++ {
		for node := 0; node < mb.Nodes; node++ {
			wg.Add(1)
			go func(inst, node int) {
				defer wg.Done()
				client, err := newProc(node)
				if err != nil {
					log.Fatalf("instance %d node %d: %v", inst, node, err)
				}
				defer client.Close()
				handles := make(map[string]*pvfs.File)
				for name := range files {
					f, err := client.Open(name)
					if err != nil {
						log.Fatalf("open %s: %v", name, err)
					}
					handles[name] = f
				}
				buf := make([]byte, mb.RequestSize)
				t0 := time.Now()
				stream := mb.Stream(inst, node)
				for _, req := range stream {
					f := handles[req.File]
					if req.Read {
						if _, err := f.ReadAt(buf, req.Offset); err != nil {
							log.Fatalf("read %s@%d: %v", req.File, req.Offset, err)
						}
					} else {
						if _, err := f.WriteAt(buf, req.Offset); err != nil {
							log.Fatalf("write %s@%d: %v", req.File, req.Offset, err)
						}
					}
				}
				results <- procResult{instance: inst, elapsed: time.Since(t0), requests: len(stream)}
			}(inst, node)
		}
	}
	wg.Wait()
	close(results)

	perInstance := make([]time.Duration, mb.Instances)
	totalReqs := 0
	var totalTime time.Duration
	for r := range results {
		if r.elapsed > perInstance[r.instance] {
			perInstance[r.instance] = r.elapsed
		}
		totalReqs += r.requests
		totalTime += r.elapsed
	}
	label := "no caching"
	if withCache {
		label = "caching"
	}
	fmt.Printf("[%s] d=%d l=%v s=%v instances=%d p=%d\n",
		label, mb.RequestSize, mb.Locality, mb.Sharing, mb.Instances, mb.Nodes)
	for i, t := range perInstance {
		fmt.Printf("  instance %d completion: %v\n", i, t.Round(time.Microsecond))
	}
	if totalReqs > 0 {
		fmt.Printf("  mean request latency:  %v over %d requests (wall %v)\n",
			(totalTime / time.Duration(totalReqs)).Round(time.Microsecond),
			totalReqs, time.Since(start).Round(time.Millisecond))
	}
}

func printModuleStats(reg *metrics.Registry) {
	snap := reg.Snapshot()
	fmt.Printf("  cache: hits=%d misses=%d evictions=%d flushed=%d joins=%d\n",
		snap.Counters["cache.hits"], snap.Counters["cache.misses"],
		snap.Counters["cache.evictions"], snap.Counters["module.flushed_blocks"],
		snap.Counters["module.fetch_joins"])
}
