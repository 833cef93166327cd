// Package pvfscache is a from-scratch reproduction of "Kernel-Level
// Caching for Optimizing I/O by Exploiting Inter-Application Data Sharing"
// (Vilayannur, Kandemir, Sivasubramaniam; IEEE CLUSTER 2002).
//
// The repository contains two complete systems that share one
// buffer-manager implementation:
//
//   - a live, runnable PVFS-like parallel file system (metadata server,
//     I/O daemons, client library) with the paper's per-node cache module
//     interposed between the client library and the network
//     (internal/mgr, internal/iod, internal/pvfs, internal/cachemod,
//     assembled by internal/cluster); and
//
//   - a deterministic discrete-event model of the paper's 6-node testbed
//     (internal/sim, internal/simcluster) that regenerates every figure of
//     the evaluation via internal/harness and cmd/experiments.
//
// The live data path is built for throughput: every request/response
// rides one multiplexed RPC core (internal/rpc) with tagged out-of-order
// responses; misses leave the per-node cache as vectored multi-extent
// reads (wire.ReadBlocks); and a sequential-readahead prefetcher keeps a
// window of upcoming blocks in flight ahead of ascending scans.
//
// See README.md for a tour and DESIGN.md for the system inventory, the
// read-path architecture, and the experiment index. The figures come from
// cmd/experiments, the live system's benchmark is pvfsperf/ (its per-PR
// records are bench/BENCH_<pr>.json), and bench_test.go keeps only the
// knob-ablation pairs docs/TUNING.md cites.
package pvfscache
