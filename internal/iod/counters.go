package iod

import "pvfscache/internal/metrics"

// counters holds the daemon's metric handles, resolved once at
// construction: Registry.Counter takes the registry mutex and hashes the
// name, which a request handler must not pay per operation. This file is the
// only one in the package that looks a counter up (CI checks).
type counters struct {
	ioErrors  *metrics.Counter
	reads     *metrics.Counter
	readBytes *metrics.Counter
	// Every data-port read is a ReadBlocks, so vectorReads counts exactly
	// what reads does; it stays as the denominator of the benchmark's
	// extents per vector read.
	vectorReads   *metrics.Counter
	vectorExtents *metrics.Counter
	writes        *metrics.Counter
	writeBytes    *metrics.Counter
	flushes       *metrics.Counter
	flushBlocks   *metrics.Counter
	flushRuns     *metrics.Counter
	syncWrites    *metrics.Counter
	drainHandoffs *metrics.Counter
	invalidations *metrics.Counter
}

func newCounters(reg *metrics.Registry) counters {
	return counters{
		ioErrors:      reg.Counter("iod.io_errors"),
		reads:         reg.Counter("iod.reads"),
		readBytes:     reg.Counter("iod.read_bytes"),
		vectorReads:   reg.Counter("iod.vector_reads"),
		vectorExtents: reg.Counter("iod.vector_extents"),
		writes:        reg.Counter("iod.writes"),
		writeBytes:    reg.Counter("iod.write_bytes"),
		flushes:       reg.Counter("iod.flushes"),
		flushBlocks:   reg.Counter("iod.flush_blocks"),
		flushRuns:     reg.Counter("iod.flush_runs"),
		syncWrites:    reg.Counter("iod.sync_writes"),
		drainHandoffs: reg.Counter("membership.drain_handoffs"),
		invalidations: reg.Counter("iod.invalidations"),
	}
}
