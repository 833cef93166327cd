package cachemod

import (
	"strconv"

	"pvfscache/internal/metrics"
)

// counters holds the module's metric handles. Registry.Counter takes the
// registry mutex and hashes the name, which a request must not pay per
// operation — module.read_full_hits sits on every hit, with every client of
// the node contending — so the handles are resolved once, in New, and this
// file is the only one in the package that looks a counter up (CI checks).
type counters struct {
	readaheadResets    *metrics.Counter
	prefetchIssued     *metrics.Counter
	prefetchHits       *metrics.Counter
	joinStaleRefetches *metrics.Counter
	fetchJoins         *metrics.Counter
	prefetchStaleDrops *metrics.Counter
	fetchStaleRetries  *metrics.Counter
	prefetchBlocks     *metrics.Counter
	gcacheBadResp      *metrics.Counter
	gcacheHits         *metrics.Counter
	syncFetches        *metrics.Counter
	readSubrequests    *metrics.Counter
	readVectorFetches  *metrics.Counter
	readFullHits       *metrics.Counter
	writesBuffered     *metrics.Counter
	writeStalls        *metrics.Counter
	syncWrites         *metrics.Counter
	flushErrors        *metrics.Counter
	flushRequeued      *metrics.Counter
	flushRounds        *metrics.Counter
	flushedBlocks      *metrics.Counter
	flushCoalesced     *metrics.Counter
	harvested          *metrics.Counter
	invalidationsRx    *metrics.Counter
}

func newCounters(reg *metrics.Registry) counters {
	return counters{
		readaheadResets:    reg.Counter("module.readahead_resets"),
		prefetchIssued:     reg.Counter("module.prefetch_issued"),
		prefetchHits:       reg.Counter("module.prefetch_hits"),
		joinStaleRefetches: reg.Counter("module.join_stale_refetches"),
		fetchJoins:         reg.Counter("module.fetch_joins"),
		prefetchStaleDrops: reg.Counter("module.prefetch_stale_drops"),
		fetchStaleRetries:  reg.Counter("module.fetch_stale_retries"),
		prefetchBlocks:     reg.Counter("module.prefetch_blocks"),
		gcacheBadResp:      reg.Counter("module.gcache_bad_resp"),
		gcacheHits:         reg.Counter("module.gcache_hits"),
		syncFetches:        reg.Counter("module.sync_fetches"),
		readSubrequests:    reg.Counter("module.read_subrequests"),
		readVectorFetches:  reg.Counter("module.read_vector_fetches"),
		readFullHits:       reg.Counter("module.read_full_hits"),
		writesBuffered:     reg.Counter("module.writes_buffered"),
		writeStalls:        reg.Counter("module.write_stalls"),
		syncWrites:         reg.Counter("module.sync_writes"),
		flushErrors:        reg.Counter("module.flush_errors"),
		flushRequeued:      reg.Counter("module.flush_requeued"),
		flushRounds:        reg.Counter("module.flush_rounds"),
		flushedBlocks:      reg.Counter("module.flushed_blocks"),
		flushCoalesced:     reg.Counter("module.flush_coalesced"),
		harvested:          reg.Counter("module.harvested"),
		invalidationsRx:    reg.Counter("module.invalidations_rx"),
	}
}

// tenantSheds resolves one tenant's labelled shed counters, once per tenant
// (newTenantState).
func tenantSheds(reg *metrics.Registry, tenant uint32) (reads, writes *metrics.Counter) {
	tag := strconv.FormatUint(uint64(tenant), 10)
	return reg.Counter(metrics.Labeled("module.tenant_read_sheds", "tenant", tag)),
		reg.Counter(metrics.Labeled("module.tenant_write_sheds", "tenant", tag))
}
