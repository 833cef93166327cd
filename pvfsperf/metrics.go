package main

// metric is one reported number.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// def names a metric the benchmark reports. BENCHMARK.json lists the same
// names, units and directions; TestManifestMatches holds the two together.
type def struct {
	name, unit, better string
}

// endToEndDefs are reported by an untraced run: what an application on the
// node sees, and what running it costs. Call latency is not among them: the
// loop is closed, so throughput_mbps is the reciprocal of the mean latency,
// and the percentiles spread wider between runs of one program than the
// widest bound the contract allows — the write median on write_drain_disk,
// the 99th percentile everywhere (README.md, "Not end-to-end"). They are in
// the record (classLatencies), in -compare and per layer as bench.*.
var endToEndDefs = []def{
	{"setup_s", "s", "lower"},
	{"throughput_mbps", "MB/s", "higher"},
	{"allocs_per_op", "allocs/op", "lower"},
	{"alloc_bytes_per_op", "B/op", "lower"},
	{"cpu_us_per_op", "us", "lower"},
	{"peak_rss_mb", "MB", "lower"},
}

// perLayerDefs are reported by a traced run: counter ratios and seam spans
// from the workload itself, then the standalone probes.
var perLayerDefs = []def{
	{"pvfs.self_us_per_op", "us", "lower"},
	{"pvfs.pieces_per_op", "1/op", "lower"},

	{"cachemod.span_us_per_op", "us", "lower"},
	{"cachemod.full_hit_ratio", "ratio", "higher"},
	{"cachemod.subrequests_per_read", "1/op", "lower"},
	{"cachemod.vector_fetches_per_read", "1/op", "lower"},
	{"cachemod.fetch_joins_per_read", "1/op", "higher"},
	{"cachemod.prefetch_hit_ratio", "ratio", "higher"},
	{"cachemod.stale_retries_per_kop", "1/kop", "lower"},
	{"cachemod.write_stalls_per_kop", "1/kop", "lower"},
	{"cachemod.write_through_per_kop", "1/kop", "lower"},
	{"cachemod.flushed_blocks_per_round", "blocks", "higher"},
	{"cachemod.flush_coalesce_ratio", "ratio", "higher"},
	{"cachemod.flush_errors", "count", "lower"},

	{"buffer.hit_ratio", "ratio", "higher"},
	{"buffer.evictions_per_op", "1/op", "lower"},
	{"buffer.write_rmw_per_write", "1/op", "lower"},
	{"buffer.nospace_per_kop", "1/kop", "lower"},
	{"buffer.readspan_4k_ns", "ns", "lower"},
	{"buffer.writespan_4k_ns", "ns", "lower"},
	{"buffer.install_4k_ns", "ns", "lower"},
	{"buffer.takedirty_ns_per_block", "ns", "lower"},

	{"rpc.roundtrips_per_op", "1/op", "lower"},
	{"rpc.call_hdr_us", "us", "lower"},
	{"rpc.call_64k_us", "us", "lower"},
	{"rpc.call_64k_allocs", "allocs/op", "lower"},

	{"wire.encode_64k_ns", "ns", "lower"},
	{"wire.decode_64k_ns", "ns", "lower"},
	{"wire.decode_64k_allocs", "allocs/op", "lower"},

	{"transport.wire_bytes_per_user_byte", "B/B", "lower"},
	{"transport.conn_writes_per_op", "1/op", "lower"},
	{"transport.pipe_rtt_us", "us", "lower"},
	{"transport.pipe_64k_us", "us", "lower"},

	{"iod.extents_per_vector_read", "1/op", "higher"},
	{"iod.flush_blocks_per_flush", "blocks", "higher"},
	{"iod.data_reads_per_op", "1/op", "lower"},
	{"iod.io_errors", "count", "lower"},
	{"iod.readblocks_64k_us", "us", "lower"},
	{"iod.flush_64k_us", "us", "lower"},

	{"storage_mem.read_64k_ns", "ns", "lower"},
	{"storage_mem.write_64k_ns", "ns", "lower"},

	{"storage_disk.write_amp", "B/B", "lower"},
	{"storage_disk.write_syscalls_per_mb", "1/MB", "lower"},
	{"storage_disk.space_amp", "B/B", "lower"},
	{"storage_disk.write_64k_us", "us", "lower"},
	{"storage_disk.read_64k_us", "us", "lower"},
	{"storage_disk.sync_ms", "ms", "lower"},
	{"storage_disk.raw_append_64k_us", "us", "lower"},

	{"mgr.open_us", "us", "lower"},
	{"globalcache.remote_get_64k_us", "us", "lower"},

	{"control.memcpy_16k_ns", "ns", "lower"},
	{"control.memcpy_64k_ns", "ns", "lower"},
	{"control.direct_read_64k_us", "us", "lower"},
	{"control.direct_write_64k_us", "us", "lower"},

	{"bench.trace_overhead_pct", "%", "lower"},
	{"bench.timer_ns", "ns", "lower"},
	{"bench.fill_16k_ns", "ns", "lower"},
	{"bench.fill_64k_ns", "ns", "lower"},
	{"bench.op_p99_us", "us", "lower"},
	{"bench.read_p50_us", "us", "lower"},
	{"bench.read_p99_us", "us", "lower"},
	{"bench.write_p50_us", "us", "lower"},
	{"bench.write_p99_us", "us", "lower"},
	{"bench.error_rate", "ratio", "lower"},
}

// div is x/y, and 0 where the workload gave the ratio no denominator.
func div(x, y float64) float64 {
	if y == 0 {
		return 0
	}
	return x / y
}

func us(ns float64) float64 { return ns / 1e3 }

// tag attaches each value's unit from the table, so a value the table does
// not name cannot be reported.
func tag(defs []def, values map[string]float64) map[string]metric {
	out := make(map[string]metric, len(defs))
	for _, d := range defs {
		if v, ok := values[d.name]; ok {
			out[d.name] = metric{Value: v, Unit: d.unit}
		}
	}
	return out
}

// median is the middle value of v; 0 for none.
func median(v []float64) float64 {
	if len(v) == 0 {
		return 0
	}
	_, m, _ := quartiles(v)
	return m
}

// classLatencyNames are the rows of a record's latency split, in print
// order.
var classLatencyNames = []string{"read_p50_us", "read_p99_us", "write_p50_us", "write_p99_us"}

// classLatencies splits the call latency of a run's slices by op class:
// the median slice of each class's median and 99th percentile, for the
// classes the workload issues.
func classLatencies(wins []window) map[string]metric {
	per := make(map[string][]float64)
	for i := range wins {
		for _, c := range []struct {
			class string
			h     *hist
		}{{"read", &wins[i].rd}, {"write", &wins[i].wr}} {
			if c.h.n > 0 {
				per[c.class+"_p50_us"] = append(per[c.class+"_p50_us"], us(c.h.quantile(0.50)))
				per[c.class+"_p99_us"] = append(per[c.class+"_p99_us"], us(c.h.quantile(0.99)))
			}
		}
	}
	out := make(map[string]metric)
	for name, v := range per {
		out[name] = metric{Value: median(v), Unit: "us"}
	}
	return out
}

func (win *window) throughputMBps() float64 {
	return div(float64(win.bytes)/1e6, win.wall.Seconds())
}

// perSlice computes, for each slice, the timing and cost figures a run
// reports one slice of.
func perSlice(wins []window) map[string][]float64 {
	out := make(map[string][]float64)
	for i := range wins {
		win := &wins[i]
		all := win.rd
		all.merge(&win.wr)
		ops := float64(win.ops)
		for name, v := range map[string]float64{
			"throughput_mbps":    win.throughputMBps(),
			"op_p99_us":          us(all.quantile(0.99)), // reported per layer, as bench.op_p99_us
			"allocs_per_op":      div(float64(win.mallocs), ops),
			"alloc_bytes_per_op": div(float64(win.allocBytes), ops),
			"cpu_us_per_op":      div(us(float64(win.cpu)), ops),
		} {
			out[name] = append(out[name], v)
		}
	}
	return out
}

// endToEnd derives the end-to-end metrics of an untraced run, all but
// setup_s: of each, the slice at the quartile on the metric's better side.
// The host's noise is one-sided — a slow spell of seconds to minutes makes
// slices slower and dearer in CPU, nothing makes them faster — so between
// runs of one program the better quartile spreads less than the median slice
// does (README.md, "Slices"), and a quarter of the slices may still be lucky
// without moving it. The second result holds the per-slice values.
func endToEnd(wins []window, peakRSSMB float64) (map[string]metric, map[string][]float64) {
	per := perSlice(wins)
	values := map[string]float64{"peak_rss_mb": peakRSSMB}
	for _, d := range endToEndDefs {
		if v, ok := per[d.name]; ok {
			q1, _, q3 := quartiles(v)
			values[d.name] = q1
			if d.better == "higher" {
				values[d.name] = q3
			}
		}
	}
	return tag(endToEndDefs, values), per
}

// perLayer derives the in-situ layer metrics of a traced run from the
// registry's counter deltas, the seam spans and the network seam's counts,
// each summed over the traced slices. plain are the untraced slices that
// alternated with them on the same cluster.
func perLayer(plain, traced []window, tracers []*tracer, diskStored, liveBytes int64, errorRate float64) map[string]float64 {
	plainSlices := perSlice(plain)
	thrPlain, thrTraced := median(plainSlices["throughput_mbps"]), median(perSlice(traced)["throughput_mbps"])
	lat := classLatencies(plain) // 0 for a class the workload does not issue
	var win window
	for i := range traced {
		win.add(&traced[i])
	}
	c := func(name string) float64 { return float64(win.counters[name]) }
	ops, reads, writes := float64(win.ops), float64(win.rd.n), float64(win.wr.n)
	kops := ops / 1e3
	var rootNS, seamNS, pieces, seamReads float64
	for _, t := range tracers {
		rootNS += float64(t.sumNS[spanReadAt] + t.sumNS[spanWriteAt])
		seamNS += float64(t.seamNS())
		pieces += float64(t.count[spanSend] + t.count[spanSendRead])
		seamReads += float64(t.reads)
	}
	values := map[string]float64{
		"pvfs.self_us_per_op": div(us(rootNS-seamNS), ops),
		"pvfs.pieces_per_op":  div(pieces, ops),

		"cachemod.span_us_per_op":           div(us(seamNS), ops),
		"cachemod.full_hit_ratio":           div(c("module.read_full_hits"), seamReads),
		"cachemod.subrequests_per_read":     div(c("module.read_subrequests"), reads),
		"cachemod.vector_fetches_per_read":  div(c("module.read_vector_fetches"), reads),
		"cachemod.fetch_joins_per_read":     div(c("module.fetch_joins"), reads),
		"cachemod.prefetch_hit_ratio":       div(c("module.prefetch_hits"), c("module.prefetch_blocks")),
		"cachemod.stale_retries_per_kop":    div(c("module.fetch_stale_retries"), kops),
		"cachemod.write_stalls_per_kop":     div(c("module.write_stalls"), kops),
		"cachemod.write_through_per_kop":    div(c("module.write_through"), kops),
		"cachemod.flushed_blocks_per_round": div(c("module.flushed_blocks"), c("module.flush_rounds")),
		"cachemod.flush_coalesce_ratio":     div(c("module.flush_coalesced"), c("module.flushed_blocks")),
		"cachemod.flush_errors":             c("module.flush_errors"),

		"buffer.hit_ratio":           div(c("cache.hits"), c("cache.hits")+c("cache.misses")),
		"buffer.evictions_per_op":    div(c("cache.evictions"), ops),
		"buffer.write_rmw_per_write": div(c("cache.write_rmw"), writes),
		"buffer.nospace_per_kop":     div(c("cache.write_nospace")+c("cache.insert_nospace"), kops),

		// iod.reads counts vectored reads too, so each round trip is
		// counted once.
		"rpc.roundtrips_per_op": div(c("iod.reads")+c("iod.writes")+c("iod.sync_writes")+c("iod.flushes"), ops),

		"transport.wire_bytes_per_user_byte": div(float64(win.netBytes), float64(win.bytes)),
		"transport.conn_writes_per_op":       div(float64(win.netWrites), ops),

		"iod.extents_per_vector_read": div(c("iod.vector_extents"), c("iod.vector_reads")),
		"iod.flush_blocks_per_flush":  div(c("iod.flush_blocks"), c("iod.flushes")),
		"iod.data_reads_per_op":       div(c("iod.reads"), ops),
		"iod.io_errors":               c("iod.io_errors"),

		"storage_disk.write_amp":             0,
		"storage_disk.write_syscalls_per_mb": 0,
		"storage_disk.space_amp":             0,

		"bench.trace_overhead_pct": 100 * div(thrPlain-thrTraced, thrPlain),
		// The tail, and the read/write split of both percentiles, from the
		// untraced slices like every latency an application would see.
		"bench.op_p99_us":    median(plainSlices["op_p99_us"]),
		"bench.read_p50_us":  lat["read_p50_us"].Value,
		"bench.read_p99_us":  lat["read_p99_us"].Value,
		"bench.write_p50_us": lat["write_p50_us"].Value,
		"bench.write_p99_us": lat["write_p99_us"].Value,
		"bench.error_rate":   errorRate,
	}
	if diskStored > 0 {
		// The in-memory fabric makes no syscalls, so what the process
		// writes is the disk engine's journal and checkpoint traffic.
		values["storage_disk.write_amp"] = div(float64(win.wchar), float64(win.bytes))
		values["storage_disk.write_syscalls_per_mb"] = div(float64(win.syscw), float64(win.bytes)/1e6)
		values["storage_disk.space_amp"] = div(float64(diskStored), float64(liveBytes))
	}
	return values
}
