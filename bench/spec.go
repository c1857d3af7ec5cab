package main

// metricDef names one metric the benchmark prints. BENCHMARK.json at the
// root of the repo lists the same names; spec_test.go keeps the two equal.
type metricDef struct {
	name   string
	unit   string
	better string  // "lower" or "higher"
	bound  float64 // end-to-end only: share of the parent's median it may worsen by
}

// endToEnd are the gated metrics. Every workload measures every one of
// them, which the driver's contract requires; README.md says what each
// means on an offline and on a serve workload.
var endToEnd = []metricDef{
	{"setup_s", "s", "lower", 0.25},
	{"p50_ms", "ms", "lower", 0.25},
	{"ops_per_s", "1/s", "higher", 0.25},
	{"cpu_s", "s", "lower", 0.15},
}

// perLayer are reported, never gated. A metric whose layer a workload never
// enters is absent from that workload's result: the native output prints
// n/a and the driver's JSON line carries 0.
var perLayer = []metricDef{
	// End-to-end candidates the driver cannot gate, because no single
	// workload has all of them (see README.md, "Demoted metrics").
	{"pipeline_s", "s", "lower", 0},
	{"flat_s", "s", "lower", 0},
	{"train_s", "s", "lower", 0},
	{"infer_s", "s", "lower", 0},
	{"p99_ms", "ms", "lower", 0},
	{"write_p50_ms", "ms", "lower", 0},
	{"write_p95_ms", "ms", "lower", 0},
	{"max_rate_rps", "1/s", "higher", 0},
	{"closed_rps", "1/s", "higher", 0},
	{"peak_rss_mb", "MB", "lower", 0},

	{"loadgen.late_p99_ms", "ms", "lower", 0},
	{"loadgen.sent", "count", "higher", 0},
	{"loadgen.ok", "count", "higher", 0},
	{"loadgen.failed", "count", "lower", 0},
	{"loadgen.wrong", "count", "lower", 0},

	{"aglserve.http.rtt_us", "us", "lower", 0},
	{"aglserve.http.overhead_us", "us", "lower", 0},
	{"aglserve.http.scores32_rtt_us", "us", "lower", 0},
	{"aglserve.http.scores32_overhead_us", "us", "lower", 0},
	{"aglserve.http.update_rtt_us", "us", "lower", 0},
	{"aglserve.http.cpu_us_per_req", "us", "lower", 0},

	{"tensor.dot_ns", "ns", "lower", 0},
	{"serve.cache.hit_ns", "ns", "lower", 0},
	{"serve.cache.hit_ratio", "ratio", "higher", 0},
	{"serve.store.lookup_ns.mem", "ns", "lower", 0},
	{"serve.store.lookup_ns.mmap", "ns", "lower", 0},
	{"serve.store.lookup_ns.quant", "ns", "lower", 0},
	{"serve.store.open_ms.mem", "ms", "lower", 0},
	{"serve.store.open_ms.mmap", "ms", "lower", 0},
	{"serve.store.open_ms.quant", "ms", "lower", 0},
	{"serve.store.bytes_per_row.mem", "B", "lower", 0},
	{"serve.store.bytes_per_row.mmap", "B", "lower", 0},
	{"serve.store.bytes_per_row.quant", "B", "lower", 0},
	{"serve.score.warm_ns", "ns", "lower", 0},
	{"serve.score.cold_us", "us", "lower", 0},
	{"serve.link.warm_ns", "ns", "lower", 0},
	{"serve.link.cold_us", "us", "lower", 0},
	{"serve.batcher.batches", "count", "lower", 0},
	{"serve.batcher.mean_batch", "count", "higher", 0},
	{"serve.batcher.collapsed", "count", "higher", 0},
	{"serve.admission.shed", "count", "lower", 0},
	{"serve.admission.expired", "count", "lower", 0},
	{"serve.dynamic.apply_ms", "ms", "lower", 0},
	{"serve.dynamic.invalidated_per_mut", "count", "lower", 0},
	{"serve.dynamic.readmitted", "count", "higher", 0},
	{"serve.dynamic.dirty_rows_max", "count", "lower", 0},
	{"graph.apply_ms", "ms", "lower", 0},
	{"core.local.rebind_ms", "ms", "lower", 0},
	{"core.local.feature_us", "us", "lower", 0},
	{"core.local.feature_hub_p99_us", "us", "lower", 0},
	{"serve.replica.local_ns", "ns", "lower", 0},
	{"serve.replica.proxied_ns", "ns", "lower", 0},
	{"serve.replica.forwards", "count", "lower", 0},
	{"serve.replica.proxied_retries", "count", "lower", 0},
	{"rpcx.call_us", "us", "lower", 0},
	{"rpcx.hop_us", "us", "lower", 0},
	{"placement.slotof_ns", "ns", "lower", 0},

	{"core.flatten.rounds", "count", "lower", 0},
	{"core.flatten.shuffled_mb", "MB", "lower", 0},
	{"core.flatten.records_mb", "MB", "lower", 0},
	{"core.flatten.hubs_reindexed", "count", "lower", 0},
	{"core.flatten.unattributed_frac", "ratio", "lower", 0},
	{"mapreduce.flat.map_busy_s", "s", "lower", 0},
	{"mapreduce.flat.reduce_busy_s", "s", "lower", 0},
	{"mapreduce.flat.shuffle_mb_per_s", "MB/s", "higher", 0},
	{"mapreduce.flat.peak_group_mb", "MB", "lower", 0},
	{"mapreduce.flat.retries", "count", "lower", 0},
	{"mapreduce.identity_mb_per_s", "MB/s", "higher", 0},
	{"wire.encode_train_ns_per_kb", "ns/KB", "lower", 0},
	{"wire.decode_train_ns_per_kb", "ns/KB", "lower", 0},
	{"sampling.weighted_ns_per_edge", "ns", "lower", 0},
	{"core.infer.rounds", "count", "lower", 0},
	{"core.infer.shuffled_mb", "MB", "lower", 0},
	{"core.infer.unattributed_frac", "ratio", "lower", 0},
	{"mapreduce.infer.map_busy_s", "s", "lower", 0},
	{"mapreduce.infer.reduce_busy_s", "s", "lower", 0},
	{"core.trainer.vec_busy_s", "s", "lower", 0},
	{"core.trainer.compute_busy_s", "s", "lower", 0},
	{"core.trainer.overlap_frac", "ratio", "higher", 0},
	{"core.trainer.assemble_us_per_batch", "us", "lower", 0},
	{"core.trainer.epoch_s_median", "s", "lower", 0},
	{"ps.bytes_out_mb", "MB", "lower", 0},
	{"ps.bytes_in_mb", "MB", "lower", 0},
	{"ps.pull_us", "us", "lower", 0},
	{"ps.push_us", "us", "lower", 0},
	{"gnn.prepare_us", "us", "lower", 0},
	{"gnn.forward_ms", "ms", "lower", 0},
	{"gnn.backward_ms", "ms", "lower", 0},
	{"sparse.prepare_us", "us", "lower", 0},
	{"sparse.spmm_us", "us", "lower", 0},
	{"tensor.matmul_us", "us", "lower", 0},
	{"tensor.matmul_gflops", "GFLOP/s", "higher", 0},
	{"proc.alloc_mb", "MB", "lower", 0},
	{"proc.gc_cycles", "count", "lower", 0},
	{"proc.gc_pause_ms", "ms", "lower", 0},
	{"trace.spans", "count", "lower", 0},
	{"trace.overhead_frac", "ratio", "lower", 0},

	// Rung-to-rung gaps of the ladders that no metric above already names.
	{"ladder.gap.lookup_ns", "ns", "lower", 0},
	{"ladder.gap.cache_ns", "ns", "lower", 0},
	{"ladder.gap.warm_ns", "ns", "lower", 0},
	{"ladder.gap.cold_us", "us", "lower", 0},
	{"ladder.gap.train_startup_s", "s", "lower", 0},
	{"ladder.gap.epoch_other_s", "s", "lower", 0},
	{"ladder.gap.flat_reducers_s", "s", "lower", 0},
}

func unitOf(name string) string {
	for _, defs := range [][]metricDef{endToEnd, perLayer} {
		for _, d := range defs {
			if d.name == name {
				return d.unit
			}
		}
	}
	return ""
}

// metrics collects one run's values by name.
type metrics map[string]float64
