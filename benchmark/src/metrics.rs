//! The metric names, units and layers — the same list `BENCHMARK.json`
//! declares (`tests/smoke.rs` checks the two agree).

/// `(name, unit)` of the seven end-to-end metrics, printed by every
/// untraced run.
pub const END_TO_END: &[(&str, &str)] = &[
    ("setup_s", "s"),
    ("throughput_ops_s", "ops/s"),
    ("lat_p50_ms", "ms"),
    ("lat_p90_ms", "ms"),
    ("cpu_ms_per_op", "ms"),
    ("peak_rss_mb", "MB"),
    ("index_mb", "MB"),
];

/// `(name, unit)` of the per-layer metrics, printed by every traced run.
/// The prefix up to the last dot-separated word is the layer.
pub const PER_LAYER: &[(&str, &str)] = &[
    ("wed.step_dp.ns_per_cell", "ns"),
    ("wed.neighbors.us_per_call", "us"),
    ("core.filter.plan_us", "us"),
    ("core.filter.tsubseq_len", "count"),
    ("core.filter.candidates", "count"),
    ("core.filter.fallback_ratio", "ratio"),
    ("core.index.lookup_us", "us"),
    ("core.index.lookup_ns_per_posting", "ns"),
    ("core.index.build_ms", "ms"),
    ("core.index.bytes_per_posting", "B"),
    ("core.compact.lookup_ns_per_posting", "ns"),
    ("core.sharded.build_ms", "ms"),
    ("core.verify.ms_per_op", "ms"),
    ("core.verify.stepdp_calls", "count"),
    ("core.verify.columns_passed", "count"),
    ("core.verify.verify_cost", "count"),
    ("core.verify.upr", "ratio"),
    ("core.verify.cmr", "ratio"),
    ("core.verify.tur", "ratio"),
    ("core.verify.results_per_candidate", "ratio"),
    ("core.topk.ms_per_op", "ms"),
    ("core.topk.rounds_per_op", "count"),
    ("core.temporal.ms_per_op", "ms"),
    ("core.temporal.tf_prune_ratio", "ratio"),
    ("core.metric.dtw_ms_per_op", "ms"),
    ("core.metric.dtw_verify_cost", "count"),
    ("core.metric.frechet_ms_per_op", "ms"),
    ("core.metric.frechet_verify_cost", "count"),
    ("core.batch.cpu_over_wall", "ratio"),
    ("core.batch.trie_cache_hit_ratio", "ratio"),
    ("core.batch.stepdp_saved_ratio", "ratio"),
    ("core.json.query_decode_us", "us"),
    ("core.json.response_encode_us", "us"),
    ("core.json.response_bytes", "B"),
    ("serve.proto.request_decode_us", "us"),
    ("serve.proto.reply_encode_us", "us"),
    ("serve.frame_bytes_per_op", "B"),
    ("serve.queue_wait_p50_us", "us"),
    ("serve.server_wall_p50_us", "us"),
    ("serve.overhead_us", "us"),
    ("serve.lat_p99_ms", "ms"),
    ("serve.rejected_ratio", "ratio"),
    ("distrib.connect_ms", "ms"),
    ("distrib.rpcs_per_op", "count"),
    ("distrib.cold_query_us", "us"),
    ("distrib.warm_query_us", "us"),
    ("distrib.rpc_overhead_ratio", "ratio"),
    ("distrib.degraded_total", "count"),
    ("persist.write_ms", "ms"),
    ("persist.open_ms", "ms"),
    ("persist.decode_ms", "ms"),
    ("persist.first_query_ms", "ms"),
    ("persist.rebuild_ms", "ms"),
    ("persist.open_over_rebuild", "ratio"),
    ("persist.file_bytes_per_posting", "B"),
    ("persist.compact_bytes_per_posting", "B"),
    ("rnet.generate_s", "s"),
    ("rnet.hubs_build_s", "s"),
    ("traj.generate_s", "s"),
    ("warmup_s", "s"),
    ("obs.trace_overhead_ratio", "ratio"),
    ("obs.spans_per_op", "count"),
    ("ledger.residual_ratio", "ratio"),
];

/// Per-layer counts that repeat bit-for-bit for a seed. Untraced runs
/// print them too, so `selfcheck` can compare them across its six runs.
pub const EXACT: &[&str] = &[
    "core.filter.tsubseq_len",
    "core.filter.candidates",
    "core.verify.stepdp_calls",
    "core.verify.columns_passed",
    "core.verify.verify_cost",
    "core.metric.dtw_verify_cost",
    "core.metric.frechet_verify_cost",
    "core.json.response_bytes",
    "serve.frame_bytes_per_op",
];

/// Named values in first-set order; setting a name twice overwrites.
#[derive(Debug, Clone, Default)]
pub struct Values(Vec<(&'static str, f64)>);

impl Values {
    pub fn set(&mut self, name: &'static str, value: f64) {
        debug_assert!(
            unit_of(name).is_some(),
            "metric {name} is not declared in metrics.rs"
        );
        match self.0.iter_mut().find(|(n, _)| *n == name) {
            Some(slot) => slot.1 = value,
            None => self.0.push((name, value)),
        }
    }

    pub fn get(&self, name: &str) -> Option<f64> {
        self.0.iter().find(|(n, _)| *n == name).map(|&(_, v)| v)
    }

    pub fn iter(&self) -> impl Iterator<Item = (&'static str, f64)> + '_ {
        self.0.iter().copied()
    }

    /// Copies from `other` every value whose name starts with one of
    /// `prefixes`.
    pub fn adopt(&mut self, other: &Values, prefixes: &[&str]) {
        for (name, value) in other.iter() {
            if prefixes.iter().any(|p| name.starts_with(p)) {
                self.set(name, value);
            }
        }
    }
}

pub fn unit_of(name: &str) -> Option<&'static str> {
    END_TO_END
        .iter()
        .chain(PER_LAYER)
        .find(|(n, _)| *n == name)
        .map(|&(_, unit)| unit)
}
