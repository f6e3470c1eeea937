//! Metric names and units, the result header, and the result line.
//!
//! `BENCHMARK.json` at the repository root lists the same names; a test
//! below keeps the two in step.

use std::collections::BTreeMap;
use std::process::Command;

/// End-to-end metrics, printed by an untraced run: `(name, unit)`.
pub const END_TO_END: &[(&str, &str)] = &[
    ("throughput_qps", "labels/s"),
    ("latency_p50_us", "us"),
    ("latency_p99_us", "us"),
    ("setup_s", "s"),
    ("rss_mb", "MiB"),
];

/// Per-layer metrics, printed by a traced run: `(name, unit)`. The
/// prefix is the crate the number belongs to; `client.` is the harness.
pub const PER_LAYER: &[(&str, &str)] = &[
    ("client.submit_ns_p50", "ns"),
    ("client.wait_us_p50", "us"),
    ("client.lateness_p99_us", "us"),
    ("client.rate50.latency_p99_us", "us"),
    ("client.rate600.latency_p99_us", "us"),
    ("client.failed_share", "ratio"),
    ("client.sgx_cost_us_per_query", "us"),
    ("client.deploy_p50_ms", "ms"),
    ("client.traced_throughput_qps", "labels/s"),
    ("client.trace_overhead_pct", "%"),
    ("serve.fast_hit_share", "ratio"),
    ("serve.lru_hit_share", "ratio"),
    ("serve.fastcache.probe_ns", "ns"),
    ("serve.fastcache.publish_ns", "ns"),
    ("serve.cache.get_ns", "ns"),
    ("serve.cache.insert_ns", "ns"),
    ("serve.sentinel.submit_overhead_ns", "ns"),
    ("serve.batcher.idle_flush_us", "us"),
    ("serve.batcher.hop_us", "us"),
    ("serve.batch_nodes_mean", "count"),
    ("serve.full_flush_share", "ratio"),
    ("serve.deadline_flush_share", "ratio"),
    ("serve.queue_high_water", "count"),
    ("serve.queued_latency_p50_us", "us"),
    ("serve.queued_latency_p99_us", "us"),
    ("serve.fast_latency_p50_ns", "ns"),
    ("serve.shed_share", "ratio"),
    ("serve.timed_out", "count"),
    ("serve.engine.start_ms", "ms"),
    ("serve.engine.shutdown_ms", "ms"),
    ("serve.engine.deploy_ms", "ms"),
    ("gnnvault.infer_batch1_ms", "ms"),
    ("gnnvault.infer_batch64_ms", "ms"),
    ("gnnvault.infer_batch64_int8_ms", "ms"),
    ("gnnvault.infer_full_ms", "ms"),
    ("gnnvault.infer_node_ms", "ms"),
    ("gnnvault.backbone_ms", "ms"),
    ("gnnvault.report.rectifier_us", "us"),
    ("gnnvault.report.transfer_us", "us"),
    ("gnnvault.snapshot_ms", "ms"),
    ("gnnvault.restore_ms", "ms"),
    ("gnnvault.partition_snapshots_ms", "ms"),
    ("gnnvault.sealed_bytes", "bytes"),
    ("gnnvault.train_s", "s"),
    ("tee.transitions_per_query", "count"),
    ("tee.bytes_per_query", "bytes"),
    ("tee.peak_enclave_bytes", "bytes"),
    ("tee.codec.encode_ms", "ms"),
    ("tee.codec.decode_ms", "ms"),
    ("tee.seal_ms", "ms"),
    ("tee.unseal_ms", "ms"),
    ("linalg.gemm_l1_ms", "ms"),
    ("linalg.gemm_l2_ms", "ms"),
    ("linalg.spmm_l1_ms", "ms"),
    ("linalg.gemm_l1_gflops", "gflop/s"),
    ("linalg.pool_width", "count"),
    ("graph.partition_ms", "ms"),
    ("graph.ego_ms", "ms"),
    ("graph.normalize_ms", "ms"),
];

/// The values one run reports, keyed by metric name.
#[derive(Debug, Default)]
pub struct Metrics(BTreeMap<&'static str, f64>);

impl Metrics {
    pub fn set(&mut self, name: &'static str, value: f64) {
        let fresh = self.0.insert(name, value).is_none();
        assert!(fresh, "metric {name} set twice");
    }

    pub fn get(&self, name: &str) -> f64 {
        self.0[name]
    }
}

/// What a run was: printed before its numbers, so a result can be read
/// without the command line that produced it.
pub struct Header<'a> {
    pub workload: &'a str,
    pub seed: u64,
    pub window_s: f64,
    pub warmup_s: f64,
    pub setups: usize,
    pub traced: bool,
}

fn commit() -> String {
    Command::new("git")
        .args(["rev-parse", "--short", "HEAD"])
        .stderr(std::process::Stdio::null())
        .output()
        .ok()
        .filter(|out| out.status.success())
        .and_then(|out| String::from_utf8(out.stdout).ok())
        .map_or_else(|| "unknown".into(), |s| s.trim().to_string())
}

pub fn print_header(h: &Header<'_>) {
    let nproc = std::thread::available_parallelism().map_or(0, usize::from);
    println!("# vaultbench {} seed {}", h.workload, h.seed);
    println!("# commit: {}", commit());
    println!("# rustc: {}", env!("VAULTBENCH_RUSTC"));
    println!(
        "# nproc: {nproc}  linalg pool width: {}  kernel: {:?}  LINALG_NUM_THREADS: {}",
        linalg::pool::num_threads(),
        linalg::kernel_variant(),
        std::env::var("LINALG_NUM_THREADS").unwrap_or_else(|_| "unset".into()),
    );
    println!(
        "# window: {} s  warm-up: {} s  set-ups: {}  traced: {}  client threads: {}",
        h.window_s,
        h.warmup_s,
        h.setups,
        h.traced,
        crate::workload::CLIENTS
    );
    println!("# fixture: {}", crate::fixture::FIXTURE_DESCRIPTION);
}

/// Prints `defs` in order as a table, then the one-line JSON result the
/// driver reads. Panics if `metrics` does not hold exactly `defs`.
pub fn print_result(
    defs: &[(&'static str, &'static str)],
    metrics: &Metrics,
    correct: bool,
    attempted: u64,
    failed: u64,
) {
    assert_eq!(
        metrics.0.len(),
        defs.len(),
        "metrics reported and metrics defined differ"
    );
    let mut fields = Vec::with_capacity(defs.len());
    for &(name, unit) in defs {
        let value = metrics.get(name);
        assert!(value.is_finite(), "metric {name} is {value}");
        println!("{name:<36} {value:>16.4} {unit}");
        fields.push(format!(
            "\"{name}\": {{\"value\": {value}, \"unit\": \"{unit}\"}}"
        ));
    }
    println!(
        "{{\"correct\": {correct}, \"attempted\": {attempted}, \"failed\": {failed}, \"metrics\": {{{}}}}}",
        fields.join(", ")
    );
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::workload::Workload;

    const MANIFEST: &str = include_str!("../../BENCHMARK.json");

    fn well_formed(name: &str) -> bool {
        let mut chars = name.chars();
        chars.next().is_some_and(|c| c.is_ascii_alphanumeric())
            && name.len() <= 64
            && chars.all(|c| c.is_ascii_alphanumeric() || matches!(c, '_' | '.' | '-'))
    }

    #[test]
    fn names_and_units_fit_the_charset_and_are_unique() {
        let mut seen = std::collections::BTreeSet::new();
        let workloads = Workload::ALL.map(|w| (w.name(), "count"));
        for &(name, unit) in END_TO_END.iter().chain(PER_LAYER).chain(&workloads) {
            assert!(well_formed(name), "bad metric name {name:?}");
            assert!(seen.insert(name), "{name} used twice");
            assert!(
                !unit.is_empty()
                    && unit.len() <= 16
                    && unit
                        .chars()
                        .all(|c| c.is_ascii_alphanumeric()
                            || matches!(c, '_' | '/' | '%' | '.' | '-')),
                "bad unit {unit:?}"
            );
        }
        assert!(!well_formed(".x") && !well_formed("a b") && !well_formed(""));
        assert!(PER_LAYER.len() <= 128 && END_TO_END.len() <= 16);
    }

    #[test]
    fn benchmark_json_lists_exactly_these_names() {
        let workloads = Workload::ALL.map(|w| (w.name(), ""));
        let all = || END_TO_END.iter().chain(PER_LAYER).chain(&workloads);
        for &(name, unit) in all() {
            assert!(
                MANIFEST.contains(&format!("\"name\": \"{name}\"")),
                "BENCHMARK.json lacks {name}"
            );
            if !unit.is_empty() {
                assert!(
                    MANIFEST.contains(&format!("\"name\": \"{name}\", \"unit\": \"{unit}\"")),
                    "BENCHMARK.json gives {name} another unit than {unit}"
                );
            }
        }
        assert_eq!(MANIFEST.matches("\"name\": ").count(), all().count());
    }
}
