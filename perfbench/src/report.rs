//! The metric catalogue and the result line.
//!
//! Every metric the benchmark can print is named here once, with its
//! unit; `BENCHMARK.json` and the reference table in `README.md` list
//! the same names (a self-test keeps them in step).

use serde::Value;
use std::collections::BTreeMap;

/// A metric's name and unit.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Metric {
    /// Name as printed.
    pub name: &'static str,
    /// Unit as printed.
    pub unit: &'static str,
}

const fn m(name: &'static str, unit: &'static str) -> Metric {
    Metric { name, unit }
}

/// End-to-end metrics: printed by an untraced run (`--trace 0`).
pub const END_TO_END: &[Metric] = &[
    m("setup_s", "s"),
    m("sweep_s", "s"),
    m("sweep_cpu_s", "s"),
    m("replay_s", "s"),
    m("peak_rss_mb", "MiB"),
];

/// Per-layer metrics: printed by a traced run (`--trace 1`).
pub const PER_LAYER: &[Metric] = &[
    m("data.ingest_ms", "ms"),
    m("data.accounted_peak_mb", "MiB"),
    m("data.rows", "count"),
    m("hierarchy.build_ms", "ms"),
    m("policy.load_ms", "ms"),
    m("relational.anonymize_ms", "ms"),
    m("relational.cluster_ncp_evals", "count"),
    m("relational.incognito_anonymity_checks", "count"),
    m("relational.incognito_rolled_classes", "count"),
    m("relational.topdown_candidate_checks", "count"),
    m("relational.bottomup_class_scans", "count"),
    m("transaction.anonymize_ms", "ms"),
    m("transaction.support_bitmap_intersections", "count"),
    m("transaction.support_posting_unions", "count"),
    m("transaction.support_rows_reenumerated", "count"),
    m("rt.anonymize_ms", "ms"),
    m("rt.merges", "count"),
    m("rt.clusters", "count"),
    m("metrics.gcp_ms", "ms"),
    m("metrics.are_ms", "ms"),
    m("metrics.tx_gcp_ms", "ms"),
    m("metrics.ul_ms", "ms"),
    m("metrics.freq_ms", "ms"),
    m("metrics.classes_ms", "ms"),
    m("metrics.are_row_scans", "count"),
    m("risk.evaluate_ms", "ms"),
    m("risk.tx_intersections", "count"),
    m("risk.tx_subsets", "count"),
    m("risk.rel_classes", "count"),
    m("store.put_ms", "ms"),
    m("store.get_ms", "ms"),
    m("store.bytes_written", "bytes"),
    m("store.hit_ratio", "ratio"),
    m("core.verify_ms", "ms"),
    m("core.traced_wall_ms", "ms"),
    m("core.unattributed_ms", "ms"),
    m("core.parallel_efficiency", "ratio"),
    m("core.reported_runtime_ratio", "ratio"),
    m("obsv.trace_overhead_pct", "%"),
];

/// The program's own counters that the traced run reports, as
/// (counter name, metric name).
pub const COUNTERS: &[(&str, &str)] = &[
    ("cluster/ncp_evals", "relational.cluster_ncp_evals"),
    (
        "incognito/anonymity_checks",
        "relational.incognito_anonymity_checks",
    ),
    (
        "incognito/rolled_classes",
        "relational.incognito_rolled_classes",
    ),
    (
        "topdown/candidate_checks",
        "relational.topdown_candidate_checks",
    ),
    ("bottomup/class_scans", "relational.bottomup_class_scans"),
    (
        "support/bitmap_intersections",
        "transaction.support_bitmap_intersections",
    ),
    (
        "support/posting_unions",
        "transaction.support_posting_unions",
    ),
    (
        "support/rows_reenumerated",
        "transaction.support_rows_reenumerated",
    ),
    ("rt/merges", "rt.merges"),
    ("rt/clusters", "rt.clusters"),
    ("risk/tx_intersections", "risk.tx_intersections"),
    ("risk/tx_subsets", "risk.tx_subsets"),
    ("risk/rel_classes", "risk.rel_classes"),
];

/// Named metric values of one run.
pub type Values = BTreeMap<&'static str, f64>;

/// The median of `xs` (the mean of the middle two for even lengths).
pub fn median(xs: &[f64]) -> f64 {
    let mut v = xs.to_vec();
    v.sort_by(f64::total_cmp);
    match v.len() {
        0 => 0.0,
        n if n % 2 == 1 => v[n / 2],
        n => (v[n / 2 - 1] + v[n / 2]) / 2.0,
    }
}

/// Per-metric medians over several samples.
pub fn medians(samples: &[Values]) -> Values {
    let mut out = Values::new();
    for name in samples.iter().flat_map(|s| s.keys()) {
        let xs: Vec<f64> = samples
            .iter()
            .filter_map(|s| s.get(name).copied())
            .collect();
        out.insert(name, median(&xs));
    }
    out
}

/// The result line of a run that passed the gate: `correct`,
/// `attempted`, `failed` and every metric of `catalogue` with its unit.
/// A failed job trips the gate before any line is printed, so `failed`
/// is always 0. Errors when `values` lacks a metric.
pub fn result_line(
    catalogue: &[Metric],
    values: &Values,
    attempted: u64,
) -> Result<String, String> {
    let mut metrics = Vec::with_capacity(catalogue.len());
    for metric in catalogue {
        let v = *values
            .get(metric.name)
            .ok_or_else(|| format!("metric {} was not measured", metric.name))?;
        if !v.is_finite() {
            return Err(format!("metric {} is not finite: {v}", metric.name));
        }
        metrics.push((
            metric.name.to_owned(),
            Value::Obj(vec![
                ("value".to_owned(), Value::F64(v)),
                ("unit".to_owned(), Value::Str(metric.unit.to_owned())),
            ]),
        ));
    }
    let line = Value::Obj(vec![
        ("correct".to_owned(), Value::Bool(true)),
        ("attempted".to_owned(), Value::U64(attempted)),
        ("failed".to_owned(), Value::U64(0)),
        ("metrics".to_owned(), Value::Obj(metrics)),
    ]);
    serde_json::to_string(&line).map_err(|e| e.to_string())
}
