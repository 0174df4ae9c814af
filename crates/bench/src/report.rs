//! Versioned benchmark reports with baseline comparison.
//!
//! Every `secreta bench` suite emits a [`BenchReport`]: a
//! schema-versioned JSON document carrying the suite parameters, a
//! [`Machine`] fingerprint, a CPU-speed calibration constant, and one
//! [`BenchCase`] per measured case with the spread of its repetitions.
//! A report can later be fed back through `--baseline FILE`:
//! [`compare`] checks that the two reports measured the same thing
//! (schema, suite, rows, seed, threads, parameters) and returns
//! per-case deltas of *calibration-normalized* minimum wall times, so
//! a faster or slower CI machine shifts both sides of the ratio and
//! the >25% regression gate tracks real slowdowns instead of host
//! lottery.
//!
//! Fields added after the first layout are `#[serde(default)]`, so
//! reports written before them still load and compare under the same
//! [`SCHEMA_VERSION`].

use serde::{Deserialize, Serialize, Value};
use std::collections::BTreeMap;
use std::time::Instant;

/// Version of the report JSON layout. Bump on any breaking change to
/// the structs below; [`compare`] refuses mismatched versions.
pub const SCHEMA_VERSION: u32 = 1;

/// Coarse machine fingerprint recorded in every report. Not used for
/// normalization (that is what `calibration_ms` is for) — it exists so
/// a human reading two reports can see when they came from different
/// hardware.
#[derive(Debug, Clone, Default, PartialEq, Serialize, Deserialize)]
pub struct Machine {
    /// `std::env::consts::OS` of the measuring process.
    pub os: String,
    /// `std::env::consts::ARCH` of the measuring process.
    pub arch: String,
    /// Logical CPUs visible to the process.
    pub cpus: usize,
}

/// The fingerprint of the current machine.
pub fn machine_fingerprint() -> Machine {
    Machine {
        os: std::env::consts::OS.to_owned(),
        arch: std::env::consts::ARCH.to_owned(),
        cpus: std::thread::available_parallelism()
            .map(|n| n.get())
            .unwrap_or(1),
    }
}

/// One named phase of a measured run, in the order it ran.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct Phase {
    /// Phase name as the algorithm reports it.
    pub name: String,
    /// Wall time in milliseconds.
    pub ms: f64,
}

/// The spread of one timed path over its repetitions.
#[derive(Debug, Clone, Default, PartialEq, Serialize, Deserialize)]
pub struct Timing {
    /// Fastest repetition (ms).
    pub wall_ms: f64,
    /// Median repetition (ms).
    pub median_ms: f64,
    /// Slowest repetition (ms).
    pub max_ms: f64,
    /// Phase breakdown of the fastest repetition.
    pub phases: Vec<Phase>,
}

impl Timing {
    /// Summarize per-repetition `(wall_ms, phases)` samples; an empty
    /// sample set gives the all-zero timing.
    pub fn of(mut samples: Vec<(f64, Vec<Phase>)>) -> Timing {
        samples.sort_by(|a, b| a.0.total_cmp(&b.0));
        let n = samples.len();
        if n == 0 {
            return Timing::default();
        }
        let median_ms = (samples[(n - 1) / 2].0 + samples[n / 2].0) / 2.0;
        let max_ms = samples[n - 1].0;
        let (wall_ms, phases) = samples.swap_remove(0);
        Timing {
            wall_ms,
            median_ms,
            max_ms,
            phases,
        }
    }
}

/// One measured case of a suite run.
#[derive(Debug, Clone, Default, PartialEq, Serialize, Deserialize)]
pub struct BenchCase {
    /// Stable case id, e.g. `tx/coat` or `apriori/1000`.
    pub id: String,
    /// Best-of-`reps` wall time in milliseconds — what [`compare`]
    /// gates on.
    pub wall_ms: f64,
    /// Repetitions measured.
    pub reps: usize,
    /// Median repetition (ms).
    #[serde(default)]
    pub median_ms: f64,
    /// Slowest repetition (ms).
    #[serde(default)]
    pub max_ms: f64,
    /// Phase breakdown of the fastest repetition, in run order.
    #[serde(default)]
    pub phases: Vec<Phase>,
    /// The reference path this case is measured against (naive
    /// oracle, cold store, in-process run, …), when it has one.
    #[serde(default)]
    pub reference: Option<Timing>,
    /// Whether this case published exactly the reference's output.
    #[serde(default)]
    pub outputs_identical: Option<bool>,
    /// Scale cases: whether the point ran out of its memory budget.
    #[serde(default)]
    pub budget_exceeded: Option<bool>,
    /// Scale cases: the typed error of an over-budget point.
    #[serde(default)]
    pub error: Option<String>,
    /// Memory figures in bytes (scale cases: the accounted ingest
    /// peak, the table footprint and the process peak RSS).
    #[serde(default)]
    pub bytes: BTreeMap<String, u64>,
}

/// A full `secreta bench` result document.
#[derive(Debug, Clone, Default, PartialEq, Serialize, Deserialize)]
pub struct BenchReport {
    /// Layout version — see [`SCHEMA_VERSION`].
    pub schema_version: u32,
    /// Suite name (`all` for the gate suite).
    pub suite: String,
    /// Largest dataset size measured (the only one for single-size
    /// suites; the full `--rows` list is in `params`).
    pub rows: usize,
    /// Dataset seed.
    pub seed: u64,
    /// Thread cap the suite ran with.
    pub threads: usize,
    /// Where the report was measured.
    pub machine: Machine,
    /// Single-core spin-loop calibration (milliseconds, best of
    /// several) measured by [`calibrate`] just before the cases —
    /// the denominator that makes reports comparable across hosts.
    pub calibration_ms: f64,
    /// The measured cases.
    pub cases: Vec<BenchCase>,
    /// Every other suite parameter (dataset, k, row list, what the
    /// reference path is, …).
    #[serde(default)]
    pub params: BTreeMap<String, Value>,
}

/// Per-case outcome of [`compare`].
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct CaseDelta {
    /// Case id shared by both reports.
    pub id: String,
    /// Baseline wall time (ms).
    pub base_ms: f64,
    /// New wall time (ms).
    pub new_ms: f64,
    /// `(new_ms / new_calibration) / (base_ms / base_calibration) - 1`,
    /// as a percentage; positive = regression.
    pub delta_pct: f64,
}

/// Iterations of the calibration spin loop (one sample).
const CALIBRATE_ITERS: u64 = 10_000_000;
/// Samples taken; the fastest is the calibration constant.
const CALIBRATE_SAMPLES: usize = 5;

/// Measure a fixed single-threaded integer spin loop and return the
/// fastest sample's wall time in milliseconds — a unit of "how fast
/// this machine runs scalar Rust", used to normalize wall times before
/// comparing reports across hosts.
pub fn calibrate() -> f64 {
    let mut best = f64::INFINITY;
    for _ in 0..CALIBRATE_SAMPLES {
        let start = Instant::now();
        let mut z = 0x9e37_79b9_7f4a_7c15u64;
        for _ in 0..CALIBRATE_ITERS {
            z ^= z << 13;
            z ^= z >> 7;
            z ^= z << 17;
            // keep the loop honest: no vectorizing or folding it away
            z = std::hint::black_box(z);
        }
        let ms = start.elapsed().as_secs_f64() * 1e3;
        if ms < best {
            best = ms;
        }
    }
    best
}

/// Compare `new` against `base`: verify the reports measured the same
/// suite under the same parameters, then return one [`CaseDelta`] per
/// baseline case (order of the baseline). Errors on schema/parameter
/// mismatch (a baseline without `params` predates them and is checked
/// on rows/seed/threads alone), on a non-positive calibration, and on a baseline case the
/// new report no longer contains; extra new cases are ignored (adding
/// a case must not fail old baselines).
pub fn compare(base: &BenchReport, new: &BenchReport) -> Result<Vec<CaseDelta>, String> {
    if base.schema_version != SCHEMA_VERSION || new.schema_version != SCHEMA_VERSION {
        return Err(format!(
            "schema mismatch: baseline v{}, new v{}, supported v{SCHEMA_VERSION} \
             (regenerate the baseline with tools/update_bench_baseline.sh)",
            base.schema_version, new.schema_version
        ));
    }
    if base.suite != new.suite {
        return Err(format!(
            "suite mismatch: {:?} vs {:?}",
            base.suite, new.suite
        ));
    }
    if (base.rows, base.seed, base.threads) != (new.rows, new.seed, new.threads) {
        return Err(format!(
            "parameter mismatch: baseline rows={} seed={} threads={}, \
             new rows={} seed={} threads={}",
            base.rows, base.seed, base.threads, new.rows, new.seed, new.threads
        ));
    }
    if !base.params.is_empty() && base.params != new.params {
        return Err(format!(
            "parameter mismatch: baseline {:?}, new {:?}",
            base.params, new.params
        ));
    }
    // rejects NaN and infinities too, not just zero and negatives
    let usable = |c: f64| c.is_finite() && c > 0.0;
    if !usable(base.calibration_ms) || !usable(new.calibration_ms) {
        return Err("non-positive calibration constant".to_owned());
    }
    let mut deltas = Vec::with_capacity(base.cases.len());
    for bc in &base.cases {
        let nc = new
            .cases
            .iter()
            .find(|c| c.id == bc.id)
            .ok_or_else(|| format!("case {:?} missing from the new report", bc.id))?;
        let base_norm = bc.wall_ms / base.calibration_ms;
        let new_norm = nc.wall_ms / new.calibration_ms;
        let delta_pct = if base_norm > 0.0 {
            (new_norm / base_norm - 1.0) * 100.0
        } else {
            0.0
        };
        deltas.push(CaseDelta {
            id: bc.id.clone(),
            base_ms: bc.wall_ms,
            new_ms: nc.wall_ms,
            delta_pct,
        });
    }
    Ok(deltas)
}

/// The deltas exceeding `gate_pct` percent regression.
pub fn regressions(deltas: &[CaseDelta], gate_pct: f64) -> Vec<&CaseDelta> {
    deltas.iter().filter(|d| d.delta_pct > gate_pct).collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    fn report(cases: &[(&str, f64)], calibration_ms: f64) -> BenchReport {
        BenchReport {
            schema_version: SCHEMA_VERSION,
            suite: "all".to_owned(),
            rows: 800,
            seed: crate::SEED,
            threads: 2,
            machine: machine_fingerprint(),
            calibration_ms,
            cases: cases
                .iter()
                .map(|&(id, wall_ms)| BenchCase {
                    id: id.to_owned(),
                    wall_ms,
                    reps: 3,
                    ..Default::default()
                })
                .collect(),
            ..Default::default()
        }
    }

    #[test]
    fn report_roundtrips_through_json() {
        let r = report(&[("tx/coat", 12.5), ("metrics/gcp", 0.75)], 30.0);
        let json = serde_json::to_string_pretty(&r).unwrap();
        let back: BenchReport = serde_json::from_str(&json).unwrap();
        assert_eq!(back, r);
    }

    #[test]
    fn identical_reports_have_zero_delta() {
        let r = report(&[("a", 10.0), ("b", 5.0)], 20.0);
        let deltas = compare(&r, &r).unwrap();
        assert_eq!(deltas.len(), 2);
        assert!(deltas.iter().all(|d| d.delta_pct.abs() < 1e-12));
        assert!(regressions(&deltas, 25.0).is_empty());
    }

    #[test]
    fn calibration_normalizes_host_speed() {
        // same workload measured on a machine running everything 2x
        // slower (wall times and calibration both double): no delta
        let base = report(&[("a", 10.0)], 20.0);
        let slow_host = report(&[("a", 20.0)], 40.0);
        let deltas = compare(&base, &slow_host).unwrap();
        assert!(deltas[0].delta_pct.abs() < 1e-12, "{deltas:?}");
        // a genuine 2x slowdown on the same host trips the gate
        let regressed = report(&[("a", 20.0)], 20.0);
        let deltas = compare(&base, &regressed).unwrap();
        assert!((deltas[0].delta_pct - 100.0).abs() < 1e-9);
        assert_eq!(regressions(&deltas, 25.0).len(), 1);
    }

    #[test]
    fn mismatched_reports_are_rejected() {
        let base = report(&[("a", 10.0)], 20.0);
        let mut other = base.clone();
        other.rows = 999;
        assert!(compare(&base, &other).is_err());
        let mut other = base.clone();
        other.schema_version = SCHEMA_VERSION + 1;
        assert!(compare(&base, &other).is_err());
        let mut other = base.clone();
        other.cases.clear();
        assert!(compare(&base, &other).is_err());
        // extra cases in the new report are fine
        let mut other = base.clone();
        other.cases.push(BenchCase {
            id: "new-case".to_owned(),
            wall_ms: 1.0,
            reps: 3,
            ..Default::default()
        });
        assert_eq!(compare(&base, &other).unwrap().len(), 1);
    }

    #[test]
    fn committed_baseline_loads_and_gates_against_itself() {
        let text = include_str!("../../../benches/baseline.json");
        let base: BenchReport = serde_json::from_str(text).unwrap();
        assert_eq!(base.schema_version, SCHEMA_VERSION);
        assert!(base.cases.iter().all(|c| c.reference.is_none()));
        // `secreta bench --all` records the gate's fixed workload in the
        // baseline, so `compare` refuses a run measured on another
        let params: Vec<&str> = base.params.keys().map(String::as_str).collect();
        assert_eq!(params, ["items", "k", "m", "rows"]);
        let deltas = compare(&base, &base).unwrap();
        assert_eq!(deltas.len(), base.cases.len());
        assert!(regressions(&deltas, 25.0).is_empty());
        // a report that records parameters is checked on them too
        let mut with_params = base.clone();
        with_params.params.insert("k".to_owned(), Value::U64(10));
        assert!(compare(&base, &with_params).is_ok());
        let mut other = with_params.clone();
        other.params.insert("k".to_owned(), Value::U64(5));
        assert!(compare(&with_params, &other).is_err());
    }

    #[test]
    fn timing_summarizes_min_median_max() {
        let phase = |ms| {
            vec![Phase {
                name: "run".to_owned(),
                ms,
            }]
        };
        let t = Timing::of(vec![
            (3.0, phase(3.0)),
            (1.0, phase(1.0)),
            (2.0, phase(2.0)),
        ]);
        assert_eq!((t.wall_ms, t.median_ms, t.max_ms), (1.0, 2.0, 3.0));
        assert_eq!(t.phases, phase(1.0));
        let even = Timing::of(vec![(4.0, vec![]), (1.0, vec![])]);
        assert_eq!((even.wall_ms, even.median_ms, even.max_ms), (1.0, 2.5, 4.0));
        assert_eq!(Timing::of(Vec::new()), Timing::default());
    }

    #[test]
    fn calibration_is_positive_and_finite() {
        let c = calibrate();
        assert!(c.is_finite() && c > 0.0);
    }
}
