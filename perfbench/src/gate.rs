//! The correctness gate. Every check returns `Err` with a reason; the
//! benchmark then exits non-zero without printing metrics.

use secreta_core::store::Sha256;
use secreta_core::{CacheStats, Indicators, Orchestrated};

/// One job's outcome, flattened out of a comparison result in
/// configuration order, then sweep order.
#[derive(Debug, Clone, PartialEq)]
pub struct JobOutcome {
    /// `label@value`, for messages.
    pub job: String,
    /// The indicators, or the run error's text.
    pub result: Result<Indicators, String>,
}

/// Flatten an orchestrated sweep into per-job outcomes.
pub fn outcomes(out: &Orchestrated) -> Vec<JobOutcome> {
    let r = &out.result;
    r.labels
        .iter()
        .zip(&r.points)
        .flat_map(|(label, points)| {
            points.iter().map(move |(value, point)| JobOutcome {
                job: format!("{label}@{}={value}", r.param.label()),
                result: point
                    .as_ref()
                    .map(|p| p.indicators.clone())
                    .map_err(|e| e.to_string()),
            })
        })
        .collect()
}

/// Every job succeeded, verified its guarantee and passed its risk
/// audit.
pub fn check_jobs(jobs: &[JobOutcome]) -> Result<(), String> {
    if jobs.is_empty() {
        return Err("the sweep produced no jobs".to_owned());
    }
    for j in jobs {
        let ind = j
            .result
            .as_ref()
            .map_err(|e| format!("{}: job failed: {e}", j.job))?;
        if !ind.verified {
            return Err(format!("{}: output not verified", j.job));
        }
        match &ind.risk {
            Some(risk) if risk.audit.passed => {}
            Some(risk) => {
                return Err(format!(
                    "{}: risk audit of {} failed with {} violations",
                    j.job, risk.audit.guarantee, risk.audit.violations
                ))
            }
            None => return Err(format!("{}: no risk audit", j.job)),
        }
    }
    Ok(())
}

/// A cold sweep into a fresh store: every job executed, none failed.
pub fn check_cold(stats: CacheStats, jobs: &[JobOutcome]) -> Result<(), String> {
    check_jobs(jobs)?;
    let n = jobs.len() as u64;
    if stats.misses != n || stats.hits != 0 || stats.failures != 0 {
        return Err(format!(
            "cold sweep: expected {n} executed jobs, got {} hits, {} misses, {} failures",
            stats.hits, stats.misses, stats.failures
        ));
    }
    Ok(())
}

/// The warm sweep replayed every job (100% hits) and reproduced the
/// cold indicators exactly, `runtime_ms` included.
pub fn check_warm(
    stats: CacheStats,
    cold: &[JobOutcome],
    warm: &[JobOutcome],
) -> Result<(), String> {
    let n = cold.len() as u64;
    if stats.hits != n || stats.misses != 0 || stats.failures != 0 {
        return Err(format!(
            "warm sweep: expected {n} hits, got {} hits, {} misses, {} failures",
            stats.hits, stats.misses, stats.failures
        ));
    }
    same_indicators("warm sweep", cold, warm, false)
}

/// `other` has the same jobs as `reference` with equal indicators;
/// with `ignore_runtime`, `runtime_ms` is left out of the comparison.
pub fn same_indicators(
    what: &str,
    reference: &[JobOutcome],
    other: &[JobOutcome],
    ignore_runtime: bool,
) -> Result<(), String> {
    if reference.len() != other.len() {
        return Err(format!(
            "{what}: {} jobs against {} expected",
            other.len(),
            reference.len()
        ));
    }
    for (a, b) in reference.iter().zip(other) {
        if a.job != b.job {
            return Err(format!(
                "{what}: job {} where {} was expected",
                b.job, a.job
            ));
        }
        let (mut x, mut y) = match (&a.result, &b.result) {
            (Ok(x), Ok(y)) => (x.clone(), y.clone()),
            _ => return Err(format!("{what}: {} did not succeed on both sides", a.job)),
        };
        if ignore_runtime {
            x.runtime_ms = 0.0;
            y.runtime_ms = 0.0;
        }
        if x != y {
            return Err(format!(
                "{what}: indicators of {} differ\n  expected {}\n  got      {}",
                a.job,
                serde_json::to_string(&x).unwrap_or_default(),
                serde_json::to_string(&y).unwrap_or_default()
            ));
        }
    }
    Ok(())
}

/// SHA-256 over every job's indicators except `runtime_ms`, in job
/// order: two runs of one seed print the same digest.
pub fn digest(jobs: &[JobOutcome]) -> String {
    let mut h = Sha256::new();
    for j in jobs {
        h.update(j.job.as_bytes());
        h.update(b"\0");
        match &j.result {
            Ok(ind) => {
                let mut ind = ind.clone();
                ind.runtime_ms = 0.0;
                h.update(serde_json::to_string(&ind).unwrap_or_default().as_bytes());
            }
            Err(e) => h.update(e.as_bytes()),
        }
        h.update(b"\n");
    }
    h.finalize_hex()
}
