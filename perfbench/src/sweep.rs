//! Cold and warm sweeps through `Orchestrator::compare`, timed from
//! outside and gated for correctness.

use crate::gate::{self, JobOutcome};
use crate::sys;
use secreta_core::store::RunStore;
use secreta_core::{Configuration, Orchestrated, Orchestrator, SessionContext};
use serde::Value;
use std::path::Path;
use std::time::{Duration, Instant};

/// One cold sweep into a fresh store.
#[derive(Debug)]
pub struct Cold {
    /// Wall time of `compare`.
    pub wall: Duration,
    /// Process CPU seconds (user + system) spent during it.
    pub cpu_s: f64,
    /// Per-job outcomes.
    pub jobs: Vec<JobOutcome>,
}

/// Run `configurations` once on `threads` evaluator threads into a
/// fresh store at `store_dir`, and gate the outcome: every job
/// executed, verified and passed its risk audit.
pub fn cold(
    ctx: &SessionContext,
    configurations: &[Configuration],
    threads: usize,
    store_dir: &Path,
) -> Result<(Cold, RunStore), String> {
    let store = RunStore::open(store_dir).map_err(|e| e.to_string())?;
    let orch = Orchestrator::new(threads).with_store(store.clone());
    let cpu0 = sys::cpu_seconds();
    let t = Instant::now();
    let out = compare(&orch, ctx, configurations)?;
    let wall = t.elapsed();
    let cpu_s = sys::cpu_seconds() - cpu0;
    let jobs = gate::outcomes(&out);
    gate::check_cold(out.stats, &jobs)?;
    Ok((Cold { wall, cpu_s, jobs }, store))
}

/// Re-run the same sweep against `store`, which holds every job: time
/// it and gate that it replayed everything and reproduced `cold`.
pub fn warm(
    ctx: &SessionContext,
    configurations: &[Configuration],
    threads: usize,
    store: RunStore,
    cold: &[JobOutcome],
) -> Result<Duration, String> {
    let orch = Orchestrator::new(threads).with_store(store);
    let t = Instant::now();
    let out = compare(&orch, ctx, configurations)?;
    let wall = t.elapsed();
    gate::check_warm(out.stats, cold, &gate::outcomes(&out))?;
    Ok(wall)
}

fn compare(
    orch: &Orchestrator,
    ctx: &SessionContext,
    configurations: &[Configuration],
) -> Result<Orchestrated, String> {
    orch.compare(ctx, configurations, Value::Null)
        .map_err(|e| format!("store: {e}"))
}
