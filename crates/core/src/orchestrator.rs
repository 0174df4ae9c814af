//! The experiment orchestrator: cached, journaled, resumable sweeps.
//!
//! The Experimentation Module's two modes — single-method evaluation
//! and multi-method comparison — both expand into the same shape of
//! work: a list of configurations, each swept over a varying
//! parameter, yielding a DAG of independent (spec, sweep point, seed)
//! jobs. This module owns that expansion and the one sweep driver
//! that runs it, adding three properties on top of a plain fan-out:
//!
//! * **Caching** — with a [`RunStore`] attached, every job is content
//!   addressed (see [`secreta_store::key`]) and looked up before it
//!   runs. A hit replays the stored table, indicators and phase
//!   timings without touching the algorithms; re-running an identical
//!   experiment does zero anonymization work and produces
//!   byte-identical results (every stored field round-trips JSON
//!   exactly).
//! * **Journaling** — a [`SweepRecord`] intent event is appended to
//!   the store's write-ahead journal *before* any job starts, and
//!   per-job start/finish events plus a final hit/miss summary follow.
//!   The journal doubles as the observability layer: cache counters,
//!   per-job wall time and scheduling order all come from it.
//! * **Resumability** — because results are individually durable and
//!   the intent record carries the full invocation, a sweep killed
//!   mid-run is resumed by replaying its invocation against the same
//!   store: completed jobs are cache hits, only the missing tail
//!   executes.
//!
//! The driver hands the cache misses to an executor. [`Orchestrator`]
//! runs them on the evaluator's scoped-thread pool; the distributed
//! coordinator ([`crate::distributed::run_distributed`]) publishes them
//! as leased job records for worker processes. Everything else — lock,
//! intent, hits, counters, reassembly — is the same code for both.
//! [`crate::comparison::compare`] and [`crate::sweep::evaluate_sweep`]
//! run through the pool executor without a store: no caching, no
//! journal.

use crate::anonymizer::{run_isolated, RunError, RunResult};
use crate::comparison::{ComparisonResult, Configuration};
use crate::config::MethodSpec;
use crate::context::SessionContext;
use crate::evaluator::{run_many_with, Job};
use crate::sweep::{SweepPoint, VaryingParam};
use secreta_data::CsvOptions;
use secreta_store::{
    run_key, DigestWriter, Journal, JournalEvent, RunKey, RunManifest, RunStore, Sha256,
    StoreError, SweepRecord, STORE_SCHEMA_VERSION,
};
use serde::{Serialize, Value};
use std::io;
use std::sync::Mutex;
use std::time::{SystemTime, UNIX_EPOCH};

/// Digest of everything in a session that can influence a run: the
/// dataset bytes, every hierarchy, the query workload and both
/// policies. Two sessions with the same digest produce the same
/// results for the same (spec, seed); the digest is one component of
/// every run key.
pub fn context_digest(ctx: &SessionContext) -> String {
    let mut w = DigestWriter::new();
    // section markers keep adjacent components from aliasing
    w.update(b"\0dataset\0");
    secreta_data::csv::write_table(&ctx.table, &mut w, &CsvOptions::default())
        .expect("digest writer never fails");
    for (pos, &attr) in ctx.qi_attrs.iter().enumerate() {
        w.update(format!("\0hierarchy:{attr}\0").as_bytes());
        secreta_hierarchy::io::write_hierarchy(&ctx.hierarchies[pos], &mut w, ';')
            .expect("digest writer never fails");
    }
    if let Some(h) = &ctx.item_hierarchy {
        w.update(b"\0item-hierarchy\0");
        secreta_hierarchy::io::write_hierarchy(h, &mut w, ';').expect("digest writer never fails");
    }
    w.update(b"\0workload\0");
    secreta_metrics::query::write_workload(&ctx.workload, &ctx.table, &mut w)
        .expect("digest writer never fails");
    if let Some(p) = &ctx.privacy {
        w.update(b"\0privacy\0");
        secreta_policy::io::write_privacy(p, &ctx.table, &mut w)
            .expect("digest writer never fails");
    }
    if let Some(u) = &ctx.utility {
        w.update(b"\0utility\0");
        secreta_policy::io::write_utility(u, &ctx.table, &mut w)
            .expect("digest writer never fails");
    }
    w.finalize_hex()
}

/// The content address of one (context, spec, seed, sweep point) job.
pub fn job_key(
    context_digest: &str,
    spec: &MethodSpec,
    seed: u64,
    sweep: Option<(VaryingParam, usize)>,
) -> RunKey {
    run_key(
        context_digest,
        &spec.ser(),
        seed,
        sweep.map(|(p, v)| (p.label(), v as f64)),
    )
}

/// Cache counters of one orchestrated execution.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct CacheStats {
    /// Jobs replayed from the store.
    pub hits: u64,
    /// Jobs that actually executed.
    pub misses: u64,
    /// Jobs that returned an error (never cached).
    pub failures: u64,
}

/// Output of [`Orchestrator::compare`].
#[derive(Debug)]
pub struct Orchestrated {
    /// The comparison result, shaped exactly like
    /// [`crate::comparison::compare`]'s.
    pub result: ComparisonResult,
    /// Hit/miss/failure counters (all-miss when no store is attached).
    pub stats: CacheStats,
    /// Deterministic identifier of this sweep (derived from its job
    /// keys); the journal's `SweepRecord` id when a store is attached.
    pub sweep_id: String,
}

/// Schedules experiment jobs over the evaluator pool, with optional
/// store-backed caching and journaling.
#[derive(Debug, Clone)]
pub struct Orchestrator {
    store: Option<RunStore>,
    bypass_cache: bool,
    threads: usize,
}

/// One (configuration, sweep value) job of an expanded sweep.
pub(crate) struct ExpandedJob {
    pub(crate) value: usize,
    pub(crate) spec: MethodSpec,
    pub(crate) seed: u64,
    pub(crate) label: String,
    pub(crate) key: RunKey,
}

/// An expanded sweep, as the driver hands it to an executor.
pub(crate) struct Plan {
    /// Digest of the session ([`context_digest`]).
    pub(crate) digest: String,
    /// Deterministic sweep id ([`sweep_id_of`]).
    pub(crate) sweep_id: String,
    /// The varied parameter.
    pub(crate) param: VaryingParam,
    /// Every job, in configuration order then sweep order.
    pub(crate) jobs: Vec<ExpandedJob>,
}

/// One outcome per job an executor was given, in the order given.
pub(crate) type Outcomes = Vec<Result<RunResult, RunError>>;

/// Expand `configurations` into the deterministic flat job list: one
/// [`ExpandedJob`] per (configuration, sweep value), in configuration
/// order then sweep order, plus the per-configuration value shape and
/// the varied parameter.
fn expand_jobs(
    digest: &str,
    configurations: &[Configuration],
) -> (Vec<ExpandedJob>, Vec<Vec<usize>>, VaryingParam) {
    let mut expanded: Vec<ExpandedJob> = Vec::new();
    let mut shape: Vec<Vec<usize>> = Vec::new();
    for cfg in configurations {
        let values = cfg.sweep.values();
        for &v in &values {
            let mut spec = cfg.spec.clone();
            match cfg.sweep.param {
                VaryingParam::K => spec.set_k(v),
                VaryingParam::M => spec.set_m(v),
                VaryingParam::Delta => spec.set_delta(v),
            }
            let key = job_key(digest, &spec, cfg.seed, Some((cfg.sweep.param, v)));
            expanded.push(ExpandedJob {
                value: v,
                spec,
                seed: cfg.seed,
                label: cfg.label.clone(),
                key,
            });
        }
        shape.push(values);
    }
    let param = configurations
        .first()
        .map(|c| c.sweep.param)
        .unwrap_or(VaryingParam::K);
    (expanded, shape, param)
}

/// The journal intent record of a plan — what `runs resume` replays
/// and what distributed workers read their job list from.
fn sweep_record_of(
    plan: &Plan,
    configurations: &[Configuration],
    shape: &[Vec<usize>],
    invocation: Value,
) -> SweepRecord {
    let mut it = plan.jobs.iter();
    let jobs = shape
        .iter()
        .map(|values| {
            it.by_ref()
                .take(values.len())
                .map(|e| (e.value as f64, e.key.0.clone()))
                .collect()
        })
        .collect();
    SweepRecord {
        id: plan.sweep_id.clone(),
        context: plan.digest.clone(),
        param: plan.param.label().to_owned(),
        labels: configurations.iter().map(|c| c.label.clone()).collect(),
        jobs,
        invocation,
    }
}

/// The sweep id this session + configuration set would get — what the
/// CLI prints so externally attached workers know what to look for.
pub fn sweep_id_for(ctx: &SessionContext, configurations: &[Configuration]) -> String {
    let digest = context_digest(ctx);
    let (expanded, _, _) = expand_jobs(&digest, configurations);
    sweep_id_of(&digest, &expanded)
}

/// The stored run under `key`, replayed, if the store holds one of the
/// current schema.
pub(crate) fn cached(store: &RunStore, key: &RunKey) -> Result<Option<RunResult>, StoreError> {
    Ok(store
        .get(key)?
        .filter(|s| s.manifest.schema_version == STORE_SCHEMA_VERSION)
        .map(replay))
}

/// Journal how one executed job ended: `JobFinished` with its wall
/// time on success; on failure `JobFailed` carrying the error, then
/// `JobFinished { ok: false }` so the counters stay consistent — the
/// failure line is what marks the sweep degraded (hence resumable).
pub(crate) fn journal_outcome(
    journal: &mut Journal,
    sweep: &str,
    key: &str,
    label: &str,
    value: f64,
    outcome: Result<f64, String>,
) -> io::Result<()> {
    let (ok, wall_ms) = match outcome {
        Ok(wall_ms) => (true, wall_ms),
        Err(error) => {
            journal.append(&JournalEvent::JobFailed {
                sweep: sweep.to_owned(),
                key: key.to_owned(),
                label: label.to_owned(),
                value,
                error,
            })?;
            (false, 0.0)
        }
    };
    journal.append(&JournalEvent::JobFinished {
        sweep: sweep.to_owned(),
        key: key.to_owned(),
        cache_hit: false,
        ok,
        wall_ms,
    })
}

fn append(journal: &mut Journal, event: &JournalEvent) -> Result<(), StoreError> {
    journal
        .append(event)
        .map_err(|e| StoreError::Io(journal.path().to_path_buf(), e))
}

/// The sweep driver behind [`Orchestrator::compare`] and
/// [`crate::distributed::run_distributed`]: takes the store lock,
/// expands `configurations`, journals the intent, serves cache hits
/// (when `lookup`), hands the misses — indices into `plan.jobs` — to
/// `execute`, then journals the summary and reassembles the result in
/// expansion order. The executor journals its own per-job events
/// through the journal it is lent (`None` without a store).
pub(crate) fn drive(
    ctx: &SessionContext,
    store: Option<&RunStore>,
    lookup: bool,
    configurations: &[Configuration],
    invocation: Value,
    execute: impl FnOnce(&Plan, &[usize], Option<&mut Journal>) -> Result<Outcomes, StoreError>,
) -> Result<Orchestrated, StoreError> {
    // one sweep writer at a time: a second sweep sharing this store
    // gets StoreError::Locked instead of interleaving sweep events
    // (released when the guard drops at return)
    let _store_lock = store.map(RunStore::lock).transpose()?;
    let digest = context_digest(ctx);
    let (jobs, shape, param) = expand_jobs(&digest, configurations);
    let plan = Plan {
        sweep_id: sweep_id_of(&digest, &jobs),
        digest,
        param,
        jobs,
    };

    // write-ahead intent: everything needed to resume after a kill
    let mut journal = store.map(RunStore::journal).transpose()?;
    if let Some(j) = &mut journal {
        let record = sweep_record_of(&plan, configurations, &shape, invocation);
        append(j, &JournalEvent::SweepStarted(record))?;
    }

    // serve hits from the store, collect misses
    let mut outcomes: Vec<Option<Result<RunResult, RunError>>> = Vec::new();
    let mut misses: Vec<usize> = Vec::new();
    for (i, e) in plan.jobs.iter().enumerate() {
        let hit = match store {
            Some(store) if lookup => cached(store, &e.key)?,
            _ => None,
        };
        if hit.is_none() {
            misses.push(i);
        }
        outcomes.push(hit.map(Ok));
    }
    let mut stats = CacheStats {
        hits: (plan.jobs.len() - misses.len()) as u64,
        ..CacheStats::default()
    };
    if let Some(j) = &mut journal {
        // replays complete at lookup time: journal them first
        for (e, _) in plan.jobs.iter().zip(&outcomes).filter(|(_, o)| o.is_some()) {
            append(
                j,
                &JournalEvent::JobFinished {
                    sweep: plan.sweep_id.clone(),
                    key: e.key.0.clone(),
                    cache_hit: true,
                    ok: true,
                    wall_ms: 0.0,
                },
            )?;
        }
    }
    if !misses.is_empty() {
        let executed = execute(&plan, &misses, journal.as_mut())?;
        debug_assert_eq!(executed.len(), misses.len(), "one outcome per miss");
        for (&i, outcome) in misses.iter().zip(executed) {
            match outcome {
                Ok(_) => stats.misses += 1,
                Err(_) => stats.failures += 1,
            }
            outcomes[i] = Some(outcome);
        }
    }

    // summary counters close the sweep in the journal
    if let Some(j) = &mut journal {
        append(
            j,
            &JournalEvent::SweepFinished {
                sweep: plan.sweep_id.clone(),
                hits: stats.hits,
                misses: stats.misses,
                failures: stats.failures,
            },
        )?;
    }
    // mirror the summary into the NDJSON trace stream, when one is
    // configured — the per-run records are already there
    if let Some(sink) = ctx.obsv.sink() {
        sink.write_record(&secreta_obsv::trace::cache_record(
            &plan.sweep_id,
            stats.hits,
            stats.misses,
            stats.failures,
        ));
    }

    // reassemble per-configuration point lists, in sweep order
    let mut it = plan.jobs.iter().zip(outcomes);
    let points = shape
        .iter()
        .map(|values| {
            it.by_ref()
                .take(values.len())
                .map(|(e, outcome)| {
                    let outcome = outcome.expect("every job has an outcome");
                    let point = outcome.map(|rr| SweepPoint {
                        value: e.value,
                        indicators: rr.indicators,
                    });
                    (e.value, point)
                })
                .collect()
        })
        .collect();
    Ok(Orchestrated {
        result: ComparisonResult {
            labels: configurations.iter().map(|c| c.label.clone()).collect(),
            param,
            points,
        },
        stats,
        sweep_id: plan.sweep_id,
    })
}

impl Orchestrator {
    /// An orchestrator without a store: plain fan-out, no caching.
    pub fn new(threads: usize) -> Orchestrator {
        Orchestrator {
            store: None,
            bypass_cache: false,
            threads,
        }
    }

    /// Attach a run store: enables cache lookups, durable results and
    /// the event journal.
    pub fn with_store(mut self, store: RunStore) -> Orchestrator {
        self.store = Some(store);
        self
    }

    /// Skip cache *lookups* (every job runs) while still recording
    /// results and journal events — the `--no-cache` semantics.
    pub fn bypass_cache(mut self, yes: bool) -> Orchestrator {
        self.bypass_cache = yes;
        self
    }

    /// The attached store, if any.
    pub fn store(&self) -> Option<&RunStore> {
        self.store.as_ref()
    }

    /// Execute one spec at its configured parameters (no sweep),
    /// through the cache when a store is attached. Returns the run
    /// outcome plus whether it was a cache hit.
    pub fn run_one(
        &self,
        ctx: &SessionContext,
        spec: &MethodSpec,
        seed: u64,
    ) -> Result<(Result<RunResult, RunError>, bool), StoreError> {
        let digest = context_digest(ctx);
        let key = job_key(&digest, spec, seed, None);
        if let (Some(store), false) = (&self.store, self.bypass_cache) {
            if let Some(rr) = cached(store, &key)? {
                return Ok((Ok(rr), true));
            }
        }
        let result = run_isolated(ctx, spec, seed);
        if let (Some(store), Ok(rr)) = (&self.store, &result) {
            store.put(
                &manifest_of(&key, &digest, &spec.label(), spec, seed, None, rr),
                &rr.anon,
            )?;
        }
        Ok((result, false))
    }

    /// Expand `configurations` into sweep-point jobs, serve what the
    /// store already holds, execute the rest on the evaluator pool,
    /// and journal the whole thing. `invocation` is an opaque payload
    /// recorded in the journal's intent event — callers put whatever
    /// they need to re-run the experiment there (the CLI stores its
    /// session/dataset arguments), enabling `runs resume`.
    pub fn compare(
        &self,
        ctx: &SessionContext,
        configurations: &[Configuration],
        invocation: Value,
    ) -> Result<Orchestrated, StoreError> {
        drive(
            ctx,
            self.store.as_ref(),
            !self.bypass_cache,
            configurations,
            invocation,
            |plan, misses, journal| self.run_pool(ctx, plan, misses, journal),
        )
    }

    /// The pool executor: run the misses on the evaluator's scoped
    /// threads, persisting and journaling each result on its worker
    /// thread the moment it lands — that is what makes a killed sweep
    /// resumable: everything that finished before the kill is already
    /// durable. Store errors on the workers are deferred to the end.
    fn run_pool(
        &self,
        ctx: &SessionContext,
        plan: &Plan,
        misses: &[usize],
        mut journal: Option<&mut Journal>,
    ) -> Result<Outcomes, StoreError> {
        if let Some(j) = journal.as_deref_mut() {
            for &i in misses {
                let e = &plan.jobs[i];
                append(
                    j,
                    &JournalEvent::JobStarted {
                        sweep: plan.sweep_id.clone(),
                        key: e.key.0.clone(),
                        label: e.label.clone(),
                        value: e.value as f64,
                    },
                )?;
            }
        }
        let jobs: Vec<Job> = misses
            .iter()
            .map(|&i| Job {
                spec: plan.jobs[i].spec.clone(),
                seed: plan.jobs[i].seed,
            })
            .collect();
        let journal = Mutex::new(journal);
        let deferred: Mutex<Option<StoreError>> = Mutex::new(None);
        let defer = |err: StoreError| {
            let mut slot = deferred.lock().unwrap_or_else(|e| e.into_inner());
            slot.get_or_insert(err);
        };
        let outcomes = run_many_with(ctx, &jobs, self.threads, |slot, outcome| {
            let e = &plan.jobs[misses[slot]];
            if let (Some(store), Ok(rr)) = (&self.store, outcome) {
                let sweep = Some((plan.param, e.value));
                let manifest =
                    manifest_of(&e.key, &plan.digest, &e.label, &e.spec, e.seed, sweep, rr);
                if let Err(err) = store.put(&manifest, &rr.anon) {
                    defer(err);
                    return;
                }
            }
            let mut guard = journal.lock().unwrap_or_else(|e| e.into_inner());
            if let Some(j) = guard.as_deref_mut() {
                let summary = outcome
                    .as_ref()
                    .map(|rr| rr.indicators.runtime_ms)
                    .map_err(ToString::to_string);
                let logged = journal_outcome(
                    j,
                    &plan.sweep_id,
                    &e.key.0,
                    &e.label,
                    e.value as f64,
                    summary,
                );
                if let Err(err) = logged {
                    defer(StoreError::Io(j.path().to_path_buf(), err));
                }
            }
        });
        match deferred.into_inner().unwrap_or_else(|e| e.into_inner()) {
            Some(err) => Err(err),
            None => Ok(outcomes),
        }
    }
}

/// Rebuild a `RunResult` from a stored run. Exact: the stored JSON
/// preserves every float bit-for-bit.
fn replay(stored: secreta_store::StoredRun) -> RunResult {
    RunResult {
        anon: stored.anon,
        phases: stored.manifest.phases,
        indicators: stored.manifest.indicators,
        profile: stored.manifest.profile,
    }
}

pub(crate) fn manifest_of(
    key: &RunKey,
    digest: &str,
    label: &str,
    spec: &MethodSpec,
    seed: u64,
    sweep: Option<(VaryingParam, usize)>,
    rr: &RunResult,
) -> RunManifest {
    RunManifest {
        key: key.0.clone(),
        schema_version: STORE_SCHEMA_VERSION,
        context: digest.to_owned(),
        label: label.to_owned(),
        config: secreta_store::canonicalize(&spec.ser()),
        seed,
        sweep_param: sweep.map(|(p, _)| p.label().to_owned()),
        sweep_value: sweep.map(|(_, v)| v as f64),
        created_unix_ms: SystemTime::now()
            .duration_since(UNIX_EPOCH)
            .map(|d| d.as_millis() as u64)
            .unwrap_or(0),
        indicators: rr.indicators.clone(),
        phases: rr.phases.clone(),
        profile: rr.profile.clone(),
        // filled in by RunStore::put from the serialized table bytes
        anon_sha256: None,
    }
}

/// Deterministic sweep identifier: hash of the context digest and
/// every job's (label, key). The same experiment against the same
/// session always gets the same id, which is what lets `runs resume`
/// find the matching intent record.
fn sweep_id_of(digest: &str, expanded: &[ExpandedJob]) -> String {
    let mut h = Sha256::new();
    h.update(digest.as_bytes());
    for e in expanded {
        h.update(b"\0");
        h.update(e.label.as_bytes());
        h.update(b"\0");
        h.update(e.key.0.as_bytes());
    }
    let hex = h.finalize_hex();
    hex[..16].to_owned()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::anonymizer::run;
    use crate::config::RelAlgo;
    use crate::sweep::Sweep;
    use secreta_gen::{DatasetSpec, WorkloadSpec};

    fn ctx() -> SessionContext {
        let t = DatasetSpec::adult_like(60, 3).generate();
        let ctx = SessionContext::auto(t, 4).unwrap();
        let w = WorkloadSpec {
            n_queries: 10,
            ..Default::default()
        }
        .generate(&ctx.table);
        ctx.with_workload(w)
    }

    fn configs() -> Vec<Configuration> {
        vec![Configuration::new(
            MethodSpec::Relational {
                algo: RelAlgo::Cluster,
                k: 0,
            },
            Sweep {
                param: VaryingParam::K,
                start: 2,
                end: 6,
                step: 2,
            },
            1,
        )]
    }

    fn tmp_store(name: &str) -> RunStore {
        let dir =
            std::env::temp_dir().join(format!("secreta-orch-{}-{}", std::process::id(), name));
        let _ = std::fs::remove_dir_all(&dir);
        RunStore::open(dir).unwrap()
    }

    #[test]
    fn storeless_orchestration_matches_direct_runs() {
        let ctx = ctx();
        let orch = Orchestrator::new(2);
        let out = orch.compare(&ctx, &configs(), Value::Null).unwrap();
        assert_eq!(out.stats.hits, 0);
        assert_eq!(out.stats.misses, 3);
        for (v, r) in &out.result.points[0] {
            let direct = run(
                &ctx,
                &MethodSpec::Relational {
                    algo: RelAlgo::Cluster,
                    k: *v,
                },
                1,
            )
            .unwrap();
            // runtime_ms is wall-clock and differs between live runs
            let mut got = r.as_ref().unwrap().indicators.clone();
            let mut want = direct.indicators.clone();
            got.runtime_ms = 0.0;
            want.runtime_ms = 0.0;
            assert_eq!(got, want);
        }
    }

    #[test]
    fn second_run_is_a_full_cache_hit_with_identical_results() {
        let ctx = ctx();
        let store = tmp_store("hit");
        let orch = Orchestrator::new(2).with_store(store.clone());
        let cold = orch.compare(&ctx, &configs(), Value::Null).unwrap();
        assert_eq!(cold.stats.misses, 3);
        let warm = orch.compare(&ctx, &configs(), Value::Null).unwrap();
        assert_eq!(warm.stats.hits, 3);
        assert_eq!(warm.stats.misses, 0);
        assert_eq!(warm.sweep_id, cold.sweep_id);
        for (c, w) in cold.result.points[0].iter().zip(&warm.result.points[0]) {
            assert_eq!(
                c.1.as_ref().unwrap().indicators,
                w.1.as_ref().unwrap().indicators,
                "replay must be exact"
            );
        }
        // the journal records the full story: 2 sweeps, 3 executed
        // jobs, 6 completions, 2 summaries
        let events = store.read_journal().unwrap();
        let started = events
            .iter()
            .filter(|e| matches!(e, JournalEvent::JobStarted { .. }))
            .count();
        let hits = events
            .iter()
            .filter(|e| {
                matches!(
                    e,
                    JournalEvent::JobFinished {
                        cache_hit: true,
                        ..
                    }
                )
            })
            .count();
        assert_eq!(started, 3, "only cold jobs start");
        assert_eq!(hits, 3, "warm jobs are hits");
    }

    #[test]
    fn bypass_cache_reruns_everything() {
        let ctx = ctx();
        let store = tmp_store("bypass");
        let orch = Orchestrator::new(2).with_store(store);
        orch.compare(&ctx, &configs(), Value::Null).unwrap();
        let again = orch
            .clone()
            .bypass_cache(true)
            .compare(&ctx, &configs(), Value::Null)
            .unwrap();
        assert_eq!(again.stats.hits, 0);
        assert_eq!(again.stats.misses, 3);
    }

    #[test]
    fn run_one_caches_single_runs() {
        let ctx = ctx();
        let store = tmp_store("one");
        let orch = Orchestrator::new(1).with_store(store);
        let spec = MethodSpec::Relational {
            algo: RelAlgo::Cluster,
            k: 4,
        };
        let (first, hit1) = orch.run_one(&ctx, &spec, 9).unwrap();
        assert!(!hit1);
        let (second, hit2) = orch.run_one(&ctx, &spec, 9).unwrap();
        assert!(hit2);
        let (a, b) = (first.unwrap(), second.unwrap());
        assert_eq!(a.anon, b.anon);
        assert_eq!(a.indicators, b.indicators);
        assert_eq!(a.phases, b.phases);
    }

    #[test]
    fn context_digest_tracks_session_content() {
        let a = ctx();
        let d1 = context_digest(&a);
        assert_eq!(d1, context_digest(&a), "digest is deterministic");
        let b = ctx().with_workload(Default::default());
        assert_ne!(d1, context_digest(&b), "workload is part of the digest");
        let other = SessionContext::auto(DatasetSpec::adult_like(61, 3).generate(), 4).unwrap();
        assert_ne!(context_digest(&a), context_digest(&other));
    }

    #[test]
    fn failures_are_not_cached() {
        let ctx = ctx();
        let store = tmp_store("fail");
        let orch = Orchestrator::new(1).with_store(store.clone());
        let spec = MethodSpec::Relational {
            algo: RelAlgo::Incognito,
            k: 1_000_000, // infeasible
        };
        let (r1, _) = orch.run_one(&ctx, &spec, 0).unwrap();
        assert!(r1.is_err());
        assert_eq!(store.list().unwrap().len(), 0);
        let (r2, hit) = orch.run_one(&ctx, &spec, 0).unwrap();
        assert!(r2.is_err());
        assert!(!hit, "errors re-run every time");
    }
}
