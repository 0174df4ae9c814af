//! The traced decomposition: every sweep job executed as the direct
//! calls `anonymizer::run` and the orchestrator make, each timed from
//! here, with an enabled `secreta_obsv` recorder installed around the
//! calls to collect the counters the program already emits.
//!
//! It runs the jobs one after another on the calling thread, stores
//! each result with `RunStore::put`, then reads every job back with
//! `RunStore::get`. Each half does the store work of an orchestrated
//! sweep too: the cold half looks every job up before executing any,
//! and both hold the store lock and journal the sweep and its jobs, so
//! that the lock and journal fall in `core.unattributed_ms`. Nothing
//! is timed inside the program: a layer's time is the wall time of the
//! calls into it. The one split taken from the program is the RT
//! pipeline's: its top-level phase windows `relational partitioning`
//! and `transaction anonymization` (recorded by the pipeline's own
//! `PhaseTimer`) are moved from `rt.*` to the relational and
//! transaction layers.

use crate::gate::JobOutcome;
use crate::report::{Values, COUNTERS};
use secreta_core::anonymizer::compute_risk;
use secreta_core::config::TxAlgo;
use secreta_core::metrics::{
    average_relative_error, freq, gcp, loss, transaction_gcp, utility_loss, AnonTable, Indicators,
    PhaseTimes,
};
use secreta_core::obsv::{self, Recorder, RunProfile};
use secreta_core::orchestrator::{context_digest, job_key};
use secreta_core::policy::PrivacyPolicy;
use secreta_core::relational::{is_k_anonymous, RelationalAlgorithm, RelationalInput};
use secreta_core::rt::{anonymize as rt_anonymize, is_k_km_anonymous, RtInput};
use secreta_core::store::{
    canonicalize, Journal, JournalEvent, RunKey, RunManifest, RunStore, Sha256, SweepRecord,
    STORE_SCHEMA_VERSION,
};
use secreta_core::transaction::{
    is_km_anonymous, satisfies_privacy, TransactionAlgorithm, TransactionInput,
};
use secreta_core::{Configuration, MethodSpec, SessionContext, VaryingParam};
use serde::{Serialize, Value};
use std::collections::BTreeMap;
use std::time::{Duration, Instant, SystemTime, UNIX_EPOCH};

/// Layer time metrics whose sum is the traced run's attributed time.
const TIMED_LAYERS: &[&str] = &[
    "relational.anonymize_ms",
    "transaction.anonymize_ms",
    "rt.anonymize_ms",
    "core.verify_ms",
    "metrics.gcp_ms",
    "metrics.tx_gcp_ms",
    "metrics.ul_ms",
    "metrics.are_ms",
    "metrics.freq_ms",
    "metrics.classes_ms",
    "risk.evaluate_ms",
    "store.put_ms",
    "store.get_ms",
];

/// What one traced pass over the sweep measured.
#[derive(Debug)]
pub struct Traced {
    /// Per-layer metrics (times in ms, counters, ratios).
    pub values: Values,
    /// Wall time of the cold half (execute and store every job).
    pub cold_wall: Duration,
    /// Sum of per-job wall times of the cold half.
    pub job_time: Duration,
    /// Per-job outcomes of the cold half.
    pub jobs: Vec<JobOutcome>,
}

/// One expanded sweep job.
struct Job {
    name: String,
    label: String,
    spec: MethodSpec,
    seed: u64,
    param: VaryingParam,
    value: usize,
    key: RunKey,
}

/// Expand `configurations` the way the orchestrator does: one job per
/// (configuration, sweep value), configuration order then sweep order.
fn expand(digest: &str, configurations: &[Configuration]) -> Vec<Job> {
    let param = configurations
        .first()
        .map_or(VaryingParam::K, |c| c.sweep.param);
    let mut jobs = Vec::new();
    for cfg in configurations {
        for value in cfg.sweep.values() {
            let mut spec = cfg.spec.clone();
            match cfg.sweep.param {
                VaryingParam::K => spec.set_k(value),
                VaryingParam::M => spec.set_m(value),
                VaryingParam::Delta => spec.set_delta(value),
            }
            let key = job_key(digest, &spec, cfg.seed, Some((cfg.sweep.param, value)));
            jobs.push(Job {
                name: format!("{}@{}={value}", cfg.label, param.label()),
                label: cfg.label.clone(),
                spec,
                seed: cfg.seed,
                param: cfg.sweep.param,
                value,
                key,
            });
        }
    }
    jobs
}

/// The sweep's journal identity and intent record, as the
/// orchestrator writes them: the id hashes the context digest and every
/// job's label and key.
fn sweep_record(digest: &str, configurations: &[Configuration], jobs: &[Job]) -> SweepRecord {
    let mut h = Sha256::new();
    h.update(digest.as_bytes());
    for job in jobs {
        h.update(b"\0");
        h.update(job.label.as_bytes());
        h.update(b"\0");
        h.update(job.key.0.as_bytes());
    }
    let mut rest = jobs.iter();
    SweepRecord {
        id: h.finalize_hex()[..16].to_owned(),
        context: digest.to_owned(),
        param: configurations
            .first()
            .map_or(VaryingParam::K, |c| c.sweep.param)
            .label()
            .to_owned(),
        labels: configurations.iter().map(|c| c.label.clone()).collect(),
        jobs: configurations
            .iter()
            .map(|c| {
                rest.by_ref()
                    .take(c.sweep.values().len())
                    .map(|j| (j.value as f64, j.key.0.clone()))
                    .collect()
            })
            .collect(),
        invocation: Value::Null,
    }
}

fn append(journal: &mut Journal, event: JournalEvent) -> Result<(), String> {
    journal
        .append(&event)
        .map_err(|e| format!("{}: {e}", journal.path().display()))
}

fn ms(d: Duration) -> f64 {
    d.as_secs_f64() * 1e3
}

/// Accumulates layer times and program counters over a pass.
#[derive(Default)]
struct Acc {
    values: Values,
    counters: BTreeMap<String, u64>,
}

impl Acc {
    fn add(&mut self, name: &'static str, v: f64) {
        *self.values.entry(name).or_insert(0.0) += v;
    }

    /// Run `f`, adding its wall time to layer `name`.
    fn time<T>(&mut self, name: &'static str, f: impl FnOnce() -> T) -> T {
        let t = Instant::now();
        let out = f();
        self.add(name, ms(t.elapsed()));
        out
    }

    /// Run `f` under a fresh enabled recorder; returns its profile.
    fn recorded<T>(&mut self, f: impl FnOnce(&mut Acc) -> T) -> (T, RunProfile) {
        let rec = Recorder::enabled();
        let out = {
            let _installed = obsv::install(&rec);
            f(self)
        };
        let profile = rec
            .finish("perfbench")
            .expect("an enabled recorder yields a profile");
        for (name, n) in &profile.counters {
            *self.counters.entry(name.clone()).or_insert(0) += n;
        }
        (out, profile)
    }
}

/// Total duration of the top-level spans called `name`.
fn top_span(profile: &RunProfile, name: &str) -> Duration {
    profile
        .spans
        .iter()
        .filter(|s| s.name == name)
        .map(|s| s.duration)
        .sum()
}

/// The `m` at which a transaction guarantee is checked (VPA protects
/// per part; COAT/PCTA protect their policy), as `anonymizer::run`
/// does.
fn effective_m(algo: TxAlgo, m: usize) -> usize {
    match algo {
        TxAlgo::Vpa { .. } | TxAlgo::Coat | TxAlgo::Pcta => 1,
        _ => m,
    }
}

/// Anonymize and verify one job: the algorithm call, timed under its
/// layer, and the guarantee check, timed as `core.verify_ms`. Returns
/// the output, its phases, the verdict and the algorithm call's wall
/// time.
fn anonymize(
    acc: &mut Acc,
    ctx: &SessionContext,
    spec: &MethodSpec,
    seed: u64,
) -> Result<(AnonTable, PhaseTimes, bool, Duration), String> {
    let item_h = ctx.item_hierarchy.as_ref();
    match spec {
        MethodSpec::Relational { algo, k } => {
            let input = RelationalInput {
                table: &ctx.table,
                qi_attrs: ctx.qi_attrs.clone(),
                hierarchies: ctx.hierarchies.clone(),
                k: *k,
            };
            let t = Instant::now();
            let (out, _) = acc.recorded(|_| RelationalAlgorithm::from(*algo).run(&input, seed));
            let call = t.elapsed();
            acc.add("relational.anonymize_ms", ms(call));
            let out = out.map_err(|e| e.to_string())?;
            let verified = acc.time("core.verify_ms", || is_k_anonymous(&out.anon, *k));
            Ok((out.anon, out.phases, verified, call))
        }
        MethodSpec::Transaction { algo, k, m } => {
            let input = TransactionInput {
                table: &ctx.table,
                k: *k,
                m: *m,
                hierarchy: item_h,
                privacy: ctx.privacy.as_ref(),
                utility: ctx.utility.as_ref(),
            };
            let t = Instant::now();
            let (out, _) = acc.recorded(|_| TransactionAlgorithm::from(*algo).run(&input));
            let call = t.elapsed();
            acc.add("transaction.anonymize_ms", ms(call));
            let out = out.map_err(|e| e.to_string())?;
            let verified = acc.time("core.verify_ms", || match algo {
                TxAlgo::Coat | TxAlgo::Pcta => {
                    let all;
                    let privacy = match &ctx.privacy {
                        Some(p) => p,
                        None => {
                            all = PrivacyPolicy::all_items(&ctx.table);
                            &all
                        }
                    };
                    satisfies_privacy(&out.anon, privacy, *k, item_h)
                }
                other => is_km_anonymous(&out.anon, *k, effective_m(*other, *m), item_h),
            });
            Ok((out.anon, out.phases, verified, call))
        }
        MethodSpec::Rt {
            rel,
            tx,
            bounding,
            k,
            m,
            delta,
        } => {
            let input = RtInput {
                table: &ctx.table,
                qi_attrs: ctx.qi_attrs.clone(),
                hierarchies: ctx.hierarchies.clone(),
                item_hierarchy: item_h,
                k: *k,
                m: *m,
                delta: *delta,
                rel_algo: (*rel).into(),
                tx_algo: (*tx).into(),
                bounding: (*bounding).into(),
                privacy: ctx.privacy.as_ref(),
                utility: ctx.utility.as_ref(),
                seed,
            };
            let t = Instant::now();
            let (out, profile) = acc.recorded(|_| rt_anonymize(&input));
            let call = t.elapsed();
            let rel_part = top_span(&profile, "relational partitioning");
            let tx_part = top_span(&profile, "transaction anonymization");
            acc.add("relational.anonymize_ms", ms(rel_part));
            acc.add("transaction.anonymize_ms", ms(tx_part));
            acc.add(
                "rt.anonymize_ms",
                ms(call.saturating_sub(rel_part + tx_part)),
            );
            let out = out.map_err(|e| e.to_string())?;
            let verified = acc.time("core.verify_ms", || {
                is_k_km_anonymous(&out.anon, *k, effective_m(*tx, *m))
            });
            Ok((out.anon, out.phases, verified, call))
        }
        MethodSpec::Rho { .. } => {
            Err("the traced decomposition covers relational, transaction and RT jobs".to_owned())
        }
    }
}

/// The indicator set of `anonymizer::compute_indicators` plus the risk
/// block, each indicator function timed under its metric.
fn indicators(
    acc: &mut Acc,
    ctx: &SessionContext,
    spec: &MethodSpec,
    anon: &AnonTable,
    phases: &PhaseTimes,
    verified: bool,
) -> Indicators {
    let table = &ctx.table;
    let item_h = ctx.item_hierarchy.as_ref();
    let (mut ind, _) = acc.recorded(|acc| {
        let gcp = acc.time("metrics.gcp_ms", || {
            gcp(table, anon, |attr| ctx.hierarchy_of(attr).cloned())
        });
        let tx_gcp = acc.time("metrics.tx_gcp_ms", || transaction_gcp(table, anon, item_h));
        let ul = acc.time("metrics.ul_ms", || utility_loss(table, anon, item_h));
        let are = acc.time("metrics.are_ms", || {
            average_relative_error(
                table,
                anon,
                &ctx.workload,
                |attr| ctx.hierarchy_of(attr).cloned(),
                item_h,
            )
        });
        let item_freq_error = acc.time("metrics.freq_ms", || {
            freq::mean_item_frequency_error(table, anon, item_h)
        });
        let (discernibility, avg_class_size) = acc.time("metrics.classes_ms", || {
            (loss::discernibility(anon), loss::average_class_size(anon))
        });
        Indicators {
            gcp,
            tx_gcp,
            ul,
            are,
            item_freq_error,
            discernibility,
            avg_class_size,
            runtime_ms: phases.total().as_secs_f64() * 1e3,
            verified,
            risk: None,
        }
    });
    let (risk, _) = acc.recorded(|acc| {
        acc.time("risk.evaluate_ms", || {
            compute_risk(ctx, spec, anon, verified)
        })
    });
    ind.risk = Some(risk);
    ind
}

/// One traced pass over a fresh `store`: execute and store every job,
/// then read every job back. Fails on the first job error or missing
/// replay.
pub fn pass(
    ctx: &SessionContext,
    configurations: &[Configuration],
    store: &RunStore,
) -> Result<Traced, String> {
    let mut acc = Acc::default();
    let start = Instant::now();
    let digest = context_digest(ctx);
    let jobs = expand(&digest, configurations);
    let record = sweep_record(&digest, configurations, &jobs);
    let sweep = record.id.clone();
    let n = jobs.len() as u64;

    let lock = store.lock().map_err(|e| e.to_string())?;
    let mut journal = store.journal().map_err(|e| e.to_string())?;
    append(&mut journal, JournalEvent::SweepStarted(record.clone()))?;
    for job in &jobs {
        let found = acc
            .time("store.get_ms", || store.get(&job.key))
            .map_err(|e| format!("{}: store get: {e}", job.name))?;
        if found.is_some() {
            return Err(format!("{}: found in a fresh store", job.name));
        }
    }
    for job in &jobs {
        append(
            &mut journal,
            JournalEvent::JobStarted {
                sweep: sweep.clone(),
                key: job.key.0.clone(),
                label: job.label.clone(),
                value: job.value as f64,
            },
        )?;
    }
    let mut outcomes = Vec::with_capacity(jobs.len());
    let mut job_time = Duration::ZERO;
    let mut reported = Duration::ZERO;
    let mut measured = Duration::ZERO;
    for job in &jobs {
        let t = Instant::now();
        let (anon, phases, verified, call) = anonymize(&mut acc, ctx, &job.spec, job.seed)
            .map_err(|e| format!("{}: job failed: {e}", job.name))?;
        let ind = indicators(&mut acc, ctx, &job.spec, &anon, &phases, verified);
        let manifest = RunManifest {
            key: job.key.0.clone(),
            schema_version: STORE_SCHEMA_VERSION,
            context: digest.clone(),
            label: job.label.clone(),
            config: canonicalize(&job.spec.ser()),
            seed: job.seed,
            sweep_param: Some(job.param.label().to_owned()),
            sweep_value: Some(job.value as f64),
            created_unix_ms: SystemTime::now()
                .duration_since(UNIX_EPOCH)
                .map_or(0, |d| d.as_millis() as u64),
            indicators: ind.clone(),
            phases: phases.clone(),
            profile: None,
            anon_sha256: None,
        };
        acc.time("store.put_ms", || store.put(&manifest, &anon))
            .map_err(|e| format!("{}: store put: {e}", job.name))?;
        append(
            &mut journal,
            JournalEvent::JobFinished {
                sweep: sweep.clone(),
                key: job.key.0.clone(),
                cache_hit: false,
                ok: true,
                wall_ms: ind.runtime_ms,
            },
        )?;
        job_time += t.elapsed();
        reported += phases.total();
        measured += call;
        outcomes.push(JobOutcome {
            job: job.name.clone(),
            result: Ok(ind),
        });
    }
    append(
        &mut journal,
        JournalEvent::SweepFinished {
            sweep: sweep.clone(),
            hits: 0,
            misses: n,
            failures: 0,
        },
    )?;
    drop((journal, lock));
    let cold_wall = start.elapsed();

    let lock = store.lock().map_err(|e| e.to_string())?;
    let mut journal = store.journal().map_err(|e| e.to_string())?;
    append(&mut journal, JournalEvent::SweepStarted(record))?;
    let mut hits = 0u64;
    for (job, cold) in jobs.iter().zip(&outcomes) {
        let stored = acc
            .time("store.get_ms", || store.get(&job.key))
            .map_err(|e| format!("{}: store get: {e}", job.name))?
            .filter(|s| s.manifest.schema_version == STORE_SCHEMA_VERSION)
            .ok_or_else(|| format!("{}: not replayed from the store", job.name))?;
        if cold.result.as_ref().ok() != Some(&stored.manifest.indicators) {
            return Err(format!("{}: replayed indicators differ", job.name));
        }
        append(
            &mut journal,
            JournalEvent::JobFinished {
                sweep: sweep.clone(),
                key: job.key.0.clone(),
                cache_hit: true,
                ok: true,
                wall_ms: 0.0,
            },
        )?;
        hits += 1;
    }
    append(
        &mut journal,
        JournalEvent::SweepFinished {
            sweep,
            hits,
            misses: 0,
            failures: 0,
        },
    )?;
    drop((journal, lock));
    let wall = start.elapsed();

    let attributed: f64 = TIMED_LAYERS
        .iter()
        .filter_map(|name| acc.values.get(name))
        .sum();
    let mut values = std::mem::take(&mut acc.values);
    for name in TIMED_LAYERS {
        values.entry(name).or_insert(0.0);
    }
    for (counter, metric) in COUNTERS {
        let n = acc.counters.get(*counter).copied().unwrap_or(0);
        values.insert(metric, n as f64);
    }
    values.insert("core.traced_wall_ms", ms(wall));
    values.insert("core.unattributed_ms", ms(wall) - attributed);
    values.insert(
        "core.reported_runtime_ratio",
        reported.as_secs_f64() / measured.as_secs_f64().max(f64::MIN_POSITIVE),
    );
    values.insert("store.hit_ratio", hits as f64 / jobs.len().max(1) as f64);
    values.insert("store.bytes_written", dir_bytes(store.root()) as f64);
    values.insert(
        "metrics.are_row_scans",
        (jobs.len() * ctx.workload.len() * ctx.table.n_rows()) as f64,
    );
    Ok(Traced {
        values,
        cold_wall,
        job_time,
        jobs: outcomes,
    })
}

/// Total size of the regular files under `dir`.
fn dir_bytes(dir: &std::path::Path) -> u64 {
    let Ok(entries) = std::fs::read_dir(dir) else {
        return 0;
    };
    entries
        .flatten()
        .map(|e| match e.file_type() {
            Ok(t) if t.is_dir() => dir_bytes(&e.path()),
            Ok(t) if t.is_file() => e.metadata().map_or(0, |m| m.len()),
            _ => 0,
        })
        .sum()
}
