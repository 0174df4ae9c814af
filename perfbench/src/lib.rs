//! SECRETA-rs benchmark: one workload, one seed, one process.
//!
//! An untraced run repeats {set-ups, cold sweep into a fresh store,
//! warm sweeps that replay it} until its time is spent, and reports
//! medians of the end-to-end metrics. A traced run repeats {set-ups,
//! cold sweep on the configured threads, untraced single-thread cold
//! sweep, traced single-thread decomposition} and reports medians of
//! the per-layer metrics. Both gate every sweep for correctness first.

pub mod gate;
pub mod report;
pub mod setup;
pub mod sweep;
pub mod sys;
pub mod trace;
pub mod workload;

use report::{medians, Values};
use secreta_core::parallel;
use secreta_core::store::RunStore;
use secreta_core::{Configuration, SessionContext};
use std::path::{Path, PathBuf};
use std::time::{Duration, Instant};
use workload::{Inputs, Plan, Size, Workload};

/// Set-ups before each repetition, the last one's context serving its
/// sweeps: at least `min`, more until they took `secs` seconds
/// together. The median over the run is reported; interleaving spreads
/// the set-ups over the whole run. A workload whose set-up takes over
/// `secs` (evaluate-large) gets `min` per repetition.
const SETUP_REPS: Reps = Reps {
    min: 3,
    max: 200,
    secs: 0.3,
};

/// Fewest repetitions of an untraced run.
const MIN_COLD: usize = 3;

/// Warm sweeps after each cold sweep of an untraced run, against its
/// store: at least `min`, more until they took `secs` seconds
/// together. Interleaving them with the cold sweeps spreads them over
/// the whole run.
const WARM_REPS: Reps = Reps {
    min: 1,
    max: 200,
    secs: 1.0,
};

/// Fewest traced repetitions of a traced run.
const MIN_TRACED: usize = 1;

/// A repetition budget.
#[derive(Debug, Clone, Copy)]
struct Reps {
    /// Fewest repetitions.
    min: usize,
    /// Most repetitions.
    max: usize,
    /// Time after which no repetition beyond `min` starts.
    secs: f64,
}

impl Reps {
    /// Whether another repetition starts after `done` of them, when
    /// `spent` seconds count against `secs`.
    fn more(&self, done: usize, spent: f64) -> bool {
        done < self.min || (done < self.max && spent < self.secs)
    }
}

/// How one benchmark run is configured.
#[derive(Debug, Clone)]
pub struct Options {
    /// The workload.
    pub workload: Workload,
    /// Seed of the inputs and of the randomized algorithms.
    pub seed: u64,
    /// Measuring time; repetitions continue until it is spent.
    pub seconds: f64,
    /// Traced run (per-layer metrics) instead of untraced
    /// (end-to-end metrics).
    pub trace: bool,
    /// Input scale.
    pub size: Size,
    /// Evaluator (job) threads of the orchestrated sweep.
    pub eval_threads: usize,
    /// Threads each kernel may use (`secreta_parallel::set_threads`).
    pub kernel_threads: usize,
}

/// The outcome of a run that passed the gate.
#[derive(Debug)]
pub struct Outcome {
    /// Metric values: end-to-end or per-layer.
    pub values: Values,
    /// Jobs attempted over every sweep of the run.
    pub attempted: u64,
    /// Indicator digest of the run's jobs (equal on every repetition).
    pub digest: String,
    /// Measured repetitions.
    pub reps: usize,
}

/// Refuse settings that would make the numbers meaningless: an active
/// fault plan, or more busy threads than CPUs.
pub fn check_hygiene(opts: &Options, nproc: usize) -> Result<(), String> {
    if std::env::var(secreta_core::faults::ENV_VAR).is_ok_and(|v| !v.is_empty()) {
        return Err(format!(
            "refusing to benchmark with {} set: injected faults would corrupt every number",
            secreta_core::faults::ENV_VAR
        ));
    }
    if opts.eval_threads == 0 || opts.kernel_threads == 0 {
        return Err("thread counts must be at least 1".to_owned());
    }
    if opts.eval_threads.saturating_mul(opts.kernel_threads) > nproc {
        return Err(format!(
            "refusing to oversubscribe: {} evaluator threads x {} kernel threads > {nproc} CPUs",
            opts.eval_threads, opts.kernel_threads
        ));
    }
    Ok(())
}

fn secs(d: Duration) -> f64 {
    d.as_secs_f64()
}

/// Run the benchmark on `inputs` (already written), using `work` for
/// run stores; callers check [`check_hygiene`] first. Returns an error,
/// and no metrics, when any gate fails.
pub fn run(opts: &Options, inputs: &Inputs, work: &Path) -> Result<Outcome, String> {
    let plan = opts.workload.plan(opts.size);
    let configurations = opts.workload.configurations(opts.seed);
    parallel::set_threads(opts.kernel_threads);
    let run = Run {
        opts,
        inputs,
        plan,
        configurations: &configurations,
        work,
        start: Instant::now(),
        attempted: 0,
        digest: None,
        setups: Vec::new(),
    };
    let (mut values, reps, run) = if opts.trace {
        traced(run)?
    } else {
        untraced(run)?
    };
    let setup = medians(&run.setups);
    if opts.trace {
        for name in [
            "data.ingest_ms",
            "hierarchy.build_ms",
            "policy.load_ms",
            "data.rows",
            "data.accounted_peak_mb",
        ] {
            values.insert(name, setup[name]);
        }
    } else {
        values.insert("setup_s", setup["setup_s"]);
        values.insert("peak_rss_mb", sys::peak_rss_mib());
    }
    Ok(Outcome {
        values,
        attempted: run.attempted,
        digest: run.digest.unwrap_or_default(),
        reps,
    })
}

/// State shared by the repetitions of one run.
struct Run<'a> {
    opts: &'a Options,
    inputs: &'a Inputs,
    plan: Plan,
    configurations: &'a [Configuration],
    work: &'a Path,
    start: Instant,
    attempted: u64,
    digest: Option<String>,
    /// One sample per set-up.
    setups: Vec<Values>,
}

impl Run<'_> {
    fn elapsed(&self) -> f64 {
        secs(self.start.elapsed())
    }

    /// Set the session up as `SETUP_REPS` says, recording each set-up;
    /// returns the last context.
    fn setup(&mut self) -> Result<SessionContext, String> {
        let mut ctx = None;
        let mut spent = 0.0;
        let mut done = 0;
        while SETUP_REPS.more(done, spent) {
            drop(ctx.take()); // free the previous context before loading again
            let t = Instant::now();
            let (loaded, times, facts) = setup::load(self.inputs, &self.plan)?;
            let wall = secs(t.elapsed());
            ctx = Some(loaded);
            spent += wall;
            done += 1;
            self.setups.push(Values::from([
                ("setup_s", wall),
                ("data.ingest_ms", secs(times.ingest) * 1e3),
                ("hierarchy.build_ms", secs(times.hierarchy) * 1e3),
                ("policy.load_ms", secs(times.policy) * 1e3),
                ("data.rows", facts.rows as f64),
                (
                    "data.accounted_peak_mb",
                    facts.accounted_peak_bytes as f64 / (1024.0 * 1024.0),
                ),
            ]));
        }
        Ok(ctx.expect("at least one set-up ran"))
    }

    /// Count `attempted` jobs and check that `jobs` has the digest of
    /// every earlier repetition.
    fn record(&mut self, jobs: &[gate::JobOutcome], attempted: usize) -> Result<(), String> {
        self.attempted += attempted as u64;
        let d = gate::digest(jobs);
        if self.digest.get_or_insert_with(|| d.clone()) != &d {
            return Err("indicator digest changed between repetitions".to_owned());
        }
        Ok(())
    }

    /// A fresh, empty store directory for repetition `i`.
    fn store_dir(&self, i: usize) -> PathBuf {
        self.work.join(format!("store-{i}"))
    }
}

fn remove_store(dir: &Path) -> Result<(), String> {
    std::fs::remove_dir_all(dir).map_err(|e| format!("{}: {e}", dir.display()))
}

/// Repetitions of {set-up, cold sweep into a fresh store, warm sweeps
/// replaying it} until the time is spent; returns the medians and the
/// number of repetitions.
fn untraced(mut run: Run) -> Result<(Values, usize, Run), String> {
    let threads = run.opts.eval_threads;
    let mut samples: Vec<Values> = Vec::new();
    let mut replays: Vec<f64> = Vec::new();
    while samples.len() < MIN_COLD || run.elapsed() < run.opts.seconds {
        let ctx = run.setup()?;
        let dir = run.store_dir(samples.len());
        let (cold, store) = sweep::cold(&ctx, run.configurations, threads, &dir)?;
        run.record(&cold.jobs, cold.jobs.len())?;
        samples.push(Values::from([
            ("sweep_s", secs(cold.wall)),
            ("sweep_cpu_s", cold.cpu_s),
        ]));
        let mut spent = 0.0;
        let mut warm = 0;
        while WARM_REPS.more(warm, spent) {
            let wall = sweep::warm(&ctx, run.configurations, threads, store.clone(), &cold.jobs)?;
            run.attempted += cold.jobs.len() as u64;
            replays.push(secs(wall));
            spent += secs(wall);
            warm += 1;
        }
        remove_store(&dir)?;
    }
    let mut values = medians(&samples);
    values.insert("replay_s", report::median(&replays));
    Ok((values, samples.len(), run))
}

/// The threads of the traced decomposition and of its untraced
/// reference sweep: one evaluator thread, one kernel thread.
pub const TRACED_THREADS: (usize, usize) = (1, 1);

/// Traced repetitions, each after a set-up, until the time is spent; returns the medians
/// and the number of repetitions.
fn traced(mut run: Run) -> Result<(Values, usize, Run), String> {
    let mut samples: Vec<Values> = Vec::new();
    while samples.len() < MIN_TRACED || run.elapsed() < run.opts.seconds {
        let ctx = run.setup()?;
        let dir = run.store_dir(samples.len());
        let result = traced_rep(&mut run, &ctx, &dir);
        let removed = remove_store(&dir);
        samples.push(result?);
        removed?;
    }
    Ok((medians(&samples), samples.len(), run))
}

/// Cold sweep on the configured threads, untraced cold sweep on the
/// traced run's threads, then the traced decomposition, whose
/// indicators must equal the first sweep's (all but `runtime_ms`).
fn traced_rep(run: &mut Run, ctx: &SessionContext, dir: &Path) -> Result<Values, String> {
    let configurations = run.configurations;
    let (multi, _) = sweep::cold(
        ctx,
        configurations,
        run.opts.eval_threads,
        &dir.join("multi"),
    )?;

    parallel::set_threads(TRACED_THREADS.1);
    let result = (|| {
        let (single, _) = sweep::cold(ctx, configurations, TRACED_THREADS.0, &dir.join("single"))?;
        let store = RunStore::open(dir.join("traced")).map_err(|e| e.to_string())?;
        let traced = trace::pass(ctx, configurations, &store)?;
        Ok::<_, String>((single, traced))
    })();
    parallel::set_threads(run.opts.kernel_threads);
    let (single, traced) = result?;

    gate::check_jobs(&traced.jobs)?;
    gate::same_indicators("single-thread sweep", &multi.jobs, &single.jobs, true)?;
    gate::same_indicators("traced decomposition", &multi.jobs, &traced.jobs, true)?;
    // two orchestrated cold sweeps plus the traced cold and warm halves
    run.record(&multi.jobs, 4 * multi.jobs.len())?;

    let mut values = traced.values;
    let capacity = run.opts.eval_threads as f64 * secs(multi.wall);
    values.insert("core.parallel_efficiency", secs(traced.job_time) / capacity);
    values.insert(
        "obsv.trace_overhead_pct",
        (secs(traced.cold_wall) / secs(single.wall) - 1.0) * 100.0,
    );
    Ok(values)
}
