//! `secreta bench`: one driver for every benchmark suite.
//!
//! Each suite is an entry of [`SUITES`]: its `--suite` name, the
//! report it writes and a case builder. The builder prepares its
//! fixtures outside any timed region and hands timed closures to the
//! driver ([`Bench`]), either alone or as a reference/optimized pair
//! returning comparable outputs. The driver does everything else once:
//! it refuses to run under `SECRETA_FAULTS`, parses
//! `--rows/--threads/--seed/--reps/--k`, owns one scratch directory
//! (removed on drop, so no error path leaks it), times every closure
//! `--reps` times (min/median/max), compares each pair's outputs once,
//! prints one row per case, writes the [`BenchReport`] and gates it
//! against `--baseline`. A pair whose outputs diverge fails the run
//! after the report is written.
//!
//! `SECRETA_BENCH_HANDICAP=N` multiplies every closure N-fold inside
//! the timed region. It exists so CI can prove the gate actually gates
//! (a 2x handicap must fail against the committed baseline); it is
//! loudly announced and never something to set during a real
//! measurement.

use crate::args::Args;
use crate::commands::{load_context, memory_budget_of};
use secreta_bench::report::{self, BenchCase, BenchReport, Phase, Timing};
use secreta_core::config::{MethodSpec, RelAlgo};
use secreta_core::data::{chunk, ItemId, MemoryBudget};
use secreta_core::distributed::{run_distributed, DistOptions};
use secreta_core::metrics::{AnonTable, PhaseTimes};
use secreta_core::policy::{generate_privacy, PrivacyPolicy, PrivacyStrategy};
use secreta_core::relational::{self as rel, RelationalInput};
use secreta_core::store::RunStore;
use secreta_core::transaction::{self as tx, set_density_threshold, Counting, RhoParams};
use secreta_core::{
    Configuration, Indicators, Orchestrated, Orchestrator, SessionContext, Sweep, VaryingParam,
};
use secreta_gen::{DatasetSpec, WorkloadSpec};
use serde::{Serialize, Value};
use std::cell::{OnceCell, RefCell};
use std::collections::BTreeMap;
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicUsize, Ordering};
use std::time::{Duration, Instant};

/// Environment variable holding the synthetic slowdown factor for the
/// gate self-test.
const HANDICAP_VAR: &str = "SECRETA_BENCH_HANDICAP";

/// One benchmark suite.
struct Suite {
    /// `--suite` name (`all` is also selected by `--all`).
    name: &'static str,
    /// The report's `suite` field.
    id: &'static str,
    /// Default report path.
    out: &'static str,
    /// Default `--rows`.
    rows: &'static str,
    /// Measures every case through the driver.
    build: fn(&mut Bench) -> Result<(), String>,
}

/// Every suite `secreta bench` runs, in report-number order.
const SUITES: &[Suite] = &[
    Suite {
        name: "kernels",
        id: "cluster-kernels",
        out: "BENCH_1.json",
        rows: "1000,10000",
        build: kernels,
    },
    Suite {
        name: "store",
        id: "orchestrated-store",
        out: "BENCH_2.json",
        rows: "4000",
        build: store,
    },
    Suite {
        name: "obsv",
        id: "obsv-overhead",
        out: "BENCH_3.json",
        rows: "1000,10000",
        build: obsv,
    },
    Suite {
        name: "tx",
        id: "tx-kernels",
        out: "BENCH_4.json",
        rows: "1000,10000",
        build: tx_kernels,
    },
    Suite {
        name: "tiered",
        id: "tx-tiered",
        out: "BENCH_5.json",
        rows: "1000,10000",
        build: tiered,
    },
    Suite {
        name: "risk",
        id: "risk-eval",
        out: "BENCH_6.json",
        rows: "1000,10000",
        build: risk,
    },
    Suite {
        name: "scale",
        id: "scale",
        out: "BENCH_7.json",
        rows: "10000,100000,1000000",
        build: scale,
    },
    Suite {
        name: "rel",
        id: "rel-kernels",
        out: "BENCH_8.json",
        rows: "1000,10000",
        build: rel_kernels,
    },
    Suite {
        name: "dist",
        id: "dist",
        out: "BENCH_9.json",
        rows: "4000",
        build: dist,
    },
    Suite {
        name: "all",
        id: "all",
        out: "BENCH_ALL.json",
        rows: "800",
        build: all,
    },
];

/// `secreta bench [--suite NAME | --all]`: run one suite of
/// [`SUITES`] (default `kernels`).
pub(crate) fn cmd_bench(args: &Args) -> Result<(), String> {
    let name = match args.flag("all") {
        true => "all",
        false => args.opt("suite").unwrap_or("kernels"),
    };
    let suite = SUITES.iter().find(|s| s.name == name).ok_or_else(|| {
        let names: Vec<&str> = SUITES.iter().map(|s| s.name).collect();
        format!("unknown --suite {name:?} ({})", names.join("|"))
    })?;
    run(args, suite)
}

/// Run `suite` end to end: measure, report, check identity, gate.
fn run(args: &Args, suite: &Suite) -> Result<(), String> {
    // an active fault plan would inject panics/latency into the timed
    // regions and corrupt every number: refuse rather than record garbage
    if std::env::var(secreta_core::faults::ENV_VAR).is_ok_and(|v| !v.is_empty()) {
        return Err(format!(
            "refusing to benchmark with {} set: injected faults would corrupt \
             the timings; unset it and re-run",
            secreta_core::faults::ENV_VAR
        ));
    }
    let mut b = Bench::new(args, suite)?;
    (suite.build)(&mut b)?;
    b.finish()
}

/// A timed closure's result: the output a pair compares, plus the
/// phase breakdown the algorithm reported.
struct Run<T> {
    out: T,
    phases: Vec<Phase>,
}

impl<T> Run<T> {
    fn of(out: T) -> Self {
        Run {
            out,
            phases: Vec::new(),
        }
    }

    fn phased(out: T, phases: &PhaseTimes) -> Self {
        let phases = phases
            .phases
            .iter()
            .map(|(name, d)| Phase {
                name: name.clone(),
                ms: ms_of(*d),
            })
            .collect();
        Run { out, phases }
    }
}

/// A duration in milliseconds, rounded to the microsecond.
fn ms_of(d: Duration) -> f64 {
    (d.as_secs_f64() * 1e6).round() / 1e3
}

/// A per-run scratch directory, removed when dropped.
struct Scratch(PathBuf);

impl Scratch {
    fn new(suite: &str) -> Result<Scratch, String> {
        let dir =
            std::env::temp_dir().join(format!("secreta-bench-{suite}-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        std::fs::create_dir_all(&dir).map_err(|e| format!("{}: {e}", dir.display()))?;
        Ok(Scratch(dir))
    }
}

/// A path inside `dir` no earlier call returned.
fn fresh(dir: &Path, stem: &str) -> PathBuf {
    static NEXT: AtomicUsize = AtomicUsize::new(0);
    dir.join(format!("{stem}-{}", NEXT.fetch_add(1, Ordering::Relaxed)))
}

impl Drop for Scratch {
    fn drop(&mut self) {
        let _ = std::fs::remove_dir_all(&self.0);
    }
}

/// The driver state a case builder measures through.
struct Bench<'a> {
    args: &'a Args,
    suite: &'a Suite,
    rows: Vec<usize>,
    seed: u64,
    k: usize,
    reps: usize,
    /// `--threads`, when given.
    pinned: Option<usize>,
    /// The thread cap in force (`pinned` or the machine's).
    threads: usize,
    handicap: usize,
    /// Measured just before the first timed run, after the builder's
    /// setup, so it sees the load the cases run under.
    calibration_ms: OnceCell<f64>,
    scratch: Scratch,
    params: BTreeMap<String, Value>,
    cases: Vec<BenchCase>,
}

impl<'a> Bench<'a> {
    fn new(args: &'a Args, suite: &'a Suite) -> Result<Self, String> {
        let rows = args
            .opt("rows")
            .unwrap_or(suite.rows)
            .split(',')
            .map(|t| {
                t.trim()
                    .parse()
                    .map_err(|_| format!("--rows expects integers, got {t:?}"))
            })
            .collect::<Result<_, _>>()?;
        let pinned = match args.opt("threads") {
            Some(_) => Some(args.usize_or("threads", 0)?),
            None => None,
        };
        if let Some(n) = pinned {
            secreta_core::parallel::set_threads(n);
        }
        let handicap = match std::env::var(HANDICAP_VAR) {
            Ok(v) => v
                .parse::<usize>()
                .map_err(|_| format!("{HANDICAP_VAR} expects an integer, got {v:?}"))?
                .max(1),
            Err(_) => 1,
        };
        if handicap > 1 {
            eprintln!(
                "WARNING: {HANDICAP_VAR}={handicap} multiplies every workload {handicap}x \
                 inside the timed region; this run is a gate self-test, NOT a measurement"
            );
        }
        let mut b = Bench {
            args,
            suite,
            rows,
            seed: args.u64_or("seed", 42)?,
            k: args.usize_or("k", 10)?,
            reps: args.usize_or("reps", 3)?.max(1),
            pinned,
            threads: secreta_core::parallel::max_threads(),
            handicap,
            calibration_ms: OnceCell::new(),
            scratch: Scratch::new(suite.name)?,
            params: BTreeMap::new(),
            cases: Vec::new(),
        };
        b.param("rows", b.rows.clone());
        println!(
            "{} benchmark (seed={}, threads={}, {} reps)",
            suite.name, b.seed, b.threads, b.reps
        );
        Ok(b)
    }

    /// Record a suite parameter in the report.
    fn param(&mut self, name: &str, value: impl Serialize) {
        self.params.insert(name.to_owned(), value.ser());
    }

    /// Time `f` over `--reps` repetitions (each running it
    /// handicap-fold) and return the spread plus the last output.
    fn time<T>(
        &self,
        mut f: impl FnMut() -> Result<Run<T>, String>,
    ) -> Result<(Timing, T), String> {
        self.time_with(|| Ok(()), |_| f())
    }

    /// [`Bench::time`] with per-run state: `setup` runs before the clock
    /// starts, and what it returns is dropped after the clock stops.
    fn time_with<S, T>(
        &self,
        mut setup: impl FnMut() -> Result<S, String>,
        mut f: impl FnMut(&S) -> Result<Run<T>, String>,
    ) -> Result<(Timing, T), String> {
        self.calibration_ms.get_or_init(report::calibrate);
        let mut samples = Vec::with_capacity(self.reps);
        let mut out = None;
        for _ in 0..self.reps {
            let mut elapsed = Duration::ZERO;
            let mut phases = Vec::new();
            for _ in 0..self.handicap {
                // free the previous run's output before timing the next
                drop(out.take());
                let state = setup()?;
                let t0 = Instant::now();
                let run = f(&state)?;
                elapsed += t0.elapsed();
                drop(state);
                phases = run.phases;
                out = Some(run.out);
            }
            samples.push((ms_of(elapsed), phases));
        }
        Ok((Timing::of(samples), out.expect("reps >= 1")))
    }

    /// A report case for `timing`, with no reference.
    fn case(&self, id: String, timing: Timing) -> BenchCase {
        BenchCase {
            id,
            wall_ms: timing.wall_ms,
            reps: self.reps,
            median_ms: timing.median_ms,
            max_ms: timing.max_ms,
            phases: timing.phases,
            ..BenchCase::default()
        }
    }

    /// Add a case to the report and print its row.
    fn push(&mut self, c: BenchCase) {
        match &c.error {
            Some(e) => print!("  {:<22} budget exceeded: {e}", c.id),
            None => print!(
                "  {:<22} {:>10.2}ms  (median {:.2}, max {:.2})",
                c.id, c.wall_ms, c.median_ms, c.max_ms
            ),
        }
        if let (Some(r), Some(same)) = (&c.reference, c.outputs_identical) {
            print!(
                "  reference {:>10.2}ms  {:.2}x ({:+.1}%)  outputs identical: {same}",
                r.wall_ms,
                r.wall_ms / c.wall_ms.max(1e-9),
                (c.wall_ms / r.wall_ms.max(1e-9) - 1.0) * 100.0
            );
        }
        for (name, bytes) in &c.bytes {
            print!("  {name} {:.1} MB", *bytes as f64 / (1024.0 * 1024.0));
        }
        println!();
        self.cases.push(c);
    }

    /// Measure `f` as a case of its own.
    fn single<T>(
        &mut self,
        id: String,
        f: impl FnMut() -> Result<Run<T>, String>,
    ) -> Result<(Timing, T), String> {
        let (timing, out) = self.time(f)?;
        self.push(self.case(id, timing.clone()));
        Ok((timing, out))
    }

    /// Add a measured run as a case against a measured reference run,
    /// comparing their outputs once.
    fn versus<T: PartialEq>(
        &mut self,
        id: String,
        reference: &(Timing, T),
        (timing, out): (Timing, T),
    ) -> Timing {
        let mut c = self.case(id, timing.clone());
        c.reference = Some(reference.0.clone());
        c.outputs_identical = Some(out == reference.1);
        self.push(c);
        timing
    }

    /// Measure a reference/optimized pair.
    fn pair<T: PartialEq>(
        &mut self,
        id: String,
        reference: impl FnMut() -> Result<Run<T>, String>,
        optimized: impl FnMut() -> Result<Run<T>, String>,
    ) -> Result<Timing, String> {
        let reference = self.time(reference)?;
        let optimized = self.time(optimized)?;
        Ok(self.versus(id, &reference, optimized))
    }

    /// Write the report, then fail on diverging pairs and gate it
    /// against `--baseline`.
    fn finish(self) -> Result<(), String> {
        let args = self.args;
        let params: Vec<String> = self
            .params
            .iter()
            .map(|(k, v)| format!("{k}={}", serde_json::to_string(v).unwrap_or_default()))
            .collect();
        println!("  parameters: {}", params.join(" "));
        let calibration_ms = *self.calibration_ms.get_or_init(report::calibrate);
        println!("  calibration {calibration_ms:.1}ms");
        let new = BenchReport {
            schema_version: report::SCHEMA_VERSION,
            suite: self.suite.id.to_owned(),
            rows: self.rows.iter().copied().max().unwrap_or(0),
            seed: self.seed,
            threads: self.threads,
            machine: report::machine_fingerprint(),
            calibration_ms,
            cases: self.cases,
            params: self.params,
        };
        if args.flag("json") || args.opt("out").is_some() || self.suite.name == "all" {
            let path = args.opt("out").unwrap_or(self.suite.out);
            let body = serde_json::to_string_pretty(&new)
                .map_err(|e| format!("internal error: report serialization failed: {e}"))?;
            std::fs::write(path, body).map_err(|e| format!("{path}: {e}"))?;
            println!("wrote {path}");
        }
        let diverged: Vec<&str> = new
            .cases
            .iter()
            .filter(|c| c.outputs_identical == Some(false))
            .map(|c| c.id.as_str())
            .collect();
        if !diverged.is_empty() {
            return Err(format!(
                "outputs diverged from the reference in: {}",
                diverged.join(", ")
            ));
        }
        match args.opt("baseline") {
            Some(path) => gate(args, path, &new),
            None => Ok(()),
        }
    }
}

/// Compare `new` against the report at `base_path`; fail on any case
/// regressing more than `--gate-pct` percent (default 25).
fn gate(args: &Args, base_path: &str, new: &BenchReport) -> Result<(), String> {
    let gate_pct: f64 = match args.opt("gate-pct") {
        Some(v) => v
            .parse()
            .map_err(|_| format!("--gate-pct expects a number, got {v:?}"))?,
        None => 25.0,
    };
    let text = std::fs::read_to_string(base_path).map_err(|e| format!("{base_path}: {e}"))?;
    let base: BenchReport =
        serde_json::from_str(&text).map_err(|e| format!("{base_path}: not a bench report: {e}"))?;
    let deltas = report::compare(&base, new).map_err(|e| format!("{base_path}: {e}"))?;
    println!("baseline comparison ({base_path}, gate {gate_pct}%):");
    println!(
        "  baseline calibration {:.1}ms, this run {:.1}ms",
        base.calibration_ms, new.calibration_ms
    );
    for d in &deltas {
        println!(
            "  {:<22} base {:>9.2}ms  new {:>9.2}ms  normalized delta {:>+7.1}%",
            d.id, d.base_ms, d.new_ms, d.delta_pct
        );
    }
    let bad = report::regressions(&deltas, gate_pct);
    if !bad.is_empty() {
        let list: Vec<String> = bad
            .iter()
            .map(|d| format!("{} ({:+.1}%)", d.id, d.delta_pct))
            .collect();
        return Err(format!(
            "perf regression above {gate_pct}%: {} \
             (if intentional, regenerate the baseline with \
             tools/update_bench_baseline.sh)",
            list.join(", ")
        ));
    }
    println!("  gate passed: no case regressed more than {gate_pct}%");
    Ok(())
}

/// Session context with auto-derived hierarchies.
fn auto(spec: DatasetSpec, fanout: usize) -> Result<SessionContext, String> {
    SessionContext::auto(spec.generate(), fanout).map_err(|e| e.to_string())
}

/// The relational input over all of `ctx`'s quasi-identifiers.
fn rel_input(ctx: &SessionContext, k: usize) -> RelationalInput<'_> {
    RelationalInput {
        table: &ctx.table,
        qi_attrs: ctx.qi_attrs.clone(),
        hierarchies: ctx.hierarchies.clone(),
        k,
    }
}

/// `kernels`: greedy Cluster through the retained reference
/// implementation vs the optimized kernels (Euler-tour LCA, leaf
/// matrix, parallel argmin) on the adult-like generator.
fn kernels(b: &mut Bench) -> Result<(), String> {
    let (k, seed) = (b.k, b.seed);
    b.param("dataset", "adult-like");
    b.param("k", k);
    b.param("reference", "cluster::anonymize_reference");
    for n in b.rows.clone() {
        let ctx = auto(DatasetSpec::adult_like(n, seed), 4)?;
        let input = rel_input(&ctx, k);
        let run = |reference: bool| {
            let input = &input;
            move || {
                let out = match reference {
                    true => rel::cluster::anonymize_reference(input, seed),
                    false => rel::cluster::anonymize(input, seed),
                };
                out.map(|o| Run::phased(o.anon, &o.phases))
                    .map_err(|e| e.to_string())
            }
        };
        b.pair(format!("cluster/{n}"), run(true), run(false))?;
    }
    Ok(())
}

/// The k sweep of the `store` and `dist` comparisons.
const SWEEP: Sweep = Sweep {
    param: VaryingParam::K,
    start: 2,
    end: 10,
    step: 2,
};

/// The Cluster + Top-down comparison the `store` and `dist` suites
/// sweep, with its job count; records its parameters.
fn sweep_configs(b: &mut Bench, reference: &str) -> (Vec<Configuration>, usize) {
    b.param("dataset", "adult-like");
    b.param("queries", 50);
    b.param("sweep", SWEEP);
    b.param("reference", reference);
    let algos = [RelAlgo::Cluster, RelAlgo::TopDown];
    b.param("configurations", algos.map(|a| format!("{a:?}")).to_vec());
    let configs: Vec<Configuration> = algos
        .into_iter()
        .map(|algo| Configuration::new(MethodSpec::Relational { algo, k: 0 }, SWEEP, b.seed))
        .collect();
    let jobs = configs.len() * SWEEP.values().len();
    (configs, jobs)
}

/// The comparable output of a sweep: every point's indicators with the
/// measured runtime blanked (failed points are `None`).
fn sweep_indicators(out: &Orchestrated) -> Vec<Option<Indicators>> {
    let points = out.result.points.iter().flatten();
    points
        .map(|(_, r)| {
            r.as_ref().ok().map(|p| Indicators {
                runtime_ms: 0.0,
                ..p.indicators.clone()
            })
        })
        .collect()
}

/// `store`: the orchestrated comparison sweep cold (fresh store, every
/// job executes) as the reference vs warm (the identical sweep again,
/// every job replays from the store).
fn store(b: &mut Bench) -> Result<(), String> {
    let (seed, threads) = (b.seed, b.threads);
    let (configs, jobs) = sweep_configs(b, "cold store");
    for n in b.rows.clone() {
        let ctx = auto(DatasetSpec::adult_like(n, seed), 4)?;
        let w = WorkloadSpec {
            n_queries: 50,
            seed,
            ..Default::default()
        };
        let workload = w.generate(&ctx.table);
        let ctx = ctx.with_workload(workload);
        let filled: RefCell<Option<Orchestrator>> = RefCell::new(None);
        let dir = b.scratch.0.clone();
        let fresh_store = || {
            filled.replace(None);
            let store = RunStore::open(fresh(&dir, "store")).map_err(|e| e.to_string())?;
            Ok(Orchestrator::new(threads).with_store(store))
        };
        let cold = |orch: &Orchestrator| {
            let out = orch
                .compare(&ctx, &configs, Value::Null)
                .map_err(|e| e.to_string())?;
            filled.replace(Some(orch.clone()));
            Ok(Run::of(sweep_indicators(&out)))
        };
        let warm = || {
            let orch = filled.borrow();
            let orch = orch.as_ref().ok_or("warm pass before a cold pass")?;
            let out = orch
                .compare(&ctx, &configs, Value::Null)
                .map_err(|e| e.to_string())?;
            if out.stats.misses != 0 || out.stats.hits as usize != jobs {
                return Err(format!(
                    "warm pass was not a full cache hit: {} hits, {} misses of {jobs} jobs",
                    out.stats.hits, out.stats.misses
                ));
            }
            Ok(Run::of(sweep_indicators(&out)))
        };
        let reference = b.time_with(fresh_store, cold)?;
        let warm = b.time(warm)?;
        b.versus(format!("sweep/{n}"), &reference, warm);
    }
    Ok(())
}

/// `obsv`: Cluster with the recorder disabled (the production default,
/// the reference) vs enabled vs streaming an in-memory NDJSON trace.
/// Each timed run gets a fresh recorder, installed before the clock
/// starts and uninstalled after it stops.
fn obsv(b: &mut Bench) -> Result<(), String> {
    use secreta_core::obsv::{self, ObsvConfig, TraceSink};
    let (k, seed) = (b.k, b.seed);
    b.param("dataset", "adult-like");
    b.param("k", k);
    b.param("reference", "recorder disabled");
    for n in b.rows.clone() {
        let ctx = auto(DatasetSpec::adult_like(n, seed), 4)?;
        let input = rel_input(&ctx, k);
        let installed = |cfg: ObsvConfig| {
            move || {
                let rec = cfg.recorder();
                let guard = obsv::install(&rec);
                Ok((guard, rec))
            }
        };
        let cluster = |_: &_| {
            rel::cluster::anonymize(&input, seed)
                .map(|o| Run::phased(o.anon, &o.phases))
                .map_err(|e| e.to_string())
        };
        let disabled = b.time_with(installed(ObsvConfig::disabled()), cluster)?;
        let enabled = b.time_with(installed(ObsvConfig::enabled()), cluster)?;
        b.versus(format!("enabled/{n}"), &disabled, enabled);
        let (sink, _buf) = TraceSink::buffer();
        let traced = b.time_with(installed(ObsvConfig::with_trace(sink)), cluster)?;
        b.versus(format!("traced/{n}"), &disabled, traced);
    }
    Ok(())
}

/// Transaction-algorithm fixtures shared by the `tx`, `tiered` and
/// `all` suites: the basket table, the per-algorithm inputs and the
/// rho parameters, built once outside any timed region.
struct TxFixture {
    ctx: SessionContext,
    k: usize,
    m: usize,
    params: RhoParams,
    privacy: Option<PrivacyPolicy>,
}

/// The seven transaction algorithms in the order every report lists
/// them.
const TX_ALGOS: &[&str] = &["apriori", "lra", "vpa", "coat", "pcta", "rho", "rho-td"];

impl TxFixture {
    /// With `policy`, COAT/PCTA get the paper's policy-driven workload:
    /// pairs of items an adversary may know together, sampled from real
    /// transactions so every constraint has live support to push over
    /// k. Without it they protect every single item.
    fn build(
        b: &Bench,
        rows: usize,
        (items, m): (usize, usize),
        policy: bool,
    ) -> Result<Self, String> {
        let ctx = auto(DatasetSpec::basket(rows, items, b.seed), 4)?;
        if ctx.item_hierarchy.is_none() {
            return Err("basket dataset has no item universe".to_owned());
        }
        // sensitive targets for the rho family: the three rarest items
        let sup = secreta_core::data::stats::item_supports(&ctx.table);
        let mut by_sup: Vec<u32> = (0..sup.len() as u32).collect();
        by_sup.sort_by_key(|&i| (sup[i as usize], i));
        let params = RhoParams {
            rho: 0.5,
            sensitive: by_sup.iter().take(3).map(|&i| ItemId(i)).collect(),
            max_antecedent: 2,
        };
        let strategy = PrivacyStrategy::RandomItemsets {
            size: 2,
            count: (rows / 4).clamp(25, 400),
            seed: b.seed,
        };
        let privacy = policy.then(|| generate_privacy(&ctx.table, &strategy));
        Ok(TxFixture {
            ctx,
            k: b.k,
            m,
            params,
            privacy,
        })
    }

    /// Run one named algorithm under the given counting strategy.
    fn run(&self, name: &str, counting: Counting) -> Result<Run<AnonTable>, String> {
        use secreta_core::transaction::TransactionInput;
        let h = self.ctx.item_hierarchy.as_ref().expect("checked in build");
        let km = TransactionInput::km(&self.ctx.table, self.k, self.m, h);
        let plain = TransactionInput {
            table: &self.ctx.table,
            k: self.k,
            m: 1,
            hierarchy: None,
            privacy: self.privacy.as_ref(),
            utility: None,
        };
        let one = TransactionInput {
            k: 1,
            privacy: None,
            ..plain
        };
        let td = TransactionInput::km(&self.ctx.table, 1, 1, h);
        let out = match name {
            "apriori" => tx::apriori::anonymize_with(&km, counting),
            "lra" => tx::lra::anonymize_with(&km, 2, counting),
            "vpa" => tx::vpa::anonymize_with(&km, 4, counting),
            "coat" => tx::coat::anonymize_with(&plain, counting),
            "pcta" => tx::pcta::anonymize_with(&plain, counting),
            "rho" => tx::rho::anonymize_with(&one, &self.params, counting),
            "rho-td" => tx::rho_td::anonymize_with(&td, &self.params, counting),
            other => return Err(format!("unknown algorithm {other:?}")),
        };
        out.map(|o| Run::phased(o.anon, &o.phases))
            .map_err(|e| format!("{name}: {e}"))
    }
}

/// Parse and record the basket workload of the transaction suites:
/// `(items, m)`.
fn basket(b: &mut Bench) -> Result<(usize, usize), String> {
    let (items, m) = (b.args.usize_or("items", 80)?, b.args.usize_or("m", 2)?);
    b.param("items", items);
    b.param("k", b.k);
    b.param("m", m);
    Ok((items, m))
}

/// `tx`: every transaction algorithm with the naive reference counters
/// vs the interned/parallel support kernels (COAT/PCTA protect every
/// single item).
fn tx_kernels(b: &mut Bench) -> Result<(), String> {
    let basket = basket(b)?;
    b.param("dataset", "basket");
    b.param("reference", "naive counters");
    for n in b.rows.clone() {
        let fx = TxFixture::build(b, n, basket, false)?;
        for &name in TX_ALGOS {
            let fx = &fx;
            let run = |c: Counting| move || fx.run(name, c);
            b.pair(
                format!("{name}/{n}"),
                run(Counting::Naive),
                run(Counting::Kernel),
            )?;
        }
    }
    Ok(())
}

/// `tiered`: every transaction algorithm with the dense tier disabled
/// (threshold forced above 1.0: the pure-CSR kernel) vs the production
/// tiering threshold, under a live privacy policy.
fn tiered(b: &mut Bench) -> Result<(), String> {
    let basket = basket(b)?;
    b.param("dataset", "basket");
    b.param("reference", "kernel-csr");
    for n in b.rows.clone() {
        let fx = TxFixture::build(b, n, basket, true)?;
        for &name in TX_ALGOS {
            let csr = || {
                // no item can clear a density bar above 1.0
                set_density_threshold(Some(2.0));
                let out = fx.run(name, Counting::Kernel);
                set_density_threshold(None);
                out
            };
            b.pair(format!("{name}/{n}"), csr, || {
                fx.run(name, Counting::Kernel)
            })?;
        }
    }
    Ok(())
}

/// `risk`: Apriori anonymizes the adversarial generator's table, then
/// the full risk block (relational + m-item adversary + audit) is
/// timed on the kernel path; up to `--naive-cap` rows (default 2000)
/// the O(n²) oracle is its reference.
fn risk(b: &mut Bench) -> Result<(), String> {
    use secreta_core::risk::{self as rk, Guarantee, RiskParams};
    let (k, seed) = (b.k, b.seed);
    let m = b.args.usize_or("m", 2)?;
    let naive_cap = b.args.usize_or("naive-cap", 2000)?;
    b.param("dataset", "adversarial");
    b.param("k", k);
    b.param("m", m);
    b.param("naive_cap", naive_cap);
    b.param("reference", "O(n^2) oracle");
    for n in b.rows.clone() {
        let ctx = auto(DatasetSpec::adversarial(n, seed), 4)?;
        let h = ctx
            .item_hierarchy
            .as_ref()
            .ok_or("adversarial dataset has no item universe")?;
        let km = tx::TransactionInput::km(&ctx.table, k, m, h);
        let (anon_t, anon) = b.single(format!("anonymize/{n}"), || {
            tx::apriori::anonymize(&km)
                .map(|o| Run::phased(o.anon, &o.phases))
                .map_err(|e| e.to_string())
        })?;
        let guarantee = Guarantee::KmAnonymity { k, m };
        let params = RiskParams::default();
        let eval = |c| {
            let (ctx, anon, guarantee, params) = (&ctx, &anon, &guarantee, &params);
            move || {
                Ok(Run::of(rk::evaluate(
                    &ctx.table,
                    anon,
                    Some(h),
                    None,
                    guarantee,
                    params,
                    c,
                )))
            }
        };
        let id = format!("risk/{n}");
        let risk_t = match n <= naive_cap {
            true => b.pair(id, eval(Counting::Naive), eval(Counting::Kernel))?,
            false => b.single(id, eval(Counting::Kernel))?.0,
        };
        println!(
            "    risk is {:.1}% of anonymize",
            100.0 * risk_t.wall_ms / anon_t.wall_ms.max(1e-9)
        );
    }
    Ok(())
}

/// `scale`: each point streams an adult-like dataset through the
/// chunked generator (the CSV reader's per-chunk intern/seal/merge
/// pipeline), materializes it and builds the CSR inverted index
/// chunk-by-chunk. Points run in ascending row order because peak RSS
/// is process-wide and monotonic. A point that exhausts
/// `--memory-budget` is recorded as `budget_exceeded` and the suite
/// continues — running out of a declared budget is an outcome.
fn scale(b: &mut Bench) -> Result<(), String> {
    use secreta_core::transaction::support::InvertedIndex;
    let chunk_rows = b.args.usize_or("chunk-rows", chunk::chunk_rows())?;
    let budget_mb = memory_budget_of(b.args)?;
    b.param("dataset", "adult-like");
    b.param("chunk_rows", chunk_rows);
    b.param("memory_budget_mb", budget_mb);
    let mut rows = b.rows.clone();
    rows.sort_unstable();
    for n in rows {
        let spec = DatasetSpec::adult_like(n, b.seed);
        let point = b.time(|| {
            let budget = budget_mb.map_or_else(MemoryBudget::unlimited, MemoryBudget::megabytes);
            let mut phases = Vec::new();
            let mut lap = |name: &str, t: Instant| {
                let ms = ms_of(t.elapsed());
                phases.push(Phase {
                    name: name.to_owned(),
                    ms,
                });
            };
            let t = Instant::now();
            let chunked = spec
                .generate_chunked(chunk_rows, budget)
                .map_err(|e| e.to_string())?;
            lap("ingest", t);
            let accounted = chunked.stats().peak_accounted_bytes;
            let t = Instant::now();
            let table = chunked.into_table().map_err(|e| e.to_string())?;
            lap("materialize", t);
            let t = Instant::now();
            let all: Vec<usize> = (0..table.n_rows()).collect();
            let idx = InvertedIndex::build(&table, &all, table.item_universe(), |_| true);
            lap("index", t);
            assert_eq!(idx.n_rows(), table.n_rows());
            let bytes = [
                ("accounted_peak", accounted),
                ("table", table.estimated_bytes()),
            ];
            Ok(Run { out: bytes, phases })
        });
        let id = format!("ingest/{n}");
        let mut c = match point {
            Ok((timing, bytes)) => {
                let mut c = b.case(id, timing);
                c.bytes = bytes.map(|(k, v)| (k.to_owned(), v)).into_iter().collect();
                c
            }
            Err(e) => BenchCase {
                id,
                error: Some(e),
                ..BenchCase::default()
            },
        };
        c.budget_exceeded = Some(c.error.is_some());
        if let Some(rss) = secreta_core::obsv::mem::peak_rss_bytes() {
            c.bytes.insert("peak_rss".to_owned(), rss);
        }
        b.push(c);
    }
    Ok(())
}

/// `rel`: Incognito, Top-down and Bottom-up on a census-style table
/// with the naive rescan-per-check counting (the pre-kernel
/// implementation kept as oracle) vs the partition-rollup kernels.
fn rel_kernels(b: &mut Bench) -> Result<(), String> {
    let (k, seed) = (b.k, b.seed);
    let fanout = b.args.usize_or("fanout", 2)?;
    b.param("dataset", "census");
    b.param("k", k);
    b.param("fanout", fanout);
    b.param("reference", "naive");
    for n in b.rows.clone() {
        let ctx = auto(DatasetSpec::census(n, seed), fanout)?;
        let input = rel_input(&ctx, k);
        for &name in REL_ALGOS {
            let run = |c| {
                let input = &input;
                move || run_rel(name, input, c)
            };
            b.pair(
                format!("{name}/{n}"),
                run(rel::Counting::Naive),
                run(rel::Counting::Kernel),
            )?;
        }
    }
    Ok(())
}

/// The three relational search algorithms with counting kernels, in
/// the order every report lists them.
const REL_ALGOS: &[&str] = &["incognito", "topdown", "bottomup"];

/// Run one relational algorithm under the given counting strategy.
fn run_rel(
    name: &str,
    input: &RelationalInput,
    c: rel::Counting,
) -> Result<Run<AnonTable>, String> {
    let out = match name {
        "incognito" => rel::incognito::anonymize_with(input, c),
        "topdown" => rel::topdown::anonymize_with(input, c),
        "bottomup" => rel::bottomup::anonymize_with(input, c),
        other => return Err(format!("unknown algorithm {other:?}")),
    };
    out.map(|o| Run::phased(o.anon, &o.phases))
        .map_err(|e| format!("{name}: {e}"))
}

/// `dist`: the `store` sweep through the in-process orchestrator (the
/// reference) and through the distributed coordinator with 1, 2 and 4
/// spawned `secreta worker` processes, each against a fresh store.
fn dist(b: &mut Bench) -> Result<(), String> {
    let (seed, threads) = (b.seed, b.threads);
    let pin = b.pinned;
    let (configs, jobs) = sweep_configs(b, "in-process");
    for n in b.rows.clone() {
        // workers are separate processes: they need the dataset as a
        // file, loaded through the exact path the coordinator uses, so
        // the context digests agree
        let dir = b.scratch.0.clone();
        let data = fresh(&dir, "data.csv");
        let table = DatasetSpec::adult_like(n, seed).generate();
        let opts = secreta_core::data::CsvOptions::default();
        secreta_core::data::csv::write_table_path(&table, &data, &opts)
            .map_err(|e| e.to_string())?;
        // one token per value: the data path may contain spaces
        let (data_arg, seed_arg) = (data.display().to_string(), seed.to_string());
        let tokens = [
            "worker",
            &data_arg,
            "--tx",
            "Items",
            "--queries",
            "50",
            "--seed",
            &seed_arg,
        ];
        let session = Args::parse(tokens.into_iter().map(str::to_owned))?;
        let ctx = load_context(&session).map_err(String::from)?;
        let open = || RunStore::open(fresh(&dir, "store")).map_err(|e| e.to_string());
        let solo = b.time_with(open, |store| {
            let orch = Orchestrator::new(threads).with_store(store.clone());
            let out = orch
                .compare(&ctx, &configs, Value::Null)
                .map_err(|e| e.to_string())?;
            Ok(Run::of(sweep_indicators(&out)))
        })?;
        b.push(b.case(format!("in-process/{n}"), solo.0.clone()));
        let mut walls = Vec::new();
        for workers in [1usize, 2, 4] {
            let pass = |store: &RunStore| {
                let opts = DistOptions {
                    workers,
                    ..DistOptions::default()
                };
                let spawn = worker_spawner(session.forward(&[]), pin, store.root());
                let out = run_distributed(&ctx, store, &configs, Value::Null, &opts, Some(&spawn))
                    .map_err(|e| e.to_string())?;
                if out.stats.failures != 0 || out.stats.misses as usize != jobs {
                    return Err(format!(
                        "distributed pass with {workers} worker(s) did not execute every \
                         job: {} executed, {} failed of {jobs}",
                        out.stats.misses, out.stats.failures
                    ));
                }
                Ok(Run::of(sweep_indicators(&out)))
            };
            let pass = b.time_with(open, pass)?;
            walls.push(
                b.versus(format!("workers-{workers}/{n}"), &solo, pass)
                    .wall_ms,
            );
        }
        println!(
            "    1→4 worker speedup {:.2}x",
            walls[0] / walls[walls.len() - 1].max(1e-9)
        );
    }
    Ok(())
}

/// Spawns `secreta worker` processes on `store` with the session's
/// arguments, pinned to the bench's `--threads` when one was given.
fn worker_spawner(
    session: Vec<String>,
    pin: Option<usize>,
    store: &Path,
) -> impl Fn(usize, &str) -> std::io::Result<std::process::Child> + Sync {
    let store = store.to_path_buf();
    move |_, sweep| {
        let mut cmd = std::process::Command::new(std::env::current_exe()?);
        cmd.arg("worker")
            .args(&session)
            .arg("--store-dir")
            .arg(&store)
            .args(["--sweep", sweep])
            .stdout(std::process::Stdio::null())
            .stderr(std::process::Stdio::inherit());
        if let Some(n) = pin {
            cmd.env("SECRETA_THREADS", n.to_string());
        }
        cmd.spawn()
    }
}

/// `all`: the cross-layer gate suite. One dataset size, every kernel
/// the perf work targets (the relational algorithms, all seven
/// transaction algorithms under the tiered kernels with a live privacy
/// policy, the histogram-vectorized GCP); CI gates it against
/// `benches/baseline.json`.
fn all(b: &mut Bench) -> Result<(), String> {
    let (k, seed) = (b.k, b.seed);
    let &[rows] = &b.rows[..] else {
        return Err("--all measures a single --rows size".to_owned());
    };
    let rel_ctx = auto(DatasetSpec::adult_like(rows, seed), 4)?;
    let input = rel_input(&rel_ctx, k);
    // a finished Cluster run feeds the metrics/gcp case
    let rel_out = rel::cluster::anonymize(&input, seed).map_err(|e| e.to_string())?;
    // ... and the metrics/are case, over a fixed 50-query workload
    let workload = WorkloadSpec {
        n_queries: 50,
        ..Default::default()
    }
    .generate(&rel_ctx.table);
    // the gate's basket workload is fixed: the baseline must match it
    let (items, m) = (80, 2);
    b.param("items", items);
    b.param("k", k);
    b.param("m", m);
    let fx = TxFixture::build(b, rows, (items, m), true)?;
    b.single("rel/cluster".to_owned(), || {
        rel::cluster::anonymize(&input, seed)
            .map(Run::of)
            .map_err(|e| e.to_string())
    })?;
    for &name in REL_ALGOS {
        b.single(format!("rel/{name}"), || {
            run_rel(name, &input, rel::Counting::Kernel)
        })?;
    }
    for &name in TX_ALGOS {
        let id = format!("tx/{}", name.replace('-', "_"));
        b.single(id, || fx.run(name, Counting::Kernel))?;
    }
    b.single("metrics/gcp".to_owned(), || {
        // one evaluation is tens of microseconds — far below timer
        // noise; a fixed inner repeat lifts the case into a range the
        // regression gate can meaningfully compare
        for _ in 0..100 {
            let g = secreta_core::metrics::gcp(&rel_ctx.table, &rel_out.anon, |a| {
                rel_ctx.hierarchy_of(a).cloned()
            });
            std::hint::black_box(g);
        }
        Ok(Run::of(()))
    })?;
    b.single("metrics/are".to_owned(), || {
        let are = secreta_core::metrics::average_relative_error(
            &rel_ctx.table,
            &rel_out.anon,
            &workload,
            |a| rel_ctx.hierarchy_of(a).cloned(),
            None,
        );
        Ok(Run::of(std::hint::black_box(are)))
    })?;
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;

    fn args(line: &str) -> Args {
        Args::parse(line.split_whitespace().map(str::to_owned)).unwrap()
    }

    /// A suite of one test builder; the distinct `name` keeps the
    /// scratch dirs of concurrently running tests apart.
    fn test_suite(name: &'static str, build: fn(&mut Bench) -> Result<(), String>) -> Suite {
        Suite {
            name,
            id: "test",
            out: "unused.json",
            rows: "1",
            build,
        }
    }

    /// The scratch file [`failing`] wrote before its case failed.
    static WRITTEN: std::sync::Mutex<Option<PathBuf>> = std::sync::Mutex::new(None);

    fn failing(b: &mut Bench) -> Result<(), String> {
        let file = b.scratch.0.join("partial.csv");
        b.single("fails".to_owned(), || {
            std::fs::write(&file, "half a dataset").map_err(|e| e.to_string())?;
            *WRITTEN.lock().unwrap() = Some(file.clone());
            Err::<Run<()>, _>("case failed".to_owned())
        })?;
        Ok(())
    }

    #[test]
    fn scratch_dir_is_removed_when_a_case_fails() {
        let s = test_suite("test-failing", failing);
        let err = run(&args("bench --reps 1"), &s).unwrap_err();
        assert!(err.contains("case failed"), "{err}");
        let file = WRITTEN.lock().unwrap().clone().expect("the case ran");
        assert!(!file.parent().unwrap().exists(), "scratch dir leaked");
    }

    fn diverging(b: &mut Bench) -> Result<(), String> {
        b.pair("agrees".to_owned(), || Ok(Run::of(1)), || Ok(Run::of(1)))?;
        b.pair("differs".to_owned(), || Ok(Run::of(1)), || Ok(Run::of(2)))?;
        Ok(())
    }

    #[test]
    fn diverging_pair_fails_after_the_report_is_written() {
        let out = std::env::temp_dir().join(format!("secreta-diverge-{}.json", std::process::id()));
        let s = test_suite("test-diverging", diverging);
        let line = format!("bench --reps 2 --out {}", out.display());
        let err = run(&args(&line), &s).unwrap_err();
        assert!(err.contains("differs") && !err.contains("agrees"), "{err}");
        let report: BenchReport =
            serde_json::from_str(&std::fs::read_to_string(&out).unwrap()).unwrap();
        std::fs::remove_file(&out).unwrap();
        let identical: Vec<_> = report.cases.iter().map(|c| c.outputs_identical).collect();
        assert_eq!(identical, [Some(true), Some(false)]);
        assert_eq!(report.cases[1].reps, 2);
    }

    /// `secreta help` and GUIDE.md's suite table name every suite and
    /// its report; the unknown-suite error lists them all.
    #[test]
    fn every_suite_is_documented() {
        let help = crate::commands::HELP;
        let listed = help.split("--suite ").nth(1).unwrap();
        let listed: Vec<&str> = listed[..listed.find(']').unwrap()]
            .split('|')
            .map(str::trim)
            .collect();
        let guide = include_str!("../../../docs/GUIDE.md");
        let err = cmd_bench(&args("bench --suite nope")).unwrap_err();
        for s in SUITES {
            let flag = match s.name {
                "all" => "`--all`".to_owned(),
                name => format!("`--suite {name}`"),
            };
            assert!(
                listed.contains(&s.name) || (s.name == "all" && help.contains("| --all")),
                "`secreta help` does not list {}",
                s.name
            );
            assert!(
                guide
                    .lines()
                    .any(|l| l.starts_with(&format!("| {flag}")) && l.contains(s.out)),
                "GUIDE.md's suite table has no {flag} row naming {}",
                s.out
            );
            assert!(err.contains(s.name), "{err}");
        }
        assert_eq!(
            listed.len(),
            SUITES.len() - 1,
            "help lists a suite that does not exist"
        );
    }
}
