//! `secreta-perfbench --workload NAME --seed N --seconds S --trace 0|1`
//!
//! Writes the workload's input files from the seed (in a child
//! process, so input generation leaves no trace in this process's
//! peak RSS), runs the benchmark, prints a machine stamp and the
//! indicator digest, and ends with one JSON result line. Any failed
//! correctness check exits 1 without a result line.
//!
//! Other option: `--size full|tiny` (tiny inputs for self-tests). The
//! sweeps run on min(2, CPUs) evaluator threads of one kernel thread
//! each.

use secreta_perfbench::report::{self, END_TO_END, PER_LAYER};
use secreta_perfbench::workload::{Inputs, Size, Workload};
use secreta_perfbench::{sys, Options, TRACED_THREADS};
use serde::Value;
use std::path::{Path, PathBuf};
use std::process::{Command, ExitCode};

/// Scratch directory for inputs and stores, under the current
/// directory.
const WORK_ROOT: &str = ".bench_work";

struct Cli {
    opts: Options,
    /// Set in the input-writing child: write the inputs here and exit.
    write_inputs: Option<PathBuf>,
}

fn parse(args: &[String]) -> Result<Cli, String> {
    let mut workload = None;
    let mut seed = None;
    let mut seconds = 24.0;
    let mut trace = false;
    let mut size = Size::Full;
    let mut write_inputs = None;
    let mut it = args.iter();
    while let Some(flag) = it.next() {
        let value = it
            .next()
            .ok_or_else(|| format!("{flag} expects a value"))?
            .as_str();
        let number = |v: &str| {
            v.parse::<u64>()
                .map_err(|_| format!("{flag} expects a whole number, got {v:?}"))
        };
        match flag.as_str() {
            "--workload" => {
                workload = Some(Workload::parse(value).ok_or_else(|| {
                    let names: Vec<_> = Workload::ALL.iter().map(|w| w.name()).collect();
                    format!("unknown workload {value:?} (one of {})", names.join(", "))
                })?)
            }
            "--seed" => seed = Some(number(value)?),
            "--seconds" => {
                seconds = value
                    .parse::<f64>()
                    .ok()
                    .filter(|s| s.is_finite() && *s >= 0.0)
                    .ok_or_else(|| format!("--seconds expects seconds, got {value:?}"))?
            }
            "--trace" => {
                trace = match value {
                    "0" => false,
                    "1" => true,
                    _ => return Err(format!("--trace expects 0 or 1, got {value:?}")),
                }
            }
            "--size" => {
                size = Size::parse(value)
                    .ok_or_else(|| format!("--size expects full or tiny, got {value:?}"))?
            }
            "--write-inputs" => write_inputs = Some(PathBuf::from(value)),
            _ => return Err(format!("unknown option {flag}")),
        }
    }
    Ok(Cli {
        opts: Options {
            workload: workload.ok_or("--workload is required")?,
            seed: seed.ok_or("--seed is required")?,
            seconds,
            trace,
            size,
            eval_threads: sys::nproc().min(2),
            kernel_threads: 1,
        },
        write_inputs,
    })
}

/// Write the inputs in a child process and wait for it.
fn write_inputs_in_child(opts: &Options, dir: &Path) -> Result<Inputs, String> {
    let exe = std::env::current_exe().map_err(|e| e.to_string())?;
    let status = Command::new(exe)
        .arg("--workload")
        .arg(opts.workload.name())
        .arg("--seed")
        .arg(opts.seed.to_string())
        .arg("--size")
        .arg(opts.size.name())
        .arg("--write-inputs")
        .arg(dir)
        .status()
        .map_err(|e| format!("input writer: {e}"))?;
    if !status.success() {
        return Err(format!("input writer failed: {status}"));
    }
    let plan = opts.workload.plan(opts.size);
    Ok(Inputs::in_dir(dir, plan.privacy_itemsets > 0))
}

fn stamp(opts: &Options, inputs: &Inputs, reps: usize) -> Value {
    let plan = opts.workload.plan(opts.size);
    let s = |v: &str| Value::Str(v.to_owned());
    let n = |v: u64| Value::U64(v);
    let mut fields = vec![
        ("workload".to_owned(), s(opts.workload.name())),
        ("seed".to_owned(), n(opts.seed)),
        ("size".to_owned(), s(opts.size.name())),
        ("trace".to_owned(), Value::Bool(opts.trace)),
        ("reps".to_owned(), n(reps as u64)),
        ("nproc".to_owned(), n(sys::nproc() as u64)),
        ("cpu".to_owned(), s(&sys::cpu_model())),
        ("kernel".to_owned(), s(&sys::kernel())),
        ("rustc".to_owned(), s(sys::rustc())),
        ("commit".to_owned(), s(&sys::git_commit(Path::new(".")))),
        ("eval_threads".to_owned(), n(opts.eval_threads as u64)),
        ("kernel_threads".to_owned(), n(opts.kernel_threads as u64)),
        ("rows".to_owned(), n(plan.rows as u64)),
        ("items".to_owned(), n(plan.items as u64)),
        ("queries".to_owned(), n(plan.queries as u64)),
        (
            "privacy_itemsets".to_owned(),
            n(plan.privacy_itemsets as u64),
        ),
        ("input_bytes".to_owned(), n(inputs.bytes())),
    ];
    if opts.trace {
        fields.push(("traced_eval_threads".to_owned(), n(TRACED_THREADS.0 as u64)));
        fields.push((
            "traced_kernel_threads".to_owned(),
            n(TRACED_THREADS.1 as u64),
        ));
    }
    Value::Obj(fields)
}

fn bench(opts: &Options, work: &Path) -> Result<(), String> {
    std::fs::create_dir_all(work).map_err(|e| format!("{}: {e}", work.display()))?;
    let inputs = write_inputs_in_child(opts, work)?;
    let out = secreta_perfbench::run(opts, &inputs, work)?;
    let catalogue = if opts.trace { PER_LAYER } else { END_TO_END };
    let line = report::result_line(catalogue, &out.values, out.attempted)?;
    let stamp =
        serde_json::to_string(&stamp(opts, &inputs, out.reps)).map_err(|e| e.to_string())?;
    println!("stamp {stamp}");
    println!("digest {}", out.digest);
    for metric in catalogue {
        println!(
            "{:<44} {:>16.4} {}",
            metric.name, out.values[metric.name], metric.unit
        );
    }
    println!("{line}");
    Ok(())
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let cli = match parse(&args) {
        Ok(cli) => cli,
        Err(e) => {
            eprintln!("error: {e}");
            return ExitCode::from(2);
        }
    };
    if let Some(dir) = &cli.write_inputs {
        return match cli
            .opts
            .workload
            .write_inputs(cli.opts.size, cli.opts.seed, dir)
        {
            Ok(_) => ExitCode::SUCCESS,
            Err(e) => {
                eprintln!("error: {e}");
                ExitCode::FAILURE
            }
        };
    }
    if let Err(e) = secreta_perfbench::check_hygiene(&cli.opts, sys::nproc()) {
        eprintln!("error: {e}");
        return ExitCode::FAILURE;
    }
    let work = Path::new(WORK_ROOT).join(format!(
        "{}-{}-{}",
        cli.opts.workload.name(),
        cli.opts.seed,
        std::process::id()
    ));
    let result = bench(&cli.opts, &work);
    // best effort: the root goes only when no other run is using it
    let _ = std::fs::remove_dir_all(&work);
    let _ = std::fs::remove_dir(WORK_ROOT);
    match result {
        Ok(()) => ExitCode::SUCCESS,
        Err(e) => {
            eprintln!("error: {e}");
            ExitCode::FAILURE
        }
    }
}
