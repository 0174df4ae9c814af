//! Self-tests of the benchmark: seeded inputs, the correctness gate,
//! run hygiene, tiny end-to-end runs of every workload, and the metric
//! catalogue against `BENCHMARK.json` and `README.md`.

use secreta_perfbench::gate::{self, JobOutcome};
use secreta_perfbench::report::{END_TO_END, PER_LAYER};
use secreta_perfbench::workload::{Inputs, Size, Workload};
use secreta_perfbench::{check_hygiene, setup, sweep, Options};
use std::path::{Path, PathBuf};
use std::process::Command;

const EXE: &str = env!("CARGO_BIN_EXE_secreta-perfbench");

/// A fresh directory for one test.
fn scratch(name: &str) -> PathBuf {
    let dir = Path::new(env!("CARGO_TARGET_TMPDIR")).join(name);
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).unwrap();
    dir
}

fn files(inputs: &Inputs) -> Vec<Vec<u8>> {
    [
        Some(&inputs.dataset),
        Some(&inputs.queries),
        inputs.privacy.as_ref(),
    ]
    .into_iter()
    .flatten()
    .map(|p| std::fs::read(p).unwrap())
    .collect()
}

#[test]
fn equal_seeds_write_identical_inputs_and_other_seeds_differ() {
    for w in Workload::ALL {
        let dir = scratch(&format!("inputs-{}", w.name()));
        let write = |sub: &str, seed| {
            let d = dir.join(sub);
            std::fs::create_dir_all(&d).unwrap();
            files(&w.write_inputs(Size::Tiny, seed, &d).unwrap())
        };
        let a = write("a", 7);
        let b = write("b", 7);
        let c = write("c", 8);
        assert_eq!(a, b, "{}: same seed, different files", w.name());
        assert_eq!(a.len(), c.len());
        // the dataset and every non-empty file drawn from it change
        // with the seed (evaluate-large has no queries)
        for (x, y) in a.iter().zip(&c) {
            if !(x.is_empty() && y.is_empty()) {
                assert_ne!(x, y, "{}: another seed wrote an identical file", w.name());
            }
        }
    }
}

fn tiny_options(workload: Workload, trace: bool) -> Options {
    Options {
        workload,
        seed: 3,
        seconds: 0.0,
        trace,
        size: Size::Tiny,
        eval_threads: 1,
        kernel_threads: 1,
    }
}

/// Outcomes of a real tiny compare-rt sweep whose warm replay passed
/// the gate, as (cold, warm): the gate already proved them equal.
fn real_sweep(name: &str) -> (Vec<JobOutcome>, Vec<JobOutcome>) {
    let dir = scratch(name);
    let w = Workload::CompareRt;
    let inputs = w.write_inputs(Size::Tiny, 3, &dir).unwrap();
    let (ctx, _, _) = setup::load(&inputs, &w.plan(Size::Tiny)).unwrap();
    let configs = w.configurations(3);
    let (cold, store) = sweep::cold(&ctx, &configs, 1, &dir.join("store")).unwrap();
    sweep::warm(&ctx, &configs, 1, store, &cold.jobs).unwrap();
    (cold.jobs.clone(), cold.jobs)
}

#[test]
fn tampered_expectations_trip_the_gate() {
    let (cold, warm) = real_sweep("gate-tamper");
    assert_eq!(cold.len(), 18, "six configurations x three k values");
    gate::check_jobs(&cold).unwrap();
    gate::same_indicators("warm", &cold, &warm, false).unwrap();
    let ind = |jobs: &mut Vec<JobOutcome>| jobs[4].result.as_mut().unwrap().clone();

    // a changed indicator: the warm check and the digest both see it
    let mut changed = warm.clone();
    let mut i = ind(&mut changed);
    i.are += 1e-12;
    changed[4].result = Ok(i);
    assert!(gate::same_indicators("warm", &cold, &changed, false).is_err());
    assert!(gate::same_indicators("traced", &cold, &changed, true).is_err());
    assert_ne!(gate::digest(&cold), gate::digest(&changed));

    // runtime alone: a replay must match it, a traced run may not
    let mut slower = warm.clone();
    let mut i = ind(&mut slower);
    i.runtime_ms += 1.0;
    slower[4].result = Ok(i);
    assert!(gate::same_indicators("warm", &cold, &slower, false).is_err());
    gate::same_indicators("traced", &cold, &slower, true).unwrap();
    assert_eq!(gate::digest(&cold), gate::digest(&slower));

    // an unverified output, a failed audit, a failed job
    let mut unverified = cold.clone();
    let mut i = ind(&mut unverified);
    i.verified = false;
    unverified[4].result = Ok(i);
    assert!(gate::check_jobs(&unverified).is_err());

    let mut audit = cold.clone();
    let mut i = ind(&mut audit);
    let risk = i.risk.as_mut().unwrap();
    risk.audit.passed = false;
    risk.audit.violations = 1;
    audit[4].result = Ok(i);
    assert!(gate::check_jobs(&audit).is_err());

    let mut failed = cold.clone();
    failed[4].result = Err("algorithm panicked".to_owned());
    assert!(gate::check_jobs(&failed).is_err());
    assert!(gate::same_indicators("warm", &cold, &failed, false).is_err());

    // a missing job
    assert!(gate::same_indicators("warm", &cold, &cold[1..], false).is_err());
}

#[test]
fn cache_counters_are_gated() {
    let (cold, warm) = real_sweep("gate-counters");
    let n = cold.len() as u64;
    let stats = |hits, misses, failures| secreta_core::CacheStats {
        hits,
        misses,
        failures,
    };
    gate::check_cold(stats(0, n, 0), &cold).unwrap();
    assert!(gate::check_cold(stats(1, n - 1, 0), &cold).is_err());
    gate::check_warm(stats(n, 0, 0), &cold, &warm).unwrap();
    assert!(gate::check_warm(stats(n - 1, 1, 0), &cold, &warm).is_err());
    assert!(gate::check_warm(stats(n - 1, 0, 1), &cold, &warm).is_err());
}

#[test]
fn oversubscription_is_refused() {
    let mut opts = tiny_options(Workload::CompareRt, false);
    opts.eval_threads = 2;
    opts.kernel_threads = 2;
    assert!(check_hygiene(&opts, 3)
        .unwrap_err()
        .contains("oversubscribe"));
    check_hygiene(&opts, 4).unwrap();
    opts.kernel_threads = 0;
    assert!(check_hygiene(&opts, 4).is_err());
}

/// Run the binary on a tiny workload in `dir`; returns (exit ok,
/// stdout).
fn run_tiny(dir: &Path, workload: &str, trace: &str, env: &[(&str, &str)]) -> (bool, String) {
    let out = Command::new(EXE)
        .current_dir(dir)
        .args(["--workload", workload, "--seed", "5", "--seconds", "0"])
        .args(["--trace", trace, "--size", "tiny"])
        .envs(env.iter().copied())
        .output()
        .unwrap();
    (out.status.success(), String::from_utf8(out.stdout).unwrap())
}

fn result_line(stdout: &str) -> serde::Value {
    serde_json::parse_value(stdout.lines().last().expect("a result line")).unwrap()
}

#[test]
fn tiny_runs_of_every_workload_pass_the_gate() {
    for w in Workload::ALL {
        let dir = scratch(&format!("run-{}", w.name()));
        for (trace, catalogue) in [("0", END_TO_END), ("1", PER_LAYER)] {
            let (ok, stdout) = run_tiny(&dir, w.name(), trace, &[]);
            assert!(ok, "{} --trace {trace} failed:\n{stdout}", w.name());
            let line = result_line(&stdout);
            let obj = line.as_obj().unwrap();
            let keys: Vec<&str> = obj.iter().map(|(k, _)| k.as_str()).collect();
            assert_eq!(keys, ["correct", "attempted", "failed", "metrics"]);
            assert_eq!(
                serde::obj_get(obj, "correct"),
                Some(&serde::Value::Bool(true))
            );
            let metrics = serde::obj_get(obj, "metrics").unwrap().as_obj().unwrap();
            let names: Vec<&str> = metrics.iter().map(|(k, _)| k.as_str()).collect();
            let expected: Vec<&str> = catalogue.iter().map(|m| m.name).collect();
            assert_eq!(names, expected);
            // the run leaves nothing behind in its directory
            assert!(!dir.join(".bench_work").exists());
        }
    }
}

#[test]
fn two_runs_of_one_seed_print_the_same_digest() {
    let dir = scratch("digest");
    let digest = |stdout: &str| {
        stdout
            .lines()
            .find_map(|l| l.strip_prefix("digest "))
            .unwrap()
            .to_owned()
    };
    let (ok_a, a) = run_tiny(&dir, "compare-tx", "0", &[]);
    let (ok_b, b) = run_tiny(&dir, "compare-tx", "1", &[]);
    assert!(ok_a && ok_b);
    assert_eq!(digest(&a), digest(&b));
}

#[test]
fn an_active_fault_plan_is_refused_without_a_result() {
    let dir = scratch("faults");
    let fault_plan = [(secreta_core::faults::ENV_VAR, "seed=1")];
    let (ok, stdout) = run_tiny(&dir, "compare-rt", "0", &fault_plan);
    assert!(!ok);
    assert!(!stdout.contains("\"correct\""));
}

#[test]
fn catalogue_matches_benchmark_json_and_readme() {
    let root = Path::new(env!("CARGO_MANIFEST_DIR"));
    let text = std::fs::read_to_string(root.join("../BENCHMARK.json")).unwrap();
    let spec = serde_json::parse_value(&text).unwrap();
    let spec = spec.as_obj().unwrap();
    let listed = |key: &str| -> Vec<(String, String)> {
        serde::obj_get(spec, key)
            .unwrap()
            .as_arr()
            .unwrap()
            .iter()
            .map(|m| {
                let m = m.as_obj().unwrap();
                let s = |k| match serde::obj_get(m, k) {
                    Some(serde::Value::Str(s)) => s.clone(),
                    other => panic!("{k}: {other:?}"),
                };
                (s("name"), s("unit"))
            })
            .collect()
    };
    let ours = |c: &[secreta_perfbench::report::Metric]| -> Vec<(String, String)> {
        c.iter()
            .map(|m| (m.name.to_owned(), m.unit.to_owned()))
            .collect()
    };
    assert_eq!(listed("end_to_end"), ours(END_TO_END));
    assert_eq!(listed("per_layer"), ours(PER_LAYER));

    let workloads: Vec<String> = serde::obj_get(spec, "workloads")
        .unwrap()
        .as_arr()
        .unwrap()
        .iter()
        .map(|w| match serde::obj_get(w.as_obj().unwrap(), "name") {
            Some(serde::Value::Str(s)) => s.clone(),
            other => panic!("{other:?}"),
        })
        .collect();
    let ours: Vec<String> = Workload::ALL.iter().map(|w| w.name().to_owned()).collect();
    assert_eq!(workloads, ours);

    let readme = std::fs::read_to_string(root.join("README.md")).unwrap();
    for m in END_TO_END.iter().chain(PER_LAYER) {
        assert!(
            readme.contains(&format!("`{}`", m.name)),
            "README.md does not document {}",
            m.name
        );
    }
    for w in Workload::ALL {
        assert!(readme.contains(&format!("`{}`", w.name())));
    }
}
