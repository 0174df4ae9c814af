//! Every `secreta bench` suite against the one report schema.
//!
//! A test binary of its own: cargo runs test binaries one after
//! another, so these nine suites never load the machine while the
//! timing-sensitive `bench --all` gate test in `cli.rs` runs.

use secreta_bench::report::{BenchReport, SCHEMA_VERSION};
use std::process::Command;

/// Every suite writes the one versioned report schema: repetitions
/// with their spread, a machine stamp, the `--threads` it ran with,
/// and identical outputs on every reference/optimized pair.
#[test]
fn every_suite_writes_the_one_report_schema() {
    let dir = std::env::temp_dir().join(format!("secreta_bench_schema_{}", std::process::id()));
    std::fs::create_dir_all(&dir).unwrap();
    for (suite, rows) in [
        ("kernels", "80"),
        ("store", "60"),
        ("obsv", "80"),
        ("tx", "80"),
        ("tiered", "80"),
        ("risk", "80"),
        ("scale", "3000"),
        ("rel", "80"),
        ("dist", "40"),
    ] {
        let path = dir.join(format!("{suite}.json"));
        let out = Command::new(env!("CARGO_BIN_EXE_secreta"))
            .args(["bench", "--suite", suite, "--rows", rows, "--reps", "2"])
            .args(["--threads", "1"])
            .args(["--json", "--out"])
            .arg(&path)
            .env_remove("SECRETA_FAULTS")
            .output()
            .unwrap();
        assert!(
            out.status.success(),
            "suite {suite}: {}",
            String::from_utf8_lossy(&out.stderr)
        );
        let report: BenchReport =
            serde_json::from_str(&std::fs::read_to_string(&path).unwrap()).unwrap();
        assert_eq!(report.schema_version, SCHEMA_VERSION, "{suite}");
        assert_eq!(report.threads, 1, "{suite}");
        assert!(report.machine.cpus >= 1 && !report.machine.os.is_empty());
        assert!(!report.cases.is_empty(), "{suite}");
        for c in &report.cases {
            assert_eq!(c.reps, 2, "{suite} {}", c.id);
            assert!(
                c.wall_ms <= c.median_ms && c.median_ms <= c.max_ms,
                "{suite} {}: {c:?}",
                c.id
            );
            if c.reference.is_some() {
                assert_eq!(c.outputs_identical, Some(true), "{suite} {}", c.id);
            }
        }
        let pairs = report.cases.iter().filter(|c| c.reference.is_some());
        assert!(suite == "scale" || pairs.count() > 0, "{suite} has no pair");
    }
    std::fs::remove_dir_all(&dir).ok();
}
