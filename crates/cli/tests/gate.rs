//! The `bench --all` perf-gate test, in a test binary of its own.
//!
//! It self-compares two debug `bench --all` runs at a 100% gate, so it
//! must not share the machine with other tests: cargo runs test
//! binaries one after another, and this file holds no other test.

use std::path::PathBuf;
use std::process::Command;

fn secreta() -> Command {
    Command::new(env!("CARGO_BIN_EXE_secreta"))
}

fn tmpdir(name: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("secreta_cli_{name}_{}", std::process::id()));
    std::fs::create_dir_all(&dir).unwrap();
    dir
}

/// `bench --all` end to end: the report is schema-versioned JSON, a
/// self-comparison passes the gate, and a synthetic slowdown
/// (`SECRETA_BENCH_HANDICAP`) trips it. Generous `--gate-pct`
/// margins keep scheduler noise at tiny row counts from flaking the
/// pass leg; the 4x handicap (+300%) clears the same margin with
/// room to spare.
#[test]
fn bench_all_gate_passes_self_and_fails_handicap() {
    let dir = tmpdir("ballgate");
    let base = dir.join("base.json");
    let run = |extra_env: Option<(&str, &str)>, baseline: bool, out_name: &str| {
        let mut cmd = secreta();
        cmd.args([
            "bench",
            "--all",
            "--rows",
            "200",
            "--reps",
            "2",
            "--threads",
            "2",
            "--out",
        ])
        .arg(dir.join(out_name));
        if baseline {
            cmd.args(["--baseline"])
                .arg(&base)
                .args(["--gate-pct", "100"]);
        }
        if let Some((k, v)) = extra_env {
            cmd.env(k, v);
        }
        cmd.output().unwrap()
    };

    let first = run(None, false, "base.json");
    assert!(
        first.status.success(),
        "{}",
        String::from_utf8_lossy(&first.stderr)
    );
    let report = std::fs::read_to_string(&base).unwrap();
    for key in [
        "schema_version",
        "calibration_ms",
        "machine",
        "tx/coat",
        "metrics/gcp",
    ] {
        assert!(report.contains(key), "report must carry {key}: {report}");
    }

    let selfcmp = run(None, true, "self.json");
    assert!(
        selfcmp.status.success(),
        "self-comparison must pass the gate: {}\n{}",
        String::from_utf8_lossy(&selfcmp.stdout),
        String::from_utf8_lossy(&selfcmp.stderr)
    );
    assert!(
        String::from_utf8_lossy(&selfcmp.stdout).contains("gate passed"),
        "{}",
        String::from_utf8_lossy(&selfcmp.stdout)
    );

    let handicapped = run(Some(("SECRETA_BENCH_HANDICAP", "4")), true, "slow.json");
    assert_eq!(
        handicapped.status.code(),
        Some(1),
        "a 4x slowdown must fail the gate: {}",
        String::from_utf8_lossy(&handicapped.stdout)
    );
    let err = String::from_utf8_lossy(&handicapped.stderr);
    assert!(
        err.contains("perf regression") && err.contains("update_bench_baseline"),
        "the failure names the remedy: {err}"
    );
    std::fs::remove_dir_all(&dir).ok();
}
