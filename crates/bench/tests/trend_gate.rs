//! End-to-end contract of the run ledger and the `lpstudy trend`
//! regression sentinel: three consecutive stable appends keep the gate
//! green, an injected ≥10% slowdown trips it with the distinct exit
//! code 2, and a real measuring run appends one parseable record.

use lp_obs::trend::{append_ledger, read_ledger, TrendRecord};
use std::path::PathBuf;
use std::process::{Command, Output};

fn lpstudy(args: &[&str]) -> Output {
    Command::new(env!("CARGO_BIN_EXE_lpstudy"))
        .args(args)
        .env("LP_LOG", "off")
        .env_remove("LP_PROFILE_CACHE")
        .output()
        .expect("spawn lpstudy")
}

fn tmp(name: &str) -> PathBuf {
    std::env::temp_dir().join(format!("lp-{name}-{}", std::process::id()))
}

/// A ledger record in one fixed series with the given throughput.
fn record(profile_mips: f64, seq: u64) -> TrendRecord {
    TrendRecord {
        bench: "eembc.matrix01".to_string(),
        scale: "test".to_string(),
        engine: "bc".to_string(),
        label: String::new(),
        reps: 3,
        unix_ms: 1_700_000_000_000 + seq,
        machine: "deadbeefdeadbeef".to_string(),
        profile_mips,
        interp_mips: profile_mips * 12.0,
        slowdown: 12.0,
        journal_overhead: 0.004,
        counters: vec![("loop_instances".to_string(), 42)],
    }
}

#[test]
fn three_stable_runs_pass_and_an_injected_slowdown_exits_2() {
    let ledger = tmp("trend-gate.jsonl");
    let _ = std::fs::remove_file(&ledger);
    let path = ledger.to_str().unwrap();

    // Three consecutive appended runs on an unchanged tree: each check
    // in turn must pass (the first ones trivially — a fresh ledger has
    // too little history to fail).
    for (seq, mips) in [(0, 46.0), (1, 46.2), (2, 45.9)] {
        append_ledger(&ledger, &record(mips, seq)).unwrap();
        let out = lpstudy(&["trend", "--ledger", path, "--check"]);
        assert_eq!(
            out.status.code(),
            Some(0),
            "stable run {seq} failed: {}{}",
            String::from_utf8_lossy(&out.stdout),
            String::from_utf8_lossy(&out.stderr)
        );
    }

    // A fourth stable point passes with full history...
    append_ledger(&ledger, &record(46.1, 3)).unwrap();
    let out = lpstudy(&["trend", "--ledger", path, "--check"]);
    assert_eq!(out.status.code(), Some(0));

    // ...but a ≥10% slowdown falls outside the noise band: exit 2, the
    // code CI distinguishes from crashes (1) and usage errors (2 comes
    // only from the verdict path here — stderr stays empty).
    append_ledger(&ledger, &record(46.0 * 0.88, 4)).unwrap();
    let out = lpstudy(&["trend", "--ledger", path, "--check"]);
    assert_eq!(
        out.status.code(),
        Some(2),
        "slowdown not caught: {}",
        String::from_utf8_lossy(&out.stdout)
    );
    let stdout = String::from_utf8_lossy(&out.stdout);
    assert!(stdout.contains("REGRESSION"), "verdict missing: {stdout}");

    // Without --check the same ledger only summarises (exit 0).
    let out = lpstudy(&["trend", "--ledger", path]);
    assert_eq!(out.status.code(), Some(0));
    assert!(String::from_utf8_lossy(&out.stdout).contains("5 record(s)"));

    let _ = std::fs::remove_file(&ledger);
}

#[test]
fn checking_an_empty_ledger_fails_but_summarising_does_not() {
    let ledger = tmp("trend-empty.jsonl");
    let _ = std::fs::remove_file(&ledger);
    let path = ledger.to_str().unwrap();
    let out = lpstudy(&["trend", "--ledger", path]);
    assert_eq!(out.status.code(), Some(0));
    let out = lpstudy(&["trend", "--ledger", path, "--check"]);
    assert_eq!(out.status.code(), Some(1));
}

#[test]
fn a_measuring_run_appends_one_self_describing_record() {
    let ledger = tmp("trend-append.jsonl");
    let _ = std::fs::remove_file(&ledger);
    let path = ledger.to_str().unwrap();
    let out = lpstudy(&[
        "bench",
        "test",
        "--bench",
        "eembc.matrix01",
        "--reps",
        "1",
        "--trend",
        path,
        "--label",
        "unit test",
        "--quiet",
    ]);
    assert!(
        out.status.success(),
        "lpstudy bench failed: {}",
        String::from_utf8_lossy(&out.stderr)
    );
    let records = read_ledger(&ledger).expect("appended ledger parses");
    assert_eq!(records.len(), 1);
    let rec = &records[0];
    assert_eq!(rec.bench, "eembc.matrix01");
    assert_eq!(rec.scale, "test");
    assert_eq!(rec.label, "unit test");
    assert_eq!(rec.reps, 1);
    assert_eq!(rec.engine, "bc", "the default engine is recorded");
    assert!(rec.profile_mips > 0.0, "throughput missing: {rec:?}");
    assert!(
        rec.interp_mips > rec.profile_mips,
        "profiling must cost something"
    );
    assert_eq!(rec.machine.len(), 16, "machine digest is 16 hex chars");
    assert!(!rec.counters.is_empty(), "key counters must ride along");

    // A second run lands in the same series (same bench/scale/machine).
    let out = lpstudy(&[
        "bench",
        "test",
        "--bench",
        "eembc.matrix01",
        "--reps",
        "1",
        "--trend",
        path,
        "--quiet",
    ]);
    assert!(out.status.success());
    let records = read_ledger(&ledger).unwrap();
    assert_eq!(records.len(), 2);
    assert_eq!(records[0].series_key(), records[1].series_key());

    let _ = std::fs::remove_file(&ledger);
}

/// Tree and bc runs of one bench form separate series: a tree run
/// appended after three bc runs is not judged against the faster
/// engine's band, so the gate passes instead of reporting a regression.
#[test]
fn a_tree_run_after_bc_runs_is_not_a_regression() {
    let ledger = tmp("trend-engines.jsonl");
    let _ = std::fs::remove_file(&ledger);
    let path = ledger.to_str().unwrap();
    for engine in ["bc", "bc", "bc", "tree"] {
        let out = lpstudy(&[
            "bench",
            "small",
            "--engine",
            engine,
            "--bench",
            "eembc.matrix01",
            "--reps",
            "3",
            "--trend",
            path,
            "--quiet",
        ]);
        assert!(
            out.status.success(),
            "lpstudy bench --engine {engine} failed: {}",
            String::from_utf8_lossy(&out.stderr)
        );
    }
    let records = read_ledger(&ledger).unwrap();
    let engines: Vec<&str> = records.iter().map(|r| r.engine.as_str()).collect();
    assert_eq!(engines, ["bc", "bc", "bc", "tree"]);
    assert_ne!(records[2].series_key(), records[3].series_key());

    let out = lpstudy(&["trend", "--ledger", path, "--check"]);
    let stdout = String::from_utf8_lossy(&out.stdout);
    assert_eq!(
        out.status.code(),
        Some(0),
        "engines share a series: {stdout}"
    );
    assert!(
        stdout.contains("2 series"),
        "one series per engine: {stdout}"
    );

    let _ = std::fs::remove_file(&ledger);
}
