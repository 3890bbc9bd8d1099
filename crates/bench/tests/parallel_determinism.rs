//! Differential determinism tests for the parallel sweep engine at the
//! binary surface: the same sweep run with `--jobs 1`, `--jobs 2`, and
//! `--jobs 8` must produce **byte-identical** stdout — CSV from
//! `lpstudy sweep` and the human report from `lpstudy --suite` alike.
//! Worker scheduling may interleave stderr heartbeats, but the
//! deterministic index-ordered merge keeps every report stable.

use std::process::{Command, Output};

fn run(args: &[&str]) -> Output {
    Command::new(env!("CARGO_BIN_EXE_lpstudy"))
        .args(args)
        // The explicit --jobs flag must win over any ambient LP_JOBS.
        .env("LP_JOBS", "3")
        .env("LP_LOG", "off")
        .output()
        .expect("lpstudy runs")
}

fn stdout_for_jobs(args: &[&str], jobs: &str) -> String {
    let mut full: Vec<&str> = args.to_vec();
    full.extend_from_slice(&["--jobs", jobs]);
    let out = run(&full);
    assert!(
        out.status.success(),
        "lpstudy {args:?} --jobs {jobs} failed: {}",
        String::from_utf8_lossy(&out.stderr)
    );
    String::from_utf8(out.stdout).expect("utf-8 stdout")
}

#[test]
fn sweep_csv_is_byte_identical_across_job_counts() {
    let args = ["sweep", "test", "--suite", "eembc", "--quiet"];
    let serial = stdout_for_jobs(&args, "1");
    // 10 EEMBC benchmarks × 3 models × 32 configs + header.
    assert_eq!(serial.lines().count(), 1 + 10 * 3 * 32);
    assert!(serial.starts_with("program,model,config,"));
    for jobs in ["2", "8"] {
        let parallel = stdout_for_jobs(&args, jobs);
        assert_eq!(serial, parallel, "sweep CSV diverged at --jobs {jobs}");
    }
}

#[test]
fn lpstudy_suite_report_is_byte_identical_across_job_counts() {
    let args = ["--suite", "eembc", "test", "--quiet"];
    let serial = stdout_for_jobs(&args, "1");
    assert!(serial.contains("suite eembc — 10 benchmarks"));
    assert!(serial.contains("(GEOMEAN)"));
    for jobs in ["2", "8"] {
        let parallel = stdout_for_jobs(&args, jobs);
        assert_eq!(
            serial, parallel,
            "lpstudy --suite report diverged at --jobs {jobs}"
        );
    }
}

#[test]
fn fig2_output_is_byte_identical_across_job_counts() {
    let args = ["fig2", "test", "--quiet"];
    let serial = stdout_for_jobs(&args, "1");
    assert!(serial.starts_with("Figure 2"));
    for jobs in ["2", "8"] {
        let parallel = stdout_for_jobs(&args, jobs);
        assert_eq!(serial, parallel, "fig2 diverged at --jobs {jobs}");
    }
}

#[test]
fn fig4_and_explain_json_are_byte_identical_across_job_counts() {
    let dir = std::env::temp_dir().join(format!("lp-fig4-jobs-{}", std::process::id()));
    std::fs::create_dir_all(&dir).expect("create scratch dir");
    let mut outputs: Vec<(String, Vec<u8>)> = Vec::new();
    for jobs in ["1", "2", "8"] {
        let json = dir.join(format!("explain-{jobs}.json"));
        let json_arg = json.to_str().expect("utf-8 path").to_string();
        let args = ["fig4", "test", "--quiet", "--explain-out", &json_arg];
        let stdout = stdout_for_jobs(&args, jobs);
        let bytes = std::fs::read(&json).expect("explain JSON written");
        outputs.push((stdout, bytes));
    }
    let (serial_stdout, serial_json) = &outputs[0];
    assert!(serial_stdout.starts_with("Figure 4"));
    assert!(serial_json.starts_with(b"{"));
    for (i, jobs) in ["2", "8"].iter().enumerate() {
        let (stdout, json) = &outputs[i + 1];
        assert_eq!(
            stdout, serial_stdout,
            "fig4 stdout diverged at --jobs {jobs}"
        );
        assert_eq!(json, serial_json, "explain JSON diverged at --jobs {jobs}");
    }
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn jobs_flag_rejects_garbage() {
    for bad in [&["--jobs"][..], &["--jobs", "many"]] {
        let mut args = vec!["sweep", "test", "--suite", "eembc", "--quiet"];
        args.extend_from_slice(bad);
        let out = run(&args);
        assert_eq!(out.status.code(), Some(2), "args {bad:?} must be rejected");
        assert!(
            String::from_utf8_lossy(&out.stderr).contains("--jobs requires a non-negative integer"),
            "args {bad:?} must explain the usage"
        );
    }
}

#[test]
fn jobs_zero_clamps_to_serial_with_warning() {
    // An explicit `--jobs 0` is degenerate but not an error: it runs the
    // serial engine (identical output to `--jobs 1`) and warns.
    let args = ["sweep", "test", "--suite", "eembc", "--quiet"];
    let serial = stdout_for_jobs(&args, "1");
    // No --quiet here: the clamp warning must be visible on stderr.
    let out = Command::new(env!("CARGO_BIN_EXE_lpstudy"))
        .args(["sweep", "test", "--suite", "eembc", "--jobs", "0"])
        .env("LP_JOBS", "3")
        .env("LP_LOG", "info")
        .output()
        .expect("lpstudy runs");
    assert!(out.status.success(), "--jobs 0 must not be an error");
    assert_eq!(
        String::from_utf8(out.stdout).expect("utf-8 stdout"),
        serial,
        "--jobs 0 must take the serial path"
    );
    assert!(
        String::from_utf8_lossy(&out.stderr).contains("clamping to 1 worker"),
        "--jobs 0 must warn about the clamp"
    );
}

#[test]
fn lp_jobs_zero_env_clamps_to_serial_with_warning() {
    let args = ["sweep", "test", "--suite", "eembc", "--quiet"];
    let serial = stdout_for_jobs(&args, "1");
    // No --quiet here: the clamp warning must be visible on stderr.
    let out = Command::new(env!("CARGO_BIN_EXE_lpstudy"))
        .args(["sweep", "test", "--suite", "eembc"])
        .env("LP_JOBS", "0")
        .env("LP_LOG", "info")
        .output()
        .expect("lpstudy runs");
    assert!(out.status.success(), "LP_JOBS=0 must not be an error");
    assert_eq!(
        String::from_utf8(out.stdout).expect("utf-8 stdout"),
        serial,
        "LP_JOBS=0 must take the serial path"
    );
    assert!(
        String::from_utf8_lossy(&out.stderr).contains("LP_JOBS=0 requested; clamping to 1 worker"),
        "LP_JOBS=0 must warn about the clamp"
    );
}

#[test]
fn sweep_rejects_unknown_suite() {
    let out = run(&["sweep", "test", "--suite", "nope", "--quiet"]);
    assert_eq!(out.status.code(), Some(2));
    assert!(String::from_utf8_lossy(&out.stderr).contains("unknown suite"));
}
