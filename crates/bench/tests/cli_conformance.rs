//! Pins the command-line contract of every experiment binary (the
//! `FlagSpec` table): unknown or misplaced flags exit with status 2 and
//! the exact historical diagnostics. A drift here breaks scripts that
//! drive the binaries, so the messages are asserted byte-for-byte.

use std::process::{Command, Output};

/// The explain-capable binaries (per `FLAG_SPECS`).
const EXPLAIN_OK: &[&str] = &["lpstudy", "fig4", "fig5"];

/// Binary name → path, via the paths Cargo bakes into integration tests.
fn exe(binary: &str) -> &'static str {
    match binary {
        "table1" => env!("CARGO_BIN_EXE_table1"),
        "table2" => env!("CARGO_BIN_EXE_table2"),
        "fig1" => env!("CARGO_BIN_EXE_fig1"),
        "fig2" => env!("CARGO_BIN_EXE_fig2"),
        "fig3" => env!("CARGO_BIN_EXE_fig3"),
        "fig4" => env!("CARGO_BIN_EXE_fig4"),
        "fig5" => env!("CARGO_BIN_EXE_fig5"),
        "ablations" => env!("CARGO_BIN_EXE_ablations"),
        "scaling" => env!("CARGO_BIN_EXE_scaling"),
        "sweep" => env!("CARGO_BIN_EXE_sweep"),
        "lpstudy" => env!("CARGO_BIN_EXE_lpstudy"),
        "lpbench" => env!("CARGO_BIN_EXE_lpbench"),
        other => panic!("unknown binary {other:?}"),
    }
}

fn run(binary: &str, args: &[&str]) -> Output {
    Command::new(exe(binary))
        .args(args)
        .env("LP_LOG", "off")
        .env_remove("LP_PROFILE_CACHE")
        .env_remove("LP_ENGINE")
        .output()
        .unwrap_or_else(|e| panic!("cannot spawn {binary}: {e}"))
}

fn stderr_of(out: &Output) -> String {
    String::from_utf8(out.stderr.clone()).expect("stderr is UTF-8")
}

#[test]
fn unknown_argument_exits_2_with_the_pinned_message() {
    let rejecting = [
        "table1",
        "table2",
        "fig1",
        "fig2",
        "fig3",
        "fig4",
        "fig5",
        "ablations",
        "scaling",
    ];
    for binary in rejecting {
        let out = run(binary, &["--bogus"]);
        assert_eq!(out.status.code(), Some(2), "{binary}");
        assert_eq!(
            stderr_of(&out),
            "unknown argument \"--bogus\" (expected test|small|default, --jobs N, \
             --engine tree|bc, --trace-out FILE, --explain-out FILE, \
             --profile-cache DIR, --flight-out FILE, --metrics-out FILE, \
             --snapshot-out FILE, --sample-hz N, --quiet)\n",
            "{binary}"
        );
    }
}

#[test]
fn explain_out_is_rejected_where_unsupported() {
    let all = [
        "table1",
        "table2",
        "fig1",
        "fig2",
        "fig3",
        "ablations",
        "scaling",
        "sweep",
    ];
    for binary in all {
        assert!(!EXPLAIN_OK.contains(&binary));
        let out = run(binary, &["--explain-out", "/tmp/never-written.json"]);
        assert_eq!(out.status.code(), Some(2), "{binary}");
        assert_eq!(
            stderr_of(&out),
            format!("{binary} does not support --explain-out (use lpstudy, fig4, or fig5)\n"),
        );
    }
}

#[test]
fn sweep_rejects_extras_with_its_own_positional_list() {
    let out = run("sweep", &["--bogus"]);
    assert_eq!(out.status.code(), Some(2));
    assert_eq!(
        stderr_of(&out),
        "unknown argument \"--bogus\" (expected test|small|default, --suite NAME, \
         --jobs N, --engine tree|bc, --trace-out FILE, --profile-cache DIR, \
         --flight-out FILE, --metrics-out FILE, --snapshot-out FILE, \
         --sample-hz N, --quiet)\n"
    );
}

#[test]
fn lpstudy_prints_usage_on_unknown_flag() {
    let out = run("lpstudy", &["--bogus"]);
    assert_eq!(out.status.code(), Some(2));
    let err = stderr_of(&out);
    assert!(err.starts_with("usage: lpstudy"), "got: {err}");
    assert!(err.contains("--profile-cache DIR"), "got: {err}");
}

#[test]
fn flags_missing_their_operand_exit_2() {
    for (args, message) in [
        (
            &["--profile-cache"][..],
            "--profile-cache requires a directory argument\n",
        ),
        (
            &["--trace-out"][..],
            "--trace-out requires a file argument\n",
        ),
        (
            &["--jobs", "zero"][..],
            "--jobs requires a non-negative integer argument\n",
        ),
        (
            &["--flight-out"][..],
            "--flight-out requires a file argument\n",
        ),
        (
            &["--metrics-out"][..],
            "--metrics-out requires a file argument\n",
        ),
        (
            &["--snapshot-out"][..],
            "--snapshot-out requires a file argument\n",
        ),
        (
            &["--sample-hz", "fast"][..],
            "--sample-hz requires a positive integer argument\n",
        ),
        (
            &["--engine"][..],
            "--engine requires an argument (tree|bc)\n",
        ),
        (
            &["--engine", "llvm"][..],
            "--engine \"llvm\" is not an engine (expected tree|bc)\n",
        ),
    ] {
        let out = run("fig1", args);
        assert_eq!(out.status.code(), Some(2), "{args:?}");
        assert_eq!(stderr_of(&out), message, "{args:?}");
    }
}

#[test]
fn quiet_silences_stderr_byte_exactly_across_every_binary() {
    // --quiet must suppress heartbeats and lp_warn! alike, in every one
    // of the 12 binaries. The profile cache is pointed at a regular
    // file, so ProfileStore::open fails and emits an lp_warn! — a quiet
    // run must swallow even that.
    let dir = std::env::temp_dir();
    let bad_cache = dir.join(format!("lp-quiet-cache-{}", std::process::id()));
    std::fs::write(&bad_cache, b"not a directory").unwrap();
    let cache = bad_cache.to_str().unwrap().to_string();

    let standard = [
        "table1",
        "table2",
        "fig1",
        "fig2",
        "fig3",
        "fig4",
        "fig5",
        "ablations",
        "scaling",
    ];
    let mut invocations: Vec<(&str, Vec<String>)> = standard
        .iter()
        .map(|&b| {
            let args = ["test", "--quiet", "--profile-cache", &cache]
                .map(String::from)
                .to_vec();
            (b, args)
        })
        .collect();
    invocations.push((
        "sweep",
        [
            "test",
            "--suite",
            "eembc",
            "--quiet",
            "--profile-cache",
            &cache,
        ]
        .map(String::from)
        .to_vec(),
    ));
    invocations.push((
        "lpstudy",
        ["--bench", "eembc.matrix01", "--quiet"]
            .map(String::from)
            .to_vec(),
    ));
    invocations.push((
        "lpbench",
        [
            "test",
            "--bench",
            "eembc.matrix01",
            "--reps",
            "1",
            "--quiet",
        ]
        .map(String::from)
        .to_vec(),
    ));
    assert_eq!(invocations.len(), 12, "cover every binary");

    for (binary, args) in &invocations {
        let out = Command::new(exe(binary))
            .args(args)
            .env_remove("LP_LOG")
            .env_remove("LP_PROFILE_CACHE")
            .env_remove("LP_ENGINE")
            .output()
            .unwrap_or_else(|e| panic!("cannot spawn {binary}: {e}"));
        assert!(
            out.status.success(),
            "{binary} failed under --quiet: {}",
            String::from_utf8_lossy(&out.stderr)
        );
        assert_eq!(
            out.stderr,
            b"",
            "{binary} wrote to stderr under --quiet: {:?}",
            String::from_utf8_lossy(&out.stderr)
        );
    }
    let _ = std::fs::remove_file(&bad_cache);
}

#[test]
fn metrics_out_round_trips_every_counter() {
    let dir = std::env::temp_dir();
    let path = dir.join(format!("lp-metrics-{}.prom", std::process::id()));
    let out = run(
        "fig1",
        &["test", "--quiet", "--metrics-out", path.to_str().unwrap()],
    );
    assert!(out.status.success(), "fig1: {}", stderr_of(&out));
    let text = std::fs::read_to_string(&path).unwrap();
    let samples = lp_obs::prometheus::parse(&text)
        .expect("--metrics-out must be valid Prometheus text exposition");
    for counter in lp_obs::Counter::all() {
        let (family, label) = lp_obs::prometheus::counter_series(counter);
        let found = samples.iter().any(|s| {
            s.name == family
                && match label {
                    None => true,
                    Some((k, v)) => s.labels.iter().any(|(lk, lv)| lk == k && lv == v),
                }
        });
        assert!(found, "counter {family} {label:?} missing from exposition");
    }
    let _ = std::fs::remove_file(&path);
}

#[test]
fn invalid_lp_engine_exits_2_with_the_pinned_message() {
    let out = Command::new(exe("fig1"))
        .args(["test"])
        .env("LP_LOG", "off")
        .env("LP_ENGINE", "llvm")
        .env_remove("LP_PROFILE_CACHE")
        .output()
        .expect("spawn fig1");
    assert_eq!(out.status.code(), Some(2));
    assert_eq!(
        stderr_of(&out),
        "LP_ENGINE=\"llvm\" is not an engine (expected tree|bc)\n"
    );
}

#[test]
fn lp_engine_tree_selects_tree_without_a_warning() {
    // LP_ENGINE is a plain engine selector: `tree` picks the reference
    // oracle exactly as `--engine tree` does, and says nothing about it.
    // lpbench records the engine it ran in its JSON output.
    let dir = std::env::temp_dir();
    let path = dir.join(format!("lp-engine-env-{}.json", std::process::id()));
    let out = Command::new(exe("lpbench"))
        .args(["test", "--bench", "eembc.matrix01", "--reps", "1", "--out"])
        .arg(&path)
        .env("LP_LOG", "info")
        .env("LP_ENGINE", "tree")
        .env_remove("LP_PROFILE_CACHE")
        .output()
        .expect("spawn lpbench");
    assert!(out.status.success(), "lpbench: {}", stderr_of(&out));
    assert!(
        !stderr_of(&out).contains(" warn]"),
        "LP_ENGINE=tree must not warn, got: {}",
        stderr_of(&out)
    );
    let json = std::fs::read_to_string(&path).unwrap();
    let _ = std::fs::remove_file(&path);
    assert!(
        json.contains(r#""engine":"tree""#),
        "LP_ENGINE=tree must select the tree engine, got: {json}"
    );
}

#[test]
fn invalid_profile_cache_mode_exits_2() {
    let out = Command::new(exe("table1"))
        .args(["test", "--profile-cache", "/tmp/unused"])
        .env("LP_LOG", "off")
        .env("LP_PROFILE_CACHE", "frobnicate")
        .output()
        .expect("spawn table1");
    assert_eq!(out.status.code(), Some(2));
    assert_eq!(
        stderr_of(&out),
        "LP_PROFILE_CACHE=\"frobnicate\" is not a store mode (expected off|ro|rw)\n"
    );
}

#[test]
fn closed_stdout_ends_quietly() {
    // `sweep default --quiet | head -1` used to panic in `println!`
    // ("failed printing to stdout: Broken pipe", exit 101). The read end
    // is closed before the child starts, so its first write hits EPIPE.
    let invocations: [(&str, &[&str]); 2] = [
        ("sweep", &["test", "--suite", "eembc", "--quiet"]),
        ("lpstudy", &["--bench", "eembc.matrix01", "--quiet"]),
    ];
    for (binary, args) in invocations {
        let (reader, writer) = std::io::pipe().expect("pipe");
        drop(reader);
        let out = Command::new(exe(binary))
            .args(args)
            .env_remove("LP_LOG")
            .env_remove("LP_PROFILE_CACHE")
            .env_remove("LP_ENGINE")
            .stdout(writer)
            .output()
            .unwrap_or_else(|e| panic!("cannot spawn {binary}: {e}"));
        assert_eq!(
            stderr_of(&out),
            "",
            "{binary} must end quietly on a closed stdout"
        );
        assert_ne!(out.status.code(), Some(101), "{binary} panicked");
        #[cfg(unix)]
        {
            use std::os::unix::process::ExitStatusExt;
            assert!(
                out.status.success() || out.status.signal() == Some(13),
                "{binary}: expected success or SIGPIPE, got {:?}",
                out.status
            );
        }
    }
}
