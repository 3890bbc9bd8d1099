//! Pins the command-line contract of every `lpstudy` subcommand (the
//! `FlagSpec` table): unknown or misplaced flags exit with status 2 and
//! the exact diagnostics. A drift here breaks scripts that drive the
//! subcommands, so the messages are asserted byte-for-byte.

use std::process::{Command, Output};

/// The subcommands that reject every argument beyond the shared flags.
const REJECTING: &[&str] = &[
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

/// The subcommands with a limiter attribution to export (per
/// `FLAG_SPECS`; `lpstudy` alone is the study modes).
const EXPLAIN_OK: &[&str] = &["lpstudy", "explain", "fig4", "fig5"];

/// Every `FLAG_SPECS` row but `lpstudy`: the subcommand words and the
/// two study modes that only print (`--dump`, `--analyze`).
const SUBCOMMANDS: &[&str] = &[
    "--dump",
    "--analyze",
    "explain",
    "dispatch-heat",
    "replay",
    "diff",
    "audit",
    "table1",
    "table2",
    "fig1",
    "fig2",
    "fig3",
    "fig4",
    "fig5",
    "ablations",
    "scaling",
    "sweep",
    "bench",
    "trend",
];

fn run(args: &[&str]) -> Output {
    Command::new(env!("CARGO_BIN_EXE_lpstudy"))
        .args(args)
        .env("LP_LOG", "off")
        .env_remove("LP_PROFILE_CACHE")
        .env_remove("LP_ENGINE")
        .output()
        .unwrap_or_else(|e| panic!("cannot spawn lpstudy {args:?}: {e}"))
}

fn stderr_of(out: &Output) -> String {
    String::from_utf8(out.stderr.clone()).expect("stderr is UTF-8")
}

#[test]
fn unknown_argument_exits_2_with_the_pinned_message() {
    for &command in REJECTING {
        let out = run(&[command, "--bogus"]);
        assert_eq!(out.status.code(), Some(2), "{command}");
        let explain = if EXPLAIN_OK.contains(&command) {
            "--explain-out FILE, "
        } else {
            ""
        };
        assert_eq!(
            stderr_of(&out),
            format!(
                "unknown argument \"--bogus\" (expected test|small|default, --jobs N, \
                 --engine tree|bc, --trace-out FILE, {explain}--profile-cache DIR, \
                 --flight-out FILE, --snapshot-out FILE, --quiet)\n"
            ),
            "{command}"
        );
    }
}

#[test]
fn explain_out_is_rejected_where_unsupported() {
    for &command in SUBCOMMANDS {
        if EXPLAIN_OK.contains(&command) {
            continue;
        }
        let out = run(&[command, "--explain-out", "/tmp/never-written.json"]);
        assert_eq!(out.status.code(), Some(2), "{command}");
        assert_eq!(
            stderr_of(&out),
            format!(
                "lpstudy {command} does not support --explain-out \
                 (use lpstudy, lpstudy explain, lpstudy fig4, lpstudy fig5)\n"
            ),
        );
    }
}

#[test]
fn sample_hz_is_rejected_where_unread() {
    // Only dispatch-heat reads --sample-hz; every other command must
    // refuse it rather than ignore it.
    let mut invocations: Vec<Vec<&str>> = vec![vec![]];
    invocations.extend(
        SUBCOMMANDS
            .iter()
            .filter(|&&c| c != "dispatch-heat")
            .map(|&c| vec![c]),
    );
    for mut args in invocations {
        let invocation = ["lpstudy"].iter().chain(&args).copied().collect::<Vec<_>>();
        let invocation = invocation.join(" ");
        args.extend(["--sample-hz", "5"]);
        let out = run(&args);
        assert_eq!(out.status.code(), Some(2), "{invocation}");
        assert_eq!(
            stderr_of(&out),
            format!("{invocation} does not support --sample-hz (use lpstudy dispatch-heat)\n"),
        );
    }
}

#[test]
fn sweep_rejects_extras_with_its_own_positional_list() {
    let out = run(&["sweep", "--bogus"]);
    assert_eq!(out.status.code(), Some(2));
    assert_eq!(
        stderr_of(&out),
        "unknown argument \"--bogus\" (expected test|small|default, --suite NAME, \
         --jobs N, --engine tree|bc, --trace-out FILE, --profile-cache DIR, \
         --flight-out FILE, --snapshot-out FILE, --quiet)\n"
    );
}

#[test]
fn lpstudy_prints_usage_on_unknown_flag() {
    let out = run(&["--bogus"]);
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
        let out = run(&[&["fig1"][..], args].concat());
        assert_eq!(out.status.code(), Some(2), "{args:?}");
        assert_eq!(stderr_of(&out), message, "{args:?}");
    }
}

#[test]
fn quiet_silences_stderr_byte_exactly_across_every_subcommand() {
    // --quiet must suppress heartbeats and lp_warn! alike, in every
    // artifact subcommand, the study mode and the bench harness. The
    // profile cache is pointed at a regular file, so ProfileStore::open
    // fails and emits an lp_warn! — a quiet run must swallow even that.
    let dir = std::env::temp_dir();
    let bad_cache = dir.join(format!("lp-quiet-cache-{}", std::process::id()));
    std::fs::write(&bad_cache, b"not a directory").unwrap();
    let cache = bad_cache.to_str().unwrap();

    let mut invocations: Vec<Vec<&str>> = REJECTING
        .iter()
        .map(|&c| vec![c, "test", "--quiet", "--profile-cache", cache])
        .collect();
    invocations.push(vec![
        "sweep",
        "test",
        "--suite",
        "eembc",
        "--quiet",
        "--profile-cache",
        cache,
    ]);
    invocations.push(vec!["--bench", "eembc.matrix01", "--quiet"]);
    invocations.push(vec![
        "bench",
        "test",
        "--bench",
        "eembc.matrix01",
        "--reps",
        "1",
        "--quiet",
    ]);
    assert_eq!(
        invocations.len(),
        12,
        "every artifact subcommand, sweep, study and bench"
    );

    for args in &invocations {
        let out = Command::new(env!("CARGO_BIN_EXE_lpstudy"))
            .args(args)
            .env_remove("LP_LOG")
            .env_remove("LP_PROFILE_CACHE")
            .env_remove("LP_ENGINE")
            .output()
            .unwrap_or_else(|e| panic!("cannot spawn lpstudy {args:?}: {e}"));
        assert!(
            out.status.success(),
            "lpstudy {args:?} failed under --quiet: {}",
            String::from_utf8_lossy(&out.stderr)
        );
        assert_eq!(
            out.stderr,
            b"",
            "lpstudy {args:?} wrote to stderr under --quiet: {:?}",
            String::from_utf8_lossy(&out.stderr)
        );
    }
    let _ = std::fs::remove_file(&bad_cache);
}

#[test]
fn snapshot_out_carries_every_counter() {
    let dir = std::env::temp_dir();
    let path = dir.join(format!("lp-conformance-snap-{}.json", std::process::id()));
    let out = run(&[
        "fig1",
        "test",
        "--quiet",
        "--snapshot-out",
        path.to_str().unwrap(),
    ]);
    assert!(out.status.success(), "fig1: {}", stderr_of(&out));
    let snap = lp_obs::RunSnapshot::read(&path).expect("--snapshot-out must parse back");
    let _ = std::fs::remove_file(&path);
    // The writer keeps the subcommand's own name.
    assert_eq!(snap.process, "fig1");
    for counter in lp_obs::Counter::all() {
        let name = counter.name();
        assert!(
            snap.counters.iter().any(|(n, _)| *n == name),
            "counter {name} missing from the snapshot"
        );
    }
}

#[test]
fn invalid_lp_engine_exits_2_with_the_pinned_message() {
    let out = Command::new(env!("CARGO_BIN_EXE_lpstudy"))
        .args(["fig1", "test"])
        .env("LP_LOG", "off")
        .env("LP_ENGINE", "llvm")
        .env_remove("LP_PROFILE_CACHE")
        .output()
        .expect("spawn lpstudy fig1");
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
    // `lpstudy bench` records the engine it ran in its JSON output.
    let dir = std::env::temp_dir();
    let path = dir.join(format!("lp-engine-env-{}.json", std::process::id()));
    let out = Command::new(env!("CARGO_BIN_EXE_lpstudy"))
        .args([
            "bench",
            "test",
            "--bench",
            "eembc.matrix01",
            "--reps",
            "1",
            "--out",
        ])
        .arg(&path)
        .env("LP_LOG", "info")
        .env("LP_ENGINE", "tree")
        .env_remove("LP_PROFILE_CACHE")
        .output()
        .expect("spawn lpstudy bench");
    assert!(out.status.success(), "lpstudy bench: {}", stderr_of(&out));
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
    let out = Command::new(env!("CARGO_BIN_EXE_lpstudy"))
        .args(["table1", "test", "--profile-cache", "/tmp/unused"])
        .env("LP_LOG", "off")
        .env("LP_PROFILE_CACHE", "frobnicate")
        .output()
        .expect("spawn lpstudy table1");
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
    let invocations: [&[&str]; 2] = [
        &["sweep", "test", "--suite", "eembc", "--quiet"],
        &["--bench", "eembc.matrix01", "--quiet"],
    ];
    for args in invocations {
        let (reader, writer) = std::io::pipe().expect("pipe");
        drop(reader);
        let out = Command::new(env!("CARGO_BIN_EXE_lpstudy"))
            .args(args)
            .env_remove("LP_LOG")
            .env_remove("LP_PROFILE_CACHE")
            .env_remove("LP_ENGINE")
            .stdout(writer)
            .output()
            .unwrap_or_else(|e| panic!("cannot spawn lpstudy {args:?}: {e}"));
        assert_eq!(
            stderr_of(&out),
            "",
            "lpstudy {args:?} must end quietly on a closed stdout"
        );
        assert_ne!(out.status.code(), Some(101), "lpstudy {args:?} panicked");
        #[cfg(unix)]
        {
            use std::os::unix::process::ExitStatusExt;
            assert!(
                out.status.success() || out.status.signal() == Some(13),
                "lpstudy {args:?}: expected success or SIGPIPE, got {:?}",
                out.status
            );
        }
    }
}

#[test]
fn bench_counters_do_not_scale_with_reps() {
    // The `counters` object and the trend record's counters hold one
    // end-to-end pass's increments, not process totals: `--reps 1` and
    // `--reps 2` used to report 3 and 5 profiles taken. One job keeps
    // the scheduling counters (tasks stolen) out of the comparison.
    let dir = std::env::temp_dir();
    let counters_at = |reps: &str| {
        let ledger = dir.join(format!("lp-reps-{reps}-{}.jsonl", std::process::id()));
        let _ = std::fs::remove_file(&ledger);
        let out = run(&[
            "bench",
            "test",
            "--bench",
            "eembc.matrix01",
            "--jobs",
            "1",
            "--reps",
            reps,
            "--trend",
            ledger.to_str().unwrap(),
        ]);
        assert!(out.status.success(), "lpstudy bench: {}", stderr_of(&out));
        let json = String::from_utf8(out.stdout).expect("stdout is UTF-8");
        let start = json.find(r#""counters":{"#).expect("counters object");
        let end = start + json[start..].find('}').expect("flat counters object");
        let records = lp_obs::trend::read_ledger(&ledger).expect("ledger parses");
        let _ = std::fs::remove_file(&ledger);
        assert_eq!(records.len(), 1);
        (json[start..=end].to_string(), records[0].counters.clone())
    };
    let (json1, trend1) = counters_at("1");
    let (json2, trend2) = counters_at("2");
    assert!(json1.contains(r#""profiles_taken":1,"#), "{json1}");
    assert_eq!(json1, json2, "JSON counters depend on --reps");
    assert_eq!(trend1, trend2, "trend counters depend on --reps");
}

/// A scratch directory unique to this test process and `name`.
fn scratch_dir(name: &str) -> std::path::PathBuf {
    let dir = std::env::temp_dir().join(format!("lp-conformance-{name}-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).unwrap();
    dir
}

#[test]
fn output_flags_are_written_by_every_mode() {
    // `--dump`, `--analyze`, `diff`, `audit` and `trend` used to return
    // without writing the requested telemetry files.
    let dir = scratch_dir("outputs");
    let path = |name: &str| dir.join(name).to_str().unwrap().to_string();
    let snap = path("snap.json");
    let out = run(&["--dump", "eembc.matrix01", "--snapshot-out", &snap]);
    assert!(out.status.success(), "--dump: {}", stderr_of(&out));
    let ledger = path("ledger.jsonl");
    let record = lp_obs::TrendRecord {
        bench: "eembc.matrix01".to_string(),
        scale: "test".to_string(),
        engine: "bc".to_string(),
        label: String::new(),
        reps: 1,
        unix_ms: 0,
        machine: "0000000000000000".to_string(),
        profile_mips: 1.0,
        interp_mips: 2.0,
        slowdown: 2.0,
        journal_overhead: 0.0,
        counters: Vec::new(),
    };
    lp_obs::trend::append_ledger(std::path::Path::new(&ledger), &record).unwrap();
    let modes: [&[&str]; 5] = [
        &["--dump", "eembc.matrix01"],
        &["--analyze", "eembc.matrix01"],
        &["diff", &snap, &snap],
        &["audit", &snap],
        &["trend", "--ledger", &ledger, "--check"],
    ];
    for (i, mode) in modes.into_iter().enumerate() {
        let files = [
            ("--trace-out", path(&format!("trace-{i}.json"))),
            ("--snapshot-out", path(&format!("snap-{i}.json"))),
            ("--flight-out", path(&format!("flight-{i}.json"))),
        ];
        let mut args = mode.to_vec();
        for (flag, file) in &files {
            args.extend([*flag, file.as_str()]);
        }
        let out = run(&args);
        assert!(out.status.success(), "{mode:?}: {}", stderr_of(&out));
        for (flag, file) in &files {
            assert!(
                std::path::Path::new(file).is_file(),
                "{mode:?} ignored {flag}"
            );
        }
    }
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn a_scale_word_is_an_operand_where_no_scale_is_read() {
    // A snapshot file named `test` reaches `audit` and `diff` instead
    // of being taken as the scale.
    let dir = scratch_dir("scale-word");
    let in_dir = |args: &[&str]| {
        Command::new(env!("CARGO_BIN_EXE_lpstudy"))
            .args(args)
            .current_dir(&dir)
            .env("LP_LOG", "off")
            .env_remove("LP_PROFILE_CACHE")
            .env_remove("LP_ENGINE")
            .output()
            .unwrap_or_else(|e| panic!("cannot spawn lpstudy {args:?}: {e}"))
    };
    let out = in_dir(&["--dump", "eembc.matrix01", "--snapshot-out", "test"]);
    assert!(out.status.success(), "--dump: {}", stderr_of(&out));
    let out = in_dir(&["audit", "test"]);
    assert!(out.status.success(), "audit test: {}", stderr_of(&out));
    let stdout = String::from_utf8_lossy(&out.stdout);
    assert!(stdout.contains("\naudit: "), "audit test: {stdout}");
    let out = in_dir(&["diff", "test", "test"]);
    assert!(out.status.success(), "diff test test: {}", stderr_of(&out));
    assert!(String::from_utf8_lossy(&out.stdout).ends_with("0 significant divergence(s)\n"));
    let _ = std::fs::remove_dir_all(&dir);
}
