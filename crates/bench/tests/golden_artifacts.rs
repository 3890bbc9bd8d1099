//! Golden tests pinning the captured `results/` artifacts: regenerating
//! them through `lpstudy` must reproduce the committed files —
//! byte-for-byte where the content is deterministic (every paper table
//! and figure, the lattice CSV, the explain JSON and collapsed stacks),
//! structurally where wall clock timings are embedded (the Chrome
//! trace's span-name sequence, the replay document's timings).
//!
//! To refresh after an intentional pipeline change:
//!
//! ```text
//! for a in table1 table2 fig1 fig2 fig3 fig4 fig5 ablations scaling; do
//!   cargo run --release -p lp-bench -- $a default --quiet > results/$a.txt
//! done
//! cargo run --release -p lp-bench -- sweep default --quiet > results/sweep.csv
//! cargo run --release -p lp-bench -- explain \
//!   --explain-out results/explain-quickstart.json
//! cargo run --release -p lp-bench -- --trace-out results/trace-quickstart.json
//! cargo run --release -p lp-bench -- replay test --jobs 2 \
//!   --replay-out results/replay-quickstart.json
//! ```

use std::path::{Path, PathBuf};
use std::process::Command;

fn repo_root() -> PathBuf {
    // CARGO_MANIFEST_DIR is crates/bench; results/ sits at the workspace root.
    Path::new(env!("CARGO_MANIFEST_DIR"))
        .ancestors()
        .nth(2)
        .expect("workspace root")
        .to_path_buf()
}

fn lpstudy(args: &[&str]) {
    let out = Command::new(env!("CARGO_BIN_EXE_lpstudy"))
        .args(args)
        .env("LP_LOG", "off")
        .output()
        .expect("lpstudy runs");
    assert!(
        out.status.success(),
        "lpstudy {args:?} failed: {}",
        String::from_utf8_lossy(&out.stderr)
    );
}

#[test]
fn explain_quickstart_json_regenerates_byte_identically() {
    let dir = std::env::temp_dir();
    let json = dir.join(format!("lp-golden-explain-{}.json", std::process::id()));
    lpstudy(&[
        "explain",
        "--quiet",
        "--explain-out",
        json.to_str().unwrap(),
    ]);
    let fresh = std::fs::read_to_string(&json).unwrap();
    let golden =
        std::fs::read_to_string(repo_root().join("results/explain-quickstart.json")).unwrap();
    assert_eq!(
        fresh, golden,
        "explain-quickstart.json drifted — if the change is intentional, \
         regenerate it (see this test's module docs)"
    );
    let fresh_collapsed = std::fs::read_to_string(json.with_extension("collapsed")).unwrap();
    let golden_collapsed =
        std::fs::read_to_string(repo_root().join("results/explain-quickstart.collapsed")).unwrap();
    assert_eq!(
        fresh_collapsed, golden_collapsed,
        "explain-quickstart.collapsed drifted"
    );
    let _ = std::fs::remove_file(&json);
    let _ = std::fs::remove_file(json.with_extension("collapsed"));
}

/// The bytecode engine pins to the *same* golden file: `--engine bc`
/// must reproduce `results/explain-quickstart.*` byte-for-byte, because
/// the engines are observationally identical and the explain pipeline
/// is deterministic.
#[test]
fn explain_quickstart_json_is_engine_invariant() {
    let dir = std::env::temp_dir();
    let json = dir.join(format!("lp-golden-explain-bc-{}.json", std::process::id()));
    lpstudy(&[
        "explain",
        "--quiet",
        "--engine",
        "bc",
        "--explain-out",
        json.to_str().unwrap(),
    ]);
    let fresh = std::fs::read_to_string(&json).unwrap();
    let golden =
        std::fs::read_to_string(repo_root().join("results/explain-quickstart.json")).unwrap();
    assert_eq!(
        fresh, golden,
        "explain-quickstart.json differs under --engine bc — the bytecode \
         engine must be observationally identical to the tree walk"
    );
    let fresh_collapsed = std::fs::read_to_string(json.with_extension("collapsed")).unwrap();
    let golden_collapsed =
        std::fs::read_to_string(repo_root().join("results/explain-quickstart.collapsed")).unwrap();
    assert_eq!(
        fresh_collapsed, golden_collapsed,
        "explain-quickstart.collapsed differs under --engine bc"
    );
    let _ = std::fs::remove_file(&json);
    let _ = std::fs::remove_file(json.with_extension("collapsed"));
}

/// Every default-scale paper artifact under `results/`, with the
/// `lpstudy` subcommand whose stdout regenerates it. `sweep.csv` is the
/// whole evaluated lattice — 55 programs × 3 models × 32 configurations.
const ARTIFACTS: &[(&str, &str)] = &[
    ("table1", "results/table1.txt"),
    ("table2", "results/table2.txt"),
    ("fig1", "results/fig1.txt"),
    ("fig2", "results/fig2.txt"),
    ("fig3", "results/fig3.txt"),
    ("fig4", "results/fig4.txt"),
    ("fig5", "results/fig5.txt"),
    ("ablations", "results/ablations.txt"),
    ("scaling", "results/scaling.txt"),
    ("sweep", "results/sweep.csv"),
];

#[test]
fn every_default_scale_artifact_regenerates_byte_identically() {
    for &(command, artifact) in ARTIFACTS {
        let out = Command::new(env!("CARGO_BIN_EXE_lpstudy"))
            .args([command, "default", "--quiet"])
            .env("LP_LOG", "off")
            .env_remove("LP_PROFILE_CACHE")
            .env_remove("LP_ENGINE")
            .output()
            .expect("lpstudy runs");
        assert!(
            out.status.success(),
            "lpstudy {command} default failed: {}",
            String::from_utf8_lossy(&out.stderr)
        );
        let fresh = String::from_utf8(out.stdout).expect("UTF-8 stdout");
        let golden = std::fs::read_to_string(repo_root().join(artifact)).unwrap();
        assert!(
            fresh == golden,
            "{artifact} drifted — first differing line: {:?}",
            fresh.lines().zip(golden.lines()).find(|(a, b)| a != b)
        );
    }
}

/// The ordered `"name"` values of a Chrome trace — the structural
/// skeleton that survives timing jitter.
fn span_names(trace: &str) -> Vec<String> {
    lp_obs::validate_json(trace).expect("trace must be valid JSON");
    let mut names = Vec::new();
    let mut rest = trace;
    while let Some(at) = rest.find("\"name\":\"") {
        let tail = &rest[at + 8..];
        let end = tail.find('"').expect("terminated name");
        names.push(tail[..end].to_string());
        rest = &tail[end..];
    }
    names
}

/// Masks the wall-clock-derived values of an `lp-replay-v1` document
/// (`serial_ns`, `parallel_ns`, `measured_speedup`) so the rest — the
/// schema, loop/rejection structure, iteration counts, and predicted
/// speedups — can be compared byte-for-byte.
fn mask_replay_timings(json: &str) -> String {
    lp_obs::validate_json(json).expect("lp-replay-v1 must be valid JSON");
    json.lines()
        .map(|line| {
            let trimmed = line.trim_start();
            for key in [
                "\"serial_ns\":",
                "\"parallel_ns\":",
                "\"measured_speedup\":",
            ] {
                if trimmed.starts_with(key) {
                    let indent = &line[..line.len() - trimmed.len()];
                    let comma = if trimmed.trim_end().ends_with(',') {
                        ","
                    } else {
                        ""
                    };
                    return format!("{indent}{key} <t>{comma}");
                }
            }
            line.to_string()
        })
        .collect::<Vec<_>>()
        .join("\n")
}

#[test]
fn replay_quickstart_has_stable_schema_and_loop_structure() {
    let dir = std::env::temp_dir();
    let json = dir.join(format!("lp-golden-replay-{}.json", std::process::id()));
    lpstudy(&[
        "replay",
        "test",
        "--quiet",
        "--jobs",
        "2",
        "--replay-out",
        json.to_str().unwrap(),
    ]);
    let fresh = std::fs::read_to_string(&json).unwrap();
    let golden =
        std::fs::read_to_string(repo_root().join("results/replay-quickstart.json")).unwrap();
    assert_eq!(
        mask_replay_timings(&fresh),
        mask_replay_timings(&golden),
        "replay-quickstart.json structure drifted — if the change is \
         intentional, regenerate it (see this test's module docs)"
    );
    let _ = std::fs::remove_file(&json);
}

/// As above, through the bytecode engine: everything but wall clock in
/// `results/replay-quickstart.json` must match the committed tree-walk
/// golden when the replay pipeline runs under `--engine bc`.
#[test]
fn replay_quickstart_is_engine_invariant() {
    let dir = std::env::temp_dir();
    let json = dir.join(format!("lp-golden-replay-bc-{}.json", std::process::id()));
    lpstudy(&[
        "replay",
        "test",
        "--quiet",
        "--engine",
        "bc",
        "--jobs",
        "2",
        "--replay-out",
        json.to_str().unwrap(),
    ]);
    let fresh = std::fs::read_to_string(&json).unwrap();
    let golden =
        std::fs::read_to_string(repo_root().join("results/replay-quickstart.json")).unwrap();
    assert_eq!(
        mask_replay_timings(&fresh),
        mask_replay_timings(&golden),
        "replay-quickstart.json structure differs under --engine bc"
    );
    let _ = std::fs::remove_file(&json);
}

#[test]
fn trace_quickstart_has_stable_span_structure() {
    let dir = std::env::temp_dir();
    let trace = dir.join(format!("lp-golden-trace-{}.json", std::process::id()));
    lpstudy(&["--quiet", "--trace-out", trace.to_str().unwrap()]);
    let fresh = std::fs::read_to_string(&trace).unwrap();
    let golden =
        std::fs::read_to_string(repo_root().join("results/trace-quickstart.json")).unwrap();
    assert_eq!(
        span_names(&fresh),
        span_names(&golden),
        "trace-quickstart.json span structure drifted — if the change is \
         intentional, regenerate it (see this test's module docs)"
    );
    let _ = std::fs::remove_file(&trace);
}
