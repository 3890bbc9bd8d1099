//! `lpstudy bench` — wall-clock throughput harness for the profiler
//! inner loop.
//!
//! Measures, per benchmark, the plain interpreter (NullSink) and the
//! fully instrumented profiler run (best of `--reps` repetitions), plus
//! one end-to-end sweep (profile + full Table II evaluation lattice),
//! and emits a machine-readable `lpbench-v1` report:
//!
//! ```text
//! cargo run --release -p lp-bench -- bench small --out results/BENCH_profiler.json
//! ```
//!
//! `--baseline FILE` embeds the totals of a previous report into the new
//! one (the before/after record the perf trajectory keeps); `--check
//! FILE` compares the current *slowdown ratio* (interpreter throughput ÷
//! profiler throughput — hardware-independent, unlike raw
//! instructions/sec) against a checked-in baseline and exits 1 when the
//! profiler regressed more than 30%, which is what the CI smoke job
//! gates on. Each benchmark is additionally profiled with the
//! flight-recorder journal disabled; `--check` also fails when the
//! always-on journaling overhead (`journal_overhead` in `totals`, the
//! median over per-rep aggregates) exceeds 3% beyond its own MAD-based
//! noise allowance. Counters of the hot-path caches (`mem_page_cache_*`,
//! `shadow_page_cache_*`) ride along in the `counters` object; it holds
//! the end-to-end sweep's increments alone, so `--reps` leaves it
//! unchanged.
//!
//! `--trend FILE` appends one `lp-trend-v1` record (bench id, reps,
//! median-of-reps throughput, machine digest, key counters, optional
//! `--label`) to an append-only run ledger; `lpstudy trend` summarises a
//! ledger, and `lpstudy trend --check` exits 2 when the newest record
//! falls below the robust noise band of its own history (see
//! `lp_obs::trend`).

use lp_analysis::analyze_module;
use lp_bench::{run_benchmarks, Cli, SweepTable};
use lp_interp::{Engine, Exec, ExecUnit, MachineConfig};
use lp_obs::{lp_info, JsonWriter};
use lp_suite::{Benchmark, Scale, SuiteId};
use std::path::PathBuf;

/// Allowed relative slowdown-ratio regression before `--check` fails.
const CHECK_TOLERANCE: f64 = 0.30;

/// Allowed always-on flight-recorder overhead (profiler run with the
/// journal enabled vs disabled) before `--check` fails.
const JOURNAL_TOLERANCE: f64 = 0.03;

/// Per-benchmark measurement: dynamic instructions, the best wall-clock
/// time of each pipeline stage, and every per-rep sample behind it (the
/// robust gates work on medians over the rep vectors, not the minima).
struct Row {
    name: &'static str,
    insts: u64,
    interp_ns: u64,
    profile_ns: u64,
    /// Profiler run with the flight-recorder journal disabled — the
    /// reference the always-on journaling overhead gate compares against.
    profile_nojournal_ns: u64,
    /// Per-rep samples, index = rep.
    interp_reps: Vec<u64>,
    profile_reps: Vec<u64>,
    profile_nojournal_reps: Vec<u64>,
}

/// Millions of instructions per second (0 when the clock read 0).
fn mips(insts: u64, ns: u64) -> f64 {
    if ns == 0 {
        0.0
    } else {
        insts as f64 / ns as f64 * 1e3
    }
}

fn scale_label(scale: Scale) -> &'static str {
    match scale {
        Scale::Test => "test",
        Scale::Small => "small",
        Scale::Default => "default",
    }
}

/// Extracts the flat object following `"key":{` (no nested objects).
fn json_section<'a>(text: &'a str, key: &str) -> Option<&'a str> {
    let pat = format!("\"{key}\":{{");
    let start = text.find(&pat)? + pat.len();
    let end = text[start..].find('}')? + start;
    Some(&text[start..end])
}

/// Extracts the number following `"key":` in a compact JSON fragment.
fn json_number(fragment: &str, key: &str) -> Option<f64> {
    let pat = format!("\"{key}\":");
    let start = fragment.find(&pat)? + pat.len();
    let rest = &fragment[start..];
    let end = rest.find([',', '}', ']']).unwrap_or(rest.len());
    rest[..end].trim().parse().ok()
}

/// The baseline summary lifted out of a previous bench report.
struct Baseline {
    interp_mips: f64,
    profile_mips: f64,
    slowdown: f64,
    /// `(name, profile_mips)` per benchmark present in the baseline.
    per_bench: Vec<(String, f64)>,
}

fn read_baseline(path: &PathBuf) -> Option<Baseline> {
    let text = std::fs::read_to_string(path).ok()?;
    let totals = json_section(&text, "totals")?;
    let mut per_bench = Vec::new();
    let mut rest = text.as_str();
    while let Some(i) = rest.find("{\"name\":\"") {
        let frag = &rest[i..];
        let name_start = i + "{\"name\":\"".len();
        let name_end = rest[name_start..].find('"')? + name_start;
        let entry_end = frag.find('}').unwrap_or(frag.len());
        if let Some(pm) = json_number(&frag[..entry_end + 1], "profile_mips") {
            per_bench.push((rest[name_start..name_end].to_string(), pm));
        }
        rest = &rest[name_end..];
    }
    Some(Baseline {
        interp_mips: json_number(totals, "interp_mips")?,
        profile_mips: json_number(totals, "profile_mips")?,
        slowdown: json_number(totals, "slowdown")?,
        per_bench,
    })
}

/// Times one closure, returning `(wall_ns, result)`.
fn timed<R>(f: impl FnOnce() -> R) -> (u64, R) {
    let reg = lp_obs::registry();
    let t0 = reg.now_ns();
    let r = f();
    (reg.now_ns().saturating_sub(t0), r)
}

fn measure(bench: &Benchmark, scale: Scale, reps: u32, engine: Engine) -> Row {
    let module = bench.build(scale);
    let analysis = analyze_module(&module);
    let config = MachineConfig {
        engine,
        ..MachineConfig::default()
    };
    // Compile once, execute `reps` times: the ExecUnit lifecycle the
    // plain-interpreter column measures (bytecode translation happens
    // here, outside the timed region, exactly as a study run amortizes
    // it across evaluations).
    let unit = ExecUnit::with_engine(&module, engine);
    let mut insts = 0;
    let mut interp_reps = Vec::with_capacity(reps.max(1) as usize);
    let mut profile_reps = Vec::with_capacity(reps.max(1) as usize);
    let mut profile_nojournal_reps = Vec::with_capacity(reps.max(1) as usize);
    let journal = lp_obs::journal::global();
    for _ in 0..reps.max(1) {
        let (ns, result) = timed(|| Exec::new(&unit).run(&[]));
        let result = result.unwrap_or_else(|e| panic!("benchmark {} failed: {e}", bench.name));
        insts = result.result.cost;
        interp_reps.push(ns);

        let (ns, result) =
            timed(|| lp_runtime::profile_module(&module, &analysis, &[], config.clone()));
        result.unwrap_or_else(|e| panic!("benchmark {} failed under profiling: {e}", bench.name));
        profile_reps.push(ns);

        journal.set_enabled(false);
        let (ns, result) =
            timed(|| lp_runtime::profile_module(&module, &analysis, &[], config.clone()));
        journal.set_enabled(true);
        result.unwrap_or_else(|e| panic!("benchmark {} failed under profiling: {e}", bench.name));
        profile_nojournal_reps.push(ns);
    }
    Row {
        name: bench.name,
        insts,
        interp_ns: interp_reps.iter().copied().min().unwrap_or(u64::MAX),
        profile_ns: profile_reps.iter().copied().min().unwrap_or(u64::MAX),
        profile_nojournal_ns: profile_nojournal_reps
            .iter()
            .copied()
            .min()
            .unwrap_or(u64::MAX),
        interp_reps,
        profile_reps,
        profile_nojournal_reps,
    }
}

/// Non-zero counter increments since `before` (a counter snapshot), in
/// export order.
fn counters_since(before: &[(String, u64)]) -> Vec<(String, u64)> {
    lp_obs::counters()
        .snapshot()
        .into_iter()
        .filter_map(|(name, now)| {
            let was = before.iter().find(|(n, _)| *n == name).map_or(0, |e| e.1);
            (now > was).then(|| (name, now - was))
        })
        .collect()
}

fn usage_exit() -> ! {
    eprintln!(
        "usage: lpstudy bench [test|small|default] [--engine tree|bc] [--bench NAME]... \
         [--reps N] [--out FILE] [--baseline FILE] [--check FILE] [--trend FILE] \
         [--label TEXT] [--jobs N] [--quiet]\n\
         \x20      lpstudy trend [--ledger FILE] [--check] [--window N] [--min-history N]"
    );
    std::process::exit(2);
}

/// Stable fingerprint of the measuring machine: the cost-model knobs
/// that shape the numbers plus the host architecture and OS. Records
/// from different machines land in different trend series.
fn machine_digest() -> String {
    let text = format!(
        "{:?}|{}|{}",
        MachineConfig::default(),
        std::env::consts::ARCH,
        std::env::consts::OS
    );
    format!("{:016x}", lp_obs::trend::fnv1a(text.as_bytes()))
}

/// The `lpstudy trend` subcommand: summarise the run ledger and, with
/// `--check`, judge the newest record against the MAD noise band of its
/// own series — exit 2 on a regression (the distinct code CI gates on).
pub fn trend(args: &[String]) -> ! {
    let mut ledger = PathBuf::from("results/BENCH_trend.jsonl");
    let mut check = false;
    let mut window = lp_obs::trend::DEFAULT_WINDOW;
    let mut min_history = lp_obs::trend::DEFAULT_MIN_HISTORY;
    let mut rest = args.iter();
    while let Some(arg) = rest.next() {
        match arg.as_str() {
            "--ledger" => match rest.next() {
                Some(p) => ledger = PathBuf::from(p),
                None => usage_exit(),
            },
            "--check" => check = true,
            "--window" => match rest.next().and_then(|n| n.parse().ok()) {
                Some(n) if n >= 1 => window = n,
                _ => usage_exit(),
            },
            "--min-history" => match rest.next().and_then(|n| n.parse().ok()) {
                Some(n) => min_history = n,
                _ => usage_exit(),
            },
            _ => usage_exit(),
        }
    }
    let records = lp_obs::trend::read_ledger(&ledger).unwrap_or_else(|e| {
        eprintln!("cannot read trend ledger: {e}");
        std::process::exit(1);
    });
    if records.is_empty() {
        println!("trend ledger {} is empty", ledger.display());
        if check {
            eprintln!("nothing to check");
            std::process::exit(1);
        }
        std::process::exit(0);
    }
    // One line per series: run count, newest point, noise band when the
    // series is deep enough to have one.
    let mut keys: Vec<String> = Vec::new();
    for r in &records {
        let key = r.series_key();
        if !keys.contains(&key) {
            keys.push(key);
        }
    }
    println!(
        "trend ledger {} — {} record(s), {} series",
        ledger.display(),
        records.len(),
        keys.len()
    );
    for key in &keys {
        let series: Vec<&lp_obs::TrendRecord> =
            records.iter().filter(|r| &r.series_key() == key).collect();
        let newest = series.last().expect("series is non-empty");
        let history: Vec<f64> = series[..series.len() - 1]
            .iter()
            .map(|r| r.profile_mips)
            .collect();
        let recent = &history[history.len().saturating_sub(window)..];
        let band = if recent.len() >= min_history.max(1) {
            let b = lp_obs::trend::noise_band(
                recent,
                lp_obs::trend::BAND_K,
                lp_obs::trend::BAND_REL_FLOOR,
            );
            format!(
                "band [{:.2}, {:.2}] over {} prior",
                b.lower,
                b.upper,
                recent.len()
            )
        } else {
            format!("{} prior run(s), no band yet", recent.len())
        };
        let label = if newest.label.is_empty() {
            String::new()
        } else {
            format!(" [{}]", newest.label)
        };
        println!(
            "  {} {} ({}): {} run(s), latest {:.2} Mi/s{label}, {band}",
            newest.bench,
            newest.scale,
            &newest.machine[..8.min(newest.machine.len())],
            series.len(),
            newest.profile_mips,
        );
    }
    if check {
        let verdict =
            lp_obs::trend::check_latest(&records, window, min_history).expect("non-empty ledger");
        println!("{}", verdict.render());
        if !verdict.passed() {
            std::process::exit(2);
        }
    }
    std::process::exit(0);
}

/// The `lpstudy bench` subcommand (see the module docs).
pub fn run(cli: &Cli, args: &[String]) {
    let mut reps: u32 = 3;
    let mut out: Option<PathBuf> = None;
    let mut baseline_path: Option<PathBuf> = None;
    let mut check_path: Option<PathBuf> = None;
    let mut trend_path: Option<PathBuf> = None;
    let mut label = String::new();
    let mut picked: Vec<Benchmark> = Vec::new();
    let mut rest = args.iter();
    while let Some(arg) = rest.next() {
        match arg.as_str() {
            "--bench" => match rest.next().map(|n| lp_suite::find(n)) {
                Some(Some(b)) => picked.push(b),
                Some(None) => {
                    eprintln!("unknown benchmark (see lp_suite::registry)");
                    std::process::exit(2);
                }
                None => usage_exit(),
            },
            "--reps" => match rest.next().and_then(|n| n.parse().ok()) {
                Some(n) => reps = n,
                None => usage_exit(),
            },
            "--out" => match rest.next() {
                Some(p) => out = Some(PathBuf::from(p)),
                None => usage_exit(),
            },
            "--baseline" => match rest.next() {
                Some(p) => baseline_path = Some(PathBuf::from(p)),
                None => usage_exit(),
            },
            "--check" => match rest.next() {
                Some(p) => check_path = Some(PathBuf::from(p)),
                None => usage_exit(),
            },
            "--trend" => match rest.next() {
                Some(p) => trend_path = Some(PathBuf::from(p)),
                None => usage_exit(),
            },
            "--label" => match rest.next() {
                Some(l) => label = l.clone(),
                None => usage_exit(),
            },
            _ => usage_exit(),
        }
    }
    if picked.is_empty() {
        picked = lp_suite::suite(SuiteId::Eembc);
    }
    let jobs = cli.jobs();

    let rows: Vec<Row> = picked
        .iter()
        .map(|b| {
            let row = measure(b, cli.scale, reps, cli.engine);
            lp_info!(
                "{:<18} {:>12} insts  interp {:>8.2} Mi/s  profile {:>8.2} Mi/s  ({:.2}x slowdown)",
                row.name,
                row.insts,
                mips(row.insts, row.interp_ns),
                mips(row.insts, row.profile_ns),
                row.profile_ns as f64 / row.interp_ns.max(1) as f64
            );
            row
        })
        .collect();

    // End-to-end: profile every picked benchmark once, evaluate the full
    // Table II row lattice against the shared profiles.
    let counters_before = lp_obs::counters().snapshot();
    let (sweep_ns, n_points) = timed(|| {
        let runs = run_benchmarks(&picked, cli.scale, jobs, None, cli.engine);
        let table_rows = lp_runtime::table2_rows();
        let table = SweepTable::build(&runs, &table_rows, jobs);
        runs.len() * table.rows().len()
    });
    let sweep_counters = counters_since(&counters_before);

    let t_insts: u64 = rows.iter().map(|r| r.insts).sum();
    let t_interp: u64 = rows.iter().map(|r| r.interp_ns).sum();
    let t_profile: u64 = rows.iter().map(|r| r.profile_ns).sum();
    let t_nojournal: u64 = rows.iter().map(|r| r.profile_nojournal_ns).sum();
    let cur_slowdown = t_profile as f64 / t_interp.max(1) as f64;

    // Robust per-rep statistics: rep r's aggregate is the sum across
    // benchmarks of that rep's sample, so the rep vectors line up into
    // `reps` paired aggregate observations of each pipeline stage.
    let nreps = reps.max(1) as usize;
    let agg = |pick: &dyn Fn(&Row) -> &Vec<u64>| -> Vec<f64> {
        (0..nreps)
            .map(|r| rows.iter().map(|row| pick(row)[r]).sum::<u64>() as f64)
            .collect()
    };
    let interp_agg = agg(&|row| &row.interp_reps);
    let profile_agg = agg(&|row| &row.profile_reps);
    let nojournal_agg = agg(&|row| &row.profile_nojournal_reps);
    let interp_med_ns = lp_obs::trend::median(&mut interp_agg.clone());
    let profile_med_ns = lp_obs::trend::median(&mut profile_agg.clone());
    let nojournal_med_ns = lp_obs::trend::median(&mut nojournal_agg.clone());
    // Relative cost of always-on journaling, per rep (pairing reps
    // cancels slow-machine moments that hit both runs alike); the point
    // estimate is the median so one noisy rep cannot trip the gate, and
    // the MAD feeds the gate's noise allowance. Negative values are
    // timer noise — the journal cannot speed a run up.
    let mut overheads: Vec<f64> = profile_agg
        .iter()
        .zip(&nojournal_agg)
        .map(|(p, n)| p / n.max(1.0) - 1.0)
        .collect();
    let journal_overhead = lp_obs::trend::median(&mut overheads);
    let journal_overhead_mad = lp_obs::trend::mad(&overheads, journal_overhead);

    let mut w = JsonWriter::compact();
    w.begin_object();
    w.key("schema");
    w.string("lpbench-v1");
    w.key("scale");
    w.string(scale_label(cli.scale));
    w.key("engine");
    w.string(cli.engine.name());
    w.key("reps");
    w.uint(u64::from(reps));
    w.key("jobs");
    w.uint(jobs.get() as u64);
    w.key("benchmarks");
    w.begin_array();
    for r in &rows {
        w.begin_object();
        w.key("name");
        w.string(r.name);
        w.key("insts");
        w.uint(r.insts);
        w.key("interp_ns");
        w.uint(r.interp_ns);
        w.key("profile_ns");
        w.uint(r.profile_ns);
        w.key("profile_nojournal_ns");
        w.uint(r.profile_nojournal_ns);
        w.key("interp_mips");
        w.fixed(mips(r.insts, r.interp_ns), 3);
        w.key("profile_mips");
        w.fixed(mips(r.insts, r.profile_ns), 3);
        w.key("slowdown");
        w.fixed(r.profile_ns as f64 / r.interp_ns.max(1) as f64, 3);
        w.end_object();
    }
    w.end_array();
    w.key("totals");
    w.begin_object();
    w.key("insts");
    w.uint(t_insts);
    w.key("interp_ns");
    w.uint(t_interp);
    w.key("profile_ns");
    w.uint(t_profile);
    w.key("profile_nojournal_ns");
    w.uint(t_nojournal);
    w.key("interp_mips");
    w.fixed(mips(t_insts, t_interp), 3);
    w.key("profile_mips");
    w.fixed(mips(t_insts, t_profile), 3);
    w.key("slowdown");
    w.fixed(cur_slowdown, 3);
    w.key("interp_med_ns");
    w.fixed(interp_med_ns, 0);
    w.key("profile_med_ns");
    w.fixed(profile_med_ns, 0);
    w.key("profile_nojournal_med_ns");
    w.fixed(nojournal_med_ns, 0);
    w.key("journal_overhead");
    w.fixed(journal_overhead, 4);
    w.key("journal_overhead_mad");
    w.fixed(journal_overhead_mad, 4);
    w.end_object();
    w.key("sweep");
    w.begin_object();
    w.key("benchmarks");
    w.uint(picked.len() as u64);
    w.key("points");
    w.uint(n_points as u64);
    w.key("wall_ns");
    w.uint(sweep_ns);
    w.end_object();
    w.key("counters");
    w.begin_object();
    for (name, value) in &sweep_counters {
        w.key(name);
        w.uint(*value);
    }
    w.end_object();
    if let Some(path) = &baseline_path {
        match read_baseline(path) {
            Some(base) => {
                w.key("baseline");
                w.begin_object();
                w.key("interp_mips");
                w.fixed(base.interp_mips, 3);
                w.key("profile_mips");
                w.fixed(base.profile_mips, 3);
                w.key("slowdown");
                w.fixed(base.slowdown, 3);
                w.key("profile_speedup");
                w.fixed(mips(t_insts, t_profile) / base.profile_mips.max(1e-9), 3);
                w.key("slowdown_ratio");
                w.fixed(base.slowdown / cur_slowdown.max(1e-9), 3);
                w.key("per_bench");
                w.begin_array();
                for r in &rows {
                    let Some((_, base_pm)) = base.per_bench.iter().find(|(n, _)| n == r.name)
                    else {
                        continue;
                    };
                    w.begin_object();
                    w.key("name");
                    w.string(r.name);
                    w.key("baseline_profile_mips");
                    w.fixed(*base_pm, 3);
                    w.key("profile_mips");
                    w.fixed(mips(r.insts, r.profile_ns), 3);
                    w.key("profile_speedup");
                    w.fixed(mips(r.insts, r.profile_ns) / base_pm.max(1e-9), 3);
                    w.end_object();
                }
                w.end_array();
                w.end_object();
            }
            None => {
                eprintln!("cannot read bench baseline {}", path.display());
                std::process::exit(2);
            }
        }
    }
    w.end_object();
    let json = w.finish() + "\n";

    match &out {
        Some(path) => {
            if let Err(e) = std::fs::write(path, &json) {
                eprintln!("cannot write {}: {e}", path.display());
                std::process::exit(1);
            }
            lp_info!("wrote {}", path.display());
        }
        None => print!("{json}"),
    }

    if let Some(path) = &trend_path {
        let unix_ms = std::time::SystemTime::now()
            .duration_since(std::time::UNIX_EPOCH)
            .map(|d| d.as_millis() as u64)
            .unwrap_or(0);
        let record = lp_obs::TrendRecord {
            bench: picked.iter().map(|b| b.name).collect::<Vec<_>>().join("+"),
            scale: scale_label(cli.scale).to_string(),
            label: label.clone(),
            reps: u64::from(reps),
            unix_ms,
            machine: machine_digest(),
            profile_mips: mips(t_insts, profile_med_ns as u64),
            interp_mips: mips(t_insts, interp_med_ns as u64),
            slowdown: profile_med_ns / interp_med_ns.max(1.0),
            journal_overhead,
            counters: sweep_counters,
        };
        if let Err(e) = lp_obs::trend::append_ledger(path, &record) {
            eprintln!("cannot append trend record to {}: {e}", path.display());
            std::process::exit(1);
        }
        lp_info!("appended trend record to {}", path.display());
    }

    if let Some(path) = &check_path {
        // Engine equivalence gate: profile every picked benchmark under
        // both engines and byte-compare the serialized profile cache
        // entries (profile + run result). Any divergence — result, cost,
        // region tree, conflict census, LCD classes — flips a byte.
        for b in &picked {
            let module = b.build(cli.scale);
            let analysis = analyze_module(&module);
            let encoded = |engine: Engine| {
                let config = MachineConfig {
                    engine,
                    ..MachineConfig::default()
                };
                let (p, r) = lp_runtime::profile_module(&module, &analysis, &[], config)
                    .unwrap_or_else(|e| panic!("benchmark {} failed: {e}", b.name));
                lp_runtime::encode_entry(&p, &r)
            };
            if encoded(Engine::Tree) != encoded(Engine::Bc) {
                eprintln!(
                    "bench check FAILED: {} profiles diverge between --engine tree and bc",
                    b.name
                );
                std::process::exit(1);
            }
        }
        lp_info!(
            "engine check passed: {} benchmark(s) profile byte-identically under tree and bc",
            picked.len()
        );
        let Some(base) = read_baseline(path) else {
            eprintln!("cannot read bench baseline {}", path.display());
            std::process::exit(2);
        };
        // The slowdown ratio (profiler time per instruction over plain
        // interpreter time per instruction) cancels out the machine's
        // absolute speed, so a checked-in baseline transfers across CI
        // runners; raw insts/sec would not.
        let limit = base.slowdown * (1.0 + CHECK_TOLERANCE);
        if cur_slowdown > limit {
            eprintln!(
                "bench check FAILED: profiler slowdown {cur_slowdown:.3}x exceeds baseline \
                 {:.3}x by more than {:.0}% (limit {limit:.3}x)",
                base.slowdown,
                CHECK_TOLERANCE * 100.0
            );
            std::process::exit(1);
        }
        // Median-of-reps overhead, discounted by its own scaled MAD: the
        // gate only fires when even the measurement's noise band cannot
        // explain the excess, so a single slow rep no longer flakes CI.
        let overhead_floor = journal_overhead - 1.4826 * journal_overhead_mad;
        if overhead_floor > JOURNAL_TOLERANCE {
            eprintln!(
                "bench check FAILED: always-on journaling overhead {:.1}% (median of {nreps} \
                 rep(s), MAD {:.2}%) exceeds {:.0}% beyond measurement noise",
                journal_overhead * 100.0,
                journal_overhead_mad * 100.0,
                JOURNAL_TOLERANCE * 100.0
            );
            std::process::exit(1);
        }
        lp_info!(
            "bench check passed: slowdown {:.3}x vs baseline {:.3}x (limit {:.3}x), \
             journal overhead {:.2}% (MAD {:.2}%)",
            cur_slowdown,
            base.slowdown,
            limit,
            journal_overhead * 100.0,
            journal_overhead_mad * 100.0
        );
    }
    cli.finish("lpbench");
}
