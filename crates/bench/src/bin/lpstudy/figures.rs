//! The paper's tables and figures, one subcommand each, plus the
//! ablations, the core-count scaling curves and the full-lattice CSV
//! sweep. Each profiles its benchmarks once, then evaluates every
//! `(benchmark, row)` cell on `--jobs N` workers; the printed output is
//! byte-identical for any worker count and pinned by the golden test
//! over `results/`.

use crate::suite_named;
use lp_analysis::analyze_module;
use lp_bench::{log_bar, run_suites, write_explain, Cli, FlagSpec, SuiteRun, SweepTable};
use lp_obs::lp_info;
use lp_runtime::export::{report_header, report_row};
use lp_runtime::model::{doall_cost, helix_cost, pdoall_cost};
use lp_runtime::{
    best_helix, best_pdoall, evaluate_with, geomean, parallel_map, profile_module_cached,
    table2_rows, Census, Config, DepMode, EvalOptions, ExecModel, FnMode, ProfilerOptions,
    ReducMode,
};
use lp_suite::SuiteId;

/// Profiles every benchmark of `suites` under the command line's scale,
/// jobs, store and engine.
fn profile(cli: &Cli, suites: &[SuiteId]) -> Vec<SuiteRun> {
    let store = cli.store();
    run_suites(suites, cli.scale, cli.jobs(), store.as_ref(), cli.engine)
}

/// Table I: the ordering-constraint census — how many register LCDs are
/// computable / reduction / predictable / unpredictable, how many loops
/// carry frequent vs infrequent memory LCDs, and how many loops contain
/// calls (the structural constraint), per suite and overall.
pub fn table1(cli: &Cli) {
    let scale = cli.scale;
    let runs = profile(cli, &SuiteId::all());
    println!("Table I — ordering constraints and dependencies, quantified ({scale:?} scale)\n");
    for suite in SuiteId::all() {
        let census = Census::over(
            runs.iter()
                .filter(|r| r.suite == suite)
                .map(|r| r.study.profile()),
        );
        println!("[{suite}]");
        println!("{census}\n");
    }
    let total = Census::over(runs.iter().map(|r| r.study.profile()));
    println!("[all suites]");
    println!("{total}");
    cli.finish("table1");
}

fn definition(config: &Config) -> [&'static str; 3] {
    let reduc = match config.reduc {
        ReducMode::Reduc0 => "reductions are treated as non-computable LCDs",
        ReducMode::Reduc1 => "reductions are considered parallel with no overheads",
    };
    let dep = match config.dep {
        DepMode::Dep0 => "non-computable LCDs are not considered parallelizable",
        DepMode::Dep1 => "non-computable LCDs are lowered to memory (frequent memory LCDs)",
        DepMode::Dep2 => "non-computable LCDs are accelerated using 'realistic' value prediction",
        DepMode::Dep3 => {
            "non-computable register LCDs are accelerated using perfect value prediction"
        }
    };
    let fnm = match config.fnm {
        FnMode::Fn0 => "loops with any function calls are marked as sequential",
        FnMode::Fn1 => "only calls identified by the compiler as pure are considered parallel",
        FnMode::Fn2 => "pure, thread-safe library, and instrumented user calls can be parallel",
        FnMode::Fn3 => "all function calls can be parallelized",
    };
    [reduc, dep, fnm]
}

/// Table II: the configuration flags and their definitions, generated
/// from the implemented `Config` lattice so the table can never drift
/// from the code.
pub fn table2(cli: &Cli) {
    println!("Table II — configuration flags and their definitions\n");
    let mut seen = std::collections::BTreeSet::new();
    for config in Config::all() {
        for (flag, text) in ["reduc", "dep", "fn"].iter().zip(definition(&config)) {
            let key = format!("{flag}:{text}");
            if seen.insert(key) {
                let name = config
                    .to_string()
                    .split('-')
                    .find(|p| p.starts_with(flag))
                    .unwrap()
                    .to_string();
                println!("  -{name:<8} {text}");
            }
        }
    }
    println!("\nmodels: DOALL | Partial-DOALL | HELIX-style (see lp_runtime::ExecModel)");
    cli.finish("table2");
}

const ITER_LEN: u64 = 8;
const N: usize = 4;

fn draw(label: &str, starts: &[u64], total: u64) {
    println!("{label}");
    for (k, &s) in starts.iter().enumerate() {
        let pad = " ".repeat(s as usize);
        let body = "#".repeat(ITER_LEN as usize);
        println!("  iter {k}: {pad}{body}");
    }
    println!("  time ->  0{}{total}\n", "-".repeat(total as usize));
}

/// Figure 1: the three parallel execution models, rendered as ASCII
/// timelines from the *actual cost models* on a toy 4-iteration loop
/// with one loop-carried dependency detected at iteration 2.
pub fn fig1(cli: &Cli) {
    let lens = [ITER_LEN; N];
    println!("Figure 1 — parallel execution models (toy loop, {N} iterations, LCD at iter 2)\n");

    // (a) DOALL: no conflicts assumed — all iterations start together.
    let cost = doall_cost(&lens, false, false).unwrap();
    draw(
        "(a) DOALL (conflict-free case): all iterations start at once",
        &[0; N],
        cost,
    );

    // (b) Partial-DOALL: the conflict at iteration 2 restarts the phase.
    let conflicts = [2u32];
    let cost = pdoall_cost(&lens, &conflicts, false).unwrap();
    let mut starts = [0u64; N];
    let mut phase_start = 0;
    let mut ci = 0;
    let mut phase_longest = 0;
    for k in 0..N {
        if ci < conflicts.len() && conflicts[ci] as usize == k {
            ci += 1;
            phase_start += phase_longest;
            phase_longest = 0;
        }
        starts[k] = phase_start;
        phase_longest = phase_longest.max(lens[k]);
    }
    draw(
        "(b) Partial-DOALL: LCD detected at iter 2 delays the younger iterations",
        &starts,
        cost,
    );

    // (c) HELIX: synchronization skews every iteration by delta.
    let delta = 3u64;
    let cost = helix_cost(&lens, delta, false).unwrap();
    let starts: Vec<u64> = (0..N as u64).map(|k| k * delta).collect();
    draw(
        "(c) DOACROSS / HELIX: per-iteration synchronization (delta = 3)",
        &starts,
        cost,
    );

    println!(
        "costs: DOALL {}, PDOALL {}, HELIX {}, serial {}",
        doall_cost(&lens, false, false).unwrap(),
        pdoall_cost(&lens, &conflicts, false).unwrap(),
        helix_cost(&lens, delta, false).unwrap(),
        ITER_LEN * N as u64,
    );
    cli.finish("fig1");
}

/// One GEOMEAN-speedup figure over the 14 paper rows: a column per
/// suite, log-scale bars for `bar_suite`.
fn geomean_figure(cli: &Cli, title: &str, suites: &[SuiteId], bar_suite: SuiteId) {
    let jobs = cli.jobs();
    let runs = profile(cli, suites);
    println!("{title} ({:?} scale)", cli.scale);
    print!("{:<14} {:<18}", "model", "config");
    for s in suites {
        print!(" {:>9}", s.label());
    }
    println!("   (log-scale bars: {})", bar_suite.label());
    let rows = table2_rows();
    let table = SweepTable::build(&runs, &rows, jobs);
    let max = (0..rows.len())
        .map(|j| table.geomean_speedup(&runs, bar_suite, j))
        .fold(1.0f64, f64::max);
    for (j, (model, config)) in rows.into_iter().enumerate() {
        print!("{:<14} {:<18}", model.to_string(), config.to_string());
        for &s in suites {
            print!(" {:>8.2}x", table.geomean_speedup(&runs, s, j));
        }
        let bar = table.geomean_speedup(&runs, bar_suite, j);
        println!("   {}", log_bar(bar, max, 36));
    }
}

/// Figure 2: GEOMEAN limit speedups for the non-numeric suites
/// (SPEC CINT2000 & CINT2006) under the 14 paper configurations.
pub fn fig2(cli: &Cli) {
    geomean_figure(
        cli,
        "Figure 2 — GEOMEAN speedups, non-numeric benchmarks",
        &[SuiteId::Cint2000, SuiteId::Cint2006],
        SuiteId::Cint2006,
    );
    println!("\npaper reference (Fig. 2): best HELIX reduc1-dep1-fn2 = 4.6x (2000) / 7.2x (2006)");
    cli.finish("fig2");
}

/// Figure 3: GEOMEAN limit speedups for the numeric suites
/// (EEMBC, SPEC CFP2000 & CFP2006) under the 14 paper configurations.
pub fn fig3(cli: &Cli) {
    geomean_figure(
        cli,
        "Figure 3 — GEOMEAN speedups, numeric benchmarks",
        &[SuiteId::Eembc, SuiteId::Cfp2000, SuiteId::Cfp2006],
        SuiteId::Cfp2000,
    );
    println!("\npaper reference (Fig. 3): best HELIX reduc1-dep1-fn2 = 21.6x-50.6x across numeric suites");
    cli.finish("fig3");
}

/// Figure 4: per-benchmark speedups across all SPEC suites for the best
/// realistic PDOALL (`reduc1-dep2-fn2`) and best HELIX
/// (`reduc1-dep1-fn2`) configurations, with the winner marked.
/// `--explain-out` attributes each benchmark under its winning row.
pub fn fig4(cli: &Cli) {
    let scale = cli.scale;
    let jobs = cli.jobs();
    let spec = [
        SuiteId::Cint2000,
        SuiteId::Cfp2000,
        SuiteId::Cint2006,
        SuiteId::Cfp2006,
    ];
    let runs = profile(cli, &spec);

    let (pd_model, pd_config) = best_pdoall();
    let (hx_model, hx_config) = best_helix();
    let table = SweepTable::build(&runs, &[(pd_model, pd_config), (hx_model, hx_config)], jobs);

    println!("Figure 4 — per-benchmark speedups, all SPEC ({scale:?} scale)");
    println!(
        "{:<18} {:>12} {:>12}  winner  (log-scale bar: winner)",
        "benchmark", "PDOALL", "HELIX"
    );
    let mut pd_all = Vec::new();
    let mut hx_all = Vec::new();
    let max = (0..runs.len())
        .map(|i| table.report(i, 0).speedup.max(table.report(i, 1).speedup))
        .fold(1.0f64, f64::max);
    let mut pdoall_wins = 0usize;
    let mut attrs = Vec::new();
    for (i, run) in runs.iter().enumerate() {
        let pd = table.report(i, 0).speedup;
        let hx = table.report(i, 1).speedup;
        pd_all.push(pd);
        hx_all.push(hx);
        let winner = if pd > hx { "PDOALL" } else { "HELIX" };
        if pd > hx {
            pdoall_wins += 1;
        }
        if cli.explain_out.is_some() {
            let (model, config) = if pd > hx {
                (pd_model, pd_config)
            } else {
                (hx_model, hx_config)
            };
            attrs.push(run.study.explain(model, config).1);
        }
        println!(
            "{:<18} {:>11.2}x {:>11.2}x  {:<6}  {}",
            run.name,
            pd,
            hx,
            winner,
            log_bar(pd.max(hx), max, 30)
        );
    }
    if let Some(path) = &cli.explain_out {
        write_explain(path, &attrs, None);
    }
    println!(
        "\nGEOMEAN: PDOALL {:.2}x, HELIX {:.2}x; PDOALL wins {} of {} benchmarks",
        geomean(&pd_all),
        geomean(&hx_all),
        pdoall_wins,
        runs.len()
    );
    println!("paper reference (Fig. 4): PDOALL wins on 179.art, 450.soplex, 482.sphinx3, 429.mcf");
    cli.finish("fig4");
}

/// Figure 5: GEOMEAN dynamic coverage (percent of dynamic IR
/// instructions inside parallel loops) for the three configurations the
/// paper highlights: `reduc0-dep0-fn2` PDOALL, `reduc0-dep0-fn2` HELIX,
/// and `reduc0-dep1-fn2` HELIX. `--explain-out` attributes every
/// benchmark under the last (most permissive) of them.
pub fn fig5(cli: &Cli) {
    let scale = cli.scale;
    let suites = SuiteId::all();
    let runs = profile(cli, &suites);

    let rows: [(&str, ExecModel, Config); 3] = [
        (
            "PDOALL reduc0-dep0-fn2",
            ExecModel::PartialDoall,
            "reduc0-dep0-fn2".parse().unwrap(),
        ),
        (
            "HELIX  reduc0-dep0-fn2",
            ExecModel::Helix,
            "reduc0-dep0-fn2".parse().unwrap(),
        ),
        (
            "HELIX  reduc0-dep1-fn2",
            ExecModel::Helix,
            "reduc0-dep1-fn2".parse().unwrap(),
        ),
    ];
    let table_rows: Vec<(ExecModel, Config)> = rows.iter().map(|&(_, m, c)| (m, c)).collect();
    let table = SweepTable::build(&runs, &table_rows, cli.jobs());

    println!("Figure 5 — GEOMEAN dynamic coverage, percent ({scale:?} scale)");
    print!("{:<24}", "configuration");
    for s in suites {
        print!(" {:>9}", s.label());
    }
    println!();
    for (j, (label, _, _)) in rows.iter().enumerate() {
        print!("{label:<24}");
        for s in suites {
            let cov = table.geomean_coverage(&runs, s, j);
            print!(" {cov:>8.1}%");
        }
        println!();
    }
    println!("\npaper reference (Fig. 5): coverage rises dramatically from dep0-fn2 PDOALL");
    println!("to dep0-fn2 HELIX to dep1-fn2 HELIX, especially for the non-numeric suites.");
    if let Some(path) = &cli.explain_out {
        let (_, model, config) = rows[2];
        let attrs: Vec<_> = runs
            .iter()
            .map(|r| r.study.explain(model, config).1)
            .collect();
        write_explain(path, &attrs, None);
    }
    cli.finish("fig5");
}

/// Ablations for the design choices called out in DESIGN.md:
///
/// 1. **Cactus-stack filter** (§II-E): profile call-heavy suites with
///    and without treating per-iteration frames as iteration-local.
/// 2. **HELIX vs classic DOACROSS**: per-LCD sync points (HELIX) vs one
///    sync point from the last producer to the first consumer.
/// 3. **Hybrid vs individual value predictors** on characteristic
///    register-LCD streams (dep2 sensitivity, §III-C).
pub fn ablations(cli: &Cli) {
    let scale = cli.scale;
    let jobs = cli.jobs();
    let store = cli.store();
    let store = store.as_ref();

    // ---- 1. cactus-stack filter --------------------------------------
    println!("Ablation 1 — cactus-stack frame filter (PDOALL reduc1-dep2-fn2)\n");
    println!(
        "{:<12} {:>12} {:>14}",
        "suite", "with cactus", "without cactus"
    );
    let (model, config) = best_pdoall();
    for suite in [SuiteId::Eembc, SuiteId::Cint2000] {
        // This ablation re-profiles on purpose (the profiler option under
        // test changes the profile), so the benchmarks fan out instead.
        let pairs = parallel_map(&lp_suite::suite(suite), jobs, |_, b| {
            let module = b.build(scale);
            let analysis = analyze_module(&module);
            // The profiler option under test is part of the ProfileKey,
            // so the two legs cache under distinct entries.
            let speedup_with_cactus = |cactus: bool| {
                let (profile, _) = profile_module_cached(
                    &module,
                    &analysis,
                    cli.machine_config(),
                    ProfilerOptions {
                        cactus_stack: cactus,
                    },
                    store,
                )
                .expect("benchmark runs");
                evaluate_with(&profile, model, config, EvalOptions::default()).speedup
            };
            (speedup_with_cactus(true), speedup_with_cactus(false))
        });
        let (with, without): (Vec<f64>, Vec<f64>) = pairs.into_iter().unzip();
        println!(
            "{:<12} {:>11.2}x {:>13.2}x",
            suite.label(),
            geomean(&with),
            geomean(&without)
        );
    }
    println!("\n=> without disjoint (cactus) stack frames, loops containing calls serialize");
    println!("   on reused frame addresses — the structural hazard of paper §II-E.\n");

    // ---- 2. HELIX (max) vs classic DOACROSS (sum) ---------------------
    println!("Ablation 2 — HELIX per-LCD sync (max delta) vs DOACROSS chain (sum)\n");
    println!("{:<12} {:>10} {:>12}", "suite", "HELIX", "DOACROSS");
    let (hx_model, hx_config) = best_helix();
    for suite in [SuiteId::Cint2000, SuiteId::Cint2006] {
        let pairs = parallel_map(&lp_suite::suite(suite), jobs, |_, b| {
            let module = b.build(scale);
            let analysis = analyze_module(&module);
            let (profile, _) = profile_module_cached(
                &module,
                &analysis,
                cli.machine_config(),
                ProfilerOptions::default(),
                store,
            )
            .expect("benchmark runs");
            let helix =
                evaluate_with(&profile, hx_model, hx_config, EvalOptions::default()).speedup;
            let doacross = evaluate_with(
                &profile,
                hx_model,
                hx_config,
                EvalOptions {
                    doacross_single_sync: true,
                    ..EvalOptions::default()
                },
            )
            .speedup;
            (helix, doacross)
        });
        let (helix, doacross): (Vec<f64>, Vec<f64>) = pairs.into_iter().unzip();
        println!(
            "{:<12} {:>9.2}x {:>11.2}x",
            suite.label(),
            geomean(&helix),
            geomean(&doacross)
        );
    }
    println!("\n=> HELIX's per-LCD synchronization dominates a single DOACROSS sync point.\n");

    // ---- 3. predictors ------------------------------------------------
    println!("Ablation 3 — value predictor components on characteristic LCD streams\n");
    use lp_predict::{Fcm, LastValue, Predictor, Stride, TwoDeltaStride};
    let streams: [(&str, Vec<u64>); 4] = [
        ("constant", vec![9; 512]),
        ("strided", (0..512).map(|i| 40 + 3 * i).collect()),
        (
            "mostly-strided",
            (0..512u64)
                .scan(0u64, |x, i| {
                    *x += if i % 64 == 0 { 17 } else { 3 };
                    Some(*x)
                })
                .collect(),
        ),
        (
            "chaotic",
            (0..512u64)
                .scan(0x2545F4914F6CDD1Du64, |x, _| {
                    *x = x
                        .wrapping_mul(6364136223846793005)
                        .wrapping_add(1442695040888963407);
                    Some(*x >> 33)
                })
                .collect(),
        ),
    ];
    println!(
        "{:<16} {:>8} {:>8} {:>8} {:>8} {:>8}",
        "stream", "last", "stride", "2delta", "fcm", "hybrid"
    );
    for (name, stream) in &streams {
        let acc = |mut p: Box<dyn Predictor>| -> f64 {
            let mut hits = 0usize;
            for &v in stream {
                if p.predict() == Some(v) {
                    hits += 1;
                }
                p.update(v);
            }
            100.0 * hits as f64 / stream.len() as f64
        };
        let mut hybrid = lp_predict::HybridPredictor::new();
        for &v in stream {
            hybrid.observe(v);
        }
        println!(
            "{:<16} {:>7.1}% {:>7.1}% {:>7.1}% {:>7.1}% {:>7.1}%",
            name,
            acc(Box::new(LastValue::new())),
            acc(Box::new(Stride::new())),
            acc(Box::new(TwoDeltaStride::new())),
            acc(Box::new(Fcm::new())),
            100.0 * hybrid.stats().accuracy(),
        );
    }
    cli.finish("ablations");
}

const CORES: [Option<u32>; 7] = [
    Some(2),
    Some(4),
    Some(8),
    Some(16),
    Some(32),
    Some(64),
    None,
];

fn geomean_at(
    runs: &[SuiteRun],
    suite: SuiteId,
    (model, config): (ExecModel, Config),
    cores: Option<u32>,
) -> f64 {
    let values: Vec<f64> = runs
        .iter()
        .filter(|r| r.suite == suite)
        .map(|r| {
            let options = EvalOptions {
                cores,
                ..EvalOptions::default()
            };
            evaluate_with(r.study.profile(), model, config, options).speedup
        })
        .collect();
    geomean(&values)
}

/// Core-count scaling curves — the bridge from the paper's
/// infinite-resource limit study to the finite-core systems its related
/// work reports against (HELIX-RC: 6.5× on 16 cores for CINT;
/// SWARM/T4: 19× on 64 cores): the best HELIX and best PDOALL
/// configurations evaluated with the core count bounded.
pub fn scaling(cli: &Cli) {
    let scale = cli.scale;
    let suites = SuiteId::all();
    let runs = profile(cli, &suites);

    for (label, row) in [
        ("best HELIX (reduc1-dep1-fn2)", best_helix()),
        ("best PDOALL (reduc1-dep2-fn2)", best_pdoall()),
    ] {
        println!("GEOMEAN speedup vs core count — {label} ({scale:?} scale)");
        print!("{:<10}", "suite");
        for c in CORES {
            match c {
                Some(p) => print!(" {p:>7}"),
                None => print!(" {:>7}", "inf"),
            }
        }
        println!();
        for suite in suites {
            print!("{:<10}", suite.label());
            for c in CORES {
                print!(" {:>6.2}x", geomean_at(&runs, suite, row, c));
            }
            println!();
        }
        println!();
    }
    println!("reference points from the paper's related work: HELIX-RC reached 6.5x");
    println!("on 16 cores for SpecINT2006; SWARM/T4 19x on 64 cores (no frequent LCDs).");
    cli.finish("scaling");
}

/// Full-lattice sweep: every benchmark × every execution model × all 32
/// configurations, exported as CSV for external plotting — the
/// machine-readable superset of Figures 2–4. `--suite NAME` (repeatable)
/// restricts the sweep to one or more suites.
pub fn sweep(cli: &Cli, spec: &FlagSpec, args: &[String]) {
    let mut suites: Vec<SuiteId> = Vec::new();
    let mut rest = args.iter();
    while let Some(arg) = rest.next() {
        match (arg.as_str(), rest.next()) {
            ("--suite", Some(name)) => suites.push(suite_named(name)),
            ("--suite", None) => {
                eprintln!("--suite requires a suite name argument");
                std::process::exit(2);
            }
            (extra, _) => spec.reject_argument(extra, "--suite NAME, "),
        }
    }
    if suites.is_empty() {
        suites.extend(SuiteId::all());
    }
    let jobs = cli.jobs();
    let runs = profile(cli, &suites);

    let reg = lp_obs::registry();
    let t0 = reg.now_ns();
    let models = ExecModel::all();
    let configs = Config::all();
    let rows: Vec<_> = models
        .iter()
        .flat_map(|&m| configs.iter().map(move |&c| (m, c)))
        .collect();
    let table = SweepTable::build(&runs, &rows, jobs);
    println!("{}", report_header());
    for i in 0..runs.len() {
        for j in 0..rows.len() {
            println!("{}", report_row(table.report(i, j)));
        }
    }
    lp_info!(
        "wrote {} rows ({} benchmarks x {} models x {} configs) on {jobs} worker(s), {:.2}s",
        runs.len() * rows.len(),
        runs.len(),
        models.len(),
        configs.len(),
        reg.now_ns().saturating_sub(t0) as f64 / 1e9
    );
    cli.finish("sweep");
}
