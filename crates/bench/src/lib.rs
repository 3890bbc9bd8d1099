//! # lp-bench — experiment regeneration harness
//!
//! One binary, `lpstudy`, regenerates every table and figure of the
//! paper as a subcommand (see DESIGN.md §5), next to its study,
//! attribution, replay and telemetry modes:
//!
//! | subcommand | regenerates |
//! |---|---|
//! | `lpstudy table1` | Table I (ordering-constraint census) |
//! | `lpstudy table2` | Table II (configuration flags) |
//! | `lpstudy fig1` | Fig. 1 (execution-model timelines) |
//! | `lpstudy fig2` | Fig. 2 (GEOMEAN speedups, non-numeric) |
//! | `lpstudy fig3` | Fig. 3 (GEOMEAN speedups, numeric) |
//! | `lpstudy fig4` | Fig. 4 (per-benchmark best PDOALL vs best HELIX) |
//! | `lpstudy fig5` | Fig. 5 (dynamic coverage) |
//! | `lpstudy ablations` | DESIGN.md ablations (cactus stack, DOACROSS deltas, predictors) |
//! | `lpstudy scaling` | core-count scaling curves |
//! | `lpstudy sweep` | the full lattice as CSV (`results/sweep.csv`) |
//! | `lpstudy bench` / `lpstudy trend` | profiler throughput report and its run ledger |
//!
//! Every subcommand accepts an optional scale argument (`test`, `small`,
//! `default`), a `--jobs N` worker count for the parallel sweep engine
//! (default: `LP_JOBS` or the machine's available parallelism; output is
//! byte-identical for any value), a `--profile-cache DIR` persistent
//! profile store (see `lp_runtime::store`; `LP_PROFILE_CACHE=off|ro|rw`
//! selects the mode), plus the shared observability flags
//! `--trace-out FILE` (Chrome `trace_event` JSON), `--snapshot-out FILE`
//! (cross-run registry snapshot, diffable with `lpstudy diff`),
//! `--flight-out FILE` and `--quiet`. `--explain-out FILE`
//! (limiter-attribution JSON) and `--sample-hz N` are accepted only by
//! the subcommands that read them ([`FLAG_SPECS`]). The `LP_LOG`
//! environment variable (`off`, `info`, `debug`) filters progress
//! output. Criterion performance benches live in `benches/`.

use loopapalooza::Study;
use lp_obs::{lp_debug, lp_info, lp_warn};
use lp_runtime::{
    Attribution, Config, EvalOptions, EvalReport, ExecModel, Export, Jobs, Profile, ProfileStore,
    StoreMode, SweepPoint, SweepUnit,
};
use lp_suite::{Benchmark, Scale, SuiteId};
use std::path::{Path, PathBuf};

/// How a subcommand treats arguments the shared [`Cli`] parser did not
/// consume (see [`FlagSpec`]).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ExtraArgs {
    /// Leftover arguments are a usage error (exit 2).
    Rejected,
    /// Leftover arguments are the subcommand's own (see [`Cli::enforce`]).
    Passthrough,
}

/// Declarative per-subcommand command-line contract, checked by
/// [`Cli::enforce`].
#[derive(Debug, Clone, Copy)]
pub struct FlagSpec {
    /// Subcommand name as typed after `lpstudy`; the row named `lpstudy`
    /// covers the study modes that take no subcommand word.
    pub command: &'static str,
    /// Whether the subcommand has a limiter attribution to export
    /// (`--explain-out`).
    pub explain_out: bool,
    /// Whether the subcommand reads `--sample-hz`.
    pub sample_hz: bool,
    /// What happens to unconsumed arguments.
    pub extra: ExtraArgs,
}

const fn row(
    command: &'static str,
    explain_out: bool,
    sample_hz: bool,
    extra: ExtraArgs,
) -> FlagSpec {
    FlagSpec {
        command,
        explain_out,
        sample_hz,
        extra,
    }
}

/// The command-line contract of every `lpstudy` subcommand, in one place.
#[rustfmt::skip]
pub const FLAG_SPECS: &[FlagSpec] = &[
    //   command          explain_out sample_hz extra
    row("lpstudy",        true,  false, ExtraArgs::Passthrough),
    row("explain",        true,  false, ExtraArgs::Passthrough),
    row("dispatch-heat",  false, true,  ExtraArgs::Passthrough),
    row("replay",         false, false, ExtraArgs::Passthrough),
    row("diff",           false, false, ExtraArgs::Passthrough),
    row("audit",          false, false, ExtraArgs::Passthrough),
    row("table1",         false, false, ExtraArgs::Rejected),
    row("table2",         false, false, ExtraArgs::Rejected),
    row("fig1",           false, false, ExtraArgs::Rejected),
    row("fig2",           false, false, ExtraArgs::Rejected),
    row("fig3",           false, false, ExtraArgs::Rejected),
    row("fig4",           true,  false, ExtraArgs::Rejected),
    row("fig5",           true,  false, ExtraArgs::Rejected),
    row("ablations",      false, false, ExtraArgs::Rejected),
    row("scaling",        false, false, ExtraArgs::Rejected),
    row("sweep",          false, false, ExtraArgs::Passthrough),
    row("bench",          false, false, ExtraArgs::Passthrough),
    row("trend",          false, false, ExtraArgs::Passthrough),
];

impl FlagSpec {
    /// Looks up the contract of one subcommand.
    #[must_use]
    pub fn of(command: &str) -> Option<&'static FlagSpec> {
        FLAG_SPECS.iter().find(|s| s.command == command)
    }

    /// How the subcommand is invoked (`lpstudy fig2`), as usage errors
    /// name it.
    #[must_use]
    pub fn invocation(&self) -> String {
        if self.command == "lpstudy" {
            "lpstudy".to_string()
        } else {
            format!("lpstudy {}", self.command)
        }
    }

    /// Exits with a usage error (2) naming an argument this subcommand
    /// does not take and listing the ones it does; `own` names the
    /// subcommand's own flags (`"--suite NAME, "`), if any.
    pub fn reject_argument(&self, extra: &str, own: &str) -> ! {
        let explain = if self.explain_out {
            "--explain-out FILE, "
        } else {
            ""
        };
        eprintln!(
            "unknown argument {extra:?} (expected test|small|default, {own}--jobs N, \
             --engine tree|bc, --trace-out FILE, {explain}--profile-cache DIR, \
             --flight-out FILE, --snapshot-out FILE, --quiet)"
        );
        std::process::exit(2);
    }

    /// Exits with a usage error (2) when `flag` was `given` but this
    /// subcommand does not read it, naming the subcommands that do.
    fn reject_flag(&self, given: bool, flag: &str, reads: fn(&FlagSpec) -> bool) {
        if given && !reads(self) {
            let users: Vec<String> = FLAG_SPECS
                .iter()
                .filter(|s| reads(s))
                .map(FlagSpec::invocation)
                .collect();
            eprintln!(
                "{} does not support {flag} (use {})",
                self.invocation(),
                users.join(", ")
            );
            std::process::exit(2);
        }
    }
}

/// Shared command line of `lpstudy`: an optional scale positional
/// (`test`, `small`, `default`) plus the observability flags. Anything
/// unrecognized lands in [`Cli::rest`], the subcommand word first; each
/// subcommand's [`FlagSpec`] (enforced via [`Cli::enforce`]) says whether
/// the rest is a usage error or its own arguments.
#[derive(Debug, Clone)]
pub struct Cli {
    /// Benchmark scale (default [`Scale::Default`]).
    pub scale: Scale,
    /// Where to write the Chrome `trace_event` JSON, if requested.
    pub trace_out: Option<PathBuf>,
    /// Where to write the limiter-attribution JSON (`--explain-out`), if
    /// requested. Subcommands that support it also write a
    /// flamegraph-compatible collapsed-stack file next to it.
    pub explain_out: Option<PathBuf>,
    /// `--quiet` suppresses all progress logging.
    pub quiet: bool,
    /// Explicit `--jobs N` worker count, if given (see [`Cli::jobs`]).
    pub jobs: Option<usize>,
    /// Explicit `--profile-cache DIR` store directory, if given (see
    /// [`Cli::store`]).
    pub profile_cache: Option<PathBuf>,
    /// Where to dump the flight-recorder journal (`--flight-out`), if
    /// requested. The journal is also dumped there on panic or SIGUSR1.
    pub flight_out: Option<PathBuf>,
    /// Where to write the cross-run registry snapshot
    /// (`--snapshot-out`, schema `lp-snapshot-v1`), if requested — the
    /// input format of `lpstudy diff` and `lpstudy audit`.
    pub snapshot_out: Option<PathBuf>,
    /// Explicit `--sample-hz N` self-profiler sampling rate, if given
    /// (consumed by `lpstudy dispatch-heat`).
    pub sample_hz: Option<u64>,
    /// Interpreter engine: explicit `--engine tree|bc` wins, else the
    /// `LP_ENGINE` environment variable, else the default (`bc`).
    /// Output is byte-identical for either engine — `tree` is the
    /// reference oracle, `bc` only trades compile time for dispatch
    /// speed.
    pub engine: lp_interp::Engine,
    /// Arguments this parser did not consume, in order.
    pub rest: Vec<String>,
}

/// Restores the default `SIGPIPE` disposition, so a process whose stdout
/// is closed early (`sweep default | head -1`) ends quietly, as Unix
/// filters do. The Rust runtime ignores `SIGPIPE` at start-up, which
/// turns the closed pipe into an `EPIPE` error that `println!` panics on
/// (exit 101, "failed printing to stdout").
#[cfg(unix)]
fn default_sigpipe() {
    extern "C" {
        fn signal(signum: i32, handler: usize) -> usize;
    }
    const SIGPIPE: i32 = 13;
    const SIG_DFL: usize = 0;
    // SAFETY: `SIG_DFL` installs no handler code, only the kernel's
    // default action. A failed call returns SIG_ERR, which leaves the
    // runtime's `SIG_IGN` in place (the old behaviour).
    unsafe {
        signal(SIGPIPE, SIG_DFL);
    }
}

#[cfg(not(unix))]
fn default_sigpipe() {}

impl Cli {
    /// Default on-disk budget for the profile cache, enforced by a gc
    /// pass every time a store is opened: 256 MiB holds thousands of
    /// EEMBC-sized entries while bounding unattended growth.
    pub const STORE_GC_BUDGET_BYTES: u64 = 256 * 1024 * 1024;

    /// Parses `std::env::args()` and initializes the log filter
    /// (`--quiet` wins over `LP_LOG`). Also restores the default
    /// `SIGPIPE` action, so a closed stdout ends the process quietly.
    #[must_use]
    pub fn parse() -> Cli {
        default_sigpipe();
        Cli::parse_from(std::env::args().skip(1))
    }

    /// As [`Cli::parse`] over explicit arguments (tests).
    ///
    /// # Panics
    /// Exits the process when `--trace-out` is missing its file operand.
    pub fn parse_from<I: IntoIterator<Item = String>>(args: I) -> Cli {
        let mut cli = Cli {
            scale: Scale::Default,
            trace_out: None,
            explain_out: None,
            quiet: false,
            jobs: None,
            profile_cache: None,
            flight_out: None,
            snapshot_out: None,
            sample_hz: None,
            engine: lp_interp::Engine::default(),
            rest: Vec::new(),
        };
        let mut engine_explicit = false;
        let mut args = args.into_iter();
        while let Some(arg) = args.next() {
            match arg.as_str() {
                "--quiet" => cli.quiet = true,
                "--trace-out" => match args.next() {
                    Some(path) => cli.trace_out = Some(PathBuf::from(path)),
                    None => {
                        eprintln!("--trace-out requires a file argument");
                        std::process::exit(2);
                    }
                },
                "--explain-out" => match args.next() {
                    Some(path) => cli.explain_out = Some(PathBuf::from(path)),
                    None => {
                        eprintln!("--explain-out requires a file argument");
                        std::process::exit(2);
                    }
                },
                "--jobs" => match args.next().and_then(|n| n.parse::<usize>().ok()) {
                    Some(n) if n >= 1 => cli.jobs = Some(n),
                    // An explicit zero clamps to serial (with a warning
                    // from `Jobs::resolve`) rather than erroring out:
                    // scripts that compute a worker count can floor at 0
                    // without special-casing. Non-numeric input is still
                    // a usage error.
                    Some(0) => cli.jobs = Some(0),
                    _ => {
                        eprintln!("--jobs requires a non-negative integer argument");
                        std::process::exit(2);
                    }
                },
                "--profile-cache" => match args.next() {
                    Some(dir) => cli.profile_cache = Some(PathBuf::from(dir)),
                    None => {
                        eprintln!("--profile-cache requires a directory argument");
                        std::process::exit(2);
                    }
                },
                "--flight-out" => match args.next() {
                    Some(path) => cli.flight_out = Some(PathBuf::from(path)),
                    None => {
                        eprintln!("--flight-out requires a file argument");
                        std::process::exit(2);
                    }
                },
                "--snapshot-out" => match args.next() {
                    Some(path) => cli.snapshot_out = Some(PathBuf::from(path)),
                    None => {
                        eprintln!("--snapshot-out requires a file argument");
                        std::process::exit(2);
                    }
                },
                "--sample-hz" => match args.next().and_then(|n| n.parse::<u64>().ok()) {
                    Some(n) if n >= 1 => cli.sample_hz = Some(n),
                    _ => {
                        eprintln!("--sample-hz requires a positive integer argument");
                        std::process::exit(2);
                    }
                },
                "--engine" => match args.next().as_deref().map(lp_interp::Engine::parse) {
                    Some(Ok(engine)) => {
                        cli.engine = engine;
                        engine_explicit = true;
                    }
                    Some(Err(bad)) => {
                        eprintln!("--engine {bad:?} is not an engine (expected tree|bc)");
                        std::process::exit(2);
                    }
                    None => {
                        eprintln!("--engine requires an argument (tree|bc)");
                        std::process::exit(2);
                    }
                },
                "test" => cli.scale = Scale::Test,
                "small" => cli.scale = Scale::Small,
                "default" => cli.scale = Scale::Default,
                _ => cli.rest.push(arg),
            }
        }
        // Engine resolution: explicit `--engine` > `LP_ENGINE` > default
        // (bc). The tree walk stays available as the reference oracle.
        if !engine_explicit {
            if let Ok(spec) = std::env::var("LP_ENGINE") {
                match lp_interp::Engine::parse(&spec) {
                    Ok(engine) => cli.engine = engine,
                    Err(bad) => {
                        eprintln!("LP_ENGINE={bad:?} is not an engine (expected tree|bc)");
                        std::process::exit(2);
                    }
                }
            }
        }
        lp_obs::log::init(cli.quiet);
        if let Some(path) = &cli.flight_out {
            // Arms the panic hook and SIGUSR1 handler in addition to the
            // end-of-run dump in `Cli::finish`.
            lp_obs::journal::arm(path);
        }
        cli
    }

    /// The machine configuration this command line asked for: defaults
    /// plus the selected `--engine`.
    #[must_use]
    pub fn machine_config(&self) -> lp_interp::MachineConfig {
        lp_interp::MachineConfig {
            engine: self.engine,
            ..lp_interp::MachineConfig::default()
        }
    }

    /// The resolved sweep worker count: explicit `--jobs N`, else the
    /// `LP_JOBS` environment variable, else the machine's available
    /// parallelism (see [`Jobs::resolve`]). Output is byte-identical for
    /// any value — the knob only trades wall-clock time.
    #[must_use]
    pub fn jobs(&self) -> Jobs {
        Jobs::resolve(self.jobs)
    }

    /// The persistent profile store requested on this command line, if
    /// any: `LP_PROFILE_CACHE=off|ro|rw` selects the mode (default
    /// [`StoreMode::ReadWrite`] when `--profile-cache DIR` was given,
    /// else off — no subcommand touches the filesystem unless asked);
    /// `--profile-cache DIR` overrides the default directory
    /// (`results/.lp-cache`). A store that cannot be opened degrades to
    /// `None` with a warning — never an error exit.
    ///
    /// # Panics
    /// Exits the process with a usage error (2) when `LP_PROFILE_CACHE`
    /// holds an unrecognized value.
    #[must_use]
    pub fn store(&self) -> Option<ProfileStore> {
        let mode = match StoreMode::from_env() {
            Ok(Some(mode)) => mode,
            Ok(None) if self.profile_cache.is_some() => StoreMode::ReadWrite,
            Ok(None) => return None,
            Err(bad) => {
                eprintln!("LP_PROFILE_CACHE={bad:?} is not a store mode (expected off|ro|rw)");
                std::process::exit(2);
            }
        };
        if mode == StoreMode::Off {
            return None;
        }
        let dir = self
            .profile_cache
            .clone()
            .unwrap_or_else(|| PathBuf::from(ProfileStore::DEFAULT_DIR));
        match ProfileStore::open(&dir, mode) {
            Ok(store) => {
                // Bound the cache on every open so it cannot grow without
                // limit across runs. Under budget this is one metadata
                // sweep (counted as `store_gc_skipped`); failures only
                // warn — a full disk should not fail the study run.
                match store.gc(Self::STORE_GC_BUDGET_BYTES) {
                    Ok(0) => {}
                    Ok(n) => lp_info!("profile store: gc reclaimed {n} bytes"),
                    Err(e) => {
                        lp_warn!("profile store gc failed in {} ({e})", dir.display());
                    }
                }
                Some(store)
            }
            Err(e) => {
                lp_warn!(
                    "cannot open profile store {} ({e}); running without a cache",
                    dir.display()
                );
                None
            }
        }
    }

    /// Resolves the subcommand this command line names — its first
    /// leftover argument when that is a [`FLAG_SPECS`] row, else the
    /// `lpstudy` study modes — and checks the command line against that
    /// row: leftover arguments first (when [`ExtraArgs::Rejected`]), then
    /// `--explain-out`, then `--sample-hz`. Returns the row and the
    /// subcommand's own arguments (the leftovers after its name).
    ///
    /// # Panics
    /// Exits the process with a usage error (2) when the command line
    /// violates the row.
    pub fn enforce(&self) -> (&'static FlagSpec, &[String]) {
        let (spec, args) = match self.rest.first().and_then(|word| FlagSpec::of(word)) {
            Some(spec) if spec.command != "lpstudy" => (spec, &self.rest[1..]),
            _ => (
                FlagSpec::of("lpstudy").expect("FLAG_SPECS has an lpstudy row"),
                &self.rest[..],
            ),
        };
        if let (ExtraArgs::Rejected, Some(extra)) = (spec.extra, args.first()) {
            spec.reject_argument(extra, "");
        }
        spec.reject_flag(self.explain_out.is_some(), "--explain-out", |s| {
            s.explain_out
        });
        spec.reject_flag(self.sample_hz.is_some(), "--sample-hz", |s| s.sample_hz);
        (spec, args)
    }

    /// End-of-run hook: dumps the observability summary at debug level
    /// and writes the Chrome trace (`--trace-out`), the registry snapshot
    /// (`--snapshot-out`), and the flight-recorder journal (`--flight-out`)
    /// when requested. `process` names the writer in both files.
    pub fn finish(&self, process: &str) {
        if lp_obs::log::enabled(lp_obs::Level::Debug) {
            eprint!("{}", lp_obs::summary(lp_obs::registry()));
        }
        if let Some(path) = &self.trace_out {
            match lp_obs::write_chrome_trace(path, process) {
                Ok(()) => lp_info!("wrote Chrome trace to {}", path.display()),
                Err(e) => {
                    eprintln!("cannot write trace to {}: {e}", path.display());
                    std::process::exit(1);
                }
            }
        }
        if let Some(path) = &self.snapshot_out {
            match lp_obs::snapshot::capture_global(process).write(path) {
                Ok(()) => lp_info!("wrote registry snapshot to {}", path.display()),
                Err(e) => {
                    eprintln!("cannot write snapshot to {}: {e}", path.display());
                    std::process::exit(1);
                }
            }
        }
        if let Some(path) = &self.flight_out {
            match lp_obs::journal::global().write_dump(path) {
                Ok(()) => lp_info!("wrote flight-recorder dump to {}", path.display()),
                Err(e) => {
                    eprintln!("cannot write flight dump to {}: {e}", path.display());
                    std::process::exit(1);
                }
            }
        }
    }
}

/// Writes the limiter-attribution export requested via `--explain-out`:
/// `path` receives `{"attributions": [...]}` — hand-rolled JSON, one
/// object per evaluated `(model, config)` pair — and, when a profile is
/// supplied, a flamegraph-compatible collapsed-stack rendering of the
/// *last* attribution is written next to it under the `collapsed`
/// extension.
///
/// # Panics
/// Exits the process when a file cannot be written (mirrors the trace
/// handling in [`Cli::finish`]).
pub fn write_explain(path: &Path, attrs: &[Attribution], profile: Option<&Profile>) {
    let parts: Vec<String> = attrs.iter().map(Export::to_json).collect();
    let json = format!("{{\"attributions\":[{}]}}\n", parts.join(","));
    if let Err(e) = std::fs::write(path, json) {
        eprintln!("cannot write explain JSON to {}: {e}", path.display());
        std::process::exit(1);
    }
    lp_info!("wrote limiter attribution to {}", path.display());
    if let (Some(profile), Some(attr)) = (profile, attrs.last()) {
        let collapsed_path = path.with_extension("collapsed");
        if let Err(e) = std::fs::write(&collapsed_path, lp_runtime::collapsed_stacks(profile, attr))
        {
            eprintln!(
                "cannot write collapsed stacks to {}: {e}",
                collapsed_path.display()
            );
            std::process::exit(1);
        }
        lp_info!("wrote collapsed stacks to {}", collapsed_path.display());
    }
}

/// One profiled benchmark.
#[derive(Debug)]
pub struct SuiteRun {
    /// Benchmark name (e.g. `429.mcf`).
    pub name: &'static str,
    /// Owning suite.
    pub suite: SuiteId,
    /// The profiled study, ready for evaluation.
    pub study: Study,
}

/// Profiles the given benchmarks on `jobs` workers — each benchmark is
/// profiled exactly once — emitting a per-benchmark heartbeat
/// (`[i/total] name — elapsed, insts/s`) at `info` level. The returned
/// runs are in `benchmarks` order regardless of the worker count (the
/// heartbeats on stderr may interleave; stdout output never does).
/// When a persistent [`ProfileStore`] is supplied (see [`Cli::store`]),
/// each benchmark warm-starts from a cached profile when one exists and
/// persists its fresh profile otherwise.
///
/// # Panics
/// Panics if a benchmark fails to build or run — they are fixed program
/// text, covered by the suite's tests.
#[must_use]
pub fn run_benchmarks(
    benchmarks: &[Benchmark],
    scale: Scale,
    jobs: Jobs,
    store: Option<&ProfileStore>,
    engine: lp_interp::Engine,
) -> Vec<SuiteRun> {
    let total = benchmarks.len();
    let reg = lp_obs::registry();
    lp_runtime::parallel_map(benchmarks, jobs, |i, b| {
        lp_debug!("profiling {} ({}/{})", b.name, i + 1, total);
        let t0 = reg.now_ns();
        let module = b.build(scale);
        let config = lp_interp::MachineConfig {
            engine,
            ..lp_interp::MachineConfig::default()
        };
        let study = Study::with_store(&module, config, store)
            .unwrap_or_else(|e| panic!("benchmark {} failed: {e}", b.name));
        let secs = reg.now_ns().saturating_sub(t0) as f64 / 1e9;
        lp_info!(
            "[{}/{}] profiled {:<18} {:>6.2}s  {:>6.1}M insts/s",
            i + 1,
            total,
            b.name,
            secs,
            study.run_result().cost as f64 / 1e6 / secs.max(1e-9)
        );
        SuiteRun {
            name: b.name,
            suite: b.suite,
            study,
        }
    })
}

/// Profiles every benchmark of the given suites on `jobs` workers.
#[must_use]
pub fn run_suites(
    ids: &[SuiteId],
    scale: Scale,
    jobs: Jobs,
    store: Option<&ProfileStore>,
    engine: lp_interp::Engine,
) -> Vec<SuiteRun> {
    let benchmarks: Vec<Benchmark> = lp_suite::registry()
        .into_iter()
        .filter(|b| ids.contains(&b.suite))
        .collect();
    run_benchmarks(&benchmarks, scale, jobs, store, engine)
}

/// A precomputed `(run × row)` table of evaluation reports, built by one
/// parallel sweep over every `(benchmark, model, config)` point.
///
/// Building the whole table up front through [`lp_runtime::sweep_points`],
/// rather than evaluating each cell while rendering, lets all cells fan
/// out over `--jobs` workers against the shared profiles, and the
/// deterministic merge keeps every lookup — and therefore every
/// rendered figure — identical for any worker count.
#[derive(Debug)]
pub struct SweepTable {
    rows: Vec<(ExecModel, Config)>,
    /// `reports[run * rows.len() + row]`, in stable `(run, row)` order.
    reports: Vec<EvalReport>,
}

impl SweepTable {
    /// Evaluates every `(run, row)` cell on `jobs` workers.
    #[must_use]
    pub fn build(runs: &[SuiteRun], rows: &[(ExecModel, Config)], jobs: Jobs) -> SweepTable {
        let units: Vec<SweepUnit> = runs.iter().map(|r| r.study.sweep_unit()).collect();
        let points: Vec<SweepPoint> = (0..units.len())
            .flat_map(|unit| {
                rows.iter().map(move |&(model, config)| SweepPoint {
                    unit,
                    model,
                    config,
                })
            })
            .collect();
        let reports = lp_runtime::sweep_points(&units, &points, jobs, EvalOptions::default());
        SweepTable {
            rows: rows.to_vec(),
            reports,
        }
    }

    /// The evaluated rows, in table order.
    #[must_use]
    pub fn rows(&self) -> &[(ExecModel, Config)] {
        &self.rows
    }

    /// The report for one `(run, row)` cell.
    ///
    /// # Panics
    /// Panics if either index is out of bounds for the built table.
    #[must_use]
    pub fn report(&self, run: usize, row: usize) -> &EvalReport {
        assert!(row < self.rows.len(), "row {row} out of bounds");
        &self.reports[run * self.rows.len() + row]
    }

    /// Geometric-mean speedup over the runs of one suite for one row.
    #[must_use]
    pub fn geomean_speedup(&self, runs: &[SuiteRun], suite: SuiteId, row: usize) -> f64 {
        let values: Vec<f64> = runs
            .iter()
            .enumerate()
            .filter(|(_, r)| r.suite == suite)
            .map(|(i, _)| self.report(i, row).speedup)
            .collect();
        lp_runtime::geomean(&values)
    }

    /// Geometric-mean coverage over the runs of one suite for one row.
    #[must_use]
    pub fn geomean_coverage(&self, runs: &[SuiteRun], suite: SuiteId, row: usize) -> f64 {
        let values: Vec<f64> = runs
            .iter()
            .enumerate()
            .filter(|(_, r)| r.suite == suite)
            .map(|(i, _)| self.report(i, row).coverage.max(0.01))
            .collect();
        lp_runtime::geomean(&values)
    }
}

/// Renders a log-scale ASCII bar for a speedup figure (the figures in the
/// paper use a logarithmic axis).
#[must_use]
pub fn log_bar(value: f64, max: f64, width: usize) -> String {
    let v = value.max(1.0).ln();
    let m = max.max(1.0 + 1e-9).ln();
    let filled = ((v / m) * width as f64).round() as usize;
    let mut bar = "#".repeat(filled.min(width));
    if bar.is_empty() && value > 1.0 {
        bar.push('#');
    }
    bar
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn cli_parses_flags_scale_and_rest() {
        let cli = Cli::parse_from(
            [
                "--quiet",
                "small",
                "--trace-out",
                "/tmp/t.json",
                "--explain-out",
                "/tmp/e.json",
                "--jobs",
                "3",
                "--profile-cache",
                "/tmp/lp-cache",
                "--snapshot-out",
                "/tmp/s.json",
                "--sample-hz",
                "997",
                "--engine",
                "tree",
                "--bench",
                "x.lp",
            ]
            .map(String::from),
        );
        assert!(cli.quiet);
        assert_eq!(cli.scale, Scale::Small);
        assert_eq!(cli.engine, lp_interp::Engine::Tree);
        assert_eq!(cli.machine_config().engine, lp_interp::Engine::Tree);
        assert_eq!(cli.jobs, Some(3));
        assert_eq!(cli.jobs().get(), 3);
        assert_eq!(
            cli.profile_cache.as_deref(),
            Some(std::path::Path::new("/tmp/lp-cache"))
        );
        assert_eq!(
            cli.trace_out.as_deref(),
            Some(std::path::Path::new("/tmp/t.json"))
        );
        assert_eq!(
            cli.explain_out.as_deref(),
            Some(std::path::Path::new("/tmp/e.json"))
        );
        assert_eq!(
            cli.snapshot_out.as_deref(),
            Some(std::path::Path::new("/tmp/s.json"))
        );
        assert_eq!(cli.sample_hz, Some(997));
        assert_eq!(cli.rest, vec!["--bench".to_string(), "x.lp".to_string()]);

        // With no flag (and no LP_ENGINE in the test environment) the
        // default engine is now the bytecode fast path.
        let cli = Cli::parse_from(std::iter::empty());
        assert_eq!(cli.scale, Scale::Default);
        assert_eq!(cli.engine, lp_interp::Engine::Bc);
        assert!(!cli.quiet && cli.trace_out.is_none() && cli.rest.is_empty());
        assert!(cli.explain_out.is_none());
        assert!(cli.jobs.is_none());
        assert!(cli.jobs().get() >= 1);
        assert!(cli.profile_cache.is_none());
        assert!(cli.flight_out.is_none() && cli.sample_hz.is_none());
        assert!(cli.snapshot_out.is_none());
        // Restore logging for the rest of the test process.
        lp_obs::log::set_level(lp_obs::Level::Off);
    }

    #[test]
    fn flag_specs_cover_every_subcommand_once() {
        let mut seen = std::collections::HashSet::new();
        for spec in FLAG_SPECS {
            assert!(
                seen.insert(spec.command),
                "duplicate row {:?}",
                spec.command
            );
        }
        assert_eq!(FLAG_SPECS.len(), 18);
        let with = |pick: fn(&FlagSpec) -> bool| -> Vec<&str> {
            FLAG_SPECS
                .iter()
                .filter(|s| pick(s))
                .map(|s| s.command)
                .collect()
        };
        assert_eq!(
            with(|s| s.explain_out),
            ["lpstudy", "explain", "fig4", "fig5"]
        );
        assert_eq!(with(|s| s.sample_hz), ["dispatch-heat"]);
        assert_eq!(FlagSpec::of("fig2").unwrap().invocation(), "lpstudy fig2");
        assert_eq!(FlagSpec::of("lpstudy").unwrap().invocation(), "lpstudy");
        assert!(FlagSpec::of("nonesuch").is_none());
    }

    #[test]
    fn enforce_resolves_the_subcommand_and_its_arguments() {
        let enforce = |args: &[&str]| {
            let cli = Cli::parse_from(args.iter().map(|a| a.to_string()));
            let (spec, rest) = cli.enforce();
            (spec.command, rest.to_vec())
        };
        assert_eq!(enforce(&["fig2", "test"]), ("fig2", vec![]));
        assert_eq!(
            enforce(&["sweep", "--suite", "eembc"]),
            ("sweep", vec!["--suite".to_string(), "eembc".to_string()])
        );
        // Study modes keep every leftover: `--bench` is not `bench`.
        assert_eq!(
            enforce(&["--bench", "x"]),
            ("lpstudy", vec!["--bench".to_string(), "x".to_string()])
        );
        assert_eq!(enforce(&["k.lp"]), ("lpstudy", vec!["k.lp".to_string()]));
        assert_eq!(enforce(&[]), ("lpstudy", vec![]));
        assert_eq!(
            enforce(&["dispatch-heat", "--sample-hz", "5"]),
            ("dispatch-heat", vec![])
        );
        lp_obs::log::set_level(lp_obs::Level::Off);
    }

    #[test]
    fn store_is_off_unless_requested() {
        // Neither the flag nor LP_PROFILE_CACHE (the test harness does
        // not set it): no store, no filesystem side effects.
        let cli = Cli::parse_from(std::iter::empty());
        lp_obs::log::set_level(lp_obs::Level::Off);
        if std::env::var("LP_PROFILE_CACHE").is_err() {
            assert!(cli.store().is_none());
        }
        // With the flag: a read-write store rooted at the given path.
        let dir = std::env::temp_dir().join(format!("lp-bench-store-{}", std::process::id()));
        let cli = Cli::parse_from(["--profile-cache".to_string(), dir.display().to_string()]);
        lp_obs::log::set_level(lp_obs::Level::Off);
        if std::env::var("LP_PROFILE_CACHE").is_err() {
            let store = cli.store().expect("flag enables the store");
            assert_eq!(store.mode(), StoreMode::ReadWrite);
            assert_eq!(store.dir(), dir.as_path());
            assert!(dir.is_dir(), "rw open creates the directory");
            let _ = std::fs::remove_dir_all(&dir);
        }
    }

    #[test]
    fn log_bar_is_monotone() {
        let short = log_bar(2.0, 100.0, 40).len();
        let long = log_bar(50.0, 100.0, 40).len();
        assert!(long > short);
        assert!(log_bar(1.0, 100.0, 40).is_empty());
        assert_eq!(log_bar(100.0, 100.0, 40).len(), 40);
    }

    #[test]
    fn write_explain_emits_valid_json_and_collapsed_stacks() {
        let bench = lp_suite::find("181.mcf").unwrap();
        let module = bench.build(Scale::Test);
        let study = Study::of(&module).unwrap();
        let (model, config) = lp_runtime::best_helix();
        let (_, attr) = study.explain(model, config);
        let path =
            std::env::temp_dir().join(format!("lp-bench-explain-{}.json", std::process::id()));
        write_explain(&path, std::slice::from_ref(&attr), Some(study.profile()));
        let json = std::fs::read_to_string(&path).unwrap();
        lp_obs::validate_json(&json).expect("explain JSON must be well-formed");
        assert!(json.contains("\"attributions\":["));
        let collapsed = std::fs::read_to_string(path.with_extension("collapsed")).unwrap();
        assert!(!collapsed.is_empty());
        for line in collapsed.lines() {
            let (_, weight) = line.rsplit_once(' ').expect("frames <space> weight");
            weight.parse::<u64>().expect("integer weight");
        }
        let _ = std::fs::remove_file(&path);
        let _ = std::fs::remove_file(path.with_extension("collapsed"));
    }

    #[test]
    fn harness_runs_one_suite() {
        let runs = run_suites(
            &[SuiteId::Eembc],
            Scale::Test,
            Jobs::serial(),
            None,
            lp_interp::Engine::Bc,
        );
        assert_eq!(runs.len(), 10);
        let table = SweepTable::build(&runs, &[lp_runtime::best_pdoall()], Jobs::serial());
        assert!(table.geomean_speedup(&runs, SuiteId::Eembc, 0) >= 1.0);
    }

    #[test]
    fn sweep_table_matches_pointwise_evaluation_at_any_job_count() {
        let benchmarks: Vec<Benchmark> = ["eembc.matrix01", "eembc.rspeed01"]
            .iter()
            .map(|n| lp_suite::find(n).unwrap())
            .collect();
        let runs = run_benchmarks(
            &benchmarks,
            Scale::Test,
            Jobs::new(2),
            None,
            lp_interp::Engine::default(),
        );
        // Parallel profiling preserves input order.
        assert_eq!(runs[0].name, "eembc.matrix01");
        assert_eq!(runs[1].name, "eembc.rspeed01");
        let rows = lp_runtime::table2_rows();
        let serial = SweepTable::build(&runs, &rows, Jobs::serial());
        let parallel = SweepTable::build(&runs, &rows, Jobs::new(8));
        for (i, run) in runs.iter().enumerate() {
            for (j, &(model, config)) in rows.iter().enumerate() {
                let reference = run.study.evaluate(model, config);
                assert_eq!(
                    format!("{reference:?}"),
                    format!("{:?}", serial.report(i, j)),
                    "{} row {j} (serial)",
                    run.name
                );
                assert_eq!(
                    format!("{:?}", serial.report(i, j)),
                    format!("{:?}", parallel.report(i, j)),
                    "{} row {j} (jobs=8)",
                    run.name
                );
            }
            let gm = serial.geomean_speedup(&runs, SuiteId::Eembc, 0);
            assert!(gm >= 1.0);
            assert!(serial.geomean_coverage(&runs, SuiteId::Eembc, 0) >= 0.0);
        }
        assert_eq!(serial.rows().len(), rows.len());
    }
}
