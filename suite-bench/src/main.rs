//! suite-bench — the repository's whole-suite benchmark.
//!
//! ```text
//! cargo run --release --offline --quiet --manifest-path suite-bench/Cargo.toml -- \
//!     --workload suite-cold|suite-warm|replay --seed N --seconds N --trace 0|1
//! ```
//!
//! Run it from the repository root: it reads `results/sweep.csv` and
//! keeps its store, span file and count ledger under `.bench_out/`.
//! `--trace 0` prints the end-to-end metrics, `--trace 1` the per-layer
//! ones; the last line of standard output is one JSON object. A human
//! readable table with sample counts goes to standard error. The exit
//! code is 1 when any output check fails. `suite-bench/README.md` says
//! why each workload was chosen and what each metric should move.

mod calib;
mod check;
mod clock;
mod stats;
mod trace;
mod workload;

use check::Counts;
use lp_obs::{Counter, JsonWriter};
use lp_runtime::Jobs;
use stats::{median, pass_order, percentile};
use std::path::Path;
use std::time::{Duration, Instant};
use trace::Tracer;
use workload::{Sample, Suite, Workload};

const USAGE: &str =
    "usage: suite-bench --workload suite-cold|suite-warm|replay --seed N --seconds N --trace 0|1";

/// Set-ups per run; `setup_s` is their median.
const SETUP_REPS: usize = 9;

/// Measured passes a run makes at least, whatever `--seconds` says.
const MIN_PASSES: usize = 3;

/// Where runs keep their store, span file and count ledger.
const OUT_DIR: &str = ".bench_out";

struct Args {
    workload: Workload,
    seed: u64,
    seconds: u64,
    trace: bool,
}

fn parse_args(mut args: impl Iterator<Item = String>) -> Result<Args, String> {
    let (mut workload, mut seed, mut seconds, mut trace) = (None, None, None, None);
    while let Some(flag) = args.next() {
        let value = args.next().ok_or_else(|| format!("{flag} needs a value"))?;
        let number = || {
            value
                .parse::<u64>()
                .map_err(|_| format!("bad {flag} {value:?}"))
        };
        match flag.as_str() {
            "--workload" => {
                let w = Workload::ALL.into_iter().find(|w| w.name() == value);
                workload = Some(w.ok_or_else(|| format!("unknown workload {value:?}"))?);
            }
            "--seed" => seed = Some(number()?),
            "--seconds" => seconds = Some(number()?.max(1)),
            "--trace" => match value.as_str() {
                "0" => trace = Some(false),
                "1" => trace = Some(true),
                _ => return Err(format!("bad --trace {value:?}")),
            },
            _ => return Err(format!("unknown argument {flag:?}")),
        }
    }
    Ok(Args {
        workload: workload.ok_or("--workload is required")?,
        seed: seed.unwrap_or(1),
        seconds: seconds.unwrap_or(10),
        trace: trace.unwrap_or(false),
    })
}

/// One metric of the result, with the number of samples behind it.
struct Metric {
    name: &'static str,
    value: f64,
    unit: &'static str,
    samples: usize,
}

fn metric(name: &'static str, value: f64, unit: &'static str, samples: usize) -> Metric {
    Metric {
        name,
        value,
        unit,
        samples,
    }
}

/// `a / b`, or 0 when nothing was measured.
fn ratio(a: f64, b: f64) -> f64 {
    if b == 0.0 {
        0.0
    } else {
        a / b
    }
}

/// One pass over every program.
struct Pass {
    samples: Vec<Sample>,
    counts: Counts,
    failures: Vec<String>,
    /// Reference-kernel time before each op.
    calib_ns: Vec<f64>,
}

impl Pass {
    /// How much faster than nominal the host ran during this pass; a
    /// pass's times are multiplied by it (see `calib`).
    fn speed(&self) -> f64 {
        ratio(calib::NOMINAL_NS, median(&self.calib_ns))
    }

    fn wall_ns(&self) -> f64 {
        self.samples.iter().map(|s| s.wall_ns as f64).sum()
    }

    fn cpu_ns(&self) -> f64 {
        self.samples.iter().map(|s| s.cpu_ns as f64).sum()
    }
}

fn run_pass(suite: &mut Suite, order: &[usize], mut tracer: Option<&mut Tracer>) -> Pass {
    let mut pass = Pass {
        samples: Vec::with_capacity(order.len()),
        counts: Counts::default(),
        failures: Vec::new(),
        calib_ns: Vec::with_capacity(order.len()),
    };
    if let Err(e) = suite.begin_pass() {
        pass.failures.push(e);
        return pass;
    }
    for &i in order {
        pass.calib_ns.push(calib::sample());
        let before = Counts::now();
        let result = match tracer.as_deref_mut() {
            Some(tr) => suite.traced_op(i, tr),
            None => suite.op(i),
        };
        let delta = Counts::now().since(&before);
        pass.counts.add(&delta);
        match result.and_then(|s| suite.check_op_counts(i, &delta).map(|()| s)) {
            Ok(sample) => pass.samples.push(sample),
            Err(e) => pass.failures.push(e),
        }
    }
    pass
}

/// Checks that every pass of one kind made the same counts, and that
/// earlier runs of this binary made them too.
fn check_repeats(suite: &Suite, kind: &str, passes: &[&Pass]) -> Result<(), String> {
    let first = passes
        .first()
        .expect("a run makes passes")
        .counts
        .deterministic();
    if let Some(p) = passes
        .iter()
        .position(|p| p.counts.deterministic() != first)
    {
        return Err(format!("{kind} pass {p} counts differ from pass 0"));
    }
    let label = format!("{}-{kind}", suite.workload.name());
    check::against_ledger(Path::new(OUT_DIR), &label, &passes[0].counts)
}

struct Outcome {
    attempted: u64,
    notes: Vec<String>,
    failures: Vec<String>,
    metrics: Vec<Metric>,
}

fn run(args: &Args) -> Result<Outcome, String> {
    let out_dir = Path::new(OUT_DIR);
    std::fs::create_dir_all(out_dir)
        .map_err(|e| format!("cannot create {}: {e}", out_dir.display()))?;
    let jobs = Jobs::new(
        std::thread::available_parallelism()
            .map(usize::from)
            .unwrap_or(1),
    );
    let mut setup_s = Vec::with_capacity(SETUP_REPS);
    let mut suite = None;
    for _ in 0..SETUP_REPS {
        drop(suite.take());
        let before = calib::sample();
        let t0 = Instant::now();
        suite = Some(Suite::setup(args.workload, out_dir, jobs)?);
        let secs = t0.elapsed().as_secs_f64();
        let speed = ratio(calib::NOMINAL_NS, (before + calib::sample()) / 2.0);
        setup_s.push(secs * speed);
    }
    let mut suite = suite.expect("set up at least once");
    let programs = suite.programs();

    let mut notes = Vec::new();
    let mut failures = suite.oracle();
    let mut attempted = programs as u64;
    let warmup = run_pass(&mut suite, &pass_order(programs, args.seed, 0), None);
    // Peak memory of set-up, the oracle check and one whole pass: later
    // passes repeat the same work, and reading it here keeps it
    // independent of how many passes the run fits in.
    let peak_rss_mb = clock::peak_rss_kib()? as f64 / 1024.0;
    if args.trace && args.workload == Workload::SuiteCold {
        suite.prepare_ladders()?;
    }

    let mut tracer = Tracer::new();
    let (mut plain, mut traced) = (Vec::new(), Vec::new());
    let budget = Duration::from_secs(args.seconds);
    let t0 = Instant::now();
    while plain.len() < MIN_PASSES || t0.elapsed() < budget {
        let pass = plain.len() as u64 + 1;
        let order = pass_order(programs, args.seed, pass);
        // The traced run alternates which kind of pass goes first, so
        // drift over the run hits both alike.
        if args.trace && pass.is_multiple_of(2) {
            traced.push(run_pass(&mut suite, &order, Some(&mut tracer)));
        }
        plain.push(run_pass(&mut suite, &order, None));
        if args.trace && !pass.is_multiple_of(2) {
            traced.push(run_pass(&mut suite, &order, Some(&mut tracer)));
        }
    }

    let plain_refs: Vec<&Pass> = std::iter::once(&warmup).chain(&plain).collect();
    let mut groups = vec![("untraced", plain_refs)];
    if args.trace {
        groups.push(("traced", traced.iter().collect()));
    }
    for (kind, passes) in &groups {
        for pass in passes {
            attempted += programs as u64;
            failures.extend(pass.failures.iter().cloned());
        }
        attempted += 1;
        if let Err(e) = check_repeats(&suite, kind, passes) {
            failures.push(e);
        }
    }

    let metrics = if args.trace {
        tracer.write(&out_dir.join(format!("spans-{}.json", args.workload.name())))?;
        per_layer(&suite, &tracer, &plain, &traced)
    } else {
        end_to_end(&plain, &setup_s, peak_rss_mb, &mut notes)
    };
    Ok(Outcome {
        attempted,
        notes,
        failures,
        metrics,
    })
}

/// The end-to-end figures, every time scaled by its pass's speed.
fn end_to_end(
    passes: &[Pass],
    setup_s: &[f64],
    peak_rss_mb: f64,
    notes: &mut Vec<String>,
) -> Vec<Metric> {
    let ops: Vec<f64> = passes
        .iter()
        .flat_map(|p| p.samples.iter().map(|s| s.wall_ns as f64 * p.speed() / 1e6))
        .collect();
    let per_pass = |f: &dyn Fn(&Pass) -> f64| median(&passes.iter().map(f).collect::<Vec<_>>());
    let throughput = |p: &Pass| ratio(p.samples.len() as f64, p.wall_ns() / 1e9);
    let cpu_ms = |p: &Pass| ratio(p.cpu_ns() / 1e6, p.samples.len() as f64);
    notes.push(format!(
        "host speed {:.3} of nominal (median over passes); unscaled programs_per_s {:.4}, \
         cpu_ms_per_program {:.4}",
        per_pass(&Pass::speed),
        per_pass(&throughput),
        per_pass(&cpu_ms)
    ));
    vec![
        metric(
            "programs_per_s",
            per_pass(&|p| throughput(p) / p.speed()),
            "1/s",
            passes.len(),
        ),
        metric("op_ms_p50", percentile(&ops, 50.0), "ms", ops.len()),
        metric("op_ms_p90", percentile(&ops, 90.0), "ms", ops.len()),
        metric(
            "cpu_ms_per_program",
            per_pass(&|p| cpu_ms(p) * p.speed()),
            "ms",
            passes.len(),
        ),
        metric("peak_rss_mb", peak_rss_mb, "MB", 1),
        metric("setup_s", median(setup_s), "s", setup_s.len()),
    ]
}

fn per_layer(suite: &Suite, tracer: &Tracer, plain: &[Pass], traced: &[Pass]) -> Vec<Metric> {
    let totals = tracer.totals();
    let wall = |name: &str| totals.get(name).map_or(0.0, |t| t.wall_ns as f64);
    let n = traced.len();
    let passes = n as f64;
    let ops = passes * suite.programs() as f64;
    let per_program_us = |name: &str| ratio(wall(name), ops) / 1e3;
    // Counts are per pass; the repeat check holds them equal across
    // passes, so the first pass stands for all.
    let counts = &traced[0].counts;
    let count = |c: Counter| counts.get(c) as f64;
    let tally = &suite.tally;
    let events = count(Counter::EventsConsumed);
    let mem_ops = count(Counter::Loads) + count(Counter::Stores);
    let tracker_ns =
        wall("profile") - wall("interp.compile") - wall("interp.observe") - wall("predict");
    let (put_ns, get_ns) = match suite.workload {
        Workload::SuiteCold => (wall("store.put"), 0.0),
        Workload::SuiteWarm => (0.0, wall("store.get")),
        Workload::Replay => (0.0, 0.0),
    };
    let store_bytes = tally.store_bytes as f64;
    let hits = |h: Counter, m: Counter| ratio(count(h), count(h) + count(m));
    let overheads: Vec<f64> = traced
        .iter()
        .zip(plain)
        .map(|(t, p)| ratio(t.wall_ns() * t.speed(), p.wall_ns() * p.speed()) - 1.0)
        .collect();
    vec![
        metric(
            "suite.build_us_per_program",
            per_program_us("suite.build"),
            "us",
            n,
        ),
        metric(
            "ir.verify_us_per_program",
            per_program_us("ir.verify"),
            "us",
            n,
        ),
        metric(
            "analysis.analyze_us_per_program",
            per_program_us("analysis.analyze"),
            "us",
            n,
        ),
        metric(
            "interp.compile_us_per_program",
            per_program_us("interp.compile"),
            "us",
            n,
        ),
        metric(
            "interp.inert_ns_per_inst",
            ratio(wall("interp.inert"), tally.insts as f64),
            "ns",
            n,
        ),
        metric(
            "interp.emit_ns_per_event",
            ratio(
                wall("interp.observe") - wall("interp.inert"),
                events * passes,
            ),
            "ns",
            n,
        ),
        metric("interp.insts", tally.insts as f64 / passes, "count", n),
        metric("interp.events", events, "count", n),
        metric(
            "tracker.ns_per_mem_op",
            ratio(tracker_ns, mem_ops * passes),
            "ns",
            n,
        ),
        metric(
            "tracker.raw_conflicts",
            count(Counter::RawConflicts),
            "count",
            n,
        ),
        metric(
            "tracker.shadow_cache_hit_ratio",
            hits(Counter::ShadowPageCacheHits, Counter::ShadowPageCacheMisses),
            "ratio",
            n,
        ),
        metric(
            "tracker.mem_cache_hit_ratio",
            hits(Counter::MemPageCacheHits, Counter::MemPageCacheMisses),
            "ratio",
            n,
        ),
        metric(
            "predict.ns_per_obs",
            ratio(wall("predict"), tally.predict_obs as f64),
            "ns",
            n,
        ),
        metric(
            "predict.observations",
            tally.predict_obs as f64 / passes,
            "count",
            n,
        ),
        metric(
            "predict.hybrid_hit_ratio",
            ratio(tally.predict_hits as f64, tally.predict_obs as f64),
            "ratio",
            n,
        ),
        metric(
            "predict.fcm_hit_ratio",
            ratio(tally.fcm_hits as f64, tally.predict_obs as f64),
            "ratio",
            n,
        ),
        metric(
            "eval.us_per_point",
            ratio(wall("eval"), tally.points as f64) / 1e3,
            "us",
            n,
        ),
        metric("eval.points", tally.points as f64 / passes, "count", n),
        metric(
            "eval.explain_us_per_program",
            ratio(wall("eval.explain"), tally.explains as f64) / 1e3,
            "us",
            n,
        ),
        metric("store.put_ns_per_byte", ratio(put_ns, store_bytes), "ns", n),
        metric("store.get_ns_per_byte", ratio(get_ns, store_bytes), "ns", n),
        metric("store.bytes", store_bytes / passes, "bytes", n),
        metric(
            "store.hit_ratio",
            hits(Counter::StoreHits, Counter::StoreMisses),
            "ratio",
            n,
        ),
        metric(
            "analysis.certify_us_per_program",
            per_program_us("analysis.certify"),
            "us",
            n,
        ),
        metric(
            "replay.ms_per_program",
            ratio(wall("replay"), ops) / 1e6,
            "ms",
            n,
        ),
        metric(
            "replay.cpu_per_wall",
            ratio(tally.replay_cpu_ns as f64, wall("replay")),
            "ratio",
            n,
        ),
        metric(
            "replay.loops_replayed",
            count(Counter::ReplayLoopsCertified),
            "count",
            n,
        ),
        metric(
            "replay.witness_rejected",
            count(Counter::ReplayWitnessRejected),
            "count",
            n,
        ),
        metric(
            "replay.divergences",
            count(Counter::ReplayDivergences),
            "count",
            n,
        ),
        metric("obs.tracing_overhead", median(&overheads), "ratio", n),
    ]
}

fn report(args: &Args, outcome: &Outcome) -> String {
    let failed = outcome.failures.len() as u64;
    eprintln!(
        "suite-bench {} seed {} ({}):",
        args.workload.name(),
        args.seed,
        if args.trace { "traced" } else { "untraced" }
    );
    for m in &outcome.metrics {
        eprintln!(
            "  {:<34} {:>16.4} {:<6} n={}",
            m.name, m.value, m.unit, m.samples
        );
    }
    eprintln!(
        "  {:<34} {:>16.4} {:<6} n={}",
        "fail_ratio",
        ratio(failed as f64, outcome.attempted as f64),
        "ratio",
        outcome.attempted
    );
    for note in &outcome.notes {
        eprintln!("  {note}");
    }
    for f in outcome.failures.iter().take(20) {
        eprintln!("  FAILED: {f}");
    }
    let mut w = JsonWriter::compact();
    w.begin_object();
    w.key("correct");
    w.boolean(failed == 0);
    w.key("attempted");
    w.uint(outcome.attempted);
    w.key("failed");
    w.uint(failed);
    w.key("metrics");
    w.begin_object();
    for m in &outcome.metrics {
        w.key(m.name);
        w.begin_object();
        w.key("value");
        w.float(m.value);
        w.key("unit");
        w.string(m.unit);
        w.end_object();
    }
    w.end_object();
    w.end_object();
    w.finish()
}

fn main() {
    lp_obs::log::init(true);
    let args = parse_args(std::env::args().skip(1)).unwrap_or_else(|e| {
        eprintln!("suite-bench: {e}\n{USAGE}");
        std::process::exit(2);
    });
    match run(&args) {
        Ok(outcome) => {
            println!("{}", report(&args, &outcome));
            std::process::exit(if outcome.failures.is_empty() { 0 } else { 1 });
        }
        Err(e) => {
            eprintln!("suite-bench: {e}");
            std::process::exit(1);
        }
    }
}
