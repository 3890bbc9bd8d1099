//! Criterion performance benches for the framework itself — the paper's
//! claim that compile-time filtering keeps run-time tracking overheads
//! low enough "to scale to large applications" (§III-A), measured on this
//! implementation:
//!
//! - raw interpretation throughput (no instrumentation sink),
//! - full profiling throughput (conflict tracking + predictors),
//! - evaluator cost per `(model, config)` row,
//! - predictor-bank throughput,
//! - conflict tracking with and without the cactus-stack filter.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion, Throughput};
use lp_analysis::analyze_module;
use lp_interp::{Engine, Exec, ExecUnit, MachineConfig};
use lp_predict::HybridPredictor;
use lp_runtime::{evaluate, profile_module_with, table2_rows, Profiler, ProfilerOptions};
use lp_suite::Scale;

fn bench_interpreter(c: &mut Criterion) {
    let mut group = c.benchmark_group("interpreter");
    for name in ["181.mcf", "171.swim", "eembc.matrix01"] {
        let module = lp_suite::find(name).unwrap().build(Scale::Test);
        let cost = {
            let unit = ExecUnit::new(&module);
            Exec::new(&unit).run(&[]).unwrap().result.cost
        };
        group.throughput(Throughput::Elements(cost));
        for engine in [Engine::Tree, Engine::Bc] {
            // Compile once outside the timed loop, as every real caller does.
            let unit = ExecUnit::with_engine(&module, engine);
            group.bench_with_input(BenchmarkId::new(engine.name(), name), &unit, |b, unit| {
                b.iter(|| Exec::new(unit).run(&[]).unwrap().result.cost);
            });
        }
    }
    group.finish();
}

fn bench_profiler(c: &mut Criterion) {
    let mut group = c.benchmark_group("profiler");
    for name in ["181.mcf", "171.swim"] {
        let module = lp_suite::find(name).unwrap().build(Scale::Test);
        let analysis = analyze_module(&module);
        let cost = {
            let unit = ExecUnit::new(&module);
            Exec::new(&unit).run(&[]).unwrap().result.cost
        };
        group.throughput(Throughput::Elements(cost));
        // Engine × filter: both engines deliver per-instruction
        // callbacks (statically inlined) — the two profiled hot paths.
        for engine in [Engine::Tree, Engine::Bc] {
            for cactus in [true, false] {
                let filter = if cactus { "cactus" } else { "flat-stack" };
                let label = format!("{}-{filter}", engine.name());
                group.bench_with_input(
                    BenchmarkId::new(label, name),
                    &(&module, &analysis),
                    |b, (m, a)| {
                        b.iter(|| {
                            profile_module_with(
                                m,
                                a,
                                &[],
                                MachineConfig {
                                    engine,
                                    ..MachineConfig::default()
                                },
                                ProfilerOptions {
                                    cactus_stack: cactus,
                                },
                            )
                            .unwrap()
                            .0
                            .total_cost
                        });
                    },
                );
            }
        }
    }
    group.finish();
}

fn bench_evaluator(c: &mut Criterion) {
    let module = lp_suite::find("456.hmmer").unwrap().build(Scale::Test);
    let analysis = analyze_module(&module);
    let (profile, _) = profile_module_with(
        &module,
        &analysis,
        &[],
        MachineConfig::default(),
        ProfilerOptions::default(),
    )
    .unwrap();
    let mut group = c.benchmark_group("evaluator");
    group.bench_function("all_14_table2_rows", |b| {
        b.iter(|| {
            table2_rows()
                .into_iter()
                .map(|(m, cfg)| evaluate(&profile, m, cfg).speedup)
                .sum::<f64>()
        });
    });
    group.finish();
}

fn bench_predictors(c: &mut Criterion) {
    let stream: Vec<u64> = (0..8192u64)
        .scan(0u64, |x, i| {
            *x += if i % 64 == 0 { 17 } else { 3 };
            Some(*x)
        })
        .collect();
    let mut group = c.benchmark_group("predictors");
    group.throughput(Throughput::Elements(stream.len() as u64));
    group.bench_function("hybrid_observe", |b| {
        b.iter(|| {
            let mut h = HybridPredictor::new();
            let mut hits = 0u64;
            for &v in &stream {
                hits += u64::from(h.observe(v));
            }
            hits
        });
    });
    group.finish();
}

/// The DESIGN.md overhead budget: `profile_module` (span + `MeteredSink`
/// + counter flush) vs an undecorated `Machine` + `Profiler` run.
fn bench_obs_overhead(c: &mut Criterion) {
    let mut group = c.benchmark_group("observability");
    for name in ["181.mcf", "eembc.matrix01"] {
        let module = lp_suite::find(name).unwrap().build(Scale::Test);
        let analysis = analyze_module(&module);
        group.bench_with_input(
            BenchmarkId::new("bare_profiler", name),
            &(&module, &analysis),
            |b, (m, a)| {
                b.iter(|| {
                    let mut profiler = Profiler::new(m, a);
                    let config = MachineConfig {
                        watched_values: profiler.watched_values(),
                        ..MachineConfig::default()
                    };
                    let unit = ExecUnit::new(m);
                    Exec::new(&unit)
                        .sink(&mut profiler)
                        .config(config)
                        .run(&[])
                        .unwrap();
                    profiler.finish().total_cost
                });
            },
        );
        group.bench_with_input(
            BenchmarkId::new("metered_pipeline", name),
            &(&module, &analysis),
            |b, (m, a)| {
                b.iter(|| {
                    profile_module_with(
                        m,
                        a,
                        &[],
                        MachineConfig::default(),
                        ProfilerOptions::default(),
                    )
                    .unwrap()
                    .0
                    .total_cost
                });
            },
        );
    }
    group.finish();
}

fn bench_analysis(c: &mut Criterion) {
    let module = lp_suite::find("403.gcc").unwrap().build(Scale::Test);
    let mut group = c.benchmark_group("compile_time");
    group.bench_function("analyze_module", |b| {
        b.iter(|| analyze_module(&module).functions.len());
    });
    group.finish();
}

criterion_group!(
    benches,
    bench_interpreter,
    bench_profiler,
    bench_evaluator,
    bench_predictors,
    bench_obs_overhead,
    bench_analysis
);
criterion_main!(benches);
