//! The three workloads over the full registry at `Scale::Default`.
//!
//! Each has an untraced op, which calls the user-facing facades
//! (`Study`, `replay_module`), and a traced op, which does the same work
//! by calling each layer's public function from here inside a span. The
//! traced `suite-cold` op is followed by the ladder probes (compile,
//! inert run, observing run, predictor replay) that the per-layer
//! interpreter, tracker and predictor costs are derived from.

use crate::check::{tree_oracle, Counts, Reference};
use crate::clock;
use crate::trace::Tracer;
use loopapalooza::Study;
use lp_analysis::{analyze_module, certify_module};
use lp_interp::{CountingSink, Engine, EventSink, Exec, ExecUnit, MachineConfig, RunResult, Value};
use lp_ir::{BlockId, FuncId, Module, ValueId};
use lp_obs::{Counter, PredictorKind};
use lp_predict::HybridPredictor;
use lp_runtime::{
    best_helix, encode_entry, evaluate, evaluate_explained, profile_module_with, replay_module,
    table2_rows, BenchReplay, Config, EvalReport, ExecModel, Jobs, ProfileKey, ProfileStore,
    Profiler, ProfilerOptions, StoreMode,
};
use lp_suite::{Benchmark, Scale};
use std::collections::HashMap;
use std::hint::black_box;
use std::path::{Path, PathBuf};
use std::time::Instant;

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Workload {
    /// Build, study through an empty store, evaluate Table II's 14 rows.
    SuiteCold,
    /// Study from a filled store, evaluate the 96-point lattice, explain.
    SuiteWarm,
    /// Certify, witness, replay on threads and byte-compare.
    Replay,
}

impl Workload {
    pub const ALL: [Workload; 3] = [Workload::SuiteCold, Workload::SuiteWarm, Workload::Replay];

    pub fn name(self) -> &'static str {
        match self {
            Workload::SuiteCold => "suite-cold",
            Workload::SuiteWarm => "suite-warm",
            Workload::Replay => "replay",
        }
    }
}

/// Wall and process CPU time of one op.
#[derive(Clone, Copy)]
pub struct Sample {
    pub wall_ns: u64,
    pub cpu_ns: u64,
}

fn measure<R>(f: impl FnOnce() -> R) -> (Sample, R) {
    let cpu0 = clock::process_cpu_ns();
    let t0 = Instant::now();
    let out = f();
    let wall_ns = u64::try_from(t0.elapsed().as_nanos()).expect("op fits in u64 ns");
    let sample = Sample {
        wall_ns,
        cpu_ns: clock::process_cpu_ns() - cpu0,
    };
    (sample, out)
}

/// Work the traced ops did, summed over a run.
#[derive(Default)]
pub struct Tally {
    /// Dynamic IR cost of the program runs the ops interpreted.
    pub insts: u64,
    pub points: u64,
    pub explains: u64,
    pub store_bytes: u64,
    pub predict_obs: u64,
    pub predict_hits: u64,
    pub fcm_hits: u64,
    pub replay_cpu_ns: u64,
}

/// What the traced `suite-cold` ladder needs per program, prepared once
/// per run outside any timed region.
struct Ladder {
    /// The values the profiler asks the machine to report definitions of.
    watched: Vec<(FuncId, ValueId)>,
    /// The value stream of each traced header phi.
    streams: Vec<Vec<u64>>,
}

/// Records the value streams of chosen phis.
struct PhiRecorder {
    slots: HashMap<(FuncId, ValueId), usize>,
    streams: Vec<Vec<u64>>,
}

impl EventSink for PhiRecorder {
    fn phi_resolved(&mut self, func: FuncId, _: BlockId, phi: ValueId, value: Value, _: u64) {
        if let Some(&slot) = self.slots.get(&(func, phi)) {
            self.streams[slot].push(value.fingerprint());
        }
    }
}

/// Feeds each stream through a fresh hybrid predictor, as the profiler
/// keeps one per traced phi. Returns observations, hybrid hits and FCM
/// hits.
fn replay_streams(streams: &[Vec<u64>]) -> (u64, u64, u64) {
    let mut totals = (0, 0, 0);
    for stream in streams {
        let mut predictor = HybridPredictor::new();
        for &v in stream {
            black_box(predictor.observe(black_box(v)));
        }
        let stats = predictor.stats();
        totals.0 += stats.observed;
        totals.1 += stats.correct;
        totals.2 += predictor.component_stats()[3].correct;
    }
    totals
}

/// Records the value stream of every traced header phi (the
/// non-computable ones: the profiler filters the computable ones out)
/// and checks that replaying the streams reproduces the profiler's own
/// predictor tallies.
fn ladder_of(module: &Module) -> Result<Ladder, String> {
    let analysis = analyze_module(module);
    let watched = Profiler::new(module, &analysis).watched_values();
    let before = Counts::now();
    let (profile, _) = lp_runtime::profile_module(module, &analysis, &[], MachineConfig::default())
        .map_err(|e| format!("{}: {e}", module.name))?;
    let profiled = Counts::now().since(&before);
    let mut recorder = PhiRecorder {
        slots: HashMap::new(),
        streams: Vec::new(),
    };
    for meta in &profile.loop_meta {
        for &(phi, _) in &meta.traced_phis {
            recorder
                .slots
                .insert((meta.func, phi), recorder.streams.len());
            recorder.streams.push(Vec::new());
        }
    }
    Exec::new(&ExecUnit::new(module))
        .sink(&mut recorder)
        .run(&[])
        .map_err(|e| format!("{}: {e}", module.name))?;
    let (observed, hits, _) = replay_streams(&recorder.streams);
    let hybrid_hits = profiled.get(Counter::PredictorHit(PredictorKind::Hybrid));
    let hybrid_misses = profiled.get(Counter::PredictorMiss(PredictorKind::Hybrid));
    if (observed, hits) != (hybrid_hits + hybrid_misses, hybrid_hits) {
        return Err(format!(
            "{}: recorded phi streams give {hits}/{observed} predictor hits, the profiler {hybrid_hits}/{}",
            module.name,
            hybrid_hits + hybrid_misses
        ));
    }
    Ok(Ladder {
        watched,
        streams: recorder.streams,
    })
}

fn verify(module: &Module) -> Result<(), String> {
    lp_ir::verify_module(module)
        .and_then(|()| lp_analysis::verify_ssa(module))
        .map_err(|e| format!("{}: {e}", module.name))
}

fn fresh_store(dir: &Path) -> Result<ProfileStore, String> {
    match std::fs::remove_dir_all(dir) {
        Err(e) if e.kind() != std::io::ErrorKind::NotFound => {
            return Err(format!("cannot clear {}: {e}", dir.display()));
        }
        _ => {}
    }
    ProfileStore::open(dir, StoreMode::ReadWrite)
        .map_err(|e| format!("cannot open store {}: {e}", dir.display()))
}

/// A workload's prepared state.
pub struct Suite {
    pub workload: Workload,
    benches: Vec<Benchmark>,
    modules: Vec<Module>,
    store: Option<ProfileStore>,
    store_dir: PathBuf,
    reference: Reference,
    lattice: Vec<(ExecModel, Config)>,
    jobs: Jobs,
    /// Each program's dynamic IR cost, from the oracle check.
    costs: Vec<u64>,
    ladders: Vec<Ladder>,
    /// Loops replayed and rejected per program, as first seen this run.
    replay_counts: Vec<Option<(usize, usize)>>,
    pub tally: Tally,
}

impl Suite {
    /// The set-up a user of the workload's flow pays once: load the
    /// reference, build every module, and for `suite-warm` profile every
    /// program into a fresh store.
    pub fn setup(workload: Workload, out_dir: &Path, jobs: Jobs) -> Result<Suite, String> {
        let reference = Reference::load(Path::new("results/sweep.csv"))?;
        let benches = lp_suite::registry();
        let modules: Vec<Module> = benches.iter().map(|b| b.build(Scale::Default)).collect();
        let store_dir = out_dir.join(format!("store-{}", workload.name()));
        let store = match workload {
            Workload::Replay => None,
            Workload::SuiteCold | Workload::SuiteWarm => Some(fresh_store(&store_dir)?),
        };
        if workload == Workload::SuiteWarm {
            for module in &modules {
                Study::with_store(module, MachineConfig::default(), store.as_ref())
                    .map_err(|e| format!("{}: {e}", module.name))?;
            }
        }
        let lattice = ExecModel::all()
            .into_iter()
            .flat_map(|m| Config::all().into_iter().map(move |c| (m, c)))
            .collect();
        Ok(Suite {
            workload,
            replay_counts: vec![None; benches.len()],
            benches,
            modules,
            store,
            store_dir,
            reference,
            lattice,
            jobs,
            costs: Vec::new(),
            ladders: Vec::new(),
            tally: Tally::default(),
        })
    }

    pub fn programs(&self) -> usize {
        self.benches.len()
    }

    /// Byte-compares every program's profile under `bc` with the
    /// tree-walk oracle. Returns the mismatches.
    pub fn oracle(&mut self) -> Vec<String> {
        let mut failures = Vec::new();
        self.costs = self
            .modules
            .iter()
            .map(|m| {
                tree_oracle(m).unwrap_or_else(|e| {
                    failures.push(e);
                    0
                })
            })
            .collect();
        failures
    }

    /// Records the phi streams and watched values the traced
    /// `suite-cold` ladder replays.
    pub fn prepare_ladders(&mut self) -> Result<(), String> {
        self.ladders = self
            .modules
            .iter()
            .map(ladder_of)
            .collect::<Result<_, _>>()?;
        Ok(())
    }

    /// `suite-cold` starts every pass from an empty store.
    pub fn begin_pass(&mut self) -> Result<(), String> {
        if self.workload == Workload::SuiteCold {
            self.store = Some(fresh_store(&self.store_dir)?);
        }
        Ok(())
    }

    fn check_points<'a>(
        &self,
        reports: impl IntoIterator<Item = &'a EvalReport>,
    ) -> Result<(), String> {
        reports
            .into_iter()
            .try_for_each(|r| self.reference.check(r))
    }

    fn check_replay(&mut self, i: usize, replay: &BenchReplay) -> Result<(), String> {
        if let Some(d) = &replay.divergence {
            return Err(format!("{}: replay diverged: {d:?}", replay.name));
        }
        let counts = (replay.loops.len(), replay.rejected.len());
        match self.replay_counts[i] {
            Some(first) if first != counts => Err(format!(
                "{}: replayed/rejected loops {counts:?}, earlier in this run {first:?}",
                replay.name
            )),
            _ => {
                self.replay_counts[i] = Some(counts);
                Ok(())
            }
        }
    }

    /// Checks an op's counter deltas: a warm op is a store hit, a cold
    /// op a store miss.
    pub fn check_op_counts(&self, i: usize, delta: &Counts) -> Result<(), String> {
        let (hits, misses) = (
            delta.get(Counter::StoreHits),
            delta.get(Counter::StoreMisses),
        );
        let name = self.benches[i].name;
        match self.workload {
            Workload::SuiteWarm if (hits, misses) != (1, 0) => Err(format!(
                "{name}: store hits {hits}, misses {misses}; expected one hit"
            )),
            Workload::SuiteCold if (hits, misses) != (0, 1) => Err(format!(
                "{name}: store hits {hits}, misses {misses}; expected one miss"
            )),
            _ => Ok(()),
        }
    }

    /// One untraced op on program `i`, through the user-facing facades.
    pub fn op(&mut self, i: usize) -> Result<Sample, String> {
        let store = self.store.as_ref();
        let module = &self.modules[i];
        match self.workload {
            Workload::SuiteCold => {
                let bench = self.benches[i];
                let (sample, rows) = measure(|| {
                    let module = bench.build(Scale::Default);
                    Study::with_store(&module, MachineConfig::default(), store)
                        .map(|study| study.table2_rows())
                });
                let rows = rows.map_err(|e| format!("{}: {e}", bench.name))?;
                self.check_points(&rows)?;
                Ok(sample)
            }
            Workload::SuiteWarm => {
                let lattice = &self.lattice;
                let (sample, out) = measure(|| {
                    Study::with_store(module, MachineConfig::default(), store).map(|study| {
                        let points: Vec<EvalReport> =
                            lattice.iter().map(|&(m, c)| study.evaluate(m, c)).collect();
                        let (m, c) = best_helix();
                        (points, study.explain(m, c).0)
                    })
                });
                let (points, explained) = out.map_err(|e| format!("{}: {e}", module.name))?;
                self.check_points(points.iter().chain([&explained]))?;
                Ok(sample)
            }
            Workload::Replay => {
                let jobs = self.jobs;
                let (sample, replay) = measure(|| replay_module(module, &[], jobs));
                let replay = replay.map_err(|e| format!("{}: {e}", module.name))?;
                self.check_replay(i, &replay)?;
                Ok(sample)
            }
        }
    }

    /// The traced twin of [`Suite::op`]: the same work, one span per
    /// layer call, inside an `op` span whose wall time is returned.
    pub fn traced_op(&mut self, i: usize, tr: &mut Tracer) -> Result<Sample, String> {
        tr.next_op();
        match self.workload {
            Workload::SuiteCold => self.traced_cold(i, tr),
            Workload::SuiteWarm => self.traced_warm(i, tr),
            Workload::Replay => self.traced_replay(i, tr),
        }
    }

    fn traced_cold(&mut self, i: usize, tr: &mut Tracer) -> Result<Sample, String> {
        let config = MachineConfig::default();
        let options = ProfilerOptions::default();
        let bench = self.benches[i];
        let store = self.store.as_ref().expect("suite-cold has a store");
        let cpu0 = clock::process_cpu_ns();
        tr.open("op");
        let layers = (|| {
            let module = tr.time("suite.build", || bench.build(Scale::Default));
            tr.time("ir.verify", || verify(&module))?;
            let analysis = tr.time("analysis.analyze", || analyze_module(&module));
            let key = tr.time("store.key", || ProfileKey::of(&module, &config, &options));
            if tr.time("store.get", || store.get(key)).is_some() {
                return Err(format!("{}: store hit on an empty store", bench.name));
            }
            let (profile, run) = tr
                .time("profile", || {
                    profile_module_with(&module, &analysis, &[], config.clone(), options)
                })
                .map_err(|e| format!("{}: {e}", bench.name))?;
            tr.time("store.put", || store.put(key, &profile, &run));
            let rows: Vec<EvalReport> = table2_rows()
                .into_iter()
                .map(|(m, c)| tr.time("eval", || evaluate(&profile, m, c)))
                .collect();
            Ok((module, profile, run, rows))
        })();
        let wall_ns = tr.close();
        let sample = Sample {
            wall_ns,
            cpu_ns: clock::process_cpu_ns() - cpu0,
        };
        let (module, profile, run, rows) = layers?;
        self.check_points(&rows)?;
        self.tally.insts += run.cost;
        self.tally.points += rows.len() as u64;
        self.tally.store_bytes += encode_entry(&profile, &run).len() as u64;
        self.ladder(i, &module, &run, tr)?;
        Ok(sample)
    }

    /// Compile, inert run, observing run and predictor replay for program
    /// `i`: the steps the interpreter, tracker and predictor costs are
    /// derived from by subtraction.
    fn ladder(
        &mut self,
        i: usize,
        module: &Module,
        run: &RunResult,
        tr: &mut Tracer,
    ) -> Result<(), String> {
        let ladder = &self.ladders[i];
        let unit = tr.time("interp.compile", || {
            ExecUnit::with_engine(module, Engine::Bc)
        });
        let inert = tr.time("interp.inert", || Exec::new(&unit).run(&[]));
        let observe_config = MachineConfig {
            watched_values: ladder.watched.clone(),
            ..MachineConfig::default()
        };
        let mut sink = CountingSink::default();
        let observed = tr.time("interp.observe", || {
            Exec::new(&unit)
                .sink(&mut sink)
                .config(observe_config)
                .run(&[])
        });
        for (what, out) in [("inert", inert), ("observing", observed)] {
            let out = out.map_err(|e| format!("{}: {what} run: {e}", module.name))?;
            if out.result.cost != run.cost {
                return Err(format!(
                    "{}: {what} run cost {} differs from the profiled run's {}",
                    module.name, out.result.cost, run.cost
                ));
            }
        }
        let (observed, hits, fcm_hits) = tr.time("predict", || replay_streams(&ladder.streams));
        self.tally.predict_obs += observed;
        self.tally.predict_hits += hits;
        self.tally.fcm_hits += fcm_hits;
        Ok(())
    }

    fn traced_warm(&mut self, i: usize, tr: &mut Tracer) -> Result<Sample, String> {
        let config = MachineConfig::default();
        let options = ProfilerOptions::default();
        let module = &self.modules[i];
        let store = self.store.as_ref().expect("suite-warm has a store");
        let lattice = &self.lattice;
        let cpu0 = clock::process_cpu_ns();
        tr.open("op");
        let layers = (|| {
            tr.time("ir.verify", || verify(module))?;
            let _analysis = tr.time("analysis.analyze", || analyze_module(module));
            let key = tr.time("store.key", || ProfileKey::of(module, &config, &options));
            let (profile, run) = tr
                .time("store.get", || store.get(key))
                .ok_or_else(|| format!("{}: store miss on suite-warm", module.name))?;
            let points: Vec<EvalReport> = lattice
                .iter()
                .map(|&(m, c)| tr.time("eval", || evaluate(&profile, m, c)))
                .collect();
            let (m, c) = best_helix();
            let (explained, _) = tr.time("eval.explain", || evaluate_explained(&profile, m, c));
            Ok::<_, String>((profile, run, points, explained))
        })();
        let wall_ns = tr.close();
        let sample = Sample {
            wall_ns,
            cpu_ns: clock::process_cpu_ns() - cpu0,
        };
        let (profile, run, points, explained) = layers?;
        self.check_points(points.iter().chain([&explained]))?;
        self.tally.points += points.len() as u64;
        self.tally.explains += 1;
        self.tally.store_bytes += encode_entry(&profile, &run).len() as u64;
        Ok(sample)
    }

    fn traced_replay(&mut self, i: usize, tr: &mut Tracer) -> Result<Sample, String> {
        let module = &self.modules[i];
        let jobs = self.jobs;
        tr.open("op");
        let (replay_sample, replay) =
            tr.time("replay", || measure(|| replay_module(module, &[], jobs)));
        let sample = Sample {
            wall_ns: tr.close(),
            cpu_ns: replay_sample.cpu_ns,
        };
        let analysis = tr.time("analysis.analyze", || analyze_module(module));
        tr.time("analysis.certify", || certify_module(module, &analysis));
        let replay = replay.map_err(|e| format!("{}: {e}", module.name))?;
        self.check_replay(i, &replay)?;
        self.tally.insts += self.costs[i];
        self.tally.replay_cpu_ns += replay_sample.cpu_ns;
        Ok(sample)
    }
}
