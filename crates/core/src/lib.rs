//! # Loopapalooza — a compiler-driven limit study of loop-level parallelism
//!
//! A from-scratch Rust reproduction of *"Loopapalooza: Investigating
//! Limits of Loop-Level Parallelism with a Compiler-Driven Approach"*
//! (Zaidi, Iordanou, Luján, Gabrielli — ISPASS 2021).
//!
//! This crate is the facade tying the subsystem crates together:
//!
//! - [`lp_ir`] — the SSA IR substrate (standing in for LLVM IR);
//! - [`lp_analysis`] — the compile-time component (loops, SCEV,
//!   reductions, purity);
//! - [`lp_interp`] — deterministic execution with instrumentation
//!   call-backs;
//! - [`lp_predict`] — the four-way hybrid value predictor;
//! - [`lp_runtime`] — the run-time component: dependence tracking, the
//!   DOALL / Partial-DOALL / HELIX cost models, and the evaluator;
//! - [`lp_suite`] — synthetic SPEC CPU2000/2006 and EEMBC stand-ins.
//!
//! # Quickstart
//!
//! ```
//! use loopapalooza::prelude::*;
//!
//! # fn main() -> Result<(), loopapalooza::Error> {
//! // Pick a benchmark and profile it once...
//! let bench = lp_suite::find("181.mcf").expect("registered benchmark");
//! let module = bench.build(Scale::Test);
//! let study = Study::of(&module)?;
//!
//! // ...then evaluate any (model, configuration) pair offline.
//! let best = study.evaluate(ExecModel::Helix, "reduc1-dep1-fn2".parse().unwrap());
//! assert!(best.speedup >= 1.0);
//! # Ok(())
//! # }
//! ```

pub use lp_analysis;
pub use lp_interp;
pub use lp_ir;
pub use lp_predict;
pub use lp_runtime;
pub use lp_suite;

use lp_analysis::ModuleAnalysis;
use lp_interp::{MachineConfig, RunResult};
use lp_ir::Module;
use lp_runtime::{
    evaluate, evaluate_explained, Attribution, Census, Config, EvalOptions, EvalReport, ExecModel,
    Jobs, Profile, ProfileStore, ProfilerOptions, SweepUnit,
};
use std::fmt;
use std::sync::Arc;

/// Commonly used items, re-exported for `use loopapalooza::prelude::*`.
pub mod prelude {
    pub use crate::{Error, Study};
    pub use lp_ir::builder::FunctionBuilder;
    pub use lp_ir::{Module, Type};
    pub use lp_runtime::{
        best_helix, best_pdoall, table2_rows, Attribution, Config, DepMode, ExecModel, FnMode,
        Jobs, LimiterKind, ProfileStore, ReducMode, StoreMode, SweepUnit,
    };
    pub use lp_suite::{self, Scale, SuiteId};
}

/// Top-level error: anything the pipeline can fail with.
#[derive(Debug, Clone, PartialEq)]
pub enum Error {
    /// The module failed verification.
    Ir(lp_ir::IrError),
    /// Execution trapped or exhausted its budget.
    Interp(lp_interp::InterpError),
}

impl fmt::Display for Error {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Error::Ir(e) => write!(f, "ir error: {e}"),
            Error::Interp(e) => write!(f, "interp error: {e}"),
        }
    }
}

impl std::error::Error for Error {}

impl From<lp_ir::IrError> for Error {
    fn from(e: lp_ir::IrError) -> Error {
        Error::Ir(e)
    }
}

impl From<lp_interp::InterpError> for Error {
    fn from(e: lp_interp::InterpError) -> Error {
        Error::Interp(e)
    }
}

/// One profiled program, ready for offline evaluation under any
/// `(execution model, configuration)` pair.
///
/// Construction verifies the module, runs the compile-time analyses,
/// executes the program once under the profiler (the expensive step), and
/// keeps the [`Profile`]. Every subsequent [`Study::evaluate`] call is a
/// cheap fold over the recorded region tree — exactly the paper's
/// "single instrumented run, many configurations" workflow.
/// The profile is held behind an [`Arc`] so the parallel sweep engine
/// can evaluate many `(model, config)` pairs concurrently against one
/// shared, immutable profile (see [`Study::shared_profile`]).
#[derive(Debug)]
pub struct Study {
    analysis: ModuleAnalysis,
    profile: Arc<Profile>,
    run: RunResult,
}

impl Study {
    /// Verifies, analyzes, and profiles `module` (with no arguments and
    /// default machine limits).
    ///
    /// # Errors
    /// Returns [`Error::Ir`] for invalid modules and [`Error::Interp`]
    /// for runtime traps.
    pub fn of(module: &Module) -> Result<Study, Error> {
        Study::with_config(module, MachineConfig::default())
    }

    /// As [`Study::of`] with explicit machine limits.
    ///
    /// # Errors
    /// As [`Study::of`].
    pub fn with_config(module: &Module, config: MachineConfig) -> Result<Study, Error> {
        Study::with_store(module, config, None)
    }

    /// As [`Study::with_config`], consulting a persistent
    /// [`ProfileStore`] first: on a cache hit the instrumented run is
    /// skipped entirely (verification and the compile-time analyses are
    /// cheap and always run), on a miss the fresh profile is persisted
    /// for the next process.
    ///
    /// # Errors
    /// As [`Study::of`]. Store problems never fail the call — they
    /// degrade to profiling.
    pub fn with_store(
        module: &Module,
        config: MachineConfig,
        store: Option<&ProfileStore>,
    ) -> Result<Study, Error> {
        {
            let _span = lp_obs::span!("verify");
            lp_ir::verify_module(module)?;
            lp_analysis::verify_ssa(module)?;
        }
        let analysis = {
            let _span = lp_obs::span!("analyze");
            lp_analysis::analyze_module(module)
        };
        let (profile, run) = lp_runtime::profile_module_cached(
            module,
            &analysis,
            config,
            ProfilerOptions::default(),
            store,
        )?;
        Ok(Study {
            analysis,
            profile: Arc::new(profile),
            run,
        })
    }

    /// Evaluates one `(model, config)` pair against the stored profile.
    #[must_use]
    pub fn evaluate(&self, model: ExecModel, config: Config) -> EvalReport {
        evaluate(&self.profile, model, config)
    }

    /// As [`Study::evaluate`], additionally attributing every loop's gap
    /// to its ideal conflict-free cost across ranked [`Limiter`]s
    /// (counterfactual re-costing with one cost term lifted at a time).
    ///
    /// The returned [`EvalReport`] is identical to what
    /// [`Study::evaluate`] produces for the same pair.
    ///
    /// [`Limiter`]: lp_runtime::Limiter
    #[must_use]
    pub fn explain(&self, model: ExecModel, config: Config) -> (EvalReport, Attribution) {
        evaluate_explained(&self.profile, model, config)
    }

    /// Evaluates all 14 rows of the paper's Table II / Figures 2–3.
    #[must_use]
    pub fn table2_rows(&self) -> Vec<EvalReport> {
        lp_runtime::table2_rows()
            .into_iter()
            .map(|(model, config)| self.evaluate(model, config))
            .collect()
    }

    /// The recorded profile.
    #[must_use]
    pub fn profile(&self) -> &Profile {
        &self.profile
    }

    /// A shareable handle to the profile for the parallel sweep engine:
    /// profile once here, evaluate many `(model, config)` pairs on any
    /// number of workers without re-profiling.
    #[must_use]
    pub fn shared_profile(&self) -> Arc<Profile> {
        Arc::clone(&self.profile)
    }

    /// This study as a named [`SweepUnit`] (the unit borrows nothing —
    /// it shares the profile via [`Study::shared_profile`]).
    #[must_use]
    pub fn sweep_unit(&self) -> SweepUnit {
        SweepUnit::new(self.profile.program.clone(), self.shared_profile())
    }

    /// Evaluates the full `models × configs` lattice for this program on
    /// `jobs` workers. Results come back in stable `(model, config)`
    /// order — byte-identical whatever the worker count.
    #[must_use]
    pub fn sweep(&self, models: &[ExecModel], configs: &[Config], jobs: Jobs) -> Vec<EvalReport> {
        lp_runtime::sweep(
            &[self.sweep_unit()],
            models,
            configs,
            jobs,
            EvalOptions::default(),
        )
    }

    /// The compile-time analysis bundle.
    #[must_use]
    pub fn analysis(&self) -> &ModuleAnalysis {
        &self.analysis
    }

    /// The sequential run result (return value, cost, captured output).
    #[must_use]
    pub fn run_result(&self) -> &RunResult {
        &self.run
    }

    /// Table-I census for this program alone.
    #[must_use]
    pub fn census(&self) -> Census {
        Census::over([self.profile.as_ref()])
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use lp_runtime::{best_helix, best_pdoall};
    use lp_suite::Scale;

    #[test]
    fn study_runs_a_benchmark_end_to_end() {
        let bench = lp_suite::find("456.hmmer").unwrap();
        let module = bench.build(Scale::Test);
        let study = Study::of(&module).unwrap();
        assert!(study.run_result().cost > 1000);
        let rows = study.table2_rows();
        assert_eq!(rows.len(), 14);
        for r in &rows {
            assert!(r.speedup >= 0.999, "{}: {}", r.config, r.speedup);
        }
        let (m, c) = best_helix();
        let hx = study.evaluate(m, c);
        let (explained, attr) = study.explain(m, c);
        assert_eq!(format!("{explained:?}"), format!("{hx:?}"));
        assert_eq!(
            attr.limiters.iter().map(|l| l.weight).sum::<u64>(),
            attr.total_gap(),
            "program-level limiter weights must conserve the total gap"
        );
        let (m, c) = best_pdoall();
        let pd = study.evaluate(m, c);
        assert!(hx.speedup > pd.speedup, "hmmer prefers HELIX");
        let census = study.census();
        assert!(census.executed_loops > 0);
    }

    #[test]
    fn study_sweep_matches_pointwise_evaluation() {
        let bench = lp_suite::find("eembc.matrix01").unwrap();
        let module = bench.build(Scale::Test);
        let study = Study::of(&module).unwrap();
        let models = ExecModel::all();
        let configs = Config::all();
        let swept = study.sweep(&models, &configs, Jobs::new(4));
        assert_eq!(swept.len(), models.len() * configs.len());
        let mut i = 0;
        for &model in &models {
            for &config in &configs {
                let reference = study.evaluate(model, config);
                assert_eq!(
                    format!("{reference:?}"),
                    format!("{:?}", swept[i]),
                    "{model} {config}"
                );
                i += 1;
            }
        }
        // The handle shares, not copies: one profile, two owners.
        let shared = study.shared_profile();
        assert_eq!(Arc::strong_count(&shared), 2);
        assert_eq!(shared.program, study.profile().program);
    }

    #[test]
    fn study_with_store_warm_start_matches_cold() {
        use lp_runtime::StoreMode;
        let dir = std::env::temp_dir().join(format!(
            "lp-core-store-{}-{:?}",
            std::process::id(),
            std::thread::current().id()
        ));
        let _ = std::fs::remove_dir_all(&dir);
        let store = ProfileStore::open(&dir, StoreMode::ReadWrite).unwrap();
        let bench = lp_suite::find("eembc.matrix01").unwrap();
        let module = bench.build(Scale::Test);
        let cold = Study::with_store(&module, MachineConfig::default(), Some(&store)).unwrap();
        let warm = Study::with_store(&module, MachineConfig::default(), Some(&store)).unwrap();
        // Compare meta_index entry-by-entry (MetaIndex::iter is in
        // ascending key order) and the rest of the profile structurally.
        let fingerprint = |p: &Profile| {
            let idx: Vec<_> = p.meta_index.iter().collect();
            format!(
                "{} {} {:?} {:?} {:?} {idx:?}",
                p.program, p.total_cost, p.regions, p.loop_meta, p.func_names
            )
        };
        assert_eq!(
            fingerprint(cold.profile()),
            fingerprint(warm.profile()),
            "warm-start profile must be identical to cold-start"
        );
        assert_eq!(
            format!("{:?}", cold.run_result()),
            format!("{:?}", warm.run_result())
        );
        let (m, c) = best_helix();
        assert_eq!(
            format!("{:?}", cold.evaluate(m, c)),
            format!("{:?}", warm.evaluate(m, c))
        );
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn study_rejects_invalid_modules() {
        let module = Module::new("empty"); // no main
        assert!(matches!(
            Study::of(&module),
            Err(Error::Interp(_) | Error::Ir(_))
        ));
    }

    #[test]
    fn error_display() {
        let e = Error::Interp(lp_interp::InterpError::DivByZero);
        assert!(e.to_string().contains("division"));
    }
}
