//! Compile-once / execute-many execution surface.
//!
//! [`ExecUnit`] binds a module to an [`Engine`] and performs any
//! per-module compilation exactly once (bytecode translation for
//! [`Engine::Bc`], nothing for [`Engine::Tree`]). [`Exec`] is the
//! builder-style run entry, the one way to run a module:
//!
//! ```
//! use lp_interp::{Engine, Exec, ExecUnit, Value};
//! # use lp_ir::builder::FunctionBuilder;
//! # use lp_ir::{Module, Type};
//! # let mut module = Module::new("m");
//! # let mut fb = FunctionBuilder::new("main", &[], Type::I64);
//! # let x = fb.const_i64(42);
//! # fb.ret(Some(x));
//! # module.add_function(fb.finish().unwrap());
//! let unit = ExecUnit::with_engine(&module, Engine::Bc); // compile once
//! for _ in 0..3 {
//!     let out = Exec::new(&unit).run(&[]).unwrap(); // execute many
//!     assert_eq!(out.result.ret, Value::I(42));
//! }
//! ```

use crate::bytecode::CompiledModule;
use crate::events::{EventSink, NullSink};
use crate::machine::{Engine, Machine, MachineConfig, RunResult};
use crate::memory::Memory;
use crate::replay::{ParallelExec, ReplayPlan};
use crate::value::Value;
use crate::Result;
use lp_ir::Module;

/// A module prepared for repeated execution on one engine.
///
/// Construction is the compile step; [`Exec::run`] is the (repeatable)
/// execute step. The unit is immutable and shareable across runs — the
/// per-run state all lives in the machine `Exec` builds internally.
#[derive(Debug, Clone)]
pub struct ExecUnit<'m> {
    module: &'m Module,
    engine: Engine,
    code: Option<CompiledModule>,
}

impl<'m> ExecUnit<'m> {
    /// Prepares `module` for the default engine ([`Engine::Bc`]),
    /// compiling it to bytecode once up front.
    #[must_use]
    pub fn new(module: &'m Module) -> ExecUnit<'m> {
        ExecUnit::with_engine(module, Engine::default())
    }

    /// Prepares `module` for `engine`, compiling it to bytecode when the
    /// engine is [`Engine::Bc`].
    #[must_use]
    pub fn with_engine(module: &'m Module, engine: Engine) -> ExecUnit<'m> {
        let code = match engine {
            Engine::Tree => None,
            Engine::Bc => Some(CompiledModule::compile(module)),
        };
        ExecUnit {
            module,
            engine,
            code,
        }
    }

    /// The module this unit executes.
    #[must_use]
    pub fn module(&self) -> &'m Module {
        self.module
    }

    /// The engine this unit was compiled for.
    #[must_use]
    pub fn engine(&self) -> Engine {
        self.engine
    }
}

/// Everything a run produced.
#[derive(Debug, Clone)]
pub struct ExecOut {
    /// Return value, dynamic cost, and captured output.
    pub result: RunResult,
    /// The final memory image, present iff [`Exec::keep_memory`] was
    /// requested (the replay engine byte-compares serial and replayed
    /// images to detect divergence).
    pub memory: Option<Memory>,
}

/// Builder-style run entry over an [`ExecUnit`].
///
/// Defaults: [`NullSink`], default [`MachineConfig`], entry function
/// `main`, memory discarded, replay disarmed. The configured engine
/// always comes from the unit (the config's `engine` field is
/// overwritten), so a unit never runs on an engine it was not compiled
/// for.
pub struct Exec<'x, 'm, S> {
    unit: &'x ExecUnit<'m>,
    sink: S,
    config: MachineConfig,
    keep_memory: bool,
    function: Option<&'x str>,
    replay: Option<(&'x ReplayPlan, &'x dyn ParallelExec)>,
}

impl<'x, 'm> Exec<'x, 'm, NullSink> {
    /// Starts a run of `unit` with the defaults above.
    #[must_use]
    pub fn new(unit: &'x ExecUnit<'m>) -> Exec<'x, 'm, NullSink> {
        Exec {
            unit,
            sink: NullSink,
            config: MachineConfig::default(),
            keep_memory: false,
            function: None,
            replay: None,
        }
    }
}

impl<'x, 'm, S: EventSink> Exec<'x, 'm, S> {
    /// Delivers events to `sink` (pass `&mut sink` to inspect it after
    /// the run — `&mut S` forwards the [`EventSink`] impl).
    #[must_use]
    pub fn sink<T: EventSink>(self, sink: T) -> Exec<'x, 'm, T> {
        Exec {
            unit: self.unit,
            sink,
            config: self.config,
            keep_memory: self.keep_memory,
            function: self.function,
            replay: self.replay,
        }
    }

    /// Replaces the machine configuration (the `engine` field is
    /// overwritten with the unit's engine at [`Exec::run`]).
    #[must_use]
    pub fn config(mut self, config: MachineConfig) -> Exec<'x, 'm, S> {
        self.config = config;
        self
    }

    /// Whether to return the final memory image in [`ExecOut::memory`].
    #[must_use]
    pub fn keep_memory(mut self, keep: bool) -> Exec<'x, 'm, S> {
        self.keep_memory = keep;
        self
    }

    /// Runs `name` instead of `main` (for tests and examples).
    #[must_use]
    pub fn function(mut self, name: &'x str) -> Exec<'x, 'm, S> {
        self.function = Some(name);
        self
    }

    /// Arms parallel replay: certified loops in `plan` execute across
    /// `exec`'s workers instead of serially.
    #[must_use]
    pub fn replay(mut self, plan: &'x ReplayPlan, exec: &'x dyn ParallelExec) -> Exec<'x, 'm, S> {
        self.replay = Some((plan, exec));
        self
    }

    /// Runs the unit's entry (or the selected function) with `args`.
    ///
    /// # Errors
    /// Propagates traps and resource-limit failures, or
    /// [`crate::InterpError::TypeConfusion`] for a missing entry
    /// function.
    pub fn run(self, args: &[Value]) -> Result<ExecOut> {
        let Exec {
            unit,
            mut sink,
            mut config,
            keep_memory,
            function,
            replay,
        } = self;
        config.engine = unit.engine;
        // A failed *silent* bytecode run may misreport the error: its
        // fuel checks are block-granular (see `exec_frame_silent`), so a
        // trap landing after the precharged counter passed the limit
        // comes out as the wrong variant or at the wrong point. Errors
        // are cold and a failed run's state is discarded anyway, so
        // recover exactness by re-executing on the per-instruction loop.
        let exact_rerun = unit.engine == Engine::Bc
            && S::INERT
            && replay.is_none()
            && !lp_obs::sampler::collecting();
        let rerun_config = exact_rerun.then(|| config.clone());
        let mut machine = Machine::with_config(unit.module, &mut sink, config);
        if let Some((plan, pexec)) = replay {
            machine = machine.with_replay(plan, pexec);
        }
        let first = machine.run_entry(function, args, unit.code.as_ref());
        let (result, memory) = match (first, rerun_config) {
            (Err(_), Some(cfg)) => {
                let mut exact = Machine::with_config(unit.module, &mut sink, cfg);
                exact.force_exact = true;
                exact.run_entry(function, args, unit.code.as_ref())?
            }
            (r, _) => r?,
        };
        Ok(ExecOut {
            result,
            memory: keep_memory.then_some(memory),
        })
    }
}
