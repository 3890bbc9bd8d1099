//! # lp-interp — deterministic execution substrate
//!
//! Executes [`lp_ir`] modules and delivers exactly the call-back stream
//! Loopapalooza's compile-time instrumentation would insert into a native
//! binary (paper §III-A): per-block dynamic IR costs, basic-block entries
//! (from which the run-time component derives loop entry / iteration /
//! exit boundaries), memory access addresses, function entry/exit, and
//! per-iteration register-LCD (phi) values.
//!
//! "Time" in the limit study is the dynamic LLVM-IR instruction count —
//! no microarchitecture is modelled — so an interpreter is a faithful
//! substitute for instrumented native execution.
//!
//! Two engines implement these semantics: the tree walk (the reference
//! oracle) and the flat pre-resolved bytecode engine (`lp-bc`, the fast
//! path — see [`bytecode`]). Both are driven through the compile-once /
//! execute-many [`ExecUnit`]/[`Exec`] surface and are observationally
//! identical: same results, same dynamic cost, same event stream.
//!
//! # Example
//!
//! ```
//! use lp_interp::{Engine, Exec, ExecUnit, Value};
//! use lp_ir::builder::FunctionBuilder;
//! use lp_ir::{Module, Type};
//!
//! # fn main() -> Result<(), Box<dyn std::error::Error>> {
//! let mut module = Module::new("demo");
//! let mut fb = FunctionBuilder::new("main", &[], Type::I64);
//! let x = fb.const_i64(21);
//! let y = fb.add(x, x);
//! fb.ret(Some(y));
//! module.add_function(fb.finish()?);
//!
//! let unit = ExecUnit::with_engine(&module, Engine::Bc);
//! let out = Exec::new(&unit).run(&[])?;
//! assert_eq!(out.result.ret, Value::I(42));
//! # Ok(())
//! # }
//! ```

pub mod bytecode;
mod compile;
pub mod events;
pub mod exec;
pub mod machine;
pub mod memory;
pub mod metered;
pub mod replay;
pub mod trace;
pub mod value;

pub use bytecode::CompiledModule;
pub use events::{CountingSink, EventSink, NullSink};
pub use exec::{Exec, ExecOut, ExecUnit};
pub use machine::{Engine, MachineConfig, RunResult};
pub use memory::{MemStats, Memory, GLOBAL_BASE, HEAP_BASE, STACK_BASE};
pub use metered::{EventCounts, MeteredSink, TeeSink};
pub use replay::{
    run_chunk, ChunkOut, ChunkRequest, ChunkSpec, LoopShape, ParallelExec, PhiKind, ReplayPlan,
    SerialExec, StepExpr,
};
pub use trace::{TraceEvent, TraceSink};
pub use value::Value;

use std::fmt;

/// Runtime traps and resource-limit failures.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum InterpError {
    /// Integer division or remainder by zero.
    DivByZero,
    /// Load/store address not 8-byte aligned.
    Unaligned(u64),
    /// Load/store through the null page (address < 0x1000).
    NullDeref(u64),
    /// The configured dynamic-cost budget was exhausted.
    FuelExhausted,
    /// Call depth exceeded the configured limit.
    CallDepthExceeded,
    /// A value had the wrong runtime type for an operation (indicates an
    /// unverified module; run `lp_ir::verify_module` first).
    TypeConfusion(&'static str),
    /// Math-domain trap (e.g. `log` of a non-positive number).
    MathDomain(&'static str),
    /// A `malloc` or `alloca` did not fit in its memory region.
    OutOfMemory,
}

impl fmt::Display for InterpError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            InterpError::DivByZero => write!(f, "integer division by zero"),
            InterpError::Unaligned(a) => write!(f, "unaligned memory access at {a:#x}"),
            InterpError::NullDeref(a) => write!(f, "null-page dereference at {a:#x}"),
            InterpError::FuelExhausted => write!(f, "dynamic cost budget exhausted"),
            InterpError::CallDepthExceeded => write!(f, "call depth limit exceeded"),
            InterpError::TypeConfusion(what) => write!(f, "runtime type confusion in {what}"),
            InterpError::MathDomain(what) => write!(f, "math domain error in {what}"),
            InterpError::OutOfMemory => write!(f, "out of memory"),
        }
    }
}

impl std::error::Error for InterpError {}

/// Convenience alias.
pub type Result<T, E = InterpError> = std::result::Result<T, E>;
