//! Instrumentation call-backs.
//!
//! [`EventSink`] is the run-time component's view of execution — the same
//! call-backs Loopapalooza's custom LLVM passes insert (paper §III-A).
//! Every event carries `now`, the current value of the running sequential
//! dynamic-IR cost counter ("the loop header, loop latch and loop exit
//! call-backs can sample this running sequential IR cost counter"), so
//! sinks can timestamp producers and consumers at instruction
//! granularity. All methods have no-op defaults.

use crate::memory::MemStats;
use crate::value::Value;
use lp_ir::{BlockId, Builtin, FuncId, ValueId};

/// Receiver of instrumentation events.
pub trait EventSink {
    /// Statically promises that *every* callback on this sink is a
    /// no-op (only [`NullSink`] qualifies). The bytecode engine uses
    /// this to select a silent dispatch loop that skips event plumbing
    /// entirely — observable semantics (results, costs, traps) are
    /// unchanged because there is nothing listening. A sink that does
    /// anything at all in any callback must leave this `false`.
    const INERT: bool = false;
    /// A basic block was entered. `cost` is its static IR cost (non-phi
    /// instructions + terminator); `now` is the cost counter at entry
    /// (before any of the block's instructions are charged).
    fn block_entered(&mut self, func: FuncId, block: BlockId, cost: u64, now: u64) {
        let _ = (func, block, cost, now);
    }

    /// A phi resolved to `value` on entry to its block. Used to trace
    /// register-LCD values for the value predictors.
    fn phi_resolved(&mut self, func: FuncId, block: BlockId, phi: ValueId, value: Value, now: u64) {
        let _ = (func, block, phi, value, now);
    }

    /// A load from `addr` executed.
    fn load(&mut self, addr: u64, now: u64) {
        let _ = (addr, now);
    }

    /// A store to `addr` executed.
    fn store(&mut self, addr: u64, now: u64) {
        let _ = (addr, now);
    }

    /// A user function was entered (after its frame was created).
    fn func_entered(&mut self, func: FuncId, frame_base: u64, now: u64) {
        let _ = (func, frame_base, now);
    }

    /// A user function returned.
    fn func_exited(&mut self, func: FuncId, now: u64) {
        let _ = (func, now);
    }

    /// A builtin was invoked from `caller`.
    fn builtin_called(&mut self, caller: FuncId, builtin: Builtin, now: u64) {
        let _ = (caller, builtin, now);
    }

    /// A *watched* value (registered via
    /// [`crate::MachineConfig::watched_values`]) was defined. Loopapalooza
    /// uses this to timestamp register-LCD producers inside an iteration —
    /// the producer side of HELIX `dep1` synchronization edges.
    fn value_defined(&mut self, func: FuncId, value: ValueId, val: Value, now: u64) {
        let _ = (func, value, val, now);
    }

    /// The run completed; `stats` summarizes the memory fast path
    /// (last-page cache hits/misses, pages allocated). Delivered once,
    /// after the final instruction, only on successful runs.
    fn mem_stats(&mut self, stats: MemStats) {
        let _ = stats;
    }
}

/// Forwarding impl so decorators like `MeteredSink` can borrow a sink
/// instead of owning it.
impl<S: EventSink + ?Sized> EventSink for &mut S {
    const INERT: bool = S::INERT;

    fn block_entered(&mut self, func: FuncId, block: BlockId, cost: u64, now: u64) {
        (**self).block_entered(func, block, cost, now);
    }

    fn phi_resolved(&mut self, func: FuncId, block: BlockId, phi: ValueId, value: Value, now: u64) {
        (**self).phi_resolved(func, block, phi, value, now);
    }

    fn load(&mut self, addr: u64, now: u64) {
        (**self).load(addr, now);
    }

    fn store(&mut self, addr: u64, now: u64) {
        (**self).store(addr, now);
    }

    fn func_entered(&mut self, func: FuncId, frame_base: u64, now: u64) {
        (**self).func_entered(func, frame_base, now);
    }

    fn func_exited(&mut self, func: FuncId, now: u64) {
        (**self).func_exited(func, now);
    }

    fn builtin_called(&mut self, caller: FuncId, builtin: Builtin, now: u64) {
        (**self).builtin_called(caller, builtin, now);
    }

    fn value_defined(&mut self, func: FuncId, value: ValueId, val: Value, now: u64) {
        (**self).value_defined(func, value, val, now);
    }

    fn mem_stats(&mut self, stats: MemStats) {
        (**self).mem_stats(stats);
    }
}

/// A sink that ignores every event.
#[derive(Debug, Default, Clone, Copy)]
pub struct NullSink;

impl EventSink for NullSink {
    const INERT: bool = true;
}

/// A sink that tallies event counts — handy in tests and as the cheapest
/// possible cost profiler.
#[derive(Debug, Default, Clone)]
pub struct CountingSink {
    /// Total dynamic IR cost (sum of entered block costs).
    pub cost: u64,
    /// Number of blocks entered.
    pub blocks: u64,
    /// Number of loads.
    pub loads: u64,
    /// Number of stores.
    pub stores: u64,
    /// Number of user-function entries.
    pub calls: u64,
    /// Number of builtin invocations.
    pub builtins: u64,
    /// Number of phi resolutions.
    pub phis: u64,
}

impl EventSink for CountingSink {
    fn block_entered(&mut self, _func: FuncId, _block: BlockId, cost: u64, _now: u64) {
        self.cost += cost;
        self.blocks += 1;
    }

    fn phi_resolved(
        &mut self,
        _func: FuncId,
        _block: BlockId,
        _phi: ValueId,
        _value: Value,
        _now: u64,
    ) {
        self.phis += 1;
    }

    fn load(&mut self, _addr: u64, _now: u64) {
        self.loads += 1;
    }

    fn store(&mut self, _addr: u64, _now: u64) {
        self.stores += 1;
    }

    fn func_entered(&mut self, _func: FuncId, _frame_base: u64, _now: u64) {
        self.calls += 1;
    }

    fn builtin_called(&mut self, _caller: FuncId, _builtin: Builtin, _now: u64) {
        self.builtins += 1;
    }
}
