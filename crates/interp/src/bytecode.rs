//! The flat pre-resolved bytecode engine (`lp-bc`).
//!
//! [`CompiledModule`] is the compile-once artifact produced by
//! `compile`; the dispatch loop below executes it with
//! observationally identical semantics to the tree walk
//! (`Machine::call_function`): same results, same dynamic cost, same
//! event stream with the same `now` stamps, same error on the same
//! instruction. The speed comes from what was pre-resolved — operands
//! are direct register indices, branch targets are absolute offsets,
//! per-edge phi-run tables replace the per-entry `incomings` search,
//! block costs are table lookups, and the dominant dispatch pairs are
//! fused (`Bc::IcmpBr`, `Bc::GepLoad`) — never from skipping
//! bookkeeping: fused superinstructions still tick the heat table,
//! charge fuel, and stamp events once per constituent instruction.

use crate::events::EventSink;
use crate::machine::{exec_bin, Machine};
use crate::value::Value;
use crate::{InterpError, Result};
use lp_ir::{
    BinOp, BlockId, Builtin, CastKind, FcmpPred, FuncId, IcmpPred, Module, Opcode, Type, ValueId,
};

/// One flat bytecode instruction. Operands are dense `u32` indices into
/// the function's register file (the same indexing as [`ValueId`], so
/// the replay probe and chunk workers interoperate unchanged); branch
/// operands are indices into the function's [`Edge`] table.
#[derive(Debug, Clone, PartialEq)]
pub(crate) enum Bc {
    /// Binary arithmetic/logic.
    Bin {
        op: BinOp,
        dst: u32,
        lhs: u32,
        rhs: u32,
    },
    /// Integer comparison.
    Icmp {
        pred: IcmpPred,
        dst: u32,
        lhs: u32,
        rhs: u32,
    },
    /// Ordered float comparison.
    Fcmp {
        pred: FcmpPred,
        dst: u32,
        lhs: u32,
        rhs: u32,
    },
    /// Ternary select.
    Select {
        dst: u32,
        cond: u32,
        then_val: u32,
        else_val: u32,
    },
    /// Value cast.
    Cast { kind: CastKind, dst: u32, val: u32 },
    /// Memory load.
    Load { ty: Type, dst: u32, addr: u32 },
    /// Memory store (`dst` receives `Unit`, mirroring the tree walk).
    Store { dst: u32, val: u32, addr: u32 },
    /// Address computation: `base + index * scale + offset`.
    Gep {
        dst: u32,
        base: u32,
        index: u32,
        scale: i64,
        offset: i64,
    },
    /// Fused `gep` + `load` superinstruction: computes the address,
    /// writes it to `gep_dst`, then loads through it into `dst`.
    GepLoad {
        ty: Type,
        gep_dst: u32,
        dst: u32,
        base: u32,
        index: u32,
        scale: i64,
        offset: i64,
    },
    /// Fused `gep` + `store` superinstruction: computes the address,
    /// writes it to `gep_dst`, then stores `val` through it.
    GepStore {
        gep_dst: u32,
        dst: u32,
        val: u32,
        base: u32,
        index: u32,
        scale: i64,
        offset: i64,
    },
    /// Fused pair of adjacent binary ops (the second may read the
    /// first's destination; they execute strictly in order).
    BinBin {
        op1: BinOp,
        dst1: u32,
        lhs1: u32,
        rhs1: u32,
        op2: BinOp,
        dst2: u32,
        lhs2: u32,
        rhs2: u32,
    },
    /// Fused `store` + immediately following binary op. The store
    /// executes first; it only defines `Unit`, so order is the only
    /// constraint.
    StoreBin {
        sdst: u32,
        val: u32,
        addr: u32,
        op: BinOp,
        dst: u32,
        lhs: u32,
        rhs: u32,
    },
    /// Fused `load` + immediately following binary op. The load defines
    /// `ldst` first, so the bin is free to read it.
    LoadBin {
        ty: Type,
        ldst: u32,
        addr: u32,
        op: BinOp,
        dst: u32,
        lhs: u32,
        rhs: u32,
    },
    /// Fused block-terminal binary op + unconditional branch.
    BinBr {
        op: BinOp,
        dst: u32,
        lhs: u32,
        rhs: u32,
        edge: u32,
    },
    /// Stack allocation.
    Alloca { dst: u32, words: u32 },
    /// Direct call of a user function.
    CallFunc {
        dst: u32,
        func: u32,
        args: Box<[u32]>,
    },
    /// Direct call of a builtin.
    CallBuiltin {
        dst: u32,
        builtin: Builtin,
        args: Box<[u32]>,
    },
    /// Unconditional branch.
    Br { edge: u32 },
    /// Conditional branch.
    CondBr {
        cond: u32,
        then_edge: u32,
        else_edge: u32,
    },
    /// Fused `icmp` + `cond_br` superinstruction: compares, writes the
    /// `i1` result to `dst`, then branches on it.
    IcmpBr {
        pred: IcmpPred,
        dst: u32,
        lhs: u32,
        rhs: u32,
        then_edge: u32,
        else_edge: u32,
    },
    /// Return a value.
    Ret { val: u32 },
    /// Return void.
    RetVoid,
}

/// A pre-resolved CFG edge: where to jump, which block that is (for
/// events, heat attribution, and replay interception), the target's
/// static cost, and the phi-run move table resolving the target's phi
/// prefix for this specific predecessor.
#[derive(Debug, Clone, PartialEq)]
pub(crate) struct Edge {
    /// Absolute pc of the target block's first instruction.
    pub(crate) target: u32,
    /// The target block id.
    pub(crate) block: BlockId,
    /// Static cost of the target block.
    pub(crate) cost: u64,
    /// Parallel-copy `(dst, src)` register moves for the target's phis.
    pub(crate) moves: Box<[(u32, u32)]>,
    /// `true` when no move reads an earlier move's destination, so the
    /// parallel copy can be executed as a plain in-order loop without
    /// the two-phase scratch buffer (see `compile::compile_function`).
    pub(crate) sequential: bool,
}

/// One compiled function: flat code plus its edge table.
#[derive(Debug, Clone, PartialEq)]
pub(crate) struct BcFunc {
    /// Flat instruction stream; blocks are contiguous, entry at pc 0.
    pub(crate) code: Vec<Bc>,
    /// Pre-resolved CFG edges referenced by branch instructions.
    pub(crate) edges: Vec<Edge>,
    /// Static cost of the entry block.
    pub(crate) entry_cost: u64,
}

/// A module compiled to flat bytecode — the compile-once artifact an
/// [`crate::ExecUnit`] holds and executes many times. Owns no borrows
/// of the source module; register indexing matches [`ValueId`] so the
/// per-function register templates, replay probe, and chunk workers are
/// shared with the tree walk unchanged.
#[derive(Debug, Clone, PartialEq)]
pub struct CompiledModule {
    /// Compiled functions, indexed by [`FuncId`].
    pub(crate) funcs: Vec<BcFunc>,
}

impl CompiledModule {
    /// Compiles `module`. Pure and infallible; the module is expected to
    /// be verified (the tree walk has the same precondition).
    #[must_use]
    pub fn compile(module: &Module) -> CompiledModule {
        crate::compile::compile_module(module)
    }
}

/// Integer comparison with the tree walk's pointer special case
/// (`ptr`/`ptr` compares are allowed and compare the raw addresses).
#[inline]
fn icmp_eval(pred: IcmpPred, lv: Value, rv: Value) -> Result<bool> {
    let (l, r) = match (lv, rv) {
        (Value::P(a), Value::P(b)) => (a as i64, b as i64),
        (a, b) => (a.as_i64()?, b.as_i64()?),
    };
    Ok(match pred {
        IcmpPred::Eq => l == r,
        IcmpPred::Ne => l != r,
        IcmpPred::Slt => l < r,
        IcmpPred::Sle => l <= r,
        IcmpPred::Sgt => l > r,
        IcmpPred::Sge => l >= r,
    })
}

#[inline]
fn fcmp_eval(pred: FcmpPred, lv: Value, rv: Value) -> Result<bool> {
    let l = lv.as_f64()?;
    let r = rv.as_f64()?;
    Ok(match pred {
        FcmpPred::Oeq => l == r,
        FcmpPred::One => l != r,
        FcmpPred::Olt => l < r,
        FcmpPred::Ole => l <= r,
        FcmpPred::Ogt => l > r,
        FcmpPred::Oge => l >= r,
    })
}

#[inline]
fn cast_eval(kind: CastKind, v: Value) -> Result<Value> {
    Ok(match kind {
        CastKind::SiToFp => Value::F(v.as_i64()? as f64),
        CastKind::FpToSi => Value::I(v.as_f64()? as i64),
        CastKind::PtrToInt => Value::I(v.as_ptr()? as i64),
        CastKind::IntToPtr => Value::P(v.as_i64()? as u64),
        CastKind::BoolToInt => Value::I(i64::from(v.as_bool()?)),
    })
}

/// Flattened GEP address arithmetic (wrapping, as in the tree walk).
#[inline]
fn gep_addr(base: Value, index: Value, scale: i64, offset: i64) -> Result<u64> {
    let b = base.as_ptr()?;
    let i = index.as_i64()?;
    Ok((b as i64)
        .wrapping_add(i.wrapping_mul(scale))
        .wrapping_add(offset) as u64)
}

impl<'a, S: EventSink> Machine<'a, S> {
    /// Writes an instruction result and reports it if watched —
    /// the bytecode twin of the tree walk's per-instruction epilogue.
    #[inline]
    fn set_reg(
        &mut self,
        fid: FuncId,
        watch: bool,
        regs: &mut [Value],
        dst: u32,
        v: Value,
        now: u64,
    ) {
        regs[dst as usize] = v;
        if watch && self.watched[fid.index()][dst as usize] {
            self.sink.value_defined(fid, ValueId(dst), v, now);
        }
    }

    /// Takes a pre-resolved CFG edge: block-entry event, phi-run moves
    /// (parallel-copy, with per-phi heat ticks and events exactly as the
    /// tree walk orders them), then the replay interception check. The
    /// caller updates its `block`/`pc` from the edge afterwards.
    ///
    /// `cost` is the frame's live fuel counter (see `exec_frame_bc`);
    /// phi resolution charges nothing, but replay interception runs
    /// whole loop chunks, so the counter is synced across it.
    fn take_edge(
        &mut self,
        fid: FuncId,
        func: &'a lp_ir::Function,
        from: BlockId,
        e: &Edge,
        regs: &mut [Value],
        cost: &mut u64,
    ) -> Result<()> {
        self.sink.block_entered(fid, e.block, e.cost, *cost);
        if e.sequential {
            // No move reads an earlier move's destination (the compiler
            // proved it), so the parallel copy degenerates to a plain
            // loop — same values, same event order, no scratch buffer.
            for &(dst, src) in e.moves.iter() {
                let v = regs[src as usize];
                regs[dst as usize] = v;
                self.heat_tick(fid, e.block, Opcode::Phi);
                self.sink.phi_resolved(fid, e.block, ValueId(dst), v, *cost);
            }
        } else {
            let mut updates = std::mem::take(&mut self.phi_scratch);
            for &(dst, src) in e.moves.iter() {
                updates.push((ValueId(dst), regs[src as usize]));
            }
            for &(r, v) in &updates {
                regs[r.index()] = v;
                self.heat_tick(fid, e.block, Opcode::Phi);
                self.sink.phi_resolved(fid, e.block, r, v, *cost);
            }
            updates.clear();
            self.phi_scratch = updates;
        }
        if self.replay.is_some() {
            self.cost = *cost;
            let r = self.maybe_replay(fid, func, e.block, Some(from), regs);
            *cost = self.cost;
            r?;
        }
        Ok(())
    }

    /// The bytecode dispatch loop — the fast twin of `call_function`.
    /// Every observable (events, `now` stamps, heat ticks, fuel charges,
    /// error instruction) matches the tree walk exactly; see the module
    /// docs for where the speed comes from.
    ///
    /// This wrapper keeps `self.cost` authoritative at the call
    /// boundary; the loop itself runs on a frame-local fuel counter
    /// (`exec_frame_bc`) so the per-instruction charge is register
    /// arithmetic, not a load/store round-trip through `self`.
    pub(crate) fn call_function_bc(
        &mut self,
        code: &CompiledModule,
        fid: FuncId,
        args: &[Value],
    ) -> Result<Value> {
        let mut cost = self.cost;
        // When the sink statically promises every callback is a no-op
        // and nothing else can observe the run (no watched values, no
        // live sampler, no replay plan), dispatch through the silent
        // loop: same charges, same memory traffic, same trap points —
        // minus the event plumbing nothing is listening to. `S::INERT`
        // is a constant, so non-null sinks never even compile the check.
        let r = if S::INERT
            && !self.force_exact
            && self.heat.is_none()
            && self.replay.is_none()
            && self.watched[fid.index()].is_empty()
        {
            self.exec_frame_silent(code, fid, args, &mut cost)
        } else {
            self.exec_frame_bc(code, fid, args, &mut cost)
        };
        self.cost = cost;
        r
    }

    /// The silent twin of `exec_frame_bc`: selected by
    /// `call_function_bc` when no observer exists. Register writes,
    /// memory operations, trap points, and the final cost are identical;
    /// every sink/heat/replay hook is gone rather than checked, and two
    /// further liberties are taken — both invisible by construction:
    ///
    /// - **Block-granular fuel.** Instead of one increment-and-compare
    ///   per instruction, the whole static cost of a block is added when
    ///   the block is entered (the frame adds its entry block's cost,
    ///   every edge-take adds its target's). On success the total is
    ///   exactly the per-instruction sum — blocks only exit early by
    ///   erroring — and no spurious exhaustion is possible: the counter
    ///   stays monotone and never exceeds the true final cost, so a run
    ///   the reference engine completes passes every check here too. A
    ///   run that *errors* may report the wrong error (a mid-block trap
    ///   after the precharged counter passed `max_cost`, or an
    ///   exhaustion surfacing at a block boundary instead of
    ///   mid-block); `Exec::run` catches any silent-path error and
    ///   re-executes the run on the exact observing loop — errors are
    ///   cold, the machine state of a failed run is discarded anyway,
    ///   and the re-run reproduces the reference error and error point
    ///   precisely.
    /// - **Unchecked register access.** Every operand index was
    ///   validated against the function's register-file length once at
    ///   compile time (`compile::validate`), so per-dispatch bounds
    ///   checks carry no information and are elided.
    fn exec_frame_silent(
        &mut self,
        code: &CompiledModule,
        fid: FuncId,
        args: &[Value],
        cost: &mut u64,
    ) -> Result<Value> {
        self.depth += 1;
        if self.depth > self.config.max_call_depth {
            return Err(InterpError::CallDepthExceeded);
        }
        let bf = &code.funcs[fid.index()];
        let max_cost = self.config.max_cost;
        let mut regs = match self.frame_pools[fid.index()].pop() {
            // A recycled frame still holds this function's constants
            // (instruction destinations never alias constant slots) and
            // its stale `Param`/`Inst` slots are dead: verified SSA
            // defines every register before any read.
            Some(regs) => regs,
            None => self.reg_templates[fid.index()].clone(),
        };
        regs[..args.len()].copy_from_slice(args);
        let frame_mark = self.memory.stack_top();
        *cost += bf.entry_cost;
        if *cost > max_cost {
            return Err(InterpError::FuelExhausted);
        }

        // SAFETY (for every `get_unchecked` below): `compile::validate`
        // proved, for this exact `CompiledModule`, that every operand
        // index is below the function's register-file length (`regs`
        // was just sized from the same function's template), that every
        // branch names an in-range edge leading to an in-range pc, and
        // that every non-terminator is followed by another instruction —
        // so `pc` stays in range and operand indexing cannot go out of
        // bounds. `ExecUnit` is the only constructor of bytecode runs
        // and always pairs the compiled module with the module it was
        // compiled from.
        macro_rules! reg {
            ($i:expr) => {
                unsafe { *regs.get_unchecked($i as usize) }
            };
        }
        macro_rules! set {
            ($i:expr, $v:expr) => {{
                let v = $v;
                unsafe { *regs.get_unchecked_mut($i as usize) = v }
            }};
        }
        macro_rules! take_edge {
            ($e:expr) => {{
                let e = $e;
                *cost += e.cost;
                if *cost > max_cost {
                    return Err(InterpError::FuelExhausted);
                }
                take_edge_silent(e, &mut regs, &mut self.phi_scratch);
                e.target as usize
            }};
        }

        let mut pc: usize = 0;
        let ret = loop {
            let inst = unsafe { bf.code.get_unchecked(pc) };
            pc += 1;
            match inst {
                Bc::Bin { op, dst, lhs, rhs } => {
                    set!(*dst, exec_bin(*op, reg!(*lhs), reg!(*rhs))?);
                }
                Bc::Icmp {
                    pred,
                    dst,
                    lhs,
                    rhs,
                } => {
                    set!(*dst, Value::B(icmp_eval(*pred, reg!(*lhs), reg!(*rhs))?));
                }
                Bc::Fcmp {
                    pred,
                    dst,
                    lhs,
                    rhs,
                } => {
                    set!(*dst, Value::B(fcmp_eval(*pred, reg!(*lhs), reg!(*rhs))?));
                }
                Bc::Select {
                    dst,
                    cond,
                    then_val,
                    else_val,
                } => {
                    let c = reg!(*cond).as_bool()?;
                    set!(*dst, reg!(if c { *then_val } else { *else_val }));
                }
                Bc::Cast { kind, dst, val } => {
                    set!(*dst, cast_eval(*kind, reg!(*val))?);
                }
                Bc::Load { ty, dst, addr } => {
                    let a = reg!(*addr).as_ptr()?;
                    let bits = self.memory.read(a)?;
                    set!(*dst, Value::from_bits(*ty, bits));
                }
                Bc::Store { dst, val, addr } => {
                    let v = reg!(*val).to_bits()?;
                    let a = reg!(*addr).as_ptr()?;
                    self.memory.write(a, v)?;
                    set!(*dst, Value::Unit);
                }
                Bc::Gep {
                    dst,
                    base,
                    index,
                    scale,
                    offset,
                } => {
                    let a = gep_addr(reg!(*base), reg!(*index), *scale, *offset)?;
                    set!(*dst, Value::P(a));
                }
                Bc::GepLoad {
                    ty,
                    gep_dst,
                    dst,
                    base,
                    index,
                    scale,
                    offset,
                } => {
                    let a = gep_addr(reg!(*base), reg!(*index), *scale, *offset)?;
                    set!(*gep_dst, Value::P(a));
                    let bits = self.memory.read(a)?;
                    set!(*dst, Value::from_bits(*ty, bits));
                }
                Bc::GepStore {
                    gep_dst,
                    dst,
                    val,
                    base,
                    index,
                    scale,
                    offset,
                } => {
                    let a = gep_addr(reg!(*base), reg!(*index), *scale, *offset)?;
                    set!(*gep_dst, Value::P(a));
                    let v = reg!(*val).to_bits()?;
                    self.memory.write(a, v)?;
                    set!(*dst, Value::Unit);
                }
                Bc::BinBin {
                    op1,
                    dst1,
                    lhs1,
                    rhs1,
                    op2,
                    dst2,
                    lhs2,
                    rhs2,
                } => {
                    set!(*dst1, exec_bin(*op1, reg!(*lhs1), reg!(*rhs1))?);
                    set!(*dst2, exec_bin(*op2, reg!(*lhs2), reg!(*rhs2))?);
                }
                Bc::StoreBin {
                    sdst,
                    val,
                    addr,
                    op,
                    dst,
                    lhs,
                    rhs,
                } => {
                    let v = reg!(*val).to_bits()?;
                    let a = reg!(*addr).as_ptr()?;
                    self.memory.write(a, v)?;
                    set!(*sdst, Value::Unit);
                    set!(*dst, exec_bin(*op, reg!(*lhs), reg!(*rhs))?);
                }
                Bc::LoadBin {
                    ty,
                    ldst,
                    addr,
                    op,
                    dst,
                    lhs,
                    rhs,
                } => {
                    let a = reg!(*addr).as_ptr()?;
                    let bits = self.memory.read(a)?;
                    set!(*ldst, Value::from_bits(*ty, bits));
                    set!(*dst, exec_bin(*op, reg!(*lhs), reg!(*rhs))?);
                }
                Bc::BinBr {
                    op,
                    dst,
                    lhs,
                    rhs,
                    edge,
                } => {
                    set!(*dst, exec_bin(*op, reg!(*lhs), reg!(*rhs))?);
                    pc = take_edge!(unsafe { bf.edges.get_unchecked(*edge as usize) });
                }
                Bc::Alloca { dst, words } => {
                    let base = self.memory.stack_alloc(u64::from(*words))?;
                    set!(*dst, Value::P(base));
                }
                Bc::CallFunc { dst, func, args } => {
                    let mut argbuf = [Value::Unit; 8];
                    self.cost = *cost;
                    let v = if args.len() <= argbuf.len() {
                        for (slot, &a) in argbuf.iter_mut().zip(args.iter()) {
                            *slot = reg!(a);
                        }
                        self.call_function_bc(code, FuncId(*func), &argbuf[..args.len()])
                    } else {
                        let argv: Vec<Value> = args.iter().map(|&a| reg!(a)).collect();
                        self.call_function_bc(code, FuncId(*func), &argv)
                    };
                    *cost = self.cost;
                    set!(*dst, v?);
                }
                Bc::CallBuiltin { dst, builtin, args } => {
                    let mut argbuf = [Value::Unit; 8];
                    self.cost = *cost;
                    let v = if args.len() <= argbuf.len() {
                        for (slot, &a) in argbuf.iter_mut().zip(args.iter()) {
                            *slot = reg!(a);
                        }
                        self.exec_builtin(*builtin, &argbuf[..args.len()])
                    } else {
                        let argv: Vec<Value> = args.iter().map(|&a| reg!(a)).collect();
                        self.exec_builtin(*builtin, &argv)
                    };
                    *cost = self.cost;
                    set!(*dst, v?);
                }
                Bc::Br { edge } => {
                    pc = take_edge!(unsafe { bf.edges.get_unchecked(*edge as usize) });
                }
                Bc::CondBr {
                    cond,
                    then_edge,
                    else_edge,
                } => {
                    let c = reg!(*cond).as_bool()?;
                    pc = take_edge!(unsafe {
                        bf.edges
                            .get_unchecked(if c { *then_edge } else { *else_edge } as usize)
                    });
                }
                Bc::IcmpBr {
                    pred,
                    dst,
                    lhs,
                    rhs,
                    then_edge,
                    else_edge,
                } => {
                    let c = icmp_eval(*pred, reg!(*lhs), reg!(*rhs))?;
                    set!(*dst, Value::B(c));
                    pc = take_edge!(unsafe {
                        bf.edges
                            .get_unchecked(if c { *then_edge } else { *else_edge } as usize)
                    });
                }
                Bc::Ret { val } => break reg!(*val),
                Bc::RetVoid => break Value::Unit,
            }
        };
        self.memory.stack_release(frame_mark);
        self.depth -= 1;
        self.frame_pools[fid.index()].push(regs);
        Ok(ret)
    }

    fn exec_frame_bc(
        &mut self,
        code: &CompiledModule,
        fid: FuncId,
        args: &[Value],
        cost: &mut u64,
    ) -> Result<Value> {
        self.depth += 1;
        if self.depth > self.config.max_call_depth {
            return Err(InterpError::CallDepthExceeded);
        }
        let func = self.module.function(fid);
        let bf = &code.funcs[fid.index()];
        let max_cost = self.config.max_cost;
        debug_assert_eq!(args.len(), func.params.len());
        let mut regs = self.frame_pool.pop().unwrap_or_default();
        regs.clone_from(&self.reg_templates[fid.index()]);
        regs[..args.len()].copy_from_slice(args);
        let frame_mark = self.memory.stack_top();
        self.sink.func_entered(fid, frame_mark, *cost);

        let watch = !self.watched[fid.index()].is_empty();
        let mut block = BlockId::ENTRY;
        let mut pc: usize = 0;
        self.sink.block_entered(fid, block, bf.entry_cost, *cost);
        if self.replay.is_some() {
            self.cost = *cost;
            let r = self.maybe_replay(fid, func, block, None, &mut regs);
            *cost = self.cost;
            r?;
        }

        let ret = loop {
            let inst = &bf.code[pc];
            pc += 1;
            match inst {
                Bc::Bin { op, dst, lhs, rhs } => {
                    self.heat_tick(fid, block, Opcode::Bin);
                    charge(cost, max_cost)?;
                    let v = exec_bin(*op, regs[*lhs as usize], regs[*rhs as usize])?;
                    self.set_reg(fid, watch, &mut regs, *dst, v, *cost);
                }
                Bc::Icmp {
                    pred,
                    dst,
                    lhs,
                    rhs,
                } => {
                    self.heat_tick(fid, block, Opcode::Icmp);
                    charge(cost, max_cost)?;
                    let c = icmp_eval(*pred, regs[*lhs as usize], regs[*rhs as usize])?;
                    self.set_reg(fid, watch, &mut regs, *dst, Value::B(c), *cost);
                }
                Bc::Fcmp {
                    pred,
                    dst,
                    lhs,
                    rhs,
                } => {
                    self.heat_tick(fid, block, Opcode::Fcmp);
                    charge(cost, max_cost)?;
                    let c = fcmp_eval(*pred, regs[*lhs as usize], regs[*rhs as usize])?;
                    self.set_reg(fid, watch, &mut regs, *dst, Value::B(c), *cost);
                }
                Bc::Select {
                    dst,
                    cond,
                    then_val,
                    else_val,
                } => {
                    self.heat_tick(fid, block, Opcode::Select);
                    charge(cost, max_cost)?;
                    let c = regs[*cond as usize].as_bool()?;
                    let v = regs[if c { *then_val } else { *else_val } as usize];
                    self.set_reg(fid, watch, &mut regs, *dst, v, *cost);
                }
                Bc::Cast { kind, dst, val } => {
                    self.heat_tick(fid, block, Opcode::Cast);
                    charge(cost, max_cost)?;
                    let v = cast_eval(*kind, regs[*val as usize])?;
                    self.set_reg(fid, watch, &mut regs, *dst, v, *cost);
                }
                Bc::Load { ty, dst, addr } => {
                    self.heat_tick(fid, block, Opcode::Load);
                    charge(cost, max_cost)?;
                    let a = regs[*addr as usize].as_ptr()?;
                    let bits = self.memory.read(a)?;
                    self.sink.load(a, *cost);
                    self.set_reg(
                        fid,
                        watch,
                        &mut regs,
                        *dst,
                        Value::from_bits(*ty, bits),
                        *cost,
                    );
                }
                Bc::Store { dst, val, addr } => {
                    self.heat_tick(fid, block, Opcode::Store);
                    charge(cost, max_cost)?;
                    let v = regs[*val as usize].to_bits()?;
                    let a = regs[*addr as usize].as_ptr()?;
                    self.memory.write(a, v)?;
                    self.sink.store(a, *cost);
                    self.set_reg(fid, watch, &mut regs, *dst, Value::Unit, *cost);
                }
                Bc::Gep {
                    dst,
                    base,
                    index,
                    scale,
                    offset,
                } => {
                    self.heat_tick(fid, block, Opcode::Gep);
                    charge(cost, max_cost)?;
                    let a = gep_addr(regs[*base as usize], regs[*index as usize], *scale, *offset)?;
                    self.set_reg(fid, watch, &mut regs, *dst, Value::P(a), *cost);
                }
                Bc::GepLoad {
                    ty,
                    gep_dst,
                    dst,
                    base,
                    index,
                    scale,
                    offset,
                } => {
                    // Fused, but each half keeps its own tick + charge so
                    // cost stamps and fuel-exhaustion points are exact.
                    self.heat_tick(fid, block, Opcode::Gep);
                    charge(cost, max_cost)?;
                    let a = gep_addr(regs[*base as usize], regs[*index as usize], *scale, *offset)?;
                    self.set_reg(fid, watch, &mut regs, *gep_dst, Value::P(a), *cost);
                    self.heat_tick(fid, block, Opcode::Load);
                    charge(cost, max_cost)?;
                    let bits = self.memory.read(a)?;
                    self.sink.load(a, *cost);
                    self.set_reg(
                        fid,
                        watch,
                        &mut regs,
                        *dst,
                        Value::from_bits(*ty, bits),
                        *cost,
                    );
                }
                Bc::GepStore {
                    gep_dst,
                    dst,
                    val,
                    base,
                    index,
                    scale,
                    offset,
                } => {
                    // Fused, but each half keeps its own tick + charge so
                    // cost stamps and fuel-exhaustion points are exact.
                    self.heat_tick(fid, block, Opcode::Gep);
                    charge(cost, max_cost)?;
                    let a = gep_addr(regs[*base as usize], regs[*index as usize], *scale, *offset)?;
                    self.set_reg(fid, watch, &mut regs, *gep_dst, Value::P(a), *cost);
                    self.heat_tick(fid, block, Opcode::Store);
                    charge(cost, max_cost)?;
                    let v = regs[*val as usize].to_bits()?;
                    self.memory.write(a, v)?;
                    self.sink.store(a, *cost);
                    self.set_reg(fid, watch, &mut regs, *dst, Value::Unit, *cost);
                }
                Bc::BinBin {
                    op1,
                    dst1,
                    lhs1,
                    rhs1,
                    op2,
                    dst2,
                    lhs2,
                    rhs2,
                } => {
                    self.heat_tick(fid, block, Opcode::Bin);
                    charge(cost, max_cost)?;
                    let v = exec_bin(*op1, regs[*lhs1 as usize], regs[*rhs1 as usize])?;
                    self.set_reg(fid, watch, &mut regs, *dst1, v, *cost);
                    self.heat_tick(fid, block, Opcode::Bin);
                    charge(cost, max_cost)?;
                    let v = exec_bin(*op2, regs[*lhs2 as usize], regs[*rhs2 as usize])?;
                    self.set_reg(fid, watch, &mut regs, *dst2, v, *cost);
                }
                Bc::StoreBin {
                    sdst,
                    val,
                    addr,
                    op,
                    dst,
                    lhs,
                    rhs,
                } => {
                    // Fused, but each half keeps its own tick + charge so
                    // cost stamps and fuel-exhaustion points are exact.
                    self.heat_tick(fid, block, Opcode::Store);
                    charge(cost, max_cost)?;
                    let v = regs[*val as usize].to_bits()?;
                    let a = regs[*addr as usize].as_ptr()?;
                    self.memory.write(a, v)?;
                    self.sink.store(a, *cost);
                    self.set_reg(fid, watch, &mut regs, *sdst, Value::Unit, *cost);
                    self.heat_tick(fid, block, Opcode::Bin);
                    charge(cost, max_cost)?;
                    let v = exec_bin(*op, regs[*lhs as usize], regs[*rhs as usize])?;
                    self.set_reg(fid, watch, &mut regs, *dst, v, *cost);
                }
                Bc::LoadBin {
                    ty,
                    ldst,
                    addr,
                    op,
                    dst,
                    lhs,
                    rhs,
                } => {
                    // Fused, but each half keeps its own tick + charge so
                    // cost stamps and fuel-exhaustion points are exact.
                    self.heat_tick(fid, block, Opcode::Load);
                    charge(cost, max_cost)?;
                    let a = regs[*addr as usize].as_ptr()?;
                    let bits = self.memory.read(a)?;
                    self.sink.load(a, *cost);
                    self.set_reg(
                        fid,
                        watch,
                        &mut regs,
                        *ldst,
                        Value::from_bits(*ty, bits),
                        *cost,
                    );
                    self.heat_tick(fid, block, Opcode::Bin);
                    charge(cost, max_cost)?;
                    let v = exec_bin(*op, regs[*lhs as usize], regs[*rhs as usize])?;
                    self.set_reg(fid, watch, &mut regs, *dst, v, *cost);
                }
                Bc::BinBr {
                    op,
                    dst,
                    lhs,
                    rhs,
                    edge,
                } => {
                    self.heat_tick(fid, block, Opcode::Bin);
                    charge(cost, max_cost)?;
                    let v = exec_bin(*op, regs[*lhs as usize], regs[*rhs as usize])?;
                    self.set_reg(fid, watch, &mut regs, *dst, v, *cost);
                    self.heat_tick(fid, block, Opcode::Br);
                    charge(cost, max_cost)?;
                    let e = &bf.edges[*edge as usize];
                    self.take_edge(fid, func, block, e, &mut regs, cost)?;
                    block = e.block;
                    pc = e.target as usize;
                }
                Bc::Alloca { dst, words } => {
                    self.heat_tick(fid, block, Opcode::Alloca);
                    charge(cost, max_cost)?;
                    let base = self.memory.stack_alloc(u64::from(*words))?;
                    self.set_reg(fid, watch, &mut regs, *dst, Value::P(base), *cost);
                }
                Bc::CallFunc { dst, func, args } => {
                    self.heat_tick(fid, block, Opcode::Call);
                    charge(cost, max_cost)?;
                    let argv: Vec<Value> = args.iter().map(|&a| regs[a as usize]).collect();
                    self.cost = *cost;
                    let v = self.call_function_bc(code, FuncId(*func), &argv);
                    *cost = self.cost;
                    let v = v?;
                    self.set_reg(fid, watch, &mut regs, *dst, v, *cost);
                }
                Bc::CallBuiltin { dst, builtin, args } => {
                    self.heat_tick(fid, block, Opcode::Call);
                    charge(cost, max_cost)?;
                    let argv: Vec<Value> = args.iter().map(|&a| regs[a as usize]).collect();
                    self.sink.builtin_called(fid, *builtin, *cost);
                    self.cost = *cost;
                    let v = self.exec_builtin(*builtin, &argv);
                    *cost = self.cost;
                    let v = v?;
                    self.set_reg(fid, watch, &mut regs, *dst, v, *cost);
                }
                Bc::Br { edge } => {
                    self.heat_tick(fid, block, Opcode::Br);
                    charge(cost, max_cost)?;
                    let e = &bf.edges[*edge as usize];
                    self.take_edge(fid, func, block, e, &mut regs, cost)?;
                    block = e.block;
                    pc = e.target as usize;
                }
                Bc::CondBr {
                    cond,
                    then_edge,
                    else_edge,
                } => {
                    self.heat_tick(fid, block, Opcode::CondBr);
                    charge(cost, max_cost)?;
                    let c = regs[*cond as usize].as_bool()?;
                    let e = &bf.edges[if c { *then_edge } else { *else_edge } as usize];
                    self.take_edge(fid, func, block, e, &mut regs, cost)?;
                    block = e.block;
                    pc = e.target as usize;
                }
                Bc::IcmpBr {
                    pred,
                    dst,
                    lhs,
                    rhs,
                    then_edge,
                    else_edge,
                } => {
                    // Fused, with per-constituent ticks and charges.
                    self.heat_tick(fid, block, Opcode::Icmp);
                    charge(cost, max_cost)?;
                    let c = icmp_eval(*pred, regs[*lhs as usize], regs[*rhs as usize])?;
                    self.set_reg(fid, watch, &mut regs, *dst, Value::B(c), *cost);
                    self.heat_tick(fid, block, Opcode::CondBr);
                    charge(cost, max_cost)?;
                    let e = &bf.edges[if c { *then_edge } else { *else_edge } as usize];
                    self.take_edge(fid, func, block, e, &mut regs, cost)?;
                    block = e.block;
                    pc = e.target as usize;
                }
                Bc::Ret { val } => {
                    self.heat_tick(fid, block, Opcode::Ret);
                    charge(cost, max_cost)?;
                    break regs[*val as usize];
                }
                Bc::RetVoid => {
                    self.heat_tick(fid, block, Opcode::Ret);
                    charge(cost, max_cost)?;
                    break Value::Unit;
                }
            }
        };
        self.memory.stack_release(frame_mark);
        self.sink.func_exited(fid, *cost);
        self.depth -= 1;
        self.frame_pool.push(regs);
        Ok(ret)
    }
}

/// The silent loop's edge taker: the same phi-run parallel copy as
/// `take_edge`, minus events and heat (phi resolution charges nothing,
/// so the fuel counter is untouched on both paths).
#[inline]
fn take_edge_silent(e: &Edge, regs: &mut [Value], scratch: &mut Vec<(ValueId, Value)>) {
    if e.sequential {
        for &(dst, src) in e.moves.iter() {
            // SAFETY: `compile::validate` checked every phi-move index
            // against the owning function's register-file length.
            unsafe { *regs.get_unchecked_mut(dst as usize) = *regs.get_unchecked(src as usize) };
        }
    } else {
        for &(dst, src) in e.moves.iter() {
            scratch.push((ValueId(dst), regs[src as usize]));
        }
        for &(r, v) in scratch.iter() {
            regs[r.index()] = v;
        }
        scratch.clear();
    }
}

/// The per-instruction fuel charge on the frame-local counter — plain
/// register arithmetic instead of a `self.cost` round-trip (the sole
/// reason `exec_frame_bc` threads `cost` explicitly).
#[inline]
fn charge(cost: &mut u64, max_cost: u64) -> Result<()> {
    *cost += 1;
    if *cost > max_cost {
        return Err(InterpError::FuelExhausted);
    }
    Ok(())
}
