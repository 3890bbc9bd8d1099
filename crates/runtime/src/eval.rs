//! The limit-study evaluator.
//!
//! Consumes a [`Profile`] and computes, for one `(execution model,
//! configuration)` pair, the achievable speedup in the limit. The dynamic
//! region tree is folded bottom-up:
//!
//! - each region's **best cost** is its serial cost minus the savings of
//!   its children (nested, SWARM/T4-style multi-level parallelism: inner
//!   loop savings shrink the enclosing iteration lengths before the outer
//!   loop's model is applied — the paper's "propagated up to the nest of
//!   parent loops and functions");
//! - a loop instance then applies the execution-model cost over its
//!   adjusted iteration lengths and keeps `min(serial, parallel)`;
//! - loops whose modelled parallel cost does not beat serial are "marked
//!   serial", exactly as §III-B prescribes.
//!
//! Coverage is the fraction of dynamic IR instructions executing inside
//! loops judged parallel (Fig. 5); Amdahl makes it the other half of the
//! speedup story.

use crate::config::{Config, DepMode, ExecModel, FnMode, ReducMode};
use crate::explain::{AttrCollector, Attribution, LimiterKind};
use crate::model::{doall_cost_bounded, helix_cost_bounded, pdoall_cost_bounded};
use crate::profile::{CallClass, LoopInstance, LoopMeta, Profile, Region, RegionId, RegionKind};
use lp_analysis::LcdClass;
use lp_ir::BlockId;

/// Per-static-loop aggregation across all its dynamic instances.
#[derive(Debug, Clone, Default)]
pub struct LoopSummary {
    /// Function containing the loop.
    pub func_name: String,
    /// Header block.
    pub header: BlockId,
    /// Nesting depth (outermost = 1).
    pub depth: u32,
    /// Dynamic instances executed.
    pub instances: u64,
    /// Instances the model parallelized.
    pub parallel_instances: u64,
    /// Total iterations across instances.
    pub iterations: u64,
    /// Total raw serial cost across instances.
    pub serial_cost: u64,
    /// Total best (possibly parallel) cost across instances.
    pub best_cost: u64,
}

impl LoopSummary {
    /// Per-loop speedup across all instances.
    #[must_use]
    pub fn speedup(&self) -> f64 {
        if self.best_cost == 0 {
            1.0
        } else {
            self.serial_cost as f64 / self.best_cost as f64
        }
    }
}

/// The result of evaluating one `(model, config)` pair on one profile.
#[derive(Debug, Clone)]
pub struct EvalReport {
    /// Program (module) name.
    pub program: String,
    /// Execution model evaluated.
    pub model: ExecModel,
    /// Configuration evaluated.
    pub config: Config,
    /// Sequential cost of the whole program.
    pub total_cost: u64,
    /// Best achievable cost under the model/config.
    pub best_cost: u64,
    /// `total_cost / best_cost`.
    pub speedup: f64,
    /// Percent of dynamic IR instructions inside parallel loops.
    pub coverage: f64,
    /// Per-static-loop details (only loops that executed).
    pub loops: Vec<LoopSummary>,
}

struct RegionEval {
    serial: u64,
    best: u64,
    covered: u64,
}

/// Which limiter causes to *remove* when re-costing a loop instance.
///
/// `Lift::NONE` reproduces the normal evaluation bit-for-bit; the
/// attribution layer re-costs with a single cause lifted to compute its
/// counterfactual savings, and with [`Lift::ALL`] to compute the ideal
/// (limiter-free) cost.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
struct Lift {
    /// Ignore the `fn` flag gate (treat the loop as making no calls).
    fn_gate: bool,
    /// Drop all cross-iteration memory RAW evidence.
    mem: bool,
    /// Drop non-computable (non-reduction) register LCDs.
    reg_lcd: bool,
    /// Decouple reduction LCDs as if `reduc1` were set.
    reduction: bool,
    /// Treat every value prediction as a hit (as if `dep3`).
    value_pred: bool,
}

impl Lift {
    const NONE: Lift = Lift {
        fn_gate: false,
        mem: false,
        reg_lcd: false,
        reduction: false,
        value_pred: false,
    };
    const ALL: Lift = Lift {
        fn_gate: true,
        mem: true,
        reg_lcd: true,
        reduction: true,
        value_pred: true,
    };

    /// The single-cause lift used for a limiter's counterfactual.
    fn for_kind(kind: LimiterKind) -> Lift {
        let mut l = Lift::NONE;
        match kind {
            LimiterKind::MemoryRaw => l.mem = true,
            LimiterKind::RegisterLcd => l.reg_lcd = true,
            LimiterKind::Reduction => l.reduction = true,
            LimiterKind::ValuePrediction => l.value_pred = true,
            LimiterKind::CallGate(_) => l.fn_gate = true,
            LimiterKind::LoadImbalance => {}
        }
        l
    }
}

/// Which causes manifested while costing a loop instance (explain mode
/// only).
#[derive(Debug, Clone, Copy, Default)]
struct Causes {
    call_gate: bool,
    mem: bool,
    reg_lcd: bool,
    reduction: bool,
    value_pred: bool,
}

impl Causes {
    /// The manifested causes as limiter kinds, in taxonomy order.
    fn kinds(&self, call_class: CallClass) -> Vec<LimiterKind> {
        let mut out = Vec::new();
        if self.mem {
            out.push(LimiterKind::MemoryRaw);
        }
        if self.reg_lcd {
            out.push(LimiterKind::RegisterLcd);
        }
        if self.reduction {
            out.push(LimiterKind::Reduction);
        }
        if self.value_pred {
            out.push(LimiterKind::ValuePrediction);
        }
        if self.call_gate {
            out.push(LimiterKind::CallGate(call_class));
        }
        out
    }
}

struct Evaluator<'p> {
    profile: &'p Profile,
    point: Point,
    loop_agg: Vec<LoopSummary>,
    /// Present only in explain mode; `None` keeps the normal path free of
    /// any attribution work.
    attr: Option<AttrCollector>,
    /// The iteration-length stack. Each active loop instance owns the
    /// slice above its parent's: its raw iteration lengths are pushed
    /// once, each child's saving is subtracted in place, and the slice is
    /// truncated when the instance returns. One allocation per
    /// evaluation instead of several per loop instance.
    lens: Vec<u64>,
    /// Merge buffer for Partial-DOALL conflict lists that mispredicted
    /// iterations join; reused across instances.
    merged: Vec<u32>,
}

/// The `(model, config, options)` point being evaluated: everything the
/// per-instance cost model reads besides the instance itself.
#[derive(Clone, Copy)]
struct Point {
    model: ExecModel,
    config: Config,
    options: EvalOptions,
}

/// Evaluator behaviour knobs (ablations).
#[derive(Debug, Clone, Copy, Default)]
pub struct EvalOptions {
    /// Model classic DOACROSS instead of HELIX: a *single* synchronization
    /// point per iteration pair, placed "after the last write in the
    /// previous iteration and immediately before the first read in the
    /// next" (paper §II-C). The per-iteration skew becomes
    /// `max(producers) − min(consumers)` across ALL manifesting LCDs,
    /// whereas HELIX synchronizes each LCD independently and takes the
    /// largest individual skew.
    pub doacross_single_sync: bool,
    /// Bound the number of cores (`None` = the paper's infinite-resource
    /// limit study). Parallel regions are scheduled in in-order waves;
    /// HELIX additionally respects core-reuse: iteration `i` waits for
    /// iteration `i − cores` to finish.
    pub cores: Option<u32>,
}

/// The `fn`-flag gate: whether `fnm` forces a loop instance whose calls
/// are `class` serial.
fn gates(fnm: FnMode, class: CallClass) -> bool {
    match fnm {
        FnMode::Fn0 => class > CallClass::NoCalls,
        FnMode::Fn1 => class > CallClass::PureCalls,
        FnMode::Fn2 => class > CallClass::InstrumentedCalls,
        FnMode::Fn3 => false,
    }
}

/// Which lattice points of one profile provably get the same
/// [`EvalReport`], up to its `model` and `config` fields, so that each
/// class needs only one walk.
///
/// Three rules, each read off the per-instance cost model, hold for any
/// [`EvalOptions`]:
///
/// - **fn rule.** The `fn` flag enters only through the gate on each
///   instance's [`CallClass`]. Two `fn` modes are equivalent when they
///   gate the same subset of the call classes the profile's loop
///   instances have.
/// - **DOALL rule.** DOALL ignores `dep`: its arm forces every traced
///   phi serial whatever `dep` is, and it reads neither the HELIX skew
///   nor the mispredicted iterations.
/// - **Partial-DOALL rule.** Under Partial-DOALL `dep0` and `dep1` share
///   one arm (force the loop serial); the skews `dep1` adds are read
///   only by HELIX.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct LatticeClasses {
    /// Bit `c` is set when some loop instance's calls are
    /// `CallClass` `c`.
    call_classes: u8,
}

impl LatticeClasses {
    /// The classes of `profile`'s lattice: one scan of its regions.
    #[must_use]
    pub fn of(profile: &Profile) -> LatticeClasses {
        let call_classes = profile
            .regions
            .iter()
            .filter_map(|r| match &r.kind {
                RegionKind::Loop(inst) => Some(1u8 << inst.call_class as u8),
                RegionKind::Call { .. } => None,
            })
            .fold(0, |mask, bit| mask | bit);
        LatticeClasses { call_classes }
    }

    /// The representative of `(model, config)`'s class: the point with
    /// the lowest `dep` and then the lowest `fn` flag among its
    /// equivalents.
    #[must_use]
    pub fn representative(self, model: ExecModel, config: Config) -> (ExecModel, Config) {
        let dep = match (model, config.dep) {
            (ExecModel::Doall, _) | (ExecModel::PartialDoall, DepMode::Dep1) => DepMode::Dep0,
            (_, dep) => dep,
        };
        let gated = |fnm: FnMode| {
            [
                CallClass::NoCalls,
                CallClass::PureCalls,
                CallClass::InstrumentedCalls,
                CallClass::UnsafeCalls,
            ]
            .map(|class| self.call_classes & (1 << class as u8) != 0 && gates(fnm, class))
        };
        let fnm = [FnMode::Fn0, FnMode::Fn1, FnMode::Fn2, FnMode::Fn3]
            .into_iter()
            .find(|&fnm| gated(fnm) == gated(config.fnm))
            .unwrap_or(config.fnm);
        (model, Config { dep, fnm, ..config })
    }
}

/// Evaluates `profile` under one `(model, config)` pair.
#[must_use]
pub fn evaluate(profile: &Profile, model: ExecModel, config: Config) -> EvalReport {
    evaluate_with(profile, model, config, EvalOptions::default())
}

/// As [`evaluate`] with explicit evaluator knobs.
#[must_use]
pub fn evaluate_with(
    profile: &Profile,
    model: ExecModel,
    config: Config,
    options: EvalOptions,
) -> EvalReport {
    run(profile, model, config, options, false).0
}

/// As [`evaluate`], additionally attributing every loop's speedup gap to
/// ranked [`LimiterKind`]s with counterfactual savings (see
/// [`crate::explain`]).
#[must_use]
pub fn evaluate_explained(
    profile: &Profile,
    model: ExecModel,
    config: Config,
) -> (EvalReport, Attribution) {
    evaluate_explained_with(profile, model, config, EvalOptions::default())
}

/// As [`evaluate_explained`] with explicit evaluator knobs.
///
/// # Panics
/// Never panics; the collector is always present in explain mode.
#[must_use]
pub fn evaluate_explained_with(
    profile: &Profile,
    model: ExecModel,
    config: Config,
    options: EvalOptions,
) -> (EvalReport, Attribution) {
    let (report, attr) = run(profile, model, config, options, true);
    (report, attr.expect("explain mode always collects"))
}

fn run(
    profile: &Profile,
    model: ExecModel,
    config: Config,
    options: EvalOptions,
    explain: bool,
) -> (EvalReport, Option<Attribution>) {
    let _span = lp_obs::span!("evaluate");
    let reg = lp_obs::registry();
    let t0 = reg.now_ns();
    let mut ev = Evaluator {
        profile,
        point: Point {
            model,
            config,
            options,
        },
        // Names are attached only to the loops the report keeps.
        loop_agg: vec![LoopSummary::default(); profile.loop_meta.len()],
        attr: explain.then(|| AttrCollector::new(profile.loop_meta.len(), profile.regions.len())),
        lens: Vec::new(),
        merged: Vec::new(),
    };
    let root = ev.eval_region(profile.root());
    let total = profile.total_cost.max(1);
    let best = root.best.max(1);
    lp_obs::counters().add(lp_obs::Counter::EvalsPerformed, 1);
    reg.record_hist(lp_obs::Hist::EvalNanos, reg.now_ns().saturating_sub(t0));
    let attribution = ev.attr.take().map(|c| {
        c.finish(
            &profile.program,
            model,
            config,
            profile.total_cost,
            root.best,
            &profile.loop_meta,
        )
    });
    let report = EvalReport {
        program: profile.program.clone(),
        model,
        config,
        total_cost: profile.total_cost,
        best_cost: root.best,
        speedup: total as f64 / best as f64,
        coverage: 100.0 * root.covered as f64 / total as f64,
        loops: ev
            .loop_agg
            .into_iter()
            .zip(&profile.loop_meta)
            .filter(|(l, _)| l.instances > 0)
            .map(|(l, m)| LoopSummary {
                func_name: m.func_name.clone(),
                header: m.header,
                depth: m.depth,
                ..l
            })
            .collect(),
    };
    (report, attribution)
}

impl<'p> Evaluator<'p> {
    fn eval_region(&mut self, rid: RegionId) -> RegionEval {
        let region = self.profile.region(rid);
        match &region.kind {
            RegionKind::Call { .. } => {
                let mut saving = 0u64;
                let mut covered = 0u64;
                for &c in &region.children {
                    let ce = self.eval_region(c);
                    saving += ce.serial - ce.best;
                    covered += ce.covered;
                }
                let serial = region.serial_cost();
                RegionEval {
                    serial,
                    best: serial.saturating_sub(saving),
                    covered,
                }
            }
            RegionKind::Loop(inst) => self.eval_loop(rid, region, inst),
        }
    }

    fn eval_loop(
        &mut self,
        rid: RegionId,
        region: &'p Region,
        inst: &'p LoopInstance,
    ) -> RegionEval {
        let profile = self.profile;
        let meta = &profile.loop_meta[inst.meta];
        let n = inst.iterations();

        // Push the raw iteration lengths (iteration `k` spans
        // `iter_starts[k] .. iter_starts[k+1]`, the last one ends at the
        // region end), summing them on the way.
        let base = self.lens.len();
        let mut serial_adj = 0u64;
        if let Some((&last, head)) = inst.iter_starts.split_last() {
            let ends = inst.iter_starts[1..].iter();
            self.lens.extend(head.iter().zip(ends).map(|(&s, &e)| {
                let len = e.saturating_sub(s);
                serial_adj += len;
                len
            }));
            let len = region.end.saturating_sub(last);
            serial_adj += len;
            self.lens.push(len);
        }

        // Fold children: inner savings shrink the iteration that contained
        // them (multi-level nested parallelism). Each child works above
        // this slice of the stack and truncates back on return. Applying
        // savings one at a time with `saturating_sub` is exact:
        // `max(0, max(0, l − a) − b) = max(0, l − a − b)`. A loop with no
        // iterations has nothing for a child to shrink.
        let mut child_covered = 0u64;
        for &c in &region.children {
            let ce = self.eval_region(c);
            child_covered += ce.covered;
            if n > 0 {
                let k = (profile.region(c).parent_iter as usize).min(n - 1);
                let len = &mut self.lens[base + k];
                let shrunk = len.saturating_sub(ce.serial - ce.best);
                serial_adj -= *len - shrunk;
                *len = shrunk;
            }
        }
        let adj = &self.lens[base..];

        let mut causes = Causes::default();
        let collect = self.attr.is_some();
        let parallel_cost = self.point.loop_cost(
            meta,
            inst,
            adj,
            Lift::NONE,
            &mut self.merged,
            collect.then_some(&mut causes),
        );

        let serial_raw = region.serial_cost();
        let (best, covered, parallel) = match parallel_cost {
            Some(p) if p < serial_adj => (p, serial_raw, true),
            _ => (serial_adj, child_covered, false),
        };

        if collect {
            // Ideal: the same model with every liftable limiter removed —
            // pure wave/pipeline scheduling of the adjusted lengths. Each
            // manifested cause is then re-costed with that cause alone
            // lifted; the savings feed the conserved gap allocation.
            let ideal = self
                .point
                .loop_cost(meta, inst, adj, Lift::ALL, &mut self.merged, None)
                .map_or(serial_adj, |c| c.min(serial_adj));
            let gap = best.saturating_sub(ideal);
            let mut contribs: Vec<(LimiterKind, u64)> = Vec::new();
            if gap > 0 {
                for kind in causes.kinds(inst.call_class) {
                    let cf = self.point.loop_cost(
                        meta,
                        inst,
                        adj,
                        Lift::for_kind(kind),
                        &mut self.merged,
                        None,
                    );
                    let cf_best = match cf {
                        Some(p) if p < serial_adj => p,
                        _ => serial_adj,
                    };
                    contribs.push((kind, best.saturating_sub(cf_best)));
                }
            }
            let attr = self.attr.as_mut().expect("collect implies a collector");
            attr.record_instance(
                inst.meta,
                rid.index(),
                serial_raw,
                serial_adj,
                best,
                ideal,
                parallel,
                &contribs,
            );
        }
        self.lens.truncate(base);

        let agg = &mut self.loop_agg[inst.meta];
        agg.instances += 1;
        agg.parallel_instances += u64::from(parallel);
        agg.iterations += n as u64;
        agg.serial_cost += serial_raw;
        agg.best_cost += best;

        RegionEval {
            serial: serial_raw,
            best,
            covered,
        }
    }
}

impl Point {
    /// Models the parallel cost of one loop instance over its adjusted
    /// iteration lengths, with the causes named in `lift` removed.
    /// [`Lift::NONE`] reproduces the normal evaluation bit-for-bit;
    /// `causes` (explain mode, passed only on the un-lifted run) records
    /// which limiter causes manifested.
    fn loop_cost(
        &self,
        meta: &LoopMeta,
        inst: &LoopInstance,
        adj: &[u64],
        lift: Lift,
        merged: &mut Vec<u32>,
        mut causes: Option<&mut Causes>,
    ) -> Option<u64> {
        let gated = gates(self.config.fnm, inst.call_class);
        let mut forced = gated && !lift.fn_gate;
        let single_sync = self.options.doacross_single_sync;
        let mem = !lift.mem && inst.mem_edges > 0;
        if let Some(c) = causes.as_deref_mut() {
            c.call_gate = gated;
            c.mem = match self.model {
                ExecModel::Doall | ExecModel::PartialDoall => !inst.mem_conflict_iters.is_empty(),
                ExecModel::Helix => inst.mem_max_skew > 0 || (single_sync && inst.mem_edges > 0),
            };
        }

        // Register-LCD handling. Under the DOACROSS ablation the loop
        // gets one sync point: track the producer/consumer extremes
        // across all LCD sources instead of per-LCD skews. A register
        // LCD is produced at offset `max_def_rel` and consumed at the
        // next iteration's start (offset 0).
        let mut delta = if lift.mem { 0 } else { inst.mem_max_skew };
        let mut max_producer = if mem { inst.mem_max_producer_rel } else { 0 };
        let mut reg_lcd_synced = false;
        merged.clear();
        for (idx, (_, class)) in meta.traced_phis.iter().enumerate() {
            let is_reduction = matches!(class, LcdClass::Reduction(_));
            if is_reduction && self.config.reduc == ReducMode::Reduc1 {
                continue; // decoupled by reduction hardware
            }
            if is_reduction && lift.reduction {
                continue; // counterfactual: reduction hardware enabled
            }
            if !is_reduction && lift.reg_lcd {
                continue; // counterfactual: the register LCD vanishes
            }
            // A reduction phi blames its reduction-ness; otherwise a
            // dep2 residual is a prediction problem, and a hard
            // serialization or sync under dep0/dep1 is the LCD itself.
            let blame = |causes: &mut Option<&mut Causes>, predicted: bool| {
                if let Some(c) = causes.as_deref_mut() {
                    if is_reduction {
                        c.reduction = true;
                    } else if predicted {
                        c.value_pred = true;
                    } else {
                        c.reg_lcd = true;
                    }
                }
            };
            let predicted_perfect = lift.value_pred && !is_reduction;
            let lcd = &inst.lcds[idx];
            match (self.model, self.config.dep) {
                // DOALL supports no non-computable register LCDs at all
                // (dep1..dep3 are incompatible with DOALL, §IV).
                (ExecModel::Doall, _) => {
                    forced = true;
                    blame(&mut causes, false);
                }
                // Perfect value prediction removes the LCD entirely.
                (_, DepMode::Dep3) => {}
                (ExecModel::PartialDoall, DepMode::Dep0 | DepMode::Dep1) => {
                    forced = true;
                    blame(&mut causes, false);
                }
                (ExecModel::PartialDoall, DepMode::Dep2) => {
                    if !lcd.mispredict_iters.is_empty() {
                        blame(&mut causes, true);
                        if !predicted_perfect {
                            merged.extend_from_slice(&lcd.mispredict_iters);
                        }
                    }
                }
                (ExecModel::Helix, DepMode::Dep0) => {
                    forced = true;
                    blame(&mut causes, false);
                }
                (ExecModel::Helix, DepMode::Dep1) => {
                    delta = delta.max(lcd.max_def_rel);
                    max_producer = max_producer.max(lcd.max_def_rel);
                    reg_lcd_synced = true;
                    blame(&mut causes, false);
                }
                (ExecModel::Helix, DepMode::Dep2) => {
                    // Predicted iterations run free; any mispredicts fall
                    // back to synchronization on this LCD.
                    if !lcd.mispredict_iters.is_empty() {
                        blame(&mut causes, true);
                        if !predicted_perfect {
                            delta = delta.max(lcd.max_def_rel);
                            max_producer = max_producer.max(lcd.max_def_rel);
                            reg_lcd_synced = true;
                        }
                    }
                }
            }
        }

        if single_sync && (mem || reg_lcd_synced) {
            // Register-LCD consumers sit at iteration start (offset 0);
            // memory consumers at their recorded earliest offset.
            let min_consumer = if reg_lcd_synced {
                0
            } else {
                inst.mem_min_consumer_rel
            };
            delta = delta.max(max_producer.saturating_sub(min_consumer));
        }
        let cores = self.options.cores;
        match self.model {
            ExecModel::Doall => {
                let has_conflicts = !lift.mem && !inst.mem_conflict_iters.is_empty();
                doall_cost_bounded(adj, has_conflicts, forced, cores)
            }
            ExecModel::PartialDoall => {
                // The memory conflicts are already sorted and deduplicated;
                // only mispredicted iterations joining them need a merge.
                let mem_conflicts: &[u32] = if lift.mem {
                    &[]
                } else {
                    &inst.mem_conflict_iters
                };
                debug_assert!(mem_conflicts.windows(2).all(|w| w[0] < w[1]));
                let conflicts = if merged.is_empty() {
                    mem_conflicts
                } else {
                    merged.extend_from_slice(mem_conflicts);
                    merged.sort_unstable();
                    merged.dedup();
                    &merged[..]
                };
                pdoall_cost_bounded(adj, conflicts, forced, cores)
            }
            ExecModel::Helix => helix_cost_bounded(adj, delta, forced, cores),
        }
    }
}

#[cfg(test)]
#[path = "../tests/support/eval_reference.rs"]
mod reference;

#[cfg(test)]
mod tests {
    use super::reference::reference_evaluate;
    use super::*;
    use crate::config::{Config, DepMode, ExecModel, FnMode, ReducMode};
    use crate::tracker::profile_module;
    use lp_analysis::analyze_module;
    use lp_interp::MachineConfig;
    use lp_ir::builder::FunctionBuilder;
    use lp_ir::{Global, IcmpPred, Module, Type};

    fn cfg(reduc: ReducMode, dep: DepMode, fnm: FnMode) -> Config {
        Config::new(reduc, dep, fnm)
    }

    fn profile_of(m: &Module) -> Profile {
        let analysis = analyze_module(m);
        let (p, _) = profile_module(m, &analysis, &[], MachineConfig::default()).unwrap();
        p
    }

    /// DOALL-able loop: disjoint stores, computable IV only.
    fn doall_program(n: i64) -> Module {
        let mut m = Module::new("doall");
        let g = m.add_global(Global::zeroed("a", n as u64 + 1));
        let mut fb = FunctionBuilder::new("main", &[], Type::I64);
        let nn = fb.const_i64(n);
        let zero = fb.const_i64(0);
        let one = fb.const_i64(1);
        let base = fb.global_addr(g);
        let header = fb.create_block("header");
        let body = fb.create_block("body");
        let exit = fb.create_block("exit");
        fb.br(header);
        fb.switch_to(header);
        let i = fb.phi(Type::I64);
        let c = fb.icmp(IcmpPred::Slt, i, nn);
        fb.cond_br(c, body, exit);
        fb.switch_to(body);
        let addr = fb.gep(base, i, 8, 0);
        let v = fb.mul(i, i);
        let v2 = fb.add(v, one);
        let v3 = fb.mul(v2, v2);
        fb.store(v3, addr);
        let i2 = fb.add(i, one);
        fb.add_phi_incoming(i, lp_ir::BlockId::ENTRY, zero);
        fb.add_phi_incoming(i, body, i2);
        fb.br(header);
        fb.switch_to(exit);
        fb.ret(Some(zero));
        m.add_function(fb.finish().unwrap());
        m
    }

    /// Serial pointer-chase-like loop: a non-computable register LCD whose
    /// producer sits early in the iteration, plus filler work after it.
    fn register_lcd_program(n: i64) -> Module {
        let mut m = Module::new("reglcd");
        let g = m.add_global(Global::zeroed("a", 4096));
        let mut fb = FunctionBuilder::new("main", &[], Type::I64);
        let nn = fb.const_i64(n);
        let zero = fb.const_i64(0);
        let one = fb.const_i64(1);
        let mask = fb.const_i64(1023);
        let base = fb.global_addr(g);
        let header = fb.create_block("header");
        let body = fb.create_block("body");
        let exit = fb.create_block("exit");
        fb.br(header);
        fb.switch_to(header);
        let i = fb.phi(Type::I64);
        let x = fb.phi(Type::I64); // non-computable: x' = (x*1103515245+12345) & mask
        let c = fb.icmp(IcmpPred::Slt, i, nn);
        fb.cond_br(c, body, exit);
        fb.switch_to(body);
        let mul = fb.const_i64(1103515245);
        let inc = fb.const_i64(12345);
        let t1 = fb.mul(x, mul);
        let t2 = fb.add(t1, inc);
        let x2 = fb.and(t2, mask); // producer: early in the iteration
                                   // Filler work AFTER the producer (uses x2 address, iteration-local
                                   // stores to disjoint slots).
        let addr = fb.gep(base, i, 8, 0);
        let mut acc = x2;
        for _ in 0..10 {
            acc = fb.mul(acc, mul);
            acc = fb.add(acc, inc);
        }
        fb.store(acc, addr);
        let i2 = fb.add(i, one);
        fb.add_phi_incoming(i, lp_ir::BlockId::ENTRY, zero);
        fb.add_phi_incoming(i, body, i2);
        fb.add_phi_incoming(x, lp_ir::BlockId::ENTRY, one);
        fb.add_phi_incoming(x, body, x2);
        fb.br(header);
        fb.switch_to(exit);
        fb.ret(Some(x));
        m.add_function(fb.finish().unwrap());
        m
    }

    #[test]
    fn doall_program_parallelizes_under_minimum_config() {
        let p = profile_of(&doall_program(200));
        let r = evaluate(
            &p,
            ExecModel::Doall,
            cfg(ReducMode::Reduc0, DepMode::Dep0, FnMode::Fn0),
        );
        assert!(
            r.speedup > 20.0,
            "DOALL loop should approach num_iter speedup, got {}",
            r.speedup
        );
        assert!(r.coverage > 80.0, "coverage {}", r.coverage);
        assert_eq!(r.loops.len(), 1);
        assert_eq!(r.loops[0].parallel_instances, 1);
    }

    #[test]
    fn register_lcd_serializes_doall_but_not_helix_dep1() {
        let p = profile_of(&register_lcd_program(200));
        let doall = evaluate(
            &p,
            ExecModel::Doall,
            cfg(ReducMode::Reduc0, DepMode::Dep0, FnMode::Fn0),
        );
        assert!(
            doall.speedup < 1.01,
            "DOALL must serialize: {}",
            doall.speedup
        );
        let helix0 = evaluate(
            &p,
            ExecModel::Helix,
            cfg(ReducMode::Reduc0, DepMode::Dep0, FnMode::Fn2),
        );
        assert!(
            helix0.speedup < 1.01,
            "HELIX dep0 must serialize: {}",
            helix0.speedup
        );
        let helix1 = evaluate(
            &p,
            ExecModel::Helix,
            cfg(ReducMode::Reduc0, DepMode::Dep1, FnMode::Fn2),
        );
        assert!(
            helix1.speedup > 1.5,
            "HELIX dep1 should overlap the post-producer work: {}",
            helix1.speedup
        );
        // dep3 (perfect prediction) under PDOALL removes the LCD entirely.
        let pd3 = evaluate(
            &p,
            ExecModel::PartialDoall,
            cfg(ReducMode::Reduc0, DepMode::Dep3, FnMode::Fn2),
        );
        assert!(pd3.speedup > helix1.speedup);
    }

    #[test]
    fn monotonicity_across_dep_relaxations_pdoall() {
        let p = profile_of(&register_lcd_program(100));
        let s = |dep| {
            evaluate(
                &p,
                ExecModel::PartialDoall,
                cfg(ReducMode::Reduc0, dep, FnMode::Fn2),
            )
            .speedup
        };
        let s0 = s(DepMode::Dep0);
        let s2 = s(DepMode::Dep2);
        let s3 = s(DepMode::Dep3);
        assert!(s0 <= s2 + 1e-9, "dep0 {s0} <= dep2 {s2}");
        assert!(s2 <= s3 + 1e-9, "dep2 {s2} <= dep3 {s3}");
    }

    #[test]
    fn explained_report_matches_plain_and_conserves_gap() {
        let p = profile_of(&register_lcd_program(120));
        for model in ExecModel::all() {
            for config in Config::all() {
                let plain = evaluate(&p, model, config);
                let (report, attr) = evaluate_explained(&p, model, config);
                assert_eq!(
                    format!("{plain:?}"),
                    format!("{report:?}"),
                    "{model} {config}: explain mode changed the report"
                );
                for l in &attr.loops {
                    assert!(l.ideal_cost <= l.best_cost, "{model} {config}");
                    assert!(l.best_cost <= l.serial_adj, "{model} {config}");
                    assert_eq!(l.gap, l.best_cost - l.ideal_cost);
                    let weight_sum: u64 = l.limiters.iter().map(|x| x.weight).sum();
                    assert_eq!(
                        weight_sum,
                        l.gap,
                        "{model} {config} {}: weights must conserve the gap",
                        l.location()
                    );
                }
            }
        }
    }

    #[test]
    fn serial_register_lcd_loop_names_its_limiter() {
        let p = profile_of(&register_lcd_program(120));
        let (_, attr) = evaluate_explained(
            &p,
            ExecModel::Doall,
            cfg(ReducMode::Reduc0, DepMode::Dep0, FnMode::Fn0),
        );
        let l = attr
            .loops
            .iter()
            .find(|l| l.gap > 0)
            .expect("serialized loop has a gap");
        assert_eq!(l.verdict(), "serial");
        let lim = &l.limiters[0];
        assert_eq!(lim.kind, LimiterKind::RegisterLcd);
        assert!(lim.weight > 0 && lim.savings > 0);
        // Program rollup sees the same dominant limiter.
        assert_eq!(attr.limiters[0].kind, LimiterKind::RegisterLcd);
        // The counterfactual is realized: HELIX dep1 lifts the sync.
        assert!(lim.unlock_factor(l.best_cost) > 1.0);
    }

    #[test]
    fn parallel_doall_loop_has_no_gap() {
        let p = profile_of(&doall_program(100));
        let (_, attr) = evaluate_explained(
            &p,
            ExecModel::Doall,
            cfg(ReducMode::Reduc0, DepMode::Dep0, FnMode::Fn0),
        );
        let l = &attr.loops[0];
        assert_eq!(l.verdict(), "parallel");
        assert_eq!(l.gap, 0, "conflict-free DOALL is already ideal");
        assert!(l.limiters.is_empty());
        // Region verdicts mark the loop region parallel.
        assert!(attr.region_parallel.iter().any(|&b| b));
    }

    #[test]
    fn fn_gate_is_attributed_to_calls() {
        // The metered-fidelity sample shape: a loop calling a callee, so
        // fn0 gates it. Reuse register_lcd_program? It makes no calls —
        // build a tiny caller loop instead.
        use lp_ir::Global;
        let mut m = Module::new("callgate");
        let g = m.add_global(Global::zeroed("a", 256));
        let mut fb = FunctionBuilder::new("leaf", &[Type::I64], Type::I64);
        let a = fb.param(0);
        let one = fb.const_i64(1);
        let r = fb.add(a, one);
        fb.ret(Some(r));
        let leaf = m.add_function(fb.finish().unwrap());
        let mut fb = FunctionBuilder::new("main", &[], Type::I64);
        let nn = fb.const_i64(50);
        let zero = fb.const_i64(0);
        let one = fb.const_i64(1);
        let base = fb.global_addr(g);
        let header = fb.create_block("header");
        let body = fb.create_block("body");
        let exit = fb.create_block("exit");
        fb.br(header);
        fb.switch_to(header);
        let i = fb.phi(Type::I64);
        let c = fb.icmp(IcmpPred::Slt, i, nn);
        fb.cond_br(c, body, exit);
        fb.switch_to(body);
        let v = fb.call(leaf, Type::I64, &[i]);
        let addr = fb.gep(base, i, 8, 0);
        fb.store(v, addr);
        let i2 = fb.add(i, one);
        fb.add_phi_incoming(i, lp_ir::BlockId::ENTRY, zero);
        fb.add_phi_incoming(i, body, i2);
        fb.br(header);
        fb.switch_to(exit);
        fb.ret(Some(zero));
        m.add_function(fb.finish().unwrap());

        let p = profile_of(&m);
        let (_, attr) = evaluate_explained(
            &p,
            ExecModel::Doall,
            cfg(ReducMode::Reduc0, DepMode::Dep0, FnMode::Fn0),
        );
        let l = attr.loops.iter().find(|l| l.gap > 0).expect("gated loop");
        assert!(
            l.limiters
                .iter()
                .any(|lim| matches!(lim.kind, LimiterKind::CallGate(_)) && lim.weight > 0),
            "fn0 gate must be attributed to calls: {:?}",
            l.limiters
        );
        // Under fn3 the gate is gone and so is its limiter.
        let (_, attr3) = evaluate_explained(
            &p,
            ExecModel::Doall,
            cfg(ReducMode::Reduc0, DepMode::Dep0, FnMode::Fn3),
        );
        for l in &attr3.loops {
            assert!(
                !l.limiters
                    .iter()
                    .any(|lim| matches!(lim.kind, LimiterKind::CallGate(_))),
                "fn3 cannot gate: {:?}",
                l.limiters
            );
        }
    }

    #[test]
    fn speedup_never_below_one() {
        let p = profile_of(&register_lcd_program(50));
        for model in ExecModel::all() {
            for config in Config::all() {
                let r = evaluate(&p, model, config);
                assert!(
                    r.speedup >= 0.999,
                    "{model} {config}: speedup {} < 1",
                    r.speedup
                );
                assert!(r.best_cost <= r.total_cost);
                assert!((0.0..=100.0).contains(&r.coverage));
            }
        }
    }

    /// One loop instance of a hand-built profile.
    struct HandLoop {
        parent: u32,
        parent_iter: u32,
        start: u64,
        end: u64,
        iter_starts: Vec<u64>,
        mem_conflict_iters: Vec<u32>,
        mem_max_skew: u64,
    }

    fn hand_loop(parent: u32, parent_iter: u32, span: (u64, u64), iter_starts: &[u64]) -> HandLoop {
        HandLoop {
            parent,
            parent_iter,
            start: span.0,
            end: span.1,
            iter_starts: iter_starts.to_vec(),
            mem_conflict_iters: Vec::new(),
            mem_max_skew: 0,
        }
    }

    /// A profile whose root is a `main` activation over `[0, total)`;
    /// `loops[i]` becomes region `i + 1` with its own static loop `i`.
    fn hand_profile(total: u64, loops: Vec<HandLoop>) -> Profile {
        use crate::profile::MetaIndex;
        use lp_analysis::LoopId;
        use lp_ir::FuncId;
        let mut regions = vec![Region {
            parent: None,
            parent_iter: 0,
            start: 0,
            end: total,
            kind: RegionKind::Call { func: FuncId(0) },
            children: Vec::new(),
        }];
        let mut loop_meta: Vec<LoopMeta> = Vec::new();
        for (i, l) in loops.into_iter().enumerate() {
            let id = RegionId(i as u32 + 1);
            regions[l.parent as usize].children.push(id);
            let depth = match &regions[l.parent as usize].kind {
                RegionKind::Loop(p) => loop_meta[p.meta].depth + 1,
                RegionKind::Call { .. } => 1,
            };
            loop_meta.push(LoopMeta {
                func: FuncId(0),
                loop_id: LoopId(i as u32),
                func_name: "main".to_string(),
                header: BlockId(i as u32 + 1),
                depth,
                traced_phis: Vec::new(),
                computable_phis: 1,
            });
            regions.push(Region {
                parent: Some(RegionId(l.parent)),
                parent_iter: l.parent_iter,
                start: l.start,
                end: l.end,
                kind: RegionKind::Loop(LoopInstance {
                    meta: i,
                    iter_starts: l.iter_starts,
                    mem_edges: l.mem_conflict_iters.len() as u64,
                    mem_conflict_iters: l.mem_conflict_iters,
                    mem_max_skew: l.mem_max_skew,
                    mem_max_producer_rel: l.mem_max_skew,
                    mem_min_consumer_rel: 0,
                    lcds: Vec::new(),
                    call_class: CallClass::NoCalls,
                }),
                children: Vec::new(),
            });
        }
        let meta_index = MetaIndex::from_meta(&loop_meta);
        Profile {
            program: "hand".to_string(),
            total_cost: total,
            regions,
            loop_meta,
            meta_index,
            func_names: vec!["main".to_string()],
        }
    }

    /// Every entry point, at every model × config and at unbounded,
    /// 1..=8 and DOACROSS options, equals the reference fold.
    fn assert_matches_reference(p: &Profile) {
        let mut options = vec![
            EvalOptions::default(),
            EvalOptions {
                doacross_single_sync: true,
                cores: None,
            },
        ];
        options.extend((1..=8).map(|c| EvalOptions {
            doacross_single_sync: c % 2 == 0,
            cores: Some(c),
        }));
        for model in ExecModel::all() {
            for config in Config::all() {
                let reference = format!(
                    "{:?}",
                    reference_evaluate(p, model, config, EvalOptions::default())
                );
                assert_eq!(format!("{:?}", evaluate(p, model, config)), reference);
                let (explained, _) = evaluate_explained(p, model, config);
                assert_eq!(format!("{explained:?}"), reference, "{model} {config}");
                for &o in &options {
                    let reference = format!("{:?}", reference_evaluate(p, model, config, o));
                    let with = evaluate_with(p, model, config, o);
                    assert_eq!(format!("{with:?}"), reference, "{model} {config} {o:?}");
                    let (explained, _) = evaluate_explained_with(p, model, config, o);
                    assert_eq!(
                        format!("{explained:?}"),
                        reference,
                        "{model} {config} {o:?}"
                    );
                }
            }
        }
    }

    fn doall_min() -> Config {
        cfg(ReducMode::Reduc0, DepMode::Dep0, FnMode::Fn0)
    }

    #[test]
    fn zero_iteration_instance_drops_its_childrens_savings() {
        // Loop 0 ran no iterations but contains loop 1 (three iterations
        // of 10). The child is still folded and counted; its saving has
        // no iteration to shrink, and the empty instance costs nothing.
        let p = hand_profile(
            100,
            vec![
                hand_loop(0, 0, (10, 60), &[]),
                hand_loop(1, 0, (20, 50), &[20, 30, 40]),
            ],
        );
        assert_matches_reference(&p);
        let r = evaluate(&p, ExecModel::Doall, doall_min());
        assert_eq!(r.loops.len(), 2);
        assert_eq!((r.loops[0].iterations, r.loops[0].best_cost), (0, 0));
        assert_eq!(
            (r.loops[1].parallel_instances, r.loops[1].best_cost),
            (1, 10)
        );
        assert_eq!(r.best_cost, 50);
        assert!((r.coverage - 30.0).abs() < 1e-12);
    }

    #[test]
    fn child_past_the_last_iteration_is_clamped_to_it() {
        // Loop 0 has iterations of 20, 20, 30; loop 1 claims parent
        // iteration 9 and saves 10, which must land on iteration 2.
        let p = hand_profile(
            100,
            vec![
                hand_loop(0, 0, (10, 80), &[10, 30, 50]),
                hand_loop(1, 9, (60, 75), &[60, 65, 70]),
            ],
        );
        assert_matches_reference(&p);
        let r = evaluate(&p, ExecModel::Doall, doall_min());
        assert_eq!(r.loops[1].best_cost, 5);
        assert_eq!(r.loops[0].best_cost, 20, "slowest iteration shrunk to 20");
        assert_eq!(r.best_cost, 100 - (70 - 20));
    }

    #[test]
    fn three_deep_nest_with_children_in_first_and_last_iterations() {
        // A (3 × 40) holds B1 in iteration 0 and B2 in iteration 2; B1
        // (3 × 10) holds C (2 × 4) in its last iteration. Each child
        // works above its parent's slice of the length stack, so B2 must
        // find A's lengths where B1 left them. A carries a memory
        // conflict at iteration 2 so the models disagree.
        let mut a = hand_loop(0, 0, (0, 120), &[0, 40, 80]);
        a.mem_conflict_iters = vec![2];
        a.mem_max_skew = 3;
        let p = hand_profile(
            200,
            vec![
                a,
                hand_loop(1, 0, (5, 35), &[5, 15, 25]),
                hand_loop(2, 2, (26, 34), &[26, 30]),
                hand_loop(1, 2, (85, 115), &[85, 95, 105]),
            ],
        );
        assert_matches_reference(&p);
        // C saves 4 in B1's last iteration (10 → 6); B1 and B2 each save
        // 20, so A's adjusted lengths are [20, 40, 20] (serial 80).
        let r = evaluate(&p, ExecModel::Doall, doall_min());
        assert_eq!(r.loops[0].best_cost, 80, "DOALL: A serial on its conflict");
        assert_eq!(r.best_cost, 200 - (120 - 80));
        let pd = evaluate(&p, ExecModel::PartialDoall, doall_min());
        assert_eq!(pd.loops[0].best_cost, 60, "phases {{20, 40}}, {{20}}");
        let hx = evaluate(&p, ExecModel::Helix, doall_min());
        assert_eq!(hx.loops[0].best_cost, 40 + 3 * 3);
    }

    #[test]
    fn generated_programs_match_the_reference_fold() {
        for p in [
            profile_of(&doall_program(40)),
            profile_of(&register_lcd_program(30)),
        ] {
            assert_matches_reference(&p);
        }
    }
}
