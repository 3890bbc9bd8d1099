//! A straightforward reference fold of the limit-study evaluator, for
//! tests only.
//!
//! It recomputes an [`EvalReport`] the plain way: one vector of
//! iteration lengths per loop instance from [`Profile::iter_lengths`], a
//! savings vector per instance, a cloned and re-sorted conflict list, and
//! phase vectors for Partial-DOALL. The cost rules are written out again
//! rather than shared with `lp_runtime::eval`, so a test comparing the
//! two checks the evaluator's fold and its cost rules alike.
//!
//! Included by path from `lp-runtime`'s unit tests and from the
//! workspace's `tests/props.rs`; inside `lp-runtime` the crate names
//! itself `lp_runtime` under `cfg(test)`.

use lp_analysis::LcdClass;
use lp_runtime::model::PDOALL_CONFLICT_LIMIT;
use lp_runtime::{
    CallClass, Config, DepMode, EvalOptions, EvalReport, ExecModel, FnMode, LoopInstance,
    LoopSummary, Profile, ReducMode, RegionId, RegionKind,
};

/// Evaluates `profile` under one `(model, config, options)` point.
pub fn reference_evaluate(
    profile: &Profile,
    model: ExecModel,
    config: Config,
    options: EvalOptions,
) -> EvalReport {
    let mut cx = Fold {
        profile,
        model,
        config,
        options,
        loops: profile
            .loop_meta
            .iter()
            .map(|m| LoopSummary {
                func_name: m.func_name.clone(),
                header: m.header,
                depth: m.depth,
                ..LoopSummary::default()
            })
            .collect(),
    };
    let (_, best, covered) = cx.region(profile.root());
    let total = profile.total_cost.max(1);
    EvalReport {
        program: profile.program.clone(),
        model,
        config,
        total_cost: profile.total_cost,
        best_cost: best,
        speedup: total as f64 / best.max(1) as f64,
        coverage: 100.0 * covered as f64 / total as f64,
        loops: cx.loops.into_iter().filter(|l| l.instances > 0).collect(),
    }
}

struct Fold<'p> {
    profile: &'p Profile,
    model: ExecModel,
    config: Config,
    options: EvalOptions,
    loops: Vec<LoopSummary>,
}

impl Fold<'_> {
    /// `(serial, best, covered)` of one region.
    fn region(&mut self, rid: RegionId) -> (u64, u64, u64) {
        let region = self.profile.region(rid);
        let serial = region.serial_cost();
        let RegionKind::Loop(inst) = &region.kind else {
            let (mut saving, mut covered) = (0, 0);
            for &c in &region.children {
                let (s, b, cv) = self.region(c);
                saving += s - b;
                covered += cv;
            }
            return (serial, serial.saturating_sub(saving), covered);
        };
        let lens = self.profile.iter_lengths(region, inst);
        let n = lens.len();
        let mut save = vec![0u64; n];
        let mut child_covered = 0;
        for &c in &region.children {
            let (s, b, cv) = self.region(c);
            child_covered += cv;
            // Savings go to the iteration the child started in, clamped
            // to the last; a loop with no iterations drops them.
            if n > 0 {
                save[(self.profile.region(c).parent_iter as usize).min(n - 1)] += s - b;
            }
        }
        let adj: Vec<u64> = lens
            .iter()
            .zip(&save)
            .map(|(&l, &s)| l.saturating_sub(s))
            .collect();
        let serial_adj: u64 = adj.iter().sum();
        let (best, covered, parallel) = match self.parallel_cost(inst, &adj) {
            Some(p) if p < serial_adj => (p, serial, true),
            _ => (serial_adj, child_covered, false),
        };
        let l = &mut self.loops[inst.meta];
        l.instances += 1;
        l.parallel_instances += u64::from(parallel);
        l.iterations += n as u64;
        l.serial_cost += serial;
        l.best_cost += best;
        (serial, best, covered)
    }

    /// The modelled parallel cost of one instance, `None` when serial.
    fn parallel_cost(&self, inst: &LoopInstance, adj: &[u64]) -> Option<u64> {
        let meta = &self.profile.loop_meta[inst.meta];
        let allowed = match self.config.fnm {
            FnMode::Fn0 => CallClass::NoCalls,
            FnMode::Fn1 => CallClass::PureCalls,
            FnMode::Fn2 => CallClass::InstrumentedCalls,
            FnMode::Fn3 => CallClass::UnsafeCalls,
        };
        let mut forced = inst.call_class > allowed;
        let mut conflicts = inst.mem_conflict_iters.clone();
        let mut delta = inst.mem_max_skew;
        let mut max_producer = if inst.mem_edges > 0 {
            inst.mem_max_producer_rel
        } else {
            0
        };
        let mut reg_synced = false;
        for ((_, class), lcd) in meta.traced_phis.iter().zip(&inst.lcds) {
            if matches!(class, LcdClass::Reduction(_)) && self.config.reduc == ReducMode::Reduc1 {
                continue;
            }
            match (self.model, self.config.dep) {
                (ExecModel::Doall, _) => forced = true,
                (_, DepMode::Dep3) => {}
                (_, DepMode::Dep0) | (ExecModel::PartialDoall, DepMode::Dep1) => forced = true,
                (ExecModel::PartialDoall, _) => conflicts.extend(&lcd.mispredict_iters),
                (ExecModel::Helix, dep) => {
                    if dep == DepMode::Dep1 || !lcd.mispredict_iters.is_empty() {
                        delta = delta.max(lcd.max_def_rel);
                        max_producer = max_producer.max(lcd.max_def_rel);
                        reg_synced = true;
                    }
                }
            }
        }
        if self.options.doacross_single_sync && (inst.mem_edges > 0 || reg_synced) {
            let min_consumer = if reg_synced {
                0
            } else {
                inst.mem_min_consumer_rel
            };
            delta = delta.max(max_producer.saturating_sub(min_consumer));
        }
        if forced || adj.is_empty() {
            return None;
        }
        conflicts.sort_unstable();
        conflicts.dedup();
        let cores = self.options.cores.map(|p| p.max(1) as usize);
        let waves = |lens: &[u64]| -> u64 {
            match cores {
                None => lens.iter().copied().max().unwrap_or(0),
                Some(p) => lens
                    .chunks(p)
                    .map(|w| w.iter().copied().max().unwrap_or(0))
                    .sum(),
            }
        };
        match self.model {
            ExecModel::Doall => inst.mem_conflict_iters.is_empty().then(|| waves(adj)),
            ExecModel::PartialDoall => {
                if conflicts.len() as f64 > PDOALL_CONFLICT_LIMIT * adj.len() as f64 {
                    return None;
                }
                let mut cost = 0;
                let mut phase = Vec::new();
                for (k, &len) in adj.iter().enumerate() {
                    if conflicts.binary_search(&(k as u32)).is_ok() {
                        cost += waves(&phase);
                        phase.clear();
                    }
                    phase.push(len);
                }
                Some(cost + waves(&phase))
            }
            ExecModel::Helix => match cores {
                None => Some(adj.iter().copied().max().unwrap_or(0) + delta * adj.len() as u64),
                Some(p) => {
                    let mut finish: Vec<u64> = Vec::new();
                    for (i, &len) in adj.iter().enumerate() {
                        let core_ready = if i >= p { finish[i - p] } else { 0 };
                        finish.push((i as u64 * delta).max(core_ready) + len);
                    }
                    finish.iter().copied().max()
                }
            },
        }
    }
}
