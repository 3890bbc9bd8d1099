//! Output checks: the committed sweep reference, the tree-walk oracle,
//! and per-pass counter deltas that must repeat exactly.

use lp_interp::{Engine, MachineConfig};
use lp_ir::Module;
use lp_obs::Counter;
use lp_runtime::export::report_row;
use lp_runtime::EvalReport;
use std::collections::{BTreeMap, HashMap};
use std::path::Path;

/// Every `(program, model, config)` point of `results/sweep.csv`.
pub struct Reference {
    rows: HashMap<String, String>,
}

/// The `program,model,config` prefix of a sweep CSV row.
fn point_key(row: &str) -> &str {
    let end = row.match_indices(',').nth(2).map_or(row.len(), |(i, _)| i);
    &row[..end]
}

impl Reference {
    pub fn load(path: &Path) -> Result<Reference, String> {
        let text = std::fs::read_to_string(path)
            .map_err(|e| format!("cannot read reference {}: {e}", path.display()))?;
        let rows: HashMap<String, String> = text
            .lines()
            .skip(1)
            .map(|row| (point_key(row).to_string(), row.to_string()))
            .collect();
        if rows.is_empty() {
            return Err(format!("reference {} holds no points", path.display()));
        }
        Ok(Reference { rows })
    }

    /// Compares one evaluated point with its reference row. The CSV
    /// rendering fixes the tolerances: costs exactly, speedup to 6 dp,
    /// coverage to 3 dp.
    pub fn check(&self, report: &EvalReport) -> Result<(), String> {
        let row = report_row(report);
        match self.rows.get(point_key(&row)) {
            Some(expected) if *expected == row => Ok(()),
            Some(expected) => Err(format!("point mismatch: got {row}, expected {expected}")),
            None => Err(format!(
                "point {} missing from the reference",
                point_key(&row)
            )),
        }
    }
}

/// Profiles `module` under the bytecode engine and under the tree-walk
/// reference oracle and byte-compares the encoded store entries.
/// Returns the program's dynamic IR cost.
pub fn tree_oracle(module: &Module) -> Result<u64, String> {
    let analysis = lp_analysis::analyze_module(module);
    let encoded = |engine: Engine| {
        let config = MachineConfig {
            engine,
            ..MachineConfig::default()
        };
        lp_runtime::profile_module(module, &analysis, &[], config)
            .map(|(profile, run)| (lp_runtime::encode_entry(&profile, &run), run.cost))
            .map_err(|e| format!("{}: {e}", module.name))
    };
    let (bc, cost) = encoded(Engine::Bc)?;
    let (tree, _) = encoded(Engine::Tree)?;
    if bc != tree {
        return Err(format!(
            "{}: bc profile differs from the tree-walk oracle",
            module.name
        ));
    }
    Ok(cost)
}

/// Counters whose value depends on timing or process history rather
/// than on the work done: dropped spans, work-stealing claims and
/// buffer-pool reuse. They are left out of the repeat checks.
const HISTORY_DEPENDENT: [Counter; 3] = [
    Counter::SpansDropped,
    Counter::SweepTasksStolen,
    Counter::BatchBytesReused,
];

/// A counter-bank reading, or the difference of two: the non-zero
/// counters by name.
#[derive(Clone, Default, PartialEq, Eq)]
pub struct Counts(BTreeMap<String, u64>);

impl Counts {
    pub fn now() -> Counts {
        Counts(lp_obs::counters().snapshot().into_iter().collect())
    }

    /// `self - before`, counter by counter.
    pub fn since(&self, before: &Counts) -> Counts {
        Counts(
            self.0
                .iter()
                .map(|(name, now)| (name, now - before.0.get(name).copied().unwrap_or(0)))
                .filter(|&(_, d)| d > 0)
                .map(|(name, d)| (name.clone(), d))
                .collect(),
        )
    }

    pub fn add(&mut self, delta: &Counts) {
        for (name, d) in &delta.0 {
            *self.0.entry(name.clone()).or_insert(0) += d;
        }
    }

    pub fn get(&self, counter: Counter) -> u64 {
        self.0.get(&counter.name()).copied().unwrap_or(0)
    }

    /// The counters that must repeat exactly, one `name value` per line.
    pub fn deterministic(&self) -> String {
        let skip: Vec<String> = HISTORY_DEPENDENT.iter().map(|c| c.name()).collect();
        self.0
            .iter()
            .filter(|(n, _)| !skip.contains(n))
            .map(|(n, v)| format!("{n} {v}\n"))
            .collect()
    }
}

/// Checks that a pass's counter deltas equal those every earlier run of
/// this very binary recorded for the same workload and pass kind: the
/// first run writes `<dir>/counts-<binary hash>-<label>.txt`, later runs
/// (any seed) compare against it.
pub fn against_ledger(dir: &Path, label: &str, counts: &Counts) -> Result<(), String> {
    let exe = std::env::current_exe()
        .and_then(std::fs::read)
        .map_err(|e| format!("cannot read the benchmark binary: {e}"))?;
    let path = dir.join(format!(
        "counts-{:016x}-{label}.txt",
        lp_obs::trend::fnv1a(&exe)
    ));
    let text = counts.deterministic();
    match std::fs::read_to_string(&path) {
        Ok(recorded) if recorded == text => Ok(()),
        Ok(recorded) => Err(format!(
            "{label}: per-pass counts differ from an earlier run ({})\nearlier:\n{recorded}now:\n{text}",
            path.display()
        )),
        Err(_) => std::fs::write(&path, text)
            .map_err(|e| format!("cannot write {}: {e}", path.display())),
    }
}
