//! Configuration flags (paper Table II) and execution models (§II-C).

use std::fmt;
use std::str::FromStr;

/// How reduction-accumulator LCDs are treated.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub enum ReducMode {
    /// `-reduc0`: reductions are treated as non-computable LCDs.
    Reduc0,
    /// `-reduc1`: reductions are considered parallel with no overheads
    /// (tree/linear-chain reduction hardware).
    Reduc1,
}

/// How non-computable register LCDs are treated.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub enum DepMode {
    /// `-dep0`: non-computable LCDs are not considered parallelizable.
    Dep0,
    /// `-dep1`: non-computable LCDs are lowered to memory and treated as
    /// frequent memory LCDs (HELIX synchronization).
    Dep1,
    /// `-dep2`: non-computable LCDs are accelerated using "realistic"
    /// value prediction (the four-predictor hybrid).
    Dep2,
    /// `-dep3`: non-computable LCDs are accelerated using perfect value
    /// prediction.
    Dep3,
}

/// How function calls inside loops are treated.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub enum FnMode {
    /// `-fn0`: loops with any function calls are marked sequential.
    Fn0,
    /// `-fn1`: only calls to compiler-identified pure functions are
    /// considered parallel.
    Fn1,
    /// `-fn2`: pure calls, thread-safe library calls, and instrumented
    /// user functions are considered parallel.
    Fn2,
    /// `-fn3`: all function calls can be parallelized.
    Fn3,
}

/// A full configuration triple, e.g. `reduc1-dep1-fn2`.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct Config {
    /// Reduction handling.
    pub reduc: ReducMode,
    /// Non-computable register LCD handling.
    pub dep: DepMode,
    /// Function-call handling.
    pub fnm: FnMode,
}

impl Config {
    /// Builds a configuration triple.
    #[must_use]
    pub fn new(reduc: ReducMode, dep: DepMode, fnm: FnMode) -> Config {
        Config { reduc, dep, fnm }
    }

    /// The canonical enumeration of the full flag lattice: all 32
    /// combinations in reduc-major, then dep, then fn order. Every
    /// consumer that needs "the configurations, in order" (sweeps, table
    /// emitters, benches) must go through this one constructor so row
    /// orderings can't drift between crates.
    #[must_use]
    pub fn lattice() -> Vec<Config> {
        let mut out = Vec::new();
        for reduc in [ReducMode::Reduc0, ReducMode::Reduc1] {
            for dep in [DepMode::Dep0, DepMode::Dep1, DepMode::Dep2, DepMode::Dep3] {
                for fnm in [FnMode::Fn0, FnMode::Fn1, FnMode::Fn2, FnMode::Fn3] {
                    out.push(Config::new(reduc, dep, fnm));
                }
            }
        }
        out
    }

    /// All 32 flag combinations (alias of [`Config::lattice`]).
    #[must_use]
    pub fn all() -> Vec<Config> {
        Config::lattice()
    }
}

impl fmt::Display for Config {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let r = match self.reduc {
            ReducMode::Reduc0 => 0,
            ReducMode::Reduc1 => 1,
        };
        let d = match self.dep {
            DepMode::Dep0 => 0,
            DepMode::Dep1 => 1,
            DepMode::Dep2 => 2,
            DepMode::Dep3 => 3,
        };
        let n = match self.fnm {
            FnMode::Fn0 => 0,
            FnMode::Fn1 => 1,
            FnMode::Fn2 => 2,
            FnMode::Fn3 => 3,
        };
        write!(f, "reduc{r}-dep{d}-fn{n}")
    }
}

/// Error parsing a configuration string.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ParseConfigError(String);

impl fmt::Display for ParseConfigError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "invalid configuration string {:?}", self.0)
    }
}

impl std::error::Error for ParseConfigError {}

impl FromStr for Config {
    type Err = ParseConfigError;

    fn from_str(s: &str) -> Result<Config, ParseConfigError> {
        let err = || ParseConfigError(s.to_string());
        let parts: Vec<&str> = s.split('-').collect();
        if parts.len() != 3 {
            return Err(err());
        }
        let reduc = match parts[0] {
            "reduc0" => ReducMode::Reduc0,
            "reduc1" => ReducMode::Reduc1,
            _ => return Err(err()),
        };
        let dep = match parts[1] {
            "dep0" => DepMode::Dep0,
            "dep1" => DepMode::Dep1,
            "dep2" => DepMode::Dep2,
            "dep3" => DepMode::Dep3,
            _ => return Err(err()),
        };
        let fnm = match parts[2] {
            "fn0" => FnMode::Fn0,
            "fn1" => FnMode::Fn1,
            "fn2" => FnMode::Fn2,
            "fn3" => FnMode::Fn3,
            _ => return Err(err()),
        };
        Ok(Config::new(reduc, dep, fnm))
    }
}

/// Parallel execution model (paper §II-C, Fig. 1).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum ExecModel {
    /// DOALL: any conflict abandons parallel execution of the loop.
    Doall,
    /// Partial-DOALL: conflicts restart the parallel phase; >80 %
    /// conflicting iterations marks the loop sequential.
    PartialDoall,
    /// HELIX-style generalized DOACROSS: per-LCD synchronization.
    Helix,
}

impl ExecModel {
    /// All three models.
    #[must_use]
    pub fn all() -> [ExecModel; 3] {
        [ExecModel::Doall, ExecModel::PartialDoall, ExecModel::Helix]
    }
}

impl fmt::Display for ExecModel {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let name = match self {
            ExecModel::Doall => "DOALL",
            ExecModel::PartialDoall => "Partial-DOALL",
            ExecModel::Helix => "HELIX-style",
        };
        f.write_str(name)
    }
}

/// The 14 `(model, config)` rows of the paper's Table II / Figures 2
/// and 3, bottom (most restrictive) to top.
///
/// The `Config` values are drawn from [`Config::lattice`] by their
/// lattice position (`reduc*16 + dep*4 + fn`), so the flag combinations
/// used by bench and runtime can never drift from the canonical
/// enumeration.
#[must_use]
pub fn table2_rows() -> Vec<(ExecModel, Config)> {
    use ExecModel::*;
    let lattice = Config::lattice();
    let pick = |r: usize, d: usize, n: usize| {
        let config = lattice[r * 16 + d * 4 + n];
        debug_assert_eq!(config.to_string(), format!("reduc{r}-dep{d}-fn{n}"));
        config
    };
    vec![
        (Doall, pick(0, 0, 0)),
        (Doall, pick(1, 0, 0)),
        (PartialDoall, pick(0, 0, 0)),
        (PartialDoall, pick(0, 2, 0)),
        (PartialDoall, pick(1, 2, 0)),
        (PartialDoall, pick(0, 0, 2)),
        (PartialDoall, pick(0, 2, 2)),
        (PartialDoall, pick(1, 2, 2)),
        (PartialDoall, pick(0, 3, 2)),
        (PartialDoall, pick(0, 3, 3)),
        (Helix, pick(0, 0, 2)),
        (Helix, pick(1, 0, 2)),
        (Helix, pick(0, 1, 2)),
        (Helix, pick(1, 1, 2)),
    ]
}

/// The paper's "best realistic" configurations used in Figures 4 and 5.
#[must_use]
pub fn best_pdoall() -> (ExecModel, Config) {
    (
        ExecModel::PartialDoall,
        Config::new(ReducMode::Reduc1, DepMode::Dep2, FnMode::Fn2),
    )
}

/// Best HELIX configuration (`reduc1-dep1-fn2`), the headline row.
#[must_use]
pub fn best_helix() -> (ExecModel, Config) {
    (
        ExecModel::Helix,
        Config::new(ReducMode::Reduc1, DepMode::Dep1, FnMode::Fn2),
    )
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn display_parse_round_trip() {
        for c in Config::all() {
            let s = c.to_string();
            assert_eq!(s.parse::<Config>().unwrap(), c);
        }
        assert_eq!(Config::all().len(), 32);
    }

    #[test]
    fn parse_rejects_garbage() {
        assert!("reduc2-dep0-fn0".parse::<Config>().is_err());
        assert!("reduc0-dep0".parse::<Config>().is_err());
        assert!("".parse::<Config>().is_err());
        assert!("reduc0-dep9-fn0".parse::<Config>().is_err());
    }

    #[test]
    fn table2_rows_are_fourteen_and_unique() {
        let rows = table2_rows();
        assert_eq!(rows.len(), 14);
        let mut seen = std::collections::HashSet::new();
        for r in &rows {
            assert!(seen.insert((r.0, r.1)), "duplicate row {r:?}");
        }
        // Headline row present.
        assert!(rows.contains(&best_helix()));
        assert!(rows.contains(&best_pdoall()));
    }

    #[test]
    fn lattice_position_encodes_the_flag_triple() {
        for (i, c) in Config::lattice().iter().enumerate() {
            let (r, d, n) = (i / 16, (i / 4) % 4, i % 4);
            assert_eq!(c.to_string(), format!("reduc{r}-dep{d}-fn{n}"));
        }
    }

    #[test]
    fn table2_row_order_is_pinned() {
        // Figures 2/3 print rows in this exact order; a drift here would
        // silently relabel the paper's bars.
        let rendered: Vec<String> = table2_rows()
            .iter()
            .map(|(m, c)| format!("{m} {c}"))
            .collect();
        assert_eq!(
            rendered,
            [
                "DOALL reduc0-dep0-fn0",
                "DOALL reduc1-dep0-fn0",
                "Partial-DOALL reduc0-dep0-fn0",
                "Partial-DOALL reduc0-dep2-fn0",
                "Partial-DOALL reduc1-dep2-fn0",
                "Partial-DOALL reduc0-dep0-fn2",
                "Partial-DOALL reduc0-dep2-fn2",
                "Partial-DOALL reduc1-dep2-fn2",
                "Partial-DOALL reduc0-dep3-fn2",
                "Partial-DOALL reduc0-dep3-fn3",
                "HELIX-style reduc0-dep0-fn2",
                "HELIX-style reduc1-dep0-fn2",
                "HELIX-style reduc0-dep1-fn2",
                "HELIX-style reduc1-dep1-fn2",
            ]
        );
    }

    #[test]
    fn model_display() {
        assert_eq!(ExecModel::Doall.to_string(), "DOALL");
        assert_eq!(ExecModel::PartialDoall.to_string(), "Partial-DOALL");
        assert_eq!(ExecModel::Helix.to_string(), "HELIX-style");
    }
}
