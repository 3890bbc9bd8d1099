//! Append-only run ledger and noise-aware regression check.
//!
//! Every measuring `lpstudy bench` invocation appends one self-describing
//! JSONL record (schema `lp-trend-v1`) to `results/BENCH_trend.jsonl`:
//! bench id, scale, rep count, throughput point estimates, the machine
//! digest, key counters, and an optional free-form label. `lpstudy
//! trend` summarises a ledger; `lpstudy trend --check` compares the
//! newest record against a rolling window of prior records from the
//! *same series* (bench + scale + machine digest) and fails — exit 2 —
//! only when the new profile throughput falls below a robust noise
//! band:
//!
//! ```text
//! center = median(window)
//! spread = max(1.4826 · MAD(window), |center| · REL_FLOOR)
//! lower  = center − K · spread
//! ```
//!
//! Median/MAD instead of mean/stddev so one flaky historical rep can't
//! widen or shift the band; the relative floor keeps the band from
//! collapsing to zero width when history is eerily stable. With fewer
//! than `min_history` prior records the check passes trivially — a
//! fresh ledger must not block CI.

use crate::export::{JsonValue, JsonWriter};
use std::path::Path;

/// Schema tag of one ledger record.
pub const TREND_SCHEMA: &str = "lp-trend-v1";

/// Band half-width in robust standard deviations.
pub const BAND_K: f64 = 3.0;
/// Minimum band spread as a fraction of the center.
pub const BAND_REL_FLOOR: f64 = 0.02;
/// Default rolling-window length (prior records consulted).
pub const DEFAULT_WINDOW: usize = 8;
/// Default minimum history before the check can fail.
pub const DEFAULT_MIN_HISTORY: usize = 3;

/// Median of `values` (sorts in place; 0 when empty).
#[must_use]
pub fn median(values: &mut [f64]) -> f64 {
    if values.is_empty() {
        return 0.0;
    }
    values.sort_by(f64::total_cmp);
    let mid = values.len() / 2;
    if values.len() % 2 == 1 {
        values[mid]
    } else {
        (values[mid - 1] + values[mid]) / 2.0
    }
}

/// Median absolute deviation of `values` around `center`.
#[must_use]
pub fn mad(values: &[f64], center: f64) -> f64 {
    let mut devs: Vec<f64> = values.iter().map(|v| (v - center).abs()).collect();
    median(&mut devs)
}

/// A robust noise band around historical values.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Band {
    pub center: f64,
    pub spread: f64,
    pub lower: f64,
    pub upper: f64,
}

/// Builds the band over `history` with half-width `k` robust sigmas
/// and a relative floor on the spread. `1.4826 · MAD` estimates the
/// standard deviation for normally distributed noise.
#[must_use]
pub fn noise_band(history: &[f64], k: f64, rel_floor: f64) -> Band {
    let mut values = history.to_vec();
    let center = median(&mut values);
    let spread = (1.4826 * mad(history, center)).max(center.abs() * rel_floor);
    Band {
        center,
        spread,
        lower: center - k * spread,
        upper: center + k * spread,
    }
}

/// FNV-1a over `bytes` — stable fingerprint for machine digests.
#[must_use]
pub fn fnv1a(bytes: &[u8]) -> u64 {
    let mut hash: u64 = 0xcbf2_9ce4_8422_2325;
    for &b in bytes {
        hash ^= u64::from(b);
        hash = hash.wrapping_mul(0x0000_0100_0000_01b3);
    }
    hash
}

/// One ledger line: everything needed to interpret the measurement
/// without the commit that produced it.
#[derive(Debug, Clone, PartialEq)]
pub struct TrendRecord {
    /// Bench identifier (picked bench names joined with `+`).
    pub bench: String,
    /// Workload scale (`test` / `small` / `default`).
    pub scale: String,
    /// Execution engine the run measured (`tree` / `bc`); empty for a
    /// record written before the field existed.
    pub engine: String,
    /// Free-form `--label`, empty when not given.
    pub label: String,
    /// Repetitions the point estimates were computed over.
    pub reps: u64,
    /// Wall-clock of the run, milliseconds since the Unix epoch.
    pub unix_ms: u64,
    /// Hex digest of the machine model + host arch/OS.
    pub machine: String,
    /// Median-of-reps profiled throughput, Mi instructions/s.
    pub profile_mips: f64,
    /// Median-of-reps plain-interpreter throughput, Mi instructions/s.
    pub interp_mips: f64,
    /// `interp_mips / profile_mips`.
    pub slowdown: f64,
    /// Journal-enabled vs journal-disabled profiling overhead.
    pub journal_overhead: f64,
    /// Non-zero registry counter increments of one end-to-end pass
    /// (`lpstudy bench`'s sweep), not process totals.
    pub counters: Vec<(String, u64)>,
}

impl TrendRecord {
    /// Records belong to the same series when bench, scale, engine and
    /// machine all match — the only axes along which throughput is
    /// comparable. A record without an engine forms its own series.
    #[must_use]
    pub fn series_key(&self) -> String {
        format!(
            "{}|{}|{}|{}",
            self.bench, self.scale, self.engine, self.machine
        )
    }

    /// One JSONL line (no trailing newline).
    #[must_use]
    pub fn to_json(&self) -> String {
        let mut w = JsonWriter::compact();
        w.begin_object();
        w.key("schema");
        w.string(TREND_SCHEMA);
        w.key("bench");
        w.string(&self.bench);
        w.key("scale");
        w.string(&self.scale);
        w.key("engine");
        w.string(&self.engine);
        w.key("label");
        w.string(&self.label);
        w.key("reps");
        w.uint(self.reps);
        w.key("unix_ms");
        w.uint(self.unix_ms);
        w.key("machine");
        w.string(&self.machine);
        w.key("profile_mips");
        w.fixed(self.profile_mips, 3);
        w.key("interp_mips");
        w.fixed(self.interp_mips, 3);
        w.key("slowdown");
        w.fixed(self.slowdown, 4);
        w.key("journal_overhead");
        w.fixed(self.journal_overhead, 4);
        w.key("counters");
        w.begin_object();
        for (name, value) in &self.counters {
            w.key(name);
            w.uint(*value);
        }
        w.end_object();
        w.end_object();
        w.finish()
    }

    /// Parses one ledger line.
    ///
    /// # Errors
    /// Returns a description of the first structural problem.
    pub fn from_json(text: &str) -> Result<TrendRecord, String> {
        let doc = JsonValue::parse(text)?;
        let schema = doc
            .get("schema")
            .and_then(JsonValue::as_str)
            .ok_or("missing schema tag")?;
        if schema != TREND_SCHEMA {
            return Err(format!(
                "schema {schema:?} is not a trend record (expected {TREND_SCHEMA:?})"
            ));
        }
        let s = |k: &str| {
            doc.get(k)
                .and_then(JsonValue::as_str)
                .map(str::to_string)
                .ok_or(format!("missing field {k:?}"))
        };
        let u = |k: &str| {
            doc.get(k)
                .and_then(JsonValue::as_u64)
                .ok_or(format!("missing field {k:?}"))
        };
        let f = |k: &str| {
            doc.get(k)
                .and_then(JsonValue::as_f64)
                .ok_or(format!("missing field {k:?}"))
        };
        let mut counters = Vec::new();
        for (name, value) in doc
            .get("counters")
            .and_then(JsonValue::entries)
            .ok_or("missing counters object")?
        {
            let value = value
                .as_u64()
                .ok_or(format!("counter {name:?} is not an integer"))?;
            counters.push((name.clone(), value));
        }
        Ok(TrendRecord {
            bench: s("bench")?,
            scale: s("scale")?,
            engine: s("engine").unwrap_or_default(),
            label: s("label")?,
            reps: u("reps")?,
            unix_ms: u("unix_ms")?,
            machine: s("machine")?,
            profile_mips: f("profile_mips")?,
            interp_mips: f("interp_mips")?,
            slowdown: f("slowdown")?,
            journal_overhead: f("journal_overhead")?,
            counters,
        })
    }
}

/// Reads every record from a JSONL ledger, oldest first. A missing
/// file is an empty ledger; a malformed line is an error naming the
/// line number.
///
/// # Errors
/// Returns a description of the I/O or parse failure.
pub fn read_ledger(path: &Path) -> Result<Vec<TrendRecord>, String> {
    let text = match std::fs::read_to_string(path) {
        Ok(text) => text,
        Err(e) if e.kind() == std::io::ErrorKind::NotFound => return Ok(Vec::new()),
        Err(e) => return Err(format!("cannot read {}: {e}", path.display())),
    };
    let mut records = Vec::new();
    for (i, line) in text.lines().enumerate() {
        if line.trim().is_empty() {
            continue;
        }
        let rec = TrendRecord::from_json(line)
            .map_err(|e| format!("{} line {}: {e}", path.display(), i + 1))?;
        records.push(rec);
    }
    Ok(records)
}

/// Appends one record to the ledger, creating parent directories as
/// needed.
///
/// # Errors
/// Propagates filesystem errors.
pub fn append_ledger(path: &Path, record: &TrendRecord) -> std::io::Result<()> {
    use std::io::Write as _;
    if let Some(parent) = path.parent() {
        if !parent.as_os_str().is_empty() {
            std::fs::create_dir_all(parent)?;
        }
    }
    let mut file = std::fs::OpenOptions::new()
        .create(true)
        .append(true)
        .open(path)?;
    writeln!(file, "{}", record.to_json())
}

/// Outcome of [`check_latest`].
#[derive(Debug, Clone, PartialEq)]
pub enum Verdict {
    /// The newest point sits inside (or above) the noise band.
    Pass {
        band: Band,
        value: f64,
        history: usize,
    },
    /// Not enough prior same-series records to form a band; passes.
    InsufficientHistory { history: usize, needed: usize },
    /// The newest point fell below the band — a real regression.
    Regression {
        band: Band,
        value: f64,
        history: usize,
    },
}

impl Verdict {
    /// True unless the verdict is a regression.
    #[must_use]
    pub fn passed(&self) -> bool {
        !matches!(self, Verdict::Regression { .. })
    }

    /// One-paragraph human summary.
    #[must_use]
    pub fn render(&self) -> String {
        match self {
            Verdict::Pass {
                band,
                value,
                history,
            } => format!(
                "pass: profile {value:.2} Mi/s within band [{:.2}, {:.2}] \
                 (center {:.2}, {history} prior runs)",
                band.lower, band.upper, band.center
            ),
            Verdict::InsufficientHistory { history, needed } => format!(
                "pass: only {history} prior run(s) in this series \
                 (need {needed} to gate)"
            ),
            Verdict::Regression {
                band,
                value,
                history,
            } => format!(
                "REGRESSION: profile {value:.2} Mi/s below band lower bound \
                 {:.2} (center {:.2} over {history} prior runs)",
                band.lower, band.center
            ),
        }
    }
}

/// Judges the newest ledger record against the prior records of its
/// own series. The check is one-sided: only a *drop* in profiled
/// throughput fails — getting faster never should.
///
/// # Errors
/// Fails when the ledger is empty.
pub fn check_latest(
    records: &[TrendRecord],
    window: usize,
    min_history: usize,
) -> Result<Verdict, String> {
    let newest = records.last().ok_or("ledger is empty")?;
    let key = newest.series_key();
    let history: Vec<f64> = records[..records.len() - 1]
        .iter()
        .filter(|r| r.series_key() == key)
        .map(|r| r.profile_mips)
        .collect();
    let recent = &history[history.len().saturating_sub(window)..];
    if recent.len() < min_history {
        return Ok(Verdict::InsufficientHistory {
            history: recent.len(),
            needed: min_history,
        });
    }
    let band = noise_band(recent, BAND_K, BAND_REL_FLOOR);
    let value = newest.profile_mips;
    if value < band.lower {
        Ok(Verdict::Regression {
            band,
            value,
            history: recent.len(),
        })
    } else {
        Ok(Verdict::Pass {
            band,
            value,
            history: recent.len(),
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn rec(profile_mips: f64, bench: &str) -> TrendRecord {
        TrendRecord {
            bench: bench.to_string(),
            scale: "small".to_string(),
            engine: "bc".to_string(),
            label: String::new(),
            reps: 5,
            unix_ms: 1_700_000_000_000,
            machine: "00deadbeef00cafe".to_string(),
            profile_mips,
            interp_mips: profile_mips * 2.1,
            slowdown: 2.1,
            journal_overhead: 0.001,
            counters: vec![("loads".to_string(), 42)],
        }
    }

    #[test]
    fn median_and_mad_are_robust() {
        assert_eq!(median(&mut []), 0.0);
        assert_eq!(median(&mut [3.0]), 3.0);
        assert_eq!(median(&mut [1.0, 9.0]), 5.0);
        // One wild outlier barely moves the median and not the MAD.
        let values = [10.0, 10.2, 9.9, 10.1, 500.0];
        let mut sorted = values.to_vec();
        let m = median(&mut sorted);
        assert_eq!(m, 10.1);
        assert!((mad(&values, m) - 0.1).abs() < 1e-9);
    }

    #[test]
    fn noise_band_has_relative_floor() {
        // Perfectly stable history: MAD is 0, floor takes over.
        let band = noise_band(&[100.0, 100.0, 100.0], BAND_K, BAND_REL_FLOOR);
        assert_eq!(band.center, 100.0);
        assert_eq!(band.spread, 2.0);
        assert_eq!(band.lower, 94.0);
        assert_eq!(band.upper, 106.0);
    }

    #[test]
    fn record_round_trips_through_jsonl() {
        let r = rec(46.812, "eembc.matrix01+181.mcf");
        let line = r.to_json();
        assert!(!line.contains('\n'), "one record per line");
        crate::export::validate_json(&line).unwrap();
        let back = TrendRecord::from_json(&line).unwrap();
        assert_eq!(back.bench, r.bench);
        assert_eq!(back.engine, r.engine);
        assert_eq!(back.machine, r.machine);
        assert_eq!(back.counters, r.counters);
        assert!((back.profile_mips - r.profile_mips).abs() < 1e-3);
        assert!(TrendRecord::from_json("{\"schema\":\"lp-diff-v1\"}").is_err());
    }

    #[test]
    fn ledger_appends_and_reads_in_order() {
        let dir = std::env::temp_dir().join(format!("lp-trend-test-{}", std::process::id()));
        let path = dir.join("nested/ledger.jsonl");
        let _ = std::fs::remove_dir_all(&dir);
        assert_eq!(read_ledger(&path).unwrap().len(), 0, "missing = empty");
        for mips in [40.0, 41.0, 39.5] {
            append_ledger(&path, &rec(mips, "x")).unwrap();
        }
        let records = read_ledger(&path).unwrap();
        assert_eq!(records.len(), 3);
        assert_eq!(records[0].profile_mips, 40.0);
        assert_eq!(records[2].profile_mips, 39.5);
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn check_passes_stable_history_and_fails_ten_percent_drop() {
        // Three stable appended runs: each in turn passes the gate.
        let mut records = vec![rec(46.0, "m")];
        for mips in [46.3, 45.9, 46.1] {
            records.push(rec(mips, "m"));
        }
        for upto in 2..=records.len() {
            let v = check_latest(&records[..upto], DEFAULT_WINDOW, DEFAULT_MIN_HISTORY).unwrap();
            assert!(v.passed(), "stable run {upto} must pass: {}", v.render());
        }
        // Injected ≥10% slowdown fails.
        records.push(rec(46.0 * 0.88, "m"));
        let v = check_latest(&records, DEFAULT_WINDOW, DEFAULT_MIN_HISTORY).unwrap();
        assert!(!v.passed());
        assert!(v.render().starts_with("REGRESSION"));
        // ...but a speedup never does (one-sided).
        *records.last_mut().unwrap() = rec(46.0 * 1.5, "m");
        let v = check_latest(&records, DEFAULT_WINDOW, DEFAULT_MIN_HISTORY).unwrap();
        assert!(v.passed());
    }

    #[test]
    fn check_ignores_other_series_and_thin_history() {
        let records = vec![rec(10.0, "a"), rec(11.0, "a"), rec(99.0, "b")];
        let v = check_latest(&records, DEFAULT_WINDOW, DEFAULT_MIN_HISTORY).unwrap();
        match v {
            Verdict::InsufficientHistory { history, needed } => {
                assert_eq!(history, 0, "bench b has no prior runs");
                assert_eq!(needed, DEFAULT_MIN_HISTORY);
            }
            other => panic!("expected InsufficientHistory, got {other:?}"),
        }
        assert!(check_latest(&[], DEFAULT_WINDOW, DEFAULT_MIN_HISTORY).is_err());
    }

    #[test]
    fn series_are_split_by_engine_and_legacy_records_stand_alone() {
        // Three bc runs, then one tree run of the same bench: the tree
        // run has no history of its own, so the slower engine is not
        // judged against the faster one's band.
        let mut records: Vec<TrendRecord> =
            [36.9, 37.1, 37.0].iter().map(|&m| rec(m, "m")).collect();
        let mut tree = rec(29.2, "m");
        tree.engine = "tree".to_string();
        records.push(tree);
        let v = check_latest(&records, DEFAULT_WINDOW, DEFAULT_MIN_HISTORY).unwrap();
        assert_eq!(
            v,
            Verdict::InsufficientHistory {
                history: 0,
                needed: DEFAULT_MIN_HISTORY
            }
        );
        // A line written before the field existed parses with an empty
        // engine and so keys a series apart from both engines.
        let line = rec(29.2, "m").to_json().replace("\"engine\":\"bc\",", "");
        let legacy = TrendRecord::from_json(&line).unwrap();
        assert_eq!(legacy.engine, "");
        assert_ne!(legacy.series_key(), records[0].series_key());
        assert_ne!(legacy.series_key(), records[3].series_key());
    }

    #[test]
    fn window_limits_how_far_back_the_band_looks() {
        // Ancient slow history followed by a faster plateau: with a
        // window of 4 the band forms over the plateau only, so a point
        // back at the ancient level is flagged.
        let mut records: Vec<TrendRecord> = [20.0, 20.0, 20.0, 20.2, 40.0, 40.2, 39.8]
            .iter()
            .map(|&m| rec(m, "w"))
            .collect();
        records.push(rec(20.5, "w"));
        let v = check_latest(&records, 4, DEFAULT_MIN_HISTORY).unwrap();
        assert!(!v.passed(), "plateau-weighted band must flag the throwback");
        // A full-history window re-centers on the ancient majority.
        let v = check_latest(&records, 100, DEFAULT_MIN_HISTORY).unwrap();
        assert!(v.passed());
    }

    #[test]
    fn fnv1a_is_stable() {
        assert_eq!(fnv1a(b""), 0xcbf2_9ce4_8422_2325);
        assert_eq!(fnv1a(b"a"), 0xaf63_dc4c_8601_ec8c);
        assert_ne!(fnv1a(b"machine-a"), fnv1a(b"machine-b"));
    }
}
