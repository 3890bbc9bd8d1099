//! Serializable cross-run capture of the frozen registry.
//!
//! [`RunSnapshot`] is the complete, machine-readable state of the
//! metrics registry at one instant: every counter (zeros included, so
//! two snapshots always align field-for-field), every log2 histogram
//! with its full bucket vector, and the span/journal occupancy gauges.
//! Unlike the Chrome trace (`--trace-out`, a timeline), a snapshot is
//! meant to be **compared across runs**: `lp_obs::diff` ranks the
//! divergences between any two, and `lpstudy audit` asserts the
//! cross-counter conservation laws the pipeline implies.
//!
//! Every `lpstudy` subcommand writes one via the shared
//! `--snapshot-out PATH` flag (schema `lp-snapshot-v1`, emitted through
//! [`JsonWriter`] and read back through [`JsonValue`]).

use crate::export::{JsonValue, JsonWriter};
use crate::metrics::{Counter, Hist, Histogram};
use crate::registry::Registry;
use std::path::Path;

/// Schema tag of the snapshot document.
pub const SNAPSHOT_SCHEMA: &str = "lp-snapshot-v1";

/// A complete, serializable freeze of the registry (plus journal
/// occupancy) under stable string names — the cross-run comparison
/// unit. Counter and histogram names are the exporters' snake_case
/// names, so snapshots written by different builds still align by name.
#[derive(Debug, Clone, PartialEq)]
pub struct RunSnapshot {
    /// The process that wrote the snapshot (binary name).
    pub process: String,
    /// Every counter with its value (zeros included), export order.
    pub counters: Vec<(String, u64)>,
    /// Every histogram slot with its full state, export order.
    pub hists: Vec<(String, Histogram)>,
    /// Spans retained by the registry when the snapshot was taken.
    pub spans_retained: u64,
    /// Journal records ever recorded.
    pub journal_total: u64,
    /// Journal records retained in the ring.
    pub journal_retained: u64,
}

/// Freezes `reg` (and the process-wide journal) into a [`RunSnapshot`]
/// coherently: every counter is read in one pass and every histogram is
/// cloned under a single lock ([`Registry::hists_snapshot`]).
#[must_use]
pub fn capture(reg: &Registry, process: &str) -> RunSnapshot {
    let counters = Counter::all()
        .into_iter()
        .map(|c| (c.name(), reg.counters().get(c)))
        .collect();
    let hists = Hist::ALL
        .iter()
        .zip(reg.hists_snapshot())
        .map(|(h, hist)| (h.name().to_string(), hist))
        .collect();
    let (journal_total, journal_records) = crate::journal::global().snapshot();
    RunSnapshot {
        process: process.to_string(),
        counters,
        hists,
        spans_retained: reg.span_count() as u64,
        journal_total,
        journal_retained: journal_records.len() as u64,
    }
}

/// Captures the process-wide registry.
#[must_use]
pub fn capture_global(process: &str) -> RunSnapshot {
    capture(crate::registry::global(), process)
}

fn hist_from_json(v: &JsonValue) -> Result<Histogram, String> {
    let field = |k: &str| {
        v.get(k)
            .and_then(JsonValue::as_u64)
            .ok_or(format!("histogram missing field {k:?}"))
    };
    let mut hist = Histogram {
        buckets: [0; 64],
        count: field("count")?,
        sum: field("sum")?,
        min: field("min")?,
        max: field("max")?,
    };
    let buckets = v
        .get("buckets")
        .and_then(JsonValue::as_array)
        .ok_or("histogram missing buckets array")?;
    for pair in buckets {
        let pair = pair.as_array().ok_or("bucket entry is not a pair")?;
        let (k, n) = match pair {
            [k, n] => (
                k.as_u64().ok_or("bucket index is not an integer")?,
                n.as_u64().ok_or("bucket count is not an integer")?,
            ),
            _ => return Err("bucket entry is not a pair".to_string()),
        };
        let k = usize::try_from(k)
            .ok()
            .filter(|&k| k < 64)
            .ok_or_else(|| format!("bucket index {k} out of range"))?;
        hist.buckets[k] = n;
    }
    Ok(hist)
}

impl RunSnapshot {
    /// The value of one counter by name (0 when absent — absent and
    /// never-incremented are the same thing across format versions).
    #[must_use]
    pub fn counter(&self, name: &str) -> u64 {
        self.counters
            .iter()
            .find(|(n, _)| n == name)
            .map_or(0, |&(_, v)| v)
    }

    /// One histogram by name.
    #[must_use]
    pub fn hist(&self, name: &str) -> Option<&Histogram> {
        self.hists.iter().find(|(n, _)| n == name).map(|(_, h)| h)
    }

    /// Renders the snapshot document (compact, schema `lp-snapshot-v1`).
    /// Histogram buckets are emitted sparsely as `[index, count]` pairs;
    /// an empty histogram keeps its `u64::MAX` min verbatim (numbers are
    /// raw tokens on the read side, so the full range round-trips).
    #[must_use]
    pub fn to_json(&self) -> String {
        let mut w = JsonWriter::compact();
        w.begin_object();
        w.key("schema");
        w.string(SNAPSHOT_SCHEMA);
        w.key("process");
        w.string(&self.process);
        w.key("counters");
        w.begin_object();
        for (name, value) in &self.counters {
            w.key(name);
            w.uint(*value);
        }
        w.end_object();
        w.key("histograms");
        w.begin_object();
        for (name, hist) in &self.hists {
            w.key(name);
            w.begin_object();
            w.key("count");
            w.uint(hist.count);
            w.key("sum");
            w.uint(hist.sum);
            w.key("min");
            w.uint(hist.min);
            w.key("max");
            w.uint(hist.max);
            w.key("buckets");
            w.begin_array();
            for (k, &n) in hist.buckets.iter().enumerate() {
                if n == 0 {
                    continue;
                }
                w.begin_array();
                w.uint(k as u64);
                w.uint(n);
                w.end_array();
            }
            w.end_array();
            w.end_object();
        }
        w.end_object();
        w.key("spans_retained");
        w.uint(self.spans_retained);
        w.key("journal");
        w.begin_object();
        w.key("total");
        w.uint(self.journal_total);
        w.key("retained");
        w.uint(self.journal_retained);
        w.end_object();
        w.end_object();
        w.finish()
    }

    /// Parses a snapshot document written by [`RunSnapshot::to_json`].
    ///
    /// # Errors
    /// Returns a description of the first structural problem (bad JSON,
    /// wrong schema tag, missing or mistyped field).
    pub fn from_json(text: &str) -> Result<RunSnapshot, String> {
        let doc = JsonValue::parse(text)?;
        let schema = doc
            .get("schema")
            .and_then(JsonValue::as_str)
            .ok_or("missing schema tag")?;
        if schema != SNAPSHOT_SCHEMA {
            return Err(format!(
                "schema {schema:?} is not a snapshot (expected {SNAPSHOT_SCHEMA:?})"
            ));
        }
        let process = doc
            .get("process")
            .and_then(JsonValue::as_str)
            .ok_or("missing process name")?
            .to_string();
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
        let mut hists = Vec::new();
        for (name, value) in doc
            .get("histograms")
            .and_then(JsonValue::entries)
            .ok_or("missing histograms object")?
        {
            hists.push((name.clone(), hist_from_json(value)?));
        }
        let gauge = |v: Option<&JsonValue>, what: &str| {
            v.and_then(JsonValue::as_u64)
                .ok_or(format!("missing gauge {what}"))
        };
        Ok(RunSnapshot {
            process,
            counters,
            hists,
            spans_retained: gauge(doc.get("spans_retained"), "spans_retained")?,
            journal_total: gauge(
                doc.get("journal").and_then(|j| j.get("total")),
                "journal.total",
            )?,
            journal_retained: gauge(
                doc.get("journal").and_then(|j| j.get("retained")),
                "journal.retained",
            )?,
        })
    }

    /// Writes [`RunSnapshot::to_json`] (plus a trailing newline) to
    /// `path`.
    ///
    /// # Errors
    /// Propagates filesystem errors.
    pub fn write(&self, path: &Path) -> std::io::Result<()> {
        std::fs::write(path, self.to_json() + "\n")
    }

    /// Reads a snapshot from `path`.
    ///
    /// # Errors
    /// Returns a description of the I/O or parse failure.
    pub fn read(path: &Path) -> Result<RunSnapshot, String> {
        let text = std::fs::read_to_string(path)
            .map_err(|e| format!("cannot read {}: {e}", path.display()))?;
        RunSnapshot::from_json(&text).map_err(|e| format!("{}: {e}", path.display()))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn seeded() -> Registry {
        let reg = Registry::new();
        reg.counters().add(Counter::Loads, 1_780_096);
        reg.counters().add(Counter::StoreHits, 7);
        reg.record_hist(Hist::LoopIterations, 3);
        reg.record_hist(Hist::LoopIterations, 1000);
        reg
    }

    #[test]
    fn capture_covers_every_counter_and_hist() {
        let snap = capture(&seeded(), "test-proc");
        assert_eq!(snap.process, "test-proc");
        assert_eq!(snap.counters.len(), Counter::all().len());
        assert_eq!(snap.hists.len(), Hist::ALL.len());
        assert_eq!(snap.counter("loads"), 1_780_096);
        assert_eq!(snap.counter("store_hits"), 7);
        assert_eq!(snap.counter("evals_performed"), 0);
        assert_eq!(snap.counter("no_such_counter"), 0);
        let h = snap.hist("loop_iterations").unwrap();
        assert_eq!(h.count, 2);
        assert_eq!(h.sum, 1003);
        // Empty histograms keep their default min.
        assert_eq!(snap.hist("eval_nanos").unwrap().min, u64::MAX);
    }

    #[test]
    fn snapshot_json_round_trips_exactly() {
        let snap = capture(&seeded(), "round-trip");
        let json = snap.to_json();
        crate::export::validate_json(&json).unwrap();
        assert!(json.contains("\"schema\":\"lp-snapshot-v1\""));
        let back = RunSnapshot::from_json(&json).unwrap();
        assert_eq!(back, snap);
    }

    #[test]
    fn from_json_rejects_malformed_documents() {
        assert!(RunSnapshot::from_json("{}").is_err(), "no schema");
        assert!(
            RunSnapshot::from_json("{\"schema\":\"lp-journal-v1\"}").is_err(),
            "wrong schema"
        );
        assert!(RunSnapshot::from_json("not json").is_err());
        let no_counters = "{\"schema\":\"lp-snapshot-v1\",\"process\":\"x\"}";
        assert!(RunSnapshot::from_json(no_counters).is_err());
        let bad_bucket = "{\"schema\":\"lp-snapshot-v1\",\"process\":\"x\",\
            \"counters\":{},\"histograms\":{\"h\":{\"count\":1,\"sum\":1,\
            \"min\":1,\"max\":1,\"buckets\":[[99,1]]}},\"spans_retained\":0,\
            \"journal\":{\"total\":0,\"retained\":0}}";
        assert!(RunSnapshot::from_json(bad_bucket).is_err(), "bucket 99");
    }

    #[test]
    fn write_and_read_round_trip_through_fs() {
        let snap = capture(&seeded(), "fs");
        let path =
            std::env::temp_dir().join(format!("lp-snapshot-test-{}.json", std::process::id()));
        snap.write(&path).unwrap();
        let back = RunSnapshot::read(&path).unwrap();
        assert_eq!(back, snap);
        let _ = std::fs::remove_file(&path);
        assert!(RunSnapshot::read(&path).is_err(), "missing file");
    }
}
