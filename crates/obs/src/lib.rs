//! # lp-obs — observability substrate for the limit-study pipeline
//!
//! The run-time component of Loopapalooza exists to *measure* programs;
//! this crate lets the reproduction measure **itself**:
//!
//! - **Phase spans** — `let _s = span!("profile");` times a scope on the
//!   monotonic clock, nestable per thread, recorded in a global registry;
//! - **Typed counters & histograms** — events consumed, RAW conflicts,
//!   cactus-stack filter hits, per-predictor hit/miss, regions created,
//!   evaluations performed ([`Counter`], [`Hist`]);
//! - **Per-worker accumulation** — parallel phases give each worker a
//!   [`LocalStats`] that buffers counters, histograms, and its span
//!   stream privately and merges everything into the registry in one
//!   flush, so concurrent workers never race on a shared summary;
//! - **Exporters** — a human summary for stderr ([`summary`]), plain
//!   JSON ([`to_json`]), and Chrome `trace_event` JSON ([`chrome_trace`])
//!   loadable in `chrome://tracing` / Perfetto;
//! - **Cross-run layer** — a coherent, serializable registry freeze
//!   ([`snapshot`], `--snapshot-out`), a ranked two-snapshot comparison
//!   ([`diff`], `lpstudy diff`), and an append-only run ledger with a
//!   MAD-band regression check ([`trend`], `lpstudy trend --check`);
//! - **Flight recorder** — an always-on bounded ring journal of coarse
//!   lifecycle events ([`journal`]), dumped to JSON on panic, on
//!   `SIGUSR1`, or via `lpstudy`'s `--flight-out` flag;
//! - **Sampling self-profiler** — the interpreter publishes its
//!   dispatch position through a relaxed atomic and a sampler thread
//!   attributes wall time per opcode pair ([`sampler`]);
//! - **Logging** — `lp_info!` / `lp_debug!` macros filtered by the
//!   `LP_LOG` environment variable and `lpstudy`'s `--quiet` flag.
//!
//! The crate has no dependencies and never allocates on the counting
//! hot path; see DESIGN.md §7 for the measured overhead budget.
//!
//! ```
//! use lp_obs::{span, Counter};
//!
//! {
//!     let _phase = span!("parse");
//!     lp_obs::counters().add(Counter::EvalsPerformed, 1);
//! } // span recorded here
//! let trace = lp_obs::chrome_trace(lp_obs::registry(), "demo");
//! assert!(trace.contains("\"name\":\"parse\""));
//! ```

pub mod diff;
pub mod export;
pub mod journal;
pub mod local;
pub mod log;
pub mod metrics;
pub mod registry;
pub mod sampler;
pub mod snapshot;
pub mod span;
pub mod trend;

pub use diff::{Diff, DiffOptions};
pub use export::{
    chrome_trace, json_escape, summary, to_json, validate_json, write_chrome_trace, JsonValue,
    JsonWriter,
};
pub use journal::{EventKind, Journal, JournalRecord, JOURNAL_CAP};
pub use local::LocalStats;
pub use log::Level;
pub use metrics::{Counter, CounterBank, Hist, Histogram, PredictorKind, COUNTER_SLOTS};
pub use registry::{Registry, MAX_SPANS};
pub use snapshot::RunSnapshot;
pub use span::{SpanGuard, SpanRecord};
pub use trend::TrendRecord;

/// The process-wide registry (spans, counters, histograms).
#[must_use]
pub fn registry() -> &'static Registry {
    registry::global()
}

/// The process-wide counter bank (shorthand for `registry().counters()`).
#[must_use]
pub fn counters() -> &'static CounterBank {
    registry().counters()
}

/// Records one sample into a process-wide histogram.
pub fn record_hist(hist: Hist, value: u64) {
    registry().record_hist(hist, value);
}

/// Merges a locally-accumulated histogram into a process-wide slot
/// (shorthand for `registry().merge_hist(..)`).
pub fn merge_hist(hist: Hist, other: &Histogram) {
    registry().merge_hist(hist, other);
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::Mutex;

    /// Serializes tests that touch the global registry.
    static GLOBAL_LOCK: Mutex<()> = Mutex::new(());

    #[test]
    fn spans_nest_and_order() {
        let _guard = GLOBAL_LOCK.lock().unwrap();
        registry().reset();
        {
            let _outer = span!("outer");
            {
                let _inner = span!("inner");
            }
            let _sibling = span!("sibling");
        }
        let spans = registry().spans();
        let names: Vec<&str> = spans.iter().map(|s| s.name).collect();
        // Completion order: inner closes first, outer last.
        assert_eq!(names, vec!["inner", "sibling", "outer"]);
        let by_name = |n: &str| spans.iter().find(|s| s.name == n).unwrap();
        assert_eq!(by_name("outer").depth, 0);
        assert_eq!(by_name("inner").depth, 1);
        assert_eq!(by_name("sibling").depth, 1);
        // The outer span brackets both children on the clock.
        assert!(by_name("outer").start_ns <= by_name("inner").start_ns);
        assert!(by_name("outer").end_ns >= by_name("sibling").end_ns);
        registry().reset();
    }

    #[test]
    fn counters_aggregate_across_adds() {
        let _guard = GLOBAL_LOCK.lock().unwrap();
        registry().reset();
        counters().add(Counter::RawConflicts, 5);
        counters().add(Counter::RawConflicts, 7);
        counters().add(Counter::PredictorHit(PredictorKind::Hybrid), 3);
        assert_eq!(counters().get(Counter::RawConflicts), 12);
        assert_eq!(
            counters().get(Counter::PredictorHit(PredictorKind::Hybrid)),
            3
        );
        assert_eq!(
            counters().get(Counter::PredictorMiss(PredictorKind::Hybrid)),
            0
        );
        registry().reset();
    }

    #[test]
    fn doc_example_flow_produces_chrome_trace() {
        let _guard = GLOBAL_LOCK.lock().unwrap();
        registry().reset();
        {
            let _phase = span!("parse");
        }
        let trace = chrome_trace(registry(), "demo");
        assert!(trace.contains("\"name\":\"parse\""));
        registry().reset();
    }
}
