//! The always-on flight recorder.
//!
//! A bounded, preallocated ring buffer of compact fixed-width event
//! records — the post-mortem trail a crashed sweep or a hung CI job
//! leaves behind. Unlike spans (high-volume, per-phase timing) the
//! journal records *coarse lifecycle events* — a profiling run
//! completed, a sweep task finished, a panic fired — so the always-on
//! cost is one short mutex-protected write per event, far below the 3%
//! overhead budget (DESIGN.md §11 has the measurement; `lpstudy
//! bench` enforces the budget in CI).
//!
//! The journal is dumped to JSON three ways:
//!
//! - **on panic**, via the hook installed by [`arm`];
//! - **on request**, via a `SIGUSR1`-style signal ([`arm`] installs the
//!   handler; the dump is written from the next [`record`] call, never
//!   from the handler itself);
//! - **at exit**, via `lpstudy`'s shared `--flight-out PATH` flag.
//!
//! When the ring is full, new records overwrite the oldest — a flight
//! recorder keeps the *last* `JOURNAL_CAP` events, which is what a
//! post-mortem needs.

use crate::export::JsonWriter;
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Mutex, OnceLock};

/// Records retained before the ring wraps (overwriting the oldest).
pub const JOURNAL_CAP: usize = 4096;

/// What happened. The discriminant is the stable wire value.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum EventKind {
    /// An interpreter run delivered its final event tallies
    /// (`a` = total events consumed, `b` = dynamic cost at the end).
    RunCompleted,
    /// A parallel phase started (`a` = tasks, `b` = workers).
    SweepStarted,
    /// One sweep task finished (`a` = tasks done, `b` = total tasks).
    SweepTaskDone,
    /// A parallel phase finished (`a` = tasks, `b` = elapsed ms).
    SweepCompleted,
    /// Estimated time to sweep completion
    /// (`a` = tasks remaining, `b` = estimated ms remaining).
    SweepEta,
    /// A benchmark measurement finished
    /// (`a` = instructions, `b` = profile ns).
    BenchMeasured,
    /// The process panicked (recorded by the [`arm`] hook just before
    /// the dump is written).
    Panic,
    /// A dump was requested by signal.
    DumpRequested,
    /// Free-form marker for callers without a dedicated kind.
    Mark,
}

impl EventKind {
    /// Every kind, in wire order.
    pub const ALL: [EventKind; 9] = [
        EventKind::RunCompleted,
        EventKind::SweepStarted,
        EventKind::SweepTaskDone,
        EventKind::SweepCompleted,
        EventKind::SweepEta,
        EventKind::BenchMeasured,
        EventKind::Panic,
        EventKind::DumpRequested,
        EventKind::Mark,
    ];

    /// Stable snake-case name used by the JSON dump.
    #[must_use]
    pub fn name(self) -> &'static str {
        match self {
            EventKind::RunCompleted => "run_completed",
            EventKind::SweepStarted => "sweep_started",
            EventKind::SweepTaskDone => "sweep_task_done",
            EventKind::SweepCompleted => "sweep_completed",
            EventKind::SweepEta => "sweep_eta",
            EventKind::BenchMeasured => "bench_measured",
            EventKind::Panic => "panic",
            EventKind::DumpRequested => "dump_requested",
            EventKind::Mark => "mark",
        }
    }
}

/// One fixed-width journal record: a coarse millisecond timestamp (the
/// registry epoch), the recording thread, the kind, and two payload
/// words whose meaning is per-kind (see [`EventKind`]).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct JournalRecord {
    /// Milliseconds since the global registry epoch (coarse on purpose:
    /// the journal is a lifecycle trail, not a profiler).
    pub ms: u32,
    /// Dense thread id (`lp_obs::span::thread_tid`, truncated).
    pub tid: u16,
    /// What happened.
    pub kind: EventKind,
    /// First payload word.
    pub a: u64,
    /// Second payload word.
    pub b: u64,
}

impl JournalRecord {
    /// A record stamped "now" on the calling thread.
    #[must_use]
    pub fn now(kind: EventKind, a: u64, b: u64) -> JournalRecord {
        JournalRecord {
            ms: u32::try_from(crate::registry::global().now_ns() / 1_000_000).unwrap_or(u32::MAX),
            tid: crate::span::thread_tid() as u16,
            kind,
            a,
            b,
        }
    }
}

/// The ring state behind the journal's one mutex.
#[derive(Debug)]
struct Ring {
    /// Preallocated storage (`len() <= JOURNAL_CAP`; grows to cap once).
    slots: Vec<JournalRecord>,
    /// Next write position once the ring is full.
    head: usize,
    /// Total records ever written (so dumps report overwrites).
    total: u64,
}

/// A bounded event journal. One global instance lives behind
/// [`global`]; tests may build private journals.
#[derive(Debug)]
pub struct Journal {
    ring: Mutex<Ring>,
    cap: usize,
    enabled: AtomicBool,
}

impl Default for Journal {
    fn default() -> Journal {
        Journal::with_capacity(JOURNAL_CAP)
    }
}

impl Journal {
    /// A fresh journal retaining at most `cap` records.
    #[must_use]
    pub fn with_capacity(cap: usize) -> Journal {
        let cap = cap.max(1);
        Journal {
            ring: Mutex::new(Ring {
                slots: Vec::with_capacity(cap),
                head: 0,
                total: 0,
            }),
            cap,
            enabled: AtomicBool::new(true),
        }
    }

    /// Whether [`Journal::record`] currently retains anything.
    #[must_use]
    pub fn enabled(&self) -> bool {
        self.enabled.load(Ordering::Relaxed)
    }

    /// Turns recording on or off (used by `lpstudy bench` to measure the
    /// always-on overhead against a journal-free run).
    pub fn set_enabled(&self, on: bool) {
        self.enabled.store(on, Ordering::Relaxed);
    }

    /// Appends one record (overwriting the oldest when full).
    pub fn record(&self, rec: JournalRecord) {
        if !self.enabled() {
            return;
        }
        let mut ring = self.ring.lock().expect("journal poisoned");
        push(&mut ring, self.cap, rec);
    }

    /// Appends a batch of records under one lock acquisition (the
    /// per-worker merge path used by [`crate::LocalStats`]).
    pub fn record_batch(&self, batch: &[JournalRecord]) {
        if batch.is_empty() || !self.enabled() {
            return;
        }
        let mut ring = self.ring.lock().expect("journal poisoned");
        for &rec in batch {
            push(&mut ring, self.cap, rec);
        }
    }

    /// `(total_ever_recorded, retained records oldest-first)`.
    #[must_use]
    pub fn snapshot(&self) -> (u64, Vec<JournalRecord>) {
        let ring = self.ring.lock().expect("journal poisoned");
        let mut out = Vec::with_capacity(ring.slots.len());
        if ring.slots.len() == self.cap {
            out.extend_from_slice(&ring.slots[ring.head..]);
            out.extend_from_slice(&ring.slots[..ring.head]);
        } else {
            out.extend_from_slice(&ring.slots);
        }
        (ring.total, out)
    }

    /// Clears the ring (capacity is kept).
    pub fn reset(&self) {
        let mut ring = self.ring.lock().expect("journal poisoned");
        ring.slots.clear();
        ring.head = 0;
        ring.total = 0;
    }

    /// The JSON dump: schema header, recording totals, and every
    /// retained record oldest-first.
    #[must_use]
    pub fn dump_json(&self) -> String {
        let (total, records) = self.snapshot();
        let mut w = JsonWriter::compact();
        w.begin_object();
        w.key("schema");
        w.string("lp-journal-v1");
        w.key("total_recorded");
        w.uint(total);
        w.key("retained");
        w.uint(records.len() as u64);
        w.key("records");
        w.begin_array();
        for r in &records {
            w.begin_object();
            w.key("ms");
            w.uint(u64::from(r.ms));
            w.key("tid");
            w.uint(u64::from(r.tid));
            w.key("kind");
            w.string(r.kind.name());
            w.key("a");
            w.uint(r.a);
            w.key("b");
            w.uint(r.b);
            w.end_object();
        }
        w.end_array();
        w.end_object();
        w.finish()
    }

    /// Writes [`Journal::dump_json`] to `path`.
    ///
    /// # Errors
    /// Propagates filesystem errors.
    pub fn write_dump(&self, path: &Path) -> std::io::Result<()> {
        std::fs::write(path, self.dump_json())
    }
}

fn push(ring: &mut Ring, cap: usize, rec: JournalRecord) {
    ring.total += 1;
    if ring.slots.len() < cap {
        ring.slots.push(rec);
    } else {
        let head = ring.head;
        ring.slots[head] = rec;
        ring.head = (head + 1) % cap;
    }
}

/// The process-wide journal.
pub fn global() -> &'static Journal {
    static GLOBAL: OnceLock<Journal> = OnceLock::new();
    GLOBAL.get_or_init(Journal::default)
}

/// Records one event in the process-wide journal, stamped "now". Also
/// services a pending signal-requested dump (the handler itself only
/// sets a flag — see [`arm`]).
pub fn record(kind: EventKind, a: u64, b: u64) {
    service_dump_request();
    global().record(JournalRecord::now(kind, a, b));
}

/// The dump path registered by [`arm`] (panic hook + signal requests).
fn armed_path() -> &'static Mutex<Option<PathBuf>> {
    static PATH: OnceLock<Mutex<Option<PathBuf>>> = OnceLock::new();
    PATH.get_or_init(|| Mutex::new(None))
}

/// Writes the journal to the armed path, if any (best-effort: dump
/// failures must never take down the dumping process).
fn dump_to_armed_path() {
    let path = armed_path().lock().ok().and_then(|p| p.clone());
    if let Some(path) = path {
        let _ = global().write_dump(&path);
    }
}

/// If a signal requested a dump, clear the request and write the dump
/// (called from [`record`], i.e. from safe, non-handler context).
pub fn service_dump_request() {
    #[cfg(unix)]
    if sig::DUMP_REQUESTED.swap(false, Ordering::Relaxed) {
        global().record(JournalRecord::now(EventKind::DumpRequested, 0, 0));
        dump_to_armed_path();
    }
}

/// Arms post-mortem dumping to `path`: registers the path, installs a
/// panic hook that records [`EventKind::Panic`] and writes the dump
/// before delegating to the previous hook, and (on Unix) installs a
/// `SIGUSR1` handler that requests a dump from the next [`record`]
/// call. Safe to call more than once; the newest path wins.
pub fn arm(path: &Path) {
    if let Ok(mut armed) = armed_path().lock() {
        *armed = Some(path.to_path_buf());
    }
    static HOOKED: OnceLock<()> = OnceLock::new();
    HOOKED.get_or_init(|| {
        let previous = std::panic::take_hook();
        std::panic::set_hook(Box::new(move |info| {
            global().record(JournalRecord::now(EventKind::Panic, 0, 0));
            dump_to_armed_path();
            previous(info);
        }));
        #[cfg(unix)]
        sig::install();
    });
}

/// `SIGUSR1` plumbing. The handler only flips an atomic flag; the dump
/// itself is written from the next [`record`] call on a normal thread
/// (writing files from a signal handler is not async-signal-safe).
#[cfg(unix)]
mod sig {
    use std::sync::atomic::AtomicBool;

    /// Set by the handler, consumed by [`super::service_dump_request`].
    pub static DUMP_REQUESTED: AtomicBool = AtomicBool::new(false);

    #[cfg(target_os = "macos")]
    const SIGUSR1: i32 = 30;
    #[cfg(not(target_os = "macos"))]
    const SIGUSR1: i32 = 10;

    extern "C" fn on_sigusr1(_signum: i32) {
        DUMP_REQUESTED.store(true, std::sync::atomic::Ordering::Relaxed);
    }

    /// Registers the handler via the libc `signal(2)` symbol directly —
    /// the workspace has no libc crate, and `signal` is in every Unix
    /// libc the toolchain links anyway.
    pub fn install() {
        extern "C" {
            fn signal(signum: i32, handler: usize) -> usize;
        }
        // SAFETY: `on_sigusr1` is an `extern "C" fn(i32)` matching the
        // sighandler_t ABI, and it only performs an atomic store, which
        // is async-signal-safe. A failed registration returns SIG_ERR,
        // which we deliberately ignore (the journal still works, only
        // signal-requested dumps are unavailable).
        unsafe {
            signal(SIGUSR1, on_sigusr1 as *const () as usize);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn ring_retains_last_cap_records_in_order() {
        let j = Journal::with_capacity(4);
        for i in 0..10u64 {
            j.record(JournalRecord {
                ms: i as u32,
                tid: 0,
                kind: EventKind::Mark,
                a: i,
                b: 0,
            });
        }
        let (total, recs) = j.snapshot();
        assert_eq!(total, 10);
        assert_eq!(
            recs.iter().map(|r| r.a).collect::<Vec<_>>(),
            vec![6, 7, 8, 9]
        );
        j.reset();
        assert_eq!(j.snapshot(), (0, Vec::new()));
    }

    #[test]
    fn partial_ring_dumps_in_insertion_order() {
        let j = Journal::with_capacity(8);
        j.record(JournalRecord::now(EventKind::SweepStarted, 3, 2));
        j.record(JournalRecord::now(EventKind::SweepCompleted, 3, 17));
        let (total, recs) = j.snapshot();
        assert_eq!(total, 2);
        assert_eq!(recs[0].kind, EventKind::SweepStarted);
        assert_eq!(recs[1].kind, EventKind::SweepCompleted);
        assert_eq!((recs[1].a, recs[1].b), (3, 17));
    }

    #[test]
    fn disabled_journal_records_nothing() {
        let j = Journal::with_capacity(4);
        j.set_enabled(false);
        j.record(JournalRecord::now(EventKind::Mark, 1, 2));
        j.record_batch(&[JournalRecord::now(EventKind::Mark, 3, 4)]);
        assert_eq!(j.snapshot().0, 0);
        j.set_enabled(true);
        j.record(JournalRecord::now(EventKind::Mark, 1, 2));
        assert_eq!(j.snapshot().0, 1);
    }

    #[test]
    fn batch_appends_under_one_lock_and_wraps() {
        let j = Journal::with_capacity(3);
        let batch: Vec<JournalRecord> = (0..5)
            .map(|i| JournalRecord {
                ms: 0,
                tid: 1,
                kind: EventKind::SweepTaskDone,
                a: i,
                b: 5,
            })
            .collect();
        j.record_batch(&batch);
        let (total, recs) = j.snapshot();
        assert_eq!(total, 5);
        assert_eq!(recs.iter().map(|r| r.a).collect::<Vec<_>>(), vec![2, 3, 4]);
    }

    #[test]
    fn dump_is_valid_json_with_schema_and_kinds() {
        let j = Journal::with_capacity(4);
        j.record(JournalRecord {
            ms: 12,
            tid: 3,
            kind: EventKind::RunCompleted,
            a: 100,
            b: 200,
        });
        let dump = j.dump_json();
        crate::export::validate_json(&dump).unwrap();
        assert!(dump.contains("\"schema\":\"lp-journal-v1\""));
        assert!(dump.contains("\"total_recorded\":1"));
        assert!(dump.contains("\"kind\":\"run_completed\""));
        assert!(dump.contains("\"a\":100"));
    }

    #[test]
    fn kind_names_are_unique() {
        let names: std::collections::HashSet<&str> =
            EventKind::ALL.iter().map(|k| k.name()).collect();
        assert_eq!(names.len(), EventKind::ALL.len());
    }

    #[test]
    fn write_dump_round_trips_through_fs() {
        let j = Journal::with_capacity(4);
        j.record(JournalRecord::now(EventKind::Mark, 7, 8));
        let path =
            std::env::temp_dir().join(format!("lp-journal-test-{}.json", std::process::id()));
        j.write_dump(&path).unwrap();
        let text = std::fs::read_to_string(&path).unwrap();
        assert_eq!(text, j.dump_json());
        let _ = std::fs::remove_file(&path);
    }
}
