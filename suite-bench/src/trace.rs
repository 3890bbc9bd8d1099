//! The traced run's span recorder.
//!
//! Spans are taken from the benchmark's own code, around each call into
//! a layer's public function. They stay in memory while the run
//! measures and are written out once it has finished.

use crate::clock;
use lp_obs::JsonWriter;
use std::collections::BTreeMap;
use std::path::Path;
use std::time::Instant;

/// One timed call.
struct Span {
    name: &'static str,
    start_ns: u64,
    end_ns: u64,
    /// CPU time of the calling thread inside the span.
    cpu_ns: u64,
    /// Index of the enclosing span, if any.
    parent: Option<usize>,
    /// The op (one program of one pass) the span belongs to.
    op: u64,
}

/// Wall and self time summed over every span of one name.
#[derive(Default, Clone, Copy)]
pub struct Totals {
    pub count: u64,
    pub wall_ns: u64,
    /// Wall time minus the part covered by child spans.
    pub self_ns: u64,
    pub cpu_ns: u64,
}

pub struct Tracer {
    epoch: Instant,
    spans: Vec<Span>,
    open: Vec<(usize, u64)>,
    op: u64,
}

impl Tracer {
    pub fn new() -> Tracer {
        Tracer {
            epoch: Instant::now(),
            spans: Vec::new(),
            open: Vec::new(),
            op: 0,
        }
    }

    /// Tags the spans that follow with a new op id.
    pub fn next_op(&mut self) {
        self.op += 1;
    }

    fn now_ns(&self) -> u64 {
        u64::try_from(self.epoch.elapsed().as_nanos()).expect("run fits in u64 ns")
    }

    /// Opens a span that later spans nest under until [`Tracer::close`].
    pub fn open(&mut self, name: &'static str) {
        let index = self.spans.len();
        self.spans.push(Span {
            name,
            start_ns: 0,
            end_ns: 0,
            cpu_ns: 0,
            parent: self.open.last().map(|&(i, _)| i),
            op: self.op,
        });
        self.open.push((index, clock::thread_cpu_ns()));
        self.spans[index].start_ns = self.now_ns();
    }

    /// Closes the innermost open span and returns its wall time.
    pub fn close(&mut self) -> u64 {
        let end_ns = self.now_ns();
        let (index, cpu0) = self.open.pop().expect("close matches an open span");
        let span = &mut self.spans[index];
        span.end_ns = end_ns;
        span.cpu_ns = clock::thread_cpu_ns() - cpu0;
        end_ns - span.start_ns
    }

    /// Runs `f` inside a span named `name`.
    pub fn time<R>(&mut self, name: &'static str, f: impl FnOnce() -> R) -> R {
        self.open(name);
        let out = f();
        self.close();
        out
    }

    /// Per-name totals, with self time computed by subtracting each
    /// span's children from it.
    pub fn totals(&self) -> BTreeMap<&'static str, Totals> {
        let mut child_ns = vec![0u64; self.spans.len()];
        for span in &self.spans {
            if let Some(p) = span.parent {
                child_ns[p] += span.end_ns - span.start_ns;
            }
        }
        let mut out: BTreeMap<&'static str, Totals> = BTreeMap::new();
        for (span, children) in self.spans.iter().zip(child_ns) {
            let wall = span.end_ns - span.start_ns;
            let t = out.entry(span.name).or_default();
            t.count += 1;
            t.wall_ns += wall;
            t.self_ns += wall.saturating_sub(children);
            t.cpu_ns += span.cpu_ns;
        }
        out
    }

    /// Writes every span and the per-name totals as JSON.
    pub fn write(&self, path: &Path) -> Result<(), String> {
        let mut w = JsonWriter::compact();
        w.begin_object();
        w.key("totals");
        w.begin_object();
        for (name, t) in self.totals() {
            w.key(name);
            w.begin_object();
            w.key("count");
            w.uint(t.count);
            w.key("wall_ns");
            w.uint(t.wall_ns);
            w.key("self_ns");
            w.uint(t.self_ns);
            w.key("cpu_ns");
            w.uint(t.cpu_ns);
            w.end_object();
        }
        w.end_object();
        w.key("spans");
        w.begin_array();
        for s in &self.spans {
            w.begin_object();
            w.key("name");
            w.string(s.name);
            w.key("start_ns");
            w.uint(s.start_ns);
            w.key("end_ns");
            w.uint(s.end_ns);
            w.key("cpu_ns");
            w.uint(s.cpu_ns);
            w.key("parent");
            match s.parent {
                Some(p) => w.uint(p as u64),
                None => w.null(),
            }
            w.key("op");
            w.uint(s.op);
            w.end_object();
        }
        w.end_array();
        w.end_object();
        std::fs::write(path, w.finish() + "\n")
            .map_err(|e| format!("cannot write {}: {e}", path.display()))
    }
}
