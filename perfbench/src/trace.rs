//! In-memory spans recorded around the benchmark's own calls into each
//! layer. A span carries its op id and its parent span id; spans stay in
//! memory while ops are timed and are written out once the run is over.

use std::collections::BTreeMap;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Mutex;
use std::time::Instant;

/// One finished span.
#[derive(Debug, Clone)]
pub struct SpanRec {
    /// Span id (unique within a run, `>= 1`).
    pub id: u64,
    /// Parent span id; `0` for an op's root span.
    pub parent: u64,
    /// Op the span belongs to.
    pub op: u64,
    /// Layer-qualified name, e.g. `core.calibrate`.
    pub name: &'static str,
    /// Start, nanoseconds since the tracer was created.
    pub start_ns: u64,
    /// End, nanoseconds since the tracer was created.
    pub end_ns: u64,
}

impl SpanRec {
    /// Duration, seconds.
    pub fn secs(&self) -> f64 {
        (self.end_ns - self.start_ns) as f64 * 1e-9
    }
}

/// A span recorder; a disabled one records nothing and reads no clock.
pub struct Tracer {
    on: bool,
    origin: Instant,
    next_id: AtomicU64,
    spans: Mutex<Vec<SpanRec>>,
}

impl Tracer {
    /// A recorder that keeps spans when `on`.
    pub fn new(on: bool) -> Tracer {
        Tracer {
            on,
            origin: Instant::now(),
            next_id: AtomicU64::new(1),
            spans: Mutex::new(Vec::new()),
        }
    }

    /// Whether spans are kept.
    pub fn is_on(&self) -> bool {
        self.on
    }

    /// Runs `f` inside a span named `name` of op `op` under `parent`;
    /// `f` receives the new span's id to parent its own children.
    pub fn span<T>(&self, op: u64, parent: u64, name: &'static str, f: impl FnOnce(u64) -> T) -> T {
        if !self.on {
            return f(0);
        }
        // ordering: a unique-id counter; it publishes no other data.
        let id = self.next_id.fetch_add(1, Ordering::Relaxed);
        let start = self.origin.elapsed().as_nanos() as u64;
        let out = f(id);
        let end = self.origin.elapsed().as_nanos() as u64;
        self.spans
            .lock()
            .expect("span list poisoned by a panicking op")
            .push(SpanRec {
                id,
                parent,
                op,
                name,
                start_ns: start,
                end_ns: end,
            });
        out
    }

    /// Every recorded span, sorted by id.
    pub fn spans(&self) -> Vec<SpanRec> {
        let mut v = self.spans.lock().expect("span list poisoned").clone();
        v.sort_by_key(|s| s.id);
        v
    }

    /// Per-op total duration of the spans named `name`, seconds.
    pub fn per_op(&self, name: &str) -> Vec<f64> {
        let mut by_op: BTreeMap<u64, f64> = BTreeMap::new();
        for s in self.spans().iter().filter(|s| s.name == name) {
            *by_op.entry(s.op).or_default() += s.secs();
        }
        by_op.into_values().collect()
    }

    /// Writes the spans as JSON lines, each with its self time (duration
    /// minus the part its child spans cover).
    pub fn write_jsonl(&self, path: &std::path::Path) -> std::io::Result<()> {
        use std::fmt::Write as _;
        let spans = self.spans();
        let mut child_ns: BTreeMap<u64, u64> = BTreeMap::new();
        for s in &spans {
            *child_ns.entry(s.parent).or_default() += s.end_ns - s.start_ns;
        }
        let mut out = String::new();
        for s in &spans {
            let dur = s.end_ns - s.start_ns;
            let self_ns = dur.saturating_sub(child_ns.get(&s.id).copied().unwrap_or(0));
            let _ = writeln!(
                out,
                "{{\"id\":{},\"parent\":{},\"op\":{},\"name\":\"{}\",\"start_ns\":{},\
                 \"end_ns\":{},\"self_ns\":{self_ns}}}",
                s.id, s.parent, s.op, s.name, s.start_ns, s.end_ns
            );
        }
        std::fs::write(path, out)
    }
}
