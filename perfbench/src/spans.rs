//! The benchmark's own spans: recorded around each call into a layer,
//! kept in memory, and written once at the end in the Chrome trace-event
//! format that Perfetto opens. Nothing here reaches inside the program.

use std::collections::BTreeMap;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Mutex;
use std::time::Instant;

/// Index of a recorded span; `None` when tracing is off.
pub type SpanId = Option<usize>;

/// One timed interval, in microseconds since the recorder's epoch.
#[derive(Debug, Clone, PartialEq)]
pub struct Span {
    /// Layer call the span wraps, e.g. `coord.search_sharded`.
    pub name: &'static str,
    /// Start, µs.
    pub start_us: f64,
    /// End, µs (equal to `start_us` while the span is open).
    pub end_us: f64,
    /// The span that caused this one.
    pub parent: Option<usize>,
    /// Query the span belongs to, when it belongs to one.
    pub query: Option<u64>,
    /// Small per-thread number for the trace viewer's lanes.
    pub thread: u64,
}

impl Span {
    /// Duration, µs.
    pub fn dur_us(&self) -> f64 {
        self.end_us - self.start_us
    }
}

/// In-memory span recorder shared by every benchmark thread. A disabled
/// recorder records nothing and returns `None` ids.
#[derive(Debug)]
pub struct Recorder {
    enabled: bool,
    epoch: Instant,
    spans: Mutex<Vec<Span>>,
}

fn thread_number() -> u64 {
    static NEXT: AtomicU64 = AtomicU64::new(1);
    thread_local!(static ID: u64 = NEXT.fetch_add(1, Ordering::Relaxed));
    ID.with(|id| *id)
}

impl Recorder {
    /// A recorder; `enabled = false` makes every call a no-op.
    pub fn new(enabled: bool) -> Recorder {
        Recorder {
            enabled,
            epoch: Instant::now(),
            spans: Mutex::new(Vec::new()),
        }
    }

    fn us(&self, t: Instant) -> f64 {
        t.saturating_duration_since(self.epoch).as_secs_f64() * 1e6
    }

    /// Record a finished interval.
    pub fn record(
        &self,
        name: &'static str,
        parent: SpanId,
        query: Option<u64>,
        start: Instant,
        end: Instant,
    ) -> SpanId {
        if !self.enabled {
            return None;
        }
        let span = Span {
            name,
            start_us: self.us(start),
            end_us: self.us(end),
            parent,
            query,
            thread: thread_number(),
        };
        let mut spans = self.spans.lock().expect("span list poisoned by a panic");
        spans.push(span);
        Some(spans.len() - 1)
    }

    /// Open a span now; close it with [`Recorder::end`].
    pub fn begin(&self, name: &'static str, parent: SpanId, query: Option<u64>) -> SpanId {
        let now = Instant::now();
        self.record(name, parent, query, now, now)
    }

    /// Close a span opened with [`Recorder::begin`].
    pub fn end(&self, id: SpanId) {
        if let Some(i) = id {
            let end = self.us(Instant::now());
            self.spans.lock().expect("span list poisoned by a panic")[i].end_us = end;
        }
    }

    /// Run `f` inside a span; `f` receives the span's id for children.
    pub fn wrap<T>(
        &self,
        name: &'static str,
        parent: SpanId,
        query: Option<u64>,
        f: impl FnOnce(SpanId) -> T,
    ) -> T {
        let id = self.begin(name, parent, query);
        let out = f(id);
        self.end(id);
        out
    }

    /// Every span recorded so far.
    pub fn spans(&self) -> Vec<Span> {
        self.spans
            .lock()
            .expect("span list poisoned by a panic")
            .clone()
    }
}

/// Self time of every span, µs: its duration minus the part of its
/// interval that its children cover. Children may overlap one another
/// (parallel calls) or stick out of the parent; only the union of their
/// intervals clipped to the parent counts.
pub fn self_times_us(spans: &[Span]) -> Vec<f64> {
    let mut children: Vec<Vec<(f64, f64)>> = vec![Vec::new(); spans.len()];
    for s in spans {
        if let Some(p) = s.parent.filter(|&p| p < spans.len()) {
            let (ps, pe) = (spans[p].start_us, spans[p].end_us);
            let (cs, ce) = (s.start_us.max(ps), s.end_us.min(pe));
            if ce > cs {
                children[p].push((cs, ce));
            }
        }
    }
    spans
        .iter()
        .zip(children)
        .map(|(s, mut kids)| {
            kids.sort_by(|a, b| a.0.total_cmp(&b.0));
            let mut covered = 0.0;
            let mut reach = f64::NEG_INFINITY;
            for (cs, ce) in kids {
                let from = cs.max(reach);
                if ce > from {
                    covered += ce - from;
                }
                reach = reach.max(ce);
            }
            s.dur_us() - covered
        })
        .collect()
}

/// Self time summed per span name, µs.
pub fn self_time_by_name(spans: &[Span]) -> BTreeMap<&'static str, f64> {
    let mut out = BTreeMap::new();
    for (s, t) in spans.iter().zip(self_times_us(spans)) {
        *out.entry(s.name).or_insert(0.0) += t;
    }
    out
}

/// The spans as a Chrome trace-event JSON document (Perfetto reads it).
pub fn trace_event_json(spans: &[Span]) -> String {
    let mut out = String::from("{\"displayTimeUnit\":\"ms\",\"traceEvents\":[");
    for (i, s) in spans.iter().enumerate() {
        if i > 0 {
            out.push(',');
        }
        out.push_str(&format!(
            "{{\"name\":\"{}\",\"ph\":\"X\",\"pid\":1,\"tid\":{},\"ts\":{:.3},\"dur\":{:.3},\
             \"args\":{{\"span\":{i},\"parent\":{},\"query\":{}}}}}",
            s.name,
            s.thread,
            s.start_us,
            s.dur_us(),
            s.parent.map_or("null".into(), |p| p.to_string()),
            s.query.map_or("null".into(), |q| q.to_string()),
        ));
    }
    out.push_str("]}\n");
    out
}
