//! Spans recorded by the benchmark around each call into a layer.
//!
//! Spans live in memory while the benchmark measures and are written
//! once at the end, as Chrome/Perfetto JSON (the format
//! `mosaic_runtime::trace::to_chrome_json` emits for simulated
//! traces). Every span carries its name, start, end, the span that
//! caused it, and the id of the cell or request it belongs to. Spans
//! *inside* the program are a later change; these only bracket calls
//! made from this package.

use std::collections::BTreeMap;
use std::time::Instant;

/// One closed (or still open) span.
#[derive(Debug, Clone)]
pub struct Span {
    /// Layer boundary crossed, e.g. `Benchmark::run` or `submit`.
    pub name: &'static str,
    /// Cell or request this span belongs to; children share it.
    pub id: u64,
    /// Index of the causing span, `None` for a root.
    pub parent: Option<usize>,
    /// Start, nanoseconds since the tracer's epoch.
    pub start_ns: u64,
    /// End, nanoseconds since the tracer's epoch.
    pub end_ns: u64,
}

impl Span {
    /// Duration in nanoseconds.
    pub fn dur_ns(&self) -> u64 {
        self.end_ns - self.start_ns
    }
}

/// Handle returned by [`Tracer::begin`]; hand it back to
/// [`Tracer::end`].
#[derive(Debug, Clone, Copy)]
pub struct Open(Option<usize>);

/// The in-memory span log. Strictly nested: a span's parent is
/// whichever span was open when it began.
#[derive(Debug)]
pub struct Tracer {
    epoch: Instant,
    /// Whether `begin` records at all. Toggled by traced workloads to
    /// measure the tracing overhead inside one run.
    pub recording: bool,
    spans: Vec<Span>,
    open: Vec<usize>,
}

impl Tracer {
    /// An empty log; records only when `recording`.
    pub fn new(recording: bool) -> Tracer {
        Tracer {
            epoch: Instant::now(),
            recording,
            spans: Vec::new(),
            open: Vec::new(),
        }
    }

    fn now_ns(&self) -> u64 {
        self.epoch.elapsed().as_nanos() as u64
    }

    /// Open a span under the innermost open one.
    pub fn begin(&mut self, name: &'static str, id: u64) -> Open {
        if !self.recording {
            return Open(None);
        }
        let now = self.now_ns();
        self.spans.push(Span {
            name,
            id,
            parent: self.open.last().copied(),
            start_ns: now,
            end_ns: now,
        });
        self.open.push(self.spans.len() - 1);
        Open(Some(self.spans.len() - 1))
    }

    /// Close a span. Spans close in the reverse order they opened.
    pub fn end(&mut self, span: Open) {
        let Some(idx) = span.0 else { return };
        assert_eq!(self.open.pop(), Some(idx), "spans must nest");
        self.spans[idx].end_ns = self.now_ns();
    }

    /// Run `f` inside a span.
    pub fn scope<T>(&mut self, name: &'static str, id: u64, f: impl FnOnce(&mut Tracer) -> T) -> T {
        let span = self.begin(name, id);
        let out = f(self);
        self.end(span);
        out
    }

    /// Every recorded span, in start order.
    pub fn spans(&self) -> &[Span] {
        &self.spans
    }

    /// Summed duration of the root spans, in seconds.
    pub fn root_seconds(&self) -> f64 {
        self.spans
            .iter()
            .filter(|s| s.parent.is_none())
            .map(|s| s.dur_ns() as f64 * 1e-9)
            .sum()
    }
}

/// Self time per span: its duration minus the part its direct children
/// cover. Children nest strictly inside their parent and never
/// overlap each other, so the covered part is the plain sum.
pub fn self_times_ns(spans: &[Span]) -> Vec<u64> {
    let mut own: Vec<u64> = spans.iter().map(Span::dur_ns).collect();
    for s in spans {
        if let Some(p) = s.parent {
            own[p] = own[p].saturating_sub(s.dur_ns());
        }
    }
    own
}

/// Total self time per span name, in nanoseconds, sorted by name.
pub fn self_ns_by_name(spans: &[Span]) -> BTreeMap<&'static str, u64> {
    let mut by_name = BTreeMap::new();
    for (s, own) in spans.iter().zip(self_times_ns(spans)) {
        *by_name.entry(s.name).or_insert(0) += own;
    }
    by_name
}

/// Render as Chrome/Perfetto `traceEvents`: one complete (`ph:"X"`)
/// event per span, timestamps in microseconds, with the id and parent
/// index under `args`.
pub fn to_chrome_json(spans: &[Span]) -> String {
    let mut out = String::from("{\"traceEvents\":[\n");
    for (i, s) in spans.iter().enumerate() {
        if i > 0 {
            out.push_str(",\n");
        }
        let parent = s.parent.map_or(-1, |p| p as i64);
        out.push_str(&format!(
            "{{\"name\":{},\"cat\":\"hostbench\",\"ph\":\"X\",\"ts\":{:.3},\"dur\":{:.3},\
             \"pid\":0,\"tid\":0,\"args\":{{\"id\":{},\"span\":{i},\"parent\":{parent}}}}}",
            jsonlite::escape(s.name),
            s.start_ns as f64 / 1e3,
            s.dur_ns() as f64 / 1e3,
            s.id,
        ));
    }
    out.push_str("\n]}\n");
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    fn span(name: &'static str, parent: Option<usize>, start_ns: u64, end_ns: u64) -> Span {
        Span {
            name,
            id: 7,
            parent,
            start_ns,
            end_ns,
        }
    }

    #[test]
    fn self_time_is_duration_minus_children() {
        let spans = [
            span("pass", None, 0, 100),
            span("cell", Some(0), 10, 40),
            span("run", Some(1), 15, 35),
            span("cell", Some(0), 50, 90),
        ];
        assert_eq!(self_times_ns(&spans), vec![30, 10, 20, 40]);
        let by_name = self_ns_by_name(&spans);
        assert_eq!(by_name["cell"], 50);
        assert_eq!(by_name["pass"], 30);
        // Self times partition the root's duration exactly.
        assert_eq!(self_times_ns(&spans).iter().sum::<u64>(), 100);
    }

    #[test]
    fn tracer_nests_and_skips_when_not_recording() {
        let mut t = Tracer::new(true);
        t.scope("outer", 1, |t| {
            t.scope("inner", 1, |_| ());
            t.recording = false;
            t.scope("unseen", 1, |_| ());
            t.recording = true;
        });
        let names: Vec<_> = t.spans().iter().map(|s| s.name).collect();
        assert_eq!(names, ["outer", "inner"]);
        assert_eq!(t.spans()[1].parent, Some(0));
        assert!(t.spans()[0].end_ns >= t.spans()[1].end_ns);
    }

    #[test]
    fn chrome_json_is_one_complete_event_per_span() {
        let json = to_chrome_json(&[
            span("a", None, 1_000, 3_500),
            span("b", Some(0), 2_000, 3_000),
        ]);
        assert!(json.starts_with("{\"traceEvents\":["));
        assert_eq!(json.matches("\"ph\":\"X\"").count(), 2);
        assert!(json.contains("\"ts\":1.000,\"dur\":2.500"));
        assert!(json.contains("\"parent\":0"));
    }
}
