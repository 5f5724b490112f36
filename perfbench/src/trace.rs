//! In-memory span recorder for the traced run.
//!
//! Spans sit around the benchmark's own calls into each layer's public
//! functions (nothing inside the program is instrumented).  They are
//! kept in memory and written out once, when the run ends.

use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::path::Path;
use std::time::{Duration, Instant};

#[derive(Debug)]
struct Span {
    name: String,
    parent: Option<usize>,
    start: Duration,
    end: Duration,
}

/// Spans (name, start, end, parent) and named counts of one run.
#[derive(Debug)]
pub struct Tracer {
    t0: Instant,
    spans: Vec<Span>,
    open: Vec<usize>,
    counts: BTreeMap<String, f64>,
}

impl Tracer {
    pub fn new() -> Self {
        Tracer {
            t0: Instant::now(),
            spans: Vec::new(),
            open: Vec::new(),
            counts: BTreeMap::new(),
        }
    }

    /// Runs `f` inside a span named `name`, child of the innermost open
    /// span; returns `f`'s result and the span's duration.
    pub fn span<R>(&mut self, name: &str, f: impl FnOnce(&mut Self) -> R) -> (R, Duration) {
        let id = self.spans.len();
        let start = self.t0.elapsed();
        self.spans.push(Span {
            name: name.to_string(),
            parent: self.open.last().copied(),
            start,
            end: start,
        });
        self.open.push(id);
        let out = f(self);
        self.open.pop();
        let end = self.t0.elapsed();
        self.spans[id].end = end;
        (out, end - start)
    }

    /// Records a span measured elsewhere (on another thread) as a child
    /// of the innermost open span.
    pub fn add_span(&mut self, name: &str, start: Instant, end: Instant) {
        self.spans.push(Span {
            name: name.to_string(),
            parent: self.open.last().copied(),
            start: start.saturating_duration_since(self.t0),
            end: end.saturating_duration_since(self.t0),
        });
    }

    /// Adds `v` to the count `name`.
    pub fn count(&mut self, name: &str, v: f64) {
        *self.counts.entry(name.to_string()).or_insert(0.0) += v;
    }

    /// Writes every span, with its self time (duration minus the part
    /// covered by its children), and every count as one JSON document.
    pub fn write_json(&self, path: &Path) -> std::io::Result<()> {
        let mut child_time = vec![Duration::ZERO; self.spans.len()];
        for s in &self.spans {
            if let Some(p) = s.parent {
                child_time[p] += s.end - s.start;
            }
        }
        let mut out = String::from("{\"spans\": [\n");
        for (i, s) in self.spans.iter().enumerate() {
            let dur = s.end - s.start;
            let _ = writeln!(
                out,
                "  {{\"id\": {i}, \"parent\": {}, \"name\": \"{}\", \"start_ns\": {}, \"end_ns\": {}, \"self_ns\": {}}}{}",
                s.parent.map_or("null".to_string(), |p| p.to_string()),
                s.name,
                s.start.as_nanos(),
                s.end.as_nanos(),
                dur.saturating_sub(child_time[i]).as_nanos(),
                if i + 1 < self.spans.len() { "," } else { "" },
            );
        }
        out.push_str("],\n\"counts\": {");
        let body: Vec<String> = self
            .counts
            .iter()
            .map(|(k, v)| format!("\"{k}\": {v}"))
            .collect();
        out.push_str(&body.join(", "));
        out.push_str("}}\n");
        if let Some(dir) = path.parent() {
            std::fs::create_dir_all(dir)?;
        }
        std::fs::write(path, out)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn nested_spans_record_parents_and_self_time() {
        let mut t = Tracer::new();
        t.span("outer", |t| {
            t.span("inner", |_| std::thread::sleep(Duration::from_millis(2)));
            t.count("x", 2.0);
        });
        assert_eq!(t.spans[1].parent, Some(0));
        assert_eq!(t.spans[0].parent, None);
        assert!(t.spans[1].start >= t.spans[0].start && t.spans[1].end <= t.spans[0].end);
        assert_eq!(t.counts["x"], 2.0);
    }
}
