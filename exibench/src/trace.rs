//! In-memory span recorder for the traced run.
//!
//! Spans are recorded from the benchmark's own code, around the calls into
//! each layer; every span carries its name, start, end, the span that
//! caused it and the id of the operation it belongs to. Nothing is written
//! until the run is over.

use std::fmt::Write as _;
use std::path::Path;
use std::time::Instant;

/// Index of a span inside its [`Tracer`].
pub type SpanId = usize;

/// One recorded interval.
#[derive(Debug, Clone, PartialEq)]
pub struct Span {
    pub name: &'static str,
    /// Distinguishes repeated spans of one name (`step[17]`, `request[3]`).
    pub index: Option<usize>,
    pub parent: Option<SpanId>,
    pub start_ns: u64,
    pub end_ns: u64,
}

impl Span {
    pub fn seconds(&self) -> f64 {
        self.end_ns.saturating_sub(self.start_ns) as f64 * 1e-9
    }
}

/// Records the spans of one operation (one benchmark invocation).
#[derive(Debug)]
pub struct Tracer {
    origin: Instant,
    op: u64,
    spans: Vec<Span>,
    open: Vec<SpanId>,
}

impl Tracer {
    /// Starts recording; `op` identifies the operation in the span file.
    pub fn new(op: u64) -> Self {
        Tracer {
            origin: Instant::now(),
            op,
            spans: Vec::new(),
            open: Vec::new(),
        }
    }

    fn ns(&self, at: Instant) -> u64 {
        at.saturating_duration_since(self.origin).as_nanos() as u64
    }

    /// Opens a span under the innermost open one.
    pub fn begin(&mut self, name: &'static str, index: Option<usize>) -> SpanId {
        let id = self.spans.len();
        let now = self.ns(Instant::now());
        self.spans.push(Span {
            name,
            index,
            parent: self.open.last().copied(),
            start_ns: now,
            end_ns: now,
        });
        self.open.push(id);
        id
    }

    /// Closes `id` (and any span still open inside it).
    pub fn end(&mut self, id: SpanId) {
        let now = self.ns(Instant::now());
        while let Some(top) = self.open.pop() {
            self.spans[top].end_ns = now;
            if top == id {
                break;
            }
        }
    }

    /// Adds a span measured elsewhere (a worker or client thread).
    pub fn record(
        &mut self,
        name: &'static str,
        index: Option<usize>,
        parent: Option<SpanId>,
        start: Instant,
        end: Instant,
    ) -> SpanId {
        let id = self.spans.len();
        self.spans.push(Span {
            name,
            index,
            parent,
            start_ns: self.ns(start),
            end_ns: self.ns(end),
        });
        id
    }

    #[cfg(test)]
    pub fn spans(&self) -> &[Span] {
        &self.spans
    }

    /// A span's duration minus the part its direct children cover.
    pub fn self_seconds(&self, id: SpanId) -> f64 {
        let children: f64 = self
            .spans
            .iter()
            .filter(|s| s.parent == Some(id))
            .map(Span::seconds)
            .sum();
        (self.spans[id].seconds() - children).max(0.0)
    }

    /// Summed duration of every span called `name`.
    pub fn total_seconds(&self, name: &str) -> f64 {
        self.spans
            .iter()
            .filter(|s| s.name == name)
            .map(Span::seconds)
            .sum()
    }

    /// Serializes the spans as one JSON document.
    pub fn to_json(&self, workload: &str) -> String {
        let mut out = String::with_capacity(64 + self.spans.len() * 96);
        write!(
            out,
            "{{\"workload\":\"{workload}\",\"op\":{},\"unit\":\"ns\",\"spans\":[",
            self.op
        )
        .unwrap();
        for (id, s) in self.spans.iter().enumerate() {
            if id > 0 {
                out.push(',');
            }
            write!(
                out,
                "\n{{\"id\":{id},\"op\":{},\"name\":\"{}",
                self.op, s.name
            )
            .unwrap();
            if let Some(i) = s.index {
                write!(out, "[{i}]").unwrap();
            }
            out.push_str("\",\"parent\":");
            match s.parent {
                Some(p) => write!(out, "{p}").unwrap(),
                None => out.push_str("null"),
            }
            write!(out, ",\"start\":{},\"end\":{}}}", s.start_ns, s.end_ns).unwrap();
        }
        out.push_str("\n]}\n");
        out
    }

    /// Closes the root span `op`, writes `trace-<workload>.json` into `dir`
    /// and returns a line describing what was written.
    pub fn finish(&mut self, op: SpanId, dir: &Path, workload: &str) -> Result<String, String> {
        self.end(op);
        let path = dir.join(format!("trace-{workload}.json"));
        std::fs::create_dir_all(dir)
            .and_then(|()| std::fs::write(&path, self.to_json(workload)))
            .map_err(|e| format!("cannot write {}: {e}", path.display()))?;
        Ok(format!(
            "{} spans written to {}; op span {:.6} s, of which {:.6} s outside every recorded child span",
            self.spans.len(),
            path.display(),
            self.spans[op].seconds(),
            self.self_seconds(op)
        ))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::time::Duration;

    #[test]
    fn self_time_is_duration_minus_direct_children() {
        let mut t = Tracer::new(9);
        let o = t.origin;
        let at = |ms: u64| o + Duration::from_millis(ms);
        let root = t.record("op", None, None, at(0), at(100));
        let step = t.record("step", Some(0), Some(root), at(10), at(60));
        let cb = t.record("observer.cb", None, Some(step), at(20), at(30));
        let _grandchild = t.record("inner", None, Some(cb), at(22), at(25));
        t.record("finish", None, Some(root), at(70), at(80));
        // root: 100 - (50 + 10); grandchildren are not subtracted twice.
        assert!((t.self_seconds(root) - 0.040).abs() < 1e-12);
        assert!((t.self_seconds(step) - 0.040).abs() < 1e-12);
        assert!((t.self_seconds(cb) - 0.007).abs() < 1e-12);
        assert!((t.total_seconds("step") - 0.050).abs() < 1e-12);
    }

    #[test]
    fn begin_end_nests_and_serializes() {
        let mut t = Tracer::new(3);
        let op = t.begin("op", None);
        let s0 = t.begin("step", Some(0));
        let cb = t.begin("observer.cb", None);
        t.end(cb);
        t.end(s0);
        let s1 = t.begin("step", Some(1));
        // Closing the root closes what is still open inside it.
        t.end(op);
        assert_eq!(t.spans()[s0].parent, Some(op));
        assert_eq!(t.spans()[cb].parent, Some(s0));
        assert_eq!(t.spans()[s1].parent, Some(op));
        assert!(t.spans()[s1].end_ns >= t.spans()[s1].start_ns);
        let json = t.to_json("w");
        assert!(json.contains("\"name\":\"step[1]\""));
        assert!(json.contains("\"parent\":null"));
        assert!(json.contains("\"op\":3"));
        assert_eq!(json.matches("\"id\":").count(), 4);
    }
}
