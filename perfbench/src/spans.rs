//! In-memory spans recorded by the benchmark around its calls into each
//! layer's public API: name, start, end, parent, and the op they belong to.
//! They stay in memory during the run and are written out once at the end.

use std::fmt::Write as _;
use std::time::Instant;

struct Span {
    name: &'static str,
    op: u64,
    parent: Option<usize>,
    start_ns: u64,
    end_ns: u64,
}

pub struct SpanLog {
    origin: Instant,
    spans: Vec<Span>,
}

impl Default for SpanLog {
    fn default() -> SpanLog {
        SpanLog::starting_at(Instant::now())
    }
}

impl SpanLog {
    /// An empty log whose timestamps count from `origin`, so logs recorded
    /// on several threads share one clock.
    pub fn starting_at(origin: Instant) -> SpanLog {
        SpanLog {
            origin,
            spans: Vec::new(),
        }
    }

    /// Append `other`'s spans (recorded against the same origin).
    pub fn absorb(&mut self, other: SpanLog) {
        let base = self.spans.len();
        self.spans.extend(other.spans.into_iter().map(|mut s| {
            s.parent = s.parent.map(|p| p + base);
            s
        }));
    }

    fn now_ns(&self) -> u64 {
        self.origin.elapsed().as_nanos() as u64
    }

    /// Open a span; close it with [`SpanLog::end`].
    pub fn begin(&mut self, name: &'static str, op: u64, parent: Option<usize>) -> usize {
        let start_ns = self.now_ns();
        self.spans.push(Span {
            name,
            op,
            parent,
            start_ns,
            end_ns: start_ns,
        });
        self.spans.len() - 1
    }

    pub fn end(&mut self, id: usize) {
        self.spans[id].end_ns = self.now_ns();
    }

    /// Run `f` inside a span named `name`.
    pub fn time<T>(
        &mut self,
        name: &'static str,
        op: u64,
        parent: Option<usize>,
        f: impl FnOnce() -> T,
    ) -> T {
        let id = self.begin(name, op, parent);
        let out = f();
        self.end(id);
        out
    }

    /// Per-op sums of the durations of spans named `name` (seconds), for
    /// layers called several times within one op.
    pub fn per_op_sums(&self, name: &str) -> Vec<f64> {
        let mut sums: Vec<(u64, f64)> = Vec::new();
        for s in self.spans.iter().filter(|s| s.name == name) {
            let d = (s.end_ns - s.start_ns) as f64 * 1e-9;
            match sums.last_mut() {
                Some((op, acc)) if *op == s.op => *acc += d,
                _ => sums.push((s.op, d)),
            }
        }
        sums.into_iter().map(|(_, d)| d).collect()
    }

    /// The spans as JSON lines, one object per span.
    pub fn to_json_lines(&self) -> String {
        let mut out = String::new();
        for (id, s) in self.spans.iter().enumerate() {
            let parent = s.parent.map_or("null".to_string(), |p| p.to_string());
            let _ = writeln!(
                out,
                "{{\"id\":{id},\"name\":\"{}\",\"op\":{},\"parent\":{parent},\
                 \"start_ns\":{},\"end_ns\":{}}}",
                s.name, s.op, s.start_ns, s.end_ns
            );
        }
        out
    }
}

/// First op id of the layer drive, so its spans never share an id with
/// the traced pass's ops.
pub const LAYER_OP_BASE: u64 = 1 << 32;

/// The spans of one op: its root `op` span and the layer calls under it.
/// Untraced ops carry no log and record nothing.
pub struct Scope<'a> {
    spans: Option<&'a mut SpanLog>,
    op: u64,
    root: usize,
}

impl Scope<'_> {
    /// Run `f` as a layer call of this op.
    pub fn time<T>(&mut self, name: &'static str, f: impl FnOnce() -> T) -> T {
        match self.spans.as_deref_mut() {
            Some(s) => s.time(name, self.op, Some(self.root), f),
            None => f(),
        }
    }
}

/// Time op `k` (seconds, with `f`'s result), recording its spans when
/// `spans` is given.
pub fn op_scope<T>(
    mut spans: Option<&mut SpanLog>,
    k: usize,
    f: impl FnOnce(&mut Scope) -> T,
) -> (f64, T) {
    let op = k as u64;
    let root = spans.as_deref_mut().map_or(0, |s| s.begin("op", op, None));
    let mut scope = Scope { spans, op, root };
    let t0 = Instant::now();
    let out = f(&mut scope);
    let secs = t0.elapsed().as_secs_f64();
    if let Some(s) = scope.spans {
        s.end(root);
    }
    (secs, out)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn spans_nest_and_sum_per_op() {
        let mut log = SpanLog::default();
        for op in 0..2 {
            let root = log.begin("op", op, None);
            log.time("layer", op, Some(root), || ());
            log.time("layer", op, Some(root), || ());
            log.end(root);
        }
        assert_eq!(log.per_op_sums("layer").len(), 2);
        let lines = log.to_json_lines();
        assert_eq!(lines.lines().count(), 6);
        assert!(lines.contains("\"parent\":0"));
    }
}
