//! In-memory spans recorded from the benchmark's own code.
//!
//! A span is a name, the operation it belongs to, its parent span, and
//! start/end offsets from a shared origin. Spans stay in memory during
//! a run and are written out once, as JSON lines, when it ends. A
//! layer's *self time* is its span's duration minus the time its child
//! spans cover.

use std::collections::BTreeMap;
use std::io::Write;
use std::path::Path;
#[cfg(test)]
use std::time::Duration;
use std::time::Instant;

#[derive(Clone, Copy, Debug, PartialEq)]
pub struct Span {
    pub name: &'static str,
    /// Operation id: spans of one request share it.
    pub op: u32,
    /// Index of the enclosing span in the same tracer.
    pub parent: Option<u32>,
    pub start_ns: u64,
    pub end_ns: u64,
}

impl Span {
    fn dur_ns(&self) -> u64 {
        self.end_ns.saturating_sub(self.start_ns)
    }
}

pub struct Tracer {
    t0: Instant,
    spans: Vec<Span>,
    open: Vec<u32>,
}

impl Tracer {
    pub fn new(t0: Instant) -> Self {
        Tracer {
            t0,
            spans: Vec::new(),
            open: Vec::new(),
        }
    }

    fn now_ns(&self) -> u64 {
        self.t0.elapsed().as_nanos() as u64
    }

    /// Run `f` inside a span; spans opened by `f` become its children.
    pub fn span<R>(&mut self, name: &'static str, op: u32, f: impl FnOnce(&mut Self) -> R) -> R {
        let idx = self.spans.len() as u32;
        let parent = self.open.last().copied();
        let start_ns = self.now_ns();
        self.spans.push(Span {
            name,
            op,
            parent,
            start_ns,
            end_ns: start_ns,
        });
        self.open.push(idx);
        let out = f(self);
        self.open.pop();
        self.spans[idx as usize].end_ns = self.now_ns();
        out
    }

    /// The instant span offsets count from.
    pub fn origin(&self) -> Instant {
        self.t0
    }

    /// Record a span timed elsewhere.
    pub fn record(&mut self, name: &'static str, op: u32, start: Instant, end: Instant) {
        let offset = |t: Instant| t.saturating_duration_since(self.t0).as_nanos() as u64;
        self.spans.push(Span {
            name,
            op,
            parent: None,
            start_ns: offset(start),
            end_ns: offset(end),
        });
    }

    /// Append another tracer's spans (same origin), keeping parents.
    pub fn absorb(&mut self, other: Tracer) {
        let base = self.spans.len() as u32;
        self.spans.extend(other.spans.into_iter().map(|s| Span {
            parent: s.parent.map(|p| p + base),
            ..s
        }));
    }

    pub fn len(&self) -> usize {
        self.spans.len()
    }

    /// Self time of every span, µs, grouped by name.
    pub fn self_times_us(&self) -> BTreeMap<&'static str, Vec<f64>> {
        let mut child_ns = vec![0u64; self.spans.len()];
        for s in &self.spans {
            if let Some(p) = s.parent {
                child_ns[p as usize] += s.dur_ns();
            }
        }
        let mut out: BTreeMap<&'static str, Vec<f64>> = BTreeMap::new();
        for (s, c) in self.spans.iter().zip(child_ns) {
            out.entry(s.name)
                .or_default()
                .push(s.dur_ns().saturating_sub(c) as f64 / 1e3);
        }
        out
    }

    /// Inclusive duration of every span, µs, grouped by name.
    pub fn durations_us(&self) -> BTreeMap<&'static str, Vec<f64>> {
        let mut out: BTreeMap<&'static str, Vec<f64>> = BTreeMap::new();
        for s in &self.spans {
            out.entry(s.name).or_default().push(s.dur_ns() as f64 / 1e3);
        }
        out
    }

    /// Write every span as one JSON line.
    pub fn write_jsonl(&self, path: &Path) -> std::io::Result<()> {
        let mut w = std::io::BufWriter::new(std::fs::File::create(path)?);
        for (i, s) in self.spans.iter().enumerate() {
            let parent = s.parent.map_or("null".to_string(), |p| p.to_string());
            writeln!(
                w,
                "{{\"id\":{i},\"name\":\"{}\",\"op\":{},\"parent\":{parent},\"start_ns\":{},\"end_ns\":{}}}",
                s.name, s.op, s.start_ns, s.end_ns
            )?;
        }
        w.flush()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn busy(d: Duration) {
        let t = Instant::now();
        while t.elapsed() < d {
            std::hint::spin_loop();
        }
    }

    #[test]
    fn nesting_sets_parents_and_self_time_excludes_children() {
        let mut t = Tracer::new(Instant::now());
        t.span("op", 7, |t| {
            busy(Duration::from_millis(2));
            t.span("child", 7, |t| {
                busy(Duration::from_millis(5));
                t.span("grandchild", 7, |_| busy(Duration::from_millis(3)));
            });
        });
        assert_eq!(t.spans[1].parent, Some(0));
        assert_eq!(t.spans[2].parent, Some(1));
        assert!(t.spans.iter().all(|s| s.op == 7));
        let own = t.self_times_us();
        let all = t.durations_us();
        // op: ~10 ms inclusive, ~2 ms of its own.
        assert!(all["op"][0] >= 10_000.0);
        assert!(own["op"][0] >= 2_000.0 && own["op"][0] < 4_000.0, "{own:?}");
        assert!(own["child"][0] >= 5_000.0 && own["child"][0] < 7_000.0);
        assert_eq!(own["grandchild"][0], all["grandchild"][0]);
    }

    #[test]
    fn absorbed_spans_keep_their_parents() {
        let t0 = Instant::now();
        let mut a = Tracer::new(t0);
        a.span("x", 1, |_| ());
        let mut b = Tracer::new(t0);
        b.span("y", 2, |t| t.span("z", 2, |_| ()));
        b.record(
            "driver",
            3,
            t0 + Duration::from_micros(5),
            t0 + Duration::from_micros(9),
        );
        a.absorb(b);
        assert_eq!(a.len(), 4);
        assert_eq!(a.spans[2].parent, Some(1));
        assert_eq!(a.durations_us()["driver"], vec![4.0]);
    }
}
