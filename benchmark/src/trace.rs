//! In-memory spans around the harness's calls into each layer.
//!
//! A traced run keeps `{trace, span, parent, name, start_ns, end_ns}`
//! records in memory and writes them as JSON lines when the run ends.
//! Spans of one request share a trace id; a probe call is a one-span
//! trace named by its layer metric. Spans *inside* the engine are a
//! later change (ROADMAP C).

use std::collections::{BTreeMap, HashMap};
use std::io::{BufWriter, Write};
use std::path::Path;
use std::time::Instant;

#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Span {
    pub trace: u64,
    pub span: u32,
    /// 0 for a root span.
    pub parent: u32,
    pub name: &'static str,
    pub start_ns: u64,
    pub end_ns: u64,
}

impl Span {
    pub fn duration_ns(&self) -> u64 {
        self.end_ns - self.start_ns
    }
}

/// One thread's span buffer. Each tracer numbers its traces in its own
/// lane, so buffers merge without renumbering.
#[derive(Debug)]
pub struct Tracer {
    origin: Instant,
    next_trace: u64,
    spans: Vec<Span>,
}

impl Tracer {
    /// `origin` is the run's time zero (shared by every lane).
    pub fn new(origin: Instant, lane: u64) -> Self {
        Self {
            origin,
            next_trace: (lane << 40) + 1,
            spans: Vec::new(),
        }
    }

    fn ns(&self, at: Instant) -> u64 {
        at.saturating_duration_since(self.origin).as_nanos() as u64
    }

    /// Records a root span `name` with its child spans.
    pub fn record(
        &mut self,
        name: &'static str,
        (start, end): (Instant, Instant),
        children: &[(&'static str, Instant, Instant)],
    ) {
        let trace = self.next_trace;
        self.next_trace += 1;
        self.spans.push(Span {
            trace,
            span: 1,
            parent: 0,
            name,
            start_ns: self.ns(start),
            end_ns: self.ns(end),
        });
        for (i, &(child, from, to)) in children.iter().enumerate() {
            self.spans.push(Span {
                trace,
                span: i as u32 + 2,
                parent: 1,
                name: child,
                start_ns: self.ns(from),
                end_ns: self.ns(to),
            });
        }
    }

    /// Times one call of `f` as a root span `name`; returns its result
    /// and duration in ns.
    pub fn time<T>(&mut self, name: &'static str, f: impl FnOnce() -> T) -> (T, u64) {
        let start = Instant::now();
        let out = f();
        let end = Instant::now();
        self.record(name, (start, end), &[]);
        (out, (end - start).as_nanos() as u64)
    }

    pub fn absorb(&mut self, other: Tracer) {
        self.spans.extend(other.spans);
    }

    pub fn spans(&self) -> &[Span] {
        &self.spans
    }

    /// Durations (ns) of every span called `name`.
    pub fn durations(&self, name: &str) -> Vec<u64> {
        self.spans
            .iter()
            .filter(|s| s.name == name)
            .map(Span::duration_ns)
            .collect()
    }

    /// Writes the spans as JSON lines, ordered by start time.
    pub fn write_jsonl(&mut self, path: &Path) -> std::io::Result<()> {
        if let Some(dir) = path.parent() {
            std::fs::create_dir_all(dir)?;
        }
        self.spans.sort_by_key(|s| (s.start_ns, s.trace, s.span));
        let mut out = BufWriter::new(std::fs::File::create(path)?);
        for s in &self.spans {
            writeln!(
                out,
                "{{\"trace\":{},\"span\":{},\"parent\":{},\"name\":\"{}\",\"start_ns\":{},\"end_ns\":{}}}",
                s.trace, s.span, s.parent, s.name, s.start_ns, s.end_ns
            )?;
        }
        out.flush()
    }
}

/// Self time per span name: each span's duration minus the time its
/// child spans cover, ascending.
pub fn self_times_ns(spans: &[Span]) -> BTreeMap<&'static str, Vec<u64>> {
    let mut covered: HashMap<(u64, u32), u64> = HashMap::new();
    for s in spans.iter().filter(|s| s.parent != 0) {
        *covered.entry((s.trace, s.parent)).or_default() += s.duration_ns();
    }
    let mut by_name: BTreeMap<&'static str, Vec<u64>> = BTreeMap::new();
    for s in spans {
        let children = covered.get(&(s.trace, s.span)).copied().unwrap_or(0);
        by_name
            .entry(s.name)
            .or_default()
            .push(s.duration_ns().saturating_sub(children));
    }
    for v in by_name.values_mut() {
        v.sort_unstable();
    }
    by_name
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::time::Duration;

    #[test]
    fn self_time_is_duration_minus_children() {
        let t0 = Instant::now();
        let at = |us| t0 + Duration::from_micros(us);
        let mut a = Tracer::new(t0, 0);
        a.record(
            "request",
            (at(0), at(100)),
            &[
                ("client.submit", at(0), at(10)),
                ("client.wait", at(10), at(90)),
            ],
        );
        let mut b = Tracer::new(t0, 1);
        b.record(
            "request",
            (at(5), at(45)),
            &[("client.wait", at(10), at(40))],
        );
        a.absorb(b);

        let spans = a.spans();
        assert_eq!(spans.len(), 5);
        assert_ne!(spans[0].trace, spans[3].trace, "lanes do not collide");
        assert!(spans[1..3]
            .iter()
            .all(|s| s.parent == 1 && s.trace == spans[0].trace));

        let own = self_times_ns(spans);
        assert_eq!(own["request"], vec![10_000, 10_000]);
        assert_eq!(own["client.submit"], vec![10_000]);
        assert_eq!(own["client.wait"], vec![30_000, 80_000]);
        assert_eq!(a.durations("client.wait").len(), 2);
    }
}
