//! Spans for the traced run.
//!
//! A span is a named interval the bench measured around one of its own
//! calls into a layer's public API, with the span that caused it and the
//! request it served. Spans stay in memory until the run ends; a layer's
//! self time is its span's duration minus the part its child spans
//! cover. With tracing off, [`Tracer::record`] returns at once and the
//! run takes no extra clock reads for it.

use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::time::Instant;

use crate::stats;

/// One recorded interval.
#[derive(Debug, Clone, Copy)]
pub struct Span {
    /// What was timed (`client.send`, `request`, `session.new`, ...).
    pub name: &'static str,
    /// Start, in nanoseconds since the tracer's epoch.
    pub start_ns: u64,
    /// End, in nanoseconds since the tracer's epoch.
    pub end_ns: u64,
    /// Index of the enclosing span, if any.
    pub parent: Option<usize>,
    /// The request (or session) the span served.
    pub request: u64,
}

impl Span {
    /// Duration in nanoseconds.
    #[must_use]
    pub fn ns(&self) -> u64 {
        self.end_ns.saturating_sub(self.start_ns)
    }
}

/// One line of [`Tracer::summary`].
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct SpanSummary {
    /// The span name.
    pub name: &'static str,
    /// Spans recorded under it.
    pub count: usize,
    /// Median duration, µs.
    pub total_us: f64,
    /// Median self time (duration minus child spans), µs.
    pub self_us: f64,
}

/// An in-memory span log; inert unless built with [`Tracer::on`].
#[derive(Debug)]
pub struct Tracer {
    epoch: Instant,
    enabled: bool,
    spans: Vec<Span>,
}

impl Tracer {
    /// A tracer that records nothing.
    #[must_use]
    pub fn off() -> Tracer {
        Tracer {
            epoch: Instant::now(),
            enabled: false,
            spans: Vec::new(),
        }
    }

    /// A recording tracer.
    #[must_use]
    pub fn on() -> Tracer {
        Tracer {
            enabled: true,
            ..Tracer::off()
        }
    }

    /// Whether spans are being kept.
    #[must_use]
    pub fn enabled(&self) -> bool {
        self.enabled
    }

    /// Keeps a span and returns its index (0 when tracing is off).
    pub fn record(
        &mut self,
        name: &'static str,
        start: Instant,
        end: Instant,
        parent: Option<usize>,
        request: u64,
    ) -> usize {
        if !self.enabled {
            return 0;
        }
        let ns = |t: Instant| {
            u64::try_from(t.saturating_duration_since(self.epoch).as_nanos()).unwrap_or(u64::MAX)
        };
        self.spans.push(Span {
            name,
            start_ns: ns(start),
            end_ns: ns(end),
            parent,
            request,
        });
        self.spans.len() - 1
    }

    /// Sets the end of span `index`, recorded earlier with a provisional
    /// end (a request's root span ends when its reply arrives).
    pub fn close(&mut self, index: usize, end: Instant) {
        if !self.enabled {
            return;
        }
        let end_ns =
            u64::try_from(end.saturating_duration_since(self.epoch).as_nanos()).unwrap_or(u64::MAX);
        if let Some(span) = self.spans.get_mut(index) {
            span.end_ns = end_ns;
        }
    }

    /// Times `f` as a span.
    pub fn time<R>(
        &mut self,
        name: &'static str,
        parent: Option<usize>,
        request: u64,
        f: impl FnOnce() -> R,
    ) -> R {
        if !self.enabled {
            return f();
        }
        let start = Instant::now();
        let out = f();
        self.record(name, start, Instant::now(), parent, request);
        out
    }

    /// Moves another tracer's spans into this one, re-basing their
    /// times and parent links.
    pub fn absorb(&mut self, other: Tracer) {
        let offset = self.spans.len();
        let shift = |t: u64| -> u64 {
            let at = other.epoch + std::time::Duration::from_nanos(t);
            u64::try_from(at.saturating_duration_since(self.epoch).as_nanos()).unwrap_or(u64::MAX)
        };
        let moved: Vec<Span> = other
            .spans
            .iter()
            .map(|s| Span {
                start_ns: shift(s.start_ns),
                end_ns: shift(s.end_ns),
                parent: s.parent.map(|p| p + offset),
                ..*s
            })
            .collect();
        self.spans.extend(moved);
    }

    /// The recorded spans.
    #[must_use]
    pub fn spans(&self) -> &[Span] {
        &self.spans
    }

    /// Per span name, in name order: how many spans, and their median
    /// total and median self time in microseconds.
    #[must_use]
    pub fn summary(&self) -> Vec<SpanSummary> {
        let self_ns = self.self_ns();
        let mut by_name: BTreeMap<&'static str, (Vec<f64>, Vec<f64>)> = BTreeMap::new();
        for (s, own) in self.spans.iter().zip(self_ns) {
            let entry = by_name.entry(s.name).or_default();
            entry.0.push(s.ns() as f64 / 1e3);
            entry.1.push(own as f64 / 1e3);
        }
        by_name
            .into_iter()
            .map(|(name, (total, own))| SpanSummary {
                name,
                count: total.len(),
                total_us: stats::median(&total),
                self_us: stats::median(&own),
            })
            .collect()
    }

    /// Every span's self time: its duration minus the union of its
    /// children's intervals (clipped to the span).
    #[must_use]
    pub fn self_ns(&self) -> Vec<u64> {
        let mut children: Vec<Vec<(u64, u64)>> = vec![Vec::new(); self.spans.len()];
        for s in &self.spans {
            if let Some(p) = s.parent {
                children[p].push((s.start_ns, s.end_ns));
            }
        }
        self.spans
            .iter()
            .zip(children.iter_mut())
            .map(|(s, kids)| {
                kids.sort_unstable();
                let mut covered = 0;
                let mut reach = s.start_ns;
                for &(a, b) in kids.iter() {
                    let (a, b) = (a.max(reach), b.min(s.end_ns));
                    if b > a {
                        covered += b - a;
                        reach = b;
                    }
                }
                s.ns().saturating_sub(covered)
            })
            .collect()
    }

    /// The spans as JSON lines, for `--spans`.
    #[must_use]
    pub fn to_json_lines(&self, workload: &str) -> String {
        let mut out = String::new();
        for (i, s) in self.spans.iter().enumerate() {
            let parent = s.parent.map_or("null".to_string(), |p| p.to_string());
            let _ = writeln!(
                out,
                "{{\"workload\":\"{workload}\",\"id\":{i},\"name\":\"{}\",\"start_ns\":{},\
                 \"end_ns\":{},\"parent\":{parent},\"request\":{}}}",
                s.name, s.start_ns, s.end_ns, s.request
            );
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::time::Duration;

    #[test]
    fn self_time_subtracts_the_union_of_children() {
        let mut t = Tracer::on();
        let e = t.epoch;
        let at = |us: u64| e + Duration::from_micros(us);
        let root = t.record("request", at(0), at(100), None, 1);
        t.record("client.send", at(0), at(10), Some(root), 1);
        t.record("client.wait", at(10), at(90), Some(root), 1);
        // Overlaps the wait: must not be subtracted twice.
        t.record("other", at(50), at(95), Some(root), 1);
        let own = t.self_ns();
        assert_eq!(own[root], 5_000);
        let summary = t.summary();
        let wait = summary.iter().find(|s| s.name == "client.wait").unwrap();
        assert_eq!((wait.count, wait.total_us, wait.self_us), (1, 80.0, 80.0));
        let request = summary.iter().find(|s| s.name == "request").unwrap();
        assert_eq!((request.total_us, request.self_us), (100.0, 5.0));
    }

    #[test]
    fn an_idle_tracer_keeps_nothing_and_absorb_rebases_parents() {
        let mut off = Tracer::off();
        off.record("x", Instant::now(), Instant::now(), None, 0);
        assert!(off.spans().is_empty());

        let mut a = Tracer::on();
        let now = Instant::now();
        a.record("a", now, now, None, 0);
        let mut b = Tracer::on();
        let root = b.record("b", now, now, None, 0);
        b.record("c", now, now, Some(root), 0);
        a.absorb(b);
        assert_eq!(a.spans()[2].parent, Some(1));
        assert!(a.to_json_lines("w").lines().count() == 3);
    }
}
