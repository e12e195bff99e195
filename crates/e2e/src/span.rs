//! Spans recorded from outside, around each call into a layer.
//!
//! The benchmark thread owns one [`Tracer`]. Off (the end-to-end run) an
//! `enter`/`exit` pair is two branches and nothing else; on (the traced
//! run) it is two `Instant::now()` calls and a `Vec` push, and everything
//! stays in memory until the run ends.

use crate::json::Json;
use std::time::Instant;

#[derive(Debug, Clone)]
pub struct Span {
    pub name: &'static str,
    pub start_ns: u64,
    pub end_ns: u64,
    pub parent: Option<u32>,
    pub workload: &'static str,
    /// Identifies the operation (pass, window, query, round) the span
    /// belongs to; spans of one operation share it.
    pub op: u64,
}

impl Span {
    pub fn duration_ns(&self) -> u64 {
        self.end_ns - self.start_ns
    }
}

/// Handle returned by [`Tracer::enter`]; `None` when tracing is off.
#[derive(Debug, Clone, Copy)]
pub struct SpanId(Option<u32>);

#[derive(Debug)]
pub struct Tracer {
    on: bool,
    origin: Instant,
    workload: &'static str,
    spans: Vec<Span>,
    open: Vec<u32>,
}

impl Tracer {
    pub fn new(on: bool) -> Tracer {
        Tracer {
            on,
            origin: Instant::now(),
            workload: "",
            spans: Vec::new(),
            open: Vec::new(),
        }
    }

    pub fn is_on(&self) -> bool {
        self.on
    }

    /// Switches recording on or off; the tracing-overhead measurement
    /// alternates passes with and without it.
    pub fn set_on(&mut self, on: bool) {
        debug_assert!(self.open.is_empty(), "toggle tracing between operations");
        self.on = on;
    }

    pub fn set_workload(&mut self, workload: &'static str) {
        self.workload = workload;
    }

    #[inline]
    pub fn enter(&mut self, name: &'static str, op: u64) -> SpanId {
        if !self.on {
            return SpanId(None);
        }
        let id = self.spans.len() as u32;
        self.spans.push(Span {
            name,
            start_ns: self.origin.elapsed().as_nanos() as u64,
            end_ns: 0,
            parent: self.open.last().copied(),
            workload: self.workload,
            op,
        });
        self.open.push(id);
        SpanId(Some(id))
    }

    #[inline]
    pub fn exit(&mut self, id: SpanId) {
        let Some(id) = id.0 else { return };
        let now = self.origin.elapsed().as_nanos() as u64;
        let top = self.open.pop();
        debug_assert_eq!(top, Some(id), "spans close innermost first");
        self.spans[id as usize].end_ns = now;
    }

    /// Times `f` under a span.
    #[inline]
    pub fn scope<R>(&mut self, name: &'static str, op: u64, f: impl FnOnce() -> R) -> R {
        let id = self.enter(name, op);
        let out = f();
        self.exit(id);
        out
    }

    /// Renames the most recent span when it is called `from`: lets a caller
    /// label a span by what the call turned out to do.
    pub fn rename_last(&mut self, from: &str, to: &'static str) {
        if let Some(span) = self.spans.last_mut().filter(|s| s.name == from) {
            span.name = to;
        }
    }

    pub fn spans(&self) -> &[Span] {
        &self.spans
    }

    /// Durations, in milliseconds, of every closed span called `name`.
    pub fn durations_ms(&self, name: &str) -> Vec<f64> {
        self.spans
            .iter()
            .filter(|s| s.name == name)
            .map(|s| s.duration_ns() as f64 / 1e6)
            .collect()
    }

    /// Sum of the self time of every span called `name`, in nanoseconds:
    /// each span's duration minus what its direct children cover.
    pub fn self_time_ns(&self, name: &str) -> u64 {
        let mut child_cover = vec![0u64; self.spans.len()];
        for span in &self.spans {
            if let Some(parent) = span.parent {
                child_cover[parent as usize] += span.duration_ns();
            }
        }
        self.spans
            .iter()
            .zip(&child_cover)
            .filter(|(s, _)| s.name == name)
            .map(|(s, cover)| s.duration_ns().saturating_sub(*cover))
            .sum()
    }

    /// Total duration of every span called `name`, in nanoseconds.
    pub fn total_ns(&self, name: &str) -> u64 {
        self.spans
            .iter()
            .filter(|s| s.name == name)
            .map(Span::duration_ns)
            .sum()
    }

    /// The `spans.json` document written when a traced run ends.
    pub fn to_json(&self) -> Json {
        Json::Arr(
            self.spans
                .iter()
                .map(|s| {
                    Json::obj([
                        ("name", Json::str(s.name)),
                        ("start_ns", Json::uint(s.start_ns)),
                        ("end_ns", Json::uint(s.end_ns)),
                        (
                            "parent",
                            s.parent.map_or(Json::Null, |p| Json::uint(u64::from(p))),
                        ),
                        ("workload", Json::str(s.workload)),
                        ("op", Json::uint(s.op)),
                    ])
                })
                .collect(),
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn self_time_subtracts_children_and_off_records_nothing() {
        let mut t = Tracer::new(true);
        t.set_workload("w");
        let outer = t.enter("outer", 1);
        t.scope("inner", 1, || {
            std::thread::sleep(std::time::Duration::from_millis(2))
        });
        t.exit(outer);
        let (outer, inner) = (&t.spans()[0], &t.spans()[1]);
        assert_eq!(inner.parent, Some(0));
        assert!(outer.start_ns <= inner.start_ns && inner.end_ns <= outer.end_ns);
        assert_eq!(
            t.self_time_ns("outer"),
            outer.duration_ns() - inner.duration_ns()
        );
        assert_eq!(t.self_time_ns("inner"), inner.duration_ns());

        let mut off = Tracer::new(false);
        off.scope("x", 0, || ());
        assert!(off.spans().is_empty());
    }
}
