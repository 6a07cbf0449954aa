//! In-memory host-time spans, recorded around the benchmark's calls into
//! the crates' public functions.
//!
//! A span carries its name, start and end (wall nanoseconds since the
//! tracer was created: the CPU-time clock ticks too coarsely for short
//! layers), its parent span and the workload-run id. Spans are kept
//! in memory and written once, at exit. A span's *self time* is its
//! duration minus that of its direct children, so the self times of every
//! span under a root add up to the root's duration exactly.

use std::cell::RefCell;
use std::collections::BTreeMap;

use serde_json::Value;

use std::time::Instant;

use crate::common::{int, obj, text};

/// One closed span.
#[derive(Debug, Clone)]
pub struct Span {
    pub name: &'static str,
    pub start_ns: u64,
    pub end_ns: u64,
    pub parent: Option<usize>,
    pub run: u64,
}

impl Span {
    fn dur_ns(&self) -> u64 {
        self.end_ns - self.start_ns
    }
}

/// Per-name aggregate of the recorded spans.
#[derive(Debug, Clone, Copy, Default)]
pub struct LayerTime {
    pub calls: u64,
    pub total_s: f64,
    pub self_s: f64,
}

/// A span recorder; a disabled tracer only runs the closures.
pub struct Tracer {
    enabled: bool,
    run: u64,
    origin: Instant,
    spans: RefCell<Vec<Span>>,
    open: RefCell<Vec<usize>>,
}

impl Tracer {
    pub fn new(enabled: bool, run: u64) -> Self {
        Self {
            enabled,
            run,
            origin: Instant::now(),
            spans: RefCell::new(Vec::new()),
            open: RefCell::new(Vec::new()),
        }
    }

    /// A tracer that records nothing.
    pub fn off() -> Self {
        Self::new(false, 0)
    }

    pub fn enabled(&self) -> bool {
        self.enabled
    }

    /// Runs `f` inside a span named `name`.
    pub fn span<T>(&self, name: &'static str, f: impl FnOnce() -> T) -> T {
        if !self.enabled {
            return f();
        }
        let idx = {
            let mut spans = self.spans.borrow_mut();
            let parent = self.open.borrow().last().copied();
            spans.push(Span {
                name,
                start_ns: self.now_ns(),
                end_ns: 0,
                parent,
                run: self.run,
            });
            spans.len() - 1
        };
        self.open.borrow_mut().push(idx);
        let out = f();
        self.open.borrow_mut().pop();
        self.spans.borrow_mut()[idx].end_ns = self.now_ns();
        out
    }

    fn now_ns(&self) -> u64 {
        self.origin.elapsed().as_nanos() as u64
    }

    /// Self and total time per span name.
    pub fn layer_times(&self) -> BTreeMap<&'static str, LayerTime> {
        let spans = self.spans.borrow();
        let mut child_ns = vec![0u64; spans.len()];
        for s in spans.iter() {
            if let Some(p) = s.parent {
                child_ns[p] += s.dur_ns();
            }
        }
        let mut out: BTreeMap<&'static str, LayerTime> = BTreeMap::new();
        for (i, s) in spans.iter().enumerate() {
            let e = out.entry(s.name).or_default();
            e.calls += 1;
            e.total_s += s.dur_ns() as f64 * 1e-9;
            e.self_s += (s.dur_ns() - child_ns[i]) as f64 * 1e-9;
        }
        out
    }

    /// Spans recorded so far.
    pub fn len(&self) -> usize {
        self.spans.borrow().len()
    }

    /// Host seconds one span costs to record, measured on a scratch
    /// tracer.
    pub fn span_cost_s() -> f64 {
        const N: u32 = 100_000;
        let scratch = Tracer::new(true, 0);
        let t = Instant::now();
        for _ in 0..N {
            scratch.span("x", || ());
        }
        t.elapsed().as_secs_f64() / f64::from(N)
    }

    /// Total duration of the root spans (those without a parent).
    pub fn root_s(&self) -> f64 {
        self.spans
            .borrow()
            .iter()
            .filter(|s| s.parent.is_none())
            .map(|s| s.dur_ns() as f64 * 1e-9)
            .sum()
    }

    /// Every recorded span, as JSON.
    pub fn spans_json(&self) -> Value {
        Value::Array(
            self.spans
                .borrow()
                .iter()
                .map(|s| {
                    obj([
                        ("name", text(s.name)),
                        ("start_ns", int(s.start_ns)),
                        ("end_ns", int(s.end_ns)),
                        ("parent", s.parent.map_or(Value::Null, |p| int(p as u64))),
                        ("run", int(s.run)),
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
    fn self_times_add_up_to_the_root() {
        let tr = Tracer::new(true, 7);
        tr.span("root", || {
            tr.span("a", || {
                std::thread::sleep(std::time::Duration::from_millis(2))
            });
            tr.span("b", || tr.span("a", || ()));
        });
        let times = tr.layer_times();
        let sum: f64 = times.values().map(|t| t.self_s).sum();
        assert!((sum - tr.root_s()).abs() < 1e-9);
        assert_eq!(times["a"].calls, 2);
        assert!(times["a"].self_s >= 0.002);
    }

    #[test]
    fn disabled_tracer_records_nothing() {
        let tr = Tracer::off();
        assert_eq!(tr.span("x", || 3), 3);
        assert!(tr.layer_times().is_empty());
    }
}
