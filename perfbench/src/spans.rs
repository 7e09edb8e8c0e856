//! Host-time spans recorded by the benchmark around each public call it
//! makes into the workspace. Spans stay in memory and are written as one
//! chrome trace when the benchmark ends.
//!
//! A span's self time is its duration minus the time its child spans
//! cover. Probe spans re-time a layer the program reaches only inside a
//! larger call (the planner, the oracle, the golden check); they run
//! outside the measured passes, so nothing is subtracted for them.

use memconv_obs::{ArgValue, TraceEvent};
use std::time::Instant;

/// One recorded span.
#[derive(Debug, Clone, PartialEq)]
pub struct Span {
    /// Layer the span is charged to (`kernels.ours`, `serve.fleet`, ...).
    pub layer: String,
    /// Call name (`ConvFleet::run_trace`, ...).
    pub name: String,
    /// Start, seconds since the tracer was created.
    pub start_s: f64,
    /// End, seconds since the tracer was created.
    pub end_s: f64,
    /// Index of the enclosing span.
    pub parent: Option<usize>,
    /// Request, cell or pass id.
    pub id: u64,
    /// Whether this is a probe span.
    pub probe: bool,
}

/// Span recorder. A disabled tracer only runs the wrapped closures.
#[derive(Debug)]
pub struct Tracer {
    enabled: bool,
    epoch: Instant,
    spans: Vec<Span>,
    open: Vec<usize>,
}

impl Tracer {
    /// A tracer that records (`true`) or only runs closures (`false`).
    pub fn new(enabled: bool) -> Self {
        Tracer {
            enabled,
            epoch: Instant::now(),
            spans: Vec::new(),
            open: Vec::new(),
        }
    }

    /// Whether spans are recorded.
    pub fn enabled(&self) -> bool {
        self.enabled
    }

    fn record<R>(
        &mut self,
        layer: &str,
        name: &str,
        id: u64,
        probe: bool,
        f: impl FnOnce(&mut Tracer) -> R,
    ) -> R {
        if !self.enabled {
            return f(self);
        }
        let idx = self.spans.len();
        self.spans.push(Span {
            layer: layer.to_string(),
            name: name.to_string(),
            start_s: self.epoch.elapsed().as_secs_f64(),
            end_s: 0.0,
            parent: self.open.last().copied(),
            id,
            probe,
        });
        self.open.push(idx);
        let out = f(self);
        self.open.pop();
        self.spans[idx].end_s = self.epoch.elapsed().as_secs_f64();
        out
    }

    /// Run `f` inside a span charged to `layer`.
    pub fn span<R>(
        &mut self,
        layer: &str,
        name: &str,
        id: u64,
        f: impl FnOnce(&mut Tracer) -> R,
    ) -> R {
        self.record(layer, name, id, false, f)
    }

    /// Run `f` inside a probe span charged to `layer`.
    pub fn probe<R>(&mut self, layer: &str, name: &str, id: u64, f: impl FnOnce() -> R) -> R {
        self.record(layer, name, id, true, |_| f())
    }

    /// The recorded spans.
    pub fn spans(&self) -> &[Span] {
        &self.spans
    }

    /// The outermost span enclosing span `i` (itself when it has no
    /// parent).
    pub fn root(&self, mut i: usize) -> usize {
        while let Some(p) = self.spans[i].parent {
            i = p;
        }
        i
    }

    /// Self time of span `i`: its duration minus the union of its direct
    /// children's intervals.
    pub fn self_time(&self, i: usize) -> f64 {
        let s = &self.spans[i];
        let mut kids: Vec<(f64, f64)> = self
            .spans
            .iter()
            .filter(|c| c.parent == Some(i))
            .map(|c| (c.start_s, c.end_s))
            .collect();
        kids.sort_by(|a, b| a.0.total_cmp(&b.0));
        let mut covered = 0.0;
        let mut reach = s.start_s;
        for (a, b) in kids {
            let a = a.max(reach);
            if b > a {
                covered += b - a;
                reach = b;
            }
        }
        (s.end_s - s.start_s - covered).max(0.0)
    }

    /// The spans as chrome trace events, host microseconds, one thread
    /// lane per nesting depth.
    pub fn events(&self) -> Vec<TraceEvent> {
        self.spans
            .iter()
            .enumerate()
            .map(|(i, s)| {
                let mut depth = 0u64;
                let mut p = s.parent;
                while let Some(j) = p {
                    depth += 1;
                    p = self.spans[j].parent;
                }
                let mut args = vec![
                    ("layer".to_string(), ArgValue::from(s.layer.as_str())),
                    ("id".to_string(), ArgValue::U64(s.id)),
                    ("span".to_string(), ArgValue::U64(i as u64)),
                    (
                        "self_us".to_string(),
                        ArgValue::F64(self.self_time(i) * 1e6),
                    ),
                ];
                if let Some(p) = s.parent {
                    args.push(("parent".to_string(), ArgValue::U64(p as u64)));
                }
                if s.probe {
                    args.push(("probe".to_string(), ArgValue::U64(1)));
                }
                TraceEvent {
                    name: s.name.clone(),
                    cat: "host".to_string(),
                    ts_us: s.start_s * 1e6,
                    dur_us: (s.end_s - s.start_s) * 1e6,
                    pid: 1,
                    tid: depth,
                    args,
                }
            })
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn busy(ms: u64) {
        let t = Instant::now();
        while t.elapsed().as_millis() < ms as u128 {
            std::hint::black_box(0u64);
        }
    }

    #[test]
    fn self_time_subtracts_children() {
        let mut t = Tracer::new(true);
        t.span("outer", "outer", 0, |t| {
            busy(5);
            t.span("inner", "inner", 1, |_| busy(20));
        });
        let outer = t.self_time(0);
        let inner = t.self_time(1);
        let total = t.spans()[0].end_s - t.spans()[0].start_s;
        assert!(inner >= 0.019, "inner {inner}");
        assert!((outer + inner - total).abs() < 1e-9);
        assert_eq!(t.spans()[1].parent, Some(0));
    }

    #[test]
    fn disabled_tracer_records_nothing() {
        let mut t = Tracer::new(false);
        let v = t.span("a", "a", 0, |t| t.probe("b", "b", 1, || 7));
        assert_eq!(v, 7);
        assert!(t.spans().is_empty());
    }
}
