//! Spans for the traced run, recorded from outside the program around the
//! calls into each layer's public functions.
//!
//! [`traced_step`] is a phase-by-phase copy of `Controller::step` that
//! wraps every phase in a span; [`TimedAllocator`] wraps the policy's
//! `KeyGroupAllocator`. Spans stay in memory and are written out once, at
//! the end of the run. A span's self time is its duration minus the time
//! its child spans cover.

use std::cell::{Cell, RefCell};
use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::rc::Rc;
use std::time::Instant;

use albic::core::allocator::{AllocOutcome, KeyGroupAllocator, NodeSet};
use albic::engine::substrate::{ApplyReport, ReconfigEngine, ReconfigMode};
use albic::engine::{CostModel, PeriodStats, ReconfigPlan, ReconfigPolicy, RecoveryReport};

use crate::util::json_str;

/// One closed span.
#[derive(Debug, Clone)]
pub struct Span {
    pub name: &'static str,
    /// Nanoseconds since the tracer was created.
    pub start: u64,
    pub end: u64,
    /// Index of the enclosing span, if any.
    pub parent: Option<usize>,
    /// The adaptation round (period index) the span belongs to.
    pub round: u64,
}

impl Span {
    pub fn ms(&self) -> f64 {
        (self.end - self.start) as f64 / 1e6
    }
}

#[derive(Debug)]
struct Inner {
    origin: Instant,
    spans: RefCell<Vec<Span>>,
    open: RefCell<Vec<usize>>,
    round: Cell<u64>,
    /// `projected_distance − lower_bound` of every allocation, in pp.
    gaps: RefCell<Vec<f64>>,
}

/// A cheap, cloneable handle on one run's span log (single-threaded: the
/// benchmark's main thread records every span).
#[derive(Debug, Clone)]
pub struct Tracer(Rc<Inner>);

impl Default for Tracer {
    fn default() -> Self {
        Tracer(Rc::new(Inner {
            origin: Instant::now(),
            spans: RefCell::new(Vec::new()),
            open: RefCell::new(Vec::new()),
            round: Cell::new(0),
            gaps: RefCell::new(Vec::new()),
        }))
    }
}

impl Tracer {
    fn now(&self) -> u64 {
        self.0.origin.elapsed().as_nanos() as u64
    }

    pub fn set_round(&self, round: u64) {
        self.0.round.set(round);
    }

    /// Run `f` inside a span named `name`, nested under the innermost open
    /// span.
    pub fn span<T>(&self, name: &'static str, f: impl FnOnce() -> T) -> T {
        let idx = {
            let mut spans = self.0.spans.borrow_mut();
            spans.push(Span {
                name,
                start: self.now(),
                end: 0,
                parent: self.0.open.borrow().last().copied(),
                round: self.0.round.get(),
            });
            spans.len() - 1
        };
        self.0.open.borrow_mut().push(idx);
        let out = f();
        self.0.open.borrow_mut().pop();
        let end = self.now();
        self.0.spans.borrow_mut()[idx].end = end;
        out
    }

    pub fn spans(&self) -> Vec<Span> {
        self.0.spans.borrow().clone()
    }

    pub fn gaps(&self) -> Vec<f64> {
        self.0.gaps.borrow().clone()
    }

    /// Durations in ms of every span named `name`.
    pub fn durations(&self, name: &str) -> Vec<f64> {
        self.0
            .spans
            .borrow()
            .iter()
            .filter(|s| s.name == name)
            .map(Span::ms)
            .collect()
    }

    /// Every span's self time in ms — its duration minus the time its
    /// child spans cover — in the order of [`Tracer::spans`].
    pub fn self_ms(&self) -> Vec<f64> {
        let spans = self.0.spans.borrow();
        let mut child = vec![0u64; spans.len()];
        for s in spans.iter() {
            if let Some(p) = s.parent {
                child[p] += s.end - s.start;
            }
        }
        spans
            .iter()
            .zip(child)
            .map(|(s, c)| (s.end - s.start - c) as f64 / 1e6)
            .collect()
    }

    /// Self time summed per span name, in ms.
    pub fn self_times(&self) -> BTreeMap<&'static str, f64> {
        let mut out = BTreeMap::new();
        for (s, ms) in self.spans().iter().zip(self.self_ms()) {
            *out.entry(s.name).or_insert(0.0) += ms;
        }
        out
    }

    /// Write every span as one JSON line — except the per-call `inject`
    /// spans, of which there are hundreds of thousands, and which are
    /// summarised by the self-time line — then one line of self times.
    pub fn write(&self, path: &std::path::Path) -> std::io::Result<()> {
        let mut out = String::new();
        for (i, s) in self.0.spans.borrow().iter().enumerate() {
            if s.name.starts_with("inject") {
                continue;
            }
            let parent = s.parent.map_or("null".to_string(), |p| p.to_string());
            let _ = writeln!(
                out,
                "{{\"id\": {i}, \"name\": {}, \"start_ns\": {}, \"end_ns\": {}, \"parent\": {parent}, \"round\": {}}}",
                json_str(s.name),
                s.start,
                s.end,
                s.round
            );
        }
        out.push_str("{\"self_ms\": {");
        for (i, (name, ms)) in self.self_times().iter().enumerate() {
            let _ = write!(
                out,
                "{}{}: {ms:?}",
                if i > 0 { ", " } else { "" },
                json_str(name)
            );
        }
        out.push_str("}}\n");
        if let Some(dir) = path.parent() {
            std::fs::create_dir_all(dir)?;
        }
        std::fs::write(path, out)
    }
}

/// A [`KeyGroupAllocator`] that records an `allocate` span and the
/// solver's optimality gap for every call, then delegates.
pub struct TimedAllocator<A> {
    inner: A,
    tracer: Tracer,
}

impl<A> TimedAllocator<A> {
    pub fn new(inner: A, tracer: Tracer) -> Self {
        TimedAllocator { inner, tracer }
    }
}

impl<A: KeyGroupAllocator> KeyGroupAllocator for TimedAllocator<A> {
    fn name(&self) -> &str {
        self.inner.name()
    }

    fn allocate(&mut self, stats: &PeriodStats, nodes: &NodeSet, cost: &CostModel) -> AllocOutcome {
        let out = self
            .tracer
            .span("allocate", || self.inner.allocate(stats, nodes, cost));
        self.tracer
            .0
            .gaps
            .borrow_mut()
            .push(out.projected_distance - out.lower_bound);
        out
    }
}

/// What one traced round produced.
#[derive(Debug)]
pub struct TracedRound {
    pub recovery: RecoveryReport,
    pub plan: ReconfigPlan,
    pub apply: ApplyReport,
}

/// One adaptation round, phase by phase, exactly as `Controller::step`
/// runs it: recover → settle → terminate_drained → end_period → plan →
/// apply (or apply_epoch, by the engine's mode). Each phase is a span
/// under one `round` span.
pub fn traced_step<E: ReconfigEngine>(
    engine: &mut E,
    policy: &mut dyn ReconfigPolicy,
    tracer: &Tracer,
) -> TracedRound {
    tracer.span("round", || {
        let recovery = tracer.span("recover", || engine.recover());
        tracer.span("settle", || engine.settle());
        tracer.span("terminate_drained", || engine.terminate_drained());
        let stats = tracer.span("end_period", || engine.end_period());
        let plan = tracer.span("plan", || policy.plan(&stats, engine.view()));
        let apply = tracer.span("apply", || match engine.reconfig_mode() {
            ReconfigMode::Epoch => engine.apply_epoch(&plan),
            ReconfigMode::Quiesce => engine.apply(&plan),
        });
        TracedRound {
            recovery,
            plan,
            apply,
        }
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn self_time_subtracts_children() {
        let t = Tracer::default();
        t.span("outer", || {
            t.span("inner", || {
                std::thread::sleep(std::time::Duration::from_millis(3))
            });
        });
        let spans = t.spans();
        assert_eq!(spans[1].parent, Some(0));
        let selfs = t.self_times();
        assert!(selfs["inner"] >= 3.0);
        assert!(selfs["outer"] < spans[0].ms() - 2.9);
    }
}
