//! Host-clock spans recorded around the benchmark's calls into each crate.
//!
//! Tracing is off unless [`start`] was called: [`span`] then only runs its
//! closure. With tracing on, every span is kept in memory (name, start,
//! end, parent) and handed back by [`finish`] when the traced work is done;
//! nothing is written while the workload runs.

use std::cell::RefCell;
use std::time::Instant;

use asc_kernel::Kernel;
use asc_vm::{SyscallHandler, TrapContext, TrapOutcome};

/// One timed interval, in nanoseconds since the tracer started.
#[derive(Clone, Copy, Debug)]
pub struct Span {
    /// Layer name, `crate.function` style.
    pub name: &'static str,
    /// Start, ns since the tracer's origin.
    pub start: u64,
    /// End, ns since the tracer's origin.
    pub end: u64,
    /// Index of the enclosing span, if any.
    pub parent: Option<usize>,
}

impl Span {
    /// Duration in ns.
    pub fn ns(&self) -> u64 {
        self.end - self.start
    }
}

struct Tracer {
    origin: Instant,
    spans: Vec<Span>,
    open: Vec<usize>,
}

impl Tracer {
    fn now(&self) -> u64 {
        self.origin.elapsed().as_nanos() as u64
    }
}

thread_local! {
    static TRACER: RefCell<Option<Tracer>> = const { RefCell::new(None) };
}

/// Turns tracing on with an empty span list.
pub fn start() {
    TRACER.with(|t| {
        *t.borrow_mut() = Some(Tracer {
            origin: Instant::now(),
            spans: Vec::new(),
            open: Vec::new(),
        });
    });
}

/// Turns tracing off and returns every span recorded since [`start`].
pub fn finish() -> Vec<Span> {
    TRACER.with(|t| {
        let tracer = t.borrow_mut().take().expect("finish() follows start()");
        assert!(tracer.open.is_empty(), "every span is closed");
        tracer.spans
    })
}

/// Runs `f`, recording it as a span named `name` when tracing is on.
pub fn span<T>(name: &'static str, f: impl FnOnce() -> T) -> T {
    let id = TRACER.with(|t| {
        t.borrow_mut().as_mut().map(|tr| {
            let id = tr.spans.len();
            let start = tr.now();
            tr.spans.push(Span {
                name,
                start,
                end: start,
                parent: tr.open.last().copied(),
            });
            tr.open.push(id);
            id
        })
    });
    let out = f();
    if let Some(id) = id {
        TRACER.with(|t| {
            let mut t = t.borrow_mut();
            let tr = t.as_mut().expect("tracing stays on while a span is open");
            tr.spans[id].end = tr.now();
            tr.open.pop();
        });
    }
    out
}

/// A [`Kernel`] whose every trap is recorded as a `kernel.trap` span.
/// Only traced runs load machines with it; untraced runs use the kernel
/// itself.
pub struct TimedKernel(pub Kernel);

impl SyscallHandler for TimedKernel {
    fn syscall(&mut self, ctx: &mut TrapContext<'_>) -> TrapOutcome {
        span("kernel.trap", || self.0.syscall(ctx))
    }
}

/// Per-name totals over a span list: count, summed duration and summed
/// self time (duration minus the time covered by direct children).
#[derive(Clone, Copy, Debug, Default)]
pub struct Totals {
    /// Spans with this name.
    pub count: u64,
    /// Summed duration, ns.
    pub total_ns: u64,
    /// Summed self time, ns.
    pub self_ns: u64,
}

/// Aggregates `spans` by name, in first-seen order.
pub fn totals(spans: &[Span]) -> Vec<(&'static str, Totals)> {
    let mut child_ns = vec![0u64; spans.len()];
    for s in spans {
        if let Some(p) = s.parent {
            child_ns[p] += s.ns();
        }
    }
    let mut out: Vec<(&'static str, Totals)> = Vec::new();
    for (s, child) in spans.iter().zip(&child_ns) {
        let i = match out.iter().position(|(n, _)| *n == s.name) {
            Some(i) => i,
            None => {
                out.push((s.name, Totals::default()));
                out.len() - 1
            }
        };
        let t = &mut out[i].1;
        t.count += 1;
        t.total_ns += s.ns();
        t.self_ns += s.ns() - child;
    }
    out
}

/// Durations (ns) of every span named `name`, sorted ascending.
pub fn durations(spans: &[Span], name: &str) -> Vec<u64> {
    let mut d: Vec<u64> = spans
        .iter()
        .filter(|s| s.name == name)
        .map(Span::ns)
        .collect();
    d.sort_unstable();
    d
}
