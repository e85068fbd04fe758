//! `ion-exec` — the shared execution layer for every parallel stage in
//! the ION pipeline.
//!
//! Before this crate existed the analyzer, the store driver and the
//! batch front-end each carried a private copy of the same chunked
//! scoped-thread loop: split the items into `width`-sized chunks, spawn
//! one thread per item, join the whole chunk before starting the next.
//! That shape has two structural problems this crate removes:
//!
//! - **Chunk barriers.** Joining per chunk means the slowest item gates
//!   every item in its chunk; with skewed per-item durations most
//!   workers idle at each barrier. Here a batch is a single shared
//!   injector queue (an atomic cursor over the input slice): a worker
//!   pulls the next item the moment it finishes the previous one, so
//!   wall clock tracks the critical path, not the sum of chunk maxima.
//! - **Panic aborts.** `handle.join().expect(…)` turns one panicking
//!   item into a crash of the whole run. Here every task runs under
//!   [`std::panic::catch_unwind`] and yields a [`TaskOutcome`]; the
//!   caller decides whether a panicked item degrades one result or the
//!   whole batch.
//!
//! On top of that the batch carries cooperative interruption — a
//! [`CancelToken`] and an optional deadline, checked before each task
//! starts and exposed to the task body (via [`TaskCtx`]) so long-running
//! work can stop at its own safe points — and publishes queue-depth,
//! wait-time and run-time instrumentation through the `ion-obs` registry
//! (`exec.*` gauges, counters and histograms; visible on the `/metrics`
//! endpoint like every other metric).
//!
//! [`Batch::map_ordered`] preserves input order and sequential
//! determinism: outcome `i` always corresponds to item `i`, and a batch
//! at width 1 produces exactly the outcomes of a plain sequential loop.
//!
//! Worker width follows one policy everywhere ([`width`]): the
//! `ION_WORKERS` environment variable when set, hardware parallelism
//! otherwise.

pub mod fair;

use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

/// The pool width policy shared by every execution site: `ION_WORKERS`
/// (positive integer) when set, otherwise hardware parallelism with a
/// fallback of 2 when the hardware cannot be queried.
#[must_use]
pub fn width() -> usize {
    if let Ok(v) = std::env::var("ION_WORKERS") {
        if let Ok(n) = v.trim().parse::<usize>() {
            if n > 0 {
                return n;
            }
        }
    }
    std::thread::available_parallelism().map_or(2, std::num::NonZeroUsize::get)
}

/// A cooperative cancellation handle. Clones share one flag; any clone
/// can cancel, and cancellation is permanent for the token's lifetime.
#[derive(Clone, Debug, Default)]
pub struct CancelToken(Arc<AtomicBool>);

impl CancelToken {
    /// A fresh, un-cancelled token.
    #[must_use]
    pub fn new() -> CancelToken {
        CancelToken::default()
    }

    /// Request cancellation. Tasks not yet started resolve to
    /// [`TaskOutcome::Cancelled`]; running tasks observe it at their next
    /// [`Interrupt::check`].
    pub fn cancel(&self) {
        self.0.store(true, Ordering::Relaxed);
    }

    /// Has cancellation been requested?
    #[must_use]
    pub fn is_cancelled(&self) -> bool {
        self.0.load(Ordering::Relaxed)
    }
}

/// Why a computation was interrupted.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Interrupted {
    /// The batch's [`CancelToken`] was cancelled.
    Cancelled,
    /// The batch's deadline passed.
    Deadlined,
}

impl std::fmt::Display for Interrupted {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(match self {
            Interrupted::Cancelled => "cancelled",
            Interrupted::Deadlined => "deadlined",
        })
    }
}

impl std::error::Error for Interrupted {}

/// A cancellation token plus an absolute deadline, bundled so deep call
/// stacks (the LLM run loop, long extractions) can poll one object at
/// their safe points. The empty interrupt never fires, so plumbing it
/// unconditionally costs two branches per check.
#[derive(Clone, Debug, Default)]
pub struct Interrupt {
    cancel: Option<CancelToken>,
    deadline: Option<Instant>,
}

impl Interrupt {
    /// An interrupt that never fires.
    #[must_use]
    pub fn none() -> Interrupt {
        Interrupt::default()
    }

    /// Fire when `token` is cancelled.
    #[must_use]
    pub fn with_cancel(mut self, token: CancelToken) -> Interrupt {
        self.cancel = Some(token);
        self
    }

    /// Fire once `deadline` has passed.
    #[must_use]
    pub fn with_deadline_at(mut self, deadline: Instant) -> Interrupt {
        self.deadline = Some(deadline);
        self
    }

    /// `Err` when the computation should stop: cancellation wins over a
    /// deadline when both have fired (the caller asked first).
    pub fn check(&self) -> Result<(), Interrupted> {
        if self.cancel.as_ref().is_some_and(CancelToken::is_cancelled) {
            return Err(Interrupted::Cancelled);
        }
        if self.deadline.is_some_and(|d| Instant::now() >= d) {
            return Err(Interrupted::Deadlined);
        }
        Ok(())
    }
}

/// The outcome of one task in a batch. `map_ordered` never loses a slot:
/// every input item gets exactly one outcome, in input order.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum TaskOutcome<T> {
    /// The task ran to completion.
    Ok(T),
    /// The task panicked; the payload is the rendered panic message.
    /// The rest of the batch is unaffected.
    Panicked(String),
    /// The batch was cancelled before this task started.
    Cancelled,
    /// The batch deadline passed before this task started.
    Deadlined,
}

impl<T> TaskOutcome<T> {
    /// Did the task complete?
    #[must_use]
    pub fn is_ok(&self) -> bool {
        matches!(self, TaskOutcome::Ok(_))
    }
}

/// Per-task context handed to the task body: the batch interrupt (for
/// cooperative checks at safe points), the task's input index, and the
/// request trace the task runs under (already installed on the worker
/// thread — exposed for explicit hand-offs to further threads).
#[derive(Debug)]
pub struct TaskCtx {
    interrupt: Interrupt,
    index: usize,
    trace: Option<ion_obs::TraceContext>,
}

impl TaskCtx {
    /// The batch interrupt, for handing down to inner loops.
    #[must_use]
    pub fn interrupt(&self) -> &Interrupt {
        &self.interrupt
    }

    /// Convenience for `self.interrupt().check()`.
    pub fn check(&self) -> Result<(), Interrupted> {
        self.interrupt.check()
    }

    /// Index of this task's item in the input slice.
    #[must_use]
    pub fn index(&self) -> usize {
        self.index
    }

    /// The trace this task is attributed to, if any.
    #[must_use]
    pub fn trace(&self) -> Option<ion_obs::TraceContext> {
        self.trace
    }
}

/// Configuration for one batch of tasks: width, deadline, cancellation.
/// Cheap to clone; carries no threads of its own (workers are scoped to
/// each [`Batch::map_ordered`] call, so borrowed task state needs no
/// `'static` bound).
#[derive(Clone, Debug, Default)]
pub struct Batch {
    width: usize,
    deadline: Option<Duration>,
    cancel: Option<CancelToken>,
}

impl Batch {
    /// A batch at the default [`width`], no deadline, no cancellation.
    #[must_use]
    pub fn new() -> Batch {
        Batch::default()
    }

    /// Fix the worker count. `0` restores the [`width`] policy.
    #[must_use]
    pub fn with_width(mut self, width: usize) -> Batch {
        self.width = width;
        self
    }

    /// Give every `map_ordered` call this long from its start; items not
    /// begun by then resolve to [`TaskOutcome::Deadlined`].
    #[must_use]
    pub fn with_deadline(mut self, deadline: Duration) -> Batch {
        self.deadline = Some(deadline);
        self
    }

    /// Attach a cancellation token.
    #[must_use]
    pub fn with_cancel(mut self, token: CancelToken) -> Batch {
        self.cancel = Some(token);
        self
    }

    /// The configured deadline, if any.
    #[must_use]
    pub fn deadline(&self) -> Option<Duration> {
        self.deadline
    }

    /// The worker count a batch of `tasks` items would actually use:
    /// the configured (or policy) width, never more than the item count.
    #[must_use]
    pub fn effective_width(&self, tasks: usize) -> usize {
        let w = if self.width == 0 { width() } else { self.width };
        w.min(tasks.max(1))
    }

    /// Run `f` over every item of `items`, returning one [`TaskOutcome`]
    /// per item **in input order**.
    ///
    /// Items feed a shared injector queue: each worker takes the next
    /// un-started item as soon as it finishes its current one — no chunk
    /// barriers. A panicking task is caught and reported as
    /// [`TaskOutcome::Panicked`] without disturbing its peers. At an
    /// effective width of 1 the batch degenerates to a sequential loop
    /// on the calling thread with identical semantics, which is what
    /// makes `sequential == parallel` determinism tests meaningful.
    pub fn map_ordered<I, T, F>(&self, items: &[I], f: F) -> Vec<TaskOutcome<T>>
    where
        I: Sync,
        T: Send,
        F: Fn(&I, &TaskCtx) -> T + Sync,
    {
        if items.is_empty() {
            return Vec::new();
        }
        let started = Instant::now();
        let mut interrupt = Interrupt::default();
        interrupt.cancel.clone_from(&self.cancel);
        interrupt.deadline = self.deadline.map(|d| started + d);
        let width = self.effective_width(items.len());
        let instrument = ion_obs::enabled();
        // Capture the request trace once on the submitting thread; each
        // worker installs it so spans/events attribute to the request.
        let trace = ion_obs::current_trace();
        if instrument {
            ion_obs::gauge("exec.width", width as f64);
            ion_obs::gauge("exec.queue_depth", items.len() as f64);
        }

        let mut slots: Vec<Option<TaskOutcome<T>>> = Vec::new();
        slots.resize_with(items.len(), || None);
        if width <= 1 {
            for (i, slot) in slots.iter_mut().enumerate() {
                *slot = Some(run_task(
                    &items[i], i, &interrupt, &f, started, instrument, trace,
                ));
            }
        } else {
            let cursor = AtomicUsize::new(0);
            std::thread::scope(|scope| {
                let mut handles = Vec::new();
                for _ in 0..width {
                    let (cursor, interrupt, f) = (&cursor, &interrupt, &f);
                    handles.push(scope.spawn(move || {
                        let mut local = Vec::new();
                        loop {
                            let i = cursor.fetch_add(1, Ordering::Relaxed);
                            if i >= items.len() {
                                break;
                            }
                            if instrument {
                                let left = items.len().saturating_sub(i + 1);
                                ion_obs::gauge("exec.queue_depth", left as f64);
                            }
                            local.push((
                                i,
                                run_task(&items[i], i, interrupt, f, started, instrument, trace),
                            ));
                        }
                        local
                    }));
                }
                for h in handles {
                    // Task panics are caught inside run_task, so a worker
                    // thread itself panicking would be a bug in this crate.
                    for (i, outcome) in h.join().expect("ion-exec worker panicked") {
                        slots[i] = Some(outcome);
                    }
                }
            });
        }
        if instrument {
            ion_obs::gauge("exec.queue_depth", 0.0);
        }
        slots.into_iter().flatten().collect()
    }
}

/// Render a panic payload the way the default hook would.
fn panic_message(payload: &(dyn std::any::Any + Send)) -> String {
    if let Some(s) = payload.downcast_ref::<&str>() {
        (*s).to_owned()
    } else if let Some(s) = payload.downcast_ref::<String>() {
        s.clone()
    } else {
        "non-string panic payload".to_owned()
    }
}

fn run_task<I, T, F>(
    item: &I,
    index: usize,
    interrupt: &Interrupt,
    f: &F,
    batch_start: Instant,
    instrument: bool,
    trace: Option<ion_obs::TraceContext>,
) -> TaskOutcome<T>
where
    F: Fn(&I, &TaskCtx) -> T,
{
    // Install the request trace for the task's whole lifetime (restored
    // on return), so even the exec.* bookkeeping attributes correctly.
    let _trace_scope = trace.map(ion_obs::install_trace);
    match interrupt.check() {
        Err(Interrupted::Cancelled) => {
            ion_obs::counter("exec.cancelled", 1);
            return TaskOutcome::Cancelled;
        }
        Err(Interrupted::Deadlined) => {
            ion_obs::counter("exec.deadlined", 1);
            return TaskOutcome::Deadlined;
        }
        Ok(()) => {}
    }
    if instrument {
        ion_obs::counter("exec.tasks", 1);
        let wait = u64::try_from(batch_start.elapsed().as_nanos()).unwrap_or(u64::MAX);
        ion_obs::observe("exec.wait_ns", wait);
    }
    let ctx = TaskCtx {
        interrupt: interrupt.clone(),
        index,
        trace,
    };
    let run_start = Instant::now();
    let outcome = catch_unwind(AssertUnwindSafe(|| f(item, &ctx)));
    if instrument {
        let ns = u64::try_from(run_start.elapsed().as_nanos()).unwrap_or(u64::MAX);
        ion_obs::observe("exec.run_ns", ns);
    }
    match outcome {
        Ok(v) => TaskOutcome::Ok(v),
        Err(payload) => {
            ion_obs::counter("exec.tasks.panicked", 1);
            TaskOutcome::Panicked(panic_message(payload.as_ref()))
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn ion_workers_overrides_width() {
        // This is the only test in this binary touching the env var, so
        // the set/remove pair cannot race another width() call.
        std::env::set_var("ION_WORKERS", "3");
        assert_eq!(width(), 3);
        std::env::set_var("ION_WORKERS", "not a number");
        assert!(width() >= 1);
        std::env::remove_var("ION_WORKERS");
        // Hardware parallelism: at least one worker, whatever the host.
        assert!(width() >= 1);
    }

    #[test]
    fn map_ordered_preserves_order() {
        for w in [1, 2, 7] {
            let items: Vec<usize> = (0..23).collect();
            let out = Batch::new()
                .with_width(w)
                .map_ordered(&items, |&i, _| i * 10);
            let expected: Vec<_> = (0..23).map(|i| TaskOutcome::Ok(i * 10)).collect();
            assert_eq!(out, expected, "width {w}");
        }
    }

    #[test]
    fn panics_are_isolated_per_task() {
        let items: Vec<u32> = (0..8).collect();
        let out = Batch::new().with_width(4).map_ordered(&items, |&i, _| {
            assert!(i != 3, "boom on 3");
            i + 100
        });
        for (i, o) in out.iter().enumerate() {
            match o {
                TaskOutcome::Ok(v) => assert_eq!(*v, i as u32 + 100),
                TaskOutcome::Panicked(msg) => {
                    assert_eq!(i, 3);
                    assert!(msg.contains("boom on 3"), "{msg}");
                }
                other => panic!("unexpected outcome {other:?}"),
            }
        }
    }

    #[test]
    fn cancellation_skips_unstarted_tasks() {
        let token = CancelToken::new();
        let items: Vec<usize> = (0..4).collect();
        let cancel_from_task = token.clone();
        let out =
            Batch::new()
                .with_width(1)
                .with_cancel(token)
                .map_ordered(&items, move |&i, _| {
                    if i == 0 {
                        cancel_from_task.cancel();
                    }
                    i
                });
        assert_eq!(out[0], TaskOutcome::Ok(0));
        for o in &out[1..] {
            assert_eq!(*o, TaskOutcome::Cancelled);
        }
    }

    #[test]
    fn task_ctx_reports_index_and_interrupt() {
        let items = [10u8, 20u8];
        let out = Batch::new().with_width(1).map_ordered(&items, |&v, ctx| {
            assert!(ctx.check().is_ok());
            (v, ctx.index())
        });
        assert_eq!(out[0], TaskOutcome::Ok((10, 0)));
        assert_eq!(out[1], TaskOutcome::Ok((20, 1)));
    }

    #[test]
    fn empty_batch_is_empty() {
        let out = Batch::new().map_ordered(&[] as &[u8], |&v, _| v);
        assert!(out.is_empty());
    }

    #[test]
    fn effective_width_is_bounded_by_items() {
        let b = Batch::new().with_width(8);
        assert_eq!(b.effective_width(3), 3);
        assert_eq!(b.effective_width(100), 8);
        assert_eq!(b.effective_width(0), 1);
    }
}
