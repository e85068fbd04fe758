//! `ion-obs` — observability for the ION pipeline.
//!
//! Three pieces, usable together or standalone:
//!
//! - **Hierarchical spans** ([`span!`], [`SpanGuard`]): RAII guards that
//!   record wall time, parent/child structure (via a thread-local current
//!   span, with explicit hand-off across threads through
//!   [`current_span`] / [`span_under`]) and `key=value` attributes.
//! - **Metrics registry** ([`Registry`]): thread-safe counters, gauges and
//!   log₂-bucketed histograms. Hot-path updates are a single atomic RMW;
//!   name resolution takes a `parking_lot` read lock.
//! - **Renderers** ([`Snapshot::render_profile`], [`Snapshot::to_json`]):
//!   a human-readable profile tree and a machine-readable JSON document
//!   (`"schema": "ion-obs/1"`, what `--metrics-json` writes).
//!
//! The global sink is **off by default**. Instrumented code pays one
//! relaxed atomic load per call site while disabled — no clock reads, no
//! allocation, no locking:
//!
//! ```
//! ion_obs::enable();
//! {
//!     let mut outer = ion_obs::span!("decode", bytes = 4096u64);
//!     let _ = &mut outer;
//!     let _inner = ion_obs::span!("decode.posix");
//!     ion_obs::counter("records", 12);
//! }
//! let snap = ion_obs::snapshot();
//! assert_eq!(snap.counter("records"), 12);
//! assert_eq!(snap.spans.len(), 2);
//! ion_obs::disable();
//! ion_obs::reset();
//! ```

use std::sync::atomic::{AtomicBool, Ordering};

pub mod events;
pub mod json;
pub mod metrics;
pub mod render;
pub mod serve;
pub mod span;
pub mod trace;

pub use metrics::{HistogramSnapshot, Registry};
pub use span::{SpanData, SpanGuard, SpanId, SpanStore, TraceContext};

/// Whether the global sink records anything.
static ENABLED: AtomicBool = AtomicBool::new(false);

/// Is the global sink recording? One relaxed load — the only cost
/// instrumented code pays when profiling is off.
#[inline]
#[must_use]
pub fn enabled() -> bool {
    ENABLED.load(Ordering::Relaxed)
}

/// Start recording into the global sink.
pub fn enable() {
    ENABLED.store(true, Ordering::Relaxed);
}

/// Stop recording. Already-captured data stays until [`reset`].
pub fn disable() {
    ENABLED.store(false, Ordering::Relaxed);
}

static GLOBAL: std::sync::OnceLock<(SpanStore, Registry)> = std::sync::OnceLock::new();

/// Global span store + metrics registry.
fn global() -> &'static (SpanStore, Registry) {
    GLOBAL.get_or_init(|| (SpanStore::new(), Registry::new()))
}

/// Whether `store` is the global span store — span open/close events go to
/// the global event stream only for the global store, so standalone stores
/// (property tests, embedders) stay silent.
pub(crate) fn is_global_span_store(store: &SpanStore) -> bool {
    GLOBAL.get().is_some_and(|(s, _)| std::ptr::eq(s, store))
}

/// Clear all recorded spans and metrics (keeps the enabled flag as-is).
pub fn reset() {
    let (spans, registry) = global();
    spans.clear();
    registry.clear();
}

/// Open a span under the calling thread's current span. No-op when the
/// sink is disabled.
#[must_use]
pub fn span(name: impl Into<std::borrow::Cow<'static, str>>) -> SpanGuard<'static> {
    if !enabled() {
        return SpanGuard::noop();
    }
    global().0.open(name.into(), span::Parent::Current)
}

/// Open a span under an explicit parent (e.g. captured on another thread
/// via [`current_span`] before spawning). No-op when the sink is disabled.
#[must_use]
pub fn span_under(
    parent: Option<SpanId>,
    name: impl Into<std::borrow::Cow<'static, str>>,
) -> SpanGuard<'static> {
    if !enabled() {
        return SpanGuard::noop();
    }
    global().0.open(name.into(), span::Parent::Explicit(parent))
}

/// The calling thread's innermost open span, for cross-thread hand-off.
#[must_use]
pub fn current_span() -> Option<SpanId> {
    if !enabled() {
        return None;
    }
    global().0.current()
}

/// Mint a fresh request-scoped trace id from the global span store.
/// Usable even while the sink is disabled (ids are cheap and the caller
/// may enable tracing later).
#[must_use]
pub fn mint_trace() -> TraceContext {
    global().0.mint_trace()
}

/// Install `ctx` as the calling thread's trace for the guard's lifetime;
/// every span and event the thread emits until the guard drops carries
/// `ctx.trace`. No-op when the sink is disabled.
#[must_use]
pub fn install_trace(ctx: TraceContext) -> span::TraceScope<'static> {
    if !enabled() {
        return span::TraceScope::noop();
    }
    global().0.install_trace(ctx)
}

/// The calling thread's trace with `parent` advanced to the innermost
/// open span — capture this before handing work to another thread.
#[must_use]
pub fn current_trace() -> Option<TraceContext> {
    if !enabled() {
        return None;
    }
    global().0.current_trace()
}

/// Remove and return every finished global span belonging to `trace`
/// (clamped into a consistent tree). See [`SpanStore::take_trace`].
#[must_use]
pub fn take_trace(trace: u64) -> Vec<SpanData> {
    global().0.take_trace(trace)
}

/// `(trace id, innermost span id)` for the calling thread, used by the
/// event stream to stamp attribution fields onto every emitted event.
pub(crate) fn thread_trace_ids() -> Option<(u64, Option<u64>)> {
    GLOBAL.get().and_then(|(s, _)| s.thread_trace_ids())
}

/// Add `delta` to the named global counter. No-op when disabled. With the
/// event stream on, the delta also flows out as a `counter.add` event.
pub fn counter(name: &str, delta: u64) {
    if enabled() {
        global().1.counter(name).add(delta);
        if events::enabled() {
            events::emit(
                "counter.add",
                vec![
                    ("name".into(), events::Value::from(name)),
                    ("delta".into(), events::Value::from(delta)),
                ],
            );
        }
    }
}

/// Set the named global gauge. No-op when disabled. With the event stream
/// on, the new value also flows out as a `gauge.set` event.
pub fn gauge(name: &str, value: f64) {
    if enabled() {
        global().1.gauge(name).set(value);
        if events::enabled() {
            events::emit(
                "gauge.set",
                vec![
                    ("name".into(), events::Value::from(name)),
                    ("value".into(), events::Value::from(value)),
                ],
            );
        }
    }
}

/// Record `value` into the named global log₂ histogram. No-op when
/// disabled.
pub fn observe(name: &str, value: u64) {
    if enabled() {
        global().1.histogram(name).observe(value);
    }
}

/// Add `delta` to a labeled counter family, e.g.
/// `counter_with("serve.jobs.submitted", &[("tenant", "acme")], 1)`.
/// Cardinality is bounded per family: past the cap the delta degrades to
/// the unlabeled family and `obs.labels.dropped` counts the overflow.
/// No-op when disabled.
pub fn counter_with(name: &str, labels: &[(&str, &str)], delta: u64) {
    if enabled() {
        global().1.counter_with(name, labels).add(delta);
    }
}

/// Record `value` into a labeled histogram family (same cardinality
/// policy as [`counter_with`]). No-op when disabled.
pub fn observe_with(name: &str, labels: &[(&str, &str)], value: u64) {
    if enabled() {
        global().1.histogram_with(name, labels).observe(value);
    }
}

/// Time `f` into the named histogram (nanoseconds) and return its output.
/// When disabled this is just the call to `f`.
pub fn timed<T>(name: &str, f: impl FnOnce() -> T) -> T {
    if !enabled() {
        return f();
    }
    let start = std::time::Instant::now();
    let out = f();
    let ns = u64::try_from(start.elapsed().as_nanos()).unwrap_or(u64::MAX);
    global().1.histogram(name).observe(ns);
    out
}

/// Consistent point-in-time copy of all global spans and metrics.
#[must_use]
pub fn snapshot() -> render::Snapshot {
    let (spans, registry) = global();
    render::Snapshot::capture(spans, registry)
}

/// Open a span with optional `key = value` attributes:
///
/// ```
/// ion_obs::enable();
/// let _guard = ion_obs::span!("decode", bytes = 4096u64, module = "posix");
/// ```
#[macro_export]
macro_rules! span {
    ($name:expr) => {
        $crate::span($name)
    };
    ($name:expr, $($key:ident = $value:expr),+ $(,)?) => {{
        let mut guard = $crate::span($name);
        $(guard.attr(stringify!($key), $value);)+
        guard
    }};
}

/// Emit a structured event into the global stream with optional
/// `key = value` fields. While the stream is disabled this is one relaxed
/// atomic load — field values are not even constructed:
///
/// ```
/// let ring = std::sync::Arc::new(ion_obs::events::EventRing::new(8));
/// ion_obs::events::install(ring.clone());
/// ion_obs::event!("llm.run.started", model = "expert-v1", steps = 0u64);
/// assert_eq!(ring.drain().len(), 1);
/// ion_obs::events::uninstall();
/// ```
#[macro_export]
macro_rules! event {
    ($kind:expr $(, $key:ident = $value:expr)* $(,)?) => {
        if $crate::events::enabled() {
            $crate::events::emit(
                $kind,
                vec![$((
                    ::std::borrow::Cow::Borrowed(stringify!($key)),
                    $crate::events::Value::from($value),
                )),*],
            );
        }
    };
}

#[cfg(test)]
mod tests {
    use super::*;

    // The global sink is process-wide state and `cargo test` runs tests on
    // concurrent threads, so every test touching it serializes here.
    fn with_global_sink(f: impl FnOnce()) {
        static LOCK: parking_lot::Mutex<()> = parking_lot::Mutex::new(());
        let _guard = LOCK.lock();
        reset();
        enable();
        f();
        disable();
        reset();
    }

    #[test]
    fn disabled_sink_records_nothing() {
        with_global_sink(|| {
            disable();
            {
                let _s = span!("ghost", tag = 1);
                counter("ghost", 5);
                observe("ghost_hist", 10);
                gauge("ghost_gauge", 1.0);
            }
            let snap = snapshot();
            assert!(snap.spans.is_empty());
            assert_eq!(snap.counter("ghost"), 0);
            assert!(snap.histograms.is_empty());
            enable(); // restore for with_global_sink's teardown
        });
    }

    #[test]
    fn spans_nest_on_one_thread() {
        with_global_sink(|| {
            {
                let _outer = span!("outer");
                let _inner = span!("inner");
            }
            let snap = snapshot();
            assert_eq!(snap.spans.len(), 2);
            let outer = snap.spans.iter().find(|s| s.name == "outer").unwrap();
            let inner = snap.spans.iter().find(|s| s.name == "inner").unwrap();
            assert_eq!(inner.parent, Some(outer.id));
            assert!(outer.start_ns <= inner.start_ns);
            assert!(inner.end_ns <= outer.end_ns);
        });
    }

    #[test]
    fn explicit_parent_crosses_threads() {
        with_global_sink(|| {
            let parent_id = {
                let parent = span!("dispatch");
                let id = parent.id();
                let captured = current_span();
                assert_eq!(captured, id);
                std::thread::scope(|scope| {
                    scope.spawn(move || {
                        let _child = span_under(captured, "worker");
                    });
                });
                id.unwrap()
            };
            let snap = snapshot();
            let worker = snap.spans.iter().find(|s| s.name == "worker").unwrap();
            assert_eq!(worker.parent, Some(parent_id));
        });
    }

    #[test]
    fn timed_routes_to_histogram() {
        with_global_sink(|| {
            let v = timed("t", || 7);
            assert_eq!(v, 7);
            let snap = snapshot();
            assert_eq!(snap.histograms["t"].count, 1);
        });
    }
}
