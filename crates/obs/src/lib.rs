//! First-party tracing and metrics for the k-core engine.
//!
//! The container has no crates.io access, so this crate is a small,
//! dependency-free substitute for the `tracing` + `tracing-chrome`
//! stack: callsite macros ([`span!`], [`event!`], [`counter!`],
//! [`gauge_max!`]) record into lock-free per-thread ring buffers, and
//! [`TraceReport::capture`] drains everything into one report that
//! exports a unified metrics JSON ([`TraceReport::metrics_json`]) and
//! Chrome Trace Event Format ([`TraceReport::chrome_trace`],
//! loadable in `chrome://tracing` or Perfetto).
//!
//! # Runtime gating and the overhead contract
//!
//! Everything is gated by the `KCORE_TRACE` environment variable
//! (read once, overridable in-process via [`set_level`]):
//!
//! * `off` (default) — the macros evaluate a single relaxed atomic
//!   load and a predictable branch, then do **nothing**: no
//!   thread-local access, no clock read, no allocation. The per-thread
//!   ring buffers are allocated lazily on a thread's *first recorded
//!   event*, so a process that never enables tracing never allocates
//!   a buffer at all (asserted by `tests/off_noop.rs`).
//! * `counters` — [`counter!`] and [`gauge_max!`] are live (one extra
//!   relaxed `fetch_add` on a callsite-static cell); spans are still
//!   no-ops, so there are no clock reads on the hot path.
//! * `spans` — everything is live. A span records two fixed-size ring
//!   slots (begin/end) with one monotonic clock read each; events
//!   record one. Instrumentation in the engine is placed at round /
//!   subround / phase granularity — never per-vertex — so even `spans`
//!   costs O(rounds) clock reads per decomposition.
//!
//! Unknown `KCORE_TRACE` values panic with the valid set, mirroring
//! `KCORE_TECHNIQUES` parsing.
//!
//! # Ring-buffer design
//!
//! Each recording thread owns a [`ring::ThreadBuffer`]: a fixed-power-
//! of-two ring of 24-byte slots, each slot three `AtomicU64`s
//! (timestamp-nanos, packed `name_id | kind`, argument). The owning
//! thread is the only writer: it fills the slot with relaxed stores,
//! then *publishes* by bumping the write cursor with `Release`. A
//! drain ([`TraceReport::capture`]) acquires the cursor and reads
//! slots with relaxed loads — every slot at an index below the
//! acquired cursor is fully written, and torn reads are impossible by
//! construction because every word is individually atomic. On
//! overflow the ring keeps the newest records and counts the
//! overwritten ones (`dropped` in the report); capture is intended to
//! run at quiescence (after a decomposition returns), which the
//! drain-side contract documents rather than enforces.
//!
//! Span/counter names are `&'static str`s interned once per callsite
//! into a global table ([`registry`]); records carry the `u32` id, so
//! the hot path never touches the string or any lock after the first
//! hit at a callsite.
//!
//! # Metrics registry
//!
//! [`MetricsRegistry`] is the named counter/gauge store that the
//! engine's historical stats structs (`RunStats`,
//! `TechniqueCounters`, `SchedulerStats`, `MaintainStats`) publish
//! into as `prefix.field` gauges, so one [`TraceReport`] carries the
//! whole story: live counters from the macros, end-of-run gauges from
//! the stats structs, and the span timeline.

pub mod registry;
pub mod report;
pub mod ring;

pub use report::{SpanAgg, ThreadTrace, TraceRecord, TraceReport};
pub use ring::RecordKind;

use kcore_check::sync::atomic::{AtomicU8, Ordering};

/// Tracing level, parsed from `KCORE_TRACE`.
#[derive(Clone, Copy, Debug, PartialEq, Eq, PartialOrd, Ord)]
pub enum Level {
    /// Record nothing; macros are branch-only no-ops.
    Off = 0,
    /// Counters and gauges only; spans/events disabled.
    Counters = 1,
    /// Full span timeline plus counters.
    Spans = 2,
}

impl Level {
    /// Human name, as accepted by `KCORE_TRACE`.
    pub fn as_str(self) -> &'static str {
        match self {
            Level::Off => "off",
            Level::Counters => "counters",
            Level::Spans => "spans",
        }
    }
}

const LEVEL_UNSET: u8 = u8::MAX;
static LEVEL: AtomicU8 = AtomicU8::new(LEVEL_UNSET);

#[cold]
fn init_level_from_env() -> u8 {
    let parsed = match std::env::var("KCORE_TRACE") {
        Ok(raw) => match raw.trim() {
            "" | "off" | "0" => Level::Off,
            "counters" => Level::Counters,
            "spans" => Level::Spans,
            other => panic!("KCORE_TRACE: unknown level {other:?} (valid: off, counters, spans)"),
        },
        Err(_) => Level::Off,
    };
    // A concurrent set_level or env init may have raced us; first
    // writer wins so the level is stable for the whole process.
    match LEVEL.compare_exchange(LEVEL_UNSET, parsed as u8, Ordering::Relaxed, Ordering::Relaxed) {
        Ok(_) => parsed as u8,
        Err(current) => current,
    }
}

/// The active [`Level`]. First call parses `KCORE_TRACE`.
pub fn level() -> Level {
    let raw = LEVEL.load(Ordering::Relaxed);
    let raw = if raw == LEVEL_UNSET { init_level_from_env() } else { raw };
    match raw {
        1 => Level::Counters,
        2 => Level::Spans,
        _ => Level::Off,
    }
}

/// Hot-path gate: is `at` (or anything stronger) enabled?
#[inline(always)]
pub fn enabled(at: Level) -> bool {
    level() >= at
}

/// Override the level in-process (tests, programmatic enables).
///
/// Takes precedence over `KCORE_TRACE` from the moment it is called;
/// already-recorded data is kept (use [`reset`] to discard it).
pub fn set_level(l: Level) {
    LEVEL.store(l as u8, Ordering::Relaxed);
}

/// Discard all recorded spans, counters and gauges.
///
/// Thread buffers stay allocated (they are reused), but their
/// contents and the dropped-record tallies are cleared. Intended for
/// tests and for benchmarks that export one trace per phase.
pub fn reset() {
    ring::reset_all();
    registry::reset_counters();
    registry::reset_gauges();
}

/// A RAII span: records a begin slot when armed, an end slot on drop.
///
/// Built by the [`span!`] macro; construct directly only via
/// [`SpanGuard::begin_dyn`] for names not known at the callsite.
#[must_use = "a span ends when the guard drops"]
pub struct SpanGuard {
    id: u32,
    armed: bool,
    /// Arg recorded with the end slot; 0 keeps the begin's (see
    /// [`SpanGuard::relabel`]).
    end_arg: u64,
}

impl SpanGuard {
    #[doc(hidden)]
    #[inline]
    pub fn begin(id: &'static registry::NameId, name: &'static str, arg: u64) -> SpanGuard {
        if !enabled(Level::Spans) {
            return SpanGuard { id: 0, armed: false, end_arg: 0 };
        }
        let id = id.get(name);
        ring::record(RecordKind::Begin, id, arg);
        SpanGuard { id, armed: true, end_arg: 0 }
    }

    /// Slow-path span for dynamic (but still interned-by-content)
    /// names, e.g. a problem's `name()`. One registry lookup per
    /// call; use once-per-run, not in loops.
    #[inline]
    pub fn begin_dyn(name: &str, arg: u64) -> SpanGuard {
        if !enabled(Level::Spans) {
            return SpanGuard { id: 0, armed: false, end_arg: 0 };
        }
        let id = registry::intern_dynamic(name);
        ring::record(RecordKind::Begin, id, arg);
        SpanGuard { id, armed: true, end_arg: 0 }
    }

    /// Replaces the span's payload with a value learned inside it (the
    /// level a round jumped to, say). It is recorded with the end slot,
    /// and the Chrome export puts it on the `E` event, whose args the
    /// viewer merges over the begin's. A non-zero `arg` is required to
    /// take effect: 0 keeps the begin's payload.
    #[inline]
    pub fn relabel(&mut self, arg: u64) {
        self.end_arg = arg;
    }
}

impl Drop for SpanGuard {
    #[inline]
    fn drop(&mut self) {
        if self.armed {
            ring::record(RecordKind::End, self.id, self.end_arg);
        }
    }
}

/// Open a named span for the enclosing scope.
///
/// `span!("name")` or `span!("name", arg)` — the optional `arg` is a
/// `u64` payload shown in the Chrome trace (frontier sizes, k, batch
/// sizes). Returns a [`SpanGuard`]; bind it (`let _s = span!(..)`) so
/// it ends where the scope does.
#[macro_export]
macro_rules! span {
    ($name:literal) => {
        $crate::span!($name, 0u64)
    };
    ($name:literal, $arg:expr) => {{
        static __KCORE_OBS_ID: $crate::registry::NameId = $crate::registry::NameId::new();
        $crate::SpanGuard::begin(&__KCORE_OBS_ID, $name, $arg as u64)
    }};
}

/// Record an instantaneous named event with a `u64` payload.
#[macro_export]
macro_rules! event {
    ($name:literal) => {
        $crate::event!($name, 0u64)
    };
    ($name:literal, $arg:expr) => {{
        if $crate::enabled($crate::Level::Spans) {
            static __KCORE_OBS_ID: $crate::registry::NameId = $crate::registry::NameId::new();
            $crate::ring::record(
                $crate::RecordKind::Instant,
                __KCORE_OBS_ID.get($name),
                $arg as u64,
            );
        }
    }};
}

/// Bump a named metric counter.
///
/// Two forms:
/// * `counter!("name", delta)` — a pure metrics counter backed by a
///   callsite-static cell, live at `KCORE_TRACE=counters` and above.
/// * `counter!(slot, "name", delta)` — *also* unconditionally
///   `fetch_add`s `delta` into `slot` (an `AtomicU64` field, e.g. on
///   `TechniqueCounters`). This is the routed form every engine
///   emission site uses, so `grep counter!` finds them all while the
///   legacy stats structs keep their exact semantics.
#[macro_export]
macro_rules! counter {
    ($name:literal, $delta:expr) => {{
        if $crate::enabled($crate::Level::Counters) {
            static __KCORE_OBS_CELL: $crate::registry::CounterCell =
                $crate::registry::CounterCell::new($name);
            __KCORE_OBS_CELL.add($delta as u64);
        }
    }};
    ($slot:expr, $name:literal, $delta:expr) => {{
        let __kcore_obs_delta: u64 = $delta as u64;
        $slot.fetch_add(__kcore_obs_delta, ::core::sync::atomic::Ordering::Relaxed);
        $crate::counter!($name, __kcore_obs_delta);
    }};
}

/// Fold a value into a named high-watermark gauge (max semantics).
///
/// `gauge_max!(slot, "name", value)` also folds into `slot`, which
/// must expose `update(u64)` (the engine's `AtomicMax`); the
/// slot-less form updates only the metric.
#[macro_export]
macro_rules! gauge_max {
    ($name:literal, $value:expr) => {{
        if $crate::enabled($crate::Level::Counters) {
            $crate::registry::gauge_max($name, $value as u64);
        }
    }};
    ($slot:expr, $name:literal, $value:expr) => {{
        let __kcore_obs_v: u64 = $value as u64;
        $slot.update(__kcore_obs_v);
        $crate::gauge_max!($name, __kcore_obs_v);
    }};
}

/// Set a named gauge to an absolute value (last write wins).
///
/// This is how the end-of-run stats structs publish their fields into
/// the [`MetricsRegistry`]; see e.g. `RunStats::publish_metrics`.
pub fn gauge(name: &str, value: u64) {
    if enabled(Level::Counters) {
        registry::gauge_set(name, value);
    }
}

/// Run `f`, always returning its elapsed wall-clock nanos, and record
/// a span around it when spans are enabled.
///
/// For call sites that need the duration *regardless* of the trace
/// level (e.g. `MaintainStats` phase nanos): the measurement is
/// unconditional, only the timeline record is gated.
pub fn timed<T>(name: &'static str, f: impl FnOnce() -> T) -> (T, u64) {
    let guard = SpanGuard::begin_dyn(name, 0);
    let start = std::time::Instant::now();
    let out = f();
    let nanos = start.elapsed().as_nanos() as u64;
    drop(guard);
    (out, nanos)
}

/// The unified named counter/gauge store.
///
/// Counters accumulate deltas from [`counter!`] sites; gauges hold
/// absolute values ([`gauge`]) or high watermarks ([`gauge_max!`]).
/// The four historical stats structs publish here, which is what
/// "absorbs" them into one report without changing their public APIs.
pub struct MetricsRegistry;

impl MetricsRegistry {
    /// Publish a batch of `prefix.field = value` gauges.
    pub fn publish(prefix: &str, fields: &[(&str, u64)]) {
        if !enabled(Level::Counters) {
            return;
        }
        for (field, value) in fields {
            registry::gauge_set(&format!("{prefix}.{field}"), *value);
        }
    }

    /// Snapshot of all counters, sorted by name.
    pub fn counters() -> Vec<(String, u64)> {
        registry::counter_snapshot()
    }

    /// Snapshot of all gauges, sorted by name.
    pub fn gauges() -> Vec<(String, u64)> {
        registry::gauge_snapshot()
    }
}

/// Number of per-thread ring buffers allocated so far (test hook for
/// the "off allocates nothing" contract).
pub fn thread_buffer_count() -> usize {
    ring::buffer_count()
}

#[cfg(test)]
mod tests {
    use super::*;

    fn serial() -> std::sync::MutexGuard<'static, ()> {
        static LOCK: std::sync::Mutex<()> = std::sync::Mutex::new(());
        LOCK.lock().unwrap_or_else(|e| e.into_inner())
    }

    #[test]
    fn counter_macro_routes_slot_and_metric() {
        let _g = serial();
        set_level(Level::Counters);
        reset();
        let slot = kcore_check::sync::atomic::AtomicU64::new(0);
        counter!(slot, "test.routed", 3);
        counter!(slot, "test.routed", 4);
        assert_eq!(slot.load(Ordering::Relaxed), 7);
        let counters = MetricsRegistry::counters();
        assert!(counters.iter().any(|(n, v)| n == "test.routed" && *v == 7));
        set_level(Level::Off);
    }

    #[test]
    fn slot_still_counts_when_off() {
        let _g = serial();
        set_level(Level::Off);
        reset();
        let slot = kcore_check::sync::atomic::AtomicU64::new(0);
        counter!(slot, "test.off_slot", 5);
        assert_eq!(slot.load(Ordering::Relaxed), 5, "legacy stats must not regress when off");
        assert!(!MetricsRegistry::counters().iter().any(|(n, _)| n == "test.off_slot"));
    }

    #[test]
    fn spans_nest_and_count() {
        let _g = serial();
        set_level(Level::Spans);
        reset();
        kcore_check::thread::spawn(|| {
            let _outer = span!("test.outer");
            for i in 0..3 {
                let _inner = span!("test.inner", i);
            }
            event!("test.mark", 9);
        })
        .join()
        .unwrap();
        let report = TraceReport::capture();
        assert_eq!(report.span_count("test.outer"), 1);
        assert_eq!(report.span_count("test.inner"), 3);
        let chrome = report.chrome_trace();
        assert!(chrome.contains("\"ph\":\"B\"") && chrome.contains("\"ph\":\"E\""));
        assert!(chrome.contains("test.mark"));
        let json = report.metrics_json();
        assert!(json.contains("kcore-trace-metrics/v1"));
        set_level(Level::Off);
    }

    #[test]
    fn relabel_rides_on_the_end_event() {
        let _g = serial();
        set_level(Level::Spans);
        reset();
        kcore_check::thread::spawn(|| {
            let mut jumped = span!("test.relabel", 3);
            jumped.relabel(1499);
            let _kept = span!("test.kept", 4);
        })
        .join()
        .unwrap();
        let chrome = TraceReport::capture().chrome_trace();
        set_level(Level::Off);
        assert!(chrome.contains("\"name\":\"test.relabel\",\"ph\":\"B\""));
        assert_eq!(chrome.matches("\"ph\":\"E\"").count(), 2);
        assert_eq!(chrome.matches("\"args\":{\"arg\":1499}").count(), 1, "{chrome}");
    }

    #[test]
    fn gauge_max_keeps_watermark() {
        let _g = serial();
        set_level(Level::Counters);
        reset();
        gauge_max!("test.peak", 4);
        gauge_max!("test.peak", 9);
        gauge_max!("test.peak", 2);
        assert!(MetricsRegistry::gauges().iter().any(|(n, v)| n == "test.peak" && *v == 9));
        set_level(Level::Off);
    }
}
