//! The operations a workload repeats, and the closed loop that runs them
//! one at a time.
//!
//! Every operation is timed around its calls into the library and
//! checked against the Batagelj–Zaveršnik (BZ) oracle outside that
//! timing. A panic counts as a failed operation. The end-to-end loops
//! time the benchmark's own reference program after every operation
//! (see [`crate::reference`]).

use crate::reference::RefGraph;
use crate::stats::Samples;
use kcore::bz::bz_coreness;
use kcore::maintain::{DynamicGraph, MaintainStats};
use kcore::{Config, Decomposition};
use kcore_graph::{CsrGraph, VertexId};
use kcore_obs::{SpanAgg, TraceReport};
use kcore_parallel::pool::{self, SchedulerStats};
use kcore_parallel::RunStats;
use rayon::ThreadPool;
use std::collections::BTreeMap;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::time::{Duration, Instant};

/// Edges per dynamic batch.
const BATCH_EDGES: usize = 16;
/// Churn pairs between two checks of the standing coreness, after the
/// delete batch, against BZ on a snapshot of the logical graph.
const CHECK_EVERY: usize = 16;
/// Longest any one pass may run, whatever its sample target.
const PASS_CAP: Duration = Duration::from_secs(40);

#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Side {
    Delete,
    Insert,
}

/// One `DynamicGraph::apply_batch` call inside a churn pair.
#[derive(Clone, Debug)]
pub struct Batch {
    pub side: Side,
    pub ms: f64,
    pub stats: MaintainStats,
}

/// One timed operation.
#[derive(Clone, Debug)]
pub struct OpRecord {
    /// Time inside the library calls (both batches of a churn pair).
    pub ms: f64,
    /// Whether every output matched the oracle.
    pub ok: bool,
    /// Engine counters of every decomposition or re-peel it ran.
    pub peel: Vec<RunStats>,
    /// The batches of a churn pair; empty for a decomposition.
    pub batches: Vec<Batch>,
    /// Scheduler activity during the operation.
    pub sched: SchedulerStats,
    /// Milliseconds per reference run timed right after the operation;
    /// 0 when the loop runs no reference.
    pub ref_ms: f64,
}

impl OpRecord {
    /// The operation's time in reference runs.
    pub fn relative(&self) -> f64 {
        self.ms / self.ref_ms
    }
}

/// Something the closed loop can step.
pub trait Target: Send {
    /// Runs and times one operation, then checks its output.
    fn step(&mut self) -> OpRecord;
    /// True once an operation panicked and the target cannot continue.
    fn halted(&self) -> bool {
        false
    }
    /// Checks the standing state after a loop.
    fn final_check(&mut self) -> bool {
        true
    }
}

/// Times `f` (a call into the library) and the scheduler activity it
/// causes, catching a panic.
fn timed_call<T>(f: impl FnOnce() -> T) -> (Option<T>, f64, SchedulerStats) {
    let ((out, elapsed), sched) = pool::scheduler_delta(|| {
        let start = Instant::now();
        let out = catch_unwind(AssertUnwindSafe(f)).ok();
        (out, start.elapsed())
    });
    (out, elapsed.as_secs_f64() * 1e3, sched)
}

fn add(a: SchedulerStats, b: SchedulerStats) -> SchedulerStats {
    SchedulerStats {
        steals: a.steals + b.steals,
        splits: a.splits + b.splits,
        parks: a.parks + b.parks,
        wakes: a.wakes + b.wakes,
    }
}

/// A full k-core decomposition of a static graph.
pub struct Decompose<'a> {
    pub graph: &'a CsrGraph,
    pub config: Config,
    pub reference: &'a [u32],
}

impl Target for Decompose<'_> {
    fn step(&mut self) -> OpRecord {
        let (graph, config) = (self.graph, self.config);
        let (out, ms, sched) = timed_call(|| {
            let _span = kcore_obs::span!("bench.decompose");
            Decomposition::kcore(graph).exact_config(config).run()
        });
        let (ok, peel) = match out {
            Some(r) => (r.coreness() == self.reference, vec![r.stats().clone()]),
            None => (false, Vec::new()),
        };
        OpRecord { ms, ok, peel, batches: Vec::new(), sched, ref_ms: 0.0 }
    }
}

/// SplitMix64: the benchmark's own seeded generator for edge picks.
struct SplitMix64(u64);

impl SplitMix64 {
    fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    fn below(&mut self, n: usize) -> usize {
        (self.next_u64() % n as u64) as usize
    }
}

/// Edge churn on a `DynamicGraph`. One operation is a pair: delete
/// [`BATCH_EDGES`] random edges of the base graph, then insert the same
/// edges back, so the logical graph returns to the base after every
/// pair.
pub struct Churn<'a> {
    graph: DynamicGraph,
    base_edges: &'a [(VertexId, VertexId)],
    /// BZ coreness of the base graph, which every pair restores.
    reference: &'a [u32],
    rng: SplitMix64,
    pairs: usize,
    halted: bool,
}

impl<'a> Churn<'a> {
    pub fn new(
        graph: DynamicGraph,
        base_edges: &'a [(VertexId, VertexId)],
        reference: &'a [u32],
        seed: u64,
    ) -> Self {
        Self {
            graph,
            base_edges,
            reference,
            rng: SplitMix64(seed ^ 0xD1B5_4A32_D192_ED03),
            pairs: 0,
            halted: false,
        }
    }

    /// [`BATCH_EDGES`] distinct edges of the base graph, uniformly.
    fn pick(&mut self) -> Vec<(VertexId, VertexId)> {
        let want = BATCH_EDGES.min(self.base_edges.len());
        let mut picked: Vec<usize> = Vec::with_capacity(want);
        while picked.len() < want {
            let i = self.rng.below(self.base_edges.len());
            if !picked.contains(&i) {
                picked.push(i);
            }
        }
        picked.into_iter().map(|i| self.base_edges[i]).collect()
    }

    fn matches_snapshot_oracle(&self) -> bool {
        bz_coreness(&self.graph.snapshot()) == self.graph.coreness()
    }

    /// Applies one batch; `None` if it panicked.
    fn apply(
        &mut self,
        side: Side,
        edges: &[(VertexId, VertexId)],
    ) -> Option<(Batch, SchedulerStats)> {
        let graph = &mut self.graph;
        let (out, ms, sched) = timed_call(|| {
            let _span = kcore_obs::span!("bench.apply_batch");
            match side {
                Side::Delete => graph.apply_batch(&[], edges),
                Side::Insert => graph.apply_batch(edges, &[]),
            }
        });
        out?;
        Some((Batch { side, ms, stats: self.graph.last_stats().clone() }, sched))
    }
}

impl Target for Churn<'_> {
    fn step(&mut self) -> OpRecord {
        let edges = self.pick();
        self.pairs += 1;
        let mut rec = OpRecord {
            ms: 0.0,
            ok: true,
            peel: Vec::new(),
            batches: Vec::new(),
            sched: SchedulerStats::default(),
            ref_ms: 0.0,
        };
        for side in [Side::Delete, Side::Insert] {
            let Some((batch, sched)) = self.apply(side, &edges) else {
                self.halted = true;
                rec.ok = false;
                return rec;
            };
            let applied = batch.stats.inserted + batch.stats.deleted;
            rec.ok &= applied == edges.len();
            rec.ok &= match side {
                Side::Delete => {
                    !self.pairs.is_multiple_of(CHECK_EVERY) || self.matches_snapshot_oracle()
                }
                Side::Insert => self.graph.coreness() == self.reference,
            };
            rec.ms += batch.ms;
            rec.peel.push(batch.stats.repeel.clone());
            rec.sched = add(rec.sched, sched);
            rec.batches.push(batch);
        }
        rec
    }

    fn halted(&self) -> bool {
        self.halted
    }

    fn final_check(&mut self) -> bool {
        !self.halted && self.matches_snapshot_oracle()
    }
}

/// Span and counter totals folded from per-operation trace captures.
#[derive(Debug, Default)]
pub struct TraceTotals {
    pub spans: BTreeMap<String, SpanAgg>,
    pub counters: BTreeMap<String, u64>,
    /// Records lost to ring wrap.
    pub dropped: u64,
}

impl TraceTotals {
    /// Drains every ring into the totals and clears them, so the next
    /// operation starts with empty rings.
    fn drain(&mut self) {
        let report = TraceReport::capture();
        for (name, agg) in report.span_aggregates() {
            let total = self.spans.entry(name).or_default();
            total.count += agg.count;
            total.total_nanos += agg.total_nanos;
        }
        for (name, value) in report.counters {
            *self.counters.entry(name).or_default() += value;
        }
        self.dropped += report.dropped;
        kcore_obs::reset();
    }

    /// Total milliseconds spent in spans named `name`.
    pub fn span_ms(&self, name: &str) -> f64 {
        self.spans.get(name).map_or(0.0, |a| a.total_nanos as f64 / 1e6)
    }

    pub fn counter(&self, name: &str) -> u64 {
        self.counters.get(name).copied().unwrap_or(0)
    }
}

/// What one closed-loop pass did.
#[derive(Debug, Default)]
pub struct Pass {
    /// Timed operations after warm-up.
    pub records: Vec<OpRecord>,
    /// Operations run, warm-up included.
    pub attempted: usize,
    /// Operations whose output failed its check, plus a failed final
    /// check.
    pub failed: usize,
}

impl Pass {
    /// Appends the operations of a later pass over the same target.
    pub fn extend(&mut self, later: Pass) {
        self.records.extend(later.records);
        self.attempted += later.attempted;
        self.failed += later.failed;
    }

    fn tally(&mut self, rec: &OpRecord) {
        self.attempted += 1;
        self.failed += usize::from(!rec.ok);
    }

    /// Latencies of the timed operations.
    pub fn latencies(&self) -> Samples {
        let mut s = Samples::default();
        for r in &self.records {
            s.push(r.ms);
        }
        s
    }

    /// Operation times in reference runs (see [`OpRecord::relative`]).
    pub fn relatives(&self) -> Samples {
        let mut s = Samples::default();
        for r in &self.records {
            s.push(r.relative());
        }
        s
    }

    /// Milliseconds per reference run, one sample per operation.
    pub fn reference_ms(&self) -> Samples {
        let mut s = Samples::default();
        for r in &self.records {
            s.push(r.ref_ms);
        }
        s
    }

    /// Latencies of the timed batches on `side`.
    pub fn batch_latencies(&self, side: Side) -> Samples {
        let mut s = Samples::default();
        for b in self.records.iter().flat_map(|r| &r.batches).filter(|b| b.side == side) {
            s.push(b.ms);
        }
        s
    }
}

/// Runs one operation of `target` on `pool`.
fn step_on(pool: &ThreadPool, target: &mut dyn Target) -> OpRecord {
    pool.install(|| target.step())
}

/// Runs one untimed operation on `pool`, so that caches, lazy
/// allocations and the pool's threads are warm before timing starts.
pub fn warm_up(pool: &ThreadPool, target: &mut dyn Target) -> Pass {
    let mut pass = Pass::default();
    pass.tally(&step_on(pool, target));
    pass
}

/// Runs `target` on `pool` with one operation in flight until `budget`
/// has passed and at least `min_ops` operations are timed, or
/// [`PASS_CAP`] runs out. With `trace`, the rings are drained into it
/// after every operation; with `reference`, the reference program runs
/// after every operation, on the calling thread, outside the pool.
pub fn closed_loop(
    pool: &ThreadPool,
    target: &mut dyn Target,
    budget: Duration,
    min_ops: usize,
    mut trace: Option<&mut TraceTotals>,
    reference: Option<&RefGraph>,
) -> Pass {
    let mut pass = Pass::default();
    if trace.is_some() {
        kcore_obs::reset();
    }
    let start = Instant::now();
    while !target.halted() {
        let elapsed = start.elapsed();
        if (elapsed >= budget && pass.records.len() >= min_ops) || elapsed >= PASS_CAP {
            break;
        }
        let mut rec = step_on(pool, target);
        if let Some(totals) = trace.as_deref_mut() {
            totals.drain();
        }
        if let Some(reference) = reference {
            rec.ref_ms = reference.time_after(rec.ms);
        }
        pass.tally(&rec);
        pass.records.push(rec);
    }
    pass.failed += usize::from(!pool.install(|| target.final_check()));
    pass
}
