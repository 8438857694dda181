//! One benchmark run of one workload: set-up from the input file, the
//! closed-loop passes, and the metrics they yield.

use crate::ops::{closed_loop, warm_up, Churn, Decompose, Pass, Side, Target, TraceTotals};
use crate::reference::RefGraph;
use crate::stats::Samples;
use crate::workload::{Scale, Workload};
use kcore::bz::bz_coreness;
use kcore::maintain::{DynamicGraph, MaintainStats};
use kcore_buckets::{BucketStrategy, PriorityView};
use kcore_graph::{io, CsrGraph, GraphStats, StreamBuilder, VertexId};
use kcore_obs::Level;
use kcore_parallel::pool::SchedulerStats;
use kcore_parallel::RunStats;
use rayon::{ThreadPool, ThreadPoolBuilder};
use std::fs::File;
use std::path::Path;
use std::time::{Duration, Instant};

/// Repetitions of each single-layer probe (stream build, bucket replay,
/// BZ); their medians are reported.
const PROBE_REPS: usize = 5;
/// Blocks the end-to-end loop is split into; the input is re-loaded,
/// timed, before each block and after the last.
const BLOCKS: usize = 8;
/// Time each round of re-loads takes at least: a small input is loaded
/// several times.
const MIN_LOADS_TIME: Duration = Duration::from_millis(100);
/// Churn pairs run before `peak_rss_mb` is read on the dynamic workload.
const PEAK_PAIRS: usize = 64;
/// Decompositions run before `peak_rss_mb` is read on a static
/// workload; each one allocates the same.
const PEAK_DECOMPOSITIONS: usize = 4;
/// Samples needed for a median worth reporting.
const MIN_MEDIAN_OPS: usize = 11;
/// Leading churn pairs whose counters are summed into the
/// deterministic `peel.*` and `maintain.*` counts.
const COUNTED_PAIRS: usize = 32;

/// One reported number.
#[derive(Clone, Debug)]
pub struct Metric {
    pub name: String,
    pub value: f64,
    pub unit: &'static str,
    /// Samples behind the value, where it summarizes several.
    pub samples: Option<usize>,
}

/// The metrics of one run plus its operation tallies.
#[derive(Debug, Default)]
pub struct Outcome {
    pub metrics: Vec<Metric>,
    pub attempted: usize,
    pub failed: usize,
    /// Lines printed with the run as comments, outside the metrics.
    pub notes: Vec<String>,
}

impl Outcome {
    fn put(&mut self, name: &str, value: f64, unit: &'static str) {
        self.metrics.push(Metric { name: name.to_owned(), value, unit, samples: None });
    }

    fn put_n(&mut self, name: &str, value: f64, unit: &'static str, samples: usize) {
        self.metrics.push(Metric { name: name.to_owned(), value, unit, samples: Some(samples) });
    }

    fn note(&mut self, line: String) {
        self.notes.push(line);
    }

    fn absorb(&mut self, pass: &Pass) {
        self.attempted += pass.attempted;
        self.failed += pass.failed;
    }

    fn check(&mut self, ok: bool) {
        self.attempted += 1;
        self.failed += usize::from(!ok);
    }

    pub fn get(&self, name: &str) -> Option<f64> {
        self.metrics.iter().find(|m| m.name == name).map(|m| m.value)
    }
}

/// Writes the workload's generated graph for run seed `seed` as an edge
/// list.
pub fn write_input(
    workload: Workload,
    scale: Scale,
    seed: u64,
    path: &Path,
) -> std::io::Result<()> {
    io::write_edge_list(&workload.generate(scale, workload.graph_seed(seed)), File::create(path)?)
}

/// The workload's input file, loadable any number of times.
#[derive(Clone, Copy, Debug)]
pub struct Source<'a> {
    pub workload: Workload,
    pub path: &'a Path,
}

/// One load of the input file.
pub struct Load {
    pub graph: CsrGraph,
    /// The maintained graph (dynamic workload only).
    pub dynamic: Option<DynamicGraph>,
    /// Milliseconds in `io::read_edge_list`.
    pub read_ms: f64,
    /// Seconds from the file on disk to a ready state: the read, plus
    /// `DynamicGraph` construction on the dynamic workload.
    pub setup_s: f64,
}

impl Source<'_> {
    pub fn load(&self) -> std::io::Result<Load> {
        let file = File::open(self.path)?;
        let start = Instant::now();
        let graph = {
            let _span = kcore_obs::span!("bench.read_edge_list");
            io::read_edge_list(file, 0)?
        };
        let read = start.elapsed();
        let (graph, dynamic, setup) = if self.workload.is_dynamic() {
            let copy = graph.clone();
            let start = Instant::now();
            let dynamic = {
                let _span = kcore_obs::span!("bench.dynamic_new");
                DynamicGraph::with_exact_config(graph, self.workload.config())
            };
            (copy, Some(dynamic), read + start.elapsed())
        } else {
            (graph, None, read)
        };
        Ok(Load { graph, dynamic, read_ms: read.as_secs_f64() * 1e3, setup_s: setup.as_secs_f64() })
    }
}

/// The loaded workload, ready to run.
pub struct Inputs {
    pub workload: Workload,
    pub seed: u64,
    pub graph: CsrGraph,
    /// BZ coreness of `graph`, computed once outside any timing.
    pub reference: Vec<u32>,
    /// Every edge of `graph` once (dynamic workload only).
    pub base_edges: Vec<(VertexId, VertexId)>,
}

/// Loads the input once and computes the BZ reference. Returns the
/// inputs, the load's `DynamicGraph` if any, and the load itself timed.
pub fn set_up(source: Source, seed: u64) -> std::io::Result<(Inputs, Option<DynamicGraph>, Load)> {
    let mut load = source.load()?;
    let graph = std::mem::replace(&mut load.graph, CsrGraph::empty());
    let dynamic = load.dynamic.take();
    let reference = bz_coreness(&graph);
    let base_edges =
        if source.workload.is_dynamic() { graph.edges().collect() } else { Vec::new() };
    Ok((Inputs { workload: source.workload, seed, graph, reference, base_edges }, dynamic, load))
}

/// How long a run measures and how wide its pool is.
#[derive(Clone, Copy, Debug)]
pub struct Plan {
    pub seconds: f64,
    pub width: usize,
}

impl Plan {
    fn share(&self, fraction: f64) -> Duration {
        Duration::from_secs_f64(self.seconds * fraction)
    }
}

impl Inputs {
    /// The workload's operation: churn on `dynamic` when given, else a
    /// full decomposition of the static graph.
    fn target(&self, dynamic: Option<DynamicGraph>) -> Box<dyn Target + '_> {
        match dynamic {
            Some(graph) => {
                Box::new(Churn::new(graph, &self.base_edges, &self.reference, self.seed))
            }
            None => Box::new(self.decompose()),
        }
    }

    fn decompose(&self) -> Decompose<'_> {
        Decompose { graph: &self.graph, config: self.workload.config(), reference: &self.reference }
    }
}

fn pool_of(threads: usize) -> ThreadPool {
    ThreadPoolBuilder::new().num_threads(threads).build().expect("failed to build a thread pool")
}

/// A warm-up operation, then a closed loop, on `pool`.
fn pass(
    pool: &ThreadPool,
    target: &mut dyn Target,
    budget: Duration,
    min_ops: usize,
    trace: Option<&mut TraceTotals>,
) -> Pass {
    let mut pass = warm_up(pool, target);
    pass.extend(closed_loop(pool, target, budget, min_ops, trace, None));
    pass
}

/// The untraced end-to-end run, on a 1-thread pool: the operation in a
/// closed loop, each one followed by the reference program, with a
/// timed re-load of the input before every block.
///
/// The pool is one thread wide because a shared virtual machine need
/// not hold its core count: on a 2-vCPU KVM guest, two reference runs at
/// once took one run's time for minutes, then twice that, which moved
/// every pool-width timing by up to 2x while one-thread timings held.
/// The per-layer run reports the pool-width numbers.
pub fn end_to_end(
    source: Source,
    inputs: &Inputs,
    dynamic: Option<DynamicGraph>,
    _first: &Load,
    plan: Plan,
) -> std::io::Result<Outcome> {
    let mut out = Outcome::default();
    let pool = pool_of(1);
    let mut target = inputs.target(dynamic);
    let start = Instant::now();
    // Peak memory is read after a fixed number of operations: the
    // overlay of a churned graph keeps growing between compactions, so
    // a peak over a timed loop would depend on machine speed. It is read
    // before the reference program allocates anything.
    let peak_ops = if inputs.workload.is_dynamic() { PEAK_PAIRS } else { PEAK_DECOMPOSITIONS };
    let warm = pass(&pool, &mut *target, Duration::ZERO, peak_ops, None);
    let peak_rss_mb = crate::host::peak_rss_mb();
    let reference = RefGraph::new(&inputs.graph);
    out.check(reference.coreness() == inputs.reference);
    // Each load is followed by the reference, like an operation.
    let (mut setup, mut setup_rel) = (Samples::default(), Samples::default());
    let mut timed = Pass::default();
    let block =
        Duration::from_secs_f64(plan.seconds).saturating_sub(start.elapsed()) / BLOCKS as u32;
    let min_ops = MIN_MEDIAN_OPS.div_ceil(BLOCKS);
    let mut load = || -> std::io::Result<()> {
        let start = Instant::now();
        loop {
            let load_s = pool.install(|| source.load())?.setup_s;
            setup.push(load_s);
            setup_rel.push(load_s * 1e3 / reference.time_after(load_s * 1e3));
            if start.elapsed() >= MIN_LOADS_TIME {
                return Ok(());
            }
        }
    };
    for _ in 0..BLOCKS {
        load()?;
        timed.extend(closed_loop(&pool, &mut *target, block, min_ops, None, Some(&reference)));
    }
    load()?;
    out.absorb(&warm);
    out.absorb(&timed);
    out.put_n("setup_s", setup_rel.median() * reference.nominal_s(), "s", setup_rel.len());
    let rel = timed.relatives();
    out.put_n("op_rel.t1.p50", rel.median(), "x", rel.len());
    out.put("peak_rss_mb", peak_rss_mb, "MB");
    let (ops, refs) = (timed.latencies(), timed.reference_ms());
    out.note(format!(
        "op_ms.t1.p50 {:.4} (n={}), reference {:.4} ms per run, measured set-up {:.4} s",
        ops.median(),
        ops.len(),
        refs.median(),
        setup.median()
    ));
    Ok(out)
}

/// Benchmark-side priority view for the bucket replay: static keys, and
/// a flag per element once surfaced.
struct ReplayView<'a> {
    keys: &'a [u32],
    dead: Vec<bool>,
}

impl PriorityView for ReplayView<'_> {
    fn key(&self, v: u32) -> u32 {
        self.keys[v as usize]
    }

    fn alive(&self, v: u32) -> bool {
        !self.dead[v as usize]
    }
}

/// Builds the adaptive bucket structure over the degrees and drains it
/// with `next_frontier(k)` for every `k`. Returns the time taken and
/// whether every element surfaced exactly once, at its own key.
fn bucket_replay(degrees: &[u32]) -> (f64, bool) {
    let mut view = ReplayView { keys: degrees, dead: vec![false; degrees.len()] };
    let max_key = degrees.iter().copied().max().unwrap_or(0);
    let mut ok = true;
    let mut surfaced = 0;
    let start = Instant::now();
    {
        let _span = kcore_obs::span!("bench.bucket_replay");
        let mut buckets = BucketStrategy::Adaptive.build(degrees);
        for k in 0..=max_key {
            for v in buckets.next_frontier(k, &view) {
                ok &= degrees[v as usize] == k && view.alive(v);
                view.dead[v as usize] = true;
                surfaced += 1;
            }
        }
    }
    (start.elapsed().as_secs_f64() * 1e3, ok && surfaced == degrees.len())
}

/// Rebuilds the graph from its in-memory edges through `StreamBuilder`,
/// which separates the CSR build from edge-list parsing.
fn stream_build(graph: &CsrGraph, edges: &[(VertexId, VertexId)]) -> (f64, bool) {
    let start = Instant::now();
    let built = {
        let _span = kcore_obs::span!("bench.stream_build");
        let mut builder = StreamBuilder::new(graph.num_vertices());
        builder.push_chunk(edges.iter().copied());
        builder.build()
    };
    let ms = start.elapsed().as_secs_f64() * 1e3;
    (ms, built.num_edges() == graph.num_edges() && built.num_arcs() == graph.num_arcs())
}

fn bz_ms(graph: &CsrGraph, reference: &[u32]) -> (f64, bool) {
    let start = Instant::now();
    let coreness = {
        let _span = kcore_obs::span!("bench.bz");
        bz_coreness(graph)
    };
    (start.elapsed().as_secs_f64() * 1e3, coreness == reference)
}

/// Repeats a single-layer probe [`PROBE_REPS`] times and returns the
/// median milliseconds, recording each repetition's check.
fn probe(out: &mut Outcome, mut f: impl FnMut() -> (f64, bool)) -> Samples {
    let mut s = Samples::default();
    for _ in 0..PROBE_REPS {
        let (ms, ok) = f();
        out.check(ok);
        s.push(ms);
    }
    s
}

fn ratio(num: f64, den: f64) -> f64 {
    if den > 0.0 {
        num / den
    } else {
        0.0
    }
}

/// The per-layer run: single-layer probes, an untraced pass for the
/// counts, COST against BZ, and a traced pass for the span breakdown.
pub fn per_layer(
    source: Source,
    inputs: &Inputs,
    dynamic: Option<DynamicGraph>,
    first: &Load,
    plan: Plan,
) -> std::io::Result<Outcome> {
    let mut out = Outcome::default();
    let graph = &inputs.graph;
    let arcs = graph.num_arcs() as f64;

    // graph
    let mut read = Samples::default();
    read.push(first.read_ms);
    for _ in 1..PROBE_REPS {
        read.push(source.load()?.read_ms);
    }
    out.put_n("graph.read_edge_list_ms", read.median(), "ms", read.len());
    let edges: Vec<_> = graph.edges().collect();
    let build = probe(&mut out, || stream_build(graph, &edges));
    out.put_n("graph.stream_build_ms", build.median(), "ms", build.len());
    drop(edges);
    let memory = GraphStats::memory(graph);
    let csr_bytes = memory.offsets_bytes + memory.neighbor_bytes + memory.aux_bytes;
    out.put("graph.csr_bytes", csr_bytes as f64, "bytes");

    // buckets
    let degrees = graph.degrees();
    let replay = probe(&mut out, || bucket_replay(&degrees));
    out.put_n("buckets.replay_ms", replay.median(), "ms", replay.len());

    // untraced pass: scheduler activity, deterministic counts, latency
    // split by side
    let (wide_pool, narrow_pool) = (pool_of(plan.width), pool_of(1));
    let mut target = inputs.target(dynamic);
    let dynamic_run = inputs.workload.is_dynamic();
    let min_ops = if dynamic_run { Samples::min_count_for(0.9) } else { MIN_MEDIAN_OPS };
    let untraced = pass(&wide_pool, &mut *target, plan.share(0.35), min_ops, None);
    out.absorb(&untraced);
    let ops = untraced.records.len().max(1) as f64;
    let mean = |f: fn(&SchedulerStats) -> u64| {
        untraced.records.iter().map(|r| f(&r.sched)).sum::<u64>() as f64 / ops
    };
    out.put("pool.splits", mean(|s| s.splits), "count");
    out.put("pool.steals", mean(|s| s.steals), "count");
    out.put("pool.parks", mean(|s| s.parks), "count");

    // Static decompositions are identical, so the first one stands for
    // all; churn counts sum over the leading pairs.
    let counted = &untraced.records
        [..untraced.records.len().min(if dynamic_run { COUNTED_PAIRS } else { 1 })];
    let runs: Vec<&RunStats> = counted.iter().flat_map(|r| &r.peel).collect();
    let sum = |f: fn(&RunStats) -> u64| runs.iter().map(|r| f(r)).sum::<u64>() as f64;
    out.put("peel.rounds", sum(|r| r.rounds), "count");
    out.put("peel.subrounds", sum(|r| r.subrounds), "count");
    out.put("peel.global_syncs", sum(|r| r.global_syncs), "count");
    out.put("peel.work", sum(|r| r.work), "count");
    out.put("peel.burdened_span", sum(|r| r.burdened_span), "count");
    let max_frontier = runs.iter().map(|r| r.max_frontier).max().unwrap_or(0);
    out.put("peel.max_frontier", max_frontier as f64, "count");
    out.put("peel.work_per_arc", ratio(sum(|r| r.work), arcs), "ratio");
    out.put("sampling.validate_calls", sum(|r| r.validate_calls), "count");
    out.put("sampling.resamples", sum(|r| r.resamples), "count");
    out.put("sampling.restarts", sum(|r| r.restarts), "count");
    for (side, label) in [(Side::Insert, "insert"), (Side::Delete, "delete")] {
        let stats: Vec<&MaintainStats> = counted
            .iter()
            .flat_map(|r| &r.batches)
            .filter(|b| b.side == side)
            .map(|b| &b.stats)
            .collect();
        let total =
            |f: fn(&MaintainStats) -> usize| stats.iter().map(|s| f(s)).sum::<usize>() as f64;
        let candidates = total(|s| s.candidates);
        let region = total(|s| s.region);
        out.put(&format!("maintain.{label}.candidates"), candidates, "count");
        out.put(&format!("maintain.{label}.region"), region, "count");
        out.put(&format!("maintain.{label}.ghosts"), total(|s| s.ghosts), "count");
        out.put(
            &format!("maintain.{label}.full_recompute"),
            total(|s| usize::from(s.full_recompute)),
            "count",
        );
        out.put(
            &format!("maintain.{label}.region_per_candidate"),
            ratio(region, candidates),
            "ratio",
        );
        let lat = untraced.batch_latencies(side);
        out.put_n(&format!("maintain.{label}_ms.p50"), lat.median(), "ms", lat.len());
        out.put_n(&format!("maintain.{label}_ms.p90"), lat.percentile(0.9).0, "ms", lat.len());
    }

    // COST: a full decomposition against BZ on the same graph, at pool
    // width and on one thread. On the static workloads the operation is
    // that decomposition; the dynamic workload recomputes its base graph.
    let bz = probe(&mut out, || bz_ms(graph, &inputs.reference));
    let op_p50 = untraced.latencies().median();
    let (wide_p50, narrow) = if dynamic_run {
        let mut recompute = inputs.decompose();
        let wide = pass(&wide_pool, &mut recompute, plan.share(0.05), MIN_MEDIAN_OPS, None);
        let narrow = pass(&narrow_pool, &mut recompute, plan.share(0.05), MIN_MEDIAN_OPS, None);
        out.absorb(&wide);
        (wide.latencies().median(), narrow)
    } else {
        (op_p50, pass(&narrow_pool, &mut *target, plan.share(0.1), MIN_MEDIAN_OPS, None))
    };
    out.absorb(&narrow);
    let narrow_p50 = narrow.latencies().median();
    out.put_n("bz_ms.p50", bz.median(), "ms", bz.len());
    out.put("cost.t1", ratio(narrow_p50, bz.median()), "ratio");
    out.put("cost.tN", ratio(wide_p50, bz.median()), "ratio");
    let (recompute_p50, batch_per_recompute) =
        if dynamic_run { (wide_p50, ratio(op_p50, wide_p50)) } else { (0.0, 0.0) };
    out.put("maintain.recompute_ms.p50", recompute_p50, "ms");
    out.put("maintain.batch_per_recompute", batch_per_recompute, "ratio");

    // traced pass: spans from the engine and the benchmark, rings
    // drained after every operation
    let mut totals = TraceTotals::default();
    kcore_obs::set_level(Level::Spans);
    kcore_obs::reset();
    let traced = pass(&wide_pool, &mut *target, plan.share(0.3), MIN_MEDIAN_OPS, Some(&mut totals));
    kcore_obs::set_level(Level::Off);
    kcore_obs::reset();
    out.absorb(&traced);
    out.check(totals.dropped == 0);
    let per_op = |ms: f64| ms / traced.records.len().max(1) as f64;
    let round = totals.span_ms("round");
    let drain = totals.span_ms("bucket.drain");
    let subround = totals.span_ms("subround");
    let refile = totals.span_ms("frontier.refile");
    let validate_frontier = totals.span_ms("sampling.validate_frontier");
    let validate_round_end = totals.span_ms("sampling.validate_round_end");
    let op_span = totals.span_ms("bench.decompose") + totals.span_ms("bench.apply_batch");
    out.put(
        "peel.round_self_ms",
        per_op(round - drain - subround - validate_frontier - validate_round_end),
        "ms",
    );
    out.put("peel.bucket_drain_ms", per_op(drain), "ms");
    out.put("peel.subround_self_ms", per_op(subround - refile), "ms");
    out.put("peel.refile_ms", per_op(refile), "ms");
    out.put("peel.outside_rounds_ms", per_op(op_span - round), "ms");
    out.put("sampling.validate_frontier_ms", per_op(validate_frontier), "ms");
    out.put("sampling.validate_round_end_ms", per_op(validate_round_end), "ms");
    out.put("maintain.region_ms", per_op(totals.span_ms("maintain.region")), "ms");
    out.put("maintain.repeel_ms", per_op(totals.span_ms("maintain.repeel")), "ms");
    out.put("maintain.splice_ms", per_op(totals.span_ms("maintain.splice")), "ms");
    out.put("vgc.chased", per_op(totals.counter("vgc.chased") as f64), "count");
    let traced_p50 = traced.latencies().median();
    out.put_n("obs.traced_op_ms.p50", traced_p50, "ms", traced.records.len());
    out.put("obs.overhead_frac", ratio(traced_p50, op_p50) - 1.0, "ratio");
    out.put("obs.dropped", totals.dropped as f64, "count");
    Ok(out)
}
