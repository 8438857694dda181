//! The problem-agnostic peel engine: one round loop, two plug-in axes.
//!
//! The paper presents its work-efficient bucketing framework (Alg. 1 +
//! the Sec. 4 techniques) in terms of k-core, but nothing in the loop
//! is vertex-specific: it peels an *element universe* by monotone
//! integer *priorities*, where settling an element lowers the
//! priorities of incident elements through a clamped update.
//! [`PeelProblem`] is the plug-in surface — universe size, initial
//! priorities, the decrement rule (an [`Incidence`]), an optional
//! settle action, and result assembly. k-core, k-truss, the densest
//! subgraph variants and the (k,h)-core are clients (see
//! [`crate::problems`]).
//!
//! [`PeelEngine::run`] maps a problem and a [`Config`] onto the single
//! round loop, `run_rounds`, which owns the priority and settle arrays,
//! the bucket structure, the spans and the run statistics. What varies
//! is plugged in along two axes:
//!
//! * **Frontier source** — the problem's [`RoundPolicy`].
//!   [`RoundPolicy::MinBucket`] makes round `k` peel the elements of
//!   priority exactly `k`, clamping at `k`; the loop jumps straight to
//!   the next non-empty level
//!   ([`kcore_buckets::BucketStructure::next_nonempty`], Julienne's
//!   `next_bucket`), so empty levels cost nothing but still count as
//!   rounds. [`RoundPolicy::Threshold`]
//!   computes a peel threshold `t` from the live [`RoundAggregates`],
//!   drains everything at or below it in one bulk step
//!   ([`kcore_buckets::BucketStructure::drain_threshold`]) and clamps
//!   at `t`: the `O(log n)`-round regime of the (2+ε)-approximate
//!   densest subgraph.
//! * **Subround step** — chosen by the incidence and the peel mode.
//!   The *fused unit* step ([`Incidence::Unit`]: k-core, densest)
//!   settles and decrements in one task per element with one global
//!   sync, and carries the sampling and VGC hooks. The *two-phase*
//!   step ([`Incidence::Snapshot`]: k-truss; [`Incidence::Recompute`]:
//!   the (k,h)-core) stamps the frontier settled, then applies the rule
//!   against the frozen [`SettleView`] through the generalized CAS
//!   clamp [`clamped_update`] — two syncs. The *offline* step
//!   ([`crate::PeelMode::Offline`]) gathers, histograms and applies the
//!   frontier's decrements in bulk — three syncs.
//!
//! Not every technique composes with every axis: sampling and the
//! offline step require `MinBucket` with a unit or snapshot incidence
//! and are rejected with a panic otherwise (see [`PeelEngine::run`]);
//! VGC composes with threshold rounds and is ignored by the two-phase
//! step.

use super::sampling::SamplingState;
use super::{offline, vgc};
use crate::config::{PeelMode, ADAPTIVE_THETA};
use crate::Config;
use kcore_buckets::{BucketStrategy, BucketStructure, HierarchicalBuckets, PriorityView};
use kcore_check::sync::atomic::{AtomicU32, AtomicU64, Ordering};
use kcore_graph::GraphBackend;
use kcore_obs::span;
use kcore_parallel::primitives::pack_index;
use kcore_parallel::{HashBag, RunStats, TechniqueCounters};
use rayon::prelude::*;

/// Settle-round sentinel for elements that have not settled yet.
pub(crate) const UNSET: u32 = u32::MAX;

/// Live peeling state exposed to bucket structures.
pub(crate) struct LiveView<'a> {
    pub(crate) prio: &'a [AtomicU32],
    pub(crate) settled: &'a [AtomicU32],
}

impl PriorityView for LiveView<'_> {
    fn key(&self, v: u32) -> u32 {
        self.prio[v as usize].load(Ordering::Relaxed)
    }

    fn alive(&self, v: u32) -> bool {
        self.settled[v as usize].load(Ordering::Relaxed) == UNSET
    }
}

/// Unit-decrement incidence: `incident(e)` lists the elements whose
/// settling costs `e` exactly one priority unit each (and vice versa —
/// the relation is symmetric in every current client).
///
/// For k-core this is the graph adjacency itself (every
/// [`GraphBackend`] implements the trait via the blanket impl below),
/// and a problem's priorities must start at `num_incident(e)` minus any
/// units already absent.
///
/// # Slice discipline
///
/// Decode-on-the-fly backends ([`kcore_graph::CompressedCsr`]) serve
/// [`UnitIncidence::incident`] from per-thread scratch, so a caller may
/// hold at most one `incident` slice per thread at a time. The engine's
/// outer loops already do; nested scans (recounts inside a neighbor
/// walk) and pure size queries must use
/// [`UnitIncidence::for_each_incident`] /
/// [`UnitIncidence::num_incident`], which never touch scratch.
pub trait UnitIncidence: Sync {
    /// Elements incident to `e`, in strictly increasing order. Hold at
    /// most one returned slice per thread (see the trait docs).
    fn incident(&self, e: u32) -> &[u32];

    /// Number of incident elements — O(1), no list materialization.
    #[inline]
    fn num_incident(&self, e: u32) -> usize {
        self.incident(e).len()
    }

    /// Streams the incident elements in increasing order without
    /// materializing a slice; safe to nest inside an `incident` walk.
    #[inline]
    fn for_each_incident(&self, e: u32, f: &mut dyn FnMut(u32)) {
        for &x in self.incident(e) {
            f(x);
        }
    }
}

// Every graph backend is a unit incidence: the adjacency itself.
// This one impl covers `CsrGraph` (owned and mmapped), the delta
// overlay (the engine peels the logical base ± deltas graph directly,
// so batch-dynamic maintenance never rebuilds a CSR just to re-peel),
// and the byte-compressed backend.
impl<G: GraphBackend> UnitIncidence for G {
    #[inline]
    fn incident(&self, v: u32) -> &[u32] {
        self.neighbors_slice(v)
    }

    #[inline]
    fn num_incident(&self, v: u32) -> usize {
        self.degree(v)
    }

    #[inline]
    fn for_each_incident(&self, v: u32, f: &mut dyn FnMut(u32)) {
        self.for_each_neighbor(v, f);
    }
}

/// Settle state of an element as seen from a [`SettleView`] snapshot.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ElementState {
    /// Not settled in any subround so far.
    Alive,
    /// Settled in the *current* subround — dying together with the
    /// element being processed. Rules use this for tie-breaking so that
    /// a shared incidence (e.g. a triangle with two dying edges) is
    /// charged exactly once.
    Peer,
    /// Settled in an earlier subround (possibly an earlier round): its
    /// own settle processing already accounted for every incidence it
    /// participated in.
    Dead,
}

/// Consistent settle-state snapshot handed to [`SnapshotRule`]s.
///
/// All stamps for the current subround are written before any rule
/// runs (the engine inserts a global barrier between the phases), so
/// `state` answers identically no matter which worker asks or when.
pub struct SettleView<'a> {
    stamps: &'a [AtomicU32],
    current: u32,
}

impl SettleView<'_> {
    /// Settle state of element `e` in this subround's snapshot.
    #[inline]
    pub fn state(&self, e: u32) -> ElementState {
        let s = self.stamps[e as usize].load(Ordering::Relaxed);
        if s == 0 {
            ElementState::Alive
        } else if s == self.current {
            ElementState::Peer
        } else {
            ElementState::Dead
        }
    }

    /// Whether `e` survives this subround (not settled in it or any
    /// earlier one). [`RecomputeRule`]s recompute priorities over
    /// exactly the elements for which this holds — peers are already
    /// dying and must not be counted.
    #[inline]
    pub fn alive(&self, e: u32) -> bool {
        self.stamps[e as usize].load(Ordering::Relaxed) == 0
    }
}

/// A decrement rule that must observe other elements' settle state.
///
/// Invoked once per settled element per subround, strictly after every
/// same-subround settle has been stamped. Implementations must be
/// deterministic given the snapshot: for any shared incidence among
/// concurrently dying elements, exactly one of them may emit the
/// decrement (tie-break on element id — see the k-truss rule).
pub trait SnapshotRule: Sync {
    /// Calls `emit(t)` once for every element `t` that loses one
    /// priority unit because `e` settled at round `k`.
    fn for_each_decrement(&self, e: u32, k: u32, view: &SettleView<'_>, emit: &mut dyn FnMut(u32));
}

/// A priority that is *recomputed* from the surviving elements rather
/// than maintained by decrements — the h-index-style flavor, where one
/// death can lower an incident priority by many units.
///
/// Invoked in the second phase of a two-phase subround, strictly after
/// every same-subround settle has been stamped, so
/// [`SettleView::alive`] answers identically for every worker and
/// `recompute` is a pure function of the snapshot. The engine
/// deduplicates: each affected element is recomputed at most once per
/// subround no matter how many dying elements name it as a target.
pub trait RecomputeRule: Sync {
    /// Calls `emit(t)` for every element whose priority may have
    /// dropped because `e` settled. A superset is fine (extra targets
    /// cost a recompute that finds nothing to lower); a miss is not —
    /// every element whose priority actually changed must be emitted
    /// by at least one same-subround death.
    fn for_each_target(&self, e: u32, emit: &mut dyn FnMut(u32));

    /// Recomputes `t`'s priority over the elements alive in `view`
    /// (see [`SettleView::alive`]; peers count as dead). The result
    /// must be monotone: recomputing after more deaths never yields a
    /// larger value.
    fn recompute(&self, t: u32, view: &SettleView<'_>) -> u32;
}

/// How settling an element lowers other elements' priorities — the
/// problem's clamped-decrement rule over its incidence relation.
pub enum Incidence<'p> {
    /// One unit per settled incident element over static lists; peeled
    /// by the fused single-sync step with sampling + VGC available.
    Unit(&'p dyn UnitIncidence),
    /// Arbitrary rule against a consistent settle snapshot; peeled by
    /// the two-phase step (settle barrier before rule evaluation).
    Snapshot(&'p dyn SnapshotRule),
    /// Priorities recomputed from scratch over the survivors; peeled by
    /// the two-phase step with the generalized CAS clamp
    /// ([`clamped_update`]) enforcing monotone decrease.
    Recompute(&'p dyn RecomputeRule),
}

/// Live aggregates of the peel, maintained by the engine and handed to
/// [`ThresholdPolicy`] implementations at every round boundary.
#[derive(Debug, Clone, Copy)]
pub struct RoundAggregates {
    /// Index of the round about to start (also the settle round its
    /// frontier will receive).
    pub round: u32,
    /// Elements not yet settled.
    pub remaining: usize,
    /// Sum of the live elements' current priorities. For degree-like
    /// priorities this is twice the count of surviving incidences, so
    /// `priority_sum / remaining` is the live average degree.
    pub priority_sum: u64,
    /// Lower bound on every live priority: one past the previous
    /// round's peel threshold (0 at round 0).
    pub floor: u32,
}

/// Computes a round's peel threshold from the live aggregates — the
/// [`RoundPolicy::Threshold`] plug-in.
pub trait ThresholdPolicy: Sync {
    /// Peel threshold for the round described by `agg`: every live
    /// element with priority `<= threshold` settles this round
    /// (including elements dragged down to it by the cascade). Values
    /// below `agg.floor` are clamped up to it, so a round always has a
    /// chance to progress; returning at least the live minimum
    /// priority (any value `>= priority_sum / remaining` does) keeps
    /// every round non-empty.
    fn threshold(&self, agg: &RoundAggregates) -> u32;
}

/// How the engine forms rounds — the round-structure axis of the
/// framework, chosen by the problem via [`PeelProblem::round_policy`].
pub enum RoundPolicy<'p> {
    /// Round `k` peels priority exactly `k`. Only non-empty levels are
    /// visited; the levels jumped over still count in
    /// [`RunStats::rounds`] (as rounds of zero subrounds), so the stats
    /// match a level-by-level peel bit for bit.
    MinBucket,
    /// Round `r` peels every priority at or below a threshold computed
    /// from the live aggregates; rounds batch whole priority ranges
    /// and the clamp floor is the threshold. Requires
    /// [`Incidence::Unit`].
    Threshold(&'p dyn ThresholdPolicy),
}

/// A peeling-with-monotone-priorities problem, pluggable into
/// [`PeelEngine`].
///
/// The contract mirrors the paper's framework: the engine repeatedly
/// extracts the minimum-priority frontier (round `k` takes every
/// element of priority exactly `k`), settles it, and applies the
/// problem's decrement rule, never letting a priority drop below the
/// current round (the clamp). `assemble` receives each element's settle
/// round — the generalized "coreness" — plus the run's instrumentation.
pub trait PeelProblem: Sync {
    /// What the peel produces (coreness array, trussness array, best
    /// density prefix, ...).
    type Output;

    /// Problem name for diagnostics and benchmark tables.
    fn name(&self) -> &'static str;

    /// Size of the element universe (vertices for k-core, undirected
    /// edges for k-truss).
    fn num_elements(&self) -> usize;

    /// Initial priority of every element (induced degree, triangle
    /// support, ...).
    fn init_priorities(&self) -> Vec<u32>;

    /// The decrement rule.
    fn incidence(&self) -> Incidence<'_>;

    /// The round structure. Default: [`RoundPolicy::MinBucket`], the
    /// exact-priority rounds every pre-policy problem ran with.
    #[inline]
    fn round_policy(&self) -> RoundPolicy<'_> {
        RoundPolicy::MinBucket
    }

    /// Settle action: invoked as element `e` settles at round `k`,
    /// possibly from parallel workers (keep it cheap and thread-safe).
    /// Default: no extra action beyond the engine's bookkeeping.
    #[inline]
    fn on_settle(&self, e: u32, k: u32) {
        let _ = (e, k);
    }

    /// Builds the problem's result from per-element settle rounds and
    /// the run statistics.
    fn assemble(&self, rounds: Vec<u32>, stats: RunStats) -> Self::Output;
}

/// The generic peeling engine: Alg. 1's round/subround loop with the
/// Sec. 4 techniques, parameterized by a [`PeelProblem`].
///
/// The engine runs `config` exactly as given; the environment overrides
/// are applied by the facade ([`crate::Decomposition`] at `run`).
pub struct PeelEngine<'p, P: PeelProblem> {
    problem: &'p P,
    config: Config,
}

impl<'p, P: PeelProblem> PeelEngine<'p, P> {
    /// Creates an engine over `problem` with `config` taken verbatim.
    pub fn new(problem: &'p P, config: Config) -> Self {
        Self { problem, config }
    }

    /// The configuration this engine runs with.
    pub fn config(&self) -> &Config {
        &self.config
    }

    /// Peels the whole universe in one pass and assembles the problem's
    /// result. Every technique is exact by construction, so the pass
    /// never repeats ([`RunStats::restarts`] stays 0).
    ///
    /// # Panics
    ///
    /// Panics when the configured techniques cannot honor the
    /// problem's axes: sampling and the offline driver are
    /// `RoundPolicy::MinBucket` + `Unit`/`Snapshot` refinements and are
    /// rejected — never silently mis-run — under
    /// [`RoundPolicy::Threshold`] or [`Incidence::Recompute`] (see
    /// [`validate_combination`]).
    pub fn run(&self) -> P::Output {
        validate_combination(&self.config, &self.problem.round_policy(), &self.problem.incidence());
        if self.problem.num_elements() == 0 {
            return self.problem.assemble(Vec::new(), RunStats::default());
        }
        let mut stats = RunStats::default();
        let rounds = {
            // Run-root span, named after the problem; round/subround
            // spans nest inside.
            let _run = kcore_obs::SpanGuard::begin_dyn(
                self.problem.name(),
                self.problem.num_elements() as u64,
            );
            self.peel(&mut stats)
        };
        stats.publish_metrics();
        self.problem.assemble(rounds, stats)
    }

    /// Maps the peel mode and the problem's incidence to a subround
    /// step, and runs the round loop with the problem's round policy as
    /// the frontier source.
    fn peel(&self, stats: &mut RunStats) -> Vec<u32> {
        let (config, problem) = (&self.config, self.problem);
        let n = problem.num_elements();
        let init = problem.init_priorities();
        let policy = problem.round_policy();
        match (config.techniques.mode, problem.incidence()) {
            (PeelMode::Offline, incidence) => {
                let step = offline::OfflineStep::new(incidence, n);
                run_rounds(config, problem, &policy, init, step, stats)
            }
            (PeelMode::Online, Incidence::Unit(inc)) => {
                let step = FusedStep::new(config, inc, &init, stats);
                run_rounds(config, problem, &policy, init, step, stats)
            }
            (PeelMode::Online, incidence) => {
                let step = TwoPhaseStep::new(incidence, n);
                run_rounds(config, problem, &policy, init, step, stats)
            }
        }
    }
}

/// Whether sampling and the offline driver apply under a problem's
/// axes: exactly for [`RoundPolicy::MinBucket`] rounds over
/// [`Incidence::Unit`] or [`Incidence::Snapshot`] (sampling is then
/// ignored outside `Unit`). Sampling approximates priorities that
/// decrease by units, and the offline driver histograms unit
/// decrements — neither is defined for threshold-batched rounds or
/// recomputed priorities. VGC applies everywhere (it composes with
/// threshold rounds and is ignored under snapshot/recompute
/// incidences).
///
/// This is the one statement of the rule: [`validate_combination`]
/// panics on an explicit request the axes reject, and the facade drops
/// the techniques `KCORE_TECHNIQUES` forces that they reject.
pub(crate) fn accepts_sampling_and_offline(
    policy: &RoundPolicy<'_>,
    incidence: &Incidence<'_>,
) -> bool {
    matches!(
        (policy, incidence),
        (RoundPolicy::MinBucket, Incidence::Unit(_) | Incidence::Snapshot(_))
    )
}

/// Rejects technique × axis combinations the engine cannot honor (see
/// [`accepts_sampling_and_offline`]): fail loudly with the valid
/// combinations named, never silently produce a wrong (or silently
/// degraded) result.
pub(crate) fn validate_combination(
    config: &Config,
    policy: &RoundPolicy<'_>,
    incidence: &Incidence<'_>,
) {
    const VALID: &str = "valid combinations: sampling and offline require \
         RoundPolicy::MinBucket with Incidence::Unit or Incidence::Snapshot \
         (sampling applies to Unit only and is otherwise ignored); \
         RoundPolicy::Threshold requires Incidence::Unit and composes with vgc; \
         Incidence::Recompute runs the online MinBucket driver, vgc ignored";
    if accepts_sampling_and_offline(policy, incidence) {
        return;
    }
    let axis = match (policy, incidence) {
        (RoundPolicy::Threshold(_), Incidence::Unit(_)) => "RoundPolicy::Threshold",
        (RoundPolicy::Threshold(_), _) => {
            panic!("RoundPolicy::Threshold requires Incidence::Unit ({VALID})")
        }
        (RoundPolicy::MinBucket, _) => "Incidence::Recompute",
    };
    if config.techniques.sampling.is_some() {
        panic!("{axis} does not support the sampling technique ({VALID})");
    }
    if config.techniques.mode == PeelMode::Offline {
        panic!("{axis} does not support the offline driver ({VALID})");
    }
}

/// The round a subround step peels in: the problem, the live priority
/// and settle arrays, the bucket structure, and the round's settle
/// value and clamp floor.
pub(crate) struct Round<'a, P> {
    pub(crate) problem: &'a P,
    pub(crate) prio: &'a [AtomicU32],
    pub(crate) settled: &'a [AtomicU32],
    pub(crate) bucket: &'a dyn BucketStructure,
    /// The round index, recorded as the settle round of its elements.
    pub(crate) index: u32,
    /// The clamp floor: the index under [`RoundPolicy::MinBucket`], the
    /// round's threshold under [`RoundPolicy::Threshold`].
    pub(crate) floor: u32,
}

impl<P> Round<'_, P> {
    /// Incident arcs of `frontier` — the work a unit-incidence step
    /// charges on top of the frontier itself.
    pub(crate) fn arcs(&self, inc: &dyn UnitIncidence, frontier: &[u32]) -> u64 {
        frontier.iter().map(|&v| inc.num_incident(v) as u64).sum()
    }
}

/// What one subround hands back to the round loop.
pub(crate) struct Wave {
    /// The next subround's frontier (empty ends the round).
    pub(crate) next: Vec<u32>,
    /// Elements settled beyond the frontier itself (VGC chases).
    pub(crate) chased: usize,
    /// Work beyond one unit per frontier element.
    pub(crate) work: u64,
    /// Longest sequential chain, the burdened span's `chain` term.
    pub(crate) chain: u64,
}

/// How one subround peels its frontier — the step axis of
/// [`run_rounds`]. Statically dispatched, so the fused step's
/// `peel_from` stays monomorphised per problem.
pub(crate) trait Step {
    /// Global syncs one subround costs in the burdened span.
    const SYNCS: u64;

    /// Settles `frontier` and applies the decrement rule.
    fn subround<P: PeelProblem>(&mut self, frontier: &[u32], round: &Round<'_, P>) -> Wave;

    /// Highest level a `MinBucket` round starting at `floor` may jump
    /// to. The default lets it reach the lowest live priority: stored
    /// priorities are exact, so every level below it is empty.
    fn skip_limit(&self, _floor: u32) -> u32 {
        u32::MAX
    }

    /// Prepares a round's initial frontier before it peels.
    fn round_start<P: PeelProblem>(&mut self, _: &[u32], _: &Round<'_, P>) {}

    /// Called when a round's frontier runs dry; a non-empty result
    /// re-opens the round.
    fn round_end<P: PeelProblem>(&mut self, _: &Round<'_, P>) -> Vec<u32> {
        Vec::new()
    }

    /// Folds run-long step counters into the stats.
    fn finish(&self, _: &mut RunStats) {}
}

/// The one round loop (Alg. 1), shared by every problem and technique:
/// the frontier source is `policy`, the subround step is `step` (see
/// the module docs). It owns the priority and settle arrays, the bucket
/// structure and its adaptive HBS upgrade, the stall check, the
/// `round` → `bucket.drain` → `subround` span nesting, and the
/// round/subround accounting.
///
/// `MinBucket` rounds jump: each asks the bucket structure for the
/// lowest non-empty level at or above the floor, bounded by the step's
/// [`Step::skip_limit`] and the top priority, and moves `round` and
/// `floor` there. The skipped levels are added to the stats in one
/// step, with a zero per level in `subrounds_per_round`; only visited
/// levels get a `round` span, labelled with the level. The adaptive
/// HBS upgrade fires at the start of the first round whose floor has
/// reached θ.
///
/// Settle rounds record the round *index*. Under threshold rounds,
/// survivors always end a round with priority `> t` (the clamp only
/// ever stops a decrement exactly at the threshold, and elements that
/// reach it are peeled), so live priorities stay exact across rounds
/// and the effective thresholds strictly increase: `max(policy value,
/// floor)` with `floor = t_{r-1} + 1`. Even a pathological policy
/// therefore terminates — each round either settles elements or raises
/// the floor, and a threshold at or above the maximum priority drains
/// everything. Under `MinBucket` the floor is simply the round index.
fn run_rounds<P: PeelProblem, S: Step>(
    config: &Config,
    problem: &P,
    policy: &RoundPolicy<'_>,
    init: Vec<u32>,
    mut step: S,
    stats: &mut RunStats,
) -> Vec<u32> {
    let n = init.len();
    let prio: Vec<AtomicU32> = init.iter().map(|&d| AtomicU32::new(d)).collect();
    let settled: Vec<AtomicU32> = (0..n).map(|_| AtomicU32::new(UNSET)).collect();
    // Adaptive starts on the flat array and upgrades to HBS at the
    // θ-core; the other strategies are fixed for the whole run.
    let mut bucket: Box<dyn BucketStructure> = config.bucket_strategy.build(&init);
    let mut adaptive_pending = matches!(config.bucket_strategy, BucketStrategy::Adaptive);
    // Threshold rounds may need one round past the top priority to
    // drain it; exact rounds end at it.
    let max_prio = *init.iter().max().unwrap_or(&0);
    let last_round = u64::from(max_prio) + u64::from(matches!(policy, RoundPolicy::Threshold(_)));
    let view = LiveView { prio: &prio, settled: &settled };
    let mut remaining = n;
    let mut floor = 0u32; // lower bound on live priorities
    let mut round = 0u32;
    while remaining > 0 {
        assert!(
            u64::from(round) <= last_round,
            "peeling stalled: {remaining} elements left after round {last_round}"
        );
        let mut round_span = span!("round", round);
        if adaptive_pending && floor >= ADAPTIVE_THETA {
            let live = pack_index(n, |v| view.alive(v as u32));
            let entries = live.iter().map(|&v| (v, view.key(v)));
            bucket = Box::new(HierarchicalBuckets::with_entries(floor, entries));
            adaptive_pending = false;
        }
        let (t, mut frontier) = match policy {
            RoundPolicy::MinBucket => {
                // Jump to the lowest non-empty level the step allows.
                // No live element sits below it, so the skipped levels
                // are rounds that would have peeled nothing: they count
                // in `rounds` without being visited. `None` while
                // elements remain would mean the bucket lost them; it
                // reads as an empty level so the stall check reports it.
                let limit = step.skip_limit(floor).min(max_prio);
                let _drain = span!("bucket.drain", floor);
                let (level, frontier) =
                    bucket.next_nonempty(floor, limit, &view).unwrap_or((limit, Vec::new()));
                if level > floor {
                    stats.record_skipped_rounds(level - floor);
                    round_span.relabel(u64::from(level));
                    round = level;
                }
                (level, frontier)
            }
            RoundPolicy::Threshold(policy) => {
                // The live aggregates: a threshold run has O(log n)
                // rounds, so re-scanning the priority array at each
                // boundary is noise next to the peel itself — and keeps
                // the subround hot path free of aggregate bookkeeping
                // (survivor priorities are exact, so the scan is the
                // true live sum).
                let agg_span = span!("aggregates");
                let priority_sum: u64 = (0..n as u32)
                    .into_par_iter()
                    .map(|v| if view.alive(v) { u64::from(view.key(v)) } else { 0 })
                    .sum();
                drop(agg_span);
                let agg = RoundAggregates { round, remaining, priority_sum, floor };
                let t = policy.threshold(&agg).max(floor);
                let _drain = span!("bucket.drain", t);
                (t, bucket.drain_threshold(t, &view))
            }
        };
        let rd = Round {
            problem,
            prio: &prio,
            settled: &settled,
            bucket: &*bucket,
            index: round,
            floor: t,
        };
        step.round_start(&frontier, &rd);
        let mut subrounds = 0u32;
        loop {
            if frontier.is_empty() {
                frontier = step.round_end(&rd);
                if frontier.is_empty() {
                    break;
                }
            }
            subrounds += 1;
            let _subround = span!("subround", frontier.len());
            remaining -= frontier.len();
            let wave = step.subround(&frontier, &rd);
            remaining -= wave.chased;
            stats.max_frontier = stats.max_frontier.max(frontier.len());
            stats.work += frontier.len() as u64 + wave.work;
            stats.record_subround(S::SYNCS, wave.chain);
            frontier = wave.next;
        }
        stats.record_round(subrounds);
        floor = t.saturating_add(1);
        round += 1;
    }
    step.finish(stats);
    settled.into_iter().map(AtomicU32::into_inner).collect()
}

/// Hands the hash bag's contents to the next subround.
fn refile(bag: &mut HashBag) -> Vec<u32> {
    let _refile = span!("frontier.refile");
    bag.extract_all()
}

/// Per-element subround stamps behind the [`SettleView`] of the
/// two-phase and offline steps: 0 = never settled; ids start at 1 and
/// never reset, so [`SettleView::state`] tells peers from the dead.
/// Empty for steps that need no snapshot (offline unit incidences).
pub(crate) struct Stamps {
    ids: Vec<AtomicU32>,
    current: u32,
}

impl Stamps {
    pub(crate) fn new(n: usize) -> Self {
        Self { ids: (0..n).map(|_| AtomicU32::new(0)).collect(), current: 0 }
    }

    /// Settles the whole frontier — the first phase of the two-phase
    /// and offline steps — under a fresh subround id, and returns the
    /// snapshot the second phase reads. Every stamp lands first.
    pub(crate) fn settle<P: PeelProblem>(
        &mut self,
        frontier: &[u32],
        round: &Round<'_, P>,
    ) -> SettleView<'_> {
        self.current += 1;
        let (ids, id) = (&self.ids[..], self.current);
        let _settle = span!("settle", frontier.len());
        frontier.par_iter().for_each(|&e| {
            round.settled[e as usize].store(round.index, Ordering::Relaxed);
            if !ids.is_empty() {
                ids[e as usize].store(id, Ordering::Relaxed);
            }
            round.problem.on_settle(e, round.index);
        });
        SettleView { stamps: ids, current: id }
    }
}

/// The fused step for unit incidences: settle and decrement run in one
/// task per frontier element ([`vgc::peel_from`]), one global sync per
/// subround. Sampling claims every round's initial frontier and may
/// re-open a round at its end; VGC chases local chains.
pub(crate) struct FusedStep<'p> {
    pub(crate) inc: &'p dyn UnitIncidence,
    pub(crate) sampling: Option<SamplingState>,
    pub(crate) counters: TechniqueCounters,
    /// VGC chain bound; 0 disables chasing.
    pub(crate) chain_limit: u32,
    pub(crate) bag: HashBag,
}

impl<'p> FusedStep<'p> {
    fn new(
        config: &Config,
        inc: &'p dyn UnitIncidence,
        init: &[u32],
        stats: &mut RunStats,
    ) -> Self {
        let sampling =
            config.techniques.sampling.and_then(|cfg| SamplingState::build(inc, init, cfg));
        if let Some(s) = &sampling {
            stats.sampled_vertices = s.num_sampled() as u64;
        }
        Self {
            inc,
            sampling,
            counters: TechniqueCounters::new(),
            chain_limit: config.techniques.vgc.map_or(0, |v| v.chain_limit),
            bag: HashBag::new(init.len()),
        }
    }
}

impl Step for FusedStep<'_> {
    const SYNCS: u64 = 1;

    fn subround<P: PeelProblem>(&mut self, frontier: &[u32], round: &Round<'_, P>) -> Wave {
        self.counters.reset_subround();
        let arcs = round.arcs(self.inc, frontier);
        let this = &*self;
        frontier.par_iter().for_each(|&v| vgc::peel_from(round, this, v));
        let counters = &self.counters;
        let chased = counters.chased.load(Ordering::Relaxed) as usize;
        if let Some(s) = &mut self.sampling {
            s.note_settled(frontier.len() + chased);
        }
        Wave {
            chased,
            work: arcs + counters.chased_work.load(Ordering::Relaxed),
            chain: counters.chain.get().max(1),
            next: refile(&mut self.bag),
        }
    }

    fn skip_limit(&self, floor: u32) -> u32 {
        // A sample-mode stored priority may be a stale upper bound: the
        // element can truly count anywhere from `floor + 1` up, and only
        // the round ends in between catch it. No jump while one may be
        // live.
        if self.sampling.is_some() {
            floor
        } else {
            u32::MAX
        }
    }

    fn round_start<P: PeelProblem>(&mut self, frontier: &[u32], round: &Round<'_, P>) {
        // Sample-mode elements surface at their exact count (the
        // round-start invariant); claim them for the round.
        if let Some(s) = &self.sampling {
            s.claim_frontier(frontier, round, self.inc);
        }
    }

    fn round_end<P: PeelProblem>(&mut self, round: &Round<'_, P>) -> Vec<u32> {
        // End-of-round validation: exact recounts of the sample-mode
        // elements that may have dropped to `k + 1`. Anything caught at
        // `<= k` belongs to this round and re-opens it.
        let Some(s) = &mut self.sampling else { return Vec::new() };
        s.validate_round_end(round, self.inc, &self.counters)
    }

    fn finish(&self, stats: &mut RunStats) {
        self.counters.merge_sampling_into(stats);
    }
}

/// The generalized CAS clamp loop: lowers `slot` to
/// `max(proposed(current), floor)`, but only while the current value
/// sits above the floor and the proposal is an actual decrease.
/// Returns `(previous, stored)` for the single thread whose update
/// transitioned the slot, `None` otherwise — dead elements and
/// same-round frontier members are filtered by the clamp, never by an
/// explicit liveness check. `floor` is the round's clamp: the current
/// round `k` under [`RoundPolicy::MinBucket`], the round threshold
/// under [`RoundPolicy::Threshold`].
///
/// Unit decrements pass `|d| d - 1`; recompute incidences pass the
/// freshly recomputed priority as a constant proposal.
#[inline]
pub(crate) fn clamped_update(
    slot: &AtomicU32,
    floor: u32,
    proposed: impl Fn(u32) -> u32,
) -> Option<(u32, u32)> {
    let mut stored = floor;
    slot.fetch_update(Ordering::Relaxed, Ordering::Relaxed, |d| {
        if d <= floor {
            return None;
        }
        let nd = proposed(d).max(floor);
        if nd >= d {
            return None;
        }
        stored = nd;
        Some(nd)
    })
    .ok()
    .map(|prev| (prev, stored))
}

/// Phase 2 of a [`TwoPhaseStep`].
enum Apply<'p> {
    /// Snapshot rules: one clamped unit decrement per emitted target.
    Decrement(&'p dyn SnapshotRule),
    /// Recompute rules: each affected element is recomputed from the
    /// snapshot at most once per subround — `claimed` holds the id of
    /// the subround that last recomputed it.
    Recompute(&'p dyn RecomputeRule, Vec<AtomicU32>),
}

/// The two-phase step for snapshot and recompute incidences: stamp the
/// whole frontier settled (phase 1), then — after the implicit global
/// barrier — evaluate the rule against the frozen [`SettleView`] and
/// lower priorities through the generalized CAS clamp (phase 2).
/// Because the rule is a pure function of the snapshot, the stored
/// values — and the whole decomposition — are deterministic. Two
/// global syncs per subround; sampling and VGC do not apply.
struct TwoPhaseStep<'p> {
    apply: Apply<'p>,
    stamps: Stamps,
    bag: HashBag,
}

impl<'p> TwoPhaseStep<'p> {
    fn new(incidence: Incidence<'p>, n: usize) -> Self {
        let apply = match incidence {
            Incidence::Snapshot(rule) => Apply::Decrement(rule),
            Incidence::Recompute(rule) => {
                Apply::Recompute(rule, (0..n).map(|_| AtomicU32::new(0)).collect())
            }
            Incidence::Unit(_) => unreachable!("unit incidences take the fused step"),
        };
        Self { apply, stamps: Stamps::new(n), bag: HashBag::new(n) }
    }
}

impl Step for TwoPhaseStep<'_> {
    const SYNCS: u64 = 2;

    fn subround<P: PeelProblem>(&mut self, frontier: &[u32], round: &Round<'_, P>) -> Wave {
        let view = self.stamps.settle(frontier, round);
        let (k, bag) = (round.floor, &self.bag);
        let phase2 = match self.apply {
            Apply::Decrement(_) => span!("rule", frontier.len()),
            Apply::Recompute(..) => span!("recompute", frontier.len()),
        };
        let lowered = |t: u32, hit: Option<(u32, u32)>| {
            if let Some((prev, stored)) = hit {
                if stored == k {
                    // t dropped to the round: peeled exactly once, in
                    // the next subround.
                    bag.insert(t);
                } else {
                    round.bucket.on_decrease(t, prev, stored, k);
                }
            }
        };
        let applied = AtomicU64::new(0);
        frontier.par_iter().for_each(|&e| {
            let mut local = 0u64;
            match &self.apply {
                Apply::Decrement(rule) => rule.for_each_decrement(e, k, &view, &mut |t| {
                    local += 1;
                    lowered(t, clamped_update(&round.prio[t as usize], k, |d| d - 1));
                }),
                Apply::Recompute(rule, claimed) => rule.for_each_target(e, &mut |t| {
                    if !view.alive(t) {
                        return; // dead or dying alongside e
                    }
                    if claimed[t as usize].swap(view.current, Ordering::Relaxed) == view.current {
                        return; // another death already recomputed t
                    }
                    local += 1;
                    let fresh = rule.recompute(t, &view);
                    lowered(t, clamped_update(&round.prio[t as usize], k, |_| fresh));
                }),
            }
            if local > 0 {
                applied.fetch_add(local, Ordering::Relaxed);
            }
        });
        drop(phase2);
        Wave { next: refile(&mut self.bag), chased: 0, work: applied.into_inner(), chain: 1 }
    }
}
