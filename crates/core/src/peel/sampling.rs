//! The sampling scheme (paper Sec. 4.1).
//!
//! Peeling a high-priority element's incidence list funnels thousands
//! of atomic decrements into one cache line — the contention hotspot
//! the paper measures in Sec. 4.1.5. The sampling scheme removes it: an
//! element whose initial priority reaches the configured threshold
//! enters **sample mode** and stops maintaining an exact priority.
//! Instead it tracks the number of *sampled* live incident elements,
//! where each incidence is in the sample with probability `2^-r`
//! (`r = RATE_LOG2`), decided by a deterministic endpoint hash. A
//! removal then touches the shared counter only for sampled incidences
//! — a `2^r`-fold contention reduction — with a clamped (floor-0)
//! atomic decrement.
//!
//! The scheme applies to [`crate::Incidence::Unit`] problems (each dead
//! incident element costs one unit, so the sampled counter estimates
//! the live priority); the engine gates it off for snapshot rules. For
//! k-core the "incidences" are exactly the graph's edges, matching the
//! paper's presentation.
//!
//! Exactness is restored at the decision points:
//!
//! * **Trigger recounts** fire inside a subround when the sampled
//!   counter crosses the trigger watermark (see below). A recount at
//!   `<= k` means the element belongs to the current round: it is
//!   claimed and joins the next subround through the hash bag. A
//!   recount above `k` refreshes the stored priority (monotonically
//!   decreasing) and re-files the element in the bucket structure.
//! * **End-of-round validation** exactly re-counts, when a round's
//!   frontier drains, every live sample-mode element whose count may
//!   have fallen to `k + 1` or below, skipping those whose outcome is
//!   already known (see *Output-sensitive validation* below;
//!   [`kcore_parallel::RunStats::validate_calls`]). Elements caught at
//!   `<= k` re-open the round.
//! * **Frontier claims** take the sample-mode elements surfacing in a
//!   round's initial frontier without a recount: the invariant below
//!   fixes their count at exactly the round.
//!
//! Every trigger and validation recount counts in
//! [`kcore_parallel::RunStats::resamples`]. A sample-mode element is
//! **never peeled on approximate evidence** — each settle follows an
//! exact recount or the exact count the invariant fixes — which is how
//! the scheme stays oracle-identical while shedding contention. The
//! end-of-round validation skips only elements whose outcome is known,
//! so no round can miss an element: the scheme is exact by
//! construction, and no run is ever repeated
//! ([`kcore_parallel::RunStats::restarts`] is always 0).
//!
//! ## Output-sensitive validation
//!
//! A *gap recount* runs in the sequential gap between rounds, so its
//! count is exact. Two facts let the end-of-round validation of round
//! `k` skip elements without losing that exactness:
//!
//! * **Touched filter.** Every removal of an incident element sets the
//!   element's `touched` flag; a gap recount clears it. An untouched
//!   element has lost nothing since its last gap recount (or since the
//!   run began), so its stored priority *is* its exact count and the
//!   bucket structure files it there: the bucket surfaces it in the
//!   right round. Empty rounds therefore cost no recounts at all.
//! * **Settled-count lower bound.** A gap recount records its count
//!   `base` and the number of elements settled so far. If `since`
//!   elements settled after that, the element has lost at most `since`
//!   units, so its count is at least `base - since`. At `k + 2` or
//!   more it neither belongs to round `k` nor to round `k + 1`'s
//!   initial frontier, and the recount waits for a later round end.
//!
//! The invariant the validation keeps at every round start `k` is
//! therefore: every live sample-mode element counts at least `k`, and
//! every one that counts exactly `k` is stored at `k`. Elements above
//! may carry a stale (larger) stored priority; it is still an upper
//! bound, and they are re-examined at every round end until a recount
//! refreshes it. Mid-round recounts may overstate a count, so they
//! refresh the stored priority but never the lower-bound record. Only
//! [`crate::RoundPolicy::MinBucket`] floors (`floor = k`) need the
//! argument: sampling is rejected under threshold rounds.
//!
//! A sample-mode element in round `k`'s initial frontier is stored at
//! `k` (or the bucket would not have surfaced it), which upper-bounds
//! its count, and the invariant bounds the count from below by `k`: it
//! counts exactly `k`, and the frontier claim needs no recount. Debug
//! builds assert it.
//!
//! ## Trigger watermark
//!
//! With sampling rate `2^-r`, an element of true live priority `d` has
//! a sampled counter concentrated around `d / 2^r`. The trigger sits
//! at the expected counter of the round boundary plus a Chernoff-style
//! `O(√(μ log n))` deviation and a flat `SLACK`:
//! `((k+1) >> r) + ceil(√(3 · ((k+1) >> r) · log₂ n)) + SLACK`.
//! The watermark only schedules early recounts, which keep the stored
//! priorities of hot elements fresh; exactness never depends on it,
//! because the end-of-round validation catches every element the
//! triggers miss. The paper also keeps sampled counters in per-thread
//! shards before they hit the shared counter; we take the hit on the
//! shared atomic directly.

use super::engine::{FusedStep, PeelProblem, Round, UnitIncidence, UNSET};
use crate::config::Sampling;
use kcore_check::sync::atomic::{AtomicBool, AtomicU32, AtomicU8, Ordering};
use kcore_obs::{counter, span};
use kcore_parallel::primitives::pack_index;
use kcore_parallel::TechniqueCounters;
use rayon::prelude::*;

/// Sampling rate exponent `r`: each incidence is in the sample with
/// probability `2^-r`.
const RATE_LOG2: u32 = 2;
/// `2^RATE_LOG2 - 1`: an incidence is sampled iff its hash ANDs to zero.
const MASK: u64 = (1 << RATE_LOG2) - 1;
/// Flat additive slack on the trigger watermark.
const SLACK: u32 = 32;
/// Seed of the deterministic edge-sampling hash.
const SEED: u64 = 0x9E37_79B9_7F4A_7C15;

/// Element tracks its exact priority (the plain Alg. 1 path).
const EXACT: u8 = 0;
/// Element tracks the sampled counter; the stored priority holds the
/// last exact recount (an upper bound on the live value).
const SAMPLED: u8 = 1;
/// A worker holds the element's recount token.
const RECOUNT: u8 = 2;
/// The element peels in the current round (an exact recount or the
/// round-start invariant put it there); it sits in the frontier or hash
/// bag and takes no further recounts.
const CLAIMED: u8 = 3;

/// Per-run state of the sampling scheme.
pub(crate) struct SamplingState {
    /// `ceil(log2 n)` of the element universe — the deviation term's
    /// `log n` factor.
    log2_n: u32,
    /// Per-element mode (see the `EXACT` … `CLAIMED` constants).
    state: Vec<AtomicU8>,
    /// Sampled live incidences per element (sample-mode only).
    approx: Vec<AtomicU32>,
    /// Elements that entered sample mode, pruned of dead entries at
    /// each end-of-round validation.
    sampled: Vec<u32>,
    /// Per-element: an incident element settled since the last gap
    /// recount. Set on every removal, cleared only by gap recounts.
    touched: Vec<AtomicBool>,
    /// Per-element exact count at the last gap recount (the initial
    /// priority before any).
    base: Vec<AtomicU32>,
    /// Per-element `settled_total` when `base` was taken.
    stamp: Vec<AtomicU32>,
    /// Elements settled so far in this run.
    settled_total: u32,
}

impl SamplingState {
    /// Builds sample-mode state for every element whose initial
    /// priority reaches the threshold and equals its incident count;
    /// `None` when no element qualifies (the run then skips the
    /// sampling hooks entirely).
    pub(crate) fn build(
        inc: &dyn UnitIncidence,
        init_priorities: &[u32],
        cfg: Sampling,
    ) -> Option<Self> {
        let n = init_priorities.len();
        // Recounts measure the live incident count, and the lower bound
        // takes the initial priority as the first exact count, so an
        // element whose priority is something else stays exact (region
        // re-peel ghosts carry a pinned coreness over one incidence).
        let qualifies = |v: usize| {
            init_priorities[v] >= cfg.threshold
                && init_priorities[v] as usize == inc.num_incident(v as u32)
        };
        let sampled = pack_index(n, qualifies);
        if sampled.is_empty() {
            return None;
        }
        let log2_n = (usize::BITS - n.max(2).next_power_of_two().leading_zeros() - 1).max(1);
        let state: Vec<AtomicU8> =
            (0..n).map(|v| AtomicU8::new(if qualifies(v) { SAMPLED } else { EXACT })).collect();
        let approx: Vec<AtomicU32> = (0..n as u32)
            .into_par_iter()
            .map(|v| {
                let mut count = 0u32;
                if qualifies(v as usize) {
                    // Streaming walk: no incident slice is held, so this
                    // is safe on decode-on-the-fly backends.
                    inc.for_each_incident(v, &mut |u| {
                        if edge_sampled(v, u) {
                            count += 1;
                        }
                    });
                }
                AtomicU32::new(count)
            })
            .collect();
        Some(Self {
            log2_n,
            state,
            approx,
            sampled,
            touched: (0..n).map(|_| AtomicBool::new(false)).collect(),
            base: init_priorities.iter().map(|&d| AtomicU32::new(d)).collect(),
            stamp: (0..n).map(|_| AtomicU32::new(0)).collect(),
            settled_total: 0,
        })
    }

    /// Number of elements that entered sample mode.
    pub(crate) fn num_sampled(&self) -> usize {
        self.sampled.len()
    }

    /// Whether removals targeting `u` take the sampled path. `RECOUNT`
    /// and `CLAIMED` count as sampled: their exact priority is never
    /// maintained, so the exact decrement path must not touch them.
    #[inline]
    pub(crate) fn in_sample_mode(&self, u: u32) -> bool {
        self.state[u as usize].load(Ordering::Relaxed) != EXACT
    }

    /// Processes the removal of incidence `(src, u)` for a sample-mode
    /// `u`: mark `u` touched, decrement the sampled counter if the
    /// incidence is in the sample, and recount exactly when the counter
    /// crosses the trigger watermark (or bottoms out — past zero the
    /// approximation carries no signal).
    #[inline]
    pub(crate) fn on_neighbor_removed<P: PeelProblem>(
        &self,
        src: u32,
        u: u32,
        round: &Round<'_, P>,
        step: &FusedStep<'_>,
    ) {
        // Load first: a hot element sees read-shared loads, not a store
        // per removal.
        let touched = &self.touched[u as usize];
        if !touched.load(Ordering::Relaxed) {
            touched.store(true, Ordering::Relaxed);
        }
        if !edge_sampled(src, u) {
            return;
        }
        let prev =
            self.approx[u as usize].fetch_update(Ordering::Relaxed, Ordering::Relaxed, |a| {
                if a > 0 {
                    Some(a - 1)
                } else {
                    None
                }
            });
        if let Ok(prev) = prev {
            let now = prev - 1;
            // `==` rather than `<=`: the counter only decreases between
            // recounts, so this fires once per crossing instead of on
            // every removal below the watermark.
            if now == self.trigger_watermark(round.floor) || now == 0 {
                self.recount_in_round(u, round, step);
            }
        }
    }

    /// Claims the recount token for `u` and re-counts exactly,
    /// mid-round.
    fn recount_in_round<P: PeelProblem>(&self, u: u32, round: &Round<'_, P>, step: &FusedStep<'_>) {
        if self.state[u as usize]
            .compare_exchange(SAMPLED, RECOUNT, Ordering::Relaxed, Ordering::Relaxed)
            .is_err()
        {
            // Someone else is recounting, or the element is already
            // claimed for this round.
            return;
        }
        counter!(step.counters.resamples, "sampling.resamples", 1);
        // Streaming walk: this recount fires *inside* a neighbor walk of
        // the peel loop, so the outer `incident` slice is live — the
        // buffer-free form is required on decode-on-the-fly backends.
        let mut counts = Counts::default();
        step.inc.for_each_incident(u, &mut |w| self.tally(u, w, round.settled, &mut counts));
        if self.apply(u, counts, round) <= round.floor {
            // The round-start invariant puts the priority at >= k when
            // the round opened, so the drop to <= k happened during this
            // round: the settle round is k. Claimed before inserting so
            // no second recount (or a stale bucket copy) can double-peel.
            step.bag.insert(u);
        } else {
            self.state[u as usize].store(SAMPLED, Ordering::Relaxed);
        }
    }

    /// Acts on a recount of `v` and returns the count. At or below the
    /// round's floor `v` is claimed for the round; otherwise its stored
    /// priority and sampled count are refreshed and it re-files in the
    /// bucket structure.
    fn apply<P>(&self, v: u32, Counts { exact, fresh }: Counts, round: &Round<'_, P>) -> u32 {
        if exact <= round.floor {
            self.state[v as usize].store(CLAIMED, Ordering::Relaxed);
        } else if let Some(old) = store_decreased(&round.prio[v as usize], exact) {
            self.approx[v as usize].store(fresh, Ordering::Relaxed);
            round.bucket.on_decrease(v, old, exact, round.floor);
        }
        exact
    }

    /// Claims every sample-mode element in a round's initial frontier
    /// for the round, without a recount: the round-start invariant
    /// (see the module docs) fixes its count at exactly the round.
    pub(crate) fn claim_frontier<P: PeelProblem>(
        &self,
        frontier: &[u32],
        round: &Round<'_, P>,
        inc: &dyn UnitIncidence,
    ) {
        let _validate = span!("sampling.validate_frontier", frontier.len());
        frontier.par_iter().for_each(|&v| {
            let state = self.state[v as usize].load(Ordering::Relaxed);
            debug_assert_ne!(state, CLAIMED, "claimed elements settle within their round");
            if state == SAMPLED {
                debug_assert_eq!(
                    live_incident(v, round.settled, inc),
                    round.floor,
                    "a sample-mode element opens its round at exactly its count"
                );
                self.state[v as usize].store(CLAIMED, Ordering::Relaxed);
            }
        });
    }

    /// End-of-round validation: exactly re-counts the live sample-mode
    /// elements whose count may have reached `k + 1` (see the module
    /// docs for the skips) and returns the ones whose count already
    /// reached `k` — they re-open the round.
    pub(crate) fn validate_round_end<P: PeelProblem>(
        &mut self,
        round: &Round<'_, P>,
        inc: &dyn UnitIncidence,
        counters: &TechniqueCounters,
    ) -> Vec<u32> {
        self.sampled.retain(|&v| round.settled[v as usize].load(Ordering::Relaxed) == UNSET);
        let _validate = span!("sampling.validate_round_end", self.sampled.len());
        let this = &*self;
        this.sampled
            .par_iter()
            .filter_map(|&v| {
                let i = v as usize;
                if this.state[i].load(Ordering::Relaxed) != SAMPLED
                    || !this.touched[i].load(Ordering::Relaxed)
                {
                    return None;
                }
                let base = this.base[i].load(Ordering::Relaxed);
                let since = this.settled_total - this.stamp[i].load(Ordering::Relaxed);
                if stays_above_next_round(base, since, round.floor) {
                    return None;
                }
                counter!(counters.validate_calls, "sampling.validate_calls", 1);
                counter!(counters.resamples, "sampling.resamples", 1);
                (this.gap_recount(v, round, inc) <= round.floor).then_some(v)
            })
            .collect()
    }

    /// Records `count` more settled elements (after each subround).
    pub(crate) fn note_settled(&mut self, count: usize) {
        self.settled_total += count as u32;
    }

    /// Re-counts `v` in the sequential gap between rounds, where the
    /// count is exact: clears `touched`, records the count as the new
    /// lower-bound base, and acts on it like any recount.
    fn gap_recount<P>(&self, v: u32, round: &Round<'_, P>, inc: &dyn UnitIncidence) -> u32 {
        let i = v as usize;
        self.touched[i].store(false, Ordering::Relaxed);
        // No outer `incident` slice is live in the gap, so the slice
        // walk is allowed (see the `UnitIncidence` slice discipline).
        let mut counts = Counts::default();
        for &w in inc.incident(v) {
            self.tally(v, w, round.settled, &mut counts);
        }
        self.base[i].store(counts.exact, Ordering::Relaxed);
        self.stamp[i].store(self.settled_total, Ordering::Relaxed);
        self.apply(v, counts, round)
    }

    /// Counts incidence `(v, w)` if `w` is live. During a subround a
    /// concurrent settle can be missed — counted as still alive — so a
    /// mid-round recount only ever *over*states the truth, which keeps
    /// the stored priority an upper bound; in the sequential gaps it is
    /// exact.
    #[inline]
    fn tally(&self, v: u32, w: u32, settled: &[AtomicU32], counts: &mut Counts) {
        if settled[w as usize].load(Ordering::Relaxed) == UNSET {
            counts.exact += 1;
            if edge_sampled(v, w) {
                counts.fresh += 1;
            }
        }
    }

    /// Sampled-counter level at which a mid-round removal triggers a
    /// recount: the expected counter at the round boundary, plus the
    /// Chernoff deviation term, plus the flat slack (see the module
    /// docs). No term can overflow: `base <= 2^30` and `log2_n <= 64`.
    fn trigger_watermark(&self, k: u32) -> u32 {
        let base = ((u64::from(k) + 1) >> RATE_LOG2) as u32;
        base + deviation(base, self.log2_n) + SLACK
    }
}

/// A recount's result: the live incident elements, and those of them
/// whose incidence is sampled (the refreshed approximation).
#[derive(Default, Clone, Copy)]
struct Counts {
    exact: u32,
    fresh: u32,
}

/// Live incident elements of `v`: an exact count in the sequential gap
/// between rounds.
fn live_incident(v: u32, settled: &[AtomicU32], inc: &dyn UnitIncidence) -> u32 {
    let live =
        inc.incident(v).iter().filter(|&&w| settled[w as usize].load(Ordering::Relaxed) == UNSET);
    live.count() as u32
}

/// Whether an element whose gap recount found `base` live incidences,
/// `since` settles ago, is sure to count at least `floor + 2` now: each
/// settle costs it at most one unit. Such an element neither belongs
/// to the round of clamp floor `floor` nor to the next round's initial
/// frontier, so its end-of-round recount can wait.
fn stays_above_next_round(base: u32, since: u32, floor: u32) -> bool {
    u64::from(base.saturating_sub(since)) >= u64::from(floor) + 2
}

/// Chernoff deviation `ceil(√(3 · base · log₂ n))`: a counter with mean
/// `base` stays within this of its mean with probability `1 - n^-Ω(1)`.
fn deviation(base: u32, log2_n: u32) -> u32 {
    ceil_sqrt(3 * base as u64 * log2_n as u64)
}

/// `ceil(√x)` over integers (no float rounding surprises).
fn ceil_sqrt(x: u64) -> u32 {
    let s = x.isqrt();
    (s + u64::from(s * s < x)) as u32
}

/// Monotonically-decreasing store of a recounted priority, returning
/// the replaced value. The guard keeps bucket notifications distinct
/// (each stored value is strictly smaller than the last) and the stored
/// value an upper bound.
fn store_decreased(slot: &AtomicU32, exact: u32) -> Option<u32> {
    slot.fetch_update(Ordering::Relaxed, Ordering::Relaxed, |d| (exact < d).then_some(exact)).ok()
}

/// Whether incidence `{a, b}` is in the sample: a SplitMix64-style mix
/// of the sorted id pair and the seed, accepted when the low
/// `RATE_LOG2` bits clear. Deterministic, so the init count and every
/// removal agree on the sample without storing it.
#[inline]
fn edge_sampled(a: u32, b: u32) -> bool {
    let (lo, hi) = if a < b { (a, b) } else { (b, a) };
    let mut h = ((lo as u64) << 32 | hi as u64) ^ SEED;
    h = (h ^ (h >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    h = (h ^ (h >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    h ^= h >> 31;
    h & MASK == 0
}

#[cfg(test)]
mod tests {
    use super::*;
    use kcore_graph::gen;

    #[test]
    fn edge_sampling_is_symmetric_and_deterministic() {
        for (a, b) in [(0u32, 1u32), (5, 900), (123_456, 7)] {
            assert_eq!(edge_sampled(a, b), edge_sampled(b, a));
            assert_eq!(edge_sampled(a, b), edge_sampled(a, b));
        }
    }

    #[test]
    fn edge_sampling_rate_is_roughly_two_to_minus_r() {
        let hits = (0..40_000u32).filter(|&i| edge_sampled(i, i + 1)).count();
        let expect = 40_000 >> RATE_LOG2;
        assert!(
            hits > expect / 2 && hits < expect * 2,
            "rate 2^-{RATE_LOG2}: {hits} hits vs expected ~{expect}"
        );
    }

    #[test]
    fn build_samples_only_above_threshold() {
        let g = gen::star(50); // hub degree 49, leaves degree 1
        let degrees = g.degrees();
        let s = SamplingState::build(&g, &degrees, Sampling::with_threshold(10)).unwrap();
        assert_eq!(s.num_sampled(), 1);
        assert!(s.in_sample_mode(0), "the hub is vertex 0");
        assert!(!s.in_sample_mode(1));
        // The hub's sampled count reflects the hash sample of its edges.
        let approx = s.approx[0].load(Ordering::Relaxed);
        assert!(approx <= 49);
        let manual = (1..50u32).filter(|&leaf| edge_sampled(0, leaf)).count() as u32;
        assert_eq!(approx, manual);
    }

    #[test]
    fn build_returns_none_when_nothing_qualifies() {
        let g = gen::path(10);
        let degrees = g.degrees();
        assert!(SamplingState::build(&g, &degrees, Sampling::with_threshold(100)).is_none());
    }

    #[test]
    fn store_decreased_is_monotone() {
        let slot = AtomicU32::new(10);
        assert_eq!(store_decreased(&slot, 7), Some(10));
        assert_eq!(store_decreased(&slot, 7), None, "equal values must not re-notify");
        assert_eq!(store_decreased(&slot, 9), None, "increases must be rejected");
        assert_eq!(store_decreased(&slot, 3), Some(7));
        assert_eq!(slot.load(Ordering::Relaxed), 3);
    }

    #[test]
    fn ceil_sqrt_is_exact() {
        assert_eq!(ceil_sqrt(0), 0);
        assert_eq!(ceil_sqrt(1), 1);
        assert_eq!(ceil_sqrt(2), 2);
        assert_eq!(ceil_sqrt(4), 2);
        assert_eq!(ceil_sqrt(5), 3);
        assert_eq!(ceil_sqrt(36), 6);
        assert_eq!(ceil_sqrt(37), 7);
        for x in 0..2000u64 {
            let s = ceil_sqrt(x) as u64;
            assert!(s * s >= x && (s == 0 || (s - 1) * (s - 1) < x), "x = {x}");
        }
    }

    #[test]
    fn watermarks_scale_with_round_deviation_and_slack() {
        let g = gen::star(40); // n = 40 -> log2_n = 6
        let degrees = g.degrees();
        let s = SamplingState::build(&g, &degrees, Sampling::with_threshold(10)).unwrap();
        assert_eq!(s.log2_n, 6);
        // Rounds 0..=2: base = (k + 1) >> 2 = 0, so no deviation term —
        // only the slack.
        assert_eq!(s.trigger_watermark(0), SLACK);
        assert_eq!(s.trigger_watermark(2), SLACK);
        // Round 7: base = 8 >> 2 = 2, deviation = ceil(sqrt(3*2*6)) = 6.
        assert_eq!(s.trigger_watermark(7), 2 + 6 + SLACK);
    }

    #[test]
    fn skip_bound_is_tight_at_the_next_round() {
        // base - since == floor + 1: the element may open round
        // floor + 1, so it must be recounted.
        assert!(!stays_above_next_round(12, 2, 9));
        // floor + 2 and above: out of reach of the next round.
        assert!(stays_above_next_round(13, 2, 9));
        assert!(stays_above_next_round(40, 0, 9));
        // More settles than the base: the bound saturates at 0.
        assert!(!stays_above_next_round(3, 10, 0));
        assert!(!stays_above_next_round(0, u32::MAX, 0));
        // The largest floor cannot overflow `floor + 2`.
        assert!(!stays_above_next_round(u32::MAX, 0, u32::MAX));
        assert!(stays_above_next_round(u32::MAX, 0, u32::MAX - 2));
    }

    #[test]
    fn watermarks_saturate_instead_of_overflowing() {
        // The largest round keeps every term in range: base = 2^30.
        let g = gen::star(40);
        let degrees = g.degrees();
        let s = SamplingState::build(&g, &degrees, Sampling::with_threshold(10)).unwrap();
        let base = 1u32 << 30;
        assert_eq!(s.trigger_watermark(u32::MAX), base + deviation(base, s.log2_n) + SLACK);
    }
}
