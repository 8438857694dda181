//! Offline (Julienne-style) histogram peeling, generic over
//! [`PeelProblem`]s.
//!
//! The fused online step discovers `DecreaseKey`s with per-target
//! atomic decrements. The offline step (Julienne's `Peel`, the paper's
//! online/offline ablation axis) avoids per-target atomics entirely:
//! per subround of the engine's round loop it
//!
//! 1. settles the frontier (an exclusive phase, so later reads see a
//!    stable snapshot),
//! 2. **gathers** every priority decrement the frontier causes into one
//!    list `L` (with duplicates) — live incident elements for
//!    [`Incidence::Unit`] problems, the rule's emitted targets for
//!    [`Incidence::Snapshot`] problems,
//! 3. **histograms** `L` — `(element, multiplicity)` pairs, the number
//!    of units each element just lost, by sort or atomic counting as
//!    the list's density dictates
//!    ([`kcore_parallel::histogram::histogram_auto`]; the paper uses a
//!    parallel semisort here),
//! 4. **applies** the bulk decrements: each element's priority drops by
//!    its multiplicity, clamped at the current round `k`; elements
//!    landing on `k` form the next frontier, the rest re-file in the
//!    bucket structure.
//!
//! The price is synchronization: three global syncs per subround
//! instead of one, which is exactly how the burdened span accounts it
//! (Fig. 9's online/offline gap).
//!
//! [`range_membership`] reuses the machinery for the *range* form: to
//! extract one k-core, every element of priority `< k` is pulled in a
//! single bulk step ([`BucketStructure::next_frontier_range`]) and the
//! cascade needs no round ordering at all — the serving path for
//! individual core queries ([`crate::Decomposition::members`]).

use super::engine::{
    Incidence, LiveView, PeelProblem, Round, Stamps, Step, UnitIncidence, Wave, UNSET,
};
use kcore_buckets::{BucketStructure, SingleBucket};
use kcore_check::sync::atomic::{AtomicU32, Ordering};
use kcore_obs::span;
use kcore_parallel::histogram::histogram_auto;
use rayon::prelude::*;

/// The offline subround step. Its apply produces the next frontier
/// directly, so it needs no hash bag. Sampling and VGC are online-only
/// refinements (they exist to temper the fused step's atomics and
/// subround synchronization) and are ignored here.
pub(crate) struct OfflineStep<'p> {
    incidence: Incidence<'p>,
    /// Settle stamps for snapshot rules; empty for unit incidences,
    /// which read liveness from the settle array directly.
    stamps: Stamps,
}

impl<'p> OfflineStep<'p> {
    pub(crate) fn new(incidence: Incidence<'p>, n: usize) -> Self {
        let stamped = match incidence {
            Incidence::Snapshot(_) => n,
            Incidence::Unit(_) => 0,
            // The engine rejects offline × recompute before dispatching
            // (see `validate_combination`): recomputed priorities have
            // no decrement multiset to histogram.
            Incidence::Recompute(_) => unreachable!("offline rejects Incidence::Recompute"),
        };
        Self { incidence, stamps: Stamps::new(stamped) }
    }
}

impl Step for OfflineStep<'_> {
    const SYNCS: u64 = 3;

    fn subround<P: PeelProblem>(&mut self, frontier: &[u32], round: &Round<'_, P>) -> Wave {
        let k = round.floor;
        // 1. settle — exclusive phase, so the gather below reads a
        // stable snapshot.
        let view = self.stamps.settle(frontier, round);
        // 2. gather the decrement list, with duplicates. Unit
        // incidences charge the frontier's full incident lists (the
        // gather scans them all, live or not); snapshot rules charge
        // the emitted list, which is the work they actually perform.
        let gather_span = span!("offline.gather", frontier.len());
        let (gathered, mut work) = match self.incidence {
            Incidence::Unit(inc) => {
                (gather_live(inc, frontier, round.settled), round.arcs(inc, frontier))
            }
            Incidence::Snapshot(rule) => {
                let gathered = gather(frontier, |e, out| {
                    rule.for_each_decrement(e, k, &view, &mut |t| out.push(t))
                });
                let len = gathered.len() as u64;
                (gathered, len)
            }
            Incidence::Recompute(_) => unreachable!("rejected by OfflineStep::new"),
        };
        drop(gather_span);
        // 3. histogram it.
        let hist_span = span!("offline.histogram", gathered.len());
        let hist = histogram_auto(gathered, round.settled.len());
        drop(hist_span);
        work += hist.len() as u64;
        // 4. apply bulk decrements; hits on k form the next frontier.
        let _apply = span!("offline.apply", hist.len());
        let next = hist
            .par_iter()
            .filter_map(|&(u, c)| {
                let u = u as usize;
                if round.settled[u].load(Ordering::Relaxed) != UNSET {
                    return None;
                }
                let d = round.prio[u].load(Ordering::Relaxed);
                debug_assert!(d > k, "live non-frontier elements sit above the round");
                let nd = d.saturating_sub(c).max(k);
                round.prio[u].store(nd, Ordering::Relaxed);
                if nd == k {
                    Some(u as u32)
                } else {
                    round.bucket.on_decrease(u as u32, d, nd, k);
                    None
                }
            })
            .collect();
        Wave { next, chased: 0, work, chain: 1 }
    }
}

/// Membership of the priority-`k` core by offline **range** peeling:
/// one bulk extraction of every element below `k`, then histogram
/// cascades until a fixpoint. No round ordering — removal order does
/// not affect the fixpoint — so the whole sub-`k` range peels as one
/// wave, which is why this is far cheaper than a full decomposition for
/// one query. Unit incidences only (the query is "degree at least `k`
/// within the surviving set").
pub(crate) fn range_membership(
    inc: &dyn UnitIncidence,
    init_priorities: &[u32],
    k: u32,
) -> Vec<bool> {
    let n = init_priorities.len();
    if n == 0 {
        return Vec::new();
    }
    let prio: Vec<AtomicU32> = init_priorities.iter().map(|&d| AtomicU32::new(d)).collect();
    // Reuse the settle array as the peeled marker (0 = peeled).
    let peeled: Vec<AtomicU32> = (0..n).map(|_| AtomicU32::new(UNSET)).collect();
    let mut bucket = SingleBucket::new(init_priorities);
    let view = LiveView { prio: &prio, settled: &peeled };
    let mut frontier = bucket.next_frontier_range(0, k, &view);
    while !frontier.is_empty() {
        frontier.par_iter().for_each(|&v| peeled[v as usize].store(0, Ordering::Relaxed));
        let gathered = gather_live(inc, &frontier, &peeled);
        let hist = histogram_auto(gathered, n);
        frontier = hist
            .par_iter()
            .filter_map(|&(u, c)| {
                let u = u as usize;
                if peeled[u].load(Ordering::Relaxed) != UNSET {
                    return None;
                }
                let d = prio[u].load(Ordering::Relaxed);
                let nd = d.saturating_sub(c);
                prio[u].store(nd, Ordering::Relaxed);
                // Only the crossing below k enters the frontier, so each
                // element cascades at most once.
                (d >= k && nd < k).then_some(u as u32)
            })
            .collect();
    }
    peeled.iter().map(|m| m.load(Ordering::Relaxed) == UNSET).collect()
}

/// Every still-live incident element of the frontier, with duplicates.
fn gather_live(inc: &dyn UnitIncidence, frontier: &[u32], settled: &[AtomicU32]) -> Vec<u32> {
    gather(frontier, |v, out| {
        inc.for_each_incident(v, &mut |u| {
            if settled[u as usize].load(Ordering::Relaxed) == UNSET {
                out.push(u);
            }
        })
    })
}

/// The list `L` of Julienne's `Peel`: every decrement target `targets`
/// pushes for each frontier element, with duplicates. The settle phase
/// (including stamps) completed first, so the reads behind `targets`
/// are stable and the gathered multiset is deterministic.
fn gather(frontier: &[u32], targets: impl Fn(u32, &mut Vec<u32>) + Sync) -> Vec<u32> {
    let parts: Vec<Vec<u32>> = frontier
        .par_iter()
        .map(|&e| {
            let mut out = Vec::new();
            targets(e, &mut out);
            out
        })
        .collect();
    parts.concat()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::bz::bz_coreness;
    use crate::config::Techniques;
    use crate::{Config, Decomposition};
    use kcore_graph::{gen, CsrGraph};

    fn offline_config() -> Config {
        Config::with_techniques(Techniques::offline())
    }

    #[test]
    fn every_histogram_kind_matches_the_oracle() {
        let g = gen::rmat(9, 8, 0.57, 0.19, 0.19, 5);
        let want = bz_coreness(&g);
        let got = Decomposition::kcore(&g).config(offline_config()).run();
        assert_eq!(got.coreness(), want.as_slice());
    }

    #[test]
    fn offline_is_deterministic() {
        let g = gen::barabasi_albert(500, 3, 9);
        let a = Decomposition::kcore(&g).config(offline_config()).run();
        let b = Decomposition::kcore(&g).config(offline_config()).run();
        assert_eq!(a.coreness(), b.coreness());
        assert_eq!(a.stats().subrounds, b.stats().subrounds);
    }

    #[test]
    fn membership_of_trivial_cores() {
        let g = gen::path(10);
        let members = range_membership(&g, &g.degrees(), 0);
        assert!(members.iter().all(|&m| m), "the 0-core is everything");
        let members = range_membership(&g, &g.degrees(), 2);
        assert!(members.iter().all(|&m| !m), "a path has no 2-core");
    }

    #[test]
    fn membership_cascade_crosses_the_whole_graph() {
        // A path with a triangle at the end: the 2-core is exactly the
        // triangle, and finding it requires the removal cascade to run
        // down the entire path.
        let mut edges: Vec<(u32, u32)> = (0..20u32).map(|i| (i, i + 1)).collect();
        edges.push((20, 21));
        edges.push((21, 22));
        edges.push((22, 20));
        let g = kcore_graph::GraphBuilder::new(23).edges(edges).build();
        let members = range_membership(&g, &g.degrees(), 2);
        for (v, &member) in members.iter().enumerate() {
            assert_eq!(member, v >= 20, "vertex {v}: only the triangle is in the 2-core");
        }
    }

    #[test]
    fn empty_graph_membership() {
        let g = CsrGraph::empty();
        assert!(range_membership(&g, &g.degrees(), 3).is_empty());
    }
}
