//! k-core decomposition as a [`PeelProblem`] — the engine's first and
//! reference client.
//!
//! Elements are vertices, the initial priority is the degree, and the
//! incidence relation is the graph's adjacency under unit decrements
//! ([`Incidence::Unit`]): every settled neighbor costs one degree unit,
//! which is precisely the paper's Alg. 1. The settle round of a vertex
//! *is* its coreness, so `assemble` is the identity wrap into
//! [`CorenessResult`]. Every Sec. 4 technique applies: sampling (vertex
//! degrees over edges), VGC chains, and the offline histogram driver.

use crate::peel::engine::{Incidence, PeelProblem};
use crate::peel::offline;
use crate::CorenessResult;
use kcore_graph::{CsrGraph, GraphBackend};
use kcore_parallel::RunStats;

/// The k-core decomposition problem over one graph, generic over the
/// adjacency backend (plain/mmapped CSR, overlay, compressed).
pub(crate) struct KCoreProblem<'g, G = CsrGraph> {
    pub(crate) g: &'g G,
}

impl<G: GraphBackend> PeelProblem for KCoreProblem<'_, G> {
    type Output = CorenessResult;

    fn name(&self) -> &'static str {
        "k-core"
    }

    fn num_elements(&self) -> usize {
        self.g.num_vertices()
    }

    fn init_priorities(&self) -> Vec<u32> {
        self.g.degrees()
    }

    fn incidence(&self) -> Incidence<'_> {
        Incidence::Unit(self.g)
    }

    fn assemble(&self, rounds: Vec<u32>, stats: RunStats) -> CorenessResult {
        CorenessResult::new(rounds, stats)
    }
}

/// Membership of the `k`-core (`true` = vertex has coreness `>= k`),
/// computed directly by offline range peeling: every vertex of degree
/// below `k` is extracted in one bulk range step and the cascade is
/// driven by histogram decrements. Much cheaper than a full
/// decomposition when only one core is needed (the serving path for
/// "give me the k-core" queries, [`crate::Decomposition::members`]).
pub(crate) fn members<G: GraphBackend>(g: &G, k: u32) -> Vec<bool> {
    offline::range_membership(g, &g.degrees(), k)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::bz::bz_coreness;
    use crate::config::{PeelMode, Sampling, Techniques, Vgc};
    use crate::peel::engine::PeelEngine;
    use crate::{Config, Decomposition};
    use kcore_buckets::BucketStrategy;
    use kcore_graph::{gen, GraphBuilder};
    use kcore_parallel::pool::with_threads;

    /// Every bucketing strategy the framework supports.
    fn strategies() -> Vec<BucketStrategy> {
        vec![
            BucketStrategy::Single,
            BucketStrategy::Fixed(16),
            BucketStrategy::Hierarchical,
            BucketStrategy::Adaptive,
        ]
    }

    /// Technique variants the oracle tests sweep. Sampling uses a low
    /// threshold so sample mode actually engages on test-sized graphs.
    fn technique_variants() -> Vec<(Techniques, &'static str)> {
        let sampling = Some(Sampling::with_threshold(4));
        vec![
            (Techniques::default(), "baseline"),
            (Techniques { sampling, ..Techniques::default() }, "sampling"),
            (Techniques { vgc: Some(Vgc::default()), ..Techniques::default() }, "vgc"),
            (
                Techniques { sampling, vgc: Some(Vgc { chain_limit: 8 }), ..Techniques::default() },
                "sampling+vgc",
            ),
            (Techniques::offline(), "offline"),
        ]
    }

    /// Asserts that every strategy × technique combination agrees with
    /// the BZ oracle on `g`.
    fn assert_matches_oracle(g: &CsrGraph, label: &str) {
        let want = bz_coreness(g);
        for strategy in strategies() {
            for (techniques, tname) in technique_variants() {
                let config = Config { bucket_strategy: strategy, techniques };
                let got = Decomposition::kcore(g).config(config).run();
                assert_eq!(
                    got.coreness(),
                    want.as_slice(),
                    "{label}: strategy {strategy} + {tname} disagrees with BZ"
                );
            }
        }
    }

    #[test]
    fn empty_graph() {
        let r = Decomposition::kcore(&CsrGraph::empty()).config(Config::default()).run();
        assert_eq!(r.num_vertices(), 0);
        assert_eq!(r.kmax(), 0);
    }

    #[test]
    fn isolated_vertices_have_coreness_zero() {
        let g = GraphBuilder::new(5).build();
        let r = Decomposition::kcore(&g).config(Config::default()).run();
        assert_eq!(r.coreness(), &[0; 5]);
        assert_eq!(r.kmax(), 0);
    }

    #[test]
    fn structural_graphs_match_oracle() {
        assert_matches_oracle(&gen::path(40), "path");
        assert_matches_oracle(&gen::cycle(33), "cycle");
        assert_matches_oracle(&gen::star(65), "star");
        assert_matches_oracle(&gen::complete(20), "complete");
        assert_matches_oracle(&gen::complete_bipartite(4, 9), "bipartite");
    }

    #[test]
    fn grid_families_match_oracle() {
        assert_matches_oracle(&gen::grid2d(24, 17), "grid2d");
        assert_matches_oracle(&gen::grid3d(6, 7, 8), "grid3d");
        assert_matches_oracle(&gen::mesh(15, 15), "mesh");
        assert_matches_oracle(&gen::road(20, 20, 0.15, 0.1, 7), "road");
    }

    #[test]
    fn random_families_match_oracle() {
        assert_matches_oracle(&gen::erdos_renyi(300, 900, 3), "erdos_renyi");
        assert_matches_oracle(&gen::barabasi_albert(400, 3, 11), "barabasi_albert");
        assert_matches_oracle(&gen::rmat(9, 8, 0.57, 0.19, 0.19, 5), "rmat");
        assert_matches_oracle(&gen::knn(250, 4, 13), "knn");
        assert_matches_oracle(&gen::planted_core(200, 2, 40, 9), "planted_core");
    }

    #[test]
    fn hcns_exercises_deep_bucket_hierarchies() {
        assert_matches_oracle(&gen::hcns(40), "hcns");
    }

    #[test]
    fn grid_kmax_is_2() {
        let g = gen::grid2d(100, 100);
        let r = Decomposition::kcore(&g).config(Config::default()).run();
        assert_eq!(r.kmax(), 2);
    }

    #[test]
    fn stats_are_collected_by_default() {
        let g = gen::grid2d(30, 30);
        let r = Decomposition::kcore(&g).config(Config::default()).run();
        let s = r.stats();
        assert!(s.rounds >= 3, "grid peels over rounds 0..=2, got {}", s.rounds);
        assert!(s.subrounds >= s.rounds);
        assert!(s.work as usize >= g.num_vertices() + g.num_arcs());
        assert!(s.max_frontier > 0);
        assert_eq!(s.subrounds_per_round.len(), s.rounds as usize);
    }

    #[test]
    fn adaptive_switchover_crosses_theta() {
        // planted_core has kmax >= 39 > θ = 16, so Adaptive upgrades to
        // HBS mid-run; the result must be unaffected.
        let g = gen::planted_core(300, 2, 60, 21);
        let adaptive = Decomposition::kcore(&g).config(Config::default()).run();
        assert_eq!(adaptive.coreness(), bz_coreness(&g).as_slice());
        assert!(adaptive.kmax() >= 16);
    }

    #[test]
    fn empty_levels_still_count_as_rounds() {
        // A 150-clique planted in a sparse periphery: the clique's
        // coreness sits more than 100 levels above everything else.
        let g = gen::planted_core(2000, 3, 150, 5);
        let want = bz_coreness(&g);
        for strategy in strategies() {
            let r = Decomposition::kcore(&g).exact_config(Config::with_strategy(strategy)).run();
            assert_eq!(r.coreness(), want.as_slice(), "{strategy} disagrees with BZ");
            let stats = r.stats();
            let kmax = u64::from(r.kmax());
            let periphery = want.iter().copied().filter(|&c| u64::from(c) < kmax).max().unwrap();
            assert!(kmax - u64::from(periphery) > 100, "gap of {kmax} over {periphery}");
            assert_eq!(stats.rounds, kmax + 1, "{strategy}: every level counts as a round");
            assert_eq!(stats.subrounds_per_round.len() as u64, stats.rounds, "{strategy}");
            let empty = stats.subrounds_per_round.iter().filter(|&&s| s == 0).count();
            assert!(empty > 100, "{strategy}: the gap's levels peel no subround");
        }
    }

    #[test]
    fn peeling_is_deterministic_for_fixed_input() {
        let g = gen::rmat(8, 6, 0.57, 0.19, 0.19, 2);
        let a = Decomposition::kcore(&g).config(Config::default()).run();
        let b = Decomposition::kcore(&g).config(Config::default()).run();
        assert_eq!(a.coreness(), b.coreness());
    }

    #[test]
    fn sampling_counters_populate_on_power_law() {
        let g = gen::barabasi_albert(3000, 4, 11);
        let techniques = Techniques {
            sampling: Some(Sampling::with_threshold(16)),
            vgc: Some(Vgc::default()),
            mode: PeelMode::Online,
        };
        let r = Decomposition::kcore(&g).exact_config(Config::with_techniques(techniques)).run();
        assert_eq!(r.coreness(), bz_coreness(&g).as_slice());
        let s = r.stats();
        assert!(s.sampled_vertices > 0, "hubs above the threshold must enter sample mode");
        assert!(s.resamples > 0, "sample-mode vertices are only peeled after exact recounts");
        assert!(s.validate_calls > 0, "end-of-round validation must have run");
        assert!(s.peak_chain >= 1, "subround chains feed peak_chain");
        assert_eq!(s.restarts, 0, "sampling never restarts");
    }

    #[test]
    fn sampling_full_validation_is_exact_under_concurrency() {
        // Hammer the concurrent recount paths: low threshold samples
        // most of a dense power-law graph.
        for seed in 0..5 {
            let g = gen::barabasi_albert(1200, 6, seed);
            let techniques =
                Techniques { sampling: Some(Sampling::with_threshold(8)), ..Techniques::default() };
            let r =
                Decomposition::kcore(&g).exact_config(Config::with_techniques(techniques)).run();
            assert_eq!(r.coreness(), bz_coreness(&g).as_slice(), "seed {seed}");
        }
    }

    #[test]
    fn full_validation_recounts_only_what_may_reach_the_next_round() {
        let techniques =
            Techniques { sampling: Some(Sampling::with_threshold(8)), ..Techniques::default() };
        let config = Config::with_techniques(techniques);
        // K40: rounds 0..39 are empty and every vertex is sampled. No
        // vertex loses a neighbor before round 39, so no round end
        // recounts anything (the old full sweep made 1560 recounts),
        // and round 39 claims its 40-vertex frontier without a recount.
        let clique =
            with_threads(1, || Decomposition::kcore(&gen::complete(40)).exact_config(config).run());
        assert_eq!(clique.coreness(), &[39; 40]);
        assert_eq!(clique.stats().validate_calls, 0, "empty rounds must cost no recounts");
        assert_eq!(clique.stats().resamples, 0, "frontier claims must cost no recounts");
        // A planted core over a power-law fringe: exact, with far fewer
        // recounts than the 16,098 of a full sweep at every round end.
        let g = gen::planted_core(3000, 4, 80, 1);
        let r = Decomposition::kcore(&g).exact_config(config).run();
        assert_eq!(r.coreness(), bz_coreness(&g).as_slice());
        let calls = r.stats().validate_calls;
        assert!(calls > 0 && calls < 16_098, "{calls} validation recounts");
        assert_eq!(r.stats().restarts, 0);
    }

    #[test]
    fn vgc_collapses_subrounds_on_a_path() {
        // A path peels inward from both ends: without VGC that is ~n/2
        // subrounds of 2 vertices; with VGC one worker chases the whole
        // chain. Run single-threaded for a deterministic chain shape.
        let g = gen::path(400);
        let (plain, chased) = with_threads(1, || {
            let plain = Decomposition::kcore(&g).exact_config(Config::default()).run();
            let vgc = Techniques { vgc: Some(Vgc { chain_limit: 1000 }), ..Techniques::default() };
            let chased = Decomposition::kcore(&g).exact_config(Config::with_techniques(vgc)).run();
            (plain, chased)
        });
        assert_eq!(plain.coreness(), chased.coreness());
        let (ps, cs) = (plain.stats(), chased.stats());
        assert!(
            cs.subrounds < ps.subrounds / 4,
            "VGC must collapse subrounds: {} vs {}",
            cs.subrounds,
            ps.subrounds
        );
        assert!(cs.peak_chain > 8, "long chains must be recorded, got {}", cs.peak_chain);
        assert!(cs.burdened_span < ps.burdened_span, "fewer syncs must shrink the burdened span");
    }

    #[test]
    fn vgc_chain_limit_bounds_the_chain() {
        let g = gen::path(400);
        let vgc = Techniques { vgc: Some(Vgc { chain_limit: 10 }), ..Techniques::default() };
        let r = with_threads(1, || {
            Decomposition::kcore(&g).exact_config(Config::with_techniques(vgc)).run()
        });
        assert_eq!(r.coreness(), bz_coreness(&g).as_slice());
        assert!(r.stats().peak_chain <= 10, "chain {} exceeds limit", r.stats().peak_chain);
    }

    #[test]
    fn offline_charges_more_syncs_per_subround() {
        let g = gen::mesh(20, 20);
        let online = Decomposition::kcore(&g).exact_config(Config::default()).run();
        let offline = Decomposition::kcore(&g)
            .exact_config(Config::with_techniques(Techniques::offline()))
            .run();
        assert_eq!(online.coreness(), offline.coreness());
        let (on, off) = (online.stats(), offline.stats());
        assert_eq!(on.global_syncs, on.subrounds);
        assert_eq!(off.global_syncs, 3 * off.subrounds, "gather + histogram + apply");
        assert!(off.burdened_span > on.burdened_span);
    }

    #[test]
    fn kcore_members_agree_with_coreness() {
        for (label, g) in [
            ("ba", gen::barabasi_albert(500, 3, 7)),
            ("mesh", gen::mesh(20, 20)),
            ("hcns", gen::hcns(30)),
        ] {
            let coreness = Decomposition::kcore(&g).run();
            for k in [0, 1, 2, 3, 5, coreness.kmax(), coreness.kmax() + 1] {
                let members = Decomposition::kcore(&g).members(k);
                let want: Vec<bool> = coreness.coreness().iter().map(|&c| c >= k).collect();
                assert_eq!(members, want, "{label}: {k}-core membership");
            }
        }
    }

    #[test]
    fn engine_is_reusable_through_the_generic_entry_point() {
        // Drive the engine directly (as a new problem's author would)
        // and check it matches the builder.
        let g = gen::barabasi_albert(400, 3, 5);
        let via_builder = Decomposition::kcore(&g).exact_config(Config::default()).run();
        let problem = KCoreProblem { g: &g };
        let via_engine = PeelEngine::new(&problem, Config::default()).run();
        assert_eq!(via_builder.coreness(), via_engine.coreness());
    }
}
