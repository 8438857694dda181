//! Decomposition configuration.

use kcore_buckets::BucketStrategy;

/// Configuration for a [`crate::PeelEngine`] run — shared by every
/// problem behind the [`crate::Decomposition`] builder.
///
/// The defaults reproduce the paper's final design: the adaptive
/// bucketing strategy (plain scanning until the θ-core, HBS beyond it)
/// with statistics collection on and the Sec. 4 techniques off.
/// Techniques that do not apply to a problem are ignored (sampling and
/// VGC assume unit incidences and are skipped for k-truss). Enable
/// the techniques through [`Config::techniques`]:
///
/// ```
/// use kcore::{Config, Decomposition, Techniques};
/// use kcore_graph::gen;
///
/// let g = gen::barabasi_albert(2000, 4, 7);
/// let config = Config { techniques: Techniques::all_online(), ..Config::default() };
/// let result = Decomposition::kcore(&g).exact_config(config).run();
/// assert!(result.stats().sampled_vertices > 0);
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Config {
    /// How per-round initial frontiers are produced (the third axis of
    /// the paper's Tab. 3 ablation).
    pub bucket_strategy: BucketStrategy,
    /// Whether to fill [`kcore_parallel::RunStats`] (rounds, subrounds,
    /// work, burdened span). Cheap relative to the peeling itself, so
    /// on by default; benchmarks can turn it off.
    pub collect_stats: bool,
    /// The paper's Sec. 4 practical techniques (sampling, vertical
    /// granularity control) and the online/offline driver choice.
    pub techniques: Techniques,
}

/// Round at which [`BucketStrategy::Adaptive`] switches from the flat
/// active array to HBS: the paper's θ = 16 (Sec. 5.3).
pub(crate) const ADAPTIVE_THETA: u32 = 16;

impl Default for Config {
    fn default() -> Self {
        Self {
            bucket_strategy: BucketStrategy::Adaptive,
            collect_stats: true,
            techniques: Techniques::default(),
        }
    }
}

impl Config {
    /// Config using a specific bucketing strategy, other fields default.
    pub fn with_strategy(strategy: BucketStrategy) -> Self {
        Self { bucket_strategy: strategy, ..Self::default() }
    }

    /// Config using a specific techniques block, other fields default.
    pub fn with_techniques(techniques: Techniques) -> Self {
        Self { techniques, ..Self::default() }
    }
}

/// The Sec. 4 techniques block: which practical refinements the peeling
/// framework runs with. Everything defaults to *off*, which is the plain
/// framework of Alg. 1; [`Techniques::all_online`] is the paper's full
/// online design.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct Techniques {
    /// Sec. 4.1: approximate induced-degree tracking on high-degree
    /// vertices via edge sampling, with exact recounts at peel decisions.
    pub sampling: Option<Sampling>,
    /// Sec. 4.2: vertical granularity control — collapse hash-bag
    /// subrounds by chasing local peel chains sequentially.
    pub vgc: Option<Vgc>,
    /// Online (hash-bag subrounds) or offline (Julienne-style histogram)
    /// peeling driver.
    pub mode: PeelMode,
}

impl Techniques {
    /// Sampling + VGC with default parameters, online driver — the
    /// paper's full practical design.
    pub fn all_online() -> Self {
        Self {
            sampling: Some(Sampling::default()),
            vgc: Some(Vgc::default()),
            mode: PeelMode::Online,
        }
    }

    /// Offline histogram peeling with default parameters (sampling and
    /// VGC are online-only and stay off).
    pub fn offline() -> Self {
        Self { sampling: None, vgc: None, mode: PeelMode::Offline }
    }
}

/// Which peeling driver executes the rounds.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub enum PeelMode {
    /// Alg. 1: atomic clamped decrements + hash-bag subrounds.
    #[default]
    Online,
    /// Julienne-style offline peeling: per subround, gather the
    /// frontier's neighborhood, histogram it, and apply bulk decrements
    /// — no per-edge atomics, more global synchronizations. Each
    /// subround's histogram picks sort or atomic counting from the
    /// gathered list's density
    /// ([`kcore_parallel::histogram::histogram_auto`]).
    Offline,
}

/// Parameters of the sampling scheme (Sec. 4.1).
///
/// A vertex whose initial degree is at least [`Sampling::threshold`]
/// enters *sample mode*: instead of an exact induced degree maintained
/// by per-edge atomic decrements (the contention hotspot), it tracks the
/// count of *sampled* incident edges — each edge is in the sample with
/// probability `2^-rate_log2`, decided by a deterministic hash of the
/// endpoints and [`Sampling::seed`]. Removals of sampled edges decrement
/// the counter (clamped at zero); when the counter crosses a watermark
/// near the current round, the vertex is exactly re-counted
/// ([`kcore_parallel::RunStats::resamples`]). A vertex in sample mode is
/// only ever peeled after an exact recount confirms its induced degree,
/// and an undershoot discovered in a round's initial frontier (the
/// vertex should have been peeled earlier — the frontier is *polluted*)
/// triggers a Las-Vegas restart without sampling
/// ([`kcore_parallel::RunStats::restarts`], expected 0).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Sampling {
    /// Minimum initial degree for a vertex to enter sample mode.
    pub threshold: u32,
    /// Sampling rate exponent: each edge is sampled with probability
    /// `2^-rate_log2`. Any value is accepted; from 64 on no edge is
    /// sampled, and every recount then comes from validation.
    pub rate_log2: u32,
    /// Additive slack on the recount watermarks. Larger slack means
    /// earlier recounts (more exact work, smaller failure probability);
    /// the watermarks saturate at `u32::MAX`.
    pub slack: u32,
    /// End-of-round validation policy.
    pub validation: Validation,
    /// Seed of the deterministic edge-sampling hash.
    pub seed: u64,
}

impl Default for Sampling {
    fn default() -> Self {
        Self {
            threshold: 128,
            rate_log2: 2,
            slack: 32,
            validation: Validation::Full,
            seed: 0x9E37_79B9_7F4A_7C15,
        }
    }
}

impl Sampling {
    /// Sampling with a degree threshold of `threshold`, other parameters
    /// default. Tests use low thresholds to force sample mode on small
    /// graphs.
    pub fn with_threshold(threshold: u32) -> Self {
        Self { threshold, ..Self::default() }
    }
}

/// How sample-mode vertices are validated at the end of each round.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub enum Validation {
    /// When round `k`'s frontier drains, exactly re-count every live
    /// sample-mode vertex whose induced degree may have fallen to
    /// `k + 1` or below. Deterministically exact: the round-start
    /// invariant "every live vertex has induced degree > k" is verified
    /// outright. The work is output-sensitive: a vertex is skipped when
    /// no neighbor died since its last recount, or when its last count
    /// minus the vertices settled since then is still at least `k + 2`,
    /// so empty rounds cost no recounts. The default, and the mode the
    /// oracle test matrix runs.
    #[default]
    Full,
    /// Re-count only vertices whose sampled counter sits below the
    /// validation watermark — the paper's fast path. Correct with high
    /// probability; a miss that surfaces in a later round's frontier is
    /// caught by the frontier recount and repaired by a Las-Vegas
    /// restart with sampling disabled.
    Watermark,
}

/// Parameters of vertical granularity control (Sec. 4.2).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Vgc {
    /// Maximum number of vertices one worker chases sequentially within
    /// a subround before spilling back to the hash bag. Bounds the
    /// per-subround chain term of the burdened span
    /// (`Õ(ρ′(ω + L))`, Tab. 2).
    pub chain_limit: u32,
}

impl Default for Vgc {
    fn default() -> Self {
        Self { chain_limit: 128 }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::env::parse_one;

    /// `config` with the techniques of a `KCORE_TECHNIQUES` spec forced
    /// on, for a problem that accepts sampling and offline or not.
    fn forced(config: Config, spec: &str, accepts_sampling_and_offline: bool) -> Config {
        parse_one("KCORE_TECHNIQUES", spec).techniques.apply(config, accepts_sampling_and_offline)
    }

    #[test]
    fn defaults_match_the_papers_final_design() {
        let c = Config::default();
        assert_eq!(c.bucket_strategy, BucketStrategy::Adaptive);
        assert_eq!(ADAPTIVE_THETA, 16);
        assert!(c.collect_stats);
        // Techniques are opt-in: the default config is the plain
        // framework (the ablation baseline).
        assert_eq!(c.techniques, Techniques::default());
        assert!(c.techniques.sampling.is_none());
        assert!(c.techniques.vgc.is_none());
        assert_eq!(c.techniques.mode, PeelMode::Online);
    }

    #[test]
    fn with_strategy_overrides_only_the_strategy() {
        let c = Config::with_strategy(BucketStrategy::Fixed(16));
        assert_eq!(c.bucket_strategy, BucketStrategy::Fixed(16));
        assert_eq!(Config { bucket_strategy: BucketStrategy::Adaptive, ..c }, Config::default());
    }

    #[test]
    fn all_online_enables_sampling_and_vgc() {
        let t = Techniques::all_online();
        assert!(t.sampling.is_some());
        assert!(t.vgc.is_some());
        assert_eq!(t.mode, PeelMode::Online);
        assert_eq!(t.sampling.unwrap().validation, Validation::Full);
    }

    #[test]
    fn offline_preset_selects_the_offline_driver() {
        let t = Techniques::offline();
        assert_eq!(t.mode, PeelMode::Offline);
        assert!(t.sampling.is_none());
    }

    #[test]
    fn with_techniques_overrides_only_techniques() {
        let c = Config::with_techniques(Techniques::offline());
        assert_eq!(c.techniques.mode, PeelMode::Offline);
        assert_eq!(c.bucket_strategy, Config::default().bucket_strategy);
    }

    #[test]
    fn techniques_spec_enables_features() {
        let c = forced(Config::default(), "sampling,vgc", true);
        assert!(c.techniques.sampling.is_some());
        assert!(c.techniques.vgc.is_some());
        assert_eq!(c.techniques.mode, PeelMode::Online);

        let c = forced(Config::default(), "all,offline", true);
        assert!(c.techniques.sampling.is_some());
        assert!(c.techniques.vgc.is_some());
        assert_eq!(c.techniques.mode, PeelMode::Offline);

        // Empty spec and stray separators are no-ops.
        assert_eq!(forced(Config::default(), " , ", true), Config::default());
    }

    #[test]
    fn techniques_spec_does_not_downgrade_explicit_settings() {
        // A config that already enables sampling with custom parameters
        // keeps them; the spec only fills gaps.
        let custom = Sampling::with_threshold(7);
        let base =
            Config::with_techniques(Techniques { sampling: Some(custom), ..Techniques::default() });
        let c = forced(base, "sampling,vgc", true);
        assert_eq!(c.techniques.sampling, Some(custom));
        assert!(c.techniques.vgc.is_some());
    }

    #[test]
    #[should_panic(expected = "unknown token")]
    fn techniques_spec_rejects_typos() {
        let _ = forced(Config::default(), "samplign", true);
    }

    #[test]
    fn filtered_spec_drops_unsupported_tokens() {
        let c = forced(Config::default(), "sampling,vgc,offline", false);
        assert!(c.techniques.sampling.is_none(), "sampling filtered out");
        assert!(c.techniques.vgc.is_some(), "vgc passes the filter");
        assert_eq!(c.techniques.mode, PeelMode::Online, "offline filtered out");
        // The `all` shorthand filters per component.
        let c = forced(Config::default(), "all", false);
        assert!(c.techniques.sampling.is_none());
        assert!(c.techniques.vgc.is_some());
    }

    #[test]
    #[should_panic(expected = "unknown token")]
    fn filtered_spec_still_rejects_typos() {
        let _ = forced(Config::default(), "offlien", false);
    }
}
