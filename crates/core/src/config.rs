//! Decomposition configuration.

use kcore_buckets::BucketStrategy;

/// Configuration for a [`crate::PeelEngine`] run — shared by every
/// problem behind the [`crate::Decomposition`] builder.
///
/// The defaults reproduce the paper's final design: the adaptive
/// bucketing strategy (plain scanning until the θ-core, HBS beyond it)
/// with the Sec. 4 techniques off. Every run fills
/// [`kcore_parallel::RunStats`] (rounds, subrounds, work, burdened
/// span).
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
    /// The paper's Sec. 4 practical techniques (sampling, vertical
    /// granularity control) and the online/offline driver choice.
    pub techniques: Techniques,
}

/// Round at which [`BucketStrategy::Adaptive`] switches from the flat
/// active array to HBS: the paper's θ = 16 (Sec. 5.3).
pub(crate) const ADAPTIVE_THETA: u32 = 16;

impl Default for Config {
    fn default() -> Self {
        Self { bucket_strategy: BucketStrategy::Adaptive, techniques: Techniques::default() }
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
/// probability 1/4, decided by a deterministic hash of the endpoints.
/// Removals of sampled edges decrement the counter (clamped at zero);
/// when the counter crosses a watermark near the current round, the
/// vertex is exactly re-counted
/// ([`kcore_parallel::RunStats::resamples`]). At every round end the
/// sample-mode vertices that may have dropped to the next round are
/// re-counted too, so a vertex in sample mode is only ever peeled at an
/// exactly known induced degree: the result is exact by construction,
/// never merely with high probability.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Sampling {
    /// Minimum initial degree for a vertex to enter sample mode.
    pub threshold: u32,
}

impl Default for Sampling {
    fn default() -> Self {
        Self { threshold: 128 }
    }
}

impl Sampling {
    /// Sampling with a degree threshold of `threshold`. Tests use low
    /// thresholds to force sample mode on small graphs.
    pub fn with_threshold(threshold: u32) -> Self {
        Self { threshold }
    }
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
