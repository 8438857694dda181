//! The four workloads: which graph each one generates from the seed, and
//! which configuration it pins.

use kcore::{Config, Techniques};
use kcore_graph::{gen, CsrGraph};

/// The seed a run uses when `--seed` is not given. Claims should be
/// checked on another (held-out) seed as well.
pub const DEFAULT_SEED: u64 = 1;

#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Workload {
    /// Road-like grid: many shallow subrounds in very few rounds.
    RoadSparse,
    /// Power-law graph with a planted 1500-clique: ~1500 mostly empty
    /// rounds, the bucket-structure stress.
    PlantedHighcore,
    /// RMAT with sampling + VGC: the only workload using those layers.
    RmatOnline,
    /// The same RMAT graph under 16-edge delete/insert batches.
    RmatDynamic,
}

/// Input size: `Full` is what the benchmark measures; `Small` keeps the
/// same generators and configurations at a size unit tests can afford.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Scale {
    Full,
    Small,
}

impl Workload {
    pub const ALL: [Workload; 4] = [
        Workload::RoadSparse,
        Workload::PlantedHighcore,
        Workload::RmatOnline,
        Workload::RmatDynamic,
    ];

    pub fn name(self) -> &'static str {
        match self {
            Workload::RoadSparse => "road-sparse",
            Workload::PlantedHighcore => "planted-highcore",
            Workload::RmatOnline => "rmat-online",
            Workload::RmatDynamic => "rmat-dynamic",
        }
    }

    pub fn parse(name: &str) -> Option<Workload> {
        Workload::ALL.into_iter().find(|w| w.name() == name)
    }

    /// Whether the workload's operation is a `DynamicGraph` batch rather
    /// than a one-shot decomposition.
    pub fn is_dynamic(self) -> bool {
        self == Workload::RmatDynamic
    }

    /// The configuration every decomposition or re-peel runs with,
    /// passed through `exact_config` so no environment override applies.
    pub fn config(self) -> Config {
        match self {
            Workload::RmatOnline => Config::with_techniques(Techniques::all_online()),
            _ => Config::default(),
        }
    }

    /// The generator seed for run seed `seed`. The dynamic workload keeps
    /// one graph and takes its batches from the run seed: how often an
    /// insert batch takes the slow path depends on the graph's hub
    /// structure (11–35% of batches across generator seeds), which would
    /// swamp every other source of variation.
    pub fn graph_seed(self, seed: u64) -> u64 {
        if self.is_dynamic() {
            DEFAULT_SEED
        } else {
            seed
        }
    }

    /// Generates the workload's graph from generator seed `seed`.
    pub fn generate(self, scale: Scale, seed: u64) -> CsrGraph {
        let small = scale == Scale::Small;
        match self {
            Workload::RoadSparse => {
                let side = if small { 60 } else { 700 };
                gen::road(side, side, 0.15, 0.05, seed)
            }
            Workload::PlantedHighcore => {
                let (n, core) = if small { (4_000, 60) } else { (200_000, 1500) };
                gen::planted_core(n, 4, core, seed)
            }
            Workload::RmatOnline | Workload::RmatDynamic => {
                gen::rmat(if small { 10 } else { 14 }, 16, 0.57, 0.19, 0.19, seed)
            }
        }
    }
}
