//! The one place the library reads the process environment.
//!
//! Three variables force behaviour for the whole process, so CI can run
//! the entire test suite through paths the defaults leave off:
//!
//! * `KCORE_TECHNIQUES` — a comma-separated subset of `sampling`,
//!   `vgc`, `offline`, or `all` (= `sampling,vgc`): the Sec. 4
//!   techniques to enable with default parameters ([`Forced::apply`]).
//! * `KCORE_BACKEND` — `plain` or `compressed`: the latter re-encodes
//!   every plain-CSR input as a [`kcore_graph::CompressedCsr`] first.
//! * `KCORE_TRI_KERNEL` — `auto`, `merge`, `gallop` or `bitset`: the
//!   intersection-kernel policy of the triangle setups the facade builds.
//!
//! They are read once per process ([`overrides`]), and only by the
//! facade entry points: [`crate::Decomposition`]'s `run` and `members`,
//! and [`crate::DynamicGraph::new`]. Everything below them takes its
//! configuration as arguments, so library behaviour never changes under
//! a caller's feet. One token rule covers all three: surrounding
//! whitespace is trimmed, an empty value means unset, and an unknown
//! token panics naming the variable and the valid set — a misspelled CI
//! override must fail loudly, not silently test the default.
//!
//! `KCORE_TRACE` is not read here: it changes no result, and
//! `kcore-obs` gates its recorder on it for every crate, including the
//! ones that never go through this facade.

use crate::config::{Config, PeelMode, Sampling, Vgc};
use kcore_parallel::intersect::TriKernel;
use std::sync::OnceLock;

const TECHNIQUES: &str = "KCORE_TECHNIQUES";
const BACKEND: &str = "KCORE_BACKEND";
const TRI_KERNEL: &str = "KCORE_TRI_KERNEL";

/// The parsed environment overrides.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) struct Overrides {
    /// `KCORE_TECHNIQUES`: techniques forced on.
    pub(crate) techniques: Forced,
    /// `KCORE_BACKEND=compressed`: re-encode plain-CSR inputs.
    pub(crate) compressed: bool,
    /// `KCORE_TRI_KERNEL`: kernel policy of facade-built triangle setups.
    pub(crate) kernel: TriKernel,
}

/// The techniques `KCORE_TECHNIQUES` forces on.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub(crate) struct Forced {
    pub(crate) sampling: bool,
    pub(crate) vgc: bool,
    pub(crate) offline: bool,
}

impl Forced {
    /// Enables the forced techniques in `config` with default
    /// parameters. Overrides only ever enable: a technique `config`
    /// already enables keeps its parameters. Sampling and the offline
    /// driver are dropped unless `accepts_sampling_and_offline` (the
    /// problem's axes, see
    /// [`crate::peel::engine::accepts_sampling_and_offline`]): a forced
    /// leg is a blanket request over the whole suite, not a per-problem
    /// one, so it must not trip the engine's combination guard.
    pub(crate) fn apply(self, mut config: Config, accepts_sampling_and_offline: bool) -> Config {
        let t = &mut config.techniques;
        if self.vgc {
            t.vgc.get_or_insert_with(Vgc::default);
        }
        if accepts_sampling_and_offline {
            if self.sampling {
                t.sampling.get_or_insert_with(Sampling::default);
            }
            if self.offline {
                t.mode = PeelMode::Offline;
            }
        }
        config
    }
}

/// The overrides of this process, read from the environment on first
/// use.
pub(crate) fn overrides() -> Overrides {
    static PARSED: OnceLock<Overrides> = OnceLock::new();
    *PARSED.get_or_init(|| parse(|var| std::env::var(var).ok()))
}

/// Parses the overrides from `lookup`, which returns a variable's value
/// (`None` when unset) — the environment-free core of [`overrides`].
///
/// # Panics
///
/// Panics on an unknown token, naming the variable and the valid set.
pub(crate) fn parse(lookup: impl Fn(&str) -> Option<String>) -> Overrides {
    let value = |var| lookup(var).unwrap_or_default();
    let mut techniques = Forced::default();
    for raw in value(TECHNIQUES).split(',') {
        match token(TECHNIQUES, raw, &["sampling", "vgc", "offline", "all"]) {
            Some("sampling") => techniques.sampling = true,
            Some("vgc") => techniques.vgc = true,
            Some("offline") => techniques.offline = true,
            Some("all") => (techniques.sampling, techniques.vgc) = (true, true),
            _ => {}
        }
    }
    let compressed =
        token(BACKEND, &value(BACKEND), &["plain", "compressed"]) == Some("compressed");
    let kernel = token(TRI_KERNEL, &value(TRI_KERNEL), &TriKernel::TOKENS)
        .map_or(TriKernel::Auto, TriKernel::parse);
    Overrides { techniques, compressed, kernel }
}

/// The token rule: `raw` trimmed, `None` when empty, else the entry of
/// `valid` it names.
///
/// # Panics
///
/// Panics when `raw` names no entry of `valid`.
fn token(var: &str, raw: &str, valid: &[&'static str]) -> Option<&'static str> {
    let raw = raw.trim();
    if raw.is_empty() {
        return None;
    }
    match valid.iter().find(|&&t| t == raw) {
        Some(&t) => Some(t),
        None => panic!("{var}: unknown token {raw:?} (valid: {})", valid.join(", ")),
    }
}

/// [`parse`] with only `var` set, to `value`.
#[cfg(test)]
pub(crate) fn parse_one(var: &str, value: &str) -> Overrides {
    parse(|v| (v == var).then(|| value.to_owned()))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn unset_and_empty_variables_override_nothing() {
        let none =
            Overrides { techniques: Forced::default(), compressed: false, kernel: TriKernel::Auto };
        assert_eq!(parse(|_| None), none);
        assert_eq!(parse(|_| Some(" ".to_owned())), none);
    }

    #[test]
    fn techniques_tokens_round_trip() {
        let on = |sampling, vgc, offline| Forced { sampling, vgc, offline };
        for (spec, want) in [
            ("sampling", on(true, false, false)),
            ("vgc", on(false, true, false)),
            ("offline", on(false, false, true)),
            ("all", on(true, true, false)),
            (" all , offline ", on(true, true, true)),
            (" , ", on(false, false, false)),
        ] {
            assert_eq!(parse_one(TECHNIQUES, spec).techniques, want, "{spec:?}");
        }
    }

    #[test]
    #[should_panic(expected = "KCORE_TECHNIQUES: unknown token \"samplign\" \
                               (valid: sampling, vgc, offline, all)")]
    fn unknown_techniques_token_panics_naming_the_valid_set() {
        parse_one(TECHNIQUES, "vgc,samplign");
    }

    #[test]
    fn backend_tokens_round_trip() {
        assert!(!parse_one(BACKEND, "plain").compressed);
        assert!(parse_one(BACKEND, " compressed ").compressed);
    }

    #[test]
    #[should_panic(expected = "KCORE_BACKEND: unknown token \"zstd\" (valid: plain, compressed)")]
    fn unknown_backend_token_panics_naming_the_valid_set() {
        parse_one(BACKEND, "zstd");
    }

    #[test]
    fn kernel_tokens_round_trip() {
        for name in TriKernel::TOKENS {
            assert_eq!(parse_one(TRI_KERNEL, name).kernel.as_str(), name);
        }
        assert_eq!(parse_one(TRI_KERNEL, " merge ").kernel, TriKernel::Merge);
    }

    #[test]
    #[should_panic(expected = "KCORE_TRI_KERNEL: unknown token \"quadratic\" \
                               (valid: auto, merge, gallop, bitset)")]
    fn unknown_kernel_token_panics_naming_the_valid_set() {
        parse_one(TRI_KERNEL, "quadratic");
    }
}
