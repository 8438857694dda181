//! The work-efficient parallel peeling layer: the problem-agnostic
//! [`engine`] plus the paper's Sec. 4 techniques.
//!
//! Every run is one round loop. Round `k` takes its initial frontier
//! from a pluggable [`kcore_buckets::BucketStructure`] and peels it in
//! *subrounds* until no element of priority `k` remains, then advances
//! to `k + 1` (threshold rounds batch a whole priority range instead).
//! Within a subround:
//!
//! 1. every frontier element settles (its settle round is `k`),
//! 2. the problem's rule lowers incident elements' priorities through
//!    atomic **clamped** updates — a priority decreases only while it
//!    exceeds `k`, so it never drops below the current round and every
//!    intermediate value is observed by exactly one updating thread,
//! 3. the unique thread that moves an element *to* `k` files it into the
//!    next subround's frontier; decrements that stay above `k` are
//!    reported to the bucket structure instead.
//!
//! Total work is `O(n + m)` plus the structure's maintenance cost
//! (Thm. 3.1). How step 2 runs — fused with the settle, after a settle
//! barrier, or as a bulk histogram — is the loop's *subround step*.
//!
//! The modules:
//!
//! * [`engine`] — [`engine::PeelProblem`], [`engine::PeelEngine`], and
//!   the round loop with its fused and two-phase steps. The concrete
//!   problems live in [`crate::problems`].
//! * [`sampling`] — Sec. 4.1's sampling scheme: high-priority elements
//!   track an approximate priority over a hashed incidence sample, and
//!   are only peeled at an exactly known count.
//! * [`vgc`] — Sec. 4.2's vertical granularity control: a worker chases
//!   the local peel chain sequentially instead of bouncing every
//!   frontier hit through the hash bag.
//! * [`offline`] — the Julienne-style offline step: per subround,
//!   gather the frontier's decrements, histogram them, and apply bulk
//!   updates without per-target atomics.

pub mod engine;
pub mod offline;
pub mod sampling;
pub mod vgc;

pub use engine::{
    ElementState, Incidence, PeelEngine, PeelProblem, RecomputeRule, RoundAggregates, RoundPolicy,
    SettleView, SnapshotRule, ThresholdPolicy, UnitIncidence,
};
