//! Hybrid sorted-set intersection kernels for triangle enumeration.
//!
//! Every triangle computation in this workspace reduces to intersecting
//! two sorted adjacency lists. One kernel does not fit all pairs:
//!
//! * [`intersect_sorted_positions`](crate::primitives::intersect_sorted_positions)
//!   — the linear two-pointer **merge**, optimal when the lists have
//!   similar sizes (`O(|a| + |b|)`).
//! * [`intersect_gallop_positions`] — **galloping** (exponential search
//!   from a moving cursor): drives the smaller list and searches the
//!   larger one, `O(s · log(b / s))` for sizes `s ≤ b`. Wins when the
//!   pair is skewed, the common case for power-law graphs where one
//!   endpoint is a hub.
//! * [`intersect_bitset_positions`] — probes a pre-built packed-`u64`
//!   [`PackedBitset`] of the larger list, `O(s)` with one word load per
//!   probe. Wins when the larger side is a hub whose membership
//!   structure is reused across many intersections (the per-hub maps in
//!   `kcore_graph::dodg` are built lazily and amortized over the whole
//!   k-truss peel).
//!
//! [`choose`] picks per pair from the measured size ratio under
//! [`TriKernel::Auto`]; the other policies force one kernel, so each is
//! independently testable and benchable (`kcore` lets the
//! `KCORE_TRI_KERNEL` environment variable force one for its k-truss
//! facade). Kernel-choice tallies are published as
//! `tri.kernel.{merge,gallop,bitset}` counters through `kcore-obs`.
//!
//! All kernels enumerate the same set of matches — only the order of
//! work differs — so every consumer is bit-identical across kernels;
//! `kcore`'s `tri_kernels` test matrix pins that equivalence.

use kcore_obs::counter;

/// Intersection-kernel selection policy.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum TriKernel {
    /// Pick per pair from the size ratio (the default).
    Auto,
    /// Always the linear two-pointer merge.
    Merge,
    /// Always galloping search (smaller list drives).
    Gallop,
    /// Always the packed-bitset probe, building hub maps on demand for
    /// *every* larger side regardless of degree — the forced-threshold
    /// test leg that pushes each pair through the bitset path.
    Bitset,
}

/// Minimum larger-side length before `Auto` considers the bitset
/// kernel: below this a hub map costs more to build than it saves.
/// The maps are rank-prefix structures built in `O(n/64 + d)`, so the
/// break-even is low; measured on the power-law benches, 32 captures
/// the whole hub tail without flooding tiny vertices with maps.
pub const BITSET_MIN_LEN: usize = 32;

/// Minimum size ratio (`larger / smaller`) before `Auto` prefers the
/// bitset probe over merging: a probe costs ~3 ops (word load,
/// popcount, payload index) against the merge's ~1 op per element, so
/// the probe wins once the larger side is at least twice the smaller.
pub const BITSET_SKEW: usize = 2;

/// Minimum size ratio before `Auto` prefers galloping over merging
/// when no hub map is warranted (larger side under
/// [`BITSET_MIN_LEN`]).
pub const GALLOP_SKEW: usize = 4;

impl TriKernel {
    /// Every policy name, in panic-message order.
    pub const TOKENS: [&'static str; 4] = ["auto", "merge", "gallop", "bitset"];

    /// Parses a policy name (surrounding whitespace ignored; empty
    /// means `Auto`).
    ///
    /// # Panics
    ///
    /// Panics on unknown names, listing the valid ones.
    pub fn parse(spec: &str) -> Self {
        match spec.trim() {
            "" | "auto" => TriKernel::Auto,
            "merge" => TriKernel::Merge,
            "gallop" => TriKernel::Gallop,
            "bitset" => TriKernel::Bitset,
            other => panic!("unknown kernel {other:?} (valid: auto, merge, gallop, bitset)"),
        }
    }

    /// Human name, as accepted by [`TriKernel::parse`].
    pub fn as_str(self) -> &'static str {
        match self {
            TriKernel::Auto => "auto",
            TriKernel::Merge => "merge",
            TriKernel::Gallop => "gallop",
            TriKernel::Bitset => "bitset",
        }
    }
}

/// The concrete kernel [`choose`] resolved for one pair.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ChosenKernel {
    /// Linear two-pointer merge.
    Merge,
    /// Galloping search, smaller list driving.
    Gallop,
    /// Packed-bitset probe of the larger side's hub map.
    Bitset,
}

/// Resolves the kernel for one pair of list lengths and tallies the
/// choice (`tri.kernel.*` counters).
///
/// Under [`TriKernel::Auto`] the decision is by size ratio: heavily
/// skewed pairs with a hub-sized larger side take the bitset probe,
/// moderately skewed pairs gallop, and similar-sized pairs merge.
/// Forced policies always return their kernel, so the caller must be
/// prepared to build a hub map for any vertex under `Bitset`.
#[inline]
pub fn choose(policy: TriKernel, len_a: usize, len_b: usize) -> ChosenKernel {
    let chosen = match policy {
        TriKernel::Merge => ChosenKernel::Merge,
        TriKernel::Gallop => ChosenKernel::Gallop,
        TriKernel::Bitset => ChosenKernel::Bitset,
        TriKernel::Auto => {
            let (small, big) = (len_a.min(len_b).max(1), len_a.max(len_b));
            if big >= BITSET_MIN_LEN && big >= BITSET_SKEW * small {
                ChosenKernel::Bitset
            } else if big >= GALLOP_SKEW * small {
                ChosenKernel::Gallop
            } else {
                ChosenKernel::Merge
            }
        }
    };
    match chosen {
        ChosenKernel::Merge => counter!("tri.kernel.merge", 1),
        ChosenKernel::Gallop => counter!("tri.kernel.gallop", 1),
        ChosenKernel::Bitset => counter!("tri.kernel.bitset", 1),
    }
    chosen
}

/// Calls `f(i, j)` for every value present in both strictly increasing
/// slices (`a[i] == b[j]`), by galloping: the smaller slice drives, and
/// each element is located in the larger one by exponential search from
/// a monotonically advancing cursor.
///
/// Matches are emitted in increasing value order, exactly like the
/// merge kernel; only the comparison count differs. `O(s · log(b / s))`
/// comparisons for sizes `s ≤ b` — strictly better than the merge's
/// `O(s + b)` once the pair is skewed.
#[inline]
pub fn intersect_gallop_positions<F>(a: &[u32], b: &[u32], mut f: F)
where
    F: FnMut(usize, usize),
{
    if a.len() <= b.len() {
        gallop_driver(a, b, f);
    } else {
        gallop_driver(b, a, |j, i| f(i, j));
    }
}

/// Galloping core: iterates `small`, searches `big`. Reports positions
/// as `(pos_in_small, pos_in_big)`.
fn gallop_driver<F>(small: &[u32], big: &[u32], mut f: F)
where
    F: FnMut(usize, usize),
{
    let mut base = 0usize;
    for (i, &x) in small.iter().enumerate() {
        let rest = &big[base..];
        if rest.is_empty() {
            break;
        }
        // Exponential probe: grow `hi` until big[base + hi] >= x (or
        // the slice ends). After the loop, everything below `hi / 2`
        // is known `< x`, so the binary search runs on [hi/2, hi].
        let mut hi = 1usize;
        while hi < rest.len() && rest[hi] < x {
            hi <<= 1;
        }
        let lo = hi >> 1;
        let hi = (hi + 1).min(rest.len());
        let pos = lo + rest[lo..hi].partition_point(|&y| y < x);
        if pos < rest.len() && rest[pos] == x {
            f(i, base + pos);
            base += pos + 1;
        } else {
            base += pos;
        }
    }
}

/// A packed-`u64` membership bitset over a dense `u32` universe.
///
/// The probe side of the bitset intersection kernel: one word load and
/// a shift per candidate. `kcore_graph::dodg` builds one per hub
/// vertex (lazily) and reuses it across every intersection that hub
/// participates in.
#[derive(Debug, Clone)]
pub struct PackedBitset {
    words: Box<[u64]>,
}

impl PackedBitset {
    /// An empty bitset over `0..universe`.
    pub fn new(universe: usize) -> Self {
        Self { words: vec![0u64; universe.div_ceil(64)].into_boxed_slice() }
    }

    /// Builds the bitset of a sorted (or unsorted — order is
    /// irrelevant) list of members drawn from `0..universe`.
    pub fn from_members(members: &[u32], universe: usize) -> Self {
        let mut bits = Self::new(universe);
        for &x in members {
            bits.set(x);
        }
        bits
    }

    /// Inserts `x`.
    #[inline]
    pub fn set(&mut self, x: u32) {
        self.words[(x >> 6) as usize] |= 1u64 << (x & 63);
    }

    /// Membership probe.
    #[inline]
    pub fn contains(&self, x: u32) -> bool {
        (self.words[(x >> 6) as usize] >> (x & 63)) & 1 != 0
    }

    /// The packed words, little-endian within each `u64` — for
    /// rank/popcount structures layered on top (the hub maps resolve a
    /// member's position in the sorted source list from a per-word
    /// popcount prefix over exactly these words).
    #[inline]
    pub fn words(&self) -> &[u64] {
        &self.words
    }
}

/// Calls `f(i)` for every `a[i]` contained in `bits`, in increasing
/// position order. The caller resolves the larger side's payload (edge
/// ids) through whatever map accompanies the bitset.
#[inline]
pub fn intersect_bitset_positions<F>(a: &[u32], bits: &PackedBitset, mut f: F)
where
    F: FnMut(usize),
{
    for (i, &x) in a.iter().enumerate() {
        if bits.contains(x) {
            f(i);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::primitives::intersect_sorted_positions;

    fn merge_pairs(a: &[u32], b: &[u32]) -> Vec<(usize, usize)> {
        let mut out = Vec::new();
        intersect_sorted_positions(a, b, |i, j| out.push((i, j)));
        out
    }

    fn gallop_pairs(a: &[u32], b: &[u32]) -> Vec<(usize, usize)> {
        let mut out = Vec::new();
        intersect_gallop_positions(a, b, |i, j| out.push((i, j)));
        out
    }

    #[test]
    fn gallop_matches_merge_both_orientations() {
        let a: Vec<u32> = (0..400).filter(|x| x % 3 == 0).collect();
        let b: Vec<u32> = (0..400).filter(|x| x % 7 == 0).collect();
        assert_eq!(gallop_pairs(&a, &b), merge_pairs(&a, &b));
        assert_eq!(gallop_pairs(&b, &a), merge_pairs(&b, &a));
        assert_eq!(gallop_pairs(&a, &[]), vec![]);
        assert_eq!(gallop_pairs(&[], &b), vec![]);
    }

    #[test]
    fn gallop_handles_extreme_skew() {
        // A tiny driver against a long run, hits at both ends.
        let small = [0u32, 999];
        let big: Vec<u32> = (0..1000).collect();
        assert_eq!(gallop_pairs(&small, &big), vec![(0, 0), (1, 999)]);
        // No hits at all.
        let odd: Vec<u32> = (0..1000).filter(|x| x % 2 == 1).collect();
        assert_eq!(gallop_pairs(&[0, 500, 998], &odd), vec![]);
    }

    #[test]
    fn gallop_matches_merge_on_adversarial_layouts() {
        // Clustered matches, then a gap, then matches again — exercises
        // cursor advancement past large skipped regions.
        let a: Vec<u32> = [0, 1, 2, 5000, 5001, 9999].to_vec();
        let b: Vec<u32> = (0..10_000).filter(|x| x % 2 == 0 || *x > 4990).collect();
        assert_eq!(gallop_pairs(&a, &b), merge_pairs(&a, &b));
    }

    #[test]
    fn bitset_probe_matches_merge() {
        let a: Vec<u32> = (0..500).filter(|x| x % 3 == 0).collect();
        let b: Vec<u32> = (0..500).filter(|x| x % 5 == 0).collect();
        let bits = PackedBitset::from_members(&b, 500);
        let mut hits = Vec::new();
        intersect_bitset_positions(&a, &bits, |i| hits.push(i));
        let want: Vec<usize> = merge_pairs(&a, &b).into_iter().map(|(i, _)| i).collect();
        assert_eq!(hits, want);
        assert!(bits.contains(495));
        assert!(!bits.contains(496));
    }

    #[test]
    fn bitset_word_boundaries() {
        let members = [0u32, 63, 64, 127, 128, 191];
        let bits = PackedBitset::from_members(&members, 192);
        for x in 0..192u32 {
            assert_eq!(bits.contains(x), members.contains(&x), "x = {x}");
        }
    }

    #[test]
    fn parse_accepts_all_tokens() {
        assert_eq!(TriKernel::parse("auto"), TriKernel::Auto);
        assert_eq!(TriKernel::parse(""), TriKernel::Auto);
        assert_eq!(TriKernel::parse(" merge "), TriKernel::Merge);
        assert_eq!(TriKernel::parse("gallop"), TriKernel::Gallop);
        assert_eq!(TriKernel::parse("bitset"), TriKernel::Bitset);
        for t in TriKernel::TOKENS {
            assert_eq!(TriKernel::parse(t).as_str(), t);
        }
    }

    #[test]
    #[should_panic(expected = "valid: auto, merge, gallop, bitset")]
    fn parse_rejects_unknown_tokens_listing_valid_ones() {
        let _ = TriKernel::parse("bitmap");
    }

    #[test]
    fn choose_respects_forced_policies() {
        for (policy, want) in [
            (TriKernel::Merge, ChosenKernel::Merge),
            (TriKernel::Gallop, ChosenKernel::Gallop),
            (TriKernel::Bitset, ChosenKernel::Bitset),
        ] {
            // Forced policies ignore the pair shape entirely.
            assert_eq!(choose(policy, 1, 1), want);
            assert_eq!(choose(policy, 10_000, 1), want);
        }
    }

    #[test]
    fn choose_auto_follows_the_size_ratio() {
        // Similar sizes: merge.
        assert_eq!(choose(TriKernel::Auto, 100, 150), ChosenKernel::Merge);
        // Skewed but the big side is below the hub floor: gallop.
        assert_eq!(choose(TriKernel::Auto, 4, BITSET_MIN_LEN - 1), ChosenKernel::Gallop);
        // Hub-sized big side with enough skew: bitset (symmetric in
        // argument order).
        assert_eq!(choose(TriKernel::Auto, 4, BITSET_MIN_LEN), ChosenKernel::Bitset);
        assert_eq!(choose(TriKernel::Auto, 1000, 4), ChosenKernel::Bitset);
        // Hub-sized but not skewed enough: merge.
        assert_eq!(choose(TriKernel::Auto, 200, 300), ChosenKernel::Merge);
        // Empty driver still resolves (small clamps to 1).
        assert_eq!(choose(TriKernel::Auto, 0, BITSET_MIN_LEN), ChosenKernel::Bitset);
    }
}
