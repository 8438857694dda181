//! The benchmark's own reference program: sequential Batagelj–Zaveršnik
//! over a private copy of the graph.
//!
//! On a shared machine a core's speed swings with its neighbours' load:
//! on a 2-vCPU KVM guest, one-thread decompositions ran 10–40% slower
//! for seconds to minutes at a time while hypervisor steal stayed near
//! zero, so the cores simply ran slower. A reference run
//! next to every operation measures that speed: an operation's time over
//! the reference's time stays put while both slow down together. The
//! reference shares no code with the library under test — its own graph
//! arrays, its own peel — so a change to the library never moves it.

use kcore_graph::{CsrGraph, VertexId};
use std::time::Instant;

/// Reference time after an operation, as a share of the operation's
/// time.
const REF_SHARE: f64 = 0.5;
/// The reference's nominal cost per vertex and per arc, fitted to its
/// run times on a 2-vCPU KVM guest (Xeon, AVX-512) in a quiet stretch.
/// They turn a time measured in reference runs back into seconds of that
/// host at a steady speed.
const NOMINAL_NS_PER_VERTEX: f64 = 60.0;
const NOMINAL_NS_PER_ARC: f64 = 4.0;

/// The reference's private adjacency arrays.
pub struct RefGraph {
    offsets: Vec<usize>,
    adj: Vec<u32>,
}

impl RefGraph {
    /// Copies `graph`'s adjacency into arrays the library never touches.
    pub fn new(graph: &CsrGraph) -> Self {
        let n = graph.num_vertices();
        let mut offsets = Vec::with_capacity(n + 1);
        let mut adj = Vec::with_capacity(graph.num_arcs());
        offsets.push(0);
        for v in 0..n {
            adj.extend_from_slice(graph.neighbors(v as VertexId));
            offsets.push(adj.len());
        }
        Self { offsets, adj }
    }

    fn neighbors(&self, v: usize) -> &[u32] {
        &self.adj[self.offsets[v]..self.offsets[v + 1]]
    }

    /// Coreness by the bin-sort peel of Batagelj & Zaveršnik (2003).
    pub fn coreness(&self) -> Vec<u32> {
        let n = self.offsets.len() - 1;
        let mut deg: Vec<u32> =
            (0..n).map(|v| (self.offsets[v + 1] - self.offsets[v]) as u32).collect();
        let max_deg = deg.iter().copied().max().unwrap_or(0) as usize;
        // bin[d]: first position of degree d in `vert`.
        let mut bin = vec![0u32; max_deg + 1];
        for &d in &deg {
            bin[d as usize] += 1;
        }
        let mut start = 0;
        for b in &mut bin {
            let count = *b;
            *b = start;
            start += count;
        }
        let mut pos = vec![0u32; n];
        let mut vert = vec![0u32; n];
        for v in 0..n {
            let d = deg[v] as usize;
            pos[v] = bin[d];
            vert[bin[d] as usize] = v as u32;
            bin[d] += 1;
        }
        for d in (1..=max_deg).rev() {
            bin[d] = bin[d - 1];
        }
        if let Some(first) = bin.first_mut() {
            *first = 0;
        }
        for i in 0..n {
            let v = vert[i] as usize;
            for &u in self.neighbors(v) {
                let u = u as usize;
                let du = deg[u];
                if du > deg[v] {
                    // Move u to the front of its bin, then shrink the bin.
                    let pu = pos[u];
                    let pw = bin[du as usize];
                    let w = vert[pw as usize];
                    if u as u32 != w {
                        pos[u] = pw;
                        vert[pu as usize] = w;
                        pos[w as usize] = pu;
                        vert[pw as usize] = u as u32;
                    }
                    bin[du as usize] += 1;
                    deg[u] -= 1;
                }
            }
        }
        deg
    }

    /// Seconds one reference run takes on the nominal host.
    pub fn nominal_s(&self) -> f64 {
        let n = (self.offsets.len() - 1) as f64;
        (n * NOMINAL_NS_PER_VERTEX + self.adj.len() as f64 * NOMINAL_NS_PER_ARC) * 1e-9
    }

    /// Runs the reference until it has taken [`REF_SHARE`] of `op_ms`,
    /// at least once, and returns the milliseconds per run.
    pub fn time_after(&self, op_ms: f64) -> f64 {
        let start = Instant::now();
        let mut runs = 0;
        while runs == 0 || start.elapsed().as_secs_f64() * 1e3 < REF_SHARE * op_ms {
            std::hint::black_box(self.coreness());
            runs += 1;
        }
        start.elapsed().as_secs_f64() * 1e3 / runs as f64
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use kcore::bz::bz_coreness;
    use kcore_graph::gen;

    #[test]
    fn matches_the_library_oracle() {
        for graph in [
            gen::rmat(10, 16, 0.57, 0.19, 0.19, 3),
            gen::road(40, 40, 0.15, 0.05, 3),
            gen::planted_core(2_000, 4, 40, 3),
            CsrGraph::empty(),
        ] {
            let reference = RefGraph::new(&graph);
            assert_eq!(reference.coreness(), bz_coreness(&graph));
        }
    }
}
