//! Batch-dynamic maintenance vs. recompute-from-scratch.
//!
//! The maintenance path exists to beat a full re-peel on small batches:
//! `DynamicGraph::apply_batch` confines the re-peel to the affected
//! region, so its cost should track the region size, not the graph
//! size. This bench measures the steady state on ba-3000: each
//! iteration applies ONE batch of B real edges — alternating between
//! deleting a batch and re-inserting the same batch, so the graph
//! oscillates around its starting state and iterations don't drift —
//! for B in {1, 16, 256}, next to the full-recompute baseline a batch
//! would otherwise pay. The ns/iter numbers compare directly: one
//! maintained batch vs. one fresh decomposition.
//!
//! Expected shape: B = 1 and B = 16 sit well under the one-shot
//! decomposition; B = 256 widens the confinement range until the
//! region — or the full-recompute fallback — approaches the whole
//! graph, and the advantage fades. That crossover is the point of the
//! batch-size axis.

use criterion::{black_box, criterion_group, Criterion};
use kcore::{Config, Decomposition, DynamicGraph};
use kcore_graph::gen;

/// Spread batches across the edge list: every stride-th edge, wrapping.
fn pick_batch(edges: &[(u32, u32)], start: usize, size: usize) -> Vec<(u32, u32)> {
    let stride = (edges.len() / size.max(1)).max(1) | 1;
    (0..size).map(|i| edges[(start + i * stride) % edges.len()]).collect()
}

fn bench_dynamic(c: &mut Criterion) {
    let g = gen::barabasi_albert(3000, 4, 42);
    let edges: Vec<(u32, u32)> = g.edges().collect();
    let config = Config::default();

    // Baseline: what a batch costs if every change triggers a fresh
    // one-shot decomposition of the full graph.
    c.bench_function("dynamic/ba-3000/full-recompute", |b| {
        b.iter(|| black_box(Decomposition::kcore(&g).exact_config(config).run()))
    });

    for batch in [1usize, 16, 256] {
        let mut dg = DynamicGraph::with_exact_config(g.clone(), config);
        let mut start = 0usize;
        let mut deleted: Option<Vec<(u32, u32)>> = None;
        c.bench_function(&format!("dynamic/ba-3000/apply-batch-{batch}"), |b| {
            b.iter(|| match deleted.take() {
                Some(changes) => black_box(dg.apply_batch(&changes, &[])),
                None => {
                    let changes = pick_batch(&edges, start, batch);
                    start = start.wrapping_add(1);
                    let v = dg.apply_batch(&[], &changes);
                    deleted = Some(changes);
                    black_box(v)
                }
            })
        });
        // Leave the graph whole for the next batch size.
        if let Some(changes) = deleted.take() {
            dg.apply_batch(&changes, &[]);
        }
    }
}

criterion_group!(benches, bench_dynamic);
kcore_bench::bench_main!(benches);
