//! Configuration sweep: bucket strategy across the standard suite —
//! the grid the Tab. 3 "combination" rows come from once sampling and
//! VGC land.

use criterion::{black_box, criterion_group, Criterion};
use kcore::{BucketStrategy, Config, Decomposition};
use kcore_bench::standard_suite;

fn bench_combos(c: &mut Criterion) {
    let strategies = [BucketStrategy::Single, BucketStrategy::Adaptive];
    for bg in standard_suite() {
        for strategy in strategies {
            let config = Config::with_strategy(strategy);
            c.bench_function(&format!("combos/{}/{strategy}", bg.name), |b| {
                b.iter(|| black_box(Decomposition::kcore(&bg.graph).config(config).run()))
            });
        }
    }
}

criterion_group!(benches, bench_combos);
kcore_bench::bench_main!(benches);
