//! Path enumeration benchmarks: the moderate work-list procedure vs. the
//! distance-guided best-first procedure (the paper's Sec. 3.1 ablation),
//! plus histogram construction.

use criterion::{criterion_group, criterion_main, BatchSize, Criterion};
use pdf_netlist::iscas::s27;
use pdf_paths::{LengthHistogram, PathEnumerator, Strategy};

fn bench_enumeration(c: &mut Criterion) {
    let mut group = c.benchmark_group("enumeration");

    let tiny = s27();
    group.bench_function("s27/moderate_cap20", |b| {
        b.iter(|| {
            PathEnumerator::new(&tiny)
                .with_cap(20)
                .with_units_per_path(1)
                .with_strategy(Strategy::Moderate)
                .enumerate()
        });
    });
    group.bench_function("s27/distance_cap20", |b| {
        b.iter(|| {
            PathEnumerator::new(&tiny)
                .with_cap(20)
                .with_units_per_path(1)
                .with_strategy(Strategy::DistanceBased)
                .enumerate()
        });
    });

    let b03 = pdf_netlist::circuit_by_name("b03").unwrap();
    group.bench_function("b03/distance_cap10000", |b| {
        b.iter(|| PathEnumerator::new(&b03).with_cap(10_000).enumerate());
    });
    group.bench_function("b03/moderate_cap10000", |b| {
        b.iter(|| {
            PathEnumerator::new(&b03)
                .with_cap(10_000)
                .with_strategy(Strategy::Moderate)
                .enumerate()
        });
    });

    let store = PathEnumerator::new(&b03).with_cap(10_000).enumerate().store;
    group.bench_function("b03/histogram", |b| {
        b.iter_batched(
            || store.clone(),
            |s| LengthHistogram::from_lengths(s.iter().map(|e| e.delay)),
            BatchSize::SmallInput,
        );
    });

    group.finish();
}

criterion_group!(benches, bench_enumeration);
criterion_main!(benches);
