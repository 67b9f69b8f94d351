//! Robust fault simulation throughput: waveform simulation plus
//! requirement checks over the whole fault population, comparing the
//! scalar reference engine against the packed bit-plane kernel.

use criterion::{criterion_group, criterion_main, Criterion};
use pdf_atpg::{Justifier, TestSet};
use pdf_bench::setup;
use pdf_netlist::simulate_triples;
use pdf_sim::PackedBlock;

/// A deterministic many-test workload: justified tests for the first
/// faults, cycled up to `count` tests.
fn build_tests(s: &pdf_experiments::Prepared, count: usize) -> TestSet {
    let mut justifier = Justifier::new(&s.circuit, 3).with_attempts(2);
    let base: Vec<_> = s
        .faults
        .iter()
        .take(count.min(s.faults.len()))
        .filter_map(|e| justifier.justify(&e.assignments))
        .map(|j| j.test)
        .collect();
    assert!(!base.is_empty());
    (0..count).map(|i| base[i % base.len()].clone()).collect()
}

fn bench_circuit(c: &mut Criterion, name: &str, n_p: usize, n_p0: usize) {
    let s = setup(name, n_p, n_p0);
    let tests = build_tests(&s, 256);

    let mut group = c.benchmark_group("fault_simulation");
    group.bench_function(format!("{name}/waveforms_per_test"), |b| {
        let t = &tests.tests()[0];
        let triples = t.to_triples();
        b.iter(|| simulate_triples(&s.circuit, &triples));
    });
    group.bench_function(format!("{name}/waveforms_packed_block"), |b| {
        // One packed pass = 256 tests; amortized cost per test is this /256.
        let block_tests = tests.tests();
        let mut block: PackedBlock = PackedBlock::new();
        b.iter(|| {
            block.load(&s.circuit, block_tests);
            block.lanes()
        });
    });
    group.bench_function(format!("{name}/coverage_scalar"), |b| {
        // The scalar oracle: one waveform simulation per test.
        b.iter(|| {
            let mut detected = vec![false; s.faults.len()];
            for t in tests.tests() {
                let waves = simulate_triples(&s.circuit, &t.to_triples());
                for (d, e) in detected.iter_mut().zip(s.faults.iter()) {
                    *d |= e.assignments.satisfied_by(&waves);
                }
            }
            detected.iter().filter(|&&d| d).count()
        });
    });
    group.bench_function(format!("{name}/coverage_packed"), |b| {
        b.iter(|| tests.coverage(&s.circuit, &s.faults).detected_count());
    });
    group.finish();
}

fn bench_fsim(c: &mut Criterion) {
    bench_circuit(c, "b09", 2_000, 200);
    // The largest bundled stand-in: where the packed win matters.
    bench_circuit(c, "s9234*", 2_000, 200);
}

criterion_group!(benches, bench_fsim);
criterion_main!(benches);
