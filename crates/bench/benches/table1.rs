//! E1 — regenerates Table 1 (§7): verification time of every case-study
//! module in TS and FC mode, plus the parallel batch path of `HybridSession`.
//! Absolute numbers depend on the machine; the shape to compare against the
//! paper is the ordering EvenInt < LP < LinkedList < MiniVec and TS ≤ FC per
//! module. The `full_table/*` benchmarks compare the serial batch against the
//! multi-worker batch — the wall-time gap is the point of the parallel
//! driver.

use case_studies::table1::table1_with_workers;
use case_studies::{even_int, linked_list, linked_pair, mini_vec, SpecMode};
use hybrid_bench::Criterion;

fn bench_table1(c: &mut Criterion) {
    let mut group = c.benchmark_group("table1");
    group.sample_size(10);
    // Per-module entries pin workers(1) so the numbers stay comparable to
    // the paper's serial times whatever the host's core count; the
    // full_table group below is the explicit serial-vs-parallel comparison.
    let serial = |mode: SpecMode, session: fn(SpecMode) -> case_studies::HybridSession| {
        move || session(mode).with_workers(1).verify_all()
    };
    group.bench_function("EvenInt/FC", |b| {
        b.iter(serial(SpecMode::FunctionalCorrectness, even_int::session))
    });
    group.bench_function("LP/TS", |b| {
        b.iter(serial(SpecMode::TypeSafety, linked_pair::session))
    });
    group.bench_function("LP/FC", |b| {
        b.iter(serial(
            SpecMode::FunctionalCorrectness,
            linked_pair::session,
        ))
    });
    // The LinkedList rows cover the quick function set (see EXPERIMENTS.md);
    // the full push_front/pop_front proofs run in the default test suite
    // (`tests/end_to_end.rs`, `tests/symbol_growth.rs`).
    group.bench_function("LinkedList/TS", |b| {
        b.iter(serial(SpecMode::TypeSafety, linked_list::session))
    });
    group.bench_function("LinkedList/FC", |b| {
        b.iter(serial(
            SpecMode::FunctionalCorrectness,
            linked_list::session,
        ))
    });
    group.bench_function("MiniVec/FC", |b| {
        b.iter(serial(SpecMode::FunctionalCorrectness, mini_vec::session))
    });
    group.finish();

    let mut group = c.benchmark_group("full_table");
    group.sample_size(5);
    group.bench_function("serial(1 worker)", |b| b.iter(|| table1_with_workers(1)));
    let workers = std::thread::available_parallelism()
        .map(|n| n.get())
        .unwrap_or(2);
    group.bench_function("parallel(all cores)", |b| {
        b.iter(|| table1_with_workers(workers))
    });
    group.finish();
}

fn main() {
    let mut c = Criterion::from_env();
    bench_table1(&mut c);
}
