//! Multi-core batch-solve scaling: the deterministic chunked
//! `evaluate_batch` path at several worker counts and the warm
//! all-hits upper bound.
//! The full ~1M-point jitter × error × permutation sweep lives in the
//! `scale` bin, which records BENCH_scale.json; this bench carries the
//! CI-checkable rows (`scale/cold_1024pts_jobs/1`, `scale/warm_1024pts`)
//! the perf gate compares against that record.
//!
//! Before anything is timed, a bit-identity gate evaluates a
//! mixed-permutation grid at jobs 1, 2 and 8 and asserts results — and,
//! for the permutation-free distinct-key prefix, the full `CacheStats`
//! — are identical. CI runs this gate via `--test`.

use carta_bench::{case_study, scale_batch_1k, scale_perms, scale_point};
use carta_engine::prelude::{BaseSystem, Evaluator, Parallelism, SystemVariant};
use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use std::hint::black_box;

/// Results (and, without permutations, cache statistics) must not
/// depend on the worker count — the contract every timed row below
/// rides on.
fn assert_jobs_invariance() {
    let base = BaseSystem::new(case_study());
    let perms = scale_perms(base.network().messages().len(), 2);
    let plain: Vec<SystemVariant> = (0..192)
        .map(|i| scale_point(&base, &perms[..1], 48, 4, i))
        .collect();
    let mixed: Vec<SystemVariant> = (0..192)
        .map(|i| scale_point(&base, &perms, 24, 4, i))
        .collect();
    let mut plain_ref = None;
    let mut mixed_ref = None;
    for jobs in [1usize, 2, 8] {
        let eval = Evaluator::new(Parallelism::new(jobs));
        let out = eval.evaluate_batch(&plain);
        let stats = eval.stats();
        match &plain_ref {
            None => plain_ref = Some((out, stats)),
            Some((ref_out, ref_stats)) => {
                assert_eq!(&stats, ref_stats, "stats diverged at jobs={jobs}");
                for (a, b) in out.iter().zip(ref_out) {
                    assert_eq!(
                        a.as_ref().expect("valid"),
                        b.as_ref().expect("valid"),
                        "plain grid diverged at jobs={jobs}"
                    );
                }
            }
        }
        let eval = Evaluator::new(Parallelism::new(jobs));
        let out = eval.evaluate_batch(&mixed);
        match &mixed_ref {
            None => mixed_ref = Some(out),
            Some(ref_out) => {
                for (a, b) in out.iter().zip(ref_out) {
                    assert_eq!(
                        a.as_ref().expect("valid"),
                        b.as_ref().expect("valid"),
                        "permuted grid diverged at jobs={jobs}"
                    );
                }
            }
        }
    }
}

fn bench_scale(c: &mut Criterion) {
    assert_jobs_invariance();

    let points = scale_batch_1k();
    let mut group = c.benchmark_group("scale");

    // jobs ∈ {1, 2, 4, max}, deduplicated for the cores present — on a
    // single-core host only jobs=1 is a meaningful scaling row, and it
    // doubles as the BENCH_scale.json perf-gate reference.
    let ncpu = Parallelism::available();
    let mut job_counts: Vec<usize> = [1usize, 2, 4, ncpu]
        .into_iter()
        .filter(|&j| j == 1 || j <= ncpu)
        .collect();
    job_counts.sort_unstable();
    job_counts.dedup();
    for jobs in job_counts {
        group.bench_with_input(
            BenchmarkId::new("cold_1024pts_jobs", jobs),
            &jobs,
            |b, &jobs| {
                b.iter(|| {
                    let eval = Evaluator::new(Parallelism::new(jobs));
                    black_box(eval.evaluate_batch(&points))
                })
            },
        );
    }

    let warm = Evaluator::new(Parallelism::sequential());
    warm.evaluate_batch(&points);
    group.bench_function("warm_1024pts", |b| {
        b.iter(|| black_box(warm.evaluate_batch(&points)))
    });

    group.finish();
}

criterion_group!(benches, bench_scale);
criterion_main!(benches);
