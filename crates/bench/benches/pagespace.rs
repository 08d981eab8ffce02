//! Criterion micro-benchmarks for the Page Space Manager: request-plan
//! cost with and without run merging, raw run-merging throughput, and the
//! cost of a page miss that evicts.

use criterion::{black_box, criterion_group, criterion_main, BenchmarkId, Criterion};
use vmqs_core::DatasetId;
use vmqs_pagespace::{merge_into_runs, PageCacheCore, PageData, PageKey};

fn scattered_pages(n: u64) -> Vec<PageKey> {
    // Mixture of contiguous spans and strided singletons, as produced by a
    // 2-D query window over a row-major chunk grid.
    (0..n)
        .map(|i| PageKey::new(DatasetId(0), (i / 8) * 205 + (i % 8)))
        .collect()
}

fn bench_merge_into_runs(c: &mut Criterion) {
    let mut group = c.benchmark_group("merge_into_runs");
    for &n in &[64u64, 1024, 16384] {
        let pages = scattered_pages(n);
        group.bench_with_input(BenchmarkId::from_parameter(n), &pages, |b, pages| {
            b.iter(|| black_box(merge_into_runs(pages).len()));
        });
    }
    group.finish();
}

fn bench_plan_read(c: &mut Criterion) {
    // The 512 MB cache holds 8,192 pages, eight times the 1,024 requested,
    // so after the first iteration every page hits and nothing is evicted:
    // this measures planning, not eviction (see `ps_evict_at_capacity`).
    let mut group = c.benchmark_group("ps_plan_read");
    for (name, merging) in [("merged", true), ("unmerged", false)] {
        group.bench_function(name, |b| {
            let mut ps = PageCacheCore::new(512 << 20, 65536);
            ps.set_merging(merging);
            let pages = scattered_pages(1024);
            b.iter(|| {
                let plan = ps.plan_read(&pages);
                // Complete the fetches so the next iteration sees hits and
                // the cache stays in steady state.
                for run in &plan.fetch_runs {
                    for p in run.pages() {
                        ps.complete_fetch(p, PageData::Virtual);
                    }
                }
                black_box(plan.fetch_runs.len())
            });
        });
    }
    group.finish();
}

fn bench_hit_path(c: &mut Criterion) {
    c.bench_function("ps_get_resident", |b| {
        let mut ps = PageCacheCore::new(64 << 20, 65536);
        let page = PageKey::new(DatasetId(0), 7);
        ps.plan_read(&[page]);
        ps.complete_fetch(page, PageData::Virtual);
        b.iter(|| black_box(ps.get(page).is_some()));
    });
}

fn bench_evict_at_capacity(c: &mut Criterion) {
    // Steady state of a full cache under a stream of never-seen pages:
    // every iteration is one miss whose completion evicts the LRU page.
    // The per-iteration cost should stay flat as the capacity grows.
    let mut group = c.benchmark_group("ps_evict_at_capacity");
    for &pages in &[128u64, 512, 8192] {
        group.bench_with_input(BenchmarkId::from_parameter(pages), &pages, |b, &pages| {
            let mut ps = PageCacheCore::new(pages * 65536, 65536);
            let mut next = 0u64;
            let mut miss = |ps: &mut PageCacheCore| {
                let page = PageKey::new(DatasetId(0), next);
                next += 1;
                ps.plan_read(&[page]);
                ps.complete_fetch(page, PageData::Virtual)
            };
            while (ps.resident_pages() as u64) < pages {
                miss(&mut ps);
            }
            b.iter(|| black_box(miss(&mut ps).len()));
        });
    }
    group.finish();
}

criterion_group!(
    benches,
    bench_merge_into_runs,
    bench_plan_read,
    bench_hit_path,
    bench_evict_at_capacity
);
criterion_main!(benches);
