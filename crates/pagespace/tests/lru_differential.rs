//! Differential test of the indexed LRU eviction in `PageCacheCore`.
//!
//! `RefCache` keeps the cache's original design: recency stamps in the
//! resident map and a full `min_by_key` scan per eviction. Both caches
//! are driven with the same random operation sequences, and after every
//! step they must agree on the plan, the eviction list, the resident set
//! and the counters.

use proptest::prelude::*;
use std::collections::{HashMap, HashSet};
use vmqs_core::DatasetId;
use vmqs_pagespace::{
    merge_into_runs, PageCacheCore, PageData, PageDisposition, PageKey, PsStats, Run,
};

const PAGE: u64 = 64;
const DATASETS: u64 = 2;
const PAGES_PER_DATASET: u64 = 24;

/// The full-scan reference model.
struct RefCache {
    capacity: usize,
    resident: HashMap<PageKey, u64>,
    in_flight: HashSet<PageKey>,
    clock: u64,
    stats: PsStats,
}

impl RefCache {
    fn new(capacity: usize) -> Self {
        RefCache {
            capacity,
            resident: HashMap::new(),
            in_flight: HashSet::new(),
            clock: 0,
            stats: PsStats::default(),
        }
    }

    fn plan_read(&mut self, pages: &[PageKey]) -> Vec<(PageKey, PageDisposition)> {
        let mut sorted = pages.to_vec();
        sorted.sort_unstable();
        sorted.dedup();
        let mut plan = Vec::new();
        let mut to_fetch = Vec::new();
        for p in sorted {
            self.clock += 1;
            if let Some(stamp) = self.resident.get_mut(&p) {
                *stamp = self.clock;
                self.stats.hits += 1;
                plan.push((p, PageDisposition::Hit));
            } else if self.in_flight.contains(&p) {
                self.stats.dedup_waits += 1;
                plan.push((p, PageDisposition::InFlightElsewhere));
            } else {
                self.in_flight.insert(p);
                self.stats.misses += 1;
                plan.push((p, PageDisposition::MustFetch));
                to_fetch.push(p);
            }
        }
        self.stats.runs_issued += merge_into_runs(&to_fetch).len() as u64;
        self.stats.pages_fetched += to_fetch.len() as u64;
        plan
    }

    fn complete_fetch(&mut self, page: PageKey) -> Vec<PageKey> {
        self.in_flight.remove(&page);
        let mut evicted = Vec::new();
        while self.resident.len() >= self.capacity {
            let victim = self
                .resident
                .iter()
                .min_by_key(|(_, &stamp)| stamp)
                .map(|(&k, _)| k);
            match victim {
                Some(v) => {
                    self.resident.remove(&v);
                    self.stats.evictions += 1;
                    evicted.push(v);
                }
                None => break,
            }
        }
        self.clock += 1;
        self.resident.insert(page, self.clock);
        evicted
    }

    fn get(&mut self, page: PageKey) -> bool {
        self.clock += 1;
        match self.resident.get_mut(&page) {
            Some(stamp) => {
                *stamp = self.clock;
                true
            }
            None => false,
        }
    }

    fn abort_fetch(&mut self, page: PageKey) {
        self.in_flight.remove(&page);
    }

    fn clear(&mut self) {
        self.resident.clear();
        self.in_flight.clear();
    }
}

fn key(raw: u64) -> PageKey {
    PageKey::new(DatasetId(raw / PAGES_PER_DATASET), raw % PAGES_PER_DATASET)
}

fn universe() -> impl Iterator<Item = PageKey> {
    (0..DATASETS * PAGES_PER_DATASET).map(key)
}

/// One step: `(kind, pages, pick)`. `kind` selects the operation
/// (weighted towards reads and completions), `pages` is the page set of
/// a `plan_read` or `get`, and `pick` chooses which planned page a
/// `complete_fetch` or `abort_fetch` acts on.
type Op = (u8, Vec<u64>, usize);

fn ops() -> impl Strategy<Value = Vec<Op>> {
    prop::collection::vec(
        (
            0u8..20,
            prop::collection::vec(0..DATASETS * PAGES_PER_DATASET, 0..8),
            0usize..1024,
        ),
        1..160,
    )
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(384))]

    #[test]
    fn indexed_lru_matches_full_scan(capacity in 1usize..17, ops in ops()) {
        let mut cache = PageCacheCore::new(capacity as u64 * PAGE, PAGE);
        let mut reference = RefCache::new(capacity);
        // Pages planned for fetching and not yet completed or aborted, in
        // planning order.
        let mut planned: Vec<PageKey> = Vec::new();

        for (step, (kind, pages, pick)) in ops.into_iter().enumerate() {
            match kind {
                0..=6 => {
                    let keys: Vec<PageKey> = pages.iter().map(|&p| key(p)).collect();
                    let plan = cache.plan_read(&keys);
                    prop_assert_eq!(&plan.pages, &reference.plan_read(&keys), "plan at step {}", step);
                    planned.extend(plan.fetch_runs.iter().flat_map(Run::pages));
                }
                7..=13 if !planned.is_empty() => {
                    let page = planned.remove(pick % planned.len());
                    let evicted = cache.complete_fetch(page, PageData::Virtual);
                    prop_assert_eq!(&evicted, &reference.complete_fetch(page), "evictions at step {}", step);
                }
                14..=16 => {
                    for &p in &pages {
                        let got = cache.get(key(p)).is_some();
                        prop_assert_eq!(got, reference.get(key(p)), "get at step {}", step);
                    }
                }
                17..=18 if !planned.is_empty() => {
                    let page = planned.remove(pick % planned.len());
                    cache.abort_fetch(page);
                    reference.abort_fetch(page);
                }
                19 => {
                    cache.clear();
                    reference.clear();
                    planned.clear();
                }
                _ => {}
            }

            prop_assert_eq!(cache.stats(), reference.stats, "stats at step {}", step);
            prop_assert_eq!(cache.resident_pages(), reference.resident.len());
            for p in universe() {
                prop_assert_eq!(cache.is_resident(p), reference.resident.contains_key(&p), "residency of {:?} at step {}", p, step);
                prop_assert_eq!(cache.is_in_flight(p), reference.in_flight.contains(&p), "in-flight {:?} at step {}", p, step);
            }
        }
    }
}
