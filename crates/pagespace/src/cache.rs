//! The engine-agnostic core of the Page Space Manager.
//!
//! [`PageCacheCore`] tracks page residency (with LRU eviction under a fixed
//! byte budget), in-flight fetches (so a page requested by several queries
//! at once is read from disk exactly once — "duplicate requests are
//! eliminated"), and plans the I/O for a set of requested pages as merged
//! contiguous runs.
//!
//! Eviction costs O(log n) per page miss, amortized, and picks exactly the
//! victims of a full scan for the oldest `last_access` stamp. Every stamp
//! comes from a fresh clock tick, so no two resident pages share one, and
//! an ordered index holds one entry per resident page, keyed by a stamp
//! no newer than the page's own. A hit only refreshes the stamp; eviction
//! pops the oldest entry and, if the page was touched since, requeues it
//! at its current stamp and pops again. The first entry whose stamp is
//! current is the least recently used page: every other page's stamp is
//! at least its entry's key, which is at least the popped one.
//!
//! The threaded server wraps this core with a mutex + condition variable
//! and real reads; the discrete-event simulator drives it directly and
//! turns the returned runs into disk events. Both therefore share the exact
//! caching and merging behaviour.

use crate::key::{merge_into_runs, PageKey, Run};
use std::collections::{BTreeMap, HashMap};
use std::sync::Arc;

/// Resident page contents; the simulator stores no bytes.
#[derive(Clone, Debug)]
pub enum PageData {
    /// Actual page bytes.
    Bytes(Arc<Vec<u8>>),
    /// Size-only accounting (simulation).
    Virtual,
}

#[derive(Debug)]
struct Resident {
    data: PageData,
    last_access: u64,
}

/// How a requested page will be satisfied.
#[derive(Clone, Debug, PartialEq)]
pub enum PageDisposition {
    /// Already resident in the cache.
    Hit,
    /// Another request is already fetching it; the caller should wait for
    /// that fetch instead of issuing its own ("duplicate elimination").
    InFlightElsewhere,
    /// The caller must fetch it (it has been marked in-flight on the
    /// caller's behalf).
    MustFetch,
}

/// The I/O plan for one batch of page requests.
#[derive(Debug, Default)]
pub struct ReadPlan {
    /// Disposition of every requested page, in request order (deduplicated).
    pub pages: Vec<(PageKey, PageDisposition)>,
    /// The caller's misses merged into contiguous runs — the I/O requests
    /// to issue to the data source.
    pub fetch_runs: Vec<Run>,
}

impl ReadPlan {
    /// Pages the caller must wait on (being fetched by someone else).
    pub fn waits(&self) -> impl Iterator<Item = PageKey> + '_ {
        self.pages
            .iter()
            .filter(|(_, d)| *d == PageDisposition::InFlightElsewhere)
            .map(|(k, _)| *k)
    }

    /// Number of cache hits in the plan.
    pub fn hit_count(&self) -> usize {
        self.pages
            .iter()
            .filter(|(_, d)| *d == PageDisposition::Hit)
            .count()
    }

    /// Number of pages this caller must fetch.
    pub fn fetch_count(&self) -> usize {
        self.fetch_runs.iter().map(|r| r.count as usize).sum()
    }
}

/// Counters exposed for experiments and tests.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct PsStats {
    /// Pages found resident.
    pub hits: u64,
    /// Pages that had to be fetched.
    pub misses: u64,
    /// Duplicate fetches avoided (page already in flight for another
    /// request).
    pub dedup_waits: u64,
    /// Pages evicted.
    pub evictions: u64,
    /// Merged I/O requests issued (runs).
    pub runs_issued: u64,
    /// Total pages covered by issued runs.
    pub pages_fetched: u64,
    /// I/O faults observed on page reads (transient + permanent).
    pub read_faults: u64,
    /// Page-read retries performed after transient faults.
    pub read_retries: u64,
    /// Page reads that ultimately failed (permanent fault, retries
    /// exhausted, or deadline hit mid-read).
    pub failed_reads: u64,
}

/// Fixed-budget page cache with in-flight tracking and run merging.
#[derive(Debug)]
pub struct PageCacheCore {
    page_size: u64,
    capacity_pages: usize,
    resident: HashMap<PageKey, Resident>,
    /// LRU index: one entry per resident page, keyed by a stamp no newer
    /// than its `last_access` (see the module docs).
    lru: BTreeMap<u64, PageKey>,
    in_flight: HashMap<PageKey, u32>,
    clock: u64,
    merging_enabled: bool,
    stats: PsStats,
}

impl PageCacheCore {
    /// Creates a cache holding at most `budget_bytes / page_size` pages
    /// (minimum 1, so progress is always possible).
    pub fn new(budget_bytes: u64, page_size: u64) -> Self {
        assert!(page_size > 0, "page size must be positive");
        PageCacheCore {
            page_size,
            capacity_pages: ((budget_bytes / page_size) as usize).max(1),
            resident: HashMap::new(),
            lru: BTreeMap::new(),
            in_flight: HashMap::new(),
            clock: 0,
            merging_enabled: true,
            stats: PsStats::default(),
        }
    }

    /// Disables run merging (each missed page becomes its own single-page
    /// run). Exists for the PS-merging ablation experiment.
    pub fn set_merging(&mut self, enabled: bool) {
        self.merging_enabled = enabled;
    }

    /// Page size in bytes.
    pub fn page_size(&self) -> u64 {
        self.page_size
    }

    /// Maximum resident pages.
    pub fn capacity_pages(&self) -> usize {
        self.capacity_pages
    }

    /// Currently resident pages.
    pub fn resident_pages(&self) -> usize {
        self.resident.len()
    }

    /// Counter snapshot.
    pub fn stats(&self) -> PsStats {
        self.stats
    }

    /// Records an I/O fault observed by the fetching front-end.
    pub fn note_read_fault(&mut self) {
        self.stats.read_faults += 1;
    }

    /// Records a retry of a transiently failed page read.
    pub fn note_read_retry(&mut self) {
        self.stats.read_retries += 1;
    }

    /// Records a page read that failed for good (surfaced to the query).
    pub fn note_failed_read(&mut self) {
        self.stats.failed_reads += 1;
    }

    /// True when the page is resident.
    pub fn is_resident(&self, page: PageKey) -> bool {
        self.resident.contains_key(&page)
    }

    /// True when the page is being fetched.
    pub fn is_in_flight(&self, page: PageKey) -> bool {
        self.in_flight.contains_key(&page)
    }

    /// Plans the read of `pages`: classifies each page as hit / wait /
    /// must-fetch, marks the must-fetch pages in-flight, and merges them
    /// into contiguous runs.
    pub fn plan_read(&mut self, pages: &[PageKey]) -> ReadPlan {
        let mut sorted = pages.to_vec();
        sorted.sort_unstable();
        sorted.dedup();

        let mut plan = ReadPlan::default();
        let mut to_fetch: Vec<PageKey> = Vec::new();
        for &p in &sorted {
            self.clock += 1;
            if let Some(r) = self.resident.get_mut(&p) {
                r.last_access = self.clock;
                self.stats.hits += 1;
                plan.pages.push((p, PageDisposition::Hit));
            } else if let Some(w) = self.in_flight.get_mut(&p) {
                *w += 1;
                self.stats.dedup_waits += 1;
                plan.pages.push((p, PageDisposition::InFlightElsewhere));
            } else {
                self.in_flight.insert(p, 0);
                self.stats.misses += 1;
                plan.pages.push((p, PageDisposition::MustFetch));
                to_fetch.push(p);
            }
        }
        plan.fetch_runs = if self.merging_enabled {
            merge_into_runs(&to_fetch)
        } else {
            to_fetch
                .iter()
                .map(|p| Run {
                    dataset: p.dataset,
                    start: p.index,
                    count: 1,
                })
                .collect()
        };
        self.stats.runs_issued += plan.fetch_runs.len() as u64;
        self.stats.pages_fetched += plan.fetch_count() as u64;
        plan
    }

    /// Records a completed fetch: the page becomes resident (possibly
    /// evicting LRU pages) and its in-flight mark is cleared. Returns the
    /// pages evicted to make room.
    pub fn complete_fetch(&mut self, page: PageKey, data: PageData) -> Vec<PageKey> {
        debug_assert!(
            self.in_flight.contains_key(&page),
            "complete_fetch for page that was never planned: {page:?}"
        );
        self.in_flight.remove(&page);
        let mut evicted = Vec::new();
        while self.resident.len() >= self.capacity_pages {
            // Evict the least recently used resident page.
            let Some((stamp, candidate)) = self.lru.pop_first() else {
                break;
            };
            let last_access = self
                .resident
                .get(&candidate)
                .expect("every indexed page is resident")
                .last_access;
            if last_access != stamp {
                // Touched since it was indexed: requeue at its current stamp.
                self.lru.insert(last_access, candidate);
                continue;
            }
            self.resident.remove(&candidate);
            self.stats.evictions += 1;
            evicted.push(candidate);
        }
        self.clock += 1;
        self.lru.insert(self.clock, page);
        self.resident.insert(
            page,
            Resident {
                data,
                last_access: self.clock,
            },
        );
        debug_assert_eq!(self.lru.len(), self.resident.len());
        evicted
    }

    /// Abandons an in-flight fetch (e.g. the read failed); waiting requests
    /// must retry.
    pub fn abort_fetch(&mut self, page: PageKey) {
        self.in_flight.remove(&page);
    }

    /// Reads a resident page's data, refreshing LRU recency. `None` when
    /// not resident.
    pub fn get(&mut self, page: PageKey) -> Option<PageData> {
        self.clock += 1;
        let clock = self.clock;
        self.resident.get_mut(&page).map(|r| {
            r.last_access = clock;
            r.data.clone()
        })
    }

    /// Drops all residency and in-flight state (counters are kept).
    pub fn clear(&mut self) {
        self.resident.clear();
        self.lru.clear();
        self.in_flight.clear();
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use vmqs_core::DatasetId;

    fn pk(i: u64) -> PageKey {
        PageKey::new(DatasetId(0), i)
    }

    fn cache(pages: u64) -> PageCacheCore {
        PageCacheCore::new(pages * 64, 64)
    }

    #[test]
    fn plan_marks_misses_in_flight_and_merges() {
        let mut ps = cache(10);
        let plan = ps.plan_read(&[pk(1), pk(2), pk(3), pk(7)]);
        assert_eq!(plan.fetch_runs.len(), 2);
        assert_eq!(plan.fetch_count(), 4);
        assert_eq!(plan.hit_count(), 0);
        assert!(ps.is_in_flight(pk(1)) && ps.is_in_flight(pk(7)));
    }

    #[test]
    fn second_request_waits_instead_of_duplicating_io() {
        let mut ps = cache(10);
        let _first = ps.plan_read(&[pk(1)]);
        let second = ps.plan_read(&[pk(1)]);
        assert_eq!(second.fetch_count(), 0);
        assert_eq!(second.waits().collect::<Vec<_>>(), vec![pk(1)]);
        assert_eq!(ps.stats().dedup_waits, 1);
    }

    #[test]
    fn completed_fetch_becomes_hit() {
        let mut ps = cache(10);
        ps.plan_read(&[pk(1)]);
        ps.complete_fetch(pk(1), PageData::Virtual);
        assert!(ps.is_resident(pk(1)));
        let plan = ps.plan_read(&[pk(1)]);
        assert_eq!(plan.hit_count(), 1);
        assert_eq!(plan.fetch_count(), 0);
        assert_eq!(ps.stats().hits, 1);
    }

    #[test]
    fn lru_eviction_at_capacity() {
        let mut ps = cache(2);
        for i in 0..2 {
            ps.plan_read(&[pk(i)]);
            ps.complete_fetch(pk(i), PageData::Virtual);
        }
        // Touch page 0 so page 1 is the LRU victim.
        assert!(ps.get(pk(0)).is_some());
        ps.plan_read(&[pk(5)]);
        let evicted = ps.complete_fetch(pk(5), PageData::Virtual);
        assert_eq!(evicted, vec![pk(1)]);
        assert!(ps.is_resident(pk(0)) && ps.is_resident(pk(5)));
        assert_eq!(ps.stats().evictions, 1);
    }

    #[test]
    fn merging_can_be_disabled() {
        let mut ps = cache(10);
        ps.set_merging(false);
        let plan = ps.plan_read(&[pk(1), pk(2), pk(3)]);
        assert_eq!(plan.fetch_runs.len(), 3);
        assert!(plan.fetch_runs.iter().all(|r| r.count == 1));
    }

    #[test]
    fn duplicate_pages_in_one_request_counted_once() {
        let mut ps = cache(10);
        let plan = ps.plan_read(&[pk(4), pk(4), pk(4)]);
        assert_eq!(plan.pages.len(), 1);
        assert_eq!(plan.fetch_count(), 1);
    }

    #[test]
    fn abort_fetch_allows_refetch() {
        let mut ps = cache(10);
        ps.plan_read(&[pk(1)]);
        ps.abort_fetch(pk(1));
        let plan = ps.plan_read(&[pk(1)]);
        assert_eq!(plan.fetch_count(), 1);
    }

    #[test]
    fn get_missing_page_is_none() {
        let mut ps = cache(2);
        assert!(ps.get(pk(9)).is_none());
    }

    #[test]
    fn capacity_minimum_one_page() {
        let ps = PageCacheCore::new(0, 64);
        assert_eq!(ps.capacity_pages(), 1);
    }

    #[test]
    fn clear_drops_state() {
        let mut ps = cache(4);
        ps.plan_read(&[pk(1)]);
        ps.complete_fetch(pk(1), PageData::Virtual);
        ps.clear();
        assert_eq!(ps.resident_pages(), 0);
        assert!(!ps.is_in_flight(pk(1)));
    }

    #[test]
    fn stats_track_runs_and_pages() {
        let mut ps = cache(16);
        ps.plan_read(&[pk(0), pk(1), pk(5)]);
        let s = ps.stats();
        assert_eq!(s.runs_issued, 2);
        assert_eq!(s.pages_fetched, 3);
        assert_eq!(s.misses, 3);
    }
}
