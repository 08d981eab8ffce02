//! Thread-safe Page Space Manager front-end for the real execution engine.
//!
//! Wraps the engine-agnostic [`PageCacheCore`] with a mutex and condition
//! variable and performs actual reads through a [`DataSource`]. Concurrent
//! queries needing the same page block on the in-flight fetch instead of
//! issuing duplicates, and a batch prefetch path reads merged runs so the
//! I/O-request merging of the paper is exercised for real.
//!
//! ## Failure model
//!
//! Reads can fail: transient faults are retried under the configured
//! [`RetryPolicy`] (bounded exponential backoff, deterministic jitter),
//! permanent faults surface immediately, and every wait is bounded by the
//! caller's deadline when one is set (see [`PageSpaceSession`]). On any
//! failure the front-end releases **all** in-flight claims this caller
//! still holds — a failed fetch never strands peers waiting on pages the
//! failed query had claimed.
//!
//! ## Deadline semantics: queue wait consumes the budget
//!
//! A query's deadline is anchored at **submission**, not at dequeue
//! ([`crate::ServerConfig::query_timeout`]), so time spent in the
//! admission queue deliberately consumes the I/O budget a
//! [`PageSpaceSession`] enforces. This is the client-facing reading of a
//! timeout — "answer me within T" — and it is what makes the deadline an
//! overload backstop: under a long queue, stale queries cancel at dequeue
//! (before any page I/O) instead of occupying a worker to produce an
//! answer nobody is waiting for. The engine re-checks the deadline first
//! thing after dequeue, so a fully queue-spent budget costs zero reads.
//! Callers who want a pure execution budget should bound admission
//! instead (`max_pending`, DESIGN.md §10), which keeps queue waits — and
//! therefore the consumed budget — short. Covered by the engine test
//! `deadline_is_anchored_at_submit_so_queue_wait_counts`.

use crate::error::{deadline_error, is_deadline};
use std::time::{Duration, Instant};
use vmqs_core::clock;
use vmqs_core::sync::{Arc, Condvar, Mutex};
use vmqs_core::{DatasetId, QueryId};
use vmqs_obs::{EventKind, Obs, PageMetrics};
use vmqs_pagespace::{PageCacheCore, PageData, PageDisposition, PageKey, PsStats, RetryPolicy};
use vmqs_storage::{is_transient, DataSource};

/// Shared Page Space Manager.
pub struct SharedPageSpace {
    core: Mutex<PageCacheCore>,
    resident_cv: Condvar,
    source: Arc<dyn DataSource>,
    page_size: usize,
    retry: RetryPolicy,
    retry_seed: u64,
    /// Observability sink: `PageRead` events go to `obs.log`, I/O counters
    /// to the pre-resolved `pmet` handles. Both unset for standalone use.
    obs: Option<Arc<Obs>>,
    pmet: Option<PageMetrics>,
}

impl SharedPageSpace {
    /// Creates a page space of `budget_bytes` over `source` with the
    /// default I/O retry policy.
    pub fn new(budget_bytes: u64, page_size: usize, source: Arc<dyn DataSource>) -> Self {
        SharedPageSpace::with_retry(
            budget_bytes,
            page_size,
            source,
            RetryPolicy::default_io(),
            0,
        )
    }

    /// Creates a page space with an explicit retry policy and jitter seed.
    pub fn with_retry(
        budget_bytes: u64,
        page_size: usize,
        source: Arc<dyn DataSource>,
        retry: RetryPolicy,
        retry_seed: u64,
    ) -> Self {
        SharedPageSpace::with_retry_obs(budget_bytes, page_size, source, retry, retry_seed, None)
    }

    /// Like [`SharedPageSpace::with_retry`], additionally wiring an
    /// observability handle that receives `PageRead` events and I/O
    /// counters.
    pub fn with_retry_obs(
        budget_bytes: u64,
        page_size: usize,
        source: Arc<dyn DataSource>,
        retry: RetryPolicy,
        retry_seed: u64,
        obs: Option<Arc<Obs>>,
    ) -> Self {
        let pmet = obs.as_ref().map(|o| PageMetrics::resolve(&o.metrics));
        SharedPageSpace {
            core: Mutex::new(PageCacheCore::new(budget_bytes, page_size as u64)),
            resident_cv: Condvar::new(),
            source,
            page_size,
            retry,
            retry_seed,
            obs,
            pmet,
        }
    }

    /// Counter snapshot.
    pub fn stats(&self) -> PsStats {
        self.core.lock().stats()
    }

    /// The active retry policy.
    pub fn retry_policy(&self) -> RetryPolicy {
        self.retry
    }

    /// Enables/disables run merging (ablation knob).
    pub fn set_merging(&self, enabled: bool) {
        self.core.lock().set_merging(enabled);
    }

    /// Opens a deadline-scoped view for one query's reads. All fetches and
    /// waits through the session fail with a deadline error once
    /// `deadline` passes; `None` never times out.
    pub fn session(&self, deadline: Option<Instant>) -> PageSpaceSession<'_> {
        PageSpaceSession {
            ps: self,
            deadline,
            query: None,
        }
    }

    /// Like [`SharedPageSpace::session`], attributing the session's reads
    /// to `query` so `PageRead` events carry the owning query's id.
    pub fn session_for(&self, query: QueryId, deadline: Option<Instant>) -> PageSpaceSession<'_> {
        PageSpaceSession {
            ps: self,
            deadline,
            query: Some(query),
        }
    }

    /// Fetches a batch of chunks (pages) of one dataset, blocking until all
    /// are resident or fetched by this caller; duplicate in-flight pages
    /// are awaited rather than re-read. Reads happen outside the lock, run
    /// by run. Equivalent to a session with no deadline.
    pub fn fetch_pages(&self, dataset: DatasetId, indices: &[u64]) -> std::io::Result<()> {
        self.fetch_pages_until(dataset, indices, None, None)
    }

    /// Reads one page, fetching it if necessary. The common path after
    /// [`SharedPageSpace::fetch_pages`] prefetched a query's chunk set.
    pub fn read_page(&self, dataset: DatasetId, index: u64) -> std::io::Result<Arc<Vec<u8>>> {
        self.read_page_until(dataset, index, None, None)
    }

    /// Emits a `PageRead` event for `query` when the event log is on.
    fn note_page_read(&self, query: Option<QueryId>, cached: bool, retried: bool) {
        if let (Some(obs), Some(q)) = (&self.obs, query) {
            obs.log.log(q, EventKind::PageRead { cached, retried });
        }
    }

    /// One page read against the backing source, retrying transient
    /// faults under the policy; returns the bytes plus the number of
    /// retries that were needed. Fault/retry accounting lands in
    /// [`PsStats`]; no locks are held across reads or backoff sleeps.
    fn read_with_retry(
        &self,
        page: PageKey,
        deadline: Option<Instant>,
    ) -> std::io::Result<(Vec<u8>, u32)> {
        let mut attempt: u32 = 0;
        loop {
            if deadline.is_some_and(|d| clock::now() >= d) {
                self.core.lock().note_failed_read();
                return Err(deadline_error());
            }
            match self
                .source
                .read_page(page.dataset, page.index, self.page_size)
            {
                Ok(bytes) => return Ok((bytes, attempt)),
                Err(e) => {
                    self.core.lock().note_read_fault();
                    if let Some(pm) = &self.pmet {
                        pm.read_faults.inc();
                    }
                    if !is_transient(&e) || is_deadline(&e) || attempt >= self.retry.max_retries {
                        self.core.lock().note_failed_read();
                        return Err(e);
                    }
                    attempt += 1;
                    self.core.lock().note_read_retry();
                    if let Some(pm) = &self.pmet {
                        pm.read_retries.inc();
                    }
                    // Jitter stream decorrelates by page so concurrent
                    // retriers don't thundering-herd the device, while
                    // staying deterministic per (seed, page, attempt).
                    let seed = self
                        .retry_seed
                        .wrapping_add(page.index.wrapping_mul(0x9E37_79B9_7F4A_7C15))
                        ^ page.dataset.raw();
                    let mut delay = self.retry.backoff_delay(attempt, seed);
                    if let Some(d) = deadline {
                        // Never sleep past the deadline; the loop head
                        // converts an expired deadline into a typed error.
                        delay = delay.min(d.saturating_duration_since(clock::now()));
                    }
                    if !delay.is_zero() {
                        std::thread::sleep(delay);
                    }
                }
            }
        }
    }

    /// Releases every in-flight claim in `claimed` that this caller has
    /// not completed, and wakes waiters so they can take over or fail.
    fn release_claims(&self, claimed: &[PageKey]) {
        if claimed.is_empty() {
            return;
        }
        let mut core = self.core.lock();
        for &p in claimed {
            core.abort_fetch(p);
        }
        drop(core);
        self.resident_cv.notify_all();
    }

    /// Deadline-aware batch fetch; see [`SharedPageSpace::fetch_pages`].
    fn fetch_pages_until(
        &self,
        dataset: DatasetId,
        indices: &[u64],
        deadline: Option<Instant>,
        query: Option<QueryId>,
    ) -> std::io::Result<()> {
        let keys: Vec<PageKey> = indices.iter().map(|&i| PageKey::new(dataset, i)).collect();
        let plan = self.core.lock().plan_read(&keys);

        if let Some(pm) = &self.pmet {
            pm.page_reads.add(plan.pages.len() as u64);
            let hits = plan
                .pages
                .iter()
                .filter(|(_, d)| *d != PageDisposition::MustFetch)
                .count();
            pm.page_hits.add(hits as u64);
            pm.runs_issued.add(plan.fetch_runs.len() as u64);
            let fetched: usize = plan.fetch_runs.iter().map(|r| r.pages().count()).sum();
            pm.pages_fetched.add(fetched as u64);
        }
        if self.obs.as_ref().is_some_and(|o| o.log.enabled()) {
            // Already-resident and peer-in-flight pages are satisfied from
            // the cache from this query's perspective; MustFetch pages get
            // their event after the read so `retried` is known.
            let cached = plan
                .pages
                .iter()
                .filter(|(_, d)| *d != PageDisposition::MustFetch)
                .count();
            for _ in 0..cached {
                self.note_page_read(query, true, false);
            }
        }

        // Every MustFetch page is now claimed (in-flight) by this caller;
        // on any failure all still-unfetched claims must be released. The
        // runs cover exactly these pages in the same ascending order, so
        // the pages fetched so far are the prefix `claimed[..fetched]`.
        let claimed: Vec<PageKey> = plan
            .pages
            .iter()
            .filter(|(_, d)| *d == PageDisposition::MustFetch)
            .map(|(k, _)| *k)
            .collect();
        let mut fetched = 0;

        // Read this caller's merged runs outside the lock.
        for run in &plan.fetch_runs {
            for page in run.pages() {
                debug_assert_eq!(claimed[fetched], page);
                match self.read_with_retry(page, deadline) {
                    Ok((bytes, attempts)) => {
                        self.note_page_read(query, false, attempts > 0);
                        fetched += 1;
                        let mut core = self.core.lock();
                        core.complete_fetch(page, PageData::Bytes(Arc::new(bytes)));
                        drop(core);
                        self.resident_cv.notify_all();
                    }
                    Err(e) => {
                        self.release_claims(&claimed[fetched..]);
                        return Err(e);
                    }
                }
            }
        }

        // Wait for pages being fetched by other callers.
        let waits: Vec<PageKey> = plan
            .pages
            .iter()
            .filter(|(_, d)| *d == PageDisposition::InFlightElsewhere)
            .map(|(k, _)| *k)
            .collect();
        for page in waits {
            let mut core = self.core.lock();
            loop {
                if core.is_resident(page) {
                    break;
                }
                if !core.is_in_flight(page) {
                    // The other fetch was aborted (or the page was fetched
                    // and already evicted); take over the fetch ourselves.
                    drop(core);
                    self.fetch_pages_until(dataset, &[page.index], deadline, query)?;
                    core = self.core.lock();
                    break;
                }
                match deadline {
                    None => self.resident_cv.wait(&mut core),
                    Some(d) => {
                        let now = clock::now();
                        if now >= d {
                            core.note_failed_read();
                            return Err(deadline_error());
                        }
                        self.resident_cv.wait_for(&mut core, d - now);
                    }
                }
            }
        }
        Ok(())
    }

    /// Deadline-aware single-page read; see [`SharedPageSpace::read_page`].
    fn read_page_until(
        &self,
        dataset: DatasetId,
        index: u64,
        deadline: Option<Instant>,
        query: Option<QueryId>,
    ) -> std::io::Result<Arc<Vec<u8>>> {
        let key = PageKey::new(dataset, index);
        loop {
            if let Some(PageData::Bytes(b)) = self.core.lock().get(key) {
                return Ok(b);
            }
            self.fetch_pages_until(dataset, &[index], deadline, query)?;
            // Under extreme cache pressure the page may already have been
            // evicted again; retry (capacity is at least one page, and this
            // caller immediately re-reads, so progress is guaranteed in
            // practice; a pathological livelock would require another
            // thread evicting our page between the two locks every time).
        }
    }
}

/// A deadline-scoped view of the Page Space for one query's execution.
/// Application executors read through this instead of the raw
/// [`SharedPageSpace`], so every I/O wait — source reads, backoff sleeps,
/// waits on peers' in-flight fetches — observes the query's deadline.
pub struct PageSpaceSession<'a> {
    ps: &'a SharedPageSpace,
    deadline: Option<Instant>,
    query: Option<QueryId>,
}

impl PageSpaceSession<'_> {
    /// The absolute deadline, when one is set.
    pub fn deadline(&self) -> Option<Instant> {
        self.deadline
    }

    /// Time left before the deadline (`None` = unbounded).
    pub fn remaining(&self) -> Option<Duration> {
        self.deadline
            .map(|d| d.saturating_duration_since(clock::now()))
    }

    /// Fails with a deadline error once the deadline has passed; cheap
    /// enough for applications to call between compute stages.
    pub fn check_deadline(&self) -> std::io::Result<()> {
        match self.deadline {
            Some(d) if clock::now() >= d => Err(deadline_error()),
            _ => Ok(()),
        }
    }

    /// Batch fetch; see [`SharedPageSpace::fetch_pages`].
    pub fn fetch_pages(&self, dataset: DatasetId, indices: &[u64]) -> std::io::Result<()> {
        self.ps
            .fetch_pages_until(dataset, indices, self.deadline, self.query)
    }

    /// Single-page read; see [`SharedPageSpace::read_page`].
    pub fn read_page(&self, dataset: DatasetId, index: u64) -> std::io::Result<Arc<Vec<u8>>> {
        self.ps
            .read_page_until(dataset, index, self.deadline, self.query)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::{AtomicU64, Ordering};
    use vmqs_storage::{FaultConfig, FaultInjectingSource, SyntheticSource};

    /// Counts reads per page to verify duplicate elimination.
    struct CountingSource {
        inner: SyntheticSource,
        reads: AtomicU64,
    }

    impl DataSource for CountingSource {
        fn read_page(
            &self,
            dataset: DatasetId,
            index: u64,
            page_size: usize,
        ) -> std::io::Result<Vec<u8>> {
            self.reads.fetch_add(1, Ordering::Relaxed);
            // Slow the read down so concurrent requests really overlap.
            std::thread::sleep(std::time::Duration::from_millis(5));
            self.inner.read_page(dataset, index, page_size)
        }
    }

    #[test]
    fn read_page_returns_source_bytes() {
        let ps = SharedPageSpace::new(1 << 20, 256, Arc::new(SyntheticSource::new()));
        let a = ps.read_page(DatasetId(1), 3).unwrap();
        let b = SyntheticSource::new()
            .read_page(DatasetId(1), 3, 256)
            .unwrap();
        assert_eq!(*a, b);
    }

    #[test]
    fn repeated_reads_hit_cache() {
        let src = Arc::new(CountingSource {
            inner: SyntheticSource::new(),
            reads: AtomicU64::new(0),
        });
        let ps = SharedPageSpace::new(1 << 20, 256, src.clone());
        for _ in 0..5 {
            ps.read_page(DatasetId(0), 7).unwrap();
        }
        assert_eq!(src.reads.load(Ordering::Relaxed), 1);
        assert_eq!(ps.stats().misses, 1);
    }

    #[test]
    fn concurrent_readers_deduplicate_io() {
        let src = Arc::new(CountingSource {
            inner: SyntheticSource::new(),
            reads: AtomicU64::new(0),
        });
        let ps = Arc::new(SharedPageSpace::new(1 << 20, 256, src.clone()));
        let mut handles = Vec::new();
        for _ in 0..8 {
            let ps = Arc::clone(&ps);
            handles.push(std::thread::spawn(move || {
                ps.read_page(DatasetId(0), 42).unwrap()
            }));
        }
        let results: Vec<Arc<Vec<u8>>> = handles.into_iter().map(|h| h.join().unwrap()).collect();
        for r in &results[1..] {
            assert_eq!(r, &results[0]);
        }
        // All eight threads were satisfied by a single disk read. (The
        // dedup_waits/hits split depends on how the threads interleave —
        // under heavy load they may serialize and hit via `get` — so the
        // read count is the only scheduling-independent invariant.)
        assert_eq!(src.reads.load(Ordering::Relaxed), 1);
    }

    #[test]
    fn fetch_pages_merges_runs() {
        let ps = SharedPageSpace::new(1 << 20, 256, Arc::new(SyntheticSource::new()));
        ps.fetch_pages(DatasetId(0), &[0, 1, 2, 3, 10, 11]).unwrap();
        let s = ps.stats();
        assert_eq!(s.runs_issued, 2);
        assert_eq!(s.pages_fetched, 6);
    }

    #[test]
    fn eviction_pressure_still_serves_reads() {
        // Capacity of 2 pages; read 10 distinct pages repeatedly.
        let ps = SharedPageSpace::new(512, 256, Arc::new(SyntheticSource::new()));
        for round in 0..3 {
            for i in 0..10u64 {
                let got = ps.read_page(DatasetId(0), i).unwrap();
                let want = SyntheticSource::new()
                    .read_page(DatasetId(0), i, 256)
                    .unwrap();
                assert_eq!(*got, want, "round {round} page {i}");
            }
        }
        assert!(ps.stats().evictions > 0);
    }

    #[test]
    fn transient_faults_are_retried_to_success() {
        // 60% transient rate with 8 retries: every page clears eventually,
        // and data is byte-identical to the clean source.
        let faulty =
            FaultInjectingSource::new(SyntheticSource::new(), FaultConfig::transient(0.6, 42));
        let policy = RetryPolicy {
            max_retries: 16,
            base_delay: Duration::from_micros(10),
            max_delay: Duration::from_micros(100),
            jitter: 0.25,
        };
        let ps = SharedPageSpace::with_retry(1 << 20, 256, Arc::new(faulty), policy, 1);
        for i in 0..20u64 {
            let got = ps.read_page(DatasetId(3), i).unwrap();
            let want = SyntheticSource::new()
                .read_page(DatasetId(3), i, 256)
                .unwrap();
            assert_eq!(*got, want, "page {i}");
        }
        let s = ps.stats();
        assert!(s.read_faults > 0, "60% rate must inject something");
        assert_eq!(s.read_retries, s.read_faults, "every fault was retried");
        assert_eq!(s.failed_reads, 0);
    }

    #[test]
    fn permanent_faults_fail_without_retry() {
        let faulty = FaultInjectingSource::new(
            SyntheticSource::new(),
            FaultConfig {
                permanent_rate: 1.0,
                ..FaultConfig::none()
            },
        );
        let ps = SharedPageSpace::new(1 << 20, 256, Arc::new(faulty));
        let e = ps.read_page(DatasetId(0), 0).unwrap_err();
        assert_eq!(e.kind(), std::io::ErrorKind::InvalidData);
        let s = ps.stats();
        assert_eq!(s.read_retries, 0, "permanent faults must not be retried");
        assert_eq!(s.failed_reads, 1);
    }

    #[test]
    fn exhausted_retries_surface_the_transient_error() {
        let faulty =
            FaultInjectingSource::new(SyntheticSource::new(), FaultConfig::transient(1.0, 7));
        let policy = RetryPolicy {
            max_retries: 3,
            base_delay: Duration::from_micros(1),
            max_delay: Duration::from_micros(4),
            jitter: 0.0,
        };
        let ps = SharedPageSpace::with_retry(1 << 20, 256, Arc::new(faulty), policy, 0);
        let e = ps.read_page(DatasetId(0), 5).unwrap_err();
        assert!(is_transient(&e));
        let s = ps.stats();
        assert_eq!(s.read_retries, 3);
        assert_eq!(s.read_faults, 4, "initial attempt + 3 retries");
        assert_eq!(s.failed_reads, 1);
    }

    #[test]
    fn failed_fetch_releases_all_claims() {
        // Page 0 permanently poisoned (rate 1.0 poisons everything); a
        // batch fetch of pages 0..6 must fail AND leave no page in-flight,
        // so a later caller on a different source path can claim them.
        let faulty = FaultInjectingSource::new(
            SyntheticSource::new(),
            FaultConfig {
                permanent_rate: 1.0,
                ..FaultConfig::none()
            },
        );
        let ps = SharedPageSpace::new(1 << 20, 256, Arc::new(faulty));
        assert!(ps.fetch_pages(DatasetId(0), &[0, 1, 2, 3, 4, 5]).is_err());
        // All claims released: a retrying caller re-plans every page as
        // MustFetch (misses grow by 6), none as InFlightElsewhere.
        let before = ps.stats();
        assert!(ps.fetch_pages(DatasetId(0), &[0, 1, 2, 3, 4, 5]).is_err());
        let after = ps.stats();
        assert_eq!(after.misses - before.misses, 6);
        assert_eq!(after.dedup_waits, before.dedup_waits);
    }

    #[test]
    fn session_deadline_cancels_reads() {
        let ps = SharedPageSpace::new(1 << 20, 256, Arc::new(SyntheticSource::new()));
        let session = ps.session(Some(clock::now() - Duration::from_millis(1)));
        let e = session.read_page(DatasetId(0), 0).unwrap_err();
        assert!(crate::error::is_deadline(&e));
        assert!(session.check_deadline().is_err());
        assert_eq!(session.remaining(), Some(Duration::ZERO));
        // An unbounded session still works.
        let free = ps.session(None);
        assert!(free.check_deadline().is_ok());
        assert!(free.read_page(DatasetId(0), 0).is_ok());
    }

    #[test]
    fn deadline_bounds_retry_backoff() {
        // Permanent 100% transient faults + huge backoff: the deadline must
        // cut the retry loop short rather than sleeping the full schedule.
        let faulty =
            FaultInjectingSource::new(SyntheticSource::new(), FaultConfig::transient(1.0, 1));
        let policy = RetryPolicy {
            max_retries: 1000,
            base_delay: Duration::from_secs(1),
            max_delay: Duration::from_secs(1),
            jitter: 0.0,
        };
        let ps = SharedPageSpace::with_retry(1 << 20, 256, Arc::new(faulty), policy, 0);
        let session = ps.session(Some(clock::now() + Duration::from_millis(20)));
        let t0 = clock::now();
        let e = session.read_page(DatasetId(0), 0).unwrap_err();
        assert!(t0.elapsed() < Duration::from_millis(500));
        assert!(crate::error::is_deadline(&e));
    }
}
