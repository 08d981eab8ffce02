//! Spans recorded from outside the program, and the timing wrappers that
//! record them at the program's public injection points.
//!
//! A span has a name, a start and an end on one clock, the span that was
//! open on the same thread when it began (its parent), and a tag: the
//! query id where the caller knows it, a hash of the predicate where the
//! layer sees only that. Spans stay in memory until the run ends.

use std::cell::RefCell;
use std::collections::hash_map::DefaultHasher;
use std::collections::HashMap;
use std::hash::{Hash, Hasher};
use std::io::Write;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex};
use std::time::Instant;

use vmqs_core::{clock, DatasetId};
use vmqs_server::{AppExecutor, AppOutcome, PageSpaceSession};
use vmqs_sim::{ReusePlan, SimApplication};
use vmqs_storage::DataSource;

/// One recorded interval.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct Span {
    pub id: u64,
    pub name: &'static str,
    /// Nanoseconds since the tracer's epoch.
    pub start_ns: u64,
    pub end_ns: u64,
    pub parent: Option<u64>,
    pub thread: u64,
    pub tag: u64,
}

impl Span {
    pub fn dur_ns(&self) -> u64 {
        self.end_ns - self.start_ns
    }
}

/// Collects spans from every thread that records into it.
pub struct Tracer {
    epoch: Instant,
    next_id: AtomicU64,
    spans: Mutex<Vec<Span>>,
}

static NEXT_THREAD: AtomicU64 = AtomicU64::new(0);

thread_local! {
    /// Spans open on this thread, innermost last.
    static OPEN: RefCell<Vec<u64>> = const { RefCell::new(Vec::new()) };
    static THREAD: u64 = NEXT_THREAD.fetch_add(1, Ordering::Relaxed);
}

impl Tracer {
    pub fn new() -> Arc<Self> {
        Arc::new(Tracer {
            epoch: clock::now(),
            next_id: AtomicU64::new(1),
            spans: Mutex::new(Vec::new()),
        })
    }

    /// Nanoseconds since the epoch of `t`.
    pub fn ns(&self, t: Instant) -> u64 {
        t.saturating_duration_since(self.epoch).as_nanos() as u64
    }

    /// Opens a span that closes when the guard drops.
    pub fn span(&self, name: &'static str, tag: u64) -> SpanGuard<'_> {
        let id = self.next_id.fetch_add(1, Ordering::Relaxed);
        let parent = OPEN.with(|o| {
            let mut o = o.borrow_mut();
            let p = o.last().copied();
            o.push(id);
            p
        });
        SpanGuard {
            tracer: self,
            id,
            name,
            tag,
            parent,
            start: clock::now(),
        }
    }

    fn push(&self, span: Span) {
        self.spans
            .lock()
            .expect("a thread panicked while recording a span")
            .push(span);
    }

    /// Every span recorded so far, in order of closing.
    pub fn spans(&self) -> Vec<Span> {
        self.spans
            .lock()
            .expect("a thread panicked while recording a span")
            .clone()
    }
}

/// An open span; records itself on drop.
pub struct SpanGuard<'a> {
    tracer: &'a Tracer,
    id: u64,
    name: &'static str,
    tag: u64,
    parent: Option<u64>,
    start: Instant,
}

impl SpanGuard<'_> {
    /// Sets the tag once the caller learns it (a query id is known only
    /// after the submit call it spans).
    pub fn set_tag(&mut self, tag: u64) {
        self.tag = tag;
    }
}

impl Drop for SpanGuard<'_> {
    fn drop(&mut self) {
        let end = clock::now();
        OPEN.with(|o| {
            let mut o = o.borrow_mut();
            if let Some(pos) = o.iter().rposition(|&id| id == self.id) {
                o.remove(pos);
            }
        });
        self.tracer.push(Span {
            id: self.id,
            name: self.name,
            start_ns: self.tracer.ns(self.start),
            end_ns: self.tracer.ns(end),
            parent: self.parent,
            thread: THREAD.with(|t| *t),
            tag: self.tag,
        });
    }
}

/// Self time of every span, index-aligned with `spans`: its duration
/// minus the part of its interval that its children cover. Children may
/// nest or overlap each other; a covered instant counts once, and the
/// part of a child outside its parent's interval counts not at all.
pub fn self_times_ns(spans: &[Span]) -> Vec<u64> {
    let index: HashMap<u64, usize> = spans.iter().enumerate().map(|(i, s)| (s.id, i)).collect();
    let mut children: Vec<Vec<(u64, u64)>> = vec![Vec::new(); spans.len()];
    for s in spans {
        if let Some(&p) = s.parent.and_then(|p| index.get(&p)) {
            children[p].push((s.start_ns, s.end_ns));
        }
    }
    spans
        .iter()
        .zip(children.iter_mut())
        .map(|(s, kids)| s.dur_ns() - covered_ns(s.start_ns, s.end_ns, kids))
        .collect()
}

/// Length of the union of `intervals`, clipped to `[lo, hi]`.
fn covered_ns(lo: u64, hi: u64, intervals: &mut [(u64, u64)]) -> u64 {
    intervals.sort_unstable();
    let mut covered = 0;
    let mut reach = lo;
    for &(a, b) in intervals.iter() {
        let (a, b) = (a.max(reach), b.min(hi));
        if b > a {
            covered += b - a;
            reach = b;
        }
    }
    covered
}

/// Writes spans as CSV, one line each.
pub fn write_spans(path: &std::path::Path, spans: &[Span]) -> std::io::Result<()> {
    let mut out = std::io::BufWriter::new(std::fs::File::create(path)?);
    writeln!(out, "id,name,start_ns,end_ns,parent,thread,tag")?;
    for s in spans {
        let parent = s.parent.map_or(String::new(), |p| p.to_string());
        writeln!(
            out,
            "{},{},{},{},{},{},{}",
            s.id, s.name, s.start_ns, s.end_ns, parent, s.thread, s.tag
        )?;
    }
    out.flush()
}

/// A stable tag for a predicate.
fn spec_tag<S: std::fmt::Debug>(spec: &S) -> u64 {
    let mut h = DefaultHasher::new();
    format!("{spec:?}").hash(&mut h);
    h.finish()
}

/// Times every page read of the data source it wraps (`storage`).
pub struct TimedSource<S> {
    pub inner: S,
    pub tracer: Arc<Tracer>,
}

impl<S: DataSource> DataSource for TimedSource<S> {
    fn read_page(
        &self,
        dataset: DatasetId,
        index: u64,
        page_size: usize,
    ) -> std::io::Result<Vec<u8>> {
        let _span = self.tracer.span("storage.read_page", index);
        self.inner.read_page(dataset, index, page_size)
    }
}

/// Times every query execution of the executor it wraps (`microscope`:
/// projection and kernels, with storage reads as child spans).
pub struct TimedExecutor<A> {
    pub inner: A,
    pub tracer: Arc<Tracer>,
}

impl<A: AppExecutor> AppExecutor for TimedExecutor<A> {
    type Spec = A::Spec;

    fn output_dims(&self, spec: &Self::Spec) -> (u32, u32) {
        self.inner.output_dims(spec)
    }

    fn output_len(&self, spec: &Self::Spec) -> usize {
        self.inner.output_len(spec)
    }

    fn execute(
        &self,
        spec: &Self::Spec,
        sources: &[(Self::Spec, Arc<[u8]>)],
        ps: &PageSpaceSession<'_>,
    ) -> std::io::Result<AppOutcome> {
        let _span = self.tracer.span("app.execute", spec_tag(spec));
        self.inner.execute(spec, sources, ps)
    }

    fn degrade(&self, spec: &Self::Spec) -> Option<Self::Spec> {
        self.inner.degrade(spec)
    }

    fn encode_spec(&self, spec: &Self::Spec) -> Vec<u8> {
        self.inner.encode_spec(spec)
    }

    fn decode_spec(&self, meta: &[u8]) -> Option<Self::Spec> {
        self.inner.decode_spec(meta)
    }
}

/// Times the planning calls of the simulator application it wraps (`sim`).
pub struct TimedSimApp<A> {
    pub inner: A,
    pub tracer: Arc<Tracer>,
}

impl<A: SimApplication> SimApplication for TimedSimApp<A> {
    type Spec = A::Spec;

    fn plan(&self, target: &Self::Spec, cached: &[Self::Spec]) -> ReusePlan {
        let _span = self.tracer.span("sim.plan", spec_tag(target));
        self.inner.plan(target, cached)
    }

    fn compute_seconds(&self, spec: &Self::Spec, input_bytes: u64) -> f64 {
        self.inner.compute_seconds(spec, input_bytes)
    }

    fn project_seconds(&self, reused_bytes: u64) -> f64 {
        self.inner.project_seconds(reused_bytes)
    }

    fn planning_seconds(&self) -> f64 {
        self.inner.planning_seconds()
    }

    fn degrade(&self, spec: &Self::Spec) -> Option<Self::Spec> {
        self.inner.degrade(spec)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn span(id: u64, start: u64, end: u64, parent: Option<u64>) -> Span {
        Span {
            id,
            name: "t",
            start_ns: start,
            end_ns: end,
            parent,
            thread: 0,
            tag: 0,
        }
    }

    #[test]
    fn self_time_subtracts_nested_children() {
        // 0..100 with children 10..30 and 50..60; the grandchild 12..20
        // lies inside its parent and does not reduce the root again.
        let spans = [
            span(1, 0, 100, None),
            span(2, 10, 30, Some(1)),
            span(3, 12, 20, Some(2)),
            span(4, 50, 60, Some(1)),
        ];
        assert_eq!(self_times_ns(&spans), vec![70, 12, 8, 10]);
    }

    #[test]
    fn self_time_counts_overlapping_children_once() {
        // Children 10..40 and 30..50 overlap on 30..40; one child pokes
        // out of the parent's end and only its inside part counts.
        let spans = [
            span(1, 0, 100, None),
            span(2, 10, 40, Some(1)),
            span(3, 30, 50, Some(1)),
            span(4, 90, 120, Some(1)),
        ];
        assert_eq!(self_times_ns(&spans)[0], 100 - 40 - 10);
    }

    #[test]
    fn wrappers_answer_byte_identically() {
        use vmqs_server::{QueryServer, ServerConfig, VmExecutor};
        use vmqs_storage::SyntheticSource;

        let direct = TimedSource {
            inner: SyntheticSource::new(),
            tracer: Tracer::new(),
        };
        for page in 0..8 {
            assert_eq!(
                direct.read_page(DatasetId(2), page, 4096).unwrap(),
                SyntheticSource::new()
                    .read_page(DatasetId(2), page, 4096)
                    .unwrap()
            );
        }
        assert_eq!(direct.tracer.spans().len(), 8);

        let tracer = Tracer::new();
        let timed = TimedSource {
            inner: SyntheticSource::new(),
            tracer: Arc::clone(&tracer),
        };

        // One worker and one order of submission: both servers take the
        // same paths, exact hits and partial reuse included.
        let cfg = ServerConfig::small().with_threads(1);
        let plain = QueryServer::new(cfg.clone(), Arc::new(SyntheticSource::new()));
        let wrapped = QueryServer::with_app(
            cfg,
            TimedExecutor {
                inner: VmExecutor,
                tracer: Arc::clone(&tracer),
            },
            Arc::new(timed),
        );
        let streams = crate::gen::browse_streams(9, 0, 1);
        for q in streams.iter().take(4).flatten() {
            let a = plain.submit(*q).wait().unwrap();
            let b = wrapped.submit(*q).wait().unwrap();
            assert_eq!(a.image, b.image, "{q:?}");
            assert_eq!(a.record.path, b.record.path, "{q:?}");
        }
        plain.shutdown();
        wrapped.shutdown();
        let spans = tracer.spans();
        assert!(spans.iter().any(|s| s.name == "app.execute"));
        // Every page read happened inside an execution on the same thread.
        let execs: Vec<u64> = spans
            .iter()
            .filter(|s| s.name == "app.execute")
            .map(|s| s.id)
            .collect();
        assert!(spans
            .iter()
            .filter(|s| s.name == "storage.read_page")
            .all(|s| s.parent.is_some_and(|p| execs.contains(&p))));
    }

    #[test]
    fn guards_record_their_parent_on_the_same_thread() {
        let t = Tracer::new();
        {
            let _outer = t.span("outer", 1);
            let _inner = t.span("inner", 2);
        }
        let spans = t.spans();
        let outer = spans.iter().find(|s| s.name == "outer").unwrap();
        let inner = spans.iter().find(|s| s.name == "inner").unwrap();
        assert_eq!(inner.parent, Some(outer.id));
        assert_eq!(outer.parent, None);
        assert!(inner.start_ns >= outer.start_ns && inner.end_ns <= outer.end_ns);
    }
}
