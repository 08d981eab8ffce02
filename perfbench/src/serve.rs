//! The three workloads on the threaded engine: `browse`, `batch` and
//! `hot_hits`. Each sets up, runs one timed phase and checks its answers
//! outside that phase.

use std::sync::Arc;
use std::time::{Duration, Instant};

use vmqs_core::{clock, ClientId, Strategy};
use vmqs_microscope::VmQuery;
use vmqs_server::{
    AnswerPath, AppExecutor, QueryHandle, QueryRecord, QueryResult, QueryServer, ServerConfig,
    ServerError,
};

use crate::check::{check_answers, check_conservation, Sample, Sampler};
use crate::gen::{
    batch_round, browse_streams, closed_loop, collect, hot_tiles, replay, windowed, Done, Sent,
    Target, HOT_TILES,
};
use crate::trace::{Span, Tracer};

/// Worker threads of every server workload (the host has two cores).
pub const WORKERS: usize = 2;
/// Epochs (of 256 queries) in one `batch` round.
const BATCH_EPOCHS: u64 = 8;
/// Queries `hot_hits` keeps outstanding.
const HOT_WINDOW: usize = 16;
/// Queries per `hot_hits` warmup block; the steady-state test compares
/// consecutive blocks.
const HOT_BLOCK: usize = 1024;
/// Largest relative change in overlap evaluations per query between two
/// warmup blocks that counts as levelled off.
const HOT_LEVEL: f64 = 0.05;
/// Warmup time after which `hot_hits` gives up on reaching steady state
/// (it normally takes well under two seconds).
const HOT_WARMUP_LIMIT: Duration = Duration::from_secs(20);
/// Epoch numbers at and above this seed the warmup, below it the timed
/// phase, so the two never share queries.
const WARM_EPOCH: u64 = 1 << 32;

/// Every server workload's configuration: CNBF, two workers, a 16 MiB
/// Data Store and an 8 MiB Page Space.
fn server_config(observe: bool, paused: bool) -> ServerConfig {
    ServerConfig::small()
        .with_strategy(Strategy::Cnbf)
        .with_threads(WORKERS)
        .with_ds_budget(16 << 20)
        .with_ps_budget(8 << 20)
        .with_observability(observe)
        .with_start_paused(paused)
}

type Answer = Result<QueryResult, ServerError>;

/// The server as the generator sees it; records submit and wait spans
/// when traced.
struct Srv<'a, A: AppExecutor<Spec = VmQuery>> {
    server: &'a QueryServer<A>,
    tracer: Option<&'a Tracer>,
}

impl<A: AppExecutor<Spec = VmQuery>> Target for Srv<'_, A> {
    type Query = VmQuery;
    type Handle = QueryHandle;
    type Output = Answer;

    fn submit(&self, client: usize, q: VmQuery) -> QueryHandle {
        let mut span = self.tracer.map(|t| t.span("server.submit_from", 0));
        let h = self.server.submit_from(ClientId(client as u64), q);
        if let Some(s) = span.as_mut() {
            s.set_tag(h.id.0);
        }
        h
    }

    fn poll(&self, h: &QueryHandle) -> Option<Answer> {
        h.try_wait()
    }

    fn wait(&self, h: QueryHandle) -> Answer {
        let _span = self.tracer.map(|t| t.span("server.wait", h.id.0));
        h.wait()
    }
}

/// One answered query of a timed phase.
pub struct QueryObs {
    /// Just before the query's submit call (untraced `batch`: the batch's).
    pub submit_start: Instant,
    pub submit_end: Instant,
    pub recv: Instant,
    pub record: QueryRecord,
}

/// Server counters, read between phases.
#[derive(Clone, Copy, Debug, Default)]
pub struct Counters {
    pub ds_exact: u64,
    pub ds_partial: u64,
    pub ds_miss: u64,
    pub ds_committed: u64,
    pub ds_evicted: u64,
    pub ps_hits: u64,
    pub ps_misses: u64,
    pub ps_dedup: u64,
    pub ps_runs: u64,
    pub ps_pages_fetched: u64,
    pub overlap_evals: u64,
    pub reranks: u64,
    pub edges: u64,
    pub swapped_out: u64,
    pub relookups: u64,
    pub dup_full: u64,
}

impl Counters {
    fn read<A: AppExecutor>(s: &QueryServer<A>) -> Self {
        let ds = s.ds_stats();
        let ps = s.ps_stats();
        let g = s.graph_stats();
        Counters {
            ds_exact: ds.exact_hits,
            ds_partial: ds.partial_hits,
            ds_miss: ds.misses,
            ds_committed: ds.committed,
            ds_evicted: ds.evicted,
            ps_hits: ps.hits,
            ps_misses: ps.misses,
            ps_dedup: ps.dedup_waits,
            ps_runs: ps.runs_issued,
            ps_pages_fetched: ps.pages_fetched,
            overlap_evals: g.overlap_evals,
            reranks: g.reranks,
            edges: g.edges_created,
            swapped_out: g.swapped_out,
            relookups: s.relookup_stats().0,
            dup_full: s.summary().duplicate_full_computes,
        }
    }

    /// `f(self, other)` field by field.
    fn zip(self, o: Self, f: impl Fn(u64, u64) -> u64) -> Self {
        Counters {
            ds_exact: f(self.ds_exact, o.ds_exact),
            ds_partial: f(self.ds_partial, o.ds_partial),
            ds_miss: f(self.ds_miss, o.ds_miss),
            ds_committed: f(self.ds_committed, o.ds_committed),
            ds_evicted: f(self.ds_evicted, o.ds_evicted),
            ps_hits: f(self.ps_hits, o.ps_hits),
            ps_misses: f(self.ps_misses, o.ps_misses),
            ps_dedup: f(self.ps_dedup, o.ps_dedup),
            ps_runs: f(self.ps_runs, o.ps_runs),
            ps_pages_fetched: f(self.ps_pages_fetched, o.ps_pages_fetched),
            overlap_evals: f(self.overlap_evals, o.overlap_evals),
            reranks: f(self.reranks, o.reranks),
            edges: f(self.edges, o.edges),
            swapped_out: f(self.swapped_out, o.swapped_out),
            relookups: f(self.relookups, o.relookups),
            dup_full: f(self.dup_full, o.dup_full),
        }
    }

    fn since(self, earlier: Self) -> Self {
        self.zip(earlier, |a, b| a - b)
    }

    pub fn plus(self, o: Self) -> Self {
        self.zip(o, |a, b| a + b)
    }
}

/// Everything a server workload's run yields.
pub struct ServerRun {
    /// Wall time of each set-up, in seconds.
    pub setup_s: Vec<f64>,
    /// Wall time of the timed phase, in seconds.
    pub elapsed_s: f64,
    /// Timed-phase intervals on the tracer's clock (one per batch round).
    pub windows: Vec<(Instant, Instant)>,
    pub queries: Vec<QueryObs>,
    pub attempted: usize,
    pub failed: usize,
    /// Counters over the timed phase only.
    pub counters: Counters,
    /// Engine events per query (0 unless the server observes).
    pub events_per_query: f64,
    /// The correctness gate's verdict: answers checked, or the failure.
    pub gate: Result<usize, String>,
    pub spans: Vec<Span>,
}

/// Room for every answer of a run, reserved up front so the vector never
/// reallocates mid-run (untouched capacity is not resident memory).
fn observations(seconds: u64) -> Vec<QueryObs> {
    Vec::with_capacity(seconds as usize * 8_000)
}

/// Builds a server for a configuration: plain, or with timing wrappers.
pub type Make<'a, A> = &'a dyn Fn(ServerConfig) -> QueryServer<A>;

/// A set-up server with its warmup's bookkeeping.
struct Ready<A: AppExecutor<Spec = VmQuery>> {
    server: QueryServer<A>,
    sampler: Sampler,
    submitted: usize,
    failed: usize,
}

/// Runs `setup` `reps` times, timing each, and keeps the last result.
fn repeat_setup<T>(
    reps: usize,
    mut setup: impl FnMut() -> Result<T, String>,
    mut discard: impl FnMut(T),
) -> Result<(T, Vec<f64>), String> {
    let mut times = Vec::with_capacity(reps);
    let mut kept = None;
    for _ in 0..reps.max(1) {
        if let Some(old) = kept.take() {
            discard(old);
        }
        let t = clock::now();
        kept = Some(setup()?);
        times.push(t.elapsed().as_secs_f64());
    }
    Ok((kept.expect("at least one set-up ran"), times))
}

/// Files one answer: its record if it arrived, a failure if not.
fn file(
    d: Done<Answer>,
    sampler: &mut Sampler,
    obs: Option<&mut Vec<QueryObs>>,
    failed: &mut usize,
) {
    match d.out {
        Ok(r) => {
            sampler.offer(&r);
            if let Some(obs) = obs {
                obs.push(QueryObs {
                    submit_start: d.submit_start,
                    submit_end: d.submit_end,
                    recv: d.recv,
                    record: r.record,
                });
            }
        }
        Err(_) => *failed += 1,
    }
}

/// Checks conservation and the sampled answers, then shuts the server
/// down; returns the gate's verdict and the engine events per query.
fn finish<A: AppExecutor<Spec = VmQuery>>(
    server: QueryServer<A>,
    submitted: usize,
    samples: &[Sample],
    required: &[AnswerPath],
) -> (Result<usize, String>, f64) {
    let events = server.events().len();
    let gate = check_conservation(submitted, &server.summary())
        .and_then(|()| check_answers(samples, required));
    server.shutdown();
    (gate, events as f64 / submitted.max(1) as f64)
}

const ALL_PATHS: [AnswerPath; 3] = [
    AnswerPath::ExactHit,
    AnswerPath::PartialReuse,
    AnswerPath::FullCompute,
];

/// `browse`: 16 closed-loop clients, one generator thread.
pub fn browse<A: AppExecutor<Spec = VmQuery>>(
    make: Make<'_, A>,
    tracer: Option<&Arc<Tracer>>,
    seed: u64,
    seconds: u64,
    reps: usize,
) -> Result<ServerRun, String> {
    // Enough epochs that no client runs dry at 2,000 queries a second.
    let epochs = seconds * 8 + 2;
    let ((ready, timed), setup_s) = repeat_setup(
        reps,
        || {
            let warm = browse_streams(seed, WARM_EPOCH, 1);
            let timed = browse_streams(seed, 0, epochs);
            let server = make(server_config(tracer.is_some(), false));
            let mut sampler = Sampler::new(seed);
            let mut failed = 0;
            let target = Srv {
                server: &server,
                tracer: None,
            };
            let submitted = closed_loop(&target, &warm, None, |d| {
                file(d, &mut sampler, None, &mut failed)
            });
            let ready = Ready {
                server,
                sampler,
                submitted,
                failed,
            };
            Ok((ready, timed))
        },
        |(r, _)| r.server.shutdown(),
    )?;
    let Ready {
        server,
        mut sampler,
        submitted: warm_sent,
        failed: warm_failed,
    } = ready;
    let target = Srv {
        server: &server,
        tracer: tracer.map(|t| &**t),
    };
    let before = Counters::read(&server);
    let mut queries = observations(seconds);
    let mut failed = 0;
    let mut per_client = vec![0; timed.len()];
    let start = clock::now();
    let deadline = start + Duration::from_secs(seconds);
    let sent = closed_loop(&target, &timed, Some(deadline), |d| {
        per_client[d.client] += 1;
        file(d, &mut sampler, Some(&mut queries), &mut failed)
    });
    let end = clock::now();
    let counters = Counters::read(&server).since(before);
    let ran_dry = per_client.iter().zip(&timed).any(|(n, s)| *n == s.len());
    let spans = tracer.map_or_else(Vec::new, |t| t.spans());
    let (mut gate, events_per_query) =
        finish(server, warm_sent + sent, &sampler.samples, &ALL_PATHS);
    if warm_failed > 0 {
        gate = Err(format!("{warm_failed} warmup queries failed"));
    }
    if ran_dry {
        gate = Err("the generated streams were too short for the run".into());
    }
    Ok(ServerRun {
        setup_s,
        elapsed_s: (end - start).as_secs_f64(),
        windows: vec![(start, end)],
        queries,
        attempted: sent,
        failed,
        counters,
        events_per_query,
        gate,
        spans,
    })
}

/// Submits one batch to a paused server and resumes it. Traced, the batch
/// is admitted one `submit_from` at a time (what `submit_batch` does
/// inside), so each admission gets its own span under the batch's span.
fn submit_round<A: AppExecutor<Spec = VmQuery>>(
    server: &QueryServer<A>,
    tracer: Option<&Tracer>,
    batch: Vec<VmQuery>,
) -> Vec<Sent<QueryHandle>> {
    let handles = match tracer {
        None => {
            let start = clock::now();
            let handles = server.submit_batch(batch);
            let end = clock::now();
            handles.into_iter().map(|h| (start, end, h)).collect()
        }
        Some(t) => {
            let _span = t.span("server.submit_batch", batch.len() as u64);
            let target = Srv {
                server,
                tracer: Some(t),
            };
            let send = |q| {
                let start = clock::now();
                let h = target.submit(0, q);
                (start, clock::now(), h)
            };
            batch.into_iter().map(send).collect()
        }
    };
    server.resume_workers();
    handles
}

/// `batch`: rounds of 2,048 queries, each submitted to a paused server
/// that is then resumed.
pub fn batch<A: AppExecutor<Spec = VmQuery>>(
    make: Make<'_, A>,
    tracer: Option<&Arc<Tracer>>,
    seed: u64,
    seconds: u64,
    reps: usize,
) -> Result<ServerRun, String> {
    let observe = tracer.is_some();
    let (first, setup_s) = repeat_setup(
        reps,
        || {
            // The warmup runs one small batch through a throwaway server.
            let server = make(server_config(observe, true));
            let warm = batch_round(seed, WARM_EPOCH, 1);
            let n = warm.len();
            let handles = submit_round(&server, None, warm);
            let failed = handles
                .into_iter()
                .map(|(_, _, h)| h.wait())
                .filter(Result::is_err)
                .count();
            server.shutdown();
            if failed > 0 {
                return Err(format!("{failed} of {n} warmup queries failed"));
            }
            Ok(batch_round(seed, 0, BATCH_EPOCHS))
        },
        drop,
    )?;
    let mut next = Some(first);
    let mut run = ServerRun {
        setup_s,
        elapsed_s: 0.0,
        windows: Vec::new(),
        queries: observations(seconds),
        attempted: 0,
        failed: 0,
        counters: Counters::default(),
        events_per_query: 0.0,
        gate: Ok(0),
        spans: Vec::new(),
    };
    let mut sampler = Sampler::new(seed);
    let mut events = 0.0;
    let mut round = 0;
    while let Some(batch) = next.take() {
        let server = make(server_config(observe, true));
        let target = Srv {
            server: &server,
            tracer: tracer.map(|t| &**t),
        };
        let n = batch.len();
        let start = clock::now();
        let handles = submit_round(&server, target.tracer, batch);
        collect(&target, handles, |d| {
            file(d, &mut sampler, Some(&mut run.queries), &mut run.failed)
        });
        let end = clock::now();
        run.windows.push((start, end));
        run.elapsed_s += (end - start).as_secs_f64();
        run.attempted += n;
        run.counters = run.counters.plus(Counters::read(&server));
        round += 1;
        let (gate, epq) = finish(server, n, &[], &[]);
        events += epq * n as f64;
        if let Err(e) = gate {
            run.gate = Err(e);
        }
        if run.elapsed_s < seconds as f64 {
            next = Some(batch_round(seed, round * BATCH_EPOCHS, BATCH_EPOCHS));
        }
    }
    run.events_per_query = events / run.attempted as f64;
    if run.gate.is_ok() {
        run.gate = check_answers(&sampler.samples, &ALL_PATHS);
    }
    run.spans = tracer.map_or_else(Vec::new, |t| t.spans());
    Ok(run)
}

/// `hot_hits`: 128 cached tiles replayed with 16 queries outstanding,
/// timed from steady state on.
pub fn hot_hits<A: AppExecutor<Spec = VmQuery>>(
    make: Make<'_, A>,
    tracer: Option<&Arc<Tracer>>,
    seed: u64,
    seconds: u64,
    reps: usize,
) -> Result<ServerRun, String> {
    let ((ready, steady), setup_s) = repeat_setup(
        reps,
        || {
            let server = make(server_config(tracer.is_some(), false));
            let target = Srv {
                server: &server,
                tracer: None,
            };
            let mut sampler = Sampler::new(seed);
            let mut failed = 0;
            let mut sent = windowed(
                &target,
                &mut hot_tiles().into_iter(),
                HOT_WINDOW,
                HOT_TILES,
                None,
                |d| file(d, &mut sampler, None, &mut failed),
            );
            let mut tiles = replay(hot_tiles(), seed);
            let steady = warm_to_steady(&server, &mut |n| {
                let k = windowed(&target, &mut tiles, HOT_WINDOW, n, None, |d| {
                    file(d, &mut sampler, None, &mut failed)
                });
                sent += k;
            });
            let ready = Ready {
                server,
                sampler,
                submitted: sent,
                failed,
            };
            Ok((ready, steady))
        },
        |(r, _)| r.server.shutdown(),
    )?;
    let Ready {
        server,
        mut sampler,
        submitted: warm_sent,
        failed: warm_failed,
    } = ready;
    let target = Srv {
        server: &server,
        tracer: tracer.map(|t| &**t),
    };
    // The timed phase continues the replay where the warmup left it.
    let mut tiles = replay(hot_tiles(), seed).skip(warm_sent - HOT_TILES);
    let before = Counters::read(&server);
    let mut queries = observations(seconds);
    let mut failed = 0;
    let start = clock::now();
    let deadline = start + Duration::from_secs(seconds);
    let sent = windowed(
        &target,
        &mut tiles,
        HOT_WINDOW,
        usize::MAX,
        Some(deadline),
        |d| file(d, &mut sampler, Some(&mut queries), &mut failed),
    );
    let end = clock::now();
    let counters = Counters::read(&server).since(before);
    let spans = tracer.map_or_else(Vec::new, |t| t.spans());
    let required = [AnswerPath::ExactHit, AnswerPath::FullCompute];
    let (mut gate, events_per_query) =
        finish(server, warm_sent + sent, &sampler.samples, &required);
    if let Err(e) = steady {
        gate = Err(e);
    } else if warm_failed > 0 {
        gate = Err(format!("{warm_failed} warmup queries failed"));
    }
    Ok(ServerRun {
        setup_s,
        elapsed_s: (end - start).as_secs_f64(),
        windows: vec![(start, end)],
        queries,
        attempted: sent,
        failed,
        counters,
        events_per_query,
        gate,
        spans,
    })
}

/// Replays blocks of `HOT_BLOCK` queries through `run_block` until the
/// Data Store has started evicting and the overlap evaluations per query
/// of two consecutive blocks differ by less than `HOT_LEVEL`. An error
/// means steady state was not reached within `HOT_WARMUP_LIMIT`, and the
/// run must not be timed.
fn warm_to_steady<A: AppExecutor<Spec = VmQuery>>(
    server: &QueryServer<A>,
    run_block: &mut dyn FnMut(usize),
) -> Result<(), String> {
    let mut prev: Option<f64> = None;
    let mut last = Counters::read(server);
    let start = clock::now();
    while start.elapsed() < HOT_WARMUP_LIMIT {
        run_block(HOT_BLOCK);
        let now = Counters::read(server);
        let per_query = (now.overlap_evals - last.overlap_evals) as f64 / HOT_BLOCK as f64;
        last = now;
        if now.ds_evicted > 0 {
            if let Some(p) = prev {
                if (per_query - p).abs() <= HOT_LEVEL * p.max(1.0) {
                    return Ok(());
                }
            }
            prev = Some(per_query);
        }
    }
    Err(format!(
        "no steady state after {HOT_WARMUP_LIMIT:?} of warmup: evictions {}, \
         overlap evaluations per query still moving",
        last.ds_evicted
    ))
}
