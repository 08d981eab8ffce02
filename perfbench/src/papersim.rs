//! `paper_sim`: the discrete-event simulator at paper scale — the §5
//! workload under the six paper strategies and both ops.

use std::collections::HashMap;
use std::sync::Arc;

use vmqs_core::{clock, Strategy};
use vmqs_microscope::VmOp;
use vmqs_sim::{run_sim_app, ClientStream, SimApplication, SimConfig, SimReport, VmSimApp};
use vmqs_workload::{generate, WorkloadConfig};

use crate::check::sim_digest;
use crate::gen::mix;
use crate::serve::Counters;
use crate::trace::{self_times_ns, TimedSimApp, Tracer};

/// Simulated query threads.
pub const SIM_THREADS: usize = 4;
/// The seed whose digests are stored with the benchmark.
pub const REFERENCE_SEED: u64 = 42;
/// Cases in one pass: 6 strategies × 2 ops.
pub const PASS: usize = 12;
/// Passes generated at set-up, each with workloads of its own. One
/// workload's overlap sets much of a simulation's cost, so a run that
/// cycled through 12 workloads would measure the seed more than the
/// simulator; a run takes fresh passes for as long as it lasts.
const POOL_PASSES: u64 = 8;
/// Passes every run makes, however long it takes. The simulated response
/// times come from these alone, so they depend on the seed alone; one
/// pass puts a single workload of each strategy in the tail.
const FIXED_PASSES: usize = 2;
const STORED_DIGESTS: &str = include_str!("../sim_digests.txt");

/// One simulator configuration with its workload.
pub struct SimCase {
    pub strategy: Strategy,
    pub op: VmOp,
    pub cfg: SimConfig,
    pub streams: Vec<ClientStream>,
}

impl SimCase {
    pub fn label(&self) -> String {
        format!("{} {}", self.strategy.name(), self.op.name())
    }
}

/// Pass `pass` of the cases for `seed`: 6 strategies × 2 ops, 4 threads,
/// DS 64 MB, PS 32 MB, interactive clients. Each case draws its own
/// workload from the seed and its place in the pool.
fn cases(seed: u64, pass: u64, observe: bool) -> Vec<SimCase> {
    let mut out = Vec::new();
    for op in [VmOp::Subsample, VmOp::Average] {
        for strategy in Strategy::paper_set() {
            let n = pass * PASS as u64 + out.len() as u64;
            let streams = generate(&WorkloadConfig::paper(op, mix(seed, n)));
            let cfg = SimConfig::paper_baseline()
                .with_strategy(strategy)
                .with_threads(SIM_THREADS)
                .with_ds_budget(64 << 20)
                .with_ps_budget(32 << 20)
                .with_observe(observe);
            out.push(SimCase {
                strategy,
                op,
                cfg,
                streams,
            });
        }
    }
    debug_assert_eq!(out.len(), PASS);
    out
}

fn run_case(c: &SimCase) -> SimReport {
    run_sim_app(c.cfg, VmSimApp::new(c.cfg.cost), c.streams.clone())
}

/// Digest lines of the reference seed, as stored in `sim_digests.txt`.
pub fn reference_digests() -> Vec<String> {
    cases(REFERENCE_SEED, 0, false)
        .iter()
        .map(|c| format!("{} {:016x}", c.label(), sim_digest(&run_case(c))))
        .collect()
}

/// One simulation of the timed phase.
pub struct SimRun {
    pub case: usize,
    pub wall_s: f64,
    pub queries: usize,
    pub failed: u64,
    pub digest: u64,
    /// Virtual response times, in seconds.
    pub response_s: Vec<f64>,
    /// Virtual queue wait and blocked time per query, in ms.
    pub wait_ms: Vec<f64>,
    pub blocked_ms: Vec<f64>,
    /// Exact, partial and full answers.
    pub paths: [usize; 3],
    pub counters: Counters,
    pub events: usize,
    /// Traced only: seconds inside `plan` calls, and the rest of the
    /// `run_sim_app` call (the event loop's self time).
    pub plan_s: f64,
    pub loop_s: f64,
}

pub struct PaperSimRun {
    pub setup_s: Vec<f64>,
    pub runs: Vec<SimRun>,
    pub gate: Result<usize, String>,
}

impl PaperSimRun {
    /// The runs of the passes every run makes.
    pub fn fixed_passes(&self) -> &[SimRun] {
        &self.runs[..FIXED_PASSES * PASS]
    }
}

/// Runs whole cases through the pool, in order and cycling if it runs
/// out, until `seconds` have passed and the fixed passes are done.
pub fn paper_sim(
    tracer: Option<&Arc<Tracer>>,
    seed: u64,
    seconds: u64,
    reps: usize,
    reference: bool,
) -> PaperSimRun {
    let mut setup_s = Vec::new();
    let mut all = Vec::new();
    for _ in 0..reps.max(1) {
        let t = clock::now();
        all = (0..POOL_PASSES)
            .flat_map(|p| cases(seed, p, tracer.is_some()))
            .collect();
        // The warmup simulates the first case once.
        std::hint::black_box(run_case(&all[0]));
        setup_s.push(t.elapsed().as_secs_f64());
    }
    let mut runs = Vec::new();
    let start = clock::now();
    let mut i = 0;
    while i < FIXED_PASSES * PASS || start.elapsed().as_secs_f64() < seconds as f64 {
        let k = i % all.len();
        runs.push(match tracer {
            None => timed(&all[k], k, VmSimApp::new(all[k].cfg.cost), None),
            Some(t) => traced(&all[k], k, t),
        });
        i += 1;
    }
    let gate = check(&all, &runs, reference);
    PaperSimRun {
        setup_s,
        runs,
        gate,
    }
}

fn timed<A: SimApplication<Spec = vmqs_microscope::VmQuery>>(
    c: &SimCase,
    case: usize,
    app: A,
    tracer: Option<&Tracer>,
) -> SimRun {
    let streams = c.streams.clone();
    let t = clock::now();
    let report = {
        let _span = tracer.map(|t| t.span("sim.run_sim_app", case as u64));
        run_sim_app(c.cfg, app, streams)
    };
    let wall_s = t.elapsed().as_secs_f64();
    let (ds, ps, g) = (report.ds_stats, report.ps_stats, report.graph_stats);
    let q = &report.records;
    let exact = q.iter().filter(|r| r.exact_hit || r.grafted).count();
    let partial = q
        .iter()
        .filter(|r| !r.exact_hit && !r.grafted && r.covered_fraction > 0.0);
    let partial = partial.count();
    SimRun {
        case,
        wall_s,
        queries: q.len(),
        failed: report.failed + report.timed_out + report.rejected + report.shed,
        digest: sim_digest(&report),
        response_s: q.iter().map(|r| r.response_time()).collect(),
        wait_ms: q.iter().map(|r| r.wait_time() * 1e3).collect(),
        blocked_ms: q.iter().map(|r| r.blocked * 1e3).collect(),
        paths: [exact, partial, q.len() - exact - partial],
        counters: Counters {
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
            relookups: 0,
            dup_full: 0,
        },
        events: report.events.len(),
        plan_s: 0.0,
        loop_s: 0.0,
    }
}

fn traced(c: &SimCase, case: usize, tracer: &Arc<Tracer>) -> SimRun {
    let app = TimedSimApp {
        inner: VmSimApp::new(c.cfg.cost),
        tracer: Arc::clone(tracer),
    };
    let before = tracer.spans().len();
    let mut run = timed(c, case, app, Some(tracer));
    let spans = tracer.spans();
    let new = &spans[before..];
    let own = self_times_ns(new);
    for (s, own) in new.iter().zip(own) {
        match s.name {
            "sim.plan" => run.plan_s += s.dur_ns() as f64 * 1e-9,
            "sim.run_sim_app" => run.loop_s += own as f64 * 1e-9,
            _ => {}
        }
    }
    run
}

/// Every simulation completed all its queries; repeats of a case gave
/// the same report; and, with `reference`, the reference seed still
/// gives the stored digests.
fn check(all: &[SimCase], runs: &[SimRun], reference: bool) -> Result<usize, String> {
    let mut first: HashMap<usize, u64> = HashMap::new();
    for r in runs {
        let want = all[r.case].streams.iter().map(|s| s.queries.len()).sum();
        if r.queries != want || r.failed > 0 {
            return Err(format!(
                "{}: {} of {want} queries completed, {} failed",
                all[r.case].label(),
                r.queries,
                r.failed
            ));
        }
        if *first.entry(r.case).or_insert(r.digest) != r.digest {
            return Err(format!(
                "{}: a repeat gave another report",
                all[r.case].label()
            ));
        }
    }
    if !reference {
        return Ok(runs.len());
    }
    let stored: Vec<&str> = STORED_DIGESTS
        .lines()
        .filter(|l| !l.is_empty() && !l.starts_with('#'))
        .collect();
    let got = reference_digests();
    if stored != got {
        return Err(format!(
            "reference seed {REFERENCE_SEED}: digests {got:?} differ from the stored {stored:?}"
        ));
    }
    Ok(runs.len() + got.len())
}
