//! Per-layer metrics of a traced run, and the reconciliation of the
//! layers against the response times they should add up to.

use std::time::Instant;

use vmqs_server::AnswerPath;

use crate::papersim::{PaperSimRun, SimRun, PASS};
use crate::serve::{Counters, ServerRun};
use crate::stats::{mean, percentile};
use crate::trace::{self_times_ns, Span, Tracer};

/// Metrics in report order: name, value, unit.
pub type Metrics = Vec<(&'static str, f64, &'static str)>;

/// Every per-layer metric, in `BENCHMARK.json` order, with its unit.
pub const LAYER_METRICS: [(&str, &str); 38] = [
    ("server.submit_us.p50", "us"),
    ("server.submit_us.p99", "us"),
    ("server.queue_wait_ms.p50", "ms"),
    ("server.queue_wait_ms.p99", "ms"),
    ("server.blocked_ms.mean", "ms"),
    ("server.engine_self_ms.mean", "ms"),
    ("server.relookups", "count"),
    ("server.duplicate_full_computes", "count"),
    ("server.path.exact", "count"),
    ("server.path.partial", "count"),
    ("server.path.full", "count"),
    ("core.overlap_evals_per_query", "count"),
    ("core.reranks_per_query", "count"),
    ("core.edges_per_query", "count"),
    ("core.swapped_out", "count"),
    ("datastore.hit_ratio", "ratio"),
    ("datastore.exact_ratio", "ratio"),
    ("datastore.commits_per_query", "count"),
    ("datastore.evictions_per_query", "count"),
    ("pagespace.hit_ratio", "ratio"),
    ("pagespace.dedup_waits", "count"),
    ("pagespace.pages_per_run", "count"),
    ("storage.read_page.calls", "count"),
    ("storage.read_page.busy_s", "s"),
    ("storage.read_page.mean_us", "us"),
    ("app.execute.calls", "count"),
    ("app.execute.busy_s", "s"),
    ("app.execute.self_s", "s"),
    ("app.execute_ms.p50", "ms"),
    ("app.execute_ms.p99", "ms"),
    ("sim.plan_s", "s"),
    ("sim.loop_s", "s"),
    ("sim.events_per_s", "1/s"),
    ("sim.pages_per_query", "count"),
    ("obs.events_per_query", "count"),
    ("obs.tracing_overhead_pct", "%"),
    ("workload.notice_delay_ms.p99", "ms"),
    ("recon.residue_pct", "%"),
];

/// Per-layer values keyed by name. A metric a workload does not reach
/// (or has too few samples for) is never set: it reads 0 and is listed by
/// [`Layers::not_applicable`].
#[derive(Default)]
pub struct Layers {
    values: Vec<(&'static str, f64)>,
    /// The reconciliation sums, in seconds, for the layer table.
    pub recon: Vec<(&'static str, f64)>,
}

impl Layers {
    fn set(&mut self, name: &'static str, v: f64) {
        if v.is_finite() {
            self.values.push((name, v));
        }
    }

    /// A quantile, unless too few samples exist for it.
    fn quantile(&mut self, name: &'static str, samples: &[f64], p: f64) {
        if let Ok(v) = percentile(samples, p) {
            self.set(name, v);
        }
    }

    fn get(&self, name: &str) -> Option<f64> {
        self.values
            .iter()
            .find(|(n, _)| *n == name)
            .map(|(_, v)| *v)
    }

    /// All metrics in `LAYER_METRICS` order.
    pub fn metrics(&self) -> Metrics {
        LAYER_METRICS
            .iter()
            .map(|&(name, unit)| (name, self.get(name).unwrap_or(0.0), unit))
            .collect()
    }

    /// The metrics this run did not measure.
    pub fn not_applicable(&self) -> Vec<&'static str> {
        LAYER_METRICS
            .iter()
            .map(|&(name, _)| name)
            .filter(|name| self.get(name).is_none())
            .collect()
    }
}

fn ratio(num: u64, den: u64) -> f64 {
    if den == 0 {
        0.0
    } else {
        num as f64 / den as f64
    }
}

/// Metrics of the crates the server and the simulator share (`core`,
/// `datastore`, `pagespace`), plus relookups and answer paths, from
/// counters over `n` queries; `paths` counts exact, partial and full
/// answers.
fn shared_crates(l: &mut Layers, c: &Counters, n: u64, paths: [usize; 3]) {
    l.set("server.relookups", c.relookups as f64);
    l.set("server.duplicate_full_computes", c.dup_full as f64);
    l.set("server.path.exact", paths[0] as f64);
    l.set("server.path.partial", paths[1] as f64);
    l.set("server.path.full", paths[2] as f64);
    l.set("core.overlap_evals_per_query", ratio(c.overlap_evals, n));
    l.set("core.reranks_per_query", ratio(c.reranks, n));
    l.set("core.edges_per_query", ratio(c.edges, n));
    l.set("core.swapped_out", c.swapped_out as f64);
    let lookups = c.ds_exact + c.ds_partial + c.ds_miss;
    let hits = c.ds_exact + c.ds_partial;
    l.set("datastore.hit_ratio", ratio(hits, lookups));
    l.set("datastore.exact_ratio", ratio(c.ds_exact, lookups));
    l.set("datastore.commits_per_query", ratio(c.ds_committed, n));
    l.set("datastore.evictions_per_query", ratio(c.ds_evicted, n));
    let pages = c.ps_hits + c.ps_misses;
    l.set("pagespace.hit_ratio", ratio(c.ps_hits, pages));
    l.set("pagespace.dedup_waits", c.ps_dedup as f64);
    l.set(
        "pagespace.pages_per_run",
        ratio(c.ps_pages_fetched, c.ps_runs),
    );
}

fn overhead_pct(plain_qps: f64, traced_qps: f64) -> f64 {
    100.0 * (plain_qps - traced_qps) / plain_qps
}

/// Spans named `name` that started inside one of `windows`.
fn in_windows<'a>(
    spans: &'a [Span],
    own: &'a [u64],
    tracer: &Tracer,
    windows: &[(Instant, Instant)],
    name: &'a str,
) -> Vec<(&'a Span, u64)> {
    let w: Vec<(u64, u64)> = windows
        .iter()
        .map(|(a, b)| (tracer.ns(*a), tracer.ns(*b)))
        .collect();
    spans
        .iter()
        .zip(own.iter().copied())
        .filter(|(s, _)| {
            s.name == name && w.iter().any(|(a, b)| s.start_ns >= *a && s.start_ns <= *b)
        })
        .collect()
}

/// Layer metrics of a traced server run. `plain_qps` is the untraced
/// run's throughput with the same seed and length.
pub fn server_layers(run: &ServerRun, tracer: &Tracer, plain_qps: f64) -> Layers {
    let mut l = Layers::default();
    let own = self_times_ns(&run.spans);
    let pick = |name| in_windows(&run.spans, &own, tracer, &run.windows, name);
    let n = run.queries.len().max(1) as u64;
    let ms = |d: std::time::Duration| d.as_secs_f64() * 1e3;

    let submit: Vec<f64> = pick("server.submit_from")
        .iter()
        .map(|(s, _)| s.dur_ns() as f64 / 1e3)
        .collect();
    l.quantile("server.submit_us.p50", &submit, 0.5);
    l.quantile("server.submit_us.p99", &submit, 0.99);
    let waits: Vec<f64> = run.queries.iter().map(|q| ms(q.record.wait_time)).collect();
    l.quantile("server.queue_wait_ms.p50", &waits, 0.5);
    l.quantile("server.queue_wait_ms.p99", &waits, 0.99);
    let blocked: Vec<f64> = run
        .queries
        .iter()
        .map(|q| ms(q.record.blocked_time))
        .collect();
    l.set("server.blocked_ms.mean", mean(&blocked));

    let execute = pick("app.execute");
    let exec_ms: Vec<f64> = execute
        .iter()
        .map(|(s, _)| s.dur_ns() as f64 / 1e6)
        .collect();
    let execute_s: f64 = exec_ms.iter().sum::<f64>() / 1e3;
    l.set("app.execute.calls", execute.len() as f64);
    l.set("app.execute.busy_s", execute_s);
    l.set(
        "app.execute.self_s",
        execute.iter().map(|(_, o)| *o as f64 * 1e-9).sum(),
    );
    l.quantile("app.execute_ms.p50", &exec_ms, 0.5);
    l.quantile("app.execute_ms.p99", &exec_ms, 0.99);
    let reads = pick("storage.read_page");
    let read_s: f64 = reads.iter().map(|(s, _)| s.dur_ns() as f64 * 1e-9).sum();
    l.set("storage.read_page.calls", reads.len() as f64);
    l.set("storage.read_page.busy_s", read_s);
    l.set(
        "storage.read_page.mean_us",
        1e6 * read_s / reads.len().max(1) as f64,
    );

    // Reconciliation. The engine's own records split each response into
    // queue wait and execution, and execution into blocked time and the
    // rest; the wrappers time `app.execute` from outside. Engine self
    // time is what execution leaves after both. The residue is the part
    // of the ledger that does not fit: the records' own sum, execute time
    // the records have no room for, and engine response times longer
    // than the generator's window around the same query.
    let sum = |f: &dyn Fn(&crate::serve::QueryObs) -> f64| run.queries.iter().map(f).sum::<f64>();
    let resp = sum(&|q| q.record.response_time().as_secs_f64());
    let wait = sum(&|q| q.record.wait_time.as_secs_f64());
    let exec = sum(&|q| q.record.exec_time.as_secs_f64());
    let blocked_s = sum(&|q| q.record.blocked_time.as_secs_f64());
    // The generator's window per query: its submit call, then the engine's
    // response, then the lag until the generator took the answer. The
    // engine stamps submission inside the submit call, so completion is
    // placed at the call's return plus the response time: the lag is a
    // lower bound.
    let outside = sum(&|q| (q.recv - q.submit_start).as_secs_f64());
    let submit_call = sum(&|q| (q.submit_end - q.submit_start).as_secs_f64());
    let lag_ms: Vec<f64> = run
        .queries
        .iter()
        .map(|q| {
            let done = q.submit_end + q.record.response_time();
            q.recv.saturating_duration_since(done).as_secs_f64() * 1e3
        })
        .collect();
    let engine_self = exec - blocked_s - execute_s;
    let overrun = sum(&|q| {
        let r = q.record.response_time().as_secs_f64();
        (r - (q.recv - q.submit_start).as_secs_f64()).max(0.0)
    });
    let residue = (resp - wait - exec).abs() + (-engine_self).max(0.0) + overrun;
    l.set("server.engine_self_ms.mean", 1e3 * engine_self / n as f64);
    l.set("recon.residue_pct", 100.0 * residue / resp);
    l.recon = vec![
        ("outside_response_s", outside),
        ("submit_call_s", submit_call),
        ("notice_lag_s", lag_ms.iter().sum::<f64>() / 1e3),
        ("response_s", resp),
        ("queue_wait_s", wait),
        ("exec_s", exec),
        ("blocked_s", blocked_s),
        ("app_execute_s", execute_s),
        ("storage_read_page_s", read_s),
        ("engine_self_s", engine_self),
        ("residue_s", residue),
    ];

    let paths = |p: AnswerPath| run.queries.iter().filter(|q| q.record.path == p).count();
    let paths = [
        paths(AnswerPath::ExactHit),
        paths(AnswerPath::PartialReuse),
        paths(AnswerPath::FullCompute),
    ];
    shared_crates(&mut l, &run.counters, n, paths);
    l.set("obs.events_per_query", run.events_per_query);
    let traced_qps = run.queries.len() as f64 / run.elapsed_s;
    l.set(
        "obs.tracing_overhead_pct",
        overhead_pct(plain_qps, traced_qps),
    );
    // In the closed loops the generator sends a client's next query as
    // soon as it notices the answer, so this lag is also the delay before
    // the next submit.
    l.quantile("workload.notice_delay_ms.p99", &lag_ms, 0.99);
    l
}

/// Per pass of 12 cases: the mean over the cases run (cases run in
/// order, so all below the highest), each case's runs averaged first.
fn per_pass(run: &PaperSimRun, f: impl Fn(&SimRun) -> f64) -> f64 {
    let cases = run.runs.iter().map(|r| r.case).max().map_or(0, |m| m + 1);
    let per_case: Vec<f64> = (0..cases)
        .map(|c| {
            let v: Vec<f64> = run.runs.iter().filter(|r| r.case == c).map(&f).collect();
            mean(&v)
        })
        .collect();
    mean(&per_case) * PASS as f64
}

/// Simulated queries per wall-clock second, with every case weighted
/// equally however many times it ran.
pub fn sim_throughput(run: &PaperSimRun) -> f64 {
    let queries = per_pass(run, |r| r.queries as f64);
    queries / per_pass(run, |r| r.wall_s)
}

/// Layer metrics of a traced `paper_sim` run. Timings are per pass of 12
/// cases. Counters, answer paths and the simulated (virtual) queue wait
/// and blocked time come from the fixed passes.
pub fn sim_layers(run: &PaperSimRun, plain_qps: f64) -> Layers {
    let mut l = Layers::default();
    let loop_s = per_pass(run, |r| r.loop_s);
    l.set("sim.plan_s", per_pass(run, |r| r.plan_s));
    l.set("sim.loop_s", loop_s);
    l.set(
        "sim.events_per_s",
        per_pass(run, |r| r.events as f64) / loop_s,
    );
    l.set(
        "obs.tracing_overhead_pct",
        overhead_pct(plain_qps, sim_throughput(run)),
    );

    let fixed = run.fixed_passes();
    let n = fixed.iter().map(|r| r.queries as u64).sum();
    let c = fixed
        .iter()
        .fold(Counters::default(), |a, r| a.plus(r.counters));
    let mut paths = [0; 3];
    for r in fixed {
        for (p, k) in paths.iter_mut().zip(r.paths) {
            *p += k;
        }
    }
    shared_crates(&mut l, &c, n, paths);
    l.set("sim.pages_per_query", ratio(c.ps_hits + c.ps_misses, n));
    let events = fixed.iter().map(|r| r.events as u64).sum();
    l.set("obs.events_per_query", ratio(events, n));
    let wait: Vec<f64> = fixed
        .iter()
        .flat_map(|r| r.wait_ms.iter().copied())
        .collect();
    l.quantile("server.queue_wait_ms.p50", &wait, 0.5);
    l.quantile("server.queue_wait_ms.p99", &wait, 0.99);
    let blocked: Vec<f64> = fixed
        .iter()
        .flat_map(|r| r.blocked_ms.iter().copied())
        .collect();
    l.set("server.blocked_ms.mean", mean(&blocked));
    l
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn benchmark_json_lists_every_layer_metric() {
        let spec = include_str!("../../BENCHMARK.json");
        for (name, unit) in LAYER_METRICS {
            let entry = format!("\"name\": \"{name}\",\n      \"unit\": \"{unit}\"");
            assert!(spec.contains(&entry), "{name} ({unit}) missing");
        }
        assert_eq!(spec.matches("\"better\"").count(), 5 + LAYER_METRICS.len());
    }

    #[test]
    fn metrics_keep_the_declared_order_and_zero_the_rest() {
        let mut l = Layers::default();
        l.set("recon.residue_pct", 0.5);
        l.set("server.submit_us.p50", f64::NAN);
        let m = l.metrics();
        assert_eq!(m.len(), LAYER_METRICS.len());
        assert_eq!(m[0], ("server.submit_us.p50", 0.0, "us"));
        assert_eq!(m[m.len() - 1], ("recon.residue_pct", 0.5, "%"));
    }
}
