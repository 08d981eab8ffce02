//! The vmqs benchmark: four seeded workloads against the threaded query
//! server and the discrete-event simulator, timed end to end, and in a
//! separate traced run layer by layer from outside the program.
//!
//! ```text
//! cargo run --release --manifest-path perfbench/Cargo.toml -- \
//!     --workload browse --seed 1 --seconds 10 --trace 0
//! ```
//!
//! The last line of standard output is one JSON object with the keys
//! `correct`, `attempted`, `failed` and `metrics`. With `--trace 0` the
//! metrics are the end-to-end ones; with `--trace 1` the per-layer ones.
//! Details (host record, per-layer table, spans) go to `--out`
//! (default `.bench_out`).

mod check;
mod gen;
mod layers;
mod papersim;
mod serve;
mod stats;
mod trace;

use std::fmt::Write as _;
use std::path::{Path, PathBuf};
use std::sync::Arc;

use vmqs_server::{QueryServer, ServerConfig, VmExecutor};
use vmqs_storage::SyntheticSource;

use layers::{server_layers, sim_layers, sim_throughput, Layers, Metrics};
use papersim::{paper_sim, PaperSimRun};
use serve::ServerRun;
use stats::{median, percentile};
use trace::{write_spans, TimedExecutor, TimedSource, Tracer};

/// Set-ups per end-to-end run; `setup_s` is their median.
const SETUP_REPS: usize = 5;
const WORKLOADS: [&str; 4] = ["browse", "batch", "hot_hits", "paper_sim"];

struct Args {
    workload: String,
    seed: u64,
    seconds: u64,
    trace: bool,
    out: PathBuf,
    record_digests: bool,
}

fn parse_args() -> Result<Args, String> {
    let mut a = Args {
        workload: String::new(),
        seed: 1,
        seconds: 10,
        trace: false,
        out: PathBuf::from(".bench_out"),
        record_digests: false,
    };
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        if flag == "--record-digests" {
            a.record_digests = true;
            continue;
        }
        let v = it.next().ok_or(format!("{flag} needs a value"))?;
        let num = |v: &str| {
            v.parse::<u64>()
                .map_err(|_| format!("{flag}: not a number: {v}"))
        };
        match flag.as_str() {
            "--workload" => a.workload = v,
            "--seed" => a.seed = num(&v)?,
            "--seconds" => a.seconds = num(&v)?.max(1),
            "--trace" => a.trace = num(&v)? != 0,
            "--out" => a.out = PathBuf::from(v),
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    if !a.record_digests && !WORKLOADS.contains(&a.workload.as_str()) {
        return Err(format!("--workload must be one of {WORKLOADS:?}"));
    }
    Ok(a)
}

fn main() {
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("perfbench: {e}");
            std::process::exit(2);
        }
    };
    if args.record_digests {
        println!("# paper_sim digests of seed {}", papersim::REFERENCE_SEED);
        for line in papersim::reference_digests() {
            println!("{line}");
        }
        return;
    }
    if let Err(e) = run(&args) {
        eprintln!("perfbench: {e}");
        std::process::exit(1);
    }
}

/// The outcome of one invocation.
struct Outcome {
    gate: Result<usize, String>,
    attempted: usize,
    failed: usize,
    metrics: Metrics,
    /// Extra JSON members for the detail file.
    detail: String,
}

fn run(a: &Args) -> Result<(), String> {
    std::fs::create_dir_all(&a.out).map_err(|e| format!("{}: {e}", a.out.display()))?;
    let o = match (a.workload.as_str(), a.trace) {
        ("paper_sim", false) => sim_e2e(a)?,
        ("paper_sim", true) => sim_traced(a)?,
        (_, false) => server_e2e(a)?,
        (_, true) => server_traced(a)?,
    };
    if let Err(e) = &o.gate {
        eprintln!("perfbench: correctness gate failed: {e}");
    }
    let kind = if a.trace { "layers" } else { "e2e" };
    let host = host_record(a);
    let mut detail = format!(
        "{{\"host\": {host}, \"workload\": \"{}\", \"seconds\": {}, \"trace\": {},\n \"gate\": {},\n \"metrics\": {}",
        a.workload,
        a.seconds,
        a.trace,
        json_str(&match &o.gate {
            Ok(n) => format!("ok: {n} checks"),
            Err(e) => format!("failed: {e}"),
        }),
        metrics_json(&o.metrics),
    );
    detail.push_str(&o.detail);
    detail.push_str("}\n");
    let path = a.out.join(format!("{}.{kind}.json", a.workload));
    std::fs::write(&path, &detail).map_err(|e| format!("{}: {e}", path.display()))?;
    println!("{{\"host\": {host}}}");
    println!(
        "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {}}}",
        o.gate.is_ok(),
        o.attempted.max(1),
        o.failed,
        metrics_json(&o.metrics)
    );
    Ok(())
}

fn plain_server(cfg: ServerConfig) -> QueryServer<VmExecutor> {
    QueryServer::new(cfg, Arc::new(SyntheticSource::new()))
}

fn run_server_workload<A: vmqs_server::AppExecutor<Spec = vmqs_microscope::VmQuery>>(
    a: &Args,
    make: serve::Make<'_, A>,
    tracer: Option<&Arc<Tracer>>,
    reps: usize,
) -> Result<ServerRun, String> {
    match a.workload.as_str() {
        "browse" => serve::browse(make, tracer, a.seed, a.seconds, reps),
        "batch" => serve::batch(make, tracer, a.seed, a.seconds, reps),
        _ => serve::hot_hits(make, tracer, a.seed, a.seconds, reps),
    }
}

fn qps(run: &ServerRun) -> f64 {
    run.queries.len() as f64 / run.elapsed_s
}

fn server_e2e(a: &Args) -> Result<Outcome, String> {
    let run = run_server_workload(a, &plain_server, None, SETUP_REPS)?;
    let resp: Vec<f64> = run
        .queries
        .iter()
        .map(|q| q.record.response_time().as_secs_f64() * 1e3)
        .collect();
    let metrics = vec![
        ("throughput_qps", qps(&run), "1/s"),
        ("latency_p50_ms", percentile(&resp, 0.5)?, "ms"),
        ("latency_p99_ms", percentile(&resp, 0.99)?, "ms"),
        ("setup_s", median(&run.setup_s), "s"),
        ("peak_rss_mb", peak_rss_mb()?, "MB"),
    ];
    let detail = format!(
        ",\n \"samples\": {}, \"setup_runs_s\": {:?}, \"timed_s\": {}",
        resp.len(),
        run.setup_s,
        run.elapsed_s
    );
    Ok(Outcome {
        gate: run.gate,
        attempted: run.attempted,
        failed: run.failed,
        metrics,
        detail,
    })
}

fn server_traced(a: &Args) -> Result<Outcome, String> {
    let plain = run_server_workload(a, &plain_server, None, 1)?;
    let tracer = Tracer::new();
    let make = |cfg: ServerConfig| {
        let exec = TimedExecutor {
            inner: VmExecutor,
            tracer: Arc::clone(&tracer),
        };
        let source = TimedSource {
            inner: SyntheticSource::new(),
            tracer: Arc::clone(&tracer),
        };
        QueryServer::with_app(cfg, exec, Arc::new(source))
    };
    let run = run_server_workload(a, &make, Some(&tracer), 1)?;
    let layers = server_layers(&run, &tracer, qps(&plain));
    let spans_path = a.out.join(format!("{}.spans.csv", a.workload));
    write_spans(&spans_path, &run.spans).map_err(|e| format!("{}: {e}", spans_path.display()))?;
    let gate = plain.gate.and(run.gate);
    Ok(Outcome {
        gate,
        attempted: run.attempted,
        failed: run.failed,
        detail: layer_detail(&layers, &spans_path, run.spans.len()),
        metrics: layers.metrics(),
    })
}

fn sim_e2e(a: &Args) -> Result<Outcome, String> {
    let run = paper_sim(None, a.seed, a.seconds, SETUP_REPS, true);
    let resp = fixed_pass_responses_ms(&run);
    let metrics = vec![
        ("throughput_qps", sim_throughput(&run), "1/s"),
        ("latency_p50_ms", percentile(&resp, 0.5)?, "ms"),
        ("latency_p99_ms", percentile(&resp, 0.99)?, "ms"),
        ("setup_s", median(&run.setup_s), "s"),
        ("peak_rss_mb", peak_rss_mb()?, "MB"),
    ];
    let wall_s: Vec<String> = run
        .runs
        .iter()
        .map(|r| format!("[{}, {}]", r.case, r.wall_s))
        .collect();
    let detail = format!(
        ",\n \"simulations\": {}, \"virtual_samples\": {}, \"setup_runs_s\": {:?},\n \"case_wall_s\": [{}]",
        run.runs.len(),
        resp.len(),
        run.setup_s,
        wall_s.join(", ")
    );
    Ok(sim_outcome(run, metrics, detail))
}

/// Virtual response times of the fixed passes, in ms.
fn fixed_pass_responses_ms(run: &PaperSimRun) -> Vec<f64> {
    run.fixed_passes()
        .iter()
        .flat_map(|r| r.response_s.iter().map(|s| s * 1e3))
        .collect()
}

fn sim_outcome(run: PaperSimRun, metrics: Metrics, detail: String) -> Outcome {
    Outcome {
        attempted: run.runs.iter().map(|r| r.queries).sum(),
        failed: run.runs.iter().map(|r| r.failed as usize).sum(),
        gate: run.gate,
        metrics,
        detail,
    }
}

fn sim_traced(a: &Args) -> Result<Outcome, String> {
    let plain = paper_sim(None, a.seed, a.seconds, 1, false);
    let tracer = Tracer::new();
    let run = paper_sim(Some(&tracer), a.seed, a.seconds, 1, true);
    let layers = sim_layers(&run, sim_throughput(&plain));
    let spans = tracer.spans();
    let spans_path = a.out.join(format!("{}.spans.csv", a.workload));
    write_spans(&spans_path, &spans).map_err(|e| format!("{}: {e}", spans_path.display()))?;
    let detail = layer_detail(&layers, &spans_path, spans.len());
    let metrics = layers.metrics();
    let mut out = sim_outcome(run, metrics, detail);
    out.gate = plain.gate.and(out.gate);
    Ok(out)
}

fn layer_detail(l: &Layers, spans: &Path, n: usize) -> String {
    let mut s = String::from(",\n \"not_applicable\": [");
    for (i, name) in l.not_applicable().iter().enumerate() {
        let _ = write!(s, "{}{}", if i > 0 { ", " } else { "" }, json_str(name));
    }
    s.push_str("],\n \"reconciliation\": {");
    for (i, (name, v)) in l.recon.iter().enumerate() {
        let _ = write!(
            s,
            "{}\"{name}\": {}",
            if i > 0 { ", " } else { "" },
            num(*v)
        );
    }
    let _ = write!(
        s,
        "}},\n \"spans\": {{\"file\": {}, \"count\": {n}}}",
        json_str(&spans.display().to_string())
    );
    s
}

fn num(v: f64) -> String {
    if v.is_finite() {
        format!("{v}")
    } else {
        "0".into()
    }
}

fn json_str(s: &str) -> String {
    let mut out = String::from("\"");
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            c if (c as u32) < 0x20 => {
                let _ = write!(out, "\\u{:04x}", c as u32);
            }
            c => out.push(c),
        }
    }
    out.push('"');
    out
}

fn metrics_json(m: &Metrics) -> String {
    let body: Vec<String> = m
        .iter()
        .map(|(name, v, unit)| {
            format!(
                "\"{name}\": {{\"value\": {}, \"unit\": \"{unit}\"}}",
                num(*v)
            )
        })
        .collect();
    format!("{{{}}}", body.join(", "))
}

/// Peak resident memory of this process (VmHWM), in MB.
fn peak_rss_mb() -> Result<f64, String> {
    let status = std::fs::read_to_string("/proc/self/status")
        .map_err(|e| format!("peak memory needs /proc/self/status: {e}"))?;
    let kb = status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        .ok_or("no VmHWM line in /proc/self/status")?;
    Ok(kb / 1024.0)
}

/// First line of a command's output, or `fallback` if it cannot run.
fn command_line(cmd: &str, args: &[&str], fallback: &str) -> String {
    std::process::Command::new(cmd)
        .args(args)
        .output()
        .ok()
        .filter(|o| o.status.success())
        .and_then(|o| String::from_utf8(o.stdout).ok())
        .and_then(|s| s.lines().next().map(str::to_owned))
        .unwrap_or_else(|| fallback.to_owned())
}

/// Cores, toolchain, revision, seed and worker count of this result.
fn host_record(a: &Args) -> String {
    let cores = std::thread::available_parallelism().map_or(0, |n| n.get());
    let rustc = std::env::var("RUSTC").unwrap_or_else(|_| "rustc".into());
    let workers = if a.workload == "paper_sim" {
        papersim::SIM_THREADS
    } else {
        serve::WORKERS
    };
    // Only a checkout of its own: inside an unrelated repository git would
    // report that repository's revision.
    let rev = if Path::new(".git").exists() {
        command_line("git", &["rev-parse", "HEAD"], "unknown")
    } else {
        "unknown (not a git checkout)".to_owned()
    };
    format!(
        "{{\"cores\": {cores}, \"rustc\": {}, \"git_rev\": {}, \"seed\": {}, \"workers\": {workers}}}",
        json_str(&command_line(&rustc, &["--version"], "unknown")),
        json_str(&rev),
        a.seed
    )
}
