//! The repository benchmark: three workloads served by an in-process
//! `NetServer` over a Unix socket, reported end to end with tracing off
//! and split across the program's layers by a separate traced run.
//!
//! ```text
//! cargo run --release --manifest-path perfbench/Cargo.toml -- \
//!     --workload <warm-read|cold-observer-read|durable-coord|all> \
//!     --seed <n> --seconds <s> --trace <0|1>
//! ```
//!
//! The last line of standard output is one JSON object:
//! `{"correct", "attempted", "failed", "metrics"}`, where `metrics` holds
//! the end-to-end metrics (`--trace 0`) or the per-layer metrics
//! (`--trace 1`) named in `BENCHMARK.json`. Human-readable tables come
//! before it. Scratch files (sockets, stores, span CSVs) go under
//! `.bench_run/` in the working directory. See `perfbench/README.md`.

mod durable;
mod pipe;
mod read;
mod report;
mod trace;

use std::collections::BTreeMap;
use std::process::ExitCode;
use std::time::Instant;

use report::{LatencyHist, Metrics};
use trace::Rollup;
use zigzag_bcm::stream::{RunEvent, StreamingRun};
use zigzag_bcm::{NodeId, Run, RunCursor};

/// Scratch directory for sockets, stores and span files, relative to the
/// working directory.
pub const RUN_DIR: &str = ".bench_run";
/// Least number of times each workload's set-up is repeated; `setup_s`
/// is the fastest.
const SETUP_REPEATS: usize = 9;
/// Least time spent repeating set-up. On a shared machine the same
/// set-up's CPU time swings by up to 1.8× with the neighbours' load, in
/// phases of about half a second; the fastest of two seconds of repeats
/// is the set-up's own cost, where their median is the host's load.
const SETUP_MIN_S: f64 = 2.0;

/// The end-to-end metrics every workload reports with `--trace 0`.
const END_TO_END: [&str; 6] = [
    "setup_s",
    "req_per_s",
    "req_p50_us",
    "req_p90_us",
    "cpu_us_per_req",
    "peak_rss_mb",
];

/// The per-layer metrics every workload reports with `--trace 1`; a
/// metric a workload does not exercise reports 0.
const PER_LAYER: [(&str, &str); 62] = [
    ("net.read_syscalls_per_frame", "ratio"),
    ("net.frames_per_flush", "ratio"),
    ("net.bytes_per_frame_in", "B"),
    ("net.bytes_per_frame_out", "B"),
    ("net.queue_depth_max", "count"),
    ("net.conn_failures", "count"),
    ("net.transport_us_per_req", "us"),
    ("net.self_us_per_req", "us"),
    ("wire.encode_frame_ns", "ns"),
    ("wire.decode_frame_ns", "ns"),
    ("wire.encode_response_ns", "ns"),
    ("wire.decode_response_ns", "ns"),
    ("wire.frame_bytes", "B"),
    ("wire.self_us_per_req", "us"),
    ("serve.frame_us", "us"),
    ("serve.self_us_per_req", "us"),
    ("service.dispatch_maxx_ns", "ns"),
    ("service.dispatch_knows_ns", "ns"),
    ("service.dispatch_witness_ns", "ns"),
    ("service.dispatch_tightbound_ns", "ns"),
    ("service.dispatch_batch_ns", "ns"),
    ("service.dispatch_coord_ns", "ns"),
    ("service.server_dispatch_p50_ns", "ns"),
    ("service.dispatches", "count"),
    ("service.self_us_per_req", "us"),
    ("core.observer_hits", "count"),
    ("core.observer_misses", "count"),
    ("core.observer_evictions", "count"),
    ("core.observer_hit_ratio", "ratio"),
    ("core.observer_build_ns", "ns"),
    ("core.query_ns", "ns"),
    ("core.append_ns", "ns"),
    ("core.append_p99_ns", "ns"),
    ("core.self_us_per_req", "us"),
    ("coord.append_ns", "ns"),
    ("coord.append_p99_ns", "ns"),
    ("coord.decide_ns", "ns"),
    ("coord.recover_share", "ratio"),
    ("coord.self_us_per_req", "us"),
    ("store.log_ns_per_event", "ns"),
    ("store.log_p99_ns", "ns"),
    ("store.events_logged", "count"),
    ("store.bytes_written", "B"),
    ("store.write_bytes_per_event", "B"),
    ("store.snapshots", "count"),
    ("store.snapshot_ns", "ns"),
    ("store.replayed_events", "count"),
    ("store.recover_s", "s"),
    ("store.recover_ns_per_event", "ns"),
    ("store.rewarm_ns", "ns"),
    ("store.recover_replay_share", "ratio"),
    ("store.rewarm_share", "ratio"),
    ("store.self_us_per_req", "us"),
    ("client.frames_per_append", "ratio"),
    ("client.overhead_ns_per_req", "ns"),
    ("client.append_p50_us", "us"),
    ("client.append_p99_us", "us"),
    ("client.decide_p50_us", "us"),
    ("client.decide_p99_us", "us"),
    ("client.self_us_per_req", "us"),
    ("trace.coverage", "ratio"),
    ("trace.overhead_ratio", "ratio"),
];

/// Command-line arguments.
pub struct Args {
    workload: String,
    /// Seed every generated input derives from.
    pub seed: u64,
    /// Measured time of one run.
    pub seconds: f64,
    /// Whether this is the traced (per-layer) run.
    pub trace: bool,
    /// The epoch every span of the run counts from.
    pub epoch: Instant,
}

fn parse_args() -> Result<Args, String> {
    let mut flags = BTreeMap::new();
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        let key = flag
            .strip_prefix("--")
            .ok_or_else(|| format!("unexpected argument {flag:?}"))?
            .to_string();
        let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
        flags.insert(key, value);
    }
    let get = |k: &str| flags.get(k).ok_or_else(|| format!("missing --{k}"));
    let args = Args {
        workload: get("workload")?.clone(),
        seed: get("seed")?.parse().map_err(|e| format!("--seed: {e}"))?,
        seconds: get("seconds")?
            .parse()
            .map_err(|e| format!("--seconds: {e}"))?,
        trace: match get("trace")?.as_str() {
            "0" => false,
            "1" => true,
            t => return Err(format!("--trace must be 0 or 1, not {t:?}")),
        },
        epoch: Instant::now(),
    };
    if flags.len() != 4 {
        return Err("expected exactly --workload, --seed, --seconds and --trace".into());
    }
    if !(args.seconds.is_finite() && args.seconds > 0.0) {
        return Err("--seconds must be positive".into());
    }
    Ok(args)
}

/// The first `n` events of a recorded run's schedule: the prefix run,
/// its events, and the node each event created. Workloads serve fixed
/// event counts so that only the schedule, not the input size, depends
/// on the seed.
pub fn prefix(run: &Run, n: usize) -> (Run, Vec<RunEvent>, Vec<NodeId>) {
    let mut events = RunCursor::new(run).collect_events();
    assert!(
        events.len() >= n,
        "the schedule has {} events, fewer than {n}",
        events.len()
    );
    events.truncate(n);
    let mut stream = StreamingRun::new(run.context_arc(), run.horizon());
    let nodes = events
        .iter()
        .map(|ev| stream.append(ev).expect("a recorded schedule replays"))
        .collect();
    (stream.run().clone(), events, nodes)
}

/// One measurement window of a load phase.
#[derive(Debug, Default)]
pub struct Window {
    /// Wall time of the window.
    pub wall_s: f64,
    /// Process CPU time used during the window.
    pub cpu_s: f64,
    /// Latency of each request completed in the window.
    pub latency: LatencyHist,
}

/// One load phase's end-to-end observations.
#[derive(Debug, Default)]
pub struct Phase {
    /// Requests completed.
    pub requests: u64,
    /// Requests answered wrongly or not at all.
    pub failed: u64,
    /// Wall time of the phase.
    pub wall_s: f64,
    /// Every request's latency.
    pub latency: LatencyHist,
    /// The phase cut into windows; end-to-end figures are medians over
    /// them, so a brief disturbance moves one window, not the result.
    pub windows: Vec<Window>,
}

/// What one workload run produced.
pub struct Outcome {
    name: &'static str,
    /// End-to-end metrics, plus the workload's extra user-facing ones.
    metrics: Metrics,
    /// Per-layer metrics (traced runs only).
    layers: Metrics,
    attempted: u64,
    failed: u64,
    checks: Vec<(&'static str, bool)>,
}

/// Builds a workload's serving system again and again, each instance
/// dropped before the next is timed, at least [`SETUP_REPEATS`] times
/// and for at least [`SETUP_MIN_S`]. Returns every set-up's time, in
/// seconds, and the last instance.
pub fn timed_set_ups<T>(mut set_up: impl FnMut() -> T) -> (Vec<f64>, T) {
    let start = Instant::now();
    let mut times = Vec::new();
    let mut built = None;
    while times.len() < SETUP_REPEATS || start.elapsed().as_secs_f64() < SETUP_MIN_S {
        drop(built.take());
        let t = Instant::now();
        let instance = set_up();
        times.push(t.elapsed().as_secs_f64());
        built = Some(instance);
    }
    (times, built.expect("at least one set-up"))
}

/// Sets the end-to-end metrics: `setup_s` is the fastest set-up, every
/// other figure the median over the untraced phase's windows.
pub fn end_to_end(m: &mut Metrics, setup_s: &[f64], phase: &Phase, peak_rss_mb: f64) {
    let over = |f: &dyn Fn(&Window) -> f64| {
        let v: Vec<f64> = phase
            .windows
            .iter()
            .filter(|w| w.latency.count() > 0)
            .map(f)
            .collect();
        report::median(&v)
    };
    m.set(
        "setup_s",
        setup_s.iter().copied().fold(f64::INFINITY, f64::min),
        "s",
    );
    m.set(
        "req_per_s",
        over(&|w| w.latency.count() as f64 / w.wall_s),
        "1/s",
    );
    m.set(
        "req_p50_us",
        over(&|w| w.latency.percentile(50.0)) / 1e3,
        "us",
    );
    m.set(
        "req_p90_us",
        over(&|w| w.latency.percentile(90.0)) / 1e3,
        "us",
    );
    m.set(
        "req_p99_us",
        over(&|w| w.latency.percentile(99.0)) / 1e3,
        "us",
    );
    m.set(
        "cpu_us_per_req",
        over(&|w| w.cpu_s * 1e6 / w.latency.count() as f64),
        "us",
    );
    m.set("peak_rss_mb", peak_rss_mb, "MiB");
}

/// Per-layer self time per request, trace coverage and tracing overhead.
/// `root_measured_us` is the part of a root span's self time, per
/// request, that the caller measured separately (0 when none was).
pub fn rollup_metrics(
    m: &mut Metrics,
    r: &Rollup,
    root_measured_us: f64,
    untraced: &Phase,
    traced: &Phase,
) {
    let roots = r.roots.max(1) as f64;
    for layer in trace::LAYERS {
        let ns = r.self_ns.get(layer).copied().unwrap_or(0);
        m.set(
            &format!("{layer}.self_us_per_req"),
            ns as f64 / roots / 1e3,
            "us",
        );
    }
    // Time the spans measured per request against what an untraced
    // request takes end to end. The rest of a root's duration is billed
    // to it only as a remainder, so it does not count as covered.
    let measured_ns = r.measured_ns() as f64 / roots + root_measured_us * 1e3;
    m.set(
        "trace.coverage",
        measured_ns / untraced.latency.mean_ns().max(1.0),
        "ratio",
    );
    m.set(
        "trace.overhead_ratio",
        (traced.requests as f64 / traced.wall_s) / (untraced.requests as f64 / untraced.wall_s),
        "ratio",
    );
}

/// Named pass/fail checks.
#[derive(Debug, Default)]
pub struct Checks(pub Vec<(&'static str, bool)>);

impl Checks {
    /// Records one check; a check made more than once passes only if
    /// it passed every time.
    pub fn check(&mut self, what: &'static str, ok: bool) {
        match self.0.iter_mut().find(|(w, _)| *w == what) {
            Some((_, all)) => *all &= ok,
            None => self.0.push((what, ok)),
        }
    }
}

/// Runs one workload. A failed check counts as one more failed
/// operation, and `error_ratio` (failed over attempted) joins the table.
fn run_one(name: &str, args: &Args) -> Option<Outcome> {
    let mut o = match name {
        "warm-read" => read::run(read::Kind::Warm, args),
        "cold-observer-read" => read::run(read::Kind::Cold, args),
        "durable-coord" => durable::run(args),
        _ => return None,
    };
    o.failed += o.checks.iter().filter(|(_, ok)| !ok).count() as u64;
    let ratio = o.failed as f64 / o.attempted.max(1) as f64;
    o.metrics.set("error_ratio", ratio, "ratio");
    Some(o)
}

/// The JSON metrics for one outcome: exactly the declared list.
fn declared(o: &Outcome, traced: bool) -> Metrics {
    let mut m = Metrics::default();
    if traced {
        for (name, unit) in PER_LAYER {
            m.set(name, o.layers.get(name).unwrap_or(0.0), unit);
        }
    } else {
        for name in END_TO_END {
            let unit = o
                .metrics
                .items()
                .iter()
                .find(|(n, _, _)| n == name)
                .map_or("", |(_, _, u)| *u);
            m.set(name, o.metrics.get(name).unwrap_or(0.0), unit);
        }
    }
    m
}

fn print_outcome(o: &Outcome, traced: bool) {
    print!(
        "{}",
        report::table(&format!("{} end to end", o.name), &o.metrics)
    );
    if traced {
        print!(
            "{}",
            report::table(&format!("{} per layer", o.name), &o.layers)
        );
    }
    println!("== {} checks", o.name);
    for (what, ok) in &o.checks {
        println!("  [{}] {what}", if *ok { "ok" } else { "FAILED" });
    }
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!(
                "perfbench: {e}\nusage: perfbench --workload <warm-read|cold-observer-read|durable-coord|all> \
                 --seed <n> --seconds <s> --trace <0|1>"
            );
            return ExitCode::from(2);
        }
    };
    if let Err(e) = std::fs::create_dir_all(RUN_DIR) {
        eprintln!("perfbench: creating {RUN_DIR}: {e}");
        return ExitCode::FAILURE;
    }
    let names: Vec<&str> = if args.workload == "all" {
        vec!["warm-read", "cold-observer-read", "durable-coord"]
    } else {
        vec![args.workload.as_str()]
    };
    let mut outcomes = Vec::new();
    for name in &names {
        match run_one(name, &args) {
            Some(o) => {
                print_outcome(&o, args.trace);
                outcomes.push(o);
            }
            None => {
                eprintln!("perfbench: unknown workload {name:?}");
                return ExitCode::from(2);
            }
        }
    }
    let correct = outcomes.iter().all(|o| o.failed == 0);
    let attempted = outcomes.iter().map(|o| o.attempted).sum::<u64>().max(1);
    let failed = outcomes.iter().map(|o| o.failed).sum();
    let metrics = if outcomes.len() == 1 {
        declared(&outcomes[0], args.trace)
    } else {
        let mut all = Metrics::default();
        for o in &outcomes {
            all.extend_prefixed(o.name, &declared(o, args.trace));
        }
        all
    };
    println!(
        "{}",
        report::result_line(correct, attempted, failed, &metrics)
    );
    if correct {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}
