//! `cicero-perfbench`: one seeded benchmark of the served scan path and
//! the paper's compile-and-simulate path, end to end and per layer.
//!
//! ```text
//! perfbench --workload <scan_small|scan_bulk|ruleset_churn|paper_sim|all>
//!           --seed <n> --seconds <s> --trace <0|1>
//! ```
//!
//! With `--trace 0` a run measures the end-to-end figures; with
//! `--trace 1` it measures the per-layer figures instead (see README.md).
//! Every answer is checked against `regex-oracle`. The last stdout line is
//! one JSON object (`correct`, `attempted`, `failed`, `metrics`); the lines
//! before it name every figure with its unit and record the run's
//! settings. Any failed operation makes the exit code nonzero.

mod client;
mod layers;
mod load;
mod paper;
mod report;
mod served;
mod spans;
mod stats;
mod traffic;

use report::Report;
use served::Shape;
use stats::{peak_rss_mb, percentile, tail};

/// The seed later performance claims must also hold on, never used while
/// tuning a change.
pub const HELD_OUT_SEED: u64 = 9001;

const WORKLOADS: [&str; 4] = ["scan_small", "scan_bulk", "ruleset_churn", "paper_sim"];

struct Args {
    workload: String,
    seed: u64,
    seconds: f64,
    trace: bool,
}

fn parse_args() -> Result<Args, String> {
    let mut args = Args { workload: String::new(), seed: 1, seconds: 10.0, trace: false };
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
        let bad = || format!("bad value {value:?} for {flag}");
        match flag.as_str() {
            "--workload" => args.workload = value.clone(),
            "--seed" => args.seed = value.parse().map_err(|_| bad())?,
            "--seconds" => args.seconds = value.parse().map_err(|_| bad())?,
            "--trace" => {
                args.trace = match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(bad()),
                }
            }
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    if args.workload != "all" && !WORKLOADS.contains(&args.workload.as_str()) {
        return Err(format!("--workload must be one of {WORKLOADS:?} or all"));
    }
    if args.seconds.is_nan() || args.seconds <= 0.0 {
        return Err("--seconds must be positive".to_owned());
    }
    Ok(args)
}

/// A workload's served traffic shape; `None` for `paper_sim`, which runs
/// no server.
fn shape(workload: &str) -> Option<Shape> {
    match workload {
        "scan_small" => Some(Shape::ScanSmall),
        "scan_bulk" => Some(Shape::ScanBulk),
        "ruleset_churn" => Some(Shape::Churn),
        _ => None,
    }
}

/// A latency line: median and the highest percentile the samples support.
fn latency_note(name: &str, samples: &[f64]) -> String {
    let p50 = percentile(samples, 50.0).map_or("refused".to_owned(), |v| format!("{v:.4} ms"));
    let tail = tail(samples)
        .filter(|(p, _)| *p > 50.0)
        .map_or("no tail (too few samples)".to_owned(), |(p, v)| format!("p{p} {v:.4} ms"));
    format!("{name}: p50 {p50}, {tail} (n={})", samples.len())
}

/// The untraced run of a served workload.
fn served_e2e(shape: Shape, seed: u64, seconds: f64) -> Result<Report, String> {
    let traffic = served::traffic(shape, seed);
    let run = served::run(shape, &traffic, seconds, true)?;
    let mut report = Report { attempted: run.attempted, ..Report::default() };
    report.fail(run.failed, &run.reasons);
    let p50 = percentile(&run.latency_ms, 50.0)
        .ok_or_else(|| format!("only {} latency samples", run.latency_ms.len()))?;
    report.metric("setup_s", run.setup_s, "s");
    report.metric("req_p50_ms", p50, "ms");
    report.metric("scan_rps", run.rps(), "1/s");
    report.metric("scan_mbps", run.mbps(), "MB/s");
    let loop_kind = match shape {
        Shape::ScanSmall => format!(
            "open loop at {} req/s over 2 pipelined connections, then a closed loop over 2",
            served::SCAN_SMALL_OPEN_RATE
        ),
        _ => format!("closed loop over {} connection(s)", traffic.conns.len()),
    };
    report.note(format!("load: {loop_kind}"));
    report.note(latency_note("req latency", &run.latency_ms));
    if let Some((p, late)) = tail(&run.late_ms) {
        report.note(format!("loadgen late p{p} = {late:.4} ms"));
    }
    let body_kb = run.capacity.bytes() as f64 / run.capacity.reads().max(1) as f64 / 1e3;
    report.note(format!("scan_rps at a mean body of {body_kb:.2} KB"));
    if shape == Shape::Churn {
        let puts = &run.put_ms;
        report.note(latency_note("put latency", puts));
        if let Some(p50) = percentile(puts, 50.0) {
            report.note(format!("put_p50_ms = {p50} ms"));
        }
    }
    Ok(report)
}

/// The untraced run of `paper_sim`.
fn paper_e2e(seed: u64, seconds: f64) -> Result<Report, String> {
    let run = paper::run(seed, seconds);
    let mut report = Report { attempted: run.op_ms.len() as u64, ..Report::default() };
    report.fail(run.failed, &run.reasons);
    let config = paper::default_config();
    let p50 = percentile(&run.op_ms, 50.0).ok_or("too few REs for a median")?;
    report.metric("setup_s", run.setup_s, "s");
    report.metric("req_p50_ms", p50, "ms");
    report.metric("scan_rps", run.op_ms.len() as f64 / run.wall, "1/s");
    report.metric("scan_mbps", run.bytes as f64 / run.wall / 1e6, "MB/s");
    let f = &run.figures;
    report.note(format!("sim_us_per_re = {} us ({})", f.us_per_re(&config), config.name()));
    report.note(format!("sim_wus_per_re = {} W.us", f.wus_per_re(&config)));
    let compile = stats::mean(&run.compile_ms).unwrap_or(0.0);
    report.note(format!("compile_ms_per_re = {compile} ms (new compiler)"));
    let legacy = stats::mean(&run.legacy_ms).unwrap_or(0.0);
    report.note(format!("legacy compile_ms_per_re = {legacy} ms"));
    report.note(format!("sim_kbps = {} KB/s", f.sim_bytes as f64 / f.sim_s / 1e3));
    report.note(latency_note("per-RE op (compile + legacy compile + simulate)", &run.op_ms));
    Ok(report)
}

fn run_one(args: &Args, workload: &str) -> Result<Report, String> {
    let shape = shape(workload);
    let mut report = if args.trace {
        let spans = format!("perfbench/out/spans-{workload}-{}.jsonl", args.seed);
        layers::traced(shape, args.seed, args.seconds, &spans)?
    } else {
        match shape {
            Some(shape) => served_e2e(shape, args.seed, args.seconds)?,
            None => paper_e2e(args.seed, args.seconds)?,
        }
    };
    if !args.trace {
        report.metric("peak_rss_mb", peak_rss_mb().ok_or("no /proc/self/status")?, "MB");
    }
    Ok(report)
}

/// The settings every result records.
fn record(args: &Args, workload: &str) -> String {
    let options = load::server_options();
    let cpus = std::thread::available_parallelism().map_or(1, std::num::NonZeroUsize::get);
    format!(
        "{{\"record\":{{\"workload\":\"{workload}\",\"seed\":{},\"held_out_seed\":{HELD_OUT_SEED},\
         \"host_cpus\":{cpus},\"run_seconds\":{},\"trace\":{},\"config_source\":\"default\",\
         \"server\":{{\"workers\":{},\"queue_depth\":{},\"config\":\"{}\"}},\
         \"runtime\":\"{}\"}}}}",
        args.seed,
        args.seconds,
        args.trace,
        options.workers,
        options.queue_depth,
        options.config.name(),
        format!("{:?}", options.runtime).replace('"', "'"),
    )
}

/// Run one workload in a child process of its own, so that its peak
/// memory is its own; print its text lines and return its result, with
/// each metric named `<workload>.<metric>`.
fn run_child(args: &Args, workload: &str) -> Result<Report, String> {
    let exe = std::env::current_exe().map_err(|e| format!("current_exe: {e}"))?;
    let output = std::process::Command::new(exe)
        .args(["--workload", workload, "--seed", &args.seed.to_string()])
        .args([
            "--seconds",
            &args.seconds.to_string(),
            "--trace",
            if args.trace { "1" } else { "0" },
        ])
        .stderr(std::process::Stdio::inherit())
        .output()
        .map_err(|e| format!("spawning the {workload} run: {e}"))?;
    let stdout = String::from_utf8_lossy(&output.stdout);
    let mut lines: Vec<&str> = stdout.lines().collect();
    let last = lines.pop().unwrap_or_default();
    for line in lines {
        println!("{line}");
    }
    let mut report = Report::from_json(last, workload)
        .map_err(|e| format!("the {workload} run ended without a result ({e})"))?;
    if !output.status.success() && report.correct() {
        report.fail(1, &[format!("the {workload} run: {}", output.status)]);
    }
    Ok(report)
}

fn main() {
    let args = match parse_args() {
        Ok(args) => args,
        Err(e) => {
            eprintln!("perfbench: {e}");
            std::process::exit(2);
        }
    };
    if args.workload == "all" {
        let mut total = Report::default();
        for workload in WORKLOADS {
            match run_child(&args, workload) {
                Ok(report) => total.absorb(report),
                Err(e) => {
                    eprintln!("perfbench: {e}");
                    std::process::exit(1);
                }
            }
        }
        println!("{}", total.json());
        std::process::exit(if total.correct() { 0 } else { 1 });
    }
    let workload = args.workload.as_str();
    println!("{}", record(&args, workload));
    let report = match run_one(&args, workload) {
        Ok(report) => report,
        Err(e) => {
            eprintln!("perfbench: {workload}: {e}");
            std::process::exit(1);
        }
    };
    for line in report.lines(workload) {
        println!("{line}");
    }
    println!("{}", report.json());
    if !report.correct() {
        std::process::exit(1);
    }
}
