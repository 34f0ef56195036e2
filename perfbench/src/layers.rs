//! The traced run: per-layer figures for one workload.
//!
//! Up to three sources, all measured from outside the program. The first
//! two apply only to the served workloads; `paper_sim` runs no server and
//! reports their figures as 0.
//!
//! * a short live phase of the workload's own traffic against a real
//!   server, for what only a running server shows (queue wait,
//!   rejections, cache and swap counters from `Server::telemetry()`, and
//!   the client-observed p50 the replay is set against);
//! * an in-process replay of a seeded sample of the workload's requests
//!   through the layers' public calls (`http::read_request`,
//!   `json::parse`, `RulesetRegistry::put`/`pin`, `Runtime::compile_set`,
//!   `run_batch_guarded_traced_on`, `host_program`, `HostProgram::run_all`,
//!   `scan_stream_traced_on`, `Response::write_to`), each wrapped in a
//!   span; the same replay untraced gives the tracing overhead;
//! * probes on the workload's own patterns and inputs for the layers its
//!   requests do not reach: the paper's path through `paper::op`
//!   (compiler stages and passes, the legacy compiler, the simulator),
//!   host lowering, per-suite host-engine throughput, and the batch or
//!   stream executor when the workload uses only the other. On
//!   `paper_sim` the paper-path probe is its own REs, run warm, traced
//!   and untraced again for the tracing overhead.

use std::collections::BTreeMap;
use std::io::Cursor;
use std::sync::Arc;
use std::time::Instant;

use cicero_core::Backend;
use cicero_hostexec::{EngineKind, HostProgram};
use cicero_isa::Program;
use cicero_runtime::{Budget, MatchOutcome, Runtime, StreamOptions};
use cicero_server::http::{self, Response};
use cicero_server::json::{self, Json};
use cicero_server::registry::RulesetRegistry;
use cicero_sim::ArchConfig;
use cicero_telemetry::{HistogramSnapshot, JsonObject, Telemetry};
use workloads::CHUNK_BYTES;

use crate::client::take_reply;
use crate::paper::{self, default_config, Job, OpRun, PaperFigures};
use crate::report::Report;
use crate::served::{self, Shape};
use crate::spans::Recorder;
use crate::stats::{mean, percentile, tail};
use crate::traffic::{all_suites, chunk_table, Checker, Op, Traffic, SET_PATTERNS};

/// Pipeline passes reported one by one (`core.pass.<name>_*`).
pub const PASSES: [&str; 4] = [
    "regex-canonicalize",
    "regex-factorize-alternations",
    "regex-shortest-match-reduction",
    "cicero-jump-simplification",
];

/// Share of the run length given to the live phase.
const LIVE_SHARE: f64 = 0.4;
/// Requests replayed per connection cycle.
const REPLAY_PER_CONN: usize = 48;
/// Stream bodies replayed: the whole cycle, so the replay median is over
/// the same bodies as the live one.
const REPLAY_STREAMS: usize = crate::traffic::BULK_BODIES;
/// Distinct patterns of a served workload taken down the paper's path.
const PROBE_PATTERNS: usize = 48;
/// Inputs each of them is simulated over.
const PROBE_INPUTS: usize = 4;
/// Pattern sets run through the cold compile-and-lower probe.
const PROBE_SETS: usize = 8;

/// The in-process stack a replay drives: the server's default runtime and
/// an unpersisted registry.
struct Stack {
    runtime: Runtime,
    registry: RulesetRegistry,
    config: ArchConfig,
}

impl Stack {
    fn new() -> Stack {
        let options = crate::load::server_options();
        let telemetry = Telemetry::new();
        Stack {
            runtime: Runtime::new(options.runtime).with_telemetry(telemetry.clone()),
            registry: RulesetRegistry::new(None, telemetry),
            config: options.config,
        }
    }
}

/// Figures a replay collects beside its spans.
#[derive(Default)]
struct Tally {
    batch_jobs: Vec<f64>,
    stream_chunks: Vec<f64>,
    read_ms: Vec<f64>,
}

type Routed = Result<Response, String>;

fn error(status: u16, message: &str) -> Response {
    Response::json(status, JsonObject::new().field("error", message).finish())
}

fn patterns_of(doc: &Json) -> Option<Vec<String>> {
    doc.get("patterns")?.as_arr()?.iter().map(|p| p.as_str().map(str::to_owned)).collect()
}

/// `/scan`'s executor and merge: a guarded batch over 500-byte chunks,
/// then `run_all` over every accepted chunk for per-pattern counts.
fn scan_batch(
    stack: &Stack,
    rec: &mut Recorder,
    program: &Arc<Program>,
    input: &[u8],
    patterns: usize,
    tally: &mut Tally,
) -> Vec<u64> {
    let chunks: Vec<Vec<u8>> = if input.is_empty() {
        vec![Vec::new()]
    } else {
        input.chunks(CHUNK_BYTES).map(<[u8]>::to_vec).collect()
    };
    let batch = rec.span("runtime.batch", |_| {
        stack.runtime.run_batch_guarded_traced_on(
            Backend::Host,
            program,
            &chunks,
            &stack.config,
            &Budget::default(),
            None,
        )
    });
    tally.batch_jobs.push(batch.jobs as f64);
    rec.span("hostexec.merge", |rec| {
        let mut counts = vec![0u64; patterns];
        for (chunk, outcome) in chunks.iter().zip(&batch.outcomes) {
            if let MatchOutcome::Complete(report) = outcome {
                if report.accepted {
                    let host =
                        rec.span("runtime.host_program", |_| stack.runtime.host_program(program));
                    let all = rec.span("hostexec.run_all", |_| host.run_all(chunk));
                    for id in all.matched_ids {
                        if let Some(count) = counts.get_mut(usize::from(id)) {
                            *count += 1;
                        }
                    }
                }
            }
        }
        counts
    })
}

/// `/scan/stream`'s executor.
fn scan_stream(
    stack: &Stack,
    rec: &mut Recorder,
    program: &Program,
    body: &[u8],
    tally: &mut Tally,
) -> Result<JsonObject, String> {
    let report = rec.span("runtime.stream", |_| {
        stack.runtime.scan_stream_traced_on(
            Backend::Host,
            program,
            Cursor::new(body),
            &stack.config,
            &StreamOptions::default(),
            None,
        )
    });
    let report = report.map_err(|e| e.to_string())?;
    tally.stream_chunks.push(report.chunks as f64);
    let mut object = JsonObject::new()
        .field("input_bytes", body.len() as u64)
        .field("bytes_scanned", report.bytes)
        .field("chunks", report.chunks);
    match &report.outcome {
        MatchOutcome::Complete(exec) => {
            object = object.field("matched", exec.accepted);
            if let Some(position) = exec.match_position {
                object = object.field("match_position", position as u64);
            }
            Ok(object)
        }
        other => Err(format!("stream outcome {other:?}")),
    }
}

/// Route one parsed request the way the server's handlers do, through
/// the same public calls.
fn route(stack: &Stack, rec: &mut Recorder, request: &http::Request, tally: &mut Tally) -> Routed {
    let ruleset = request.query_param("ruleset").map(str::to_owned);
    match (request.method.as_str(), request.path.as_str()) {
        ("PUT", path) if path.starts_with("/rulesets/") => {
            let id = &path["/rulesets/".len()..];
            let doc = parse_json(rec, &request.body)?;
            let patterns = patterns_of(&doc).ok_or("PUT without patterns")?;
            let outcome = rec
                .span("registry.put", |_| stack.registry.put(&stack.runtime, id, patterns))
                .map_err(|e| e.to_string())?;
            let status = if outcome.replaced.is_some() { 200 } else { 201 };
            let body = JsonObject::new().field("id", id).field("version", outcome.version.as_str());
            Ok(Response::json(status, body.finish())
                .with_header("x-cicero-ruleset-version", outcome.version))
        }
        ("POST", "/scan") => {
            let doc = parse_json(rec, &request.body)?;
            let input = doc.get("input").and_then(Json::as_str).ok_or("no input")?.as_bytes();
            let (program, patterns, version) = match &ruleset {
                Some(id) => {
                    let pin = rec
                        .span("registry.pin", |_| stack.registry.pin(id))
                        .ok_or_else(|| format!("no ruleset {id}"))?;
                    let program = Arc::clone(pin.program());
                    (program, pin.handle().patterns().to_vec(), Some(pin.version().to_owned()))
                }
                None => {
                    let patterns = patterns_of(&doc).ok_or("inline scan without patterns")?;
                    let program = rec
                        .span("runtime.compile_set", |_| stack.runtime.compile_set(&patterns))
                        .map_err(|e| e.to_string())?;
                    (program, patterns, None)
                }
            };
            let counts = scan_batch(stack, rec, &program, input, patterns.len(), tally);
            let rows: Vec<String> = counts
                .iter()
                .enumerate()
                .map(|(id, c)| {
                    JsonObject::new().field("id", id as u64).field("chunks_matched", *c).finish()
                })
                .collect();
            let mut object = JsonObject::new();
            if let (Some(id), Some(version)) = (&ruleset, &version) {
                object =
                    object.field("ruleset", id.as_str()).field("ruleset_version", version.as_str());
            }
            let object = object.field_raw("per_pattern", &format!("[{}]", rows.join(",")));
            let response = Response::json(200, object.finish());
            Ok(match version {
                Some(version) => response.with_header("x-cicero-ruleset-version", version),
                None => response,
            })
        }
        ("POST", "/scan/stream") => {
            let id = ruleset.ok_or("stream without ?ruleset=")?;
            let pin = rec
                .span("registry.pin", |_| stack.registry.pin(&id))
                .ok_or_else(|| format!("no ruleset {id}"))?;
            let object = scan_stream(stack, rec, pin.program(), &request.body, tally)?;
            Ok(Response::json(200, object.field("ruleset", id.as_str()).finish())
                .with_header("x-cicero-ruleset-version", pin.version().to_owned()))
        }
        _ => Ok(error(404, "no such endpoint")),
    }
}

fn parse_json(rec: &mut Recorder, body: &[u8]) -> Result<Json, String> {
    let text = std::str::from_utf8(body).map_err(|e| e.to_string())?;
    rec.span("server.json_parse", |_| json::parse(text))
}

/// Replay one request end to end and check the answer against the oracle.
fn replay(
    stack: &Stack,
    rec: &mut Recorder,
    op: &Op,
    checker: &mut Checker,
    tally: &mut Tally,
) -> Result<(), String> {
    rec.next_request();
    let start = Instant::now();
    let mut wire = rec.span("request", |rec| -> Result<Vec<u8>, String> {
        let request = rec
            .span("server.http_parse", |_| http::read_request(&mut Cursor::new(&op.request[..])))
            .map_err(|e| e.to_string())?;
        let response = route(stack, rec, &request, tally)?;
        let mut wire = Vec::with_capacity(256);
        rec.span("server.response_write", |_| response.write_to(&mut wire, false))
            .map_err(|e| e.to_string())?;
        Ok(wire)
    })?;
    if !op.is_put() {
        tally.read_ms.push(start.elapsed().as_secs_f64() * 1e3);
    }
    let reply = take_reply(&mut wire).ok_or("unparseable response")?;
    checker.check(op, &reply).map(|_| ())
}

/// The replayed sample: set-up `PUT`s, then the head of each connection's
/// op cycle, in order (so a connection's swaps and reads stay paired).
fn sample(traffic: &Traffic) -> Vec<Op> {
    let mut ops: Vec<Op> =
        traffic.rulesets.iter().map(|(id, patterns)| crate::traffic::put(id, patterns)).collect();
    for conn in &traffic.conns {
        let take = if matches!(conn[0].expect, crate::traffic::Expect::Stream { .. }) {
            REPLAY_STREAMS
        } else {
            REPLAY_PER_CONN
        };
        ops.extend(conn.iter().take(take).cloned());
    }
    ops
}

/// One replay pass; returns its wall time in seconds.
fn replay_pass(
    stack: &Stack,
    rec: &mut Recorder,
    ops: &[Op],
    tally: &mut Tally,
    report: &mut Report,
) -> f64 {
    let mut checker = Checker::default();
    let start = Instant::now();
    for op in ops {
        report.attempted += 1;
        if let Err(e) = replay(stack, rec, op, &mut checker, tally) {
            report.fail(1, &[format!("replay: {e}")]);
        }
    }
    start.elapsed().as_secs_f64()
}

/// Interpolated quantile of a bucketed histogram.
fn histogram_quantile(hist: &HistogramSnapshot, q: f64) -> Option<f64> {
    if hist.count == 0 {
        return None;
    }
    let target = (q * hist.count as f64).ceil().max(1.0);
    let mut below = 0.0;
    for (i, &count) in hist.bucket_counts.iter().enumerate() {
        let count = count as f64;
        if count > 0.0 && below + count >= target {
            let lo = if i == 0 { hist.min } else { hist.bounds[i - 1].max(hist.min) };
            let hi = hist.bounds.get(i).copied().unwrap_or(hist.max).min(hist.max);
            return Some(lo + (hi - lo) * (target - below) / count);
        }
        below += count;
    }
    Some(hist.max)
}

fn engine_code(kind: EngineKind) -> f64 {
    match kind {
        EngineKind::Bit64 => 1.0,
        EngineKind::Bit128 => 2.0,
        EngineKind::LazyDfa => 3.0,
        EngineKind::Interp => 4.0,
    }
}

/// Run `f` over and over until at least `min_s` seconds have passed;
/// returns (calls, seconds).
fn repeat(min_s: f64, mut f: impl FnMut()) -> (f64, f64) {
    let start = Instant::now();
    let mut calls = 0.0;
    while calls == 0.0 || start.elapsed().as_secs_f64() < min_s {
        f();
        calls += 1.0;
    }
    (calls, start.elapsed().as_secs_f64())
}

/// Host-engine figures per suite: the served set program against one
/// program per pattern, on the same 500-byte chunks, each answer checked
/// against the oracle.
fn hostexec_suites(seed: u64, report: &mut Report) {
    for suite in &all_suites(seed, SET_PATTERNS, 64) {
        let table = chunk_table(&suite.patterns, &suite.chunks);
        let runtime = Runtime::new(crate::load::server_options().runtime);
        let name = suite.name.to_ascii_lowercase();
        let bytes: f64 = suite.chunks.iter().map(|c| c.len() as f64).sum();
        let Ok(program) = runtime.compile_set(&suite.patterns) else {
            report.fail(1, &[format!("{name}: set does not compile")]);
            continue;
        };
        let host = runtime.host_program(&program);
        let members: Vec<_> = suite
            .patterns
            .iter()
            .filter_map(|p| runtime.compile(p).ok().map(|prog| runtime.host_program(&prog)))
            .collect();
        report.attempted += 1;
        let mut wrong = 0;
        for (c, chunk) in suite.chunks.iter().enumerate() {
            wrong += usize::from(host.run(chunk).accepted != table[c].iter().any(|&m| m));
            for (p, member) in members.iter().enumerate() {
                wrong += usize::from(member.run(chunk).accepted != table[c][p]);
            }
        }
        if wrong > 0 || members.len() != suite.patterns.len() {
            report.fail(1, &[format!("{name}: {wrong} host verdicts differ from the oracle")]);
        }
        let (calls, secs) = repeat(0.05, || {
            for chunk in &suite.chunks {
                std::hint::black_box(host.run(chunk));
            }
        });
        report.metric(format!("hostexec.{name}.set_mbps"), bytes * calls / secs / 1e6, "MB/s");
        let (calls, secs) = repeat(0.05, || {
            for member in &members {
                for chunk in &suite.chunks {
                    std::hint::black_box(member.run(chunk));
                }
            }
        });
        let member_mbps = bytes * members.len() as f64 * calls / secs / 1e6;
        report.metric(format!("hostexec.{name}.member_mbps"), member_mbps, "MB/s");
        report.metric(
            format!("hostexec.{name}.engine_kind"),
            engine_code(host.engine_kind()),
            "tier",
        );
        report.metric(format!("hostexec.{name}.states"), host.state_count() as f64, "count");
        report.metric(
            format!("hostexec.{name}.byte_classes"),
            host.byte_class_count() as f64,
            "count",
        );
        let stop = host.prefilter_stop_bytes().map_or(1.0, |b| b.len() as f64 / 256.0);
        report.metric(format!("hostexec.{name}.stop_byte_ratio"), stop, "ratio");
        report.note(format!(
            "hostexec.{name}: set engine {} ({} states) vs one program per pattern",
            host.engine_kind(),
            host.state_count()
        ));
    }
}

/// The workload's own REs for the paper-path probe: its distinct
/// patterns, each over the head of its inputs.
fn probe_jobs(traffic: &Traffic) -> Vec<Job> {
    let mut patterns: Vec<&String> = traffic.sets.iter().flatten().collect();
    patterns.sort();
    patterns.dedup();
    let inputs: Vec<Vec<u8>> = traffic.inputs.iter().take(PROBE_INPUTS).cloned().collect();
    patterns.into_iter().take(PROBE_PATTERNS).map(|p| Job::new(p, inputs.clone())).collect()
}

/// What one pass of `paper::op` over a workload's jobs measured.
struct PaperPass {
    runs: Vec<OpRun>,
    figures: PaperFigures,
    wall_s: f64,
}

/// Take every job down the paper's path, counting each as an operation.
fn paper_pass(jobs: &[Job], rec: &mut Recorder, report: &mut Report) -> PaperPass {
    let config = default_config();
    let mut figures = PaperFigures::default();
    let mut runs = Vec::with_capacity(jobs.len());
    let start = Instant::now();
    for job in jobs {
        rec.next_request();
        report.attempted += 1;
        match paper::op(job, &config, rec, &mut figures) {
            Ok(run) => runs.push(run),
            Err(e) => report.fail(1, &[e]),
        }
    }
    PaperPass { runs, figures, wall_s: start.elapsed().as_secs_f64() }
}

/// Summed wall time (µs) and op-count change of pass `name` in one
/// compile.
fn pass_figures(run: &OpRun, name: &str) -> (f64, f64) {
    let passes = run.compiled.pass_report().passes.iter().filter(|p| p.name == name);
    passes.fold((0.0, 0.0), |(t, d), p| {
        (t + p.duration.as_secs_f64() * 1e6, d + p.ops_after as f64 - p.ops_before as f64)
    })
}

/// Compiler-stage, pass, code-locality, legacy and simulator figures per
/// RE, read from what `paper::op` returned.
fn paper_metrics(pass: &PaperPass, report: &mut Report) {
    let us = |d: std::time::Duration| d.as_secs_f64() * 1e6;
    let avg = |f: &dyn Fn(&OpRun) -> f64| {
        mean(&pass.runs.iter().map(f).collect::<Vec<f64>>()).unwrap_or(0.0)
    };
    report.metric("frontend.parse_us", avg(&|r| us(r.compiled.stats().parse)), "us");
    report.metric(
        "regex_dialect.us",
        avg(&|r| us(r.compiled.stats().convert + r.compiled.stats().high_level)),
        "us",
    );
    report.metric(
        "cicero_dialect.us",
        avg(&|r| us(r.compiled.stats().lowering + r.compiled.stats().low_level)),
        "us",
    );
    report.metric("isa.codegen_us", avg(&|r| us(r.compiled.stats().codegen)), "us");
    for name in PASSES {
        let time = avg(&|r| pass_figures(r, name).0);
        let delta = avg(&|r| pass_figures(r, name).1);
        report.metric(format!("core.pass.{name}_us"), time, "us");
        report.metric(format!("core.pass.{name}_ops_delta"), delta, "ops");
    }
    report.metric("core.compile_ms_per_re", avg(&|r| r.compile_ms), "ms");
    report.metric("core.code_size", avg(&|r| r.compiled.code_size() as f64), "instructions");
    report.metric("core.d_offset", avg(&|r| r.compiled.d_offset() as f64), "instructions");
    report.metric("legacy.code_size", avg(&|r| r.legacy_size as f64), "instructions");
    report.metric("legacy.compile_ms_per_re", avg(&|r| r.legacy_ms), "ms");

    let config = default_config();
    let f = &pass.figures;
    report.metric("sim.cycles_per_re", f.cycles as f64 / f.runs.max(1) as f64, "cycles");
    report.metric("sim.icache_hit_rate", f.icache_hit_rate(), "ratio");
    report.metric("sim.host_ns_per_cycle", f.sim_s * 1e9 / f.cycles.max(1) as f64, "ns");
    report.metric("sim.us_per_re", f.us_per_re(&config), "us");
    report.metric("sim.wus_per_re", f.wus_per_re(&config), "W.us");
    report.metric("sim.kbps", f.sim_bytes as f64 / f.sim_s / 1e3, "KB/s");
}

/// The figures of the layers only a served workload reaches, with their
/// units; `paper_sim`, which runs no server, reports each as 0.
const SERVED_METRICS: [(&str, &str); 25] = [
    ("server.queue_wait_p50_ms", "ms"),
    ("server.queue_wait_p99_ms", "ms"),
    ("server.rejected", "count"),
    ("runtime.cache_hit_ratio", "ratio"),
    ("runtime.faults", "count"),
    ("runtime.budget_exceeded", "count"),
    ("runtime.worker_restarts", "count"),
    ("registry.swaps", "count"),
    ("loadgen.late_p99_ms", "ms"),
    ("loadgen.client_p50_ms", "ms"),
    ("server.http_parse_us", "us"),
    ("server.json_parse_us", "us"),
    ("server.response_write_us", "us"),
    ("server.unaccounted_ms", "ms"),
    ("server.unaccounted_share", "ratio"),
    ("registry.put_ms", "ms"),
    ("registry.pin_us", "us"),
    ("runtime.host_program_us", "us"),
    ("runtime.batch_us", "us"),
    ("runtime.batch_jobs", "threads"),
    ("runtime.stream_us", "us"),
    ("runtime.stream_chunks", "count"),
    ("hostexec.merge_us", "us"),
    ("runtime.compile_set_ms", "ms"),
    ("hostexec.lower_ms", "ms"),
];

/// The layers a served workload reaches: a live phase over sockets, an
/// in-process replay whose spans go to `rec`, probes of the executor its
/// requests do not reach, and a cold compile-and-lower of its sets.
fn served_layers(
    shape: Shape,
    traffic: &Traffic,
    seconds: f64,
    rec: &mut Recorder,
    report: &mut Report,
) -> Result<(), String> {
    // Live phase: the workload's own traffic, untraced, over sockets.
    let live = served::run(shape, traffic, seconds * LIVE_SHARE, false)?;
    report.attempted += live.attempted;
    report.fail(live.failed, &live.reasons);
    let client_p50 = percentile(&live.latency_ms, 50.0).or_else(|| mean(&live.latency_ms));
    let telemetry = &live.telemetry;
    let queue = telemetry.histogram("server.queue_wait_ms");
    let quantile = |q| queue.as_ref().and_then(|h| histogram_quantile(h, q)).unwrap_or(0.0);
    report.metric("server.queue_wait_p50_ms", quantile(0.5), "ms");
    report.metric("server.queue_wait_p99_ms", quantile(0.99), "ms");
    report.metric("server.rejected", telemetry.counter("server.rejected") as f64, "count");
    let (hits, misses) =
        (telemetry.counter("runtime.cache_hits"), telemetry.counter("runtime.cache_misses"));
    report.metric("runtime.cache_hit_ratio", hits as f64 / (hits + misses).max(1) as f64, "ratio");
    for counter in ["runtime.faults", "runtime.budget_exceeded", "runtime.worker_restarts"] {
        report.metric(counter, telemetry.counter(counter) as f64, "count");
    }
    report.metric("registry.swaps", telemetry.counter("registry.swaps") as f64, "count");
    let late = tail(&live.late_ms).map_or(0.0, |(_, v)| v);
    report.metric("loadgen.late_p99_ms", late, "ms");
    report.metric("loadgen.client_p50_ms", client_p50.unwrap_or(0.0), "ms");

    // Replay: warm (untraced), traced, untraced again for the overhead.
    let ops = sample(traffic);
    let stack = Stack::new();
    let mut quiet = Recorder::new(false);
    replay_pass(&stack, &mut quiet, &ops, &mut Tally::default(), report);
    let mut tally = Tally::default();
    let traced_s = replay_pass(&stack, rec, &ops, &mut tally, report);
    let untraced_s = replay_pass(&stack, &mut quiet, &ops, &mut Tally::default(), report);
    report.metric("telemetry.trace_overhead_pct", (traced_s / untraced_s - 1.0) * 100.0, "%");

    // Executors the workload's requests did not reach, probed on its inputs.
    let reached = rec.total_us_by_name();
    let program = stack.runtime.compile_set(&traffic.sets[0]).map_err(|e| e.to_string())?;
    if !reached.contains_key("runtime.batch") || !reached.contains_key("runtime.host_program") {
        for group in traffic.inputs.chunks(4).take(16) {
            rec.next_request();
            let input: Vec<u8> = group.concat();
            scan_batch(&stack, rec, &program, &input, traffic.sets[0].len(), &mut tally);
            rec.span("runtime.host_program", |_| stack.runtime.host_program(&program));
        }
    }
    if !reached.contains_key("runtime.stream") {
        let body: Vec<u8> = traffic.inputs.concat();
        for _ in 0..8 {
            rec.next_request();
            scan_stream(&stack, rec, &program, &body, &mut tally)?;
        }
    }
    let own = rec.self_us_by_name();
    let total = rec.total_us_by_name();
    let avg = |map: &BTreeMap<&str, Vec<f64>>, name: &str| map.get(name).and_then(|v| mean(v));
    let us = |map: &BTreeMap<&str, Vec<f64>>, name| avg(map, name).unwrap_or(0.0);
    report.metric("server.http_parse_us", us(&own, "server.http_parse"), "us");
    report.metric("server.json_parse_us", us(&own, "server.json_parse"), "us");
    report.metric("server.response_write_us", us(&own, "server.response_write"), "us");
    // The same statistic on both sides: the p50 where both support one,
    // else the mean (a replayed stream cycle is too short for a p50).
    let compared = percentile(&live.latency_ms, 50.0)
        .zip(percentile(&tally.read_ms, 50.0))
        .or_else(|| mean(&live.latency_ms).zip(mean(&tally.read_ms)));
    let unaccounted = compared.map_or(0.0, |(client, replay)| client - replay);
    report.metric("server.unaccounted_ms", unaccounted, "ms");
    let share = compared.map_or(0.0, |(client, _)| unaccounted / client);
    report.metric("server.unaccounted_share", share, "ratio");
    report.metric("registry.put_ms", us(&total, "registry.put") / 1e3, "ms");
    report.metric("registry.pin_us", us(&own, "registry.pin"), "us");
    report.metric("runtime.host_program_us", us(&total, "runtime.host_program"), "us");
    report.metric("runtime.batch_us", us(&total, "runtime.batch"), "us");
    report.metric("runtime.batch_jobs", mean(&tally.batch_jobs).unwrap_or(0.0), "threads");
    report.metric("runtime.stream_us", us(&total, "runtime.stream"), "us");
    report.metric("runtime.stream_chunks", mean(&tally.stream_chunks).unwrap_or(0.0), "count");
    report.metric("hostexec.merge_us", us(&total, "hostexec.merge"), "us");

    // Cold compile-and-lower of the workload's pattern sets.
    let mut compile_ms = Vec::new();
    let mut lower_ms = Vec::new();
    let options = crate::load::server_options().runtime;
    for set in traffic.sets.iter().take(PROBE_SETS) {
        let runtime = Runtime::new(options);
        let start = Instant::now();
        let program = runtime.compile_set(set).map_err(|e| e.to_string())?;
        compile_ms.push(start.elapsed().as_secs_f64() * 1e3);
        let start = Instant::now();
        std::hint::black_box(HostProgram::compile_with_tiers(&program, options.host_tiers));
        lower_ms.push(start.elapsed().as_secs_f64() * 1e3);
    }
    let cache = stack.runtime.cache().stats();
    report.note(format!(
        "replay runtime cache: {} hits, {} misses, {} evictions, {} entries",
        cache.hits, cache.misses, cache.evictions, cache.entries
    ));
    report.metric("runtime.compile_set_ms", mean(&compile_ms).unwrap_or(0.0), "ms");
    report.metric("hostexec.lower_ms", mean(&lower_ms).unwrap_or(0.0), "ms");

    if let Some((client, _)) = compared {
        report.note(format!(
            "server.unaccounted_ms is {:.1}% of the live figure of {client:.4} ms (not gated)",
            100.0 * share
        ));
    }
    Ok(())
}

/// The traced run of one workload: a served shape, or `None` for
/// `paper_sim`.
pub fn traced(
    shape: Option<Shape>,
    seed: u64,
    seconds: f64,
    spans_out: &str,
) -> Result<Report, String> {
    let mut report = Report::default();
    let mut rec = Recorder::new(true);
    let pass = match shape {
        Some(shape) => {
            let traffic = served::traffic(shape, seed);
            served_layers(shape, &traffic, seconds, &mut rec, &mut report)?;
            paper_pass(&probe_jobs(&traffic), &mut rec, &mut report)
        }
        None => {
            for (name, unit) in SERVED_METRICS {
                report.metric(name, 0.0, unit);
            }
            report.note("no server runs, so the served layers do not apply and read 0");
            // Warm, traced, untraced again for the overhead, as a replay.
            let jobs = paper::jobs(seed);
            paper_pass(&jobs, &mut Recorder::new(false), &mut report);
            let pass = paper_pass(&jobs, &mut rec, &mut report);
            let untraced = paper_pass(&jobs, &mut Recorder::new(false), &mut report);
            let overhead = (pass.wall_s / untraced.wall_s - 1.0) * 100.0;
            report.metric("telemetry.trace_overhead_pct", overhead, "%");
            pass
        }
    };
    paper_metrics(&pass, &mut report);
    hostexec_suites(seed, &mut report);

    std::fs::create_dir_all(std::path::Path::new(spans_out).parent().unwrap_or(".".as_ref()))
        .and_then(|()| std::fs::write(spans_out, rec.to_jsonl()))
        .map_err(|e| format!("writing {spans_out}: {e}"))?;
    report.note(format!("{} spans written to {spans_out}", rec.spans().len()));
    Ok(report)
}
