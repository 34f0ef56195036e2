//! **Server load** — closed-loop load generation against the
//! `cicero-server` HTTP front door over real sockets, exported to
//! `BENCH_server.json`.
//!
//! The scenario is the serving tier under steady traffic: `CLIENTS`
//! closed-loop clients (each issues its next request only after reading
//! the previous response) share one in-process server over loopback TCP.
//! The request mix is seeded from the `workloads` suites — `POST /scan`
//! with a suite's full pattern set over its chunks, interleaved with
//! `POST /match` for a single pattern over one chunk — so the program
//! cache sees the repeated-set traffic it was built for.
//!
//! The bench runs **two passes** against fresh servers: a single-worker
//! baseline and a `CLIENTS`-worker configuration. The ratio is the
//! multi-worker speedup; on a host with ≥ 4 CPUs the bench *asserts*
//! the multi-worker pass sustains ≥ 2× the single-worker req/s (the
//! acceptance floor), so a single-core CI cannot silently mask a
//! parallelism regression on real hardware.
//!
//! Reported per pass: sustained throughput (requests/s), client-observed
//! latency percentiles (p50/p90/p99), and the shutdown drain — each pass
//! ends with `POST /shutdown` and asserts that every request got a `200`
//! (zero drops) and that the drain completed inside the timeout.
//!
//! Request volume follows `CICERO_BENCH_SCALE`: `quick` 1 000, default
//! 10 000, `full` 20 000 (split across the two passes). Output path via
//! `CICERO_BENCH_SERVER` (empty to disable, default `BENCH_server.json`).

use std::fmt::Write as _;
use std::io::{BufRead, BufReader, Read, Write};
use std::net::TcpStream;
use std::time::{Duration, Instant};

use cicero_bench::{banner, f2, Scale, SEED};
use cicero_runtime::RuntimeOptions;
use cicero_server::{DrainReport, Server, ServerOptions};
use cicero_telemetry::escape_json;
use workloads::Benchmark;

/// Concurrent closed-loop clients (the acceptance floor is 4).
const CLIENTS: usize = 4;

/// The multi-worker pass must beat the single-worker pass by at least
/// this factor on a host with ≥ 4 CPUs.
const SPEEDUP_FLOOR: f64 = 2.0;

/// Patterns per suite / chunks per suite in the request mix. Kept small:
/// the load bench measures the serving tier, not simulator throughput.
const MIX_PATTERNS: usize = 4;
const MIX_CHUNKS: usize = 2;

fn total_requests(scale: Scale) -> usize {
    match scale.patterns {
        8 => 1_000,    // quick
        200 => 20_000, // full
        _ => 10_000,
    }
}

/// One request template: path + body, rendered per send so each request
/// carries its own `X-Cicero-Request-Id` header.
struct RequestTemplate {
    path: &'static str,
    body: String,
    endpoint: &'static str,
}

impl RequestTemplate {
    fn render(&self, request_id: &str) -> Vec<u8> {
        format!(
            "POST {} HTTP/1.1\r\ncontent-length: {}\r\nx-cicero-request-id: {request_id}\r\n\r\n{}",
            self.path,
            self.body.len(),
            self.body
        )
        .into_bytes()
    }
}

fn post(path: &str, body: &str) -> Vec<u8> {
    format!("POST {path} HTTP/1.1\r\ncontent-length: {}\r\n\r\n{body}", body.len()).into_bytes()
}

fn json_str_array(items: &[String]) -> String {
    let quoted: Vec<String> = items.iter().map(|s| format!("\"{}\"", escape_json(s))).collect();
    format!("[{}]", quoted.join(","))
}

/// Build the seeded request mix for one suite: one `/scan` of the whole
/// set over the suite input, then one `/match` per pattern over one
/// chunk.
fn suite_templates(bench: &Benchmark) -> Vec<RequestTemplate> {
    let input: Vec<u8> = bench.chunks.iter().flatten().copied().collect();
    let input = String::from_utf8(input).expect("workload chunks are ASCII");
    let mut templates = vec![RequestTemplate {
        path: "/scan",
        body: format!(
            "{{\"patterns\":{},\"input\":\"{}\"}}",
            json_str_array(&bench.patterns),
            escape_json(&input)
        ),
        endpoint: "scan",
    }];
    for (i, pattern) in bench.patterns.iter().enumerate() {
        let chunk = &bench.chunks[i % bench.chunks.len()];
        let chunk = std::str::from_utf8(chunk).expect("workload chunks are ASCII");
        templates.push(RequestTemplate {
            path: "/match",
            body: format!(
                "{{\"pattern\":\"{}\",\"input\":\"{}\"}}",
                escape_json(pattern),
                escape_json(chunk)
            ),
            endpoint: "match",
        });
    }
    templates
}

/// Read one keep-alive response; returns the status code and the echoed
/// `X-Cicero-Request-Id` header.
fn read_response(reader: &mut BufReader<TcpStream>) -> (u16, Option<String>) {
    let mut status_line = String::new();
    reader.read_line(&mut status_line).expect("response status line");
    let status: u16 = status_line
        .split(' ')
        .nth(1)
        .and_then(|code| code.parse().ok())
        .unwrap_or_else(|| panic!("bad status line {status_line:?}"));
    let mut content_length = 0usize;
    let mut request_id = None;
    loop {
        let mut line = String::new();
        reader.read_line(&mut line).expect("response header line");
        let line = line.trim_end();
        if line.is_empty() {
            break;
        }
        if let Some(value) = line.strip_prefix("content-length: ") {
            content_length = value.parse().expect("content-length value");
        }
        if let Some(value) = line.strip_prefix("x-cicero-request-id: ") {
            request_id = Some(value.to_owned());
        }
    }
    let mut body = vec![0u8; content_length];
    reader.read_exact(&mut body).expect("response body");
    (status, request_id)
}

/// One closed-loop client: `count` requests round-robin over the mix on
/// a single keep-alive connection, each tagged with a unique
/// `X-Cicero-Request-Id` that the response must echo back. Returns
/// per-request latencies (ms).
fn run_client(
    addr: std::net::SocketAddr,
    templates: &[RequestTemplate],
    client: usize,
    count: usize,
) -> Vec<f64> {
    let stream = TcpStream::connect(addr).expect("connect");
    stream.set_nodelay(true).expect("nodelay");
    let mut writer = stream.try_clone().expect("clone stream");
    let mut reader = BufReader::new(stream);
    let mut latencies = Vec::with_capacity(count);
    // Stagger the round-robin start so clients exercise different
    // endpoints concurrently.
    let start_at = client * 3;
    for i in 0..count {
        let template = &templates[(start_at + i) % templates.len()];
        let request_id = format!("load-c{client}-r{i}");
        let start = Instant::now();
        writer.write_all(&template.render(&request_id)).expect("send request");
        let (status, echoed) = read_response(&mut reader);
        assert_eq!(status, 200, "closed-loop request to /{} failed", template.endpoint);
        assert_eq!(
            echoed.as_deref(),
            Some(request_id.as_str()),
            "response must echo the client's X-Cicero-Request-Id"
        );
        latencies.push(start.elapsed().as_secs_f64() * 1e3);
    }
    latencies
}

fn percentile(sorted: &[f64], p: f64) -> f64 {
    if sorted.is_empty() {
        return 0.0;
    }
    let index = ((sorted.len() - 1) as f64 * p).round() as usize;
    sorted[index]
}

/// Everything one pass produces for the report.
struct PassResult {
    workers: usize,
    served: usize,
    throughput_rps: f64,
    p50: f64,
    p90: f64,
    p99: f64,
    max: f64,
    run_wall: Duration,
    drain_wall: Duration,
    report: DrainReport,
}

/// Run one full closed-loop pass against a fresh server with the given
/// worker count, including graceful shutdown with zero-drop assertions.
fn run_pass(
    templates: &std::sync::Arc<Vec<RequestTemplate>>,
    workers: usize,
    total: usize,
) -> PassResult {
    let per_client = (total / CLIENTS).max(1);
    let server = Server::bind(ServerOptions {
        addr: "127.0.0.1:0".to_owned(),
        workers,
        queue_depth: 64,
        drain_timeout: Duration::from_millis(5000),
        runtime: RuntimeOptions { jobs: 1, ..RuntimeOptions::default() },
        ..ServerOptions::default()
    })
    .expect("bind");
    let addr = server.local_addr().expect("local addr");
    let handle = server.handle();
    let server_thread = std::thread::spawn(move || server.run().expect("server run"));

    let run_start = Instant::now();
    let mut clients = Vec::new();
    for client in 0..CLIENTS {
        let templates = std::sync::Arc::clone(templates);
        clients.push(std::thread::spawn(move || run_client(addr, &templates, client, per_client)));
    }
    let mut latencies: Vec<f64> = Vec::with_capacity(per_client * CLIENTS);
    for client in clients {
        latencies.extend(client.join().expect("client thread"));
    }
    let run_wall = run_start.elapsed();
    let served = latencies.len();
    assert_eq!(served, per_client * CLIENTS, "every closed-loop request must be answered");

    // Graceful shutdown: the server must answer the shutdown request,
    // drain, and report zero drops.
    let drain_requested = Instant::now();
    {
        let stream = TcpStream::connect(addr).expect("connect for shutdown");
        let mut writer = stream.try_clone().expect("clone stream");
        let mut reader = BufReader::new(stream);
        writer.write_all(&post("/shutdown", "")).expect("send shutdown");
        let (status, minted) = read_response(&mut reader);
        assert_eq!(status, 200, "shutdown must be acknowledged");
        assert!(minted.is_some(), "even an id-less request gets a server-minted request id");
    }
    let report = server_thread.join().expect("server thread");
    let drain_wall = drain_requested.elapsed();
    assert!(report.drained, "drain must complete inside the timeout: {report:?}");
    assert!(handle.is_draining());
    assert_eq!(report.rejected, 0, "a closed loop within capacity never trips admission");
    assert_eq!(
        report.requests,
        served as u64 + 1, // + the shutdown request itself
        "no in-flight request may be dropped during drain"
    );

    latencies.sort_by(|a, b| a.partial_cmp(b).expect("latencies are finite"));
    PassResult {
        workers,
        served,
        throughput_rps: served as f64 / run_wall.as_secs_f64(),
        p50: percentile(&latencies, 0.50),
        p90: percentile(&latencies, 0.90),
        p99: percentile(&latencies, 0.99),
        max: latencies.last().copied().unwrap_or(0.0),
        run_wall,
        drain_wall,
        report,
    }
}

fn print_pass(label: &str, pass: &PassResult) {
    println!(
        "  {label:<13}: {} req/s over {:.2} s ({} workers)",
        f2(pass.throughput_rps),
        pass.run_wall.as_secs_f64(),
        pass.workers
    );
    println!(
        "                 p50 {} ms  p90 {} ms  p99 {} ms  max {} ms; drain {:.1} ms, {} served, \
         {} rejected",
        f2(pass.p50),
        f2(pass.p90),
        f2(pass.p99),
        f2(pass.max),
        pass.report.wall.as_secs_f64() * 1e3,
        pass.report.requests,
        pass.report.rejected
    );
}

fn pass_json(pass: &PassResult) -> String {
    format!(
        "{{\"workers\": {}, \"requests\": {}, \"throughput_rps\": {:.1}, \
         \"latency_ms\": {{\"p50\": {:.3}, \"p90\": {:.3}, \"p99\": {:.3}, \"max\": {:.3}}}, \
         \"run_seconds\": {:.3}, \"drained\": {}, \"drain_ms\": {:.1}, \
         \"served_total\": {}, \"rejected_at_admission\": {}}}",
        pass.workers,
        pass.served,
        pass.throughput_rps,
        pass.p50,
        pass.p90,
        pass.p99,
        pass.max,
        pass.run_wall.as_secs_f64(),
        pass.report.drained,
        pass.drain_wall.as_secs_f64() * 1e3,
        pass.report.requests,
        pass.report.rejected,
    )
}

fn main() {
    let scale = Scale::from_env();
    banner("Server", "closed-loop HTTP load vs the cicero-server front door", scale);
    let total = total_requests(scale);
    let per_pass = total / 2;
    let host_cpus =
        std::thread::available_parallelism().map(std::num::NonZeroUsize::get).unwrap_or(1);

    // The request mix: the simple suites, small, seeded — repeated sets
    // are the cache-friendly common case for serving traffic.
    let mut templates = Vec::new();
    templates.extend(suite_templates(&Benchmark::protomata(SEED, MIX_PATTERNS, MIX_CHUNKS)));
    templates.extend(suite_templates(&Benchmark::brill(SEED, MIX_PATTERNS, MIX_CHUNKS)));
    let scan_templates = templates.iter().filter(|t| t.endpoint == "scan").count();
    let templates = std::sync::Arc::new(templates);

    println!(
        "  {total} requests from {CLIENTS} closed-loop clients, split over a 1-worker and a \
         {CLIENTS}-worker pass ({} templates, {scan_templates} scans/cycle)",
        templates.len()
    );

    let single = run_pass(&templates, 1, per_pass);
    let multi = run_pass(&templates, CLIENTS, per_pass);
    let speedup = multi.throughput_rps / single.throughput_rps;
    let speedup_asserted = host_cpus >= 4;

    println!();
    print_pass("single-worker", &single);
    print_pass("multi-worker", &multi);
    println!(
        "  speedup      : {}x multi-worker over single-worker on {host_cpus} CPU(s) \
         (floor {SPEEDUP_FLOOR}x, asserted only when host_cpus >= 4)",
        f2(speedup)
    );
    if speedup_asserted {
        assert!(
            speedup >= SPEEDUP_FLOOR,
            "multi-core host must sustain >= {SPEEDUP_FLOOR}x single-worker throughput, \
             got {speedup:.2}x ({:.1} vs {:.1} req/s)",
            multi.throughput_rps,
            single.throughput_rps
        );
    } else {
        println!("  (speedup recorded but not asserted: {host_cpus} CPU(s), the floor needs >= 4)");
    }

    let path =
        std::env::var("CICERO_BENCH_SERVER").unwrap_or_else(|_| "BENCH_server.json".to_owned());
    if !path.is_empty() {
        let mut json = String::new();
        json.push_str("{\n");
        json.push_str("  \"bench\": \"server_load\",\n");
        let _ = writeln!(json, "  \"clients\": {CLIENTS},");
        let _ = writeln!(json, "  \"requests\": {},", single.served + multi.served);
        let _ = writeln!(json, "  \"host_cpus\": {host_cpus},");
        json.push_str(
            "  \"notes\": \"closed-loop clients over loopback TCP; latency is client-observed \
             round-trip per request (POST /scan with a suite's pattern set, POST /match per \
             pattern); two passes against fresh servers (1 worker, then `clients` workers) and \
             multiworker_speedup is their req/s ratio, asserted >= 2.0 when host_cpus >= 4; each \
             pass ends with POST /shutdown and asserts a complete drain with zero dropped \
             requests\",\n",
        );
        let _ = writeln!(json, "  \"throughput_rps\": {:.1},", multi.throughput_rps);
        let _ = writeln!(
            json,
            "  \"latency_ms\": {{\"p50\": {:.3}, \"p90\": {:.3}, \"p99\": {:.3}, \"max\": {:.3}}},",
            multi.p50, multi.p90, multi.p99, multi.max
        );
        let _ = writeln!(json, "  \"multiworker_speedup\": {speedup:.3},");
        let _ = writeln!(json, "  \"speedup_floor\": {SPEEDUP_FLOOR:.1},");
        let _ = writeln!(json, "  \"speedup_asserted\": {speedup_asserted},");
        let _ = writeln!(json, "  \"single_worker\": {},", pass_json(&single));
        let _ = writeln!(json, "  \"multi_worker\": {}", pass_json(&multi));
        json.push_str("}\n");
        match std::fs::write(&path, json) {
            Ok(()) => println!("\n  results written to {path}"),
            Err(e) => eprintln!("  warning: could not write {path}: {e}"),
        }
    }
}
