//! **Host backend** — single-thread scanning throughput of the
//! bit-parallel host-native engine on the Table-2 suites, exported to
//! `BENCH_host.json`.
//!
//! The host-backend tentpole lowers the `cicero` ISA to a bit-parallel
//! Thompson NFA (u64/u128 masks, a bank of such engines for wide
//! pattern sets, byte-class-compressed lazy-DFA fallback, memchr-style
//! literal prefilter). This bench pins the claim that the lowering is
//! worth serving from. Each suite gets two rows over one long haystack
//! built from the suite's own 500-byte chunks:
//!
//! * `per-pattern` — each pattern compiled and lowered on its own, the
//!   haystack scanned once per pattern; MB/s counts every pattern's pass.
//! * `set` — the whole suite compiled as one multi-matching set through
//!   the server's runtime (`compile_set`, then the memoized host
//!   lowering) and scanned the way `POST /scan` scans it: each 500-byte
//!   chunk with a fresh matcher to its first acceptance, and each
//!   accepting chunk again with `run_all` for the per-pattern counts.
//!   The row reports how many bank bins the set split into.
//!
//! Per-pattern throughput is whole-haystack `run_all` — the engine
//! cannot stop at the first accept, so every reported byte was actually
//! stepped or prefiltered.
//!
//! The run **fails (nonzero exit) if a PROTOMATA or BRILL row falls
//! below its floor**: per-pattern rows at 100 MB/s by default (override
//! via `CICERO_HOST_MBPS_FLOOR`), set rows at a fixed
//! [`SET_FLOOR_MBPS`], far under the bank's measured rate but far above
//! the 1–3 MB/s of a set on one lazy DFA. The alternate suites
//! (PROTOMATA4/BRILL4) are reported but not gated: their 4-way
//! alternations select wider engines whose throughput is a different
//! trade-off, tracked by the JSON rather than asserted.
//!
//! Scale via `CICERO_BENCH_SCALE` (quick/default/full); output path via
//! `CICERO_BENCH_HOST` (empty to disable, default `BENCH_host.json`).

use std::fmt::Write as _;
use std::time::Instant;

use cicero_bench::{banner, f2, suites, Scale, Table};
use cicero_runtime::{HostProgram, Runtime};
use cicero_server::ServerOptions;

/// Haystack size per suite: the suite's chunks are concatenated and
/// tiled up to this many bytes, so per-call overhead is amortized and
/// the prefilter sees realistic skip distances.
const HAYSTACK_BYTES: usize = 1 << 19; // 512 KiB

/// Suites whose throughput is gated by the floors.
const GATED: &[&str] = &["PROTOMATA", "BRILL"];

/// Floor for the gated `set` rows, in MB/s single-thread.
const SET_FLOOR_MBPS: f64 = 8.0;

struct Row {
    suite: &'static str,
    /// `per-pattern` or `set`.
    program: &'static str,
    patterns: usize,
    mbps: f64,
    matched: usize,
    engines: String,
    prefiltered: usize,
    /// Bank bins of the set program (`set` rows only).
    bins: Option<usize>,
    gated: bool,
    /// Floor in MB/s, enforced when `gated`.
    floor: f64,
}

/// Whole-haystack `run_all` throughput of `hosts`, each scanning
/// `input` once after one warm-up pass (which populates lazy-DFA memo
/// tables the way a long-lived server process would), with the number
/// of programs that accepted.
fn throughput(hosts: &[HostProgram], input: &[u8]) -> (f64, usize) {
    for host in hosts {
        std::hint::black_box(host.run_all(input));
    }
    let start = Instant::now();
    let mut matched = 0usize;
    for host in hosts {
        let outcome = host.run_all(input);
        matched += usize::from(outcome.accepted);
        std::hint::black_box(&outcome);
    }
    let elapsed = start.elapsed().as_secs_f64();
    ((hosts.len() * input.len()) as f64 / elapsed / 1e6, matched)
}

/// Throughput of `set` over `input` scanned as `POST /scan` scans a
/// body: per 500-byte chunk a first-acceptance run, then `run_all` on
/// the chunks that accepted. Returns MB/s and the distinct identifiers
/// that fired anywhere.
fn served_throughput(set: &HostProgram, input: &[u8]) -> (f64, usize) {
    let scan = || {
        let mut ids: Vec<u16> = Vec::new();
        for chunk in input.chunks(workloads::CHUNK_BYTES) {
            if set.run(chunk).accepted {
                ids.extend(set.run_all(chunk).matched_ids);
            }
        }
        ids.sort_unstable();
        ids.dedup();
        ids.len()
    };
    std::hint::black_box(scan());
    let start = Instant::now();
    let matched = scan();
    (input.len() as f64 / start.elapsed().as_secs_f64() / 1e6, matched)
}

/// Engine-tier census: which lowering each program selected.
fn census<'a>(hosts: impl IntoIterator<Item = &'a HostProgram>) -> (String, usize) {
    let mut tiers: Vec<(String, usize)> = Vec::new();
    let mut prefiltered = 0usize;
    for host in hosts {
        let kind = host.engine_kind().to_string();
        match tiers.iter_mut().find(|(k, _)| *k == kind) {
            Some((_, n)) => *n += 1,
            None => tiers.push((kind, 1)),
        }
        prefiltered += usize::from(host.prefilter_stop_bytes().is_some());
    }
    tiers.sort();
    let engines =
        tiers.iter().map(|(kind, n)| format!("{n}x {kind}")).collect::<Vec<_>>().join(", ");
    (engines, prefiltered)
}

/// Tile the suite's chunks into one long haystack.
fn haystack(chunks: &[Vec<u8>]) -> Vec<u8> {
    let mut bytes = Vec::with_capacity(HAYSTACK_BYTES);
    while bytes.len() < HAYSTACK_BYTES {
        for chunk in chunks {
            bytes.extend_from_slice(chunk);
            if bytes.len() >= HAYSTACK_BYTES {
                break;
            }
        }
    }
    bytes.truncate(HAYSTACK_BYTES);
    bytes
}

fn main() {
    let scale = Scale::from_env();
    banner("Host", "bit-parallel host engine single-thread throughput", scale);
    let floor_mbps: f64 =
        std::env::var("CICERO_HOST_MBPS_FLOOR").ok().and_then(|v| v.parse().ok()).unwrap_or(100.0);

    let host_cpus =
        std::thread::available_parallelism().map(std::num::NonZeroUsize::get).unwrap_or(1);
    let runtime = Runtime::new(ServerOptions::default().runtime);

    let mut rows: Vec<Row> = Vec::new();
    for bench in suites(scale) {
        let input = haystack(&bench.chunks);
        let gated = GATED.contains(&bench.name);
        // Compile + lower outside the timed region: serving reuses both
        // through the runtime's program and lowering caches.
        let members: Vec<HostProgram> = bench
            .patterns
            .iter()
            .map(|p| {
                let program = cicero_core::compile(p).expect("suite compiles").into_program();
                HostProgram::compile(&program)
            })
            .collect();
        let (mbps, matched) = throughput(&members, &input);
        let (engines, prefiltered) = census(&members);
        rows.push(Row {
            suite: bench.name,
            program: "per-pattern",
            patterns: members.len(),
            mbps,
            matched,
            engines,
            prefiltered,
            bins: None,
            gated,
            floor: floor_mbps,
        });

        let program = runtime.compile_set(&bench.patterns).expect("suite set compiles");
        let set = runtime.host_program(&program);
        let (mbps, matched) = served_throughput(&set, &input);
        let (engines, prefiltered) = census([&*set]);
        rows.push(Row {
            suite: bench.name,
            program: "set",
            patterns: bench.patterns.len(),
            mbps,
            matched,
            engines,
            prefiltered,
            bins: Some(set.bins()),
            gated,
            floor: SET_FLOOR_MBPS,
        });
    }

    let mut table = Table::new(vec![
        "Suite",
        "Program",
        "Patterns",
        "MB/s",
        "Matched",
        "Prefiltered",
        "Bins",
        "Engines",
    ]);
    for row in &rows {
        table.row(vec![
            row.suite.to_owned(),
            row.program.to_owned(),
            row.patterns.to_string(),
            f2(row.mbps),
            row.matched.to_string(),
            row.prefiltered.to_string(),
            row.bins.map_or_else(|| "-".to_owned(), |bins| bins.to_string()),
            row.engines.clone(),
        ]);
    }
    table.print();
    println!(
        "\n  floors     : {} MB/s per-pattern (CICERO_HOST_MBPS_FLOOR), {} MB/s set, \
         single-thread on {}; {host_cpus} host CPU(s)",
        f2(floor_mbps),
        f2(SET_FLOOR_MBPS),
        GATED.join(", ")
    );

    let path = std::env::var("CICERO_BENCH_HOST").unwrap_or_else(|_| "BENCH_host.json".to_owned());
    if !path.is_empty() {
        let mut json = String::new();
        json.push_str("{\n");
        json.push_str("  \"bench\": \"host_backend\",\n");
        let _ = writeln!(json, "  \"haystack_bytes\": {HAYSTACK_BYTES},");
        json.push_str(
            "  \"notes\": \"single-thread host-engine throughput per suite. per-pattern rows: \
             whole-haystack run_all once per separately lowered pattern, counting every pass. \
             set rows: the suite compiled as one set through the server's runtime \
             (compile_set), scanned as POST /scan scans a body (per 500-byte chunk a fresh \
             first-acceptance run, then run_all on accepting chunks), with its bank bins. \
             Compile and lowering are outside the timed region (the runtime caches both); the \
             run exits nonzero when a gated row falls below its floor\",\n",
        );
        let _ = writeln!(json, "  \"host_cpus\": {host_cpus},");
        let _ = writeln!(json, "  \"floor_mbps\": {floor_mbps:.1},");
        let _ = writeln!(json, "  \"set_floor_mbps\": {SET_FLOOR_MBPS:.1},");
        json.push_str("  \"rows\": [\n");
        for (i, row) in rows.iter().enumerate() {
            let bins = row.bins.map_or_else(String::new, |bins| format!(", \"bins\": {bins}"));
            let _ = write!(
                json,
                "    {{\"suite\": \"{}\", \"program\": \"{}\", \"patterns\": {}, \
                 \"throughput_mbps\": {:.3}, \"matched_patterns\": {}, \
                 \"prefiltered_patterns\": {}, \"engines\": \"{}\"{bins}, \"gated\": {}}}",
                row.suite,
                row.program,
                row.patterns,
                row.mbps,
                row.matched,
                row.prefiltered,
                row.engines,
                row.gated,
            );
            json.push_str(if i + 1 < rows.len() { ",\n" } else { "\n" });
        }
        json.push_str("  ]\n}\n");
        match std::fs::write(&path, json) {
            Ok(()) => println!("\n  results written to {path}"),
            Err(e) => eprintln!("  warning: could not write {path}: {e}"),
        }
    }

    let mut failed = false;
    for row in rows.iter().filter(|r| r.gated) {
        if row.mbps < row.floor {
            eprintln!(
                "  FAIL: {} {} at {:.2} MB/s is below the {} MB/s single-thread floor",
                row.suite, row.program, row.mbps, row.floor
            );
            failed = true;
        }
    }
    if failed {
        std::process::exit(1);
    }
    println!("  floors     : PASS");
}
