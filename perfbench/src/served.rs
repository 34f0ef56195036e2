//! The served workloads: traffic over real sockets against an in-process
//! server with default options.

use crate::load::{closed_loop, open_loop, segmented, set_up_median, Phase, Stop};
use crate::traffic::{
    bulk_ruleset, bulk_traffic, churn_traffic, scan_traffic, suite_pair, Traffic,
};
use cicero_telemetry::Telemetry;

/// Open-loop arrival rate of `scan_small`, requests per second: about a
/// quarter of the ~550 req/s closed-loop `scan_rps` measured on a 2-CPU
/// host when the benchmark was written. At half the capacity, queueing
/// turned the host's ±10% speed drift into ±25% swings of the median.
pub const SCAN_SMALL_OPEN_RATE: f64 = 140.0;

/// Share of a `scan_small` run spent in the open-loop phase.
const OPEN_SHARE: f64 = 0.4;

/// Set-up repetitions per run; `setup_s` is their median.
pub const SETUP_REPS: usize = 5;

/// Chunks generated per suite for the `/scan` request pools.
const SCAN_CHUNKS: usize = 256;

/// Ops per connection cycle in `/scan` request pools.
const SCAN_OPS: usize = 512;

/// A served traffic shape.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Shape {
    /// `scan_small`: an open-loop phase, then a closed-loop phase.
    ScanSmall,
    /// `scan_bulk`: whole cycles of large stream bodies on one connection.
    ScanBulk,
    /// `ruleset_churn`: inline scans beside reads and swaps.
    Churn,
}

/// The seeded traffic of a shape.
pub fn traffic(shape: Shape, seed: u64) -> Traffic {
    match shape {
        Shape::ScanSmall => scan_traffic(seed, &suite_pair(seed, SCAN_CHUNKS), 2, SCAN_OPS),
        Shape::ScanBulk => bulk_traffic(seed, &bulk_ruleset()),
        Shape::Churn => churn_traffic(seed),
    }
}

/// What a served run measured.
pub struct Served {
    /// Median set-up time, seconds.
    pub setup_s: f64,
    /// Client-observed read latencies, ms (the open-loop phase for
    /// `scan_small`).
    pub latency_ms: Vec<f64>,
    /// `PUT` latencies, ms.
    pub put_ms: Vec<f64>,
    /// How late the generator sent requests, ms.
    pub late_ms: Vec<f64>,
    /// The closed-loop phase, for capacity figures.
    pub capacity: Phase,
    /// Ops sent over the whole run.
    pub attempted: u64,
    /// Failed ops over the whole run.
    pub failed: u64,
    /// The first few failure reasons.
    pub reasons: Vec<String>,
    /// The server's telemetry after the run.
    pub telemetry: Telemetry,
}

impl Served {
    /// Correct reads per second in the closed-loop phase.
    pub fn rps(&self) -> f64 {
        self.capacity.reads() as f64 / self.capacity.wall
    }

    /// Bytes scanned per second in the closed-loop phase, MB/s.
    pub fn mbps(&self) -> f64 {
        self.capacity.bytes() as f64 / self.capacity.wall / 1e6
    }
}

/// Run `traffic` shaped as `shape` for about `seconds`; `full` asks for
/// the untraced run's sample sizes (bulk: at least three whole cycles).
pub fn run(shape: Shape, traffic: &Traffic, seconds: f64, full: bool) -> Result<Served, String> {
    let (live, setup_s) = set_up_median(traffic, SETUP_REPS)?;
    let conns = &traffic.conns;
    let addr = live.addr;
    // Segments of about a second each, on fresh connections.
    let segments = |s: f64| (s.round() as usize).max(1);
    let closed = |seconds: f64| {
        let n = segments(seconds);
        let stop = Stop { seconds: seconds / n as f64, min_ops: 0 };
        segmented(conns, |done, _| done < n, |conns| closed_loop(addr, conns, stop))
    };
    let (open, capacity) = match shape {
        Shape::ScanSmall => {
            let open_s = seconds * OPEN_SHARE;
            let n = segments(open_s);
            let open = segmented(
                conns,
                |done, _| done < n,
                |conns| open_loop(addr, conns, SCAN_SMALL_OPEN_RATE, open_s / n as f64),
            );
            (Some(open), closed(seconds - open_s))
        }
        Shape::ScanBulk => {
            // Whole cycles, one per fresh connection, so every body weighs
            // the same in the median.
            let cycles = if full { 3 } else { 1 };
            let stop = Stop { seconds: 0.0, min_ops: conns[0].len() };
            let more = |done, wall| done < cycles || wall < seconds;
            (None, segmented(conns, more, |conns| closed_loop(addr, conns, stop)))
        }
        Shape::Churn => (None, closed(seconds)),
    };
    let telemetry = live.telemetry.clone();
    live.stop()?;
    let timed = open.as_ref().unwrap_or(&capacity);
    let mut reasons = timed.reasons.clone();
    if open.is_some() {
        reasons.extend(capacity.reasons.iter().cloned());
    }
    Ok(Served {
        setup_s,
        latency_ms: timed.read_ms(),
        put_ms: capacity.put_ms(),
        late_ms: timed.late_ms.clone(),
        attempted: capacity.attempted + open.as_ref().map_or(0, |p| p.attempted),
        failed: capacity.failed + open.as_ref().map_or(0, |p| p.failed),
        reasons,
        capacity,
        telemetry,
    })
}
