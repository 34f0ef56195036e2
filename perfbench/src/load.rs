//! The in-process server and the load generators that drive it: closed
//! loops (a connection sends its next request when the previous answer
//! arrives) and open loops (requests go out on a fixed schedule, pipelined,
//! whether or not earlier ones were answered).

use std::net::SocketAddr;
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

use cicero_server::{DrainReport, Server, ServerHandle, ServerOptions};
use cicero_telemetry::Telemetry;

use crate::client::Conn;
use crate::traffic::{Checker, Op, Traffic};

/// A server running on an ephemeral port with `ServerOptions::default()`.
pub struct Live {
    /// Where it listens.
    pub addr: SocketAddr,
    /// Its telemetry collector.
    pub telemetry: Telemetry,
    handle: ServerHandle,
    thread: JoinHandle<std::io::Result<DrainReport>>,
}

/// The options every served workload runs with: the defaults, on an
/// ephemeral loopback port.
pub fn server_options() -> ServerOptions {
    ServerOptions { addr: "127.0.0.1:0".to_owned(), ..ServerOptions::default() }
}

impl Live {
    /// Bind and start serving.
    pub fn start() -> Result<Live, String> {
        let server = Server::bind(server_options()).map_err(|e| format!("bind: {e}"))?;
        let addr = server.local_addr().map_err(|e| format!("local_addr: {e}"))?;
        let telemetry = server.telemetry();
        let handle = server.handle();
        let thread = std::thread::spawn(move || server.run());
        Ok(Live { addr, telemetry, handle, thread })
    }

    /// Drain and wait for the server thread to end.
    pub fn stop(self) -> Result<DrainReport, String> {
        self.handle.shutdown();
        let report = self
            .thread
            .join()
            .map_err(|_| "server thread panicked".to_owned())?
            .map_err(|e| format!("server: {e}"))?;
        if report.drained {
            Ok(report)
        } else {
            Err("server did not drain".to_owned())
        }
    }
}

/// Start a server, install the traffic's rulesets and send its warm-up
/// ops: everything before the first timed request.
pub fn set_up(traffic: &Traffic) -> Result<Live, String> {
    let live = Live::start()?;
    let mut conn = Conn::open(live.addr).map_err(|e| format!("connect: {e}"))?;
    let mut checker = Checker::default();
    let puts: Vec<Op> =
        traffic.rulesets.iter().map(|(id, patterns)| crate::traffic::put(id, patterns)).collect();
    for op in puts.iter().chain(&traffic.warmup) {
        let reply = conn.call(&op.request).map_err(|e| format!("set-up request: {e}"))?;
        checker.check(op, &reply).map_err(|e| format!("set-up request: {e}"))?;
    }
    Ok(live)
}

/// Set up `reps` times and keep the last server; the median set-up time
/// in seconds is the `setup_s` figure.
pub fn set_up_median(traffic: &Traffic, reps: usize) -> Result<(Live, f64), String> {
    let mut times = Vec::with_capacity(reps);
    let mut kept = None;
    for rep in 0..reps {
        let start = Instant::now();
        let live = set_up(traffic)?;
        times.push(start.elapsed().as_secs_f64());
        if rep + 1 == reps {
            kept = Some(live);
        } else {
            live.stop()?;
        }
    }
    Ok((kept.expect("at least one set-up"), crate::stats::median_of(&times)))
}

/// One answered request.
#[derive(Debug, Clone, Copy)]
pub struct Sample {
    /// Client-observed latency (from when it was due, in an open loop).
    pub ms: f64,
    /// Bytes the answer says were scanned.
    pub bytes: u64,
    /// Whether the op was a ruleset `PUT`.
    pub put: bool,
}

/// What one load phase saw.
#[derive(Debug, Default)]
pub struct Phase {
    /// Correct answers.
    pub samples: Vec<Sample>,
    /// Ops sent.
    pub attempted: u64,
    /// Wrong, non-200 or lost answers, with the first few reasons.
    pub failed: u64,
    /// Failure messages (capped).
    pub reasons: Vec<String>,
    /// How late the generator sent each request, ms: past its due time
    /// in an open loop, past the previous answer in a closed loop.
    pub late_ms: Vec<f64>,
    /// Wall-clock length of the phase, seconds.
    pub wall: f64,
    /// Ops each connection sent, in connection order.
    pub sent: Vec<usize>,
}

impl Phase {
    fn fail(&mut self, reason: String) {
        self.failed += 1;
        if self.reasons.len() < 5 {
            self.reasons.push(reason);
        }
    }

    fn merge(&mut self, other: Phase) {
        self.samples.extend(other.samples);
        self.attempted += other.attempted;
        self.failed += other.failed;
        for reason in other.reasons {
            if self.reasons.len() < 5 {
                self.reasons.push(reason);
            }
        }
        self.late_ms.extend(other.late_ms);
        self.sent.extend(other.sent);
    }

    /// Latencies of reads (scans), ms.
    pub fn read_ms(&self) -> Vec<f64> {
        self.samples.iter().filter(|s| !s.put).map(|s| s.ms).collect()
    }

    /// Latencies of ruleset `PUT`s, ms.
    pub fn put_ms(&self) -> Vec<f64> {
        self.samples.iter().filter(|s| s.put).map(|s| s.ms).collect()
    }

    /// Correct reads.
    pub fn reads(&self) -> usize {
        self.samples.iter().filter(|s| !s.put).count()
    }

    /// Bytes scanned by correct reads.
    pub fn bytes(&self) -> u64 {
        self.samples.iter().map(|s| s.bytes).sum()
    }
}

/// When a closed-loop connection may stop: after `seconds` and at least
/// `min_ops` ops.
#[derive(Debug, Clone, Copy)]
pub struct Stop {
    /// Run at least this long.
    pub seconds: f64,
    /// Send at least this many ops.
    pub min_ops: usize,
}

/// One connection per op cycle, each on its own thread, each sending its
/// next request when the previous answer arrived.
pub fn closed_loop(addr: SocketAddr, conns: &[Vec<Op>], stop: Stop) -> Phase {
    let start = Instant::now();
    let mut phase = std::thread::scope(|scope| {
        let handles: Vec<_> = conns
            .iter()
            .map(|ops| scope.spawn(move || closed_conn(addr, ops, stop, start)))
            .collect();
        let mut total = Phase::default();
        for handle in handles {
            total.merge(handle.join().expect("client thread"));
        }
        total
    });
    phase.wall = start.elapsed().as_secs_f64();
    phase
}

fn closed_conn(addr: SocketAddr, ops: &[Op], stop: Stop, start: Instant) -> Phase {
    let mut phase = Phase::default();
    let mut conn = match Conn::open(addr) {
        Ok(conn) => conn,
        Err(e) => {
            phase.attempted += 1;
            phase.fail(format!("connect: {e}"));
            phase.sent.push(0);
            return phase;
        }
    };
    let mut checker = Checker::default();
    let mut previous: Option<Instant> = None;
    for (i, op) in ops.iter().cycle().enumerate() {
        if start.elapsed().as_secs_f64() >= stop.seconds && i >= stop.min_ops {
            break;
        }
        let sent = Instant::now();
        if let Some(previous) = previous {
            phase.late_ms.push(ms(sent - previous));
        }
        phase.attempted += 1;
        match conn.call(&op.request) {
            Ok(reply) => {
                let elapsed = ms(sent.elapsed());
                match checker.check(op, &reply) {
                    Ok(bytes) => {
                        phase.samples.push(Sample { ms: elapsed, bytes, put: op.is_put() })
                    }
                    Err(e) => phase.fail(e),
                }
            }
            Err(e) => {
                phase.fail(format!("request: {e}"));
                break;
            }
        }
        previous = Some(Instant::now());
    }
    phase.sent.push(phase.attempted as usize);
    phase
}

/// `conns.len()` pipelined connections sharing `rate` requests per second
/// on a fixed schedule for `seconds`; each request's latency is timed
/// from when it was due.
pub fn open_loop(addr: SocketAddr, conns: &[Vec<Op>], rate: f64, seconds: f64) -> Phase {
    let start = Instant::now() + Duration::from_millis(5);
    let period = Duration::from_secs_f64(conns.len() as f64 / rate);
    let mut phase = std::thread::scope(|scope| {
        let handles: Vec<_> = conns
            .iter()
            .enumerate()
            .map(|(c, ops)| {
                let first = start + period.mul_f64(c as f64 / conns.len() as f64);
                scope.spawn(move || open_conn(addr, ops, first, period, seconds))
            })
            .collect();
        let mut total = Phase::default();
        for handle in handles {
            total.merge(handle.join().expect("client thread"));
        }
        total
    });
    phase.wall = seconds;
    phase
}

fn open_conn(
    addr: SocketAddr,
    ops: &[Op],
    first: Instant,
    period: Duration,
    seconds: f64,
) -> Phase {
    // Nonblocking I/O and short sleeps: socket read timeouts round up to
    // the kernel tick and would make the generator itself run late.
    const IDLE: Duration = Duration::from_micros(100);
    let mut phase = Phase::default();
    let total = (seconds / period.as_secs_f64()).floor() as usize;
    let mut conn = match Conn::open(addr).and_then(|mut c| c.set_nonblocking(true).map(|()| c)) {
        Ok(conn) => conn,
        Err(e) => {
            abandon(&mut phase, format!("connect: {e}"), 0, total);
            phase.sent.push(total);
            return phase;
        }
    };
    let mut checker = Checker::default();
    let due = |i: usize| first + period.mul_f64(i as f64);
    let mut in_flight = std::collections::VecDeque::new();
    let mut pending = Vec::new();
    let mut next = 0usize;
    while next < total || !in_flight.is_empty() {
        let now = Instant::now();
        let mut busy = false;
        while next < total && due(next) <= now {
            phase.attempted += 1;
            phase.late_ms.push(ms(now - due(next)));
            pending.extend_from_slice(&ops[next % ops.len()].request);
            in_flight.push_back(next);
            next += 1;
        }
        let io = (|| -> std::io::Result<bool> {
            let wrote = !pending.is_empty() && conn.write_some(&mut pending)?;
            Ok(conn.read_some()? || wrote)
        })();
        match io {
            Ok(progress) => busy |= progress,
            Err(e) => {
                abandon(&mut phase, format!("socket: {e}"), in_flight.len(), total - next);
                phase.sent.push(total);
                return phase;
            }
        }
        while let Some(reply) = conn.try_take() {
            let Some(i) = in_flight.pop_front() else {
                phase.fail("an answer nobody asked for".to_owned());
                phase.sent.push(total);
                return phase;
            };
            let op = &ops[i % ops.len()];
            let latency = ms(Instant::now() - due(i));
            match checker.check(op, &reply) {
                Ok(bytes) => phase.samples.push(Sample { ms: latency, bytes, put: op.is_put() }),
                Err(e) => phase.fail(e),
            }
        }
        if !busy {
            let until_due = if next < total {
                due(next).saturating_duration_since(Instant::now())
            } else {
                IDLE
            };
            std::thread::sleep(until_due.min(IDLE));
        }
    }
    phase.sent.push(total);
    phase
}

/// Run back-to-back phases while `more(segments run, seconds so far)`
/// holds, each on fresh connections, each connection's op cycle
/// continuing where the previous segment stopped; the figures are pooled
/// and the walls summed. Fresh connections in every segment average over
/// the states a run can settle into (which worker a connection lands on,
/// how its bursts line up with the poller).
pub fn segmented(
    conns: &[Vec<Op>],
    mut more: impl FnMut(usize, f64) -> bool,
    mut run: impl FnMut(&[Vec<Op>]) -> Phase,
) -> Phase {
    let mut offsets = vec![0usize; conns.len()];
    let mut total = Phase::default();
    let mut segments = 0;
    while more(segments, total.wall) {
        segments += 1;
        let rotated: Vec<Vec<Op>> = conns
            .iter()
            .zip(&offsets)
            .map(|(ops, &offset)| {
                let mut ops = ops.clone();
                let len = ops.len();
                ops.rotate_left(offset % len);
                ops
            })
            .collect();
        let phase = run(&rotated);
        for (offset, sent) in offsets.iter_mut().zip(&phase.sent) {
            *offset += sent;
        }
        total.wall += phase.wall;
        total.merge(phase);
    }
    total.sent = offsets;
    total
}

/// A broken open-loop connection: every op sent but unanswered, and
/// every op it will no longer send, counts as failed.
fn abandon(phase: &mut Phase, reason: String, unanswered: usize, unsent: usize) {
    phase.attempted += unsent as u64;
    phase.failed += (unanswered + unsent) as u64;
    if phase.reasons.len() < 5 {
        phase.reasons.push(reason);
    }
}

/// A duration in milliseconds.
pub fn ms(d: Duration) -> f64 {
    d.as_secs_f64() * 1e3
}
