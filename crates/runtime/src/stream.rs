//! The streaming scan session: a reader thread feeding a resumable
//! matcher (the simulator's `StreamMachine` or the host engine's
//! `HostMatcher`) through a *bounded* chunk queue.
//!
//! The queue is a [`std::sync::mpsc::sync_channel`] of depth
//! [`StreamOptions::queue_depth`], so a slow pattern exerts backpressure
//! on the reader instead of letting chunks pile up in memory: total
//! resident input is `O(chunk_size × queue_depth + window)` no matter how
//! large the input or how pathological the pattern. Budgets from
//! [`Budget`] apply per session — fuel bounds simulated cycles, the
//! deadline bounds wall-clock time — and both conclude the session with a
//! clean [`MatchOutcome::Budget`] instead of a hang.

use std::io::{self, Read};
use std::time::{Duration, Instant};

use cicero_core::Backend;
use cicero_isa::Program;
use cicero_sim::ArchConfig;
use cicero_telemetry::TraceSpan;

use crate::budget::{Budget, BudgetKind, MatchOutcome};
use crate::engine::Engine;
use crate::Runtime;

/// Knobs for one streaming session.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct StreamOptions {
    /// Bytes per chunk read from the source (must be ≥ 1).
    pub chunk_size: usize,
    /// Chunks the reader may buffer ahead of the matcher (must be ≥ 1);
    /// this is the backpressure bound.
    pub queue_depth: usize,
    /// Resource budget for the session.
    pub budget: Budget,
}

impl Default for StreamOptions {
    fn default() -> StreamOptions {
        StreamOptions { chunk_size: 64 * 1024, queue_depth: 4, budget: Budget::UNLIMITED }
    }
}

/// Why a streaming session could not run.
#[derive(Debug)]
pub enum StreamError {
    /// The input source failed mid-stream.
    Io(io::Error),
    /// Rejected options (zero chunk size or queue depth).
    Options(String),
}

impl std::fmt::Display for StreamError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            StreamError::Io(e) => write!(f, "reading input: {e}"),
            StreamError::Options(e) => write!(f, "{e}"),
        }
    }
}

impl std::error::Error for StreamError {}

/// The result of one streaming session.
#[derive(Debug, Clone, PartialEq)]
pub struct StreamReport {
    /// The verdict (or budget cut-off) with its [`ExecReport`].
    ///
    /// [`ExecReport`]: cicero_sim::ExecReport
    pub outcome: MatchOutcome,
    /// Input bytes fed to the matcher (on early acceptance, less than the
    /// source length).
    pub bytes: u64,
    /// Chunks fed to the matcher.
    pub chunks: u64,
    /// Times the machine suspended at a chunk boundary.
    pub suspends: u64,
    /// Memory high-water mark of the sliding input buffer, in bytes.
    pub peak_buffered: usize,
    /// Wall-clock duration of the session.
    pub wall: Duration,
}

/// Read until `buf` is full or the source is exhausted.
fn read_chunk<R: Read>(reader: &mut R, buf: &mut [u8]) -> io::Result<usize> {
    let mut filled = 0;
    while filled < buf.len() {
        match reader.read(&mut buf[filled..]) {
            Ok(0) => break,
            Ok(n) => filled += n,
            Err(e) if e.kind() == io::ErrorKind::Interrupted => continue,
            Err(e) => return Err(e),
        }
    }
    Ok(filled)
}

impl Runtime {
    /// Scan `reader` with a compiled program on `backend`, chunk by
    /// chunk, in bounded memory: the runtime's one streaming entry point.
    /// The verdict is byte-identical to running the whole input at once
    /// (chunk-split invariance), except that a budget may conclude the
    /// session early with [`MatchOutcome::Budget`]. On the host engine
    /// the fuel budget is a byte budget and the report follows the host
    /// synthesis convention (`cycles` = bytes examined). With `trace`,
    /// the session runs under a `stream.execute` child span annotated
    /// with byte, chunk and suspend totals.
    ///
    /// # Errors
    ///
    /// [`StreamError::Options`] for a zero chunk size or queue depth;
    /// [`StreamError::Io`] when the source fails mid-stream.
    pub fn scan_stream_traced_on<R: Read + Send>(
        &self,
        backend: Backend,
        program: &Program,
        mut reader: R,
        config: &ArchConfig,
        options: &StreamOptions,
        trace: Option<&TraceSpan>,
    ) -> Result<StreamReport, StreamError> {
        if options.chunk_size == 0 {
            return Err(StreamError::Options("chunk size must be at least 1 byte".to_owned()));
        }
        if options.queue_depth == 0 {
            return Err(StreamError::Options("queue depth must be at least 1 chunk".to_owned()));
        }
        let trace_span = trace.map(|parent| {
            let span = parent.child("stream.execute");
            span.annotate("chunk_size", options.chunk_size);
            span.annotate("queue_depth", options.queue_depth);
            span.annotate("backend", backend.to_string());
            span
        });
        let start = Instant::now();
        let deadline_at = options.budget.deadline.map(|d| start + d);
        let engine = Engine::select(self, backend, program);
        let mut session = engine.session(&options.budget.clamp_config(config));

        let chunk_size = options.chunk_size;
        let (mut bytes, mut chunks, mut suspends) = (0u64, 0u64, 0u64);
        let mut io_error: Option<io::Error> = None;
        let mut deadline_hit = false;
        let (tx, rx) = std::sync::mpsc::sync_channel::<io::Result<Vec<u8>>>(options.queue_depth);
        std::thread::scope(|scope| {
            scope.spawn(move || loop {
                let mut buf = vec![0u8; chunk_size];
                match read_chunk(&mut reader, &mut buf) {
                    Ok(0) => break,
                    Ok(n) => {
                        buf.truncate(n);
                        // A send error means the matcher concluded early
                        // and dropped the queue.
                        if tx.send(Ok(buf)).is_err() {
                            break;
                        }
                    }
                    Err(e) => {
                        let _ = tx.send(Err(e));
                        break;
                    }
                }
            });
            while let Ok(message) = rx.recv() {
                match message {
                    Ok(chunk) => {
                        if deadline_at.is_some_and(|at| Instant::now() >= at) {
                            deadline_hit = true;
                            break;
                        }
                        let (taken, concluded) = session.feed(&chunk);
                        bytes += taken;
                        chunks += 1;
                        if concluded {
                            break;
                        }
                        suspends += 1;
                    }
                    Err(e) => {
                        io_error = Some(e);
                        break;
                    }
                }
            }
            // Dropping the receiver unblocks a reader stuck on a full
            // queue, so the scope can join.
            drop(rx);
        });
        if let Some(e) = io_error {
            return Err(StreamError::Io(e));
        }

        let concluded = if deadline_hit { session.abandon() } else { session.finish() };
        if let Some(telemetry) = &self.telemetry {
            concluded.record_into(telemetry);
        }
        let outcome = if deadline_hit {
            MatchOutcome::Budget { kind: BudgetKind::Deadline, partial: Some(concluded) }
        } else {
            options.budget.classify(concluded, config)
        };
        let report = StreamReport {
            outcome,
            bytes,
            chunks,
            suspends,
            peak_buffered: session.peak_buffered(),
            wall: start.elapsed(),
        };
        if let Some(telemetry) = &self.telemetry {
            telemetry.counter_add("stream.sessions", 1);
            telemetry.counter_add("stream.chunks", report.chunks);
            telemetry.counter_add("stream.bytes", report.bytes);
            telemetry.counter_add("stream.suspends", report.suspends);
            telemetry.observe("stream.peak_buffered", report.peak_buffered as f64);
            if matches!(report.outcome, MatchOutcome::Budget { .. }) {
                telemetry.counter_add("stream.budget_exceeded", 1);
            }
        }
        if let Some(span) = trace_span {
            span.annotate("bytes", report.bytes);
            span.annotate("chunks", report.chunks);
            span.annotate("suspends", report.suspends);
            span.annotate("complete", report.outcome.is_complete());
        }
        Ok(report)
    }
}

#[cfg(test)]
mod tests {
    use std::io::Cursor;

    use cicero_sim::simulate;
    use cicero_telemetry::Telemetry;

    use super::*;
    use crate::RuntimeOptions;

    fn runtime() -> Runtime {
        Runtime::new(RuntimeOptions { jobs: 1, ..RuntimeOptions::default() })
    }

    fn host_runtime() -> Runtime {
        let compiler = cicero_core::CompilerOptions::optimized().with_backend(Backend::Host);
        Runtime::new(RuntimeOptions { jobs: 1, compiler, ..RuntimeOptions::default() })
    }

    fn options(chunk_size: usize) -> StreamOptions {
        StreamOptions { chunk_size, ..StreamOptions::default() }
    }

    /// Compile `pattern` through the cache and stream `reader` on the
    /// runtime's default backend.
    fn stream<R: Read + Send>(
        runtime: &Runtime,
        pattern: &str,
        reader: R,
        config: &ArchConfig,
        options: &StreamOptions,
    ) -> Result<StreamReport, StreamError> {
        let program = runtime.compile(pattern).unwrap();
        runtime.scan_stream_traced_on(runtime.backend(), &program, reader, config, options, None)
    }

    #[test]
    fn streamed_scan_equals_whole_input_simulation() {
        let runtime = runtime();
        let config = ArchConfig::new_organization(8, 1);
        let program = runtime.compile("ab|cd").unwrap();
        let mut input = vec![b'x'; 10_000];
        input.extend_from_slice(b"cd");
        input.extend(vec![b'y'; 100]);
        let whole = simulate(&program, &input, &config);
        for chunk_size in [1usize, 7, 256, 100_000] {
            let report = stream(
                &runtime,
                "ab|cd",
                Cursor::new(input.clone()),
                &config,
                &options(chunk_size),
            )
            .unwrap();
            assert_eq!(report.outcome, MatchOutcome::Complete(whole), "chunk={chunk_size}");
        }
    }

    #[test]
    fn acceptance_stops_reading_the_source_early() {
        let config = ArchConfig::old_organization(1);
        let mut input = b"xxabxx".to_vec();
        input.extend(vec![b'z'; 1 << 20]);
        for runtime in [runtime(), host_runtime()] {
            let report =
                stream(&runtime, "ab", Cursor::new(input.clone()), &config, &options(64)).unwrap();
            assert!(report.outcome.is_complete());
            assert!(report.outcome.report().unwrap().accepted);
            assert!(
                report.bytes < 1024,
                "the session should stop near the match, read {} bytes on {}",
                report.bytes,
                runtime.backend()
            );
        }
    }

    #[test]
    fn peak_buffer_stays_within_chunk_and_window() {
        let runtime = runtime();
        let config = ArchConfig::new_organization(8, 1);
        let chunk = 512usize;
        let input = vec![b'q'; 64 * 1024];
        let report =
            stream(&runtime, "ab|cd", Cursor::new(input), &config, &options(chunk)).unwrap();
        assert!(report.outcome.is_complete());
        assert!(
            report.peak_buffered <= chunk + config.window(),
            "peak {} exceeds chunk + window",
            report.peak_buffered
        );
        assert!(report.suspends > 0);
    }

    #[test]
    fn zero_chunk_size_and_queue_depth_are_rejected() {
        let runtime = runtime();
        let config = ArchConfig::old_organization(1);
        let err =
            stream(&runtime, "ab", Cursor::new(b"x".to_vec()), &config, &options(0)).unwrap_err();
        assert!(matches!(&err, StreamError::Options(m) if m.contains("chunk size")), "{err}");
        let bad_queue = StreamOptions { queue_depth: 0, ..StreamOptions::default() };
        let err =
            stream(&runtime, "ab", Cursor::new(b"x".to_vec()), &config, &bad_queue).unwrap_err();
        assert!(matches!(&err, StreamError::Options(m) if m.contains("queue depth")), "{err}");
    }

    #[test]
    fn io_errors_surface_mid_stream() {
        struct FailingReader(usize);
        impl Read for FailingReader {
            fn read(&mut self, buf: &mut [u8]) -> io::Result<usize> {
                if self.0 == 0 {
                    return Err(io::Error::other("disk on fire"));
                }
                let n = self.0.min(buf.len());
                self.0 -= n;
                buf[..n].fill(b'x');
                Ok(n)
            }
        }
        let runtime = runtime();
        let config = ArchConfig::old_organization(1);
        let err = stream(&runtime, "ab", FailingReader(2048), &config, &options(256)).unwrap_err();
        assert!(matches!(&err, StreamError::Io(e) if e.to_string().contains("disk on fire")));
    }

    #[test]
    fn fuel_cuts_off_a_streaming_session() {
        // 16 cycles of fuel, or 16 bytes on the host engine, whose byte
        // count is what the budget let through rather than the chunk fed.
        let config = ArchConfig::old_organization(1);
        let opts = StreamOptions { budget: Budget::with_fuel(16), ..options(64) };
        for (runtime, bytes) in [(runtime(), 64), (host_runtime(), 16)] {
            let report =
                stream(&runtime, "ab|cd", Cursor::new(vec![b'x'; 4096]), &config, &opts).unwrap();
            match report.outcome {
                MatchOutcome::Budget { kind: BudgetKind::Fuel, partial: Some(partial) } => {
                    assert_eq!(partial.cycles, 16, "on {}", runtime.backend());
                }
                other => panic!("expected a fuel cut-off, got {other:?}"),
            }
            assert_eq!(report.bytes, bytes, "on {}", runtime.backend());
        }
    }

    #[test]
    fn an_expired_deadline_concludes_with_partial_progress() {
        let runtime = runtime();
        let config = ArchConfig::old_organization(1);
        let opts = StreamOptions { budget: Budget::with_deadline(Duration::ZERO), ..options(64) };
        let report =
            stream(&runtime, "ab|cd", Cursor::new(vec![b'x'; 4096]), &config, &opts).unwrap();
        assert!(
            matches!(report.outcome, MatchOutcome::Budget { kind: BudgetKind::Deadline, .. }),
            "{:?}",
            report.outcome
        );
    }

    #[test]
    fn stream_telemetry_is_recorded() {
        for runtime in [runtime(), host_runtime()] {
            let telemetry = Telemetry::new();
            let runtime = runtime.with_telemetry(telemetry.clone());
            let config = ArchConfig::old_organization(1);
            let report =
                stream(&runtime, "ab|cd", Cursor::new(vec![b'x'; 2048]), &config, &options(256))
                    .unwrap();
            assert_eq!(telemetry.counter("stream.sessions"), 1);
            assert_eq!(telemetry.counter("stream.chunks"), report.chunks);
            assert_eq!(telemetry.counter("stream.bytes"), 2048);
            assert!(telemetry.histogram("stream.peak_buffered").is_some());
            // The concluded run folds into the sim.* series once, on
            // either engine, like batch runs do.
            assert_eq!(telemetry.counter("sim.runs"), 1, "{}", runtime.backend());
        }
    }

    #[test]
    fn host_streamed_scan_is_chunk_split_invariant() {
        let runtime = host_runtime();
        let config = ArchConfig::new_organization(8, 1);
        let program = runtime.compile("ab|cd").unwrap();
        let mut input = vec![b'x'; 10_000];
        input.extend_from_slice(b"cd");
        input.extend(vec![b'y'; 100]);
        let host = runtime.host_program(&program);
        let whole = host.run(&input);
        for chunk_size in [1usize, 7, 256, 100_000] {
            let report = stream(
                &runtime,
                "ab|cd",
                Cursor::new(input.clone()),
                &config,
                &options(chunk_size),
            )
            .unwrap();
            let exec = report.outcome.report().expect("complete");
            assert!(report.outcome.is_complete(), "chunk={chunk_size}");
            assert_eq!(exec.accepted, whole.accepted, "chunk={chunk_size}");
            assert_eq!(exec.match_position, whole.match_position, "chunk={chunk_size}");
            // And the host verdict equals the interpreter oracle.
            let oracle = cicero_isa::run(&program, &input);
            assert_eq!(exec.accepted, oracle.accepted);
            assert_eq!(exec.match_position, oracle.match_position);
        }
    }

    #[test]
    fn empty_sources_stream_cleanly() {
        let runtime = runtime();
        let config = ArchConfig::old_organization(1);
        let program = runtime.compile("a").unwrap();
        let report = stream(&runtime, "a", Cursor::new(Vec::new()), &config, &options(64)).unwrap();
        assert_eq!(report.bytes, 0);
        assert_eq!(report.outcome, MatchOutcome::Complete(simulate(&program, b"", &config)));
    }
}
