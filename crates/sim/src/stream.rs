//! Streaming execution: a resumable [`Machine`] over a sliding input
//! window, so unbounded inputs are simulated in `O(chunk + window)`
//! memory.
//!
//! # How suspension works
//!
//! The lockstep window guarantees that live threads span at most
//! `2^CC_ID` consecutive positions starting at the oldest live position,
//! and positions only increase. [`StreamMachine::feed`] therefore drives
//! the machine until some live thread reaches a position past the bytes
//! buffered so far, pauses *before* that cycle executes (changing no
//! machine state), and drops every buffered byte below the window base.
//! Appending the next chunk and resuming replays the exact cycle sequence
//! of a whole-input run, which gives the subsystem its correctness
//! contract — **chunk-split invariance**:
//!
//! ```
//! use cicero_sim::{simulate, simulate_streaming, ArchConfig};
//!
//! let program = cicero_core::compile("ab|cd").unwrap().into_program();
//! let config = ArchConfig::new_organization(8, 1);
//! let whole = simulate(&program, b"xxxxcdxx", &config);
//! let streamed = simulate_streaming(&program, b"xxxxcdxx".chunks(3), &config);
//! assert_eq!(streamed, whole); // byte-identical report, any split
//! ```

use cicero_isa::Program;

use crate::config::ArchConfig;
use crate::machine::{InputRead, Machine};
use crate::stats::ExecReport;

/// What a [`StreamMachine::feed`] call concluded.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum StreamStatus {
    /// The machine suspended at the chunk boundary and wants more input
    /// (or end-of-input via [`StreamMachine::finish`]).
    NeedInput,
    /// The run concluded: acceptance, a dead thread set, or the cycle
    /// limit. The report is available from [`StreamMachine::finish`].
    Complete,
}

/// The sliding window of buffered input: absolute positions
/// `[start, start + data.len())`, with everything below `start` already
/// slid past by the machine's lockstep window and dropped.
#[derive(Debug, Clone, Default)]
pub struct StreamBuffer {
    data: Vec<u8>,
    start: usize,
    eof: bool,
}

impl StreamBuffer {
    /// Absolute position one past the last buffered byte.
    fn end(&self) -> usize {
        self.start + self.data.len()
    }

    /// Bytes currently resident.
    pub fn resident(&self) -> usize {
        self.data.len()
    }

    /// Drop buffered bytes below `keep_from` (the machine's window base).
    fn trim_to(&mut self, keep_from: usize) {
        if keep_from > self.start {
            let drop = (keep_from - self.start).min(self.data.len());
            self.data.drain(..drop);
            self.start += drop;
        }
    }
}

impl InputRead for StreamBuffer {
    fn byte_at(&self, pos: usize) -> Option<u8> {
        assert!(pos >= self.start, "position {pos} was already trimmed from the stream window");
        let byte = self.data.get(pos - self.start).copied();
        // The machine only reads past the buffered bytes once end-of-input
        // was signalled; before that it pauses at the boundary.
        debug_assert!(byte.is_some() || self.eof, "read past the buffered window at {pos}");
        byte
    }
}

/// A [`Machine`] driven chunk by chunk over a sliding input buffer.
///
/// Lifecycle: [`feed`] chunks until it reports [`StreamStatus::Complete`]
/// (early acceptance) or the input ends, then [`finish`] for the final
/// [`ExecReport`]. The report is byte-identical to [`Machine::run`] over
/// the concatenated input, for every split.
///
/// [`feed`]: StreamMachine::feed
/// [`finish`]: StreamMachine::finish
#[derive(Debug)]
pub struct StreamMachine<'p> {
    machine: Machine<'p>,
    buffer: StreamBuffer,
    report: Option<ExecReport>,
    chunks: u64,
    suspends: u64,
    peak_resident: usize,
}

impl<'p> StreamMachine<'p> {
    /// Start a streamed run of `program` on a fresh machine.
    pub fn new(program: &'p Program, config: ArchConfig) -> StreamMachine<'p> {
        let mut machine = Machine::new(program, config);
        machine.begin();
        StreamMachine {
            machine,
            buffer: StreamBuffer::default(),
            report: None,
            chunks: 0,
            suspends: 0,
            peak_resident: 0,
        }
    }

    /// Append one chunk and drive the machine as far as the buffered
    /// bytes allow. After the run concludes, further feeds are no-ops
    /// reporting [`StreamStatus::Complete`].
    pub fn feed(&mut self, chunk: &[u8]) -> StreamStatus {
        if self.report.is_some() {
            return StreamStatus::Complete;
        }
        self.chunks += 1;
        self.buffer.data.extend_from_slice(chunk);
        self.peak_resident = self.peak_resident.max(self.buffer.resident());
        if self.machine.drive(&self.buffer, Some(self.buffer.end())) {
            self.conclude();
            StreamStatus::Complete
        } else {
            self.suspends += 1;
            // Live positions span less than one window ending at (or past)
            // the buffer end, so after the trim at most `window` bytes
            // stay resident.
            if let Some(base) = self.machine.window_base() {
                self.buffer.trim_to(base);
            }
            StreamStatus::NeedInput
        }
    }

    /// Signal end of input, run the machine to conclusion, and return the
    /// final report. Idempotent.
    pub fn finish(&mut self) -> ExecReport {
        if let Some(report) = self.report {
            return report;
        }
        self.buffer.eof = true;
        self.machine.drive(&self.buffer, None);
        self.conclude();
        self.report.expect("concluded above")
    }

    /// Abort the run at the current cycle (deadline expiry) and report
    /// the partial progress: `accepted` reflects only what concluded so
    /// far. Idempotent; the machine cannot be resumed afterwards.
    pub fn abandon(&mut self) -> ExecReport {
        if let Some(report) = self.report {
            return report;
        }
        self.conclude();
        self.report.expect("concluded above")
    }

    fn conclude(&mut self) {
        self.report = Some(self.machine.finalize());
        self.buffer.data.clear();
        self.buffer.data.shrink_to_fit();
    }

    /// Whether the run has concluded.
    pub fn is_done(&self) -> bool {
        self.report.is_some()
    }

    /// Bytes currently resident in the sliding buffer.
    pub fn resident_bytes(&self) -> usize {
        self.buffer.resident()
    }

    /// Largest number of bytes ever resident at once — the memory
    /// high-water mark of the run (bounded by chunk size + window).
    pub fn peak_resident(&self) -> usize {
        self.peak_resident
    }

    /// Chunks fed so far.
    pub fn chunks(&self) -> u64 {
        self.chunks
    }

    /// Times the machine suspended at a chunk boundary.
    pub fn suspends(&self) -> u64 {
        self.suspends
    }
}

/// Run `program` over `chunks` as one concatenated input, streaming.
/// Equivalent to [`crate::simulate`] on the concatenation, byte for byte.
pub fn simulate_streaming<'a, I>(program: &Program, chunks: I, config: &ArchConfig) -> ExecReport
where
    I: IntoIterator<Item = &'a [u8]>,
{
    let mut stream = StreamMachine::new(program, config.clone());
    for chunk in chunks {
        if stream.feed(chunk) == StreamStatus::Complete {
            break;
        }
    }
    stream.finish()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::machine::simulate;
    use cicero_isa::Instruction::*;

    fn ab_or_cd() -> Program {
        Program::from_instructions(vec![
            Split(3),
            MatchAny,
            Jump(0),
            Split(7),
            Match(b'a'),
            Match(b'b'),
            AcceptPartial,
            Match(b'c'),
            Match(b'd'),
            AcceptPartial,
        ])
        .unwrap()
    }

    fn all_configs() -> Vec<ArchConfig> {
        vec![
            ArchConfig::old_organization(1),
            ArchConfig::old_organization(4),
            ArchConfig::new_organization(8, 1),
            ArchConfig::new_organization(8, 4),
        ]
    }

    fn test_programs() -> Vec<Program> {
        vec![
            ab_or_cd(),
            Program::from_instructions(vec![Match(b'a'), Match(b'b'), Accept]).unwrap(),
            Program::from_instructions(vec![
                NotMatch(b'a'),
                NotMatch(b'b'),
                MatchAny,
                AcceptPartial,
            ])
            .unwrap(),
            cicero_core::compile("[ab][bc][cd]").unwrap().into_program(),
            cicero_core::compile("(abcd|bcda|cdab|dabc|aabb)").unwrap().into_program(),
        ]
    }

    fn test_inputs() -> Vec<Vec<u8>> {
        vec![
            Vec::new(),
            b"a".to_vec(),
            b"ab".to_vec(),
            b"xxabyy".to_vec(),
            b"xcdab".to_vec(),
            b"zzzzzzzzzzzzzzzz".to_vec(),
            b"abc".to_vec(),
            vec![b'x'; 67],
            b"xxxxxxxxxxxxxxxxxxxxabcdxx".to_vec(),
        ]
    }

    #[test]
    fn streamed_reports_are_byte_identical_for_many_splits() {
        for program in test_programs() {
            for input in test_inputs() {
                for config in all_configs() {
                    let whole = simulate(&program, &input, &config);
                    for chunk_size in [1usize, 2, 3, 5, 7, 16] {
                        let streamed =
                            simulate_streaming(&program, input.chunks(chunk_size), &config);
                        assert_eq!(
                            streamed,
                            whole,
                            "chunk={chunk_size} config={} input={:?}",
                            config.name(),
                            String::from_utf8_lossy(&input)
                        );
                    }
                }
            }
        }
    }

    #[test]
    fn uneven_and_empty_chunks_are_invariant() {
        let p = ab_or_cd();
        let input = b"xxxxxxxxxxxxabxx";
        for config in all_configs() {
            let whole = simulate(&p, input, &config);
            let chunks: Vec<&[u8]> =
                vec![b"", &input[..1], b"", &input[1..4], &input[4..11], b"", &input[11..]];
            let streamed = simulate_streaming(&p, chunks.iter().copied(), &config);
            assert_eq!(streamed, whole, "{}", config.name());
        }
    }

    #[test]
    fn acceptance_concludes_the_stream_early() {
        let p = ab_or_cd();
        let config = ArchConfig::old_organization(1);
        let mut stream = StreamMachine::new(&p, config.clone());
        let mut status = StreamStatus::NeedInput;
        let mut fed = 0usize;
        for chunk in b"xxabzzzzzzzzzzzzzzzzzzzzzzzz".chunks(2) {
            fed += 1;
            status = stream.feed(chunk);
            if status == StreamStatus::Complete {
                break;
            }
        }
        assert_eq!(status, StreamStatus::Complete);
        assert!(fed < 10, "should conclude within a few chunks, took {fed}");
        let report = stream.finish();
        assert!(report.accepted);
        assert_eq!(report, simulate(&p, b"xxabzzzzzzzzzzzzzzzzzzzzzzzz", &config));
        // Feeding after conclusion is a no-op.
        assert_eq!(stream.feed(b"more"), StreamStatus::Complete);
    }

    #[test]
    fn resident_memory_is_bounded_by_chunk_plus_window() {
        // A scanning pattern that never matches: the machine walks the
        // whole input while the buffer stays within chunk + window bytes.
        let p = ab_or_cd();
        for config in all_configs() {
            let chunk = 128usize;
            let input = vec![b'z'; 16 * 1024];
            let mut stream = StreamMachine::new(&p, config.clone());
            for piece in input.chunks(chunk) {
                stream.feed(piece);
                assert!(
                    stream.resident_bytes() <= chunk + config.window(),
                    "{}: {} bytes resident after a feed",
                    config.name(),
                    stream.resident_bytes()
                );
            }
            let report = stream.finish();
            assert_eq!(report, simulate(&p, &input, &config), "{}", config.name());
            assert!(stream.peak_resident() <= chunk + config.window(), "{}", config.name());
            assert!(stream.suspends() > 0);
            assert_eq!(stream.chunks(), (input.len() / chunk) as u64);
        }
    }

    #[test]
    fn empty_input_streams() {
        let p = Program::from_instructions(vec![Match(b'a'), Accept]).unwrap();
        let config = ArchConfig::old_organization(1);
        let mut stream = StreamMachine::new(&p, config.clone());
        let report = stream.finish();
        assert_eq!(report, simulate(&p, b"", &config));
    }

    #[test]
    fn abandon_reports_partial_progress() {
        let p = ab_or_cd();
        let config = ArchConfig::old_organization(1);
        let mut stream = StreamMachine::new(&p, config.clone());
        stream.feed(b"zzzz");
        let report = stream.abandon();
        assert!(!report.accepted);
        assert!(report.cycles > 0, "some cycles were simulated before the abort");
        assert_eq!(stream.abandon(), report);
    }

    #[test]
    fn cycle_limit_concludes_a_stream() {
        // An ε-cycle with dedup off spins forever; the cycle limit must
        // conclude the streamed run just as it does the whole-input run.
        let p = Program::from_instructions(vec![Split(2), Jump(0), Match(b'a'), Jump(0), Accept])
            .unwrap();
        let mut config = ArchConfig::old_organization(1);
        config.dedup = false;
        config.max_cycles = 2_000;
        let whole = simulate(&p, b"aaa", &config);
        assert!(whole.hit_cycle_limit);
        let streamed = simulate_streaming(&p, b"aaa".chunks(1), &config);
        assert_eq!(streamed, whole);
    }

    #[test]
    fn telemetry_folds_the_concluded_run() {
        let p = ab_or_cd();
        let telemetry = cicero_telemetry::Telemetry::new();
        let mut stream = StreamMachine::new(&p, ArchConfig::old_organization(1));
        for chunk in b"xxxxabxx".chunks(3) {
            if stream.feed(chunk) == StreamStatus::Complete {
                break;
            }
        }
        stream.finish().record_into(&telemetry);
        assert_eq!(telemetry.counter("sim.runs"), 1);
        assert_eq!(telemetry.counter("sim.matches"), 1);
    }
}
