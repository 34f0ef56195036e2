//! The one place the runtime branches on [`Backend`].
//!
//! Both request shapes run on either engine: the batch executor asks for
//! a per-worker [`Runner`], the streaming session loop for a
//! [`Session`]. Everything around them — work distribution, panic
//! isolation, deadlines, the reader thread, telemetry and tracing — is
//! written once against these two types.
//!
//! On the host engine fuel is a byte budget: the clamped `max_cycles`
//! caps the bytes examined, and reports follow the synthesis convention
//! of [`host_exec_report`].

use std::sync::Arc;

use cicero_core::Backend;
use cicero_hostexec::{HostMatcher, HostOutcome, HostProgram, HostRun};
use cicero_isa::Program;
use cicero_sim::{ArchConfig, ExecReport, Machine, StreamMachine, StreamStatus};
use cicero_telemetry::Telemetry;

use crate::Runtime;

/// Synthesize an [`ExecReport`] from a host-engine run so the host
/// backend flows through the same budget classification, batch
/// accounting, and serving plumbing as the simulator. The convention:
/// `cycles` and `instructions` both mean *input bytes examined* (one
/// byte per step is exactly what the engine does), the i-cache and stall
/// counters stay zero (no microarchitectural model), and
/// `hit_cycle_limit` means the byte budget tripped — so fuel on the host
/// backend is a byte budget.
fn host_exec_report(run: &HostRun) -> ExecReport {
    ExecReport {
        cycles: run.scanned,
        accepted: run.outcome.accepted,
        match_position: run.outcome.match_position,
        matched_id: run.outcome.matched_id,
        instructions: run.scanned,
        hit_cycle_limit: run.hit_byte_limit,
        ..ExecReport::default()
    }
}

const NO_MATCH: HostOutcome =
    HostOutcome { accepted: false, match_position: None, matched_id: None };

/// A compiled program bound to the engine that will execute it.
pub(crate) enum Engine<'p> {
    /// The cycle-level simulator.
    Sim(&'p Program),
    /// The host-native lowering, shared by every worker.
    Host(Arc<HostProgram>),
}

impl<'p> Engine<'p> {
    /// Bind `program` to `backend`, lowering it (memoized per runtime)
    /// for the host engine.
    pub(crate) fn select(runtime: &Runtime, backend: Backend, program: &'p Program) -> Engine<'p> {
        match backend {
            Backend::Sim => Engine::Sim(program),
            Backend::Host => Engine::Host(runtime.host_program(program)),
        }
    }

    /// The engine's name, as used in worker span names.
    pub(crate) fn name(&self) -> &'static str {
        match self {
            Engine::Sim(_) => "sim",
            Engine::Host(_) => "host",
        }
    }

    /// A per-worker runner under the (fuel-clamped) `config`.
    pub(crate) fn runner(&self, config: &ArchConfig) -> Runner<'_> {
        match self {
            Engine::Sim(program) => Runner::Sim { program, config: config.clone(), machine: None },
            Engine::Host(host) => Runner::Host { host, max_bytes: config.max_cycles },
        }
    }

    /// A streaming session under the (fuel-clamped) `config`; the
    /// concluded run folds into `telemetry`'s `sim.*` series.
    pub(crate) fn session(
        &self,
        config: &ArchConfig,
        telemetry: Option<&Telemetry>,
    ) -> Box<dyn Session + '_> {
        match self {
            Engine::Sim(program) => {
                let mut stream = StreamMachine::new(program, config.clone());
                if let Some(telemetry) = telemetry {
                    stream.attach_telemetry(telemetry.clone());
                }
                Box::new(stream)
            }
            Engine::Host(host) => Box::new(HostSession {
                matcher: host.matcher(),
                byte_cap: config.max_cycles,
                telemetry: telemetry.cloned(),
                peak_buffered: 0,
                limit_hit: false,
            }),
        }
    }
}

/// One batch worker's engine state.
pub(crate) enum Runner<'e> {
    /// A worker-owned machine whose caches stay warm across inputs;
    /// `None` until first use and after a panic poisons it.
    Sim { program: &'e Program, config: ArchConfig, machine: Option<Box<Machine<'e>>> },
    /// The shared host engine under a per-input byte budget.
    Host { host: &'e HostProgram, max_bytes: u64 },
}

impl Runner<'_> {
    /// Run one input. The simulator refreshes its caches from the
    /// resident image first, so each report depends only on
    /// `(program, input, config)`, never on what the worker ran before.
    pub(crate) fn run(&mut self, input: &[u8]) -> ExecReport {
        match self {
            Runner::Sim { program, config, machine } => {
                let machine =
                    machine.get_or_insert_with(|| Box::new(Machine::new(program, config.clone())));
                machine.prefetch_icache();
                machine.run(input)
            }
            Runner::Host { host, max_bytes } => {
                host_exec_report(&host.run_budgeted(input, Some(*max_bytes)))
            }
        }
    }

    /// Discard state a panic may have corrupted; the next run respawns it.
    pub(crate) fn respawn(&mut self) {
        if let Runner::Sim { machine, .. } = self {
            *machine = None;
        }
    }
}

/// One streaming session's resumable matcher. The session loop counts
/// chunks and suspends; the matcher reports what it took and buffered.
pub(crate) trait Session {
    /// Feed one chunk: the bytes the matcher took, and whether the
    /// session concluded and wants no more input.
    fn feed(&mut self, chunk: &[u8]) -> (u64, bool);
    /// Signal end of input and return the final report.
    fn finish(&mut self) -> ExecReport;
    /// Abort at the current position (deadline expiry) and report the
    /// partial progress.
    fn abandon(&mut self) -> ExecReport;
    /// Memory high-water mark of the buffered input, in bytes.
    fn peak_buffered(&self) -> usize;
}

impl Session for StreamMachine<'_> {
    fn feed(&mut self, chunk: &[u8]) -> (u64, bool) {
        (chunk.len() as u64, StreamMachine::feed(self, chunk) == StreamStatus::Complete)
    }

    fn finish(&mut self) -> ExecReport {
        StreamMachine::finish(self)
    }

    fn abandon(&mut self) -> ExecReport {
        StreamMachine::abandon(self)
    }

    fn peak_buffered(&self) -> usize {
        self.peak_resident()
    }
}

/// The resumable host matcher under the session's byte budget.
struct HostSession<'e> {
    matcher: HostMatcher<'e>,
    byte_cap: u64,
    telemetry: Option<Telemetry>,
    peak_buffered: usize,
    limit_hit: bool,
}

impl HostSession<'_> {
    fn conclude(&self, outcome: HostOutcome, hit_byte_limit: bool) -> ExecReport {
        let run = HostRun { outcome, scanned: self.matcher.position() as u64, hit_byte_limit };
        let report = host_exec_report(&run);
        if let Some(telemetry) = &self.telemetry {
            report.record_into(telemetry);
        }
        report
    }
}

impl Session for HostSession<'_> {
    /// Takes only what the byte budget lets through, not the whole chunk.
    fn feed(&mut self, chunk: &[u8]) -> (u64, bool) {
        self.peak_buffered = self.peak_buffered.max(chunk.len());
        let remaining = self.byte_cap.saturating_sub(self.matcher.position() as u64);
        let take = (chunk.len() as u64).min(remaining) as usize;
        let concluded = self.matcher.feed(&chunk[..take]).is_some();
        self.limit_hit = !concluded && take < chunk.len();
        (take as u64, concluded || self.limit_hit)
    }

    /// The matcher re-reports an outcome it concluded on mid-chunk.
    fn finish(&mut self) -> ExecReport {
        let outcome = if self.limit_hit { NO_MATCH } else { self.matcher.finish() };
        self.conclude(outcome, self.limit_hit)
    }

    fn abandon(&mut self) -> ExecReport {
        self.conclude(NO_MATCH, false)
    }

    fn peak_buffered(&self) -> usize {
        self.peak_buffered
    }
}
