//! Per-request resource budgets and the batch executor.
//!
//! Every batch runs guarded:
//!
//! * **fuel** — a per-input cap on simulated cycles (bytes examined on the
//!   host engine); exhausting it yields [`MatchOutcome::Budget`] with the
//!   partial report instead of letting a pathological pattern spin to the
//!   200M-cycle architectural limit;
//! * **deadline** — a wall-clock budget for the whole batch; inputs not
//!   started before expiry complete immediately as budget errors;
//! * **panic isolation** — each input runs under `catch_unwind`; a panic
//!   discards the (possibly corrupt) worker machine, respawns a fresh
//!   one, and retries the input once. The recovery is counted in
//!   [`GuardedBatch::worker_restarts`] and the `runtime.worker_restarts`
//!   telemetry counter; a second panic on the same input reports
//!   [`MatchOutcome::Fault`] and the batch still completes.

use std::sync::atomic::{AtomicU64, AtomicUsize, Ordering};
use std::time::{Duration, Instant};

use cicero_core::Backend;
use cicero_isa::Program;
use cicero_sim::{ArchConfig, ExecReport, WorkerStats};
use cicero_telemetry::{Telemetry, TraceSpan};

use crate::engine::Engine;
use crate::Runtime;

/// Resource limits for one request (batch or stream). The default is
/// unlimited on both axes.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct Budget {
    /// Maximum simulated cycles per input; exceeding it yields
    /// [`MatchOutcome::Budget`] with [`BudgetKind::Fuel`].
    pub fuel: Option<u64>,
    /// Wall-clock budget for the whole request.
    pub deadline: Option<Duration>,
}

impl Budget {
    /// No limits.
    pub const UNLIMITED: Budget = Budget { fuel: None, deadline: None };

    /// Limit each input to `fuel` simulated cycles.
    pub fn with_fuel(fuel: u64) -> Budget {
        Budget { fuel: Some(fuel), ..Budget::default() }
    }

    /// Limit the whole request to `deadline` of wall-clock time.
    pub fn with_deadline(deadline: Duration) -> Budget {
        Budget { deadline: Some(deadline), ..Budget::default() }
    }

    /// The architecture config actually simulated: `max_cycles` clamped
    /// down to the fuel budget (never raised).
    pub(crate) fn clamp_config(&self, config: &ArchConfig) -> ArchConfig {
        let mut clamped = config.clone();
        if let Some(fuel) = self.fuel {
            clamped.max_cycles = clamped.max_cycles.min(fuel);
        }
        clamped
    }

    /// Classify a report produced under [`Budget::clamp_config`]: hitting
    /// the clamped cycle limit is a fuel exhaustion only when the fuel cap
    /// is tighter than the architecture's own `max_cycles` safety valve.
    pub(crate) fn classify(&self, report: ExecReport, original: &ArchConfig) -> MatchOutcome {
        if report.hit_cycle_limit && self.fuel.is_some_and(|fuel| fuel < original.max_cycles) {
            MatchOutcome::Budget { kind: BudgetKind::Fuel, partial: Some(report) }
        } else {
            MatchOutcome::Complete(report)
        }
    }
}

/// Which budget axis was exhausted.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum BudgetKind {
    /// The per-input simulated-cycle cap.
    Fuel,
    /// The wall-clock deadline.
    Deadline,
}

/// The result of one guarded input.
#[derive(Debug, Clone, PartialEq)]
pub enum MatchOutcome {
    /// The run concluded normally.
    Complete(ExecReport),
    /// A budget was exhausted. `partial` carries the progress made before
    /// the cut-off (`None` when the input never started).
    Budget {
        /// The exhausted axis.
        kind: BudgetKind,
        /// Progress up to the cut-off, if the input started.
        partial: Option<ExecReport>,
    },
    /// The input panicked the worker twice; the message is the panic
    /// payload. The rest of the batch is unaffected.
    Fault(String),
}

impl MatchOutcome {
    /// The report, complete or partial (absent for `Fault` and
    /// never-started deadline misses).
    pub fn report(&self) -> Option<&ExecReport> {
        match self {
            MatchOutcome::Complete(report) => Some(report),
            MatchOutcome::Budget { partial, .. } => partial.as_ref(),
            MatchOutcome::Fault(_) => None,
        }
    }

    /// Whether the run concluded normally.
    pub fn is_complete(&self) -> bool {
        matches!(self, MatchOutcome::Complete(_))
    }
}

/// The result of one guarded batch: one outcome per input, plus recovery
/// and budget accounting.
#[derive(Debug, Clone, PartialEq)]
pub struct GuardedBatch {
    /// One outcome per input, in input order.
    pub outcomes: Vec<MatchOutcome>,
    /// Per-worker accounting, in worker order (completed and partial runs
    /// both count).
    pub workers: Vec<WorkerStats>,
    /// Worker threads the batch actually used.
    pub jobs: usize,
    /// Workers respawned after a panic (also exported as the
    /// `runtime.worker_restarts` counter).
    pub worker_restarts: u64,
    /// Host wall-clock time spent executing the batch.
    pub wall: Duration,
}

impl GuardedBatch {
    /// Inputs that concluded normally.
    pub fn completed(&self) -> usize {
        self.outcomes.iter().filter(|o| o.is_complete()).count()
    }

    /// Inputs that concluded normally *and* matched.
    pub fn matches(&self) -> usize {
        self.outcomes
            .iter()
            .filter(|o| matches!(o, MatchOutcome::Complete(r) if r.accepted))
            .count()
    }

    /// Inputs that exhausted a budget.
    pub fn budget_exceeded(&self) -> usize {
        self.outcomes.iter().filter(|o| matches!(o, MatchOutcome::Budget { .. })).count()
    }

    /// Inputs that faulted (panicked twice).
    pub fn faults(&self) -> usize {
        self.outcomes.iter().filter(|o| matches!(o, MatchOutcome::Fault(_))).count()
    }
}

/// An input the deadline expired before.
const NOT_STARTED: MatchOutcome =
    MatchOutcome::Budget { kind: BudgetKind::Deadline, partial: None };

fn panic_message(payload: &(dyn std::any::Any + Send)) -> String {
    if let Some(s) = payload.downcast_ref::<&str>() {
        (*s).to_owned()
    } else if let Some(s) = payload.downcast_ref::<String>() {
        s.clone()
    } else {
        "worker panicked".to_owned()
    }
}

impl Runtime {
    /// Run a compiled program over every input on `backend` with
    /// per-request budgets and worker panic isolation: the runtime's one
    /// batch executor. Compile first with [`Runtime::compile_traced`] or
    /// [`Runtime::compile_set_traced`]; pass [`Runtime::backend`] unless
    /// the request overrides it.
    ///
    /// Up to [`Runtime::jobs`] scoped worker threads pull input indices
    /// from a shared counter; a batch that resolves to one job runs
    /// inline on the calling thread. Outcomes come back in input order
    /// and are byte-identical for every worker count. With `trace`, an
    /// `execute` child span carries one `{engine}.worker-N` span per
    /// worker, annotated with cycle and i-cache totals.
    pub fn run_batch_guarded_traced_on(
        &self,
        backend: Backend,
        program: &Program,
        inputs: &[Vec<u8>],
        config: &ArchConfig,
        budget: &Budget,
        trace: Option<&TraceSpan>,
    ) -> GuardedBatch {
        let engine = Engine::select(self, backend, program);
        let start = Instant::now();
        let deadline_at = budget.deadline.map(|d| start + d);
        let run_config = budget.clamp_config(config);
        let jobs = self.jobs.clamp(1, inputs.len().max(1));
        let exec_span = trace.map(|parent| {
            let span = parent.child("execute");
            span.annotate("inputs", inputs.len());
            span.annotate("jobs", jobs);
            span
        });
        // (context, execute-span id) pair worker spans parent under.
        let worker_trace = exec_span.as_ref().map(|span| (span.context(), span.id()));
        let next = AtomicUsize::new(0);
        let restarts = AtomicU64::new(0);

        let work = |worker: usize| -> (Vec<(usize, MatchOutcome)>, WorkerStats) {
            let worker_span = worker_trace.as_ref().map(|(ctx, parent)| {
                ctx.child_of(Some(*parent), format!("{}.worker-{worker}", engine.name()))
            });
            let mut runner = engine.runner(&run_config);
            let mut out = Vec::new();
            let mut stats = WorkerStats { worker, ..WorkerStats::default() };
            loop {
                let index = next.fetch_add(1, Ordering::Relaxed);
                let Some(input) = inputs.get(index) else { break };
                if deadline_at.is_some_and(|at| Instant::now() >= at) {
                    out.push((index, NOT_STARTED));
                    continue;
                }
                let mut attempts = 0u32;
                let outcome = loop {
                    let result = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
                        if let Some(hook) = &self.run_hook {
                            hook(index);
                        }
                        runner.run(input)
                    }));
                    match result {
                        Ok(report) => break budget.classify(report, config),
                        Err(payload) => {
                            runner.respawn();
                            restarts.fetch_add(1, Ordering::Relaxed);
                            attempts += 1;
                            if attempts >= 2 {
                                break MatchOutcome::Fault(panic_message(payload.as_ref()));
                            }
                        }
                    }
                };
                if let Some(report) = outcome.report() {
                    stats.absorb(report);
                }
                out.push((index, outcome));
            }
            if let Some(span) = worker_span {
                span.annotate("inputs", stats.inputs);
                span.annotate("cycles", stats.cycles);
                span.annotate("instructions", stats.instructions);
                span.annotate("icache_hits", stats.icache_hits);
                span.annotate("icache_misses", stats.icache_misses);
            }
            (out, stats)
        };
        let per_worker: Vec<(Vec<(usize, MatchOutcome)>, WorkerStats)> = if jobs == 1 {
            vec![work(0)]
        } else {
            let work = &work;
            std::thread::scope(|scope| {
                let handles: Vec<_> =
                    (0..jobs).map(|worker| scope.spawn(move || work(worker))).collect();
                handles.into_iter().map(|h| h.join().expect("batch worker panicked")).collect()
            })
        };

        let mut outcomes = vec![NOT_STARTED; inputs.len()];
        let mut workers = Vec::with_capacity(jobs);
        for (chunk, stats) in per_worker {
            for (index, outcome) in chunk {
                outcomes[index] = outcome;
            }
            workers.push(stats);
        }
        let batch = GuardedBatch {
            outcomes,
            workers,
            jobs,
            worker_restarts: restarts.into_inner(),
            wall: start.elapsed(),
        };
        if let Some(telemetry) = &self.telemetry {
            record_batch(telemetry, &batch);
        }
        if let Some(span) = exec_span {
            span.annotate("completed", batch.completed());
            span.annotate("matches", batch.matches());
            span.annotate("budget_exceeded", batch.budget_exceeded());
            span.annotate("worker_restarts", batch.worker_restarts);
        }
        batch
    }

    /// Per set member, the number of `chunks` it matches, given the
    /// `batch` that already ran them on `backend`. A first-acceptance run
    /// halts on any one member, so each accepted chunk is re-run through
    /// the backend's all-matches pass (the host engine's `run_all`, or the
    /// functional interpreter's on the simulator). Ids at or past
    /// `members` are ignored.
    pub fn pattern_hits_on(
        &self,
        backend: Backend,
        program: &Program,
        chunks: &[Vec<u8>],
        batch: &GuardedBatch,
        members: usize,
    ) -> Vec<u64> {
        let engine = Engine::select(self, backend, program);
        let mut hits = vec![0u64; members];
        for (chunk, outcome) in chunks.iter().zip(&batch.outcomes) {
            if matches!(outcome, MatchOutcome::Complete(report) if report.accepted) {
                for id in engine.run_all(chunk) {
                    if let Some(count) = hits.get_mut(usize::from(id)) {
                        *count += 1;
                    }
                }
            }
        }
        hits
    }
}

/// Fold one batch into the collector: `runtime.*` counters and
/// per-worker distributions, plus every run's report merged into the
/// `sim.*` metrics (the same shape [`ExecReport::record_into`] emits for
/// one run, so dashboards aggregate sequential and parallel traffic
/// uniformly).
fn record_batch(telemetry: &Telemetry, batch: &GuardedBatch) {
    telemetry.counter_add("runtime.batches", 1);
    telemetry.counter_add("runtime.inputs", batch.outcomes.len() as u64);
    telemetry.counter_add("runtime.matches", batch.matches() as u64);
    telemetry.counter_add("runtime.worker_restarts", batch.worker_restarts);
    telemetry.counter_add("runtime.budget_exceeded", batch.budget_exceeded() as u64);
    telemetry.counter_add("runtime.faults", batch.faults() as u64);
    telemetry.gauge_set("runtime.jobs", batch.jobs as f64);
    for worker in &batch.workers {
        telemetry.counter_add("runtime.worker_runs", worker.inputs as u64);
        telemetry.observe("runtime.worker_inputs", worker.inputs as f64);
        telemetry.observe("runtime.worker_cycles", worker.cycles as f64);
    }
    for outcome in &batch.outcomes {
        if let Some(report) = outcome.report() {
            report.record_into(telemetry);
        }
    }
}

#[cfg(test)]
mod tests {
    use std::sync::atomic::{AtomicUsize, Ordering};
    use std::sync::{Arc, Mutex};

    use cicero_telemetry::{Telemetry, TraceContext};

    use super::*;
    use crate::{RunHook, RuntimeOptions};

    const PATTERN: &str = "(abcd|bcda|cdab|dabc)";

    /// Many live threads at every position, so the organizations differ.
    const HEAVY: &str = "(abcd|bcda|cdab|dabc|acbd|bdca|cadb|dbac|aabb|ccdd)";

    fn chunks() -> Vec<Vec<u8>> {
        let mut inputs: Vec<Vec<u8>> = (0..7).map(|i| vec![b'x'; 30 + i]).collect();
        inputs[2] = b"xxxabcdxxx".to_vec();
        inputs[5] = b"bcda".to_vec();
        inputs
    }

    fn runtime(jobs: usize) -> Runtime {
        Runtime::new(RuntimeOptions { jobs, ..RuntimeOptions::default() })
    }

    fn host_runtime(jobs: usize) -> Runtime {
        let compiler = cicero_core::CompilerOptions::optimized().with_backend(Backend::Host);
        Runtime::new(RuntimeOptions { jobs, compiler, ..RuntimeOptions::default() })
    }

    /// Compile `pattern` through the cache and run it on the runtime's
    /// default backend.
    fn guarded(
        runtime: &Runtime,
        pattern: &str,
        inputs: &[Vec<u8>],
        config: &ArchConfig,
        budget: &Budget,
    ) -> GuardedBatch {
        let program = runtime.compile(pattern).unwrap();
        runtime.run_batch_guarded_traced_on(
            runtime.backend(),
            &program,
            inputs,
            config,
            budget,
            None,
        )
    }

    /// The sequential reference: one warm machine, inputs in order.
    fn sequential(pattern: &str, inputs: &[Vec<u8>], config: &ArchConfig) -> Vec<ExecReport> {
        let program = cicero_core::compile(pattern).unwrap().into_program();
        cicero_sim::simulate_batch(&program, inputs, config)
    }

    /// The batch's reports, asserting every input completed.
    fn reports(batch: &GuardedBatch) -> Vec<ExecReport> {
        batch
            .outcomes
            .iter()
            .map(|o| match o {
                MatchOutcome::Complete(report) => *report,
                other => panic!("expected a complete run, got {other:?}"),
            })
            .collect()
    }

    /// A run hook that panics once, on the first attempt at `index`.
    fn panic_once_on(index: usize) -> RunHook {
        let fired = AtomicUsize::new(0);
        Arc::new(move |i: usize| {
            if i == index && fired.fetch_add(1, Ordering::SeqCst) == 0 {
                panic!("injected fault on input {index}");
            }
        })
    }

    /// Suppress the default panic-to-stderr hook for a deliberately
    /// panicking section, so test output stays readable.
    fn quietly<T>(f: impl FnOnce() -> T) -> T {
        let prev = std::panic::take_hook();
        std::panic::set_hook(Box::new(|_| {}));
        let result = f();
        std::panic::set_hook(prev);
        result
    }

    #[test]
    fn matches_equal_the_sequential_path_for_every_job_count() {
        let inputs: Vec<Vec<u8>> = (0..9)
            .map(|i| if i % 3 == 0 { b"xxabcdxx".to_vec() } else { vec![b'x'; 40 + i] })
            .collect();
        for config in [ArchConfig::old_organization(1), ArchConfig::new_organization(8, 1)] {
            let sequential = sequential(HEAVY, &inputs, &config);
            for jobs in 1..=6 {
                let batch = guarded(&runtime(jobs), HEAVY, &inputs, &config, &Budget::UNLIMITED);
                assert_eq!(reports(&batch), sequential, "jobs={jobs} on {}", config.name());
                assert_eq!(batch.matches(), 3);
                assert_eq!(batch.worker_restarts, 0);
                assert!(batch.jobs >= 1 && batch.jobs <= jobs);
                assert_eq!(batch.workers.iter().map(|s| s.inputs).sum::<usize>(), inputs.len());
                assert_eq!(
                    batch.workers.iter().map(|s| s.cycles).sum::<u64>(),
                    sequential.iter().map(|r| r.cycles).sum::<u64>()
                );
            }
        }
    }

    #[test]
    fn batch_handles_degenerate_shapes() {
        let config = ArchConfig::old_organization(1);
        let empty = guarded(&runtime(4), "ab|cd", &[], &config, &Budget::UNLIMITED);
        assert!(empty.outcomes.is_empty());
        assert_eq!(empty.worker_restarts, 0);
        let one = guarded(&runtime(8), "ab|cd", &[b"ab".to_vec()], &config, &Budget::UNLIMITED);
        assert_eq!(one.jobs, 1);
        assert_eq!(one.outcomes.len(), 1);
        assert!(reports(&one)[0].accepted);
    }

    #[test]
    fn a_single_job_batch_runs_inline_and_still_recovers_from_panics() {
        // One job runs on the calling thread; the hook records which
        // thread ran each attempt and panics once on input 0.
        let config = ArchConfig::new_organization(8, 1);
        let threads = Arc::new(Mutex::new(Vec::new()));
        let hook = {
            let (threads, panic) = (Arc::clone(&threads), panic_once_on(0));
            Arc::new(move |index: usize| {
                threads.lock().unwrap().push(std::thread::current().id());
                panic(index);
            })
        };
        let telemetry = Telemetry::new();
        let runtime = runtime(1).with_telemetry(telemetry.clone()).with_run_hook(hook);
        let batch = quietly(|| guarded(&runtime, PATTERN, &chunks(), &config, &Budget::UNLIMITED));
        let caller = std::thread::current().id();
        let threads = threads.lock().unwrap();
        assert_eq!(threads.len(), chunks().len() + 1, "one retry on top of every input");
        assert!(threads.iter().all(|&id| id == caller), "a one-job batch must not spawn");
        assert_eq!(batch.jobs, 1);
        assert_eq!(batch.worker_restarts, 1);
        assert_eq!(reports(&batch), sequential(PATTERN, &chunks(), &config));
        assert_eq!(telemetry.counter("runtime.worker_restarts"), 1);
    }

    #[test]
    fn fuel_exhaustion_is_a_clean_budget_outcome() {
        // A scanning pattern over a long input needs well over 8 cycles
        // (or bytes, on the host engine); the fuel budget cuts it off with
        // the partial report attached.
        let config = ArchConfig::old_organization(1);
        let inputs = vec![vec![b'x'; 500]];
        for runtime in [runtime(1), host_runtime(1)] {
            let batch = guarded(&runtime, PATTERN, &inputs, &config, &Budget::with_fuel(8));
            match &batch.outcomes[0] {
                MatchOutcome::Budget { kind: BudgetKind::Fuel, partial: Some(report) } => {
                    assert_eq!(report.cycles, 8, "on {}", runtime.backend());
                    assert!(report.hit_cycle_limit);
                    assert!(!report.accepted);
                }
                other => panic!("expected a fuel cut-off, got {other:?}"),
            }
            assert_eq!(batch.budget_exceeded(), 1);
        }
        // On the host engine a match inside the byte budget completes.
        let inputs = [b"abcdxxxx".to_vec()];
        let batch = guarded(&host_runtime(1), PATTERN, &inputs, &config, &Budget::with_fuel(8));
        assert!(matches!(&batch.outcomes[0], MatchOutcome::Complete(r) if r.accepted));
    }

    #[test]
    fn ample_fuel_does_not_change_results() {
        let config = ArchConfig::old_organization(1);
        let batch =
            guarded(&runtime(2), PATTERN, &chunks(), &config, &Budget::with_fuel(1_000_000));
        assert_eq!(reports(&batch), sequential(PATTERN, &chunks(), &config));
    }

    #[test]
    fn an_expired_deadline_fails_inputs_instead_of_hanging() {
        let config = ArchConfig::old_organization(1);
        let budget = Budget::with_deadline(Duration::ZERO);
        let batch = guarded(&runtime(2), PATTERN, &chunks(), &config, &budget);
        assert_eq!(batch.outcomes.len(), chunks().len());
        assert!(
            batch
                .outcomes
                .iter()
                .all(|o| matches!(o, MatchOutcome::Budget { kind: BudgetKind::Deadline, .. })),
            "{:?}",
            batch.outcomes
        );
    }

    #[test]
    fn a_worker_panic_is_recovered_and_the_batch_completes() {
        // The hook panics exactly once, on input 3's first attempt: the
        // worker discards its engine state, respawns, retries, and every
        // input still completes with the panic-free report, on both
        // backends.
        let config = ArchConfig::new_organization(8, 1);
        for make in [runtime, host_runtime] {
            let clean = guarded(&make(2), PATTERN, &chunks(), &config, &Budget::UNLIMITED);
            let telemetry = Telemetry::new();
            let runtime = make(2).with_telemetry(telemetry.clone()).with_run_hook(panic_once_on(3));
            let batch =
                quietly(|| guarded(&runtime, PATTERN, &chunks(), &config, &Budget::UNLIMITED));
            assert!(batch.worker_restarts >= 1);
            assert_eq!(batch.completed(), chunks().len(), "{:?}", batch.outcomes);
            assert_eq!(batch.outcomes, clean.outcomes, "on {}", runtime.backend());
            assert!(telemetry.counter("runtime.worker_restarts") >= 1);
        }
    }

    #[test]
    fn a_persistent_panic_faults_only_its_input() {
        // Input 3 panics on every attempt: it faults, everything else
        // completes.
        let config = ArchConfig::old_organization(1);
        let hook = Arc::new(|index: usize| {
            if index == 3 {
                panic!("persistent fault on input 3");
            }
        });
        let runtime = runtime(2).with_run_hook(hook);
        let batch = quietly(|| guarded(&runtime, PATTERN, &chunks(), &config, &Budget::UNLIMITED));
        assert_eq!(batch.faults(), 1);
        assert!(matches!(&batch.outcomes[3], MatchOutcome::Fault(m) if m.contains("input 3")));
        assert_eq!(batch.completed(), chunks().len() - 1);
        assert_eq!(batch.worker_restarts, 2);
    }

    #[test]
    fn pattern_hits_count_every_member_of_accepted_chunks_on_both_engines() {
        let config = ArchConfig::new_organization(8, 1);
        // Chunk 2 "xxxabcdxxx" holds `abcd` and `cd`; chunk 5 "bcda"
        // holds `bcda` and `cd`.
        let patterns = ["abcd", "bcda", "cd", "zzz"];
        let runtime = runtime(2);
        let program = runtime.compile_set(&patterns).unwrap();
        let chunks = chunks();
        for backend in [Backend::Sim, Backend::Host] {
            let run = |budget: &Budget| {
                runtime
                    .run_batch_guarded_traced_on(backend, &program, &chunks, &config, budget, None)
            };
            let batch = run(&Budget::UNLIMITED);
            let hits = |batch: &GuardedBatch, members: usize| {
                runtime.pattern_hits_on(backend, &program, &chunks, batch, members)
            };
            assert_eq!(hits(&batch, patterns.len()), [1, 1, 2, 0], "{backend}");
            assert_eq!(hits(&batch, 2), [1, 1], "{backend}: ids past `members` are dropped");
            // Chunks that tripped their budget are not re-run.
            let starved = run(&Budget { fuel: Some(1), deadline: None });
            assert!(starved.budget_exceeded() >= 2, "{backend}");
            assert_eq!(hits(&starved, patterns.len()), [0; 4], "{backend}");
        }
    }

    #[test]
    fn a_set_scan_survives_a_worker_panic_with_correct_per_pattern_counts() {
        // A multi-pattern set on the executor: one injected panic on
        // chunk 2's first attempt exercises the respawn path, and the
        // exhaustive per-pattern counts (run_all over every completed
        // chunk) still equal the panic-free run.
        let config = ArchConfig::new_organization(8, 1);
        let patterns = ["abcd", "bcda", "zzz"];
        let chunks = chunks(); // chunk 2 contains "abcd", chunk 5 "bcda"
        let runtime_plain = runtime(2);
        let program = runtime_plain.compile_set(&patterns).unwrap();

        let count_per_pattern = |outcomes: &[MatchOutcome], inputs: &[Vec<u8>]| {
            let mut counts = vec![0usize; patterns.len()];
            for (outcome, input) in outcomes.iter().zip(inputs) {
                if outcome.is_complete() {
                    for id in cicero_isa::run_all(&program, input).matched_ids {
                        counts[usize::from(id)] += 1;
                    }
                }
            }
            counts
        };

        let run = |runtime: &Runtime| {
            runtime.run_batch_guarded_traced_on(
                runtime.backend(),
                &program,
                &chunks,
                &config,
                &Budget::UNLIMITED,
                None,
            )
        };
        let plain = run(&runtime_plain);
        assert_eq!(plain.completed(), chunks.len());
        let expected = count_per_pattern(&plain.outcomes, &chunks);
        assert_eq!(expected, vec![1, 1, 0], "chunk fixtures drifted");

        let guarded_runtime = runtime(3).with_run_hook(panic_once_on(2));
        let batch = quietly(|| run(&guarded_runtime));
        assert!(batch.worker_restarts >= 1, "the injected panic must recycle a worker");
        assert_eq!(batch.completed(), chunks.len(), "{:?}", batch.outcomes);
        assert_eq!(count_per_pattern(&batch.outcomes, &chunks), expected);
    }

    #[test]
    fn traced_guarded_batch_yields_a_connected_span_tree() {
        let config = ArchConfig::new_organization(8, 1);
        let traced = |runtime: &Runtime, root: &TraceSpan| {
            let (program, _) = runtime.compile_traced(PATTERN, Some(root)).unwrap();
            runtime.run_batch_guarded_traced_on(
                runtime.backend(),
                &program,
                &chunks(),
                &config,
                &Budget::UNLIMITED,
                Some(root),
            )
        };
        let ctx = TraceContext::new("trace-batch");
        let root = ctx.root_span("request");
        let batch = traced(&runtime(3), &root);
        drop(root);
        let trace = ctx.finish();

        // compile (with per-pass children) → execute → one span per worker.
        let compile = trace.span("compile").expect("compile span");
        assert!(compile.attrs.iter().any(|(k, v)| k == "cache_hit" && v.to_string() == "false"));
        let passes = trace.spans_with_prefix("pass:");
        assert!(!passes.is_empty(), "cache miss must backfill pass spans");
        assert!(passes.iter().all(|p| p.parent == Some(compile.id)));
        let execute = trace.span("execute").expect("execute span");
        let workers = trace.spans_with_prefix("sim.worker-");
        assert_eq!(workers.len(), batch.jobs);
        for worker in &workers {
            assert_eq!(worker.parent, Some(execute.id));
            for key in ["cycles", "icache_hits", "icache_misses", "inputs"] {
                assert!(
                    worker.attrs.iter().any(|(k, _)| k == key),
                    "worker span missing {key}: {:?}",
                    worker.attrs
                );
            }
        }
        // Connectivity: exactly one root; every parent id resolves.
        assert_eq!(trace.spans.iter().filter(|s| s.parent.is_none()).count(), 1);
        for span in &trace.spans {
            assert!(span.closed, "{} still open", span.name);
            if let Some(parent) = span.parent {
                assert!((parent as usize) < trace.spans.len());
            }
        }

        // A second traced run hits the cache: no pass spans this time.
        let ctx2 = TraceContext::new("trace-batch-2");
        let runtime2 = runtime(2);
        let root2 = ctx2.root_span("request");
        traced(&runtime2, &root2);
        traced(&runtime2, &root2);
        drop(root2);
        let trace2 = ctx2.finish();
        let compiles: Vec<_> = trace2.spans.iter().filter(|s| s.name == "compile").collect();
        assert_eq!(compiles.len(), 2);
        assert!(compiles[1].attrs.iter().any(|(k, v)| k == "cache_hit" && v.to_string() == "true"));
    }

    #[test]
    fn host_backend_agrees_with_sim_verdicts_and_positions() {
        let config = ArchConfig::new_organization(8, 1);
        let sim = guarded(&runtime(2), PATTERN, &chunks(), &config, &Budget::UNLIMITED);
        let host = guarded(&host_runtime(2), PATTERN, &chunks(), &config, &Budget::UNLIMITED);
        assert_eq!(host.outcomes.len(), sim.outcomes.len());
        for (h, s) in host.outcomes.iter().zip(&sim.outcomes) {
            let (h, s) = (h.report().unwrap(), s.report().unwrap());
            assert_eq!(h.accepted, s.accepted);
            assert_eq!(h.match_position, s.match_position);
        }
        assert_eq!(host.matches(), sim.matches());
    }

    #[test]
    fn explicit_backend_overrides_the_runtime_default() {
        // A sim-default runtime can serve a host request and vice versa,
        // with identical verdicts from the shared program cache entry.
        let config = ArchConfig::old_organization(1);
        let sim_runtime = runtime(1);
        let run_on = |backend: Backend| {
            let (program, cache_hit) = sim_runtime.compile_traced(PATTERN, None).unwrap();
            let batch = sim_runtime.run_batch_guarded_traced_on(
                backend,
                &program,
                &chunks(),
                &config,
                &Budget::UNLIMITED,
                None,
            );
            (batch, cache_hit)
        };
        let (via_host, _) = run_on(Backend::Host);
        assert_eq!(via_host.matches(), 2);
        assert!(via_host.workers.iter().all(|w| w.icache_hits == 0), "ran on the host engine");
        // Second request on the other backend hits the same cache entry.
        let (via_sim, cache_hit) = run_on(Backend::Sim);
        assert!(cache_hit, "backends must share one program cache entry");
        assert_eq!(via_sim.matches(), 2);
    }
}
