//! Parallel batch-matching runtime.
//!
//! The paper's architecture wins by *parallel enumeration* — many cores
//! chewing through thread queues concurrently (§4). This crate is the
//! host-side analogue for serving many inputs. It has one entry point per
//! request shape, and both run on either backend:
//!
//! * [`Runtime::run_batch_guarded_traced_on`] — a batch of inputs spread
//!   over scoped worker threads that pull input indices from a shared
//!   counter (inline on the calling thread when the batch resolves to one
//!   job). On the simulator each worker owns its own
//!   [`Machine`](cicero_sim::Machine), refreshed from the resident program
//!   image before every input, so the merged per-input outcomes are
//!   byte-identical for every worker count. Every batch runs under a
//!   [`Budget`] with per-input panic isolation.
//! * [`Runtime::scan_stream_traced_on`] — one input read chunk by chunk
//!   through a bounded queue into a resumable matcher.
//!
//! The choice between the simulator and the host-native engine is made
//! in one private module; the executor and the session loop are written
//! once.
//!
//! In front sits an LRU [`ProgramCache`] keyed by `(pattern,
//! CompilerOptions)`: repeated patterns — the common case for serving
//! traffic, where the same rule set scans every packet — skip the whole
//! multi-dialect pass pipeline and go straight to execution. This is
//! MLIR's own argument applied to serving: the compiler layers produce
//! reusable, cached artifacts that feed one execution substrate, rather
//! than being re-run per request.
//!
//! # Example
//!
//! ```
//! use cicero_runtime::{Budget, MatchOutcome, Runtime, RuntimeOptions};
//! use cicero_sim::{simulate_batch, ArchConfig};
//!
//! let runtime = Runtime::new(RuntimeOptions { jobs: 2, ..RuntimeOptions::default() });
//! let config = ArchConfig::new_organization(8, 1);
//! let chunks = vec![b"xxabyy".to_vec(), b"nothing".to_vec(), b"ab".to_vec()];
//! let (program, cache_hit) = runtime.compile_traced("ab|cd", None)?;
//! assert!(!cache_hit);
//! let batch = runtime.run_batch_guarded_traced_on(
//!     runtime.backend(),
//!     &program,
//!     &chunks,
//!     &config,
//!     &Budget::UNLIMITED,
//!     None,
//! );
//! assert_eq!(batch.matches(), 2);
//! // Outcomes equal the sequential simulator, whatever the worker count.
//! let sequential = simulate_batch(&program, &chunks, &config);
//! for (outcome, report) in batch.outcomes.iter().zip(sequential) {
//!     assert_eq!(outcome, &MatchOutcome::Complete(report));
//! }
//! let (_, cache_hit) = runtime.compile_traced("ab|cd", None)?;
//! assert!(cache_hit, "the second request skips the pass pipeline");
//! # Ok::<(), cicero_core::CompileError>(())
//! ```

mod budget;
mod cache;
mod engine;
mod handle;
mod stream;

use std::sync::Arc;

pub use budget::{Budget, BudgetKind, GuardedBatch, MatchOutcome};
pub use cache::{CacheKey, CacheStats, ProgramCache, DEFAULT_SHARDS};
pub use cicero_hostexec::{
    EngineKind, HostAllOutcome, HostOutcome, HostProgram, HostRun, HostTiers,
};
pub use handle::{PinGuard, SetHandle};
pub use stream::{StreamError, StreamOptions, StreamReport};

use cicero_core::{Backend, CompileError, Compiler, CompilerOptions, PipelineReport};
use cicero_isa::Program;
use cicero_telemetry::{Telemetry, TraceSpan, Value};

/// Bounded memoization of host-engine lowerings, keyed by the program
/// itself. Lowering runs outside the lock (a racing duplicate is merely
/// wasted work); at capacity the map is flushed wholesale — entries are
/// cheap to rebuild and the working set of distinct programs is small.
struct HostCache {
    map: std::sync::Mutex<std::collections::HashMap<Program, Arc<HostProgram>>>,
    capacity: usize,
    tiers: HostTiers,
}

impl HostCache {
    fn new(capacity: usize, tiers: HostTiers) -> HostCache {
        HostCache {
            map: std::sync::Mutex::new(std::collections::HashMap::new()),
            capacity: capacity.max(1),
            tiers,
        }
    }

    fn get_or_lower(&self, program: &Program) -> Arc<HostProgram> {
        if let Some(hit) = self.map.lock().unwrap_or_else(|p| p.into_inner()).get(program) {
            return Arc::clone(hit);
        }
        let lowered = Arc::new(HostProgram::compile_with_tiers(program, self.tiers));
        let mut map = self.map.lock().unwrap_or_else(|p| p.into_inner());
        if map.len() >= self.capacity {
            map.clear();
        }
        map.entry(program.clone()).or_insert_with(|| Arc::clone(&lowered)).clone()
    }
}

/// Backfill per-pass compile timings under `span` as synthetic child
/// spans, laid out end-to-end from the span's start (the pass manager
/// ran them sequentially, so the cumulative layout is faithful).
fn record_pass_spans(span: &TraceSpan, report: &PipelineReport) {
    let mut offset = span.start_offset();
    for pass in &report.passes {
        span.context().record_complete(
            Some(span.id()),
            format!("pass:{}", pass.name),
            offset,
            pass.duration,
            vec![
                ("ops_before".to_owned(), Value::from(pass.ops_before)),
                ("ops_after".to_owned(), Value::from(pass.ops_after)),
            ],
        );
        offset += pass.duration;
    }
}

/// Construction-time knobs for a [`Runtime`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct RuntimeOptions {
    /// Worker threads per batch; `0` resolves to the host's available
    /// parallelism.
    pub jobs: usize,
    /// Maximum entries in the compiled-program cache.
    pub cache_capacity: usize,
    /// Lock stripes in the compiled-program cache; `0` resolves to the
    /// cache's built-in default ([`cache::DEFAULT_SHARDS`]). An autotuner
    /// knob: more stripes cut contention, fewer keep LRU order closer to
    /// global.
    pub cache_shards: usize,
    /// Host-backend engine-tier thresholds (see [`HostTiers`]).
    pub host_tiers: HostTiers,
    /// Compiler configuration used for every compilation (and part of
    /// every cache key).
    pub compiler: CompilerOptions,
}

impl Default for RuntimeOptions {
    fn default() -> RuntimeOptions {
        RuntimeOptions {
            jobs: 0,
            cache_capacity: 128,
            cache_shards: 0,
            host_tiers: HostTiers::default(),
            compiler: CompilerOptions::optimized(),
        }
    }
}

/// A pre-run hook invoked with each input index on the worker thread
/// about to run it. Exists so tests can inject
/// deterministic faults — a panicking hook exercises the worker
/// panic-isolation path.
pub type RunHook = Arc<dyn Fn(usize) + Send + Sync>;

/// A batch-matching runtime: batch executor, streaming sessions and
/// compiled-program cache.
///
/// Cheap to share behind an [`Arc`]; all interior state (the cache) is
/// thread-safe, and batches from concurrent front-end threads interleave
/// freely.
pub struct Runtime {
    options: RuntimeOptions,
    jobs: usize,
    cache: ProgramCache,
    host: HostCache,
    telemetry: Option<Telemetry>,
    run_hook: Option<RunHook>,
}

impl std::fmt::Debug for Runtime {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Runtime")
            .field("options", &self.options)
            .field("jobs", &self.jobs)
            .field("cache", &self.cache)
            .field("telemetry", &self.telemetry)
            .field("run_hook", &self.run_hook.as_ref().map(|_| "..."))
            .finish()
    }
}

impl Default for Runtime {
    fn default() -> Runtime {
        Runtime::new(RuntimeOptions::default())
    }
}

impl Runtime {
    /// Build a runtime; `options.jobs == 0` resolves to the host's
    /// available parallelism.
    pub fn new(options: RuntimeOptions) -> Runtime {
        let jobs = if options.jobs == 0 {
            std::thread::available_parallelism().map(std::num::NonZeroUsize::get).unwrap_or(1)
        } else {
            options.jobs
        };
        let shards =
            if options.cache_shards == 0 { cache::DEFAULT_SHARDS } else { options.cache_shards };
        Runtime {
            jobs,
            cache: ProgramCache::with_shards(options.cache_capacity, shards),
            host: HostCache::new(options.cache_capacity, options.host_tiers),
            options,
            telemetry: None,
            run_hook: None,
        }
    }

    /// Attach a telemetry collector: every batch then records `runtime.*`
    /// counters (batch/input/cache totals, per-worker distributions) and
    /// folds each run's [`ExecReport`](cicero_sim::ExecReport) into the
    /// existing `sim.*` metrics.
    #[must_use]
    pub fn with_telemetry(mut self, telemetry: Telemetry) -> Runtime {
        self.telemetry = Some(telemetry);
        self
    }

    /// Install a pre-run hook for the batch executor (see [`RunHook`]).
    #[must_use]
    pub fn with_run_hook(mut self, hook: RunHook) -> Runtime {
        self.run_hook = Some(hook);
        self
    }

    /// The resolved worker count.
    pub fn jobs(&self) -> usize {
        self.jobs
    }

    /// The active options (with `jobs` as originally requested).
    pub fn options(&self) -> &RuntimeOptions {
        &self.options
    }

    /// The compiled-program cache (for statistics and administration).
    pub fn cache(&self) -> &ProgramCache {
        &self.cache
    }

    /// The backend requests run on unless they say otherwise (from
    /// [`RuntimeOptions::compiler`]).
    pub fn backend(&self) -> Backend {
        self.options.compiler.backend
    }

    /// The host-engine lowering of `program`, memoized per runtime. Use
    /// this to inspect engine selection or to run host-only entry points
    /// like [`HostProgram::run_all`] directly.
    pub fn host_program(&self, program: &Program) -> Arc<HostProgram> {
        self.host.get_or_lower(program)
    }

    /// Compile `pattern` through the cache.
    ///
    /// # Errors
    ///
    /// See [`CompileError`]; failures are not cached.
    pub fn compile(&self, pattern: &str) -> Result<Arc<Program>, CompileError> {
        Ok(self.compile_traced(pattern, None)?.0)
    }

    /// Compile `pattern` through the cache, attaching a `compile` child
    /// span (with per-pass children on a cache miss) under `trace`.
    ///
    /// # Errors
    ///
    /// See [`CompileError`]; failures are not cached.
    pub fn compile_traced(
        &self,
        pattern: &str,
        trace: Option<&TraceSpan>,
    ) -> Result<(Arc<Program>, bool), CompileError> {
        let key = CacheKey::pattern(pattern, self.cache_options());
        self.compile_cached(key, trace.map(|parent| parent.child("compile")), |traced| {
            let compiled = Compiler::with_options(self.options.compiler).compile(pattern)?;
            let report = traced.then(|| compiled.pass_report().clone());
            Ok((compiled.into_program(), report))
        })
    }

    /// Compile a multi-matching set through the cache (see
    /// [`Compiler::compile_set`]); the set's match identifiers index the
    /// `patterns` slice in order.
    ///
    /// # Errors
    ///
    /// See [`Compiler::compile_set`].
    pub fn compile_set<S: AsRef<str>>(&self, patterns: &[S]) -> Result<Arc<Program>, CompileError> {
        Ok(self.compile_set_traced(patterns, None)?.0)
    }

    /// Compile a multi-matching set through the cache, attaching a
    /// `compile` child span (with per-pass children covering every
    /// pattern's pipeline on a cache miss) under `trace`.
    ///
    /// # Errors
    ///
    /// See [`Compiler::compile_set`].
    pub fn compile_set_traced<S: AsRef<str>>(
        &self,
        patterns: &[S],
        trace: Option<&TraceSpan>,
    ) -> Result<(Arc<Program>, bool), CompileError> {
        let span = trace.map(|parent| {
            let span = parent.child("compile");
            span.annotate("patterns", patterns.len());
            span
        });
        let key = CacheKey::set(patterns, self.cache_options());
        self.compile_cached(key, span, |traced| {
            let set = Compiler::with_options(self.options.compiler).compile_set(patterns)?;
            Ok((set.program().clone(), traced.then(|| set.pass_report().clone())))
        })
    }

    /// Compilation is backend-agnostic, so the backend is normalized out
    /// of every cache key: sim and host requests share one entry.
    fn cache_options(&self) -> CompilerOptions {
        self.options.compiler.with_backend(Backend::Sim)
    }

    /// Look `key` up in the cache, running `compile` on a miss (asking for
    /// its pass report when `span` is set). Counts the lookup and fills
    /// `span` with the hit flag and, on a miss, per-pass children.
    fn compile_cached(
        &self,
        key: CacheKey,
        span: Option<TraceSpan>,
        compile: impl FnOnce(bool) -> Result<(Program, Option<PipelineReport>), CompileError>,
    ) -> Result<(Arc<Program>, bool), CompileError> {
        let mut report = None;
        let result = self.cache.get_or_insert_with(key, || {
            let (program, pass_report) = compile(span.is_some())?;
            report = pass_report;
            Ok(program)
        });
        if let (Some(telemetry), Ok((_, hit))) = (&self.telemetry, &result) {
            let name = if *hit { "runtime.cache_hits" } else { "runtime.cache_misses" };
            telemetry.counter_add(name, 1);
        }
        if let Some(span) = &span {
            if let Ok((_, hit)) = &result {
                span.annotate("cache_hit", *hit);
            }
            if let Some(report) = &report {
                span.annotate("passes", report.passes.len());
                record_pass_spans(span, report);
            }
        }
        result
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use cicero_sim::ArchConfig;

    fn chunks() -> Vec<Vec<u8>> {
        let mut inputs: Vec<Vec<u8>> = (0..7).map(|i| vec![b'x'; 30 + i]).collect();
        inputs[2] = b"xxxabcdxxx".to_vec();
        inputs[5] = b"bcda".to_vec();
        inputs
    }

    const PATTERN: &str = "(abcd|bcda|cdab|dabc)";

    fn runtime(jobs: usize) -> Runtime {
        Runtime::new(RuntimeOptions { jobs, ..RuntimeOptions::default() })
    }

    /// Compile [`PATTERN`] through the cache and run it over `chunks()`.
    fn serve(runtime: &Runtime, config: &ArchConfig) -> (GuardedBatch, bool) {
        let (program, hit) = runtime.compile_traced(PATTERN, None).unwrap();
        let budget = Budget::UNLIMITED;
        let batch = runtime.run_batch_guarded_traced_on(
            Backend::Sim,
            &program,
            &chunks(),
            config,
            &budget,
            None,
        );
        (batch, hit)
    }

    #[test]
    fn cache_serves_repeated_patterns() {
        let runtime = runtime(2);
        let config = ArchConfig::old_organization(1);
        let (first, hit) = serve(&runtime, &config);
        assert!(!hit);
        let (second, hit) = serve(&runtime, &config);
        assert!(hit);
        assert_eq!(first.outcomes, second.outcomes);
        let stats = runtime.cache().stats();
        assert_eq!((stats.hits, stats.misses, stats.entries), (1, 1, 1));
    }

    #[test]
    fn compile_set_is_cached_too() {
        let runtime = runtime(1);
        let patterns = ["GET /", "POST /"];
        let a = runtime.compile_set(&patterns).unwrap();
        let b = runtime.compile_set(&patterns).unwrap();
        assert!(Arc::ptr_eq(&a, &b));
        assert_eq!(runtime.cache().stats().hits, 1);
    }

    #[test]
    fn compile_errors_surface_and_are_not_cached() {
        let runtime = runtime(1);
        assert!(runtime.compile("(").is_err());
        assert_eq!(runtime.cache().stats().entries, 0);
    }

    #[test]
    fn empty_sets_error_through_the_cache_without_polluting_it() {
        let runtime = runtime(1);
        let err = runtime.compile_set::<&str>(&[]).unwrap_err();
        assert!(matches!(err, CompileError::EmptySet));
        assert_eq!(runtime.cache().stats().entries, 0);
        // A duplicate-bearing set still compiles and caches normally.
        let set = runtime.compile_set(&["ab", "ab"]).unwrap();
        let all = cicero_isa::run_all(&set, b"xab");
        assert_eq!(all.matched_ids, vec![0, 1]);
        assert_eq!(runtime.cache().stats().entries, 1);
    }

    /// A traced cache miss projects the compiler's own pass report into
    /// the trace: one `pass:*` child of `compile` per executed pass, in
    /// pipeline order, each carrying its op counts.
    #[test]
    fn traced_compile_miss_has_one_span_per_pass() {
        let runtime = runtime(1);
        let ctx = cicero_telemetry::TraceContext::new("compile-miss");
        let root = ctx.root_span("request");
        let (program, hit) = runtime.compile_traced(PATTERN, Some(&root)).unwrap();
        assert!(!hit);
        drop(root);
        let trace = ctx.finish();

        let compiled = Compiler::with_options(runtime.options().compiler).compile(PATTERN).unwrap();
        assert_eq!(*program, *compiled.program());
        let compile = trace.span("compile").expect("compile span");
        let spans = trace.spans_with_prefix("pass:");
        let passes = &compiled.pass_report().passes;
        assert_eq!(spans.len(), passes.len());
        let mut previous_start = compile.start;
        for (span, pass) in spans.iter().zip(passes) {
            assert_eq!(span.name, format!("pass:{}", pass.name));
            assert_eq!(span.parent, Some(compile.id));
            assert!(span.start >= previous_start, "{} starts out of order", span.name);
            previous_start = span.start;
            let attrs: Vec<(&str, String)> =
                span.attrs.iter().map(|(k, v)| (k.as_str(), v.to_string())).collect();
            assert_eq!(
                attrs,
                [
                    ("ops_before", pass.ops_before.to_string()),
                    ("ops_after", pass.ops_after.to_string())
                ]
            );
        }
    }

    #[test]
    fn telemetry_merges_runtime_and_sim_metrics() {
        let telemetry = Telemetry::new();
        let runtime = runtime(2).with_telemetry(telemetry.clone());
        let config = ArchConfig::old_organization(1);
        serve(&runtime, &config);
        serve(&runtime, &config);
        assert_eq!(telemetry.counter("runtime.batches"), 2);
        assert_eq!(telemetry.counter("runtime.inputs"), 14);
        assert_eq!(telemetry.counter("runtime.cache_hits"), 1);
        assert_eq!(telemetry.counter("runtime.cache_misses"), 1);
        assert_eq!(telemetry.counter("runtime.worker_runs"), 14);
        // Every individual run is folded into the existing sim.* metrics.
        assert_eq!(telemetry.counter("sim.runs"), 14);
        assert_eq!(telemetry.histogram("sim.cycles").unwrap().count, 14);
        assert!(telemetry.histogram("runtime.worker_cycles").unwrap().count >= 2);
    }

    #[test]
    fn zero_jobs_resolves_to_host_parallelism() {
        let runtime = Runtime::new(RuntimeOptions::default());
        assert!(runtime.jobs() >= 1);
    }
}
