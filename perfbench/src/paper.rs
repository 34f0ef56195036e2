//! `paper_sim`: the paper's own path, offline. Every RE of the four
//! suites is compiled by the new compiler and by the legacy compiler,
//! and the new program is simulated over the suite's chunks on the
//! default stack (NEW 16x1, the server's default configuration).

use std::time::Instant;

use cicero_core::{CompiledRegex, Compiler};
use cicero_legacy::LegacyCompiler;
use cicero_sim::{simulate_batch, ArchConfig, ExecReport};
use regex_oracle::Oracle;

use crate::spans::Recorder;
use crate::stats::median_of;

/// REs per suite.
pub const PATTERNS: usize = 24;
/// 500-byte chunks generated per suite.
pub const CHUNKS: usize = 32;
/// Chunks each RE is simulated over: RE `i` takes the `i`-th window of
/// the suite's chunk pool, so every chunk is simulated and the mix of
/// early stops is the pool's, not that of a few chunks.
pub const CHUNKS_PER_RE: usize = 4;

/// The chunk window RE `i` of a suite is simulated over.
fn window(i: usize) -> std::ops::Range<usize> {
    let start = (i * CHUNKS_PER_RE) % CHUNKS;
    start..start + CHUNKS_PER_RE
}

/// The default stack's architecture.
pub fn default_config() -> ArchConfig {
    cicero_server::ServerOptions::default().config
}

/// The paper's per-RE figures over one pass of every suite.
#[derive(Debug, Default, Clone, Copy)]
pub struct PaperFigures {
    /// Simulated cycles summed over every (RE, chunk) run.
    pub cycles: u64,
    /// (RE, chunk) runs.
    pub runs: u64,
    /// Instruction-cache hits and misses.
    pub icache_hits: u64,
    /// Instruction-cache misses.
    pub icache_misses: u64,
    /// Host seconds inside the simulator.
    pub sim_s: f64,
    /// Input bytes simulated.
    pub sim_bytes: u64,
}

impl PaperFigures {
    /// Fold one simulated run in.
    pub fn absorb(&mut self, report: &ExecReport, bytes: usize) {
        self.cycles += report.cycles;
        self.runs += 1;
        self.icache_hits += report.icache_hits;
        self.icache_misses += report.icache_misses;
        self.sim_bytes += bytes as u64;
    }

    /// Simulated µs per RE at the configuration's clock, as the paper
    /// averages it: total cycles over REs executed.
    pub fn us_per_re(&self, config: &ArchConfig) -> f64 {
        self.cycles as f64 / self.runs as f64 / config.clock_mhz()
    }

    /// Simulated W·µs per RE.
    pub fn wus_per_re(&self, config: &ArchConfig) -> f64 {
        self.us_per_re(config) * cicero_sim::power_watts(config)
    }

    /// Instruction-cache hit rate.
    pub fn icache_hit_rate(&self) -> f64 {
        self.icache_hits as f64 / (self.icache_hits + self.icache_misses).max(1) as f64
    }
}

/// Whether `report` agrees with the oracle's match ends for its input:
/// the verdict must match, and a reported position must be one of the
/// ends (multi-core organizations may resolve acceptance races to any).
pub fn agrees(report: &ExecReport, ends: &[usize]) -> bool {
    !report.hit_cycle_limit
        && report.accepted != ends.is_empty()
        && report.match_position.is_none_or(|p| ends.contains(&p))
}

/// One RE of the paper's path: the chunks it is simulated over and the
/// oracle's match ends in each, computed before any timing.
#[derive(Debug, Clone)]
pub struct Job {
    /// The RE.
    pub pattern: String,
    /// Its simulated inputs.
    pub chunks: Vec<Vec<u8>>,
    /// Oracle match ends per chunk.
    pub ends: Vec<Vec<usize>>,
}

impl Job {
    /// `pattern` over `chunks`, with its reference answers.
    pub fn new(pattern: &str, chunks: Vec<Vec<u8>>) -> Job {
        let oracle = Oracle::new(pattern).expect("suite patterns parse");
        let ends = chunks.iter().map(|c| oracle.match_ends(c)).collect();
        Job { pattern: pattern.to_owned(), chunks, ends }
    }

    /// Input bytes simulated.
    pub fn bytes(&self) -> u64 {
        self.chunks.iter().map(|c| c.len() as u64).sum()
    }
}

/// `paper_sim`'s jobs: every RE of the four suites, RE `i` of a suite
/// over the suite's `i`-th chunk window.
pub fn jobs(seed: u64) -> Vec<Job> {
    crate::traffic::all_suites(seed, PATTERNS, CHUNKS)
        .iter()
        .flat_map(|suite| {
            suite
                .patterns
                .iter()
                .enumerate()
                .map(|(i, p)| Job::new(p, suite.chunks[window(i)].to_vec()))
        })
        .collect()
}

/// One RE taken down the paper's path.
pub struct OpRun {
    /// The new compiler's output, with its stage and pass figures.
    pub compiled: CompiledRegex,
    /// New-compiler wall time, ms.
    pub compile_ms: f64,
    /// Legacy-compiler wall time, ms.
    pub legacy_ms: f64,
    /// Legacy program size, instructions.
    pub legacy_size: usize,
}

/// Compile `job`'s RE with the new and the legacy compiler and simulate
/// the new program over its chunks, each call in a span of `rec`; every
/// simulated run is checked against the oracle. `Err` on any failure.
pub fn op(
    job: &Job,
    config: &ArchConfig,
    rec: &mut Recorder,
    figures: &mut PaperFigures,
) -> Result<OpRun, String> {
    let pattern = &job.pattern;
    let start = Instant::now();
    let compiled = rec
        .span("core.compile", |_| Compiler::new().compile(pattern))
        .map_err(|e| format!("{pattern}: {e}"))?;
    let compile_ms = start.elapsed().as_secs_f64() * 1e3;
    let start = Instant::now();
    let legacy = rec
        .span("legacy.compile", |_| LegacyCompiler::new(true).compile(pattern))
        .map_err(|e| format!("{pattern}: {e}"))?;
    let legacy_ms = start.elapsed().as_secs_f64() * 1e3;
    let start = Instant::now();
    let reports =
        rec.span("sim.simulate_batch", |_| simulate_batch(compiled.program(), &job.chunks, config));
    figures.sim_s += start.elapsed().as_secs_f64();
    for ((report, chunk), ends) in reports.iter().zip(&job.chunks).zip(&job.ends) {
        if !agrees(report, ends) {
            return Err(format!(
                "{pattern}: simulated {:?} at {:?}, oracle ends {ends:?}",
                report.accepted, report.match_position
            ));
        }
        figures.absorb(report, chunk.len());
    }
    Ok(OpRun { compiled, compile_ms, legacy_ms, legacy_size: legacy.len() })
}

/// What the untraced `paper_sim` run measured.
pub struct PaperRun {
    /// Median set-up time, seconds.
    pub setup_s: f64,
    /// Wall time of each per-RE op (both compiles plus simulation), ms.
    pub op_ms: Vec<f64>,
    /// Wall-clock length of the timed loop, seconds.
    pub wall: f64,
    /// Input bytes simulated in the timed loop.
    pub bytes: u64,
    /// Failed ops (a compile error or a disagreement with the oracle).
    pub failed: u64,
    /// The first few failure reasons.
    pub reasons: Vec<String>,
    /// New-compiler wall time per RE, ms (first pass).
    pub compile_ms: Vec<f64>,
    /// Legacy-compiler wall time per RE, ms (first pass).
    pub legacy_ms: Vec<f64>,
    /// Simulation figures (first pass).
    pub figures: PaperFigures,
}

/// Run whole passes over every suite's REs until `seconds` have passed.
pub fn run(seed: u64, seconds: f64) -> PaperRun {
    let jobs = jobs(seed);
    let config = default_config();
    let mut rec = Recorder::new(false);

    // Set-up: every RE compiled by both compilers and the first of each
    // suite simulated once, which builds all lazily initialised state.
    let setups: Vec<f64> = (0..crate::served::SETUP_REPS)
        .map(|_| {
            let start = Instant::now();
            for job in &jobs {
                let _ = Compiler::new().compile(&job.pattern);
                let _ = LegacyCompiler::new(true).compile(&job.pattern);
            }
            for job in jobs.iter().step_by(PATTERNS) {
                let _ = op(job, &config, &mut rec, &mut PaperFigures::default());
            }
            start.elapsed().as_secs_f64()
        })
        .collect();

    let mut run = PaperRun {
        setup_s: median_of(&setups),
        op_ms: Vec::new(),
        wall: 0.0,
        bytes: 0,
        failed: 0,
        reasons: Vec::new(),
        compile_ms: Vec::new(),
        legacy_ms: Vec::new(),
        figures: PaperFigures::default(),
    };
    let start = Instant::now();
    let mut pass = 0;
    while pass == 0 || start.elapsed().as_secs_f64() < seconds {
        let mut figures = PaperFigures::default();
        for job in &jobs {
            let op_start = Instant::now();
            let outcome = op(job, &config, &mut rec, &mut figures);
            run.op_ms.push(op_start.elapsed().as_secs_f64() * 1e3);
            run.bytes += job.bytes();
            match outcome {
                Ok(done) if pass == 0 => {
                    run.compile_ms.push(done.compile_ms);
                    run.legacy_ms.push(done.legacy_ms);
                }
                Ok(_) => {}
                Err(e) => {
                    run.failed += 1;
                    if run.reasons.len() < 5 {
                        run.reasons.push(e);
                    }
                }
            }
        }
        if pass == 0 {
            run.figures = figures;
        }
        pass += 1;
    }
    run.wall = start.elapsed().as_secs_f64();
    run
}
