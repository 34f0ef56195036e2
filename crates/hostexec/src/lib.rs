//! Host-native execution backend for `cicero` ISA programs.
//!
//! The cycle-level simulator is the *architecture oracle*: it answers
//! "what would the paper's hardware do, cycle by cycle". This crate
//! answers a different question — "what is the match result, as fast as
//! this CPU can produce it" — by lowering the same validated [`Program`]
//! one step further, onto the host:
//!
//! 1. **Epsilon elimination** (`nfa.rs`): `Split`/`Jump`/`NotMatch` paths
//!    are folded away into a byte-predicate NFA whose states are
//!    `(pc, predicate)` pairs, restoring the Glushkov property (every
//!    entry into a state agrees on its byte predicate).
//! 2. **Prefix factoring**: provably co-active states merge, folding the
//!    duplicated scan loops and shared literal prefixes of
//!    `compile_set` programs into one spine.
//! 3. **Engine selection**: ≤ 64 states run bit-parallel in a `u64`
//!    (shift-or style, chunked follow tables, byte-class compressed);
//!    ≤ 128 states in a `u128`. A multi-identifier set that is wider
//!    runs on a *bank* (module `bank`): the set is split by accept
//!    identifier into bins that each fit one word, every input byte is
//!    fed to each live bin, and the earliest acceptance wins. Only an
//!    automaton with a single component over 128 states (one wide
//!    pattern, or a set member that alone is that wide) falls back to a
//!    byte-class-compressed lazy DFA. A pathological program that blows
//!    the lowering budget falls back to the reference interpreter —
//!    slower, never wrong.
//! 4. **Prefilter** (`prefilter.rs`): a memchr-style skip loop extracted
//!    from the steady scan state, exact by construction.
//!
//! Semantics match [`cicero_isa::run`] / [`cicero_isa::run_all`]
//! observably: same verdict, same earliest match end, same identifier
//! set. The one documented deviation: [`HostOutcome::matched_id`]
//! resolves ties at the match position in favour of the lowest
//! identifier, where the interpreter reports whichever thread drains
//! first (single-pattern programs — where `matched_id` is `None` — are
//! unaffected, and `run_all` id *sets* are identical).
//!
//! The resumable [`HostMatcher`] extends the chunk-split-invariance
//! contract of [`cicero_isa::StreamMatcher`] to the native path: state is
//! one machine word per bin (or one DFA id), so feeding any split of an
//! input is byte-for-byte equivalent to the whole-input run.

mod bank;
mod bytes;
mod dfa;
mod engine;
mod nfa;
mod prefilter;

pub use bytes::ByteSet;

use cicero_isa::Program;
use engine::{BitEngine, BitMatcher};

/// Result of a host-engine run (the native analogue of
/// [`cicero_isa::ExecOutcome`], minus the work metric — wall-clock *is*
/// the work metric here).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct HostOutcome {
    /// Whether the program accepted.
    pub accepted: bool,
    /// Input position (byte index) at which acceptance fired — the
    /// earliest match end, identical to the interpreter's.
    pub match_position: Option<usize>,
    /// Identifier of the acceptance, for multi-matching sets (lowest id
    /// firing at the match position; see the crate docs).
    pub matched_id: Option<u16>,
}

/// Result of an exhaustive multi-match scan (the native analogue of
/// [`cicero_isa::ExecAllOutcome`]).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct HostAllOutcome {
    /// Whether any acceptance fired.
    pub accepted: bool,
    /// Every distinct identifier that fired, ascending.
    pub matched_ids: Vec<u16>,
    /// Position of the earliest acceptance.
    pub first_match_position: Option<usize>,
}

/// Which execution strategy [`HostProgram::compile`] selected. A bank
/// of bins (see [`HostProgram::bins`]) reports its widest bin's tier.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum EngineKind {
    /// Bit-parallel, one `u64` state mask (≤ 64 states per bin).
    Bit64,
    /// Bit-parallel, one `u128` state mask (65–128 states per bin).
    Bit128,
    /// Byte-class-compressed lazy DFA (a component of > 128 states that
    /// no bank can split).
    LazyDfa,
    /// Reference-interpreter fallback (lowering budget exceeded).
    Interp,
}

impl std::fmt::Display for EngineKind {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(match self {
            EngineKind::Bit64 => "bit64",
            EngineKind::Bit128 => "bit128",
            EngineKind::LazyDfa => "lazy-dfa",
            EngineKind::Interp => "interp",
        })
    }
}

enum Repr {
    W64(BitEngine<u64>),
    W128(BitEngine<u128>),
    Dfa(dfa::SparseNfa),
    Interp(Program),
    /// Bit-parallel bins of one set, each a `W64` or `W128` program.
    Bank(Vec<HostProgram>),
}

/// Engine-tier selection thresholds: the largest automaton (in states)
/// each bit-parallel width accepts before compilation falls through to
/// the next tier. Exposed as autotuner knobs — a workload whose automata
/// hover just above a width boundary can trade the wider engine's extra
/// per-byte cost against the lazy DFA's construction overhead.
///
/// Values are clamped to the representation's hard capacity (64 / 128
/// states), and `bit128_max` is clamped up to `bit64_max` so the tiers
/// stay ordered.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct HostTiers {
    /// Max states handled by the one-`u64`-mask engine (≤ 64).
    pub bit64_max: usize,
    /// Max states handled by the one-`u128`-mask engine (≤ 128).
    pub bit128_max: usize,
}

impl Default for HostTiers {
    fn default() -> HostTiers {
        HostTiers { bit64_max: 64, bit128_max: 128 }
    }
}

impl HostTiers {
    fn clamped(self) -> HostTiers {
        let bit64_max = self.bit64_max.min(64);
        let bit128_max = self.bit128_max.min(128).max(bit64_max);
        HostTiers { bit64_max, bit128_max }
    }
}

/// A `cicero` program lowered to a host-native engine. Immutable and
/// `Sync`: share one behind an `Arc` across worker threads; per-run
/// mutable state lives in [`HostMatcher`].
pub struct HostProgram {
    repr: Repr,
}

impl std::fmt::Debug for HostProgram {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("HostProgram")
            .field("engine", &self.engine_kind())
            .field("states", &self.state_count())
            .field("byte_classes", &self.byte_class_count())
            .field("bins", &self.bins())
            .finish()
    }
}

impl HostProgram {
    /// Lower `program` to the best-fitting host engine. Infallible: a
    /// program the lowering cannot handle within budget degrades to the
    /// reference interpreter rather than failing.
    pub fn compile(program: &Program) -> HostProgram {
        HostProgram::compile_with_tiers(program, HostTiers::default())
    }

    /// [`compile`](HostProgram::compile) with explicit engine-tier
    /// thresholds (see [`HostTiers`]); out-of-range thresholds are
    /// clamped, never an error.
    pub fn compile_with_tiers(program: &Program, tiers: HostTiers) -> HostProgram {
        let tiers = tiers.clamped();
        match nfa::lower(program) {
            None => HostProgram { repr: Repr::Interp(program.clone()) },
            Some(mut nfa) => {
                // The bank projects the unfactored automaton; keep a copy
                // only when even the factored one may be too wide.
                let unfactored = (nfa.preds.len() > tiers.bit128_max).then(|| nfa.clone());
                nfa::factor(&mut nfa);
                HostProgram::bit_parallel(&nfa, tiers)
                    .or_else(|| {
                        let bins = bank::build(&unfactored?, tiers)?;
                        Some(HostProgram { repr: Repr::Bank(bins) })
                    })
                    .unwrap_or_else(|| HostProgram { repr: Repr::Dfa(dfa::SparseNfa::build(&nfa)) })
            }
        }
    }

    /// The one-word engine for a factored `nfa`, when it fits a tier.
    fn bit_parallel(nfa: &nfa::Nfa, tiers: HostTiers) -> Option<HostProgram> {
        let states = nfa.preds.len();
        let repr = if states <= tiers.bit64_max {
            Repr::W64(BitEngine::build(nfa))
        } else if states <= tiers.bit128_max {
            Repr::W128(BitEngine::build(nfa))
        } else {
            return None;
        };
        Some(HostProgram { repr })
    }

    /// The selected execution strategy.
    pub fn engine_kind(&self) -> EngineKind {
        match &self.repr {
            Repr::W64(_) => EngineKind::Bit64,
            Repr::W128(_) => EngineKind::Bit128,
            Repr::Dfa(_) => EngineKind::LazyDfa,
            Repr::Interp(_) => EngineKind::Interp,
            Repr::Bank(bins) => {
                if bins.iter().any(|bin| bin.engine_kind() == EngineKind::Bit128) {
                    EngineKind::Bit128
                } else {
                    EngineKind::Bit64
                }
            }
        }
    }

    /// Engines the input is fed to: the bank's bin count, 1 for every
    /// other tier.
    pub fn bins(&self) -> usize {
        match &self.repr {
            Repr::Bank(bins) => bins.len(),
            _ => 1,
        }
    }

    /// States in the lowered automaton, summed over a bank's bins (0 for
    /// the interpreter fallback).
    pub fn state_count(&self) -> usize {
        match &self.repr {
            Repr::W64(e) => e.n_states,
            Repr::W128(e) => e.n_states,
            Repr::Dfa(n) => n.n_states,
            Repr::Interp(_) => 0,
            Repr::Bank(bins) => bins.iter().map(HostProgram::state_count).sum(),
        }
    }

    /// Byte classes the engine distinguishes, the most of any bin for a
    /// bank (0 for the interpreter fallback).
    pub fn byte_class_count(&self) -> usize {
        match &self.repr {
            Repr::W64(e) => e.classes.count,
            Repr::W128(e) => e.classes.count,
            Repr::Dfa(n) => n.classes.count,
            Repr::Interp(_) => 0,
            Repr::Bank(bins) => bins.iter().map(HostProgram::byte_class_count).max().unwrap_or(0),
        }
    }

    /// The extracted literal-prefilter stop bytes (the candidate bytes a
    /// scan must inspect), when a prefilter was derived — for a bank,
    /// the union over its bins when every bin has one.
    pub fn prefilter_stop_bytes(&self) -> Option<Vec<u8>> {
        match &self.repr {
            Repr::W64(e) => e.prefilter.as_ref().map(|p| p.stop_bytes()),
            Repr::W128(e) => e.prefilter.as_ref().map(|p| p.stop_bytes()),
            Repr::Dfa(_) | Repr::Interp(_) => None,
            Repr::Bank(bins) => {
                let mut stops = Vec::new();
                for bin in bins {
                    stops.extend(bin.prefilter_stop_bytes()?);
                }
                stops.sort_unstable();
                stops.dedup();
                Some(stops)
            }
        }
    }

    /// Execute over `input`, stopping at the first acceptance — the host
    /// analogue of [`cicero_isa::run`].
    pub fn run(&self, input: &[u8]) -> HostOutcome {
        let mut matcher = self.matcher();
        match matcher.feed(input) {
            Some(outcome) => outcome,
            None => matcher.finish(),
        }
    }

    /// Execute over `input`, collecting every distinct identifier — the
    /// host analogue of [`cicero_isa::run_all`].
    pub fn run_all(&self, input: &[u8]) -> HostAllOutcome {
        match &self.repr {
            Repr::W64(e) => e.run_all(input),
            Repr::W128(e) => e.run_all(input),
            Repr::Dfa(n) => dfa::run_all(n, input),
            Repr::Bank(bins) => {
                // Each identifier lives in exactly one bin, so the id
                // sets are disjoint.
                let mut out = HostAllOutcome {
                    accepted: false,
                    matched_ids: Vec::new(),
                    first_match_position: None,
                };
                for bin in bins {
                    let all = bin.run_all(input);
                    out.accepted |= all.accepted;
                    out.matched_ids.extend(all.matched_ids);
                    out.first_match_position =
                        out.first_match_position.into_iter().chain(all.first_match_position).min();
                }
                out.matched_ids.sort_unstable();
                out
            }
            Repr::Interp(p) => {
                let out = cicero_isa::run_all(p, input);
                HostAllOutcome {
                    accepted: out.accepted,
                    matched_ids: out.matched_ids,
                    first_match_position: out.first_match_position,
                }
            }
        }
    }

    /// [`HostProgram::run`] under a byte budget: at most `max_bytes`
    /// input bytes are examined (the host analogue of the simulator's
    /// fuel). When the budget trips before the run concludes, the
    /// outcome is the non-accepting partial state.
    pub fn run_budgeted(&self, input: &[u8], max_bytes: Option<u64>) -> HostRun {
        let cap = max_bytes
            .map(|m| usize::try_from(m).unwrap_or(usize::MAX).min(input.len()))
            .unwrap_or(input.len());
        let mut matcher = self.matcher();
        if let Some(outcome) = matcher.feed(&input[..cap]) {
            return HostRun { outcome, scanned: matcher.position() as u64, hit_byte_limit: false };
        }
        if cap < input.len() {
            return HostRun {
                outcome: HostOutcome { accepted: false, match_position: None, matched_id: None },
                scanned: matcher.position() as u64,
                hit_byte_limit: true,
            };
        }
        let outcome = matcher.finish();
        HostRun { outcome, scanned: matcher.position() as u64, hit_byte_limit: false }
    }

    /// Start a resumable match at position 0.
    pub fn matcher(&self) -> HostMatcher<'_> {
        let inner = match &self.repr {
            Repr::W64(e) => MatcherRepr::W64 { engine: e, matcher: BitMatcher::new(e) },
            Repr::W128(e) => MatcherRepr::W128 { engine: e, matcher: BitMatcher::new(e) },
            Repr::Dfa(n) => MatcherRepr::Dfa(dfa::DfaMatcher::new(n)),
            Repr::Interp(p) => MatcherRepr::Interp(cicero_isa::StreamMatcher::new(p)),
            Repr::Bank(bins) => MatcherRepr::Bank(bins.iter().map(HostProgram::matcher).collect()),
        };
        HostMatcher { inner, position: 0, done: None }
    }
}

/// Result of a budgeted run (see [`HostProgram::run_budgeted`]).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct HostRun {
    /// The (possibly partial) outcome.
    pub outcome: HostOutcome,
    /// Input bytes examined before concluding or running out of budget.
    pub scanned: u64,
    /// Whether the byte budget tripped before the run concluded.
    pub hit_byte_limit: bool,
}

enum MatcherRepr<'p> {
    W64 { engine: &'p BitEngine<u64>, matcher: BitMatcher<u64> },
    W128 { engine: &'p BitEngine<u128>, matcher: BitMatcher<u128> },
    Dfa(dfa::DfaMatcher<'p>),
    Interp(cicero_isa::StreamMatcher<'p>),
    Bank(Vec<HostMatcher<'p>>),
}

/// A resumable host-engine matcher, mirroring the lifecycle contract of
/// [`cicero_isa::StreamMatcher`]: [`feed`](HostMatcher::feed) chunks
/// (each returns the final outcome early if the run concluded
/// mid-chunk), then [`finish`](HostMatcher::finish) for end-of-input
/// semantics. Feeding after conclusion re-reports the outcome; `finish`
/// is idempotent. Results are chunk-split invariant.
pub struct HostMatcher<'p> {
    inner: MatcherRepr<'p>,
    position: usize,
    done: Option<HostOutcome>,
}

impl HostMatcher<'_> {
    /// Consume one chunk. `Some(outcome)` as soon as the run concludes
    /// (acceptance or dead state); `None` means more input is wanted.
    pub fn feed(&mut self, chunk: &[u8]) -> Option<HostOutcome> {
        if self.done.is_some() {
            return self.done;
        }
        let outcome = match &mut self.inner {
            MatcherRepr::W64 { engine, matcher } => matcher.feed(engine, chunk, &mut self.position),
            MatcherRepr::W128 { engine, matcher } => {
                matcher.feed(engine, chunk, &mut self.position)
            }
            MatcherRepr::Dfa(matcher) => matcher.feed(chunk, &mut self.position),
            MatcherRepr::Interp(matcher) => {
                let out = matcher.feed(chunk).map(from_exec);
                self.position = matcher.position();
                out
            }
            MatcherRepr::Bank(bins) => feed_bank(bins, chunk, &mut self.position),
        };
        self.done = outcome;
        outcome
    }

    /// Signal end of input and return the final outcome (idempotent).
    pub fn finish(&mut self) -> HostOutcome {
        if let Some(outcome) = self.done {
            return outcome;
        }
        let outcome = match &mut self.inner {
            MatcherRepr::W64 { engine, matcher } => matcher.finish(engine, self.position),
            MatcherRepr::W128 { engine, matcher } => matcher.finish(engine, self.position),
            MatcherRepr::Dfa(matcher) => matcher.finish(self.position),
            MatcherRepr::Interp(matcher) => from_exec(matcher.finish()),
            MatcherRepr::Bank(bins) => bins
                .iter_mut()
                .filter(|bin| !bin.is_done())
                .map(HostMatcher::finish)
                .filter(|outcome| outcome.accepted)
                .min_by_key(|outcome| outcome.matched_id)
                .unwrap_or(HostOutcome { accepted: false, match_position: None, matched_id: None }),
        };
        self.done = Some(outcome);
        outcome
    }

    /// Absolute input position of the live state (bytes consumed; at
    /// conclusion by acceptance, the match position).
    pub fn position(&self) -> usize {
        match &self.inner {
            MatcherRepr::Interp(matcher) => matcher.position(),
            _ => self.position,
        }
    }

    /// Whether the run has concluded.
    pub fn is_done(&self) -> bool {
        self.done.is_some()
    }
}

/// Feed `chunk` to every live bin of a bank. The earliest acceptance
/// wins, ties going to the first identifier in resolution order (the
/// unidentified arm, then the lowest id); once one bin has accepted, the
/// rest only need the chunk up to and including that position. The bank
/// is dead when every bin is, at the position of the last to die.
fn feed_bank(
    bins: &mut [HostMatcher<'_>],
    chunk: &[u8],
    position: &mut usize,
) -> Option<HostOutcome> {
    let start = *position;
    let mut best: Option<HostOutcome> = None;
    let mut live = false;
    for bin in bins.iter_mut().filter(|bin| !bin.is_done()) {
        let end = best.and_then(|b| b.match_position).map_or(chunk.len(), |at| at - start + 1);
        match bin.feed(&chunk[..end]) {
            Some(outcome) if outcome.accepted => {
                let key = |o: HostOutcome| (o.match_position, o.matched_id);
                if best.is_none_or(|b| key(outcome) < key(b)) {
                    best = Some(outcome);
                }
            }
            Some(_) => {}
            None => live = true,
        }
    }
    if let Some(outcome) = best {
        *position = outcome.match_position.expect("an acceptance has a position");
        return Some(outcome);
    }
    if live {
        *position = start + chunk.len();
        return None;
    }
    *position = bins.iter().map(HostMatcher::position).max().unwrap_or(start);
    Some(HostOutcome { accepted: false, match_position: None, matched_id: None })
}

fn from_exec(out: cicero_isa::ExecOutcome) -> HostOutcome {
    HostOutcome {
        accepted: out.accepted,
        match_position: out.match_position,
        matched_id: out.matched_id,
    }
}

/// Execute `program` over `chunks` as one concatenated input —
/// equivalent to `program.run(concat(chunks))` for every split.
pub fn run_chunked<'a, I>(program: &HostProgram, chunks: I) -> HostOutcome
where
    I: IntoIterator<Item = &'a [u8]>,
{
    let mut matcher = program.matcher();
    for chunk in chunks {
        if let Some(outcome) = matcher.feed(chunk) {
            return outcome;
        }
    }
    matcher.finish()
}

#[cfg(test)]
mod tests {
    use super::*;
    use cicero_isa::Instruction::*;
    use cicero_isa::{run, run_all, Instruction};

    fn program(instructions: Vec<Instruction>) -> Program {
        Program::from_instructions(instructions).unwrap()
    }

    /// Assert host/interpreter agreement on verdict, match end, and the
    /// `run_all` view, on every deterministic split of the input.
    fn assert_agrees(p: &Program, input: &[u8]) {
        let host = HostProgram::compile(p);
        let reference = run(p, input);
        let got = host.run(input);
        assert_eq!(got.accepted, reference.accepted, "verdict on {input:?}");
        assert_eq!(got.match_position, reference.match_position, "match end on {input:?}");
        let reference_all = run_all(p, input);
        let got_all = host.run_all(input);
        assert_eq!(got_all.accepted, reference_all.accepted, "all-verdict on {input:?}");
        assert_eq!(got_all.matched_ids, reference_all.matched_ids, "id set on {input:?}");
        assert_eq!(
            got_all.first_match_position, reference_all.first_match_position,
            "first end on {input:?}"
        );
        // Chunk-split invariance: 1-byte chunks and a middle split.
        let streamed = run_chunked(&host, input.chunks(1));
        assert_eq!(streamed, got, "1-byte chunks on {input:?}");
        let mid = input.len() / 2;
        let streamed = run_chunked(&host, [&input[..mid], &input[mid..]]);
        assert_eq!(streamed, got, "middle split on {input:?}");
    }

    fn scan_loop(body: Vec<Instruction>) -> Vec<Instruction> {
        // Standard unanchored prefix: Split(3); MatchAny; Jump(0); body...
        let mut instructions = vec![Split(3), MatchAny, Jump(0)];
        instructions.extend(body);
        instructions
    }

    fn inputs() -> Vec<Vec<u8>> {
        vec![
            b"".to_vec(),
            b"a".to_vec(),
            b"b".to_vec(),
            b"ab".to_vec(),
            b"ba".to_vec(),
            b"xxabyy".to_vec(),
            b"xcdab".to_vec(),
            b"zzzzzzzzzzzzzzzzzzzzzz".to_vec(),
            b"aaabbb".to_vec(),
            vec![0x00, 0xff, b'a', b'b'],
            b"the cat in that hat".to_vec(),
        ]
    }

    #[test]
    fn agrees_on_unanchored_alternation() {
        let p = program(scan_loop(vec![
            Split(7),
            Match(b'a'),
            Match(b'b'),
            AcceptPartial,
            Match(b'c'),
            Match(b'd'),
            AcceptPartial,
        ]));
        for input in inputs() {
            assert_agrees(&p, &input);
        }
    }

    #[test]
    fn agrees_on_anchored_literal() {
        let p = program(vec![Match(b'a'), Match(b'b'), Accept]);
        for input in inputs() {
            assert_agrees(&p, &input);
        }
    }

    #[test]
    fn agrees_on_notmatch_chains() {
        // `[^ab]` anchored, accepting anywhere after one non-a non-b byte.
        let p = program(vec![NotMatch(b'a'), NotMatch(b'b'), MatchAny, AcceptPartial]);
        for input in inputs() {
            assert_agrees(&p, &input);
        }
        // NotMatch guarding an EOI Accept can never fire.
        let p = program(vec![Match(b'x'), NotMatch(b'a'), Accept]);
        for input in [b"x".to_vec(), b"xz".to_vec(), b"xa".to_vec(), b"".to_vec()] {
            assert_agrees(&p, &input);
        }
    }

    #[test]
    fn agrees_on_pathological_split_loops() {
        let p = program(vec![Split(2), Jump(0), Match(b'a'), Jump(0), Accept]);
        for input in inputs() {
            assert_agrees(&p, &input);
        }
    }

    #[test]
    fn agrees_on_multi_match_sets() {
        let p = program(scan_loop(vec![
            Split(6),
            Match(b'a'),
            AcceptPartialId(7),
            Match(b'b'),
            AcceptPartialId(9),
        ]));
        for input in inputs() {
            assert_agrees(&p, &input);
        }
    }

    #[test]
    fn agrees_on_compiled_patterns() {
        let patterns = [
            "ab|cd",
            "a",
            "(a|b)*c",
            "th(is|at|ose)",
            "[^ab]c",
            "a{2,4}b?",
            "x(a?|a*)y",
            "(GET|POST) /[a-z]*",
            "\u{0}|a",
        ];
        for pattern in patterns {
            let p = cicero_core::compile(pattern).unwrap().into_program();
            for input in inputs() {
                assert_agrees(&p, &input);
            }
        }
    }

    #[test]
    fn agrees_on_compiled_sets() {
        let set =
            cicero_core::Compiler::new().compile_set(&["abcd", "abce", "abcf", "zz"]).unwrap();
        let host = HostProgram::compile(set.program());
        for input in [
            b"xx abcd yy abce".to_vec(),
            b"abcf".to_vec(),
            b"zzz".to_vec(),
            b"abc".to_vec(),
            b"".to_vec(),
        ] {
            let reference = run_all(set.program(), &input);
            let got = host.run_all(&input);
            assert_eq!(got.matched_ids, reference.matched_ids, "{input:?}");
            assert_eq!(got.accepted, reference.accepted, "{input:?}");
        }
    }

    #[test]
    fn factoring_keeps_shared_prefix_sets_small() {
        let set = cicero_core::Compiler::new().compile_set(&["abcd", "abce", "abcf"]).unwrap();
        let host = HostProgram::compile(set.program());
        assert!(matches!(host.engine_kind(), EngineKind::Bit64 | EngineKind::Bit128));
        // The shared `abc` spine must fold: well under 3x the single
        // pattern's states.
        let single = HostProgram::compile(&cicero_core::compile("abcd").unwrap().into_program());
        assert!(
            host.state_count() < 2 * single.state_count() + 6,
            "host {} vs single {}",
            host.state_count(),
            single.state_count()
        );
    }

    #[test]
    fn prefilter_extracts_literal_stop_bytes() {
        let p = cicero_core::compile("th(is|at)").unwrap().into_program();
        let host = HostProgram::compile(&p);
        let stops = host.prefilter_stop_bytes().expect("literal-led pattern has a prefilter");
        assert!(stops.contains(&b't'), "stop bytes {stops:?}");
        assert!(stops.len() <= 3, "stop bytes {stops:?}");
        // And it is exact: a long non-candidate haystack still matches
        // correctly at the end.
        let mut input = vec![b'x'; 10_000];
        input.extend_from_slice(b"that");
        let out = host.run(&input);
        assert_eq!(out, from_exec(run(&p, &input)));
    }

    #[test]
    fn dot_heavy_patterns_defeat_the_prefilter_but_stay_correct() {
        // `..` reaches acceptance pressure on every byte: no state both
        // self-loops and stays silent, so no skip set can be derived.
        let p = cicero_core::compile("..").unwrap().into_program();
        let host = HostProgram::compile(&p);
        assert!(host.prefilter_stop_bytes().is_none(), "`.`-heavy pattern has no skip set");
        for input in inputs() {
            assert_agrees(&p, &input);
        }
        // `.a.` by contrast *does* yield a prefilter — the steady state
        // self-loops on every non-`a` byte — and it must stay exact.
        let p = cicero_core::compile(".a.").unwrap().into_program();
        let host = HostProgram::compile(&p);
        assert_eq!(host.prefilter_stop_bytes(), Some(vec![b'a']));
        for input in inputs() {
            assert_agrees(&p, &input);
        }
    }

    #[test]
    fn wide_pattern_selects_u128_engine() {
        // > 64 consuming positions, unanchored: needs the u128 mask.
        let pattern = "a".repeat(70);
        let p = cicero_core::compile(&pattern).unwrap().into_program();
        let host = HostProgram::compile(&p);
        assert_eq!(host.engine_kind(), EngineKind::Bit128, "{} states", host.state_count());
        let mut input = vec![b'x'; 50];
        input.extend(vec![b'a'; 80]);
        assert_agrees(&p, &input);
    }

    #[test]
    fn tier_thresholds_steer_engine_selection_without_changing_results() {
        // A ~4-state pattern lands on Bit64 by default; lowering the
        // bit64 ceiling pushes it to Bit128, lowering both pushes it to
        // the lazy DFA — same answers everywhere.
        let p = cicero_core::compile("ab+c").unwrap().into_program();
        let default = HostProgram::compile(&p);
        assert_eq!(default.engine_kind(), EngineKind::Bit64);
        let w128 = HostProgram::compile_with_tiers(&p, HostTiers { bit64_max: 0, bit128_max: 128 });
        assert_eq!(w128.engine_kind(), EngineKind::Bit128);
        let dfa = HostProgram::compile_with_tiers(&p, HostTiers { bit64_max: 0, bit128_max: 0 });
        assert_eq!(dfa.engine_kind(), EngineKind::LazyDfa);
        for input in inputs() {
            let expected = from_exec(run(&p, &input));
            assert_eq!(default.run(&input), expected, "{input:?}");
            assert_eq!(w128.run(&input), expected, "{input:?}");
            assert_eq!(dfa.run(&input), expected, "{input:?}");
        }
    }

    #[test]
    fn tier_thresholds_clamp_to_hard_capacity() {
        // Requesting more than the mask width is clamped, not honored:
        // a 70-state automaton cannot ride a u64 mask.
        let pattern = "a".repeat(70);
        let p = cicero_core::compile(&pattern).unwrap().into_program();
        let host =
            HostProgram::compile_with_tiers(&p, HostTiers { bit64_max: 999, bit128_max: 999 });
        assert_eq!(host.engine_kind(), EngineKind::Bit128, "{} states", host.state_count());
        // And an inverted pair (bit128 < bit64) is reordered.
        let tiers = HostTiers { bit64_max: 64, bit128_max: 0 }.clamped();
        assert_eq!(tiers, HostTiers { bit64_max: 64, bit128_max: 64 });
    }

    #[test]
    fn huge_pattern_selects_lazy_dfa() {
        let pattern = "a".repeat(140);
        let p = cicero_core::compile(&pattern).unwrap().into_program();
        let host = HostProgram::compile(&p);
        assert_eq!(host.engine_kind(), EngineKind::LazyDfa, "{} states", host.state_count());
        let mut input = vec![b'b'; 30];
        input.extend(vec![b'a'; 200]);
        assert_agrees(&p, &input);
    }

    #[test]
    fn lazy_dfa_survives_memo_churn() {
        // Alternation over many literals forces distinct subset states.
        let branches: Vec<String> =
            (0..40).map(|i| format!("x{:02}{}", i, "y".repeat(4))).collect();
        let pattern = branches.join("|");
        let p = cicero_core::compile(&pattern).unwrap().into_program();
        let host = HostProgram::compile(&p);
        let input: Vec<u8> = (0..5000u32).map(|i| (i % 251) as u8).collect();
        assert_agrees(&p, &input);
        let _ = host; // engine kind is whatever the state count dictates
    }

    /// The bank and the monolithic lazy DFA, both built from one lowering
    /// of `p`.
    fn bank_and_dfa(p: &Program, tiers: HostTiers) -> (HostProgram, HostProgram) {
        let lowered = nfa::lower(p).expect("lowering within budget");
        let bins = bank::build(&lowered, tiers.clamped()).expect("the set splits into bins");
        let mut factored = lowered;
        nfa::factor(&mut factored);
        let dfa = HostProgram { repr: Repr::Dfa(dfa::SparseNfa::build(&factored)) };
        (HostProgram { repr: Repr::Bank(bins) }, dfa)
    }

    /// Every outcome and `position()` of one streamed run, chunk by chunk,
    /// then at `finish`.
    fn streamed<'a>(
        host: &HostProgram,
        chunks: impl IntoIterator<Item = &'a [u8]>,
    ) -> Vec<(Option<HostOutcome>, usize)> {
        let mut matcher = host.matcher();
        let mut seen: Vec<_> =
            chunks.into_iter().map(|chunk| (matcher.feed(chunk), matcher.position())).collect();
        seen.push((Some(matcher.finish()), matcher.position()));
        seen
    }

    /// Assert the bank is observably the lazy DFA on `input`: outcome,
    /// `run_all`, `position()` on every two-chunk split and on 1-byte
    /// chunks, and `run_budgeted` under every byte budget. Verdicts and
    /// id sets are also held to the interpreter.
    fn assert_bank_agrees(bank: &HostProgram, dfa: &HostProgram, p: &Program, input: &[u8]) {
        let out = bank.run(input);
        assert_eq!(out, dfa.run(input), "run on {input:?}");
        let reference = run(p, input);
        assert_eq!(out.accepted, reference.accepted, "verdict on {input:?}");
        assert_eq!(out.match_position, reference.match_position, "match end on {input:?}");
        let all = bank.run_all(input);
        assert_eq!(all, dfa.run_all(input), "run_all on {input:?}");
        assert_eq!(all.matched_ids, run_all(p, input).matched_ids, "id set on {input:?}");
        for split in 0..=input.len() {
            let halves = [&input[..split], &input[split..]];
            assert_eq!(streamed(bank, halves), streamed(dfa, halves), "split {split} of {input:?}");
        }
        assert_eq!(streamed(bank, input.chunks(1)), streamed(dfa, input.chunks(1)), "{input:?}");
        for budget in 0..=input.len() as u64 + 1 {
            assert_eq!(
                bank.run_budgeted(input, Some(budget)),
                dfa.run_budgeted(input, Some(budget)),
                "budget {budget} on {input:?}"
            );
        }
    }

    /// Tiers narrow enough that the small sets below need several bins.
    const NARROW: HostTiers = HostTiers { bit64_max: 4, bit128_max: 8 };
    const NARROWER: HostTiers = HostTiers { bit64_max: 4, bit128_max: 4 };

    #[test]
    fn bank_breaks_same_position_ties_across_bins_like_the_dfa() {
        // Every member ends on `b`, so "xab" fires all three at once.
        let set = cicero_core::Compiler::new().compile_set(&["xab", "ab", "b", "yb"]).unwrap();
        let p = set.program();
        let (bank, dfa) = bank_and_dfa(p, NARROW);
        assert!(bank.bins() >= 2, "{bank:?}");
        for input in ["xab", "zzxabzz", "ab", "b", "", "bbb", "xa", "yxab", "abxab"] {
            assert_bank_agrees(&bank, &dfa, p, input.as_bytes());
        }
        assert_eq!(bank.run(b"xab").matched_id, Some(0));
        // First-fit packs `b` (id 2) beside `qq` in bin 0 and leaves the
        // wide `zzzzzb` (id 1) alone in bin 1: the later bin holds the
        // lower id, and it must still see the tied position.
        let set = cicero_core::Compiler::new().compile_set(&["qq", "zzzzzb", "b"]).unwrap();
        let p = set.program();
        let (bank, dfa) = bank_and_dfa(p, NARROW);
        assert_eq!(bank.bins(), 2, "{bank:?}");
        for input in ["zzzzzbx", "zzzzzb", "qzzzzzbq", "bzzzzzb", "qq"] {
            assert_bank_agrees(&bank, &dfa, p, input.as_bytes());
        }
        assert_eq!(bank.run(b"zzzzzbx").matched_id, Some(1));
    }

    #[test]
    fn bank_puts_the_unidentified_arm_first() {
        // Unanchored: `ab` (unidentified), `b` (id 3), `c` (id 1).
        let p = program(scan_loop(vec![
            Split(7),
            Match(b'a'),
            Match(b'b'),
            AcceptPartial,
            Split(10),
            Match(b'b'),
            AcceptPartialId(3),
            Match(b'c'),
            AcceptPartialId(1),
        ]));
        let (bank, dfa) = bank_and_dfa(&p, NARROWER);
        assert!(bank.bins() >= 2, "{bank:?}");
        for input in ["ab", "xxab", "b", "cb", "bc", "", "aab", "abc"] {
            assert_bank_agrees(&bank, &dfa, &p, input.as_bytes());
        }
        assert_eq!(bank.run(b"ab").matched_id, None);
        assert!(bank.run(b"ab").accepted);
    }

    #[test]
    fn bank_resolves_end_of_input_acceptance() {
        // `^ab$` (unidentified, fires only at end of input) beside an
        // unanchored `b` (id 2) that fires there too.
        let p = program(vec![
            Split(4),
            Match(b'a'),
            Match(b'b'),
            Accept,
            Split(7),
            MatchAny,
            Jump(4),
            Match(b'b'),
            AcceptPartialId(2),
        ]);
        let (bank, dfa) = bank_and_dfa(&p, NARROWER);
        assert!(bank.bins() >= 2, "{bank:?}");
        for input in ["ab", "abc", "xab", "a", "", "b", "abb"] {
            assert_bank_agrees(&bank, &dfa, &p, input.as_bytes());
        }
        let out = bank.run(b"ab");
        assert_eq!((out.match_position, out.matched_id), (Some(2), None));
    }

    #[test]
    fn bank_dies_with_its_last_bin() {
        // Anchored members that die at different offsets, plus `az*`, a
        // path that reaches no arm and keeps the run alive on its own.
        let p = program(vec![
            Split(5),
            Match(b'a'),
            Match(b'b'),
            Match(b'c'),
            AcceptPartialId(0),
            Split(9),
            Match(b'a'),
            Match(b'x'),
            AcceptPartialId(1),
            Split(14),
            Match(b'a'),
            Match(b'b'),
            Match(b'd'),
            AcceptPartialId(2),
            Match(b'a'),
            Match(b'z'),
            Jump(15),
        ]);
        let (bank, dfa) = bank_and_dfa(&p, NARROW);
        assert!(bank.bins() >= 2, "{bank:?}");
        for input in ["abcq", "axq", "abdq", "azzzzq", "azzz", "q", "", "a", "ab", "abz", "abdz"] {
            assert_bank_agrees(&bank, &dfa, &p, input.as_bytes());
        }
        let mut matcher = bank.matcher();
        let dead = HostOutcome { accepted: false, match_position: None, matched_id: None };
        assert_eq!(matcher.feed(b"azzzzq"), Some(dead));
        assert_eq!(matcher.position(), 5, "dead where `az*` dies, not where the members do");
    }

    #[test]
    fn suite_sets_select_the_bank_and_agree_with_the_interpreter() {
        for suite in [
            workloads::Benchmark::protomata(0xC1CE_2025, 16, 4),
            workloads::Benchmark::brill(0xC1CE_2025, 16, 4),
        ] {
            let set = cicero_core::Compiler::new().compile_set(&suite.patterns).unwrap();
            let p = set.program();
            let host = HostProgram::compile(p);
            assert!(host.bins() > 1, "{}: {host:?}", suite.name);
            assert_ne!(host.engine_kind(), EngineKind::LazyDfa, "{}", suite.name);
            let (bank, dfa) = bank_and_dfa(p, HostTiers::default());
            for chunk in &suite.chunks {
                let out = host.run(chunk);
                let reference = run(p, chunk);
                assert_eq!(out.accepted, reference.accepted, "{}", suite.name);
                assert_eq!(out.match_position, reference.match_position, "{}", suite.name);
                assert_eq!(out, dfa.run(chunk), "{}", suite.name);
                assert_eq!(host.run_all(chunk).matched_ids, run_all(p, chunk).matched_ids);
                assert_eq!(bank.run_all(chunk), dfa.run_all(chunk), "{}", suite.name);
                let mid = chunk.len() / 3;
                let thirds = [&chunk[..mid], &chunk[mid..2 * mid], &chunk[2 * mid..]];
                assert_eq!(streamed(&bank, thirds), streamed(&dfa, thirds), "{}", suite.name);
            }
        }
    }

    #[test]
    fn single_identifier_programs_never_take_the_bank() {
        // One wide pattern has one accept identifier: nothing to split.
        let p = cicero_core::compile("(ab|cd|ef){1,40}x").unwrap().into_program();
        assert!(bank::build(&nfa::lower(&p).unwrap(), HostTiers::default()).is_none());
        assert_eq!(HostProgram::compile(&p).engine_kind(), EngineKind::LazyDfa);
    }

    #[test]
    fn budgeted_runs_trip_on_bytes() {
        let p = cicero_core::compile("zz").unwrap().into_program();
        let host = HostProgram::compile(&p);
        let input = vec![b'x'; 100];
        let run = host.run_budgeted(&input, Some(10));
        assert!(run.hit_byte_limit);
        assert!(!run.outcome.accepted);
        assert!(run.scanned <= 10);
        let run = host.run_budgeted(&input, Some(1000));
        assert!(!run.hit_byte_limit);
        assert_eq!(run.scanned, 100);
        // A match inside the budget concludes normally.
        let run = host.run_budgeted(b"zz----------", Some(5));
        assert!(run.outcome.accepted && !run.hit_byte_limit);
    }

    #[test]
    fn matcher_relifecycle_matches_stream_matcher() {
        let p = program(scan_loop(vec![Match(b'a'), Match(b'b'), AcceptPartial]));
        let host = HostProgram::compile(&p);
        let mut matcher = host.matcher();
        assert_eq!(matcher.feed(b""), None);
        assert_eq!(matcher.feed(b"xxa"), None);
        assert!(!matcher.is_done());
        let out = matcher.feed(b"bzz").expect("accepts inside the chunk");
        assert!(out.accepted);
        assert_eq!(out.match_position, Some(4));
        // Feeding after conclusion re-reports; finish is idempotent.
        assert_eq!(matcher.feed(b"more"), Some(out));
        assert_eq!(matcher.finish(), out);
        assert_eq!(matcher.finish(), out);
    }

    #[test]
    fn empty_program_edge_cases() {
        // `ab|` — matches everything, including the empty input.
        let p = cicero_core::compile("ab|").unwrap().into_program();
        for input in inputs() {
            assert_agrees(&p, &input);
        }
    }

    #[test]
    fn randomized_agreement_on_byte_soup() {
        use rand::{RngExt, SeedableRng};
        let mut rng = rand::rngs::StdRng::seed_from_u64(0xC1CE_2025);
        let patterns = ["ab|cd", "[^x]*q", "a{3}b{2}", "(ab)*c", "th(e|at)", "^start", "end$"];
        for pattern in patterns {
            let p = cicero_core::compile(pattern).unwrap().into_program();
            let host = HostProgram::compile(&p);
            for _ in 0..50 {
                let len = rng.random_range(0..200);
                let input: Vec<u8> = (0..len)
                    .map(|_| {
                        let alphabet = b"abcdextq ";
                        alphabet[rng.random_range(0..alphabet.len())]
                    })
                    .collect();
                let reference = run(&p, &input);
                let got = host.run(&input);
                assert_eq!(got.accepted, reference.accepted, "{pattern} on {input:?}");
                assert_eq!(got.match_position, reference.match_position, "{pattern} on {input:?}");
            }
        }
    }
}
