//! Replays the committed differential-fuzzing regression corpus
//! (`crates/difftest/corpus/*.toml`) through the full equivalence matrix
//! as a normal `cargo test`.
//!
//! Every minimized divergence the fuzzer ever finds is committed here, so
//! a fixed bug stays fixed. Triage workflow: see TESTING.md.

use cicero::difftest;

#[test]
fn every_corpus_case_passes_the_full_matrix() {
    let dir = difftest::default_corpus_dir();
    let replayed = difftest::replay_corpus(&dir).expect("corpus loads");
    assert!(!replayed.is_empty(), "the committed corpus at {} must not be empty", dir.display());
    for (case, outcome) in &replayed {
        assert_eq!(
            *outcome,
            difftest::Outcome::Pass,
            "corpus case `{}` (pattern {:?}, {}): {outcome:?}",
            case.name,
            case.pattern,
            case.note
        );
    }
}

/// The corpus carries the proptest regression seed (satellite of the
/// differential-fuzzing issue): the stored shrink from
/// `tests/proptest_properties.proptest-regressions` must be present.
#[test]
fn the_proptest_regression_seed_is_committed() {
    let replayed = difftest::replay_corpus(&difftest::default_corpus_dir()).expect("corpus loads");
    assert!(
        replayed.iter().any(|(case, _)| case.pattern == "x(a?|a*)y"),
        "missing the proptest-regressions seed x(a?|a*)y"
    );
}

/// Corpus files are exactly reproducible through the TOML writer: loading
/// and re-rendering is the identity on the key/value content, so `--save`
/// output and hand-written files stay interchangeable.
#[test]
fn corpus_files_roundtrip_through_the_writer() {
    for (case, _) in replay_all() {
        let rendered = case.to_toml();
        let reparsed = difftest::CorpusCase::from_toml(&case.name, &rendered).unwrap();
        assert_eq!(reparsed, case);
    }
}

fn replay_all() -> Vec<(difftest::CorpusCase, difftest::Outcome)> {
    difftest::replay_corpus(&difftest::default_corpus_dir()).expect("corpus loads")
}

/// The registry-axis satellite cases must stay committed: at least two
/// `kind = "registry"` sets, one of them multi-member (a newline-joined
/// `pattern`), each actually round-tripped (Pass, not Skip — a set the
/// compiler rejects would silently stop guarding the persist format).
#[test]
fn the_registry_corpus_cases_round_trip_the_persist_format() {
    let replayed = replay_all();
    let registry: Vec<_> = replayed.iter().filter(|(case, _)| case.kind == "registry").collect();
    assert!(registry.len() >= 2, "expected >= 2 registry corpus cases, found {}", registry.len());
    assert!(
        registry.iter().any(|(case, _)| case.pattern.contains('\n')),
        "no committed registry case exercises a multi-member set"
    );
    for (case, outcome) in registry {
        assert_eq!(*outcome, difftest::Outcome::Pass, "registry case `{}`: {outcome:?}", case.name);
    }
}

/// The host-backend satellite cases must stay committed, and they must
/// actually select the engine tiers they claim to pin: an empty
/// alternative, a prefilter-defeating dot pattern, a u128-tier NFA, a
/// lazy-DFA blowup, a shared-prefix set, and a registry set wide enough
/// to split into a bank of bit-parallel bins.
#[test]
fn the_host_backend_corpus_cases_cover_every_engine_tier() {
    use cicero::hostexec::{EngineKind, HostProgram};
    let replayed = replay_all();
    let tier = |pattern: &str| {
        let program = cicero::compiler::compile(pattern).unwrap().into_program();
        HostProgram::compile(&program).engine_kind()
    };
    for (pattern, want) in [
        ("c(a|)t", EngineKind::Bit64),
        ("....", EngineKind::Bit64),
        ("a{70}b", EngineKind::Bit128),
        ("(ab|cd|ef){1,40}x", EngineKind::LazyDfa),
        ("abcd|abce|abcf", EngineKind::Bit64),
    ] {
        assert!(
            replayed.iter().any(|(case, _)| case.pattern == pattern),
            "missing the host corpus case for {pattern:?}"
        );
        assert_eq!(tier(pattern), want, "{pattern:?} no longer selects {want:?}");
    }
    // A newline-joined set past 128 states runs on a bank of bins, not
    // on the lazy DFA that one wide pattern still selects.
    let bank_set = replayed
        .iter()
        .find(|(case, _)| case.name == "registry-host-bank-set")
        .map(|(case, _)| difftest::split_set(&case.pattern))
        .expect("missing the host bank corpus case");
    let set = cicero::compiler::Compiler::new().compile_set(&bank_set).unwrap();
    let host = HostProgram::compile(set.program());
    assert!(host.bins() > 1, "the bank corpus set no longer splits: {host:?}");
    assert_ne!(host.engine_kind(), EngineKind::LazyDfa, "{host:?}");
    // The dot-heavy case must really defeat the prefilter.
    let dots = cicero::compiler::compile("....").unwrap().into_program();
    assert_eq!(HostProgram::compile(&dots).prefilter_stop_bytes(), None);
}
