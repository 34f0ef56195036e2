//! Seeded request generation and reference answers.
//!
//! Every input comes from the `workloads` suite generators driven by the
//! run's seed; the program under test only ever sees the rendered bytes.
//! Reference answers come from `regex-oracle`, which shares no code with
//! the compilers, and are computed once per distinct input before any
//! timing starts.

use std::collections::BTreeMap;

use rand::rngs::StdRng;
use rand::{RngExt, SeedableRng};
use regex_oracle::Oracle;
use workloads::{Benchmark, CHUNK_BYTES};

use crate::client::{
    all_u64, field_bool, field_str, field_u64, json_input, json_strings, render, Reply,
};

/// Patterns per preinstalled suite ruleset.
pub const SET_PATTERNS: usize = 16;

/// The expected answer to one request.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Expect {
    /// `/scan`: per-pattern counts of 500-byte chunks that match.
    Counts(Vec<u64>),
    /// `/scan/stream`: the earliest match end over the whole set, if any.
    Stream { first_end: Option<usize>, len: usize },
    /// `PUT /rulesets/{id}`: installed (`201`) or swapped (`200`).
    Put,
}

/// One request and its reference answer.
#[derive(Debug, Clone)]
pub struct Op {
    /// The full HTTP request.
    pub request: Vec<u8>,
    /// Its reference answer.
    pub expect: Expect,
    /// Input bytes the request asks the engine to scan.
    pub input_bytes: u64,
}

impl Op {
    /// Whether this op writes (a ruleset swap) rather than reads.
    pub fn is_put(&self) -> bool {
        self.expect == Expect::Put
    }
}

/// A workload's traffic: what set-up installs, what warm-up sends, and
/// the op cycle each connection replays.
#[derive(Debug, Clone)]
pub struct Traffic {
    /// `(id, patterns)` rulesets installed by `PUT` during set-up.
    pub rulesets: Vec<(String, Vec<String>)>,
    /// Stateless ops sent once during set-up to fill caches.
    pub warmup: Vec<Op>,
    /// One op cycle per client connection.
    pub conns: Vec<Vec<Op>>,
    /// Every distinct pattern set the workload serves (layer probes).
    pub sets: Vec<Vec<String>>,
    /// A sample of raw inputs, as 500-byte pieces (layer probes).
    pub inputs: Vec<Vec<u8>>,
}

/// Per-connection checking state: the version the last `PUT` on this
/// connection installed for each ruleset, which every later scan of that
/// ruleset on the connection must carry.
#[derive(Debug, Default)]
pub struct Checker {
    versions: BTreeMap<String, String>,
}

impl Checker {
    /// Check `reply` against `op`; on success, the bytes the server says
    /// it scanned (the request's input size for `/scan`).
    pub fn check(&mut self, op: &Op, reply: &Reply) -> Result<u64, String> {
        let text = reply.text();
        match &op.expect {
            Expect::Put => {
                if reply.status != 200 && reply.status != 201 {
                    return Err(format!("PUT answered {}: {text}", reply.status));
                }
                if let (Some(id), Some(version)) =
                    (field_str(text, "id"), reply.header("x-cicero-ruleset-version"))
                {
                    self.versions.insert(id.to_owned(), version.to_owned());
                }
                Ok(0)
            }
            Expect::Counts(expected) => {
                if reply.status != 200 {
                    return Err(format!("scan answered {}: {text}", reply.status));
                }
                let got = all_u64(text, "chunks_matched");
                if &got != expected {
                    return Err(format!("counts {got:?}, oracle says {expected:?}"));
                }
                let want = field_str(text, "ruleset").and_then(|id| self.versions.get(id));
                if let (Some(want), Some(got)) = (want, reply.header("x-cicero-ruleset-version")) {
                    if want != got {
                        return Err(format!("version {got}, last PUT installed {want}"));
                    }
                }
                Ok(op.input_bytes)
            }
            Expect::Stream { first_end, len } => {
                if reply.status != 200 {
                    return Err(format!("stream answered {}: {text}", reply.status));
                }
                let matched = field_bool(text, "matched");
                let position = field_u64(text, "match_position").map(|p| p as usize);
                let scanned = field_u64(text, "bytes_scanned")
                    .ok_or_else(|| format!("no bytes_scanned in {text}"))?;
                let input = field_u64(text, "input_bytes");
                if input != Some(*len as u64) || scanned > *len as u64 {
                    return Err(format!("scanned {scanned} of {input:?}, body is {len}"));
                }
                match first_end {
                    None if matched == Some(false) && scanned == *len as u64 => Ok(scanned),
                    Some(end) if matched == Some(true) && position == Some(*end) => Ok(scanned),
                    _ => Err(format!(
                        "matched {matched:?} at {position:?}, oracle says {first_end:?}"
                    )),
                }
            }
        }
    }
}

/// A generator for one seeded stream of choices.
pub fn rng(seed: u64, tag: u64) -> StdRng {
    StdRng::seed_from_u64(seed ^ tag.wrapping_mul(0x9E37_79B9_7F4A_7C15))
}

/// `matches[c][p]`: whether pattern `p` matches anywhere in `chunks[c]`,
/// computed on two threads.
pub fn chunk_table(patterns: &[String], chunks: &[Vec<u8>]) -> Vec<Vec<bool>> {
    let oracles: Vec<Oracle> =
        patterns.iter().map(|p| Oracle::new(p).expect("suite patterns parse")).collect();
    let half = chunks.len().div_ceil(2);
    std::thread::scope(|scope| {
        let parts: Vec<_> = chunks
            .chunks(half.max(1))
            .map(|part| {
                let oracles = &oracles;
                scope.spawn(move || {
                    part.iter()
                        .map(|c| oracles.iter().map(|o| o.is_match(c)).collect::<Vec<bool>>())
                        .collect::<Vec<_>>()
                })
            })
            .collect();
        parts.into_iter().flat_map(|h| h.join().expect("oracle thread")).collect()
    })
}

/// Per-pattern counts of the chunks at `picks` (one `/scan` answer).
fn counts(table: &[Vec<bool>], picks: &[usize], patterns: usize) -> Vec<u64> {
    (0..patterns).map(|p| picks.iter().filter(|&&c| table[c][p]).count() as u64).collect()
}

/// Concatenate the chunks at `picks`.
fn concat(chunks: &[Vec<u8>], picks: &[usize]) -> Vec<u8> {
    picks.iter().flat_map(|&c| chunks[c].iter().copied()).collect()
}

/// `PUT /rulesets/{id}` installing `patterns`.
pub fn put(id: &str, patterns: &[String]) -> Op {
    let body = format!("{{\"patterns\":{}}}", json_strings(patterns));
    Op {
        request: render("PUT", &format!("/rulesets/{id}"), "application/json", body.as_bytes()),
        expect: Expect::Put,
        input_bytes: 0,
    }
}

fn scan_op(target: &str, input: &[u8], patterns: Option<&[String]>, expect: Vec<u64>) -> Op {
    Op {
        request: render("POST", target, "application/json", &json_input(input, patterns)),
        expect: Expect::Counts(expect),
        input_bytes: input.len() as u64,
    }
}

/// Seed of every pattern set the benchmark installs or sends. It is
/// fixed, like a deployment's rules: the run seed varies the traffic (which
/// requests, their sizes, their bytes), not the service it is sent to.
pub const RULESET_SEED: u64 = 0xC1CE_2025;

/// Share of suite chunks with a witness of a random pattern planted, as
/// in the `workloads` suites.
const PLANT_SHARE: f64 = 0.3;

/// One of the paper's four suites.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum SuiteKind {
    /// Protein signatures over protein text.
    Protomata,
    /// Part-of-speech rules over English-like text.
    Brill,
    /// PROTOMATA signatures alternated four at a time.
    Protomata4,
    /// BRILL rules alternated four at a time.
    Brill4,
}

/// A suite: `patterns` patterns drawn from [`RULESET_SEED`], and `chunks`
/// 500-byte chunks of suite text drawn from `seed`, [`PLANT_SHARE`] of
/// them with a witness of one of those patterns planted.
pub fn suite(kind: SuiteKind, seed: u64, patterns: usize, chunks: usize) -> Benchmark {
    let (mut suite, text): (_, fn(&mut StdRng, usize) -> Vec<u8>) = match kind {
        SuiteKind::Protomata => {
            (Benchmark::protomata(RULESET_SEED, patterns, 0), workloads::protomata::sequence_chunk)
        }
        SuiteKind::Brill => {
            (Benchmark::brill(RULESET_SEED, patterns, 0), workloads::brill::text_chunk)
        }
        SuiteKind::Protomata4 => {
            (Benchmark::protomata4(RULESET_SEED, patterns, 0), workloads::protomata::sequence_chunk)
        }
        SuiteKind::Brill4 => {
            (Benchmark::brill4(RULESET_SEED, patterns, 0), workloads::brill::text_chunk)
        }
    };
    let mut rng = rng(seed, 0x5017 + kind as u64);
    suite.chunks = (0..chunks)
        .map(|_| {
            let mut chunk = text(&mut rng, CHUNK_BYTES);
            if rng.random_bool(PLANT_SHARE) {
                let pattern = &suite.patterns[rng.random_range(0..suite.patterns.len())];
                if let Some(witness) =
                    workloads::witness_for(pattern).filter(|w| w.len() < CHUNK_BYTES)
                {
                    let at = rng.random_range(0..CHUNK_BYTES - witness.len());
                    chunk[at..at + witness.len()].copy_from_slice(&witness);
                }
            }
            chunk
        })
        .collect();
    suite
}

/// The two preinstalled 16-pattern suite rulesets (PROTOMATA, BRILL),
/// each with a chunk pool.
pub fn suite_pair(seed: u64, chunks: usize) -> [Benchmark; 2] {
    [
        suite(SuiteKind::Protomata, seed, SET_PATTERNS, chunks),
        suite(SuiteKind::Brill, seed, SET_PATTERNS, chunks),
    ]
}

/// All four suites, in the paper's order.
pub fn all_suites(seed: u64, patterns: usize, chunks: usize) -> Vec<Benchmark> {
    [SuiteKind::Protomata, SuiteKind::Brill, SuiteKind::Protomata4, SuiteKind::Brill4]
        .into_iter()
        .map(|kind| suite(kind, seed, patterns, chunks))
        .collect()
}

/// `/scan?ruleset=` requests of 1–8 chunks against preinstalled suite
/// rulesets, `per_conn` ops on each of `conns` connections.
pub fn scan_traffic(seed: u64, suites: &[Benchmark], conns: usize, per_conn: usize) -> Traffic {
    let tables: Vec<Vec<Vec<bool>>> =
        suites.iter().map(|s| chunk_table(&s.patterns, &s.chunks)).collect();
    let ids: Vec<String> = suites.iter().map(|s| s.name.to_ascii_lowercase()).collect();
    let mut rng = rng(seed, 0x5CA1);
    let make = |rng: &mut StdRng| {
        let s = rng.random_range(0..suites.len());
        let k = rng.random_range(1..=8usize);
        let picks: Vec<usize> =
            (0..k).map(|_| rng.random_range(0..suites[s].chunks.len())).collect();
        scan_op(
            &format!("/scan?ruleset={}", ids[s]),
            &concat(&suites[s].chunks, &picks),
            None,
            counts(&tables[s], &picks, suites[s].patterns.len()),
        )
    };
    let conns: Vec<Vec<Op>> =
        (0..conns).map(|_| (0..per_conn).map(|_| make(&mut rng)).collect()).collect();
    let warmup = (0..32).map(|_| make(&mut rng)).collect();
    Traffic {
        rulesets: ids.iter().cloned().zip(suites.iter().map(|s| s.patterns.clone())).collect(),
        warmup,
        conns,
        sets: suites.iter().map(|s| s.patterns.clone()).collect(),
        inputs: suites.iter().flat_map(|s| s.chunks.iter().take(32).cloned()).collect(),
    }
}

/// Bodies in the `scan_bulk` pool.
pub const BULK_BODIES: usize = 9;
const BULK_MIN: usize = 256 << 10;
const BULK_MAX: usize = 2 << 20;

/// Protein text in which no pattern of `oracles` matches: 1 KiB blocks,
/// each kept only if it (with the tail of the text so far) is clean. A
/// block that stays dirty after many draws is kept anyway; the oracle's
/// answer for the whole body is the reference either way.
fn clean_text(rng: &mut StdRng, oracles: &[Oracle], len: usize) -> Vec<u8> {
    const BLOCK: usize = 1024;
    const OVERLAP: usize = 256;
    const DRAWS: usize = 64;
    let mut text = Vec::with_capacity(len + BLOCK);
    let mut draws = 0;
    while text.len() < len {
        let block = workloads::protomata::sequence_chunk(rng, BLOCK);
        let mut probe = text[text.len().saturating_sub(OVERLAP)..].to_vec();
        probe.extend_from_slice(&block);
        draws += 1;
        if draws == DRAWS || oracles.iter().all(|o| !o.is_match(&probe)) {
            text.extend_from_slice(&block);
            draws = 0;
        }
    }
    text.truncate(len);
    text
}

/// The `scan_bulk` ruleset: the first [`SET_PATTERNS`] PROTOMATA
/// signatures that do not match 4 KiB of random protein text. Signatures
/// that match nearly anywhere would end every scan within a few bytes;
/// without them, a body scans to its end unless a witness was planted.
pub fn bulk_ruleset() -> Benchmark {
    let mut suite = Benchmark::protomata(RULESET_SEED, 4 * SET_PATTERNS, 0);
    let sample = workloads::protomata::sequence_chunk(&mut rng(RULESET_SEED, 0xB0D1), 4096);
    suite.patterns.retain(|p| !Oracle::new(p).expect("suite patterns parse").is_match(&sample));
    suite.patterns.truncate(SET_PATTERNS);
    suite.name = "PROTEIN";
    suite
}

/// A seeded fraction in `[lo, hi)`.
fn fraction(rng: &mut StdRng, lo: f64, hi: f64) -> f64 {
    lo + (hi - lo) * f64::from(rng.random_range(0..1_000_000u32)) / 1e6
}

/// Raw `/scan/stream?ruleset=protein` bodies of 256 KiB–2 MiB, each of
/// its own protein text no pattern matches. Sizes are a fixed ladder of
/// nine steps of 8^(1/9) over the log range, and the four odd steps carry
/// a witness of a random pattern at a seeded offset near their middle.
/// Halving a body's work equals stepping three rungs down the ladder, so
/// the cycle's fifth-largest request is one of two bodies of equal work
/// whatever the seed, and the median latency does not jump between rungs
/// from run to run. The text, the witness and its offset come from the
/// seed; each body drawing its own text lets a run cover ~7 MiB of it.
pub fn bulk_traffic(seed: u64, suite: &Benchmark) -> Traffic {
    let oracles: Vec<Oracle> =
        suite.patterns.iter().map(|p| Oracle::new(p).expect("suite patterns parse")).collect();
    let ratio = (BULK_MAX as f64 / BULK_MIN as f64).ln();
    let mut lens: Vec<usize> = (0..BULK_BODIES)
        .map(|k| {
            let step = (k as f64 + 0.5) / BULK_BODIES as f64;
            ((BULK_MIN as f64 * (step * ratio).exp()) as usize).clamp(BULK_MIN, BULK_MAX)
        })
        .collect();
    // Warm-up: 256 KiB of clean text, the same work every seed.
    lens.push(BULK_MIN);
    let mut bodies: Vec<Vec<u8>> = std::thread::scope(|scope| {
        let handles: Vec<_> = (0..2)
            .map(|half| {
                let (oracles, lens) = (&oracles, &lens);
                scope.spawn(move || {
                    (half..lens.len())
                        .step_by(2)
                        .map(|k| {
                            (k, clean_text(&mut rng(seed, 0xB01C + k as u64), oracles, lens[k]))
                        })
                        .collect::<Vec<_>>()
                })
            })
            .collect();
        let mut drawn: Vec<(usize, Vec<u8>)> =
            handles.into_iter().flat_map(|h| h.join().expect("text thread")).collect();
        drawn.sort_by_key(|(k, _)| *k);
        drawn.into_iter().map(|(_, text)| text).collect()
    });
    let warm = bodies.pop().expect("the warm-up body");
    let mut rng = rng(seed, 0xB01B);
    for (k, body) in bodies.iter_mut().enumerate().filter(|(k, _)| k % 2 == 1) {
        let pattern = &suite.patterns[rng.random_range(0..suite.patterns.len())];
        if let Some(witness) = workloads::witness_for(pattern) {
            let at = (lens[k] as f64 * fraction(&mut rng, 0.48, 0.52)) as usize;
            body[at..at + witness.len()].copy_from_slice(&witness);
        }
    }
    // A seeded order, so size does not track position in the cycle.
    for i in (1..bodies.len()).rev() {
        bodies.swap(i, rng.random_range(0..=i));
    }
    let inputs = warm.chunks(CHUNK_BYTES).take(64).map(<[u8]>::to_vec).collect();
    bodies.push(warm);
    let first_ends: Vec<Option<usize>> = std::thread::scope(|scope| {
        let handles: Vec<_> = bodies
            .iter()
            .map(|body| {
                let oracles = &oracles;
                scope.spawn(move || oracles.iter().filter_map(|o| o.match_end(body)).min())
            })
            .collect();
        handles.into_iter().map(|h| h.join().expect("oracle thread")).collect()
    });
    let id = suite.name.to_ascii_lowercase();
    let mut ops: Vec<Op> = bodies
        .iter()
        .zip(&first_ends)
        .map(|(body, first_end)| Op {
            request: render(
                "POST",
                &format!("/scan/stream?ruleset={id}"),
                "application/octet-stream",
                body,
            ),
            expect: Expect::Stream { first_end: *first_end, len: body.len() },
            input_bytes: body.len() as u64,
        })
        .collect();
    let warmup = ops.pop().into_iter().collect();
    Traffic {
        rulesets: vec![(id, suite.patterns.clone())],
        warmup,
        conns: vec![ops],
        sets: vec![suite.patterns.clone()],
        inputs,
    }
}

/// Inline pattern sets in the churn pool: more than the runtime's
/// 128-entry program cache holds.
pub const CHURN_SETS: usize = 192;
/// `/scan?ruleset=live` reads between two `PUT /rulesets/live` swaps.
pub const CHURN_READS_PER_PUT: usize = 8;
const CHURN_VERSIONS: usize = 4;

/// Connection A: inline `/scan` requests over a pool of small sets drawn
/// from the suites' patterns. Connection B: `/scan?ruleset=live` reads
/// with a `PUT` of the next version every [`CHURN_READS_PER_PUT`] reads.
pub fn churn_traffic(seed: u64) -> Traffic {
    let suites =
        [suite(SuiteKind::Protomata, seed, 64, 128), suite(SuiteKind::Brill, seed, 64, 128)];
    // The pool of sets is part of the service, like its rulesets: fixed.
    let mut sets_rng = rng(RULESET_SEED, 0xC4A2);
    let pick_set = |rng: &mut StdRng, s: usize, size: usize| -> Vec<usize> {
        let mut chosen: Vec<usize> = Vec::with_capacity(size);
        while chosen.len() < size {
            let p = rng.random_range(0..suites[s].patterns.len());
            if !chosen.contains(&p) {
                chosen.push(p);
            }
        }
        chosen
    };
    let inline: Vec<(usize, Vec<usize>)> = (0..CHURN_SETS)
        .map(|j| {
            let size = sets_rng.random_range(2..=4usize);
            (j % 2, pick_set(&mut sets_rng, j % 2, size))
        })
        .collect();
    let versions: Vec<(usize, Vec<usize>)> =
        (0..CHURN_VERSIONS).map(|v| (v % 2, pick_set(&mut sets_rng, v % 2, 8))).collect();
    let mut rng = rng(seed, 0xC4A3);
    let tables: Vec<Vec<Vec<bool>>> =
        suites.iter().map(|s| chunk_table(&s.patterns, &s.chunks)).collect();
    let patterns_of = |s: usize, set: &[usize]| -> Vec<String> {
        set.iter().map(|&p| suites[s].patterns[p].clone()).collect()
    };
    let set_counts = |s: usize, set: &[usize], picks: &[usize]| -> Vec<u64> {
        set.iter().map(|&p| picks.iter().filter(|&&c| tables[s][c][p]).count() as u64).collect()
    };
    let inline_op = |rng: &mut StdRng| {
        let (s, set) = &inline[rng.random_range(0..inline.len())];
        let k = rng.random_range(1..=4usize);
        let picks: Vec<usize> =
            (0..k).map(|_| rng.random_range(0..suites[*s].chunks.len())).collect();
        scan_op(
            "/scan",
            &concat(&suites[*s].chunks, &picks),
            Some(&patterns_of(*s, set)),
            set_counts(*s, set, &picks),
        )
    };
    let conn_a: Vec<Op> = (0..1024).map(|_| inline_op(&mut rng)).collect();
    let warmup: Vec<Op> = (0..64).map(|_| inline_op(&mut rng)).collect();
    let mut conn_b = Vec::new();
    for round in 0..8 * CHURN_VERSIONS {
        let (s, set) = &versions[round % CHURN_VERSIONS];
        conn_b.push(put("live", &patterns_of(*s, set)));
        for _ in 0..CHURN_READS_PER_PUT {
            let k = rng.random_range(1..=4usize);
            let picks: Vec<usize> =
                (0..k).map(|_| rng.random_range(0..suites[*s].chunks.len())).collect();
            conn_b.push(scan_op(
                "/scan?ruleset=live",
                &concat(&suites[*s].chunks, &picks),
                None,
                set_counts(*s, set, &picks),
            ));
        }
    }
    let mut sets: Vec<Vec<String>> = versions.iter().map(|(s, set)| patterns_of(*s, set)).collect();
    sets.extend(inline.iter().take(32).map(|(s, set)| patterns_of(*s, set)));
    Traffic {
        rulesets: vec![("live".to_owned(), patterns_of(versions[0].0, &versions[0].1))],
        warmup,
        conns: vec![conn_a, conn_b],
        sets,
        inputs: suites.iter().flat_map(|s| s.chunks.iter().take(32).cloned()).collect(),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::client::take_reply;

    fn bytes(traffic: &Traffic) -> Vec<Vec<u8>> {
        traffic
            .conns
            .iter()
            .flatten()
            .chain(&traffic.warmup)
            .map(|op| op.request.clone())
            .chain(traffic.inputs.iter().cloned())
            .collect()
    }

    #[test]
    fn same_seed_same_bytes() {
        let suites = suite_pair(7, 64);
        assert_eq!(
            bytes(&scan_traffic(7, &suites, 2, 64)),
            bytes(&scan_traffic(7, &suite_pair(7, 64), 2, 64))
        );
        assert_ne!(
            bytes(&scan_traffic(7, &suites, 2, 64)),
            bytes(&scan_traffic(8, &suites, 2, 64))
        );
        assert_eq!(bytes(&churn_traffic(7)), bytes(&churn_traffic(7)));
        assert_ne!(bytes(&churn_traffic(7)), bytes(&churn_traffic(8)));
    }

    #[test]
    fn bulk_bodies_are_seeded_and_sized() {
        let suite = bulk_ruleset();
        assert_eq!(suite.patterns.len(), SET_PATTERNS);
        let a = bulk_traffic(3, &suite);
        assert_eq!(bytes(&a), bytes(&bulk_traffic(3, &suite)));
        for op in &a.conns[0] {
            assert!((BULK_MIN as u64..=BULK_MAX as u64).contains(&op.input_bytes));
        }
    }

    fn reply(status: u16, body: &str) -> Reply {
        let mut raw =
            format!("HTTP/1.1 {status} X\r\ncontent-length: {}\r\n\r\n{body}", body.len())
                .into_bytes();
        take_reply(&mut raw).unwrap()
    }

    #[test]
    fn a_corrupted_expected_answer_is_a_failure() {
        let op = scan_op("/scan?ruleset=x", b"abc", None, vec![1, 0]);
        let answer = reply(200, r#"{"per_pattern":[{"chunks_matched":1},{"chunks_matched":0}]}"#);
        assert_eq!(Checker::default().check(&op, &answer), Ok(3));
        let mut corrupted = op.clone();
        corrupted.expect = Expect::Counts(vec![1, 1]);
        assert!(Checker::default().check(&corrupted, &answer).is_err());

        let stream = Op {
            request: Vec::new(),
            expect: Expect::Stream { first_end: Some(40), len: 100 },
            input_bytes: 100,
        };
        let answer = reply(
            200,
            r#"{"input_bytes":100,"bytes_scanned":64,"matched":true,"match_position":40}"#,
        );
        assert_eq!(Checker::default().check(&stream, &answer), Ok(64));
        let mut corrupted = stream.clone();
        corrupted.expect = Expect::Stream { first_end: None, len: 100 };
        assert!(Checker::default().check(&corrupted, &answer).is_err());
        assert!(Checker::default().check(&op, &reply(503, "{}")).is_err());
    }
}
