//! Lazy-DFA fallback for automata too large for one machine word.
//!
//! Above 128 states the bit-parallel step would need multi-word masks.
//! A multi-identifier set splits into a bank of one-word bins instead
//! (see `bank`), so this tier serves what cannot be split: a single
//! pattern, or a set member, over 128 states. The engine runs a classic
//! lazy subset construction over the same epsilon-free NFA: DFA states
//! are sorted NFA state sets, memoized on demand, with per-byte-class
//! transitions filled in the first time a class is seen from a state. Acceptance (a class bitset + an EOI flag)
//! is computed once per DFA state; identifier resolution walks the sparse
//! per-arm entries only when an acceptance actually fires.
//!
//! The state table is bounded: hitting [`DFA_STATE_CAP`] flushes the memo
//! (keeping only the in-flight target) rather than growing without limit,
//! so adversarial inputs cost re-derivation time, never memory. The cache
//! lives inside the matcher — per run, per thread — so the engine itself
//! stays `Sync` without interior mutability.

use std::collections::HashMap;

use crate::bytes::ByteSet;
use crate::engine::{byte_classes, Classes};
use crate::nfa::Nfa;
use crate::{HostAllOutcome, HostOutcome};

/// Maximum materialized DFA states before the memo is flushed.
const DFA_STATE_CAP: usize = 4096;

/// Transition sentinel: not yet computed.
const UNKNOWN: u32 = u32::MAX;
/// Transition sentinel: dead (empty state set).
const DEAD: u32 = u32::MAX - 1;

fn class_words(count: usize) -> usize {
    count.div_ceil(64)
}

fn bit_set(words: &mut [u64], index: usize) {
    words[index / 64] |= 1u64 << (index % 64);
}

fn bit_get(words: &[u64], index: usize) -> bool {
    words[index / 64] & (1u64 << (index % 64)) != 0
}

/// One identifier's acceptance sites: `(NFA state, firing classes, fires
/// at EOI)`.
struct SparseArm {
    id: Option<u16>,
    entries: Vec<(u32, Box<[u64]>, bool)>,
}

impl SparseArm {
    /// Whether the arm fires from the sorted NFA state set `set`;
    /// `class == None` means end of input.
    fn fires(&self, set: &[u32], class: Option<usize>) -> bool {
        self.entries.iter().any(|(state, classes, eoi)| {
            let firing = match class {
                Some(class) => bit_get(classes, class),
                None => *eoi,
            };
            firing && set.binary_search(state).is_ok()
        })
    }
}

/// The shared, immutable subset-construction substrate.
pub(crate) struct SparseNfa {
    pub classes: Classes,
    follow: Vec<Box<[u32]>>,
    /// Per NFA state: classes contained in the entry predicate.
    pred_classes: Vec<Box<[u64]>>,
    /// Per NFA state: classes under which any arm fires.
    accept_classes: Vec<Box<[u64]>>,
    accept_eoi: Vec<bool>,
    /// Arms in resolution order (unidentified first, then ids ascending).
    arms: Vec<SparseArm>,
    pub n_states: usize,
}

impl SparseNfa {
    pub(crate) fn build(nfa: &Nfa) -> SparseNfa {
        let classes = byte_classes(
            nfa.preds.iter().copied().chain(nfa.arms.iter().flatten().map(|arm| arm.bytes)),
        );
        let words = class_words(classes.count);
        let class_bits = |set: &ByteSet| -> Box<[u64]> {
            let mut bits = vec![0u64; words];
            for (class, &byte) in classes.repr.iter().enumerate() {
                if set.contains(byte) {
                    bit_set(&mut bits, class);
                }
            }
            bits.into_boxed_slice()
        };

        let follow: Vec<Box<[u32]>> =
            nfa.follow.iter().map(|f| f.clone().into_boxed_slice()).collect();
        let pred_classes: Vec<Box<[u64]>> = nfa.preds.iter().map(&class_bits).collect();

        let mut accept_classes: Vec<Box<[u64]>> = Vec::with_capacity(nfa.preds.len());
        let mut accept_eoi = Vec::with_capacity(nfa.preds.len());
        let mut arms: Vec<SparseArm> = Vec::new();
        for (state, state_arms) in nfa.arms.iter().enumerate() {
            let mut bits = vec![0u64; words];
            let mut eoi = false;
            for arm in state_arms {
                let arm_bits = class_bits(&arm.bytes);
                for (word, &arm_word) in bits.iter_mut().zip(arm_bits.iter()) {
                    *word |= arm_word;
                }
                eoi |= arm.eoi;
                let entry = match arms.iter_mut().find(|a| a.id == arm.id) {
                    Some(entry) => entry,
                    None => {
                        arms.push(SparseArm { id: arm.id, entries: Vec::new() });
                        arms.last_mut().expect("just pushed")
                    }
                };
                entry.entries.push((state as u32, arm_bits, arm.eoi));
            }
            accept_classes.push(bits.into_boxed_slice());
            accept_eoi.push(eoi);
        }
        arms.sort_by_key(|arm| arm.id.map_or(-1i32, i32::from));

        SparseNfa {
            classes,
            follow,
            pred_classes,
            accept_classes,
            accept_eoi,
            arms,
            n_states: nfa.preds.len(),
        }
    }

    fn resolve_id(&self, set: &[u32], class: Option<usize>) -> Option<u16> {
        self.arms.iter().find(|arm| arm.fires(set, class)).and_then(|arm| arm.id)
    }
}

struct DState {
    set: Box<[u32]>,
    /// Per class: successor DFA id ([`UNKNOWN`] until computed).
    trans: Box<[u32]>,
    accept_classes: Box<[u64]>,
    accept_eoi: bool,
}

/// The per-matcher lazy subset construction.
pub(crate) struct LazyDfa<'n> {
    nfa: &'n SparseNfa,
    states: Vec<DState>,
    memo: HashMap<Box<[u32]>, u32>,
    /// Scratch flags for the gather step (one per NFA state).
    gathered: Vec<bool>,
}

impl<'n> LazyDfa<'n> {
    fn new(nfa: &'n SparseNfa) -> LazyDfa<'n> {
        let mut dfa = LazyDfa {
            nfa,
            states: Vec::new(),
            memo: HashMap::new(),
            gathered: vec![false; nfa.n_states],
        };
        dfa.intern(vec![0]);
        dfa
    }

    fn intern(&mut self, set: Vec<u32>) -> u32 {
        let boxed = set.into_boxed_slice();
        if let Some(&id) = self.memo.get(&boxed) {
            return id;
        }
        let words = class_words(self.nfa.classes.count);
        let mut accept_classes = vec![0u64; words];
        let mut accept_eoi = false;
        for &state in boxed.iter() {
            for (word, &src) in
                accept_classes.iter_mut().zip(self.nfa.accept_classes[state as usize].iter())
            {
                *word |= src;
            }
            accept_eoi |= self.nfa.accept_eoi[state as usize];
        }
        let id = self.states.len() as u32;
        self.memo.insert(boxed.clone(), id);
        self.states.push(DState {
            set: boxed,
            trans: vec![UNKNOWN; self.nfa.classes.count].into_boxed_slice(),
            accept_classes: accept_classes.into_boxed_slice(),
            accept_eoi,
        });
        id
    }

    /// Successor of `from` under `class` ([`DEAD`] when the state set
    /// empties). `from` is invalidated if a flush occurs; callers must
    /// continue from the returned id only.
    fn step(&mut self, from: u32, class: usize) -> u32 {
        let known = self.states[from as usize].trans[class];
        if known != UNKNOWN {
            return known;
        }
        let nfa = self.nfa;
        let mut target: Vec<u32> = Vec::new();
        for i in 0..self.states[from as usize].set.len() {
            let state = self.states[from as usize].set[i];
            for &next in nfa.follow[state as usize].iter() {
                if !self.gathered[next as usize] && bit_get(&nfa.pred_classes[next as usize], class)
                {
                    self.gathered[next as usize] = true;
                    target.push(next);
                }
            }
        }
        for &state in &target {
            self.gathered[state as usize] = false;
        }
        if target.is_empty() {
            self.states[from as usize].trans[class] = DEAD;
            return DEAD;
        }
        target.sort_unstable();
        if self.states.len() >= DFA_STATE_CAP {
            // Bounded memory: drop everything and restart from the target
            // set. `from`'s transition entry dies with it, which only
            // costs re-derivation later.
            self.states.clear();
            self.memo.clear();
            return self.intern(target);
        }
        let id = self.intern(target);
        self.states[from as usize].trans[class] = id;
        id
    }
}

/// Resumable matcher over the lazy DFA (owns its subset cache).
pub(crate) struct DfaMatcher<'n> {
    dfa: LazyDfa<'n>,
    current: u32,
}

impl<'n> DfaMatcher<'n> {
    pub(crate) fn new(nfa: &'n SparseNfa) -> DfaMatcher<'n> {
        let dfa = LazyDfa::new(nfa);
        DfaMatcher { dfa, current: 0 }
    }

    pub(crate) fn feed(&mut self, chunk: &[u8], position: &mut usize) -> Option<HostOutcome> {
        for &byte in chunk {
            let class = usize::from(self.dfa.nfa.classes.of[usize::from(byte)]);
            let state = &self.dfa.states[self.current as usize];
            if bit_get(&state.accept_classes, class) {
                let id = self.dfa.nfa.resolve_id(&state.set, Some(class));
                return Some(HostOutcome {
                    accepted: true,
                    match_position: Some(*position),
                    matched_id: id,
                });
            }
            self.current = self.dfa.step(self.current, class);
            if self.current == DEAD {
                return Some(HostOutcome {
                    accepted: false,
                    match_position: None,
                    matched_id: None,
                });
            }
            *position += 1;
        }
        None
    }

    pub(crate) fn finish(&self, position: usize) -> HostOutcome {
        let state = &self.dfa.states[self.current as usize];
        if state.accept_eoi {
            HostOutcome {
                accepted: true,
                match_position: Some(position),
                matched_id: self.dfa.nfa.resolve_id(&state.set, None),
            }
        } else {
            HostOutcome { accepted: false, match_position: None, matched_id: None }
        }
    }
}

/// Exhaustive multi-match scan on the lazy-DFA path.
pub(crate) fn run_all(nfa: &SparseNfa, input: &[u8]) -> HostAllOutcome {
    let mut out =
        HostAllOutcome { accepted: false, matched_ids: Vec::new(), first_match_position: None };
    if nfa.arms.is_empty() {
        return out;
    }
    let mut live: Vec<bool> = vec![true; nfa.arms.len()];
    let mut live_count = nfa.arms.len();
    let mut dfa = LazyDfa::new(nfa);
    let mut current = 0u32;
    let fire = |set: &[u32],
                class: Option<usize>,
                pos: usize,
                out: &mut HostAllOutcome,
                live: &mut [bool],
                live_count: &mut usize| {
        for (index, arm) in nfa.arms.iter().enumerate() {
            if live[index] && arm.fires(set, class) {
                out.accepted = true;
                out.first_match_position.get_or_insert(pos);
                if let Some(id) = arm.id {
                    if let Err(at) = out.matched_ids.binary_search(&id) {
                        out.matched_ids.insert(at, id);
                    }
                }
                live[index] = false;
                *live_count -= 1;
            }
        }
    };
    for (pos, &byte) in input.iter().enumerate() {
        let class = usize::from(nfa.classes.of[usize::from(byte)]);
        let state = &dfa.states[current as usize];
        if bit_get(&state.accept_classes, class) {
            let set = state.set.clone();
            fire(&set, Some(class), pos, &mut out, &mut live, &mut live_count);
            if live_count == 0 {
                return out;
            }
        }
        current = dfa.step(current, class);
        if current == DEAD {
            return out;
        }
    }
    let state = &dfa.states[current as usize];
    if state.accept_eoi {
        let set = state.set.clone();
        fire(&set, None, input.len(), &mut out, &mut live, &mut live_count);
    }
    out
}
