//! Bank tier: a multi-identifier set too wide for one machine word,
//! split by accept identifier into bins that each fit one.
//!
//! A `compile_set` program of many members factors to one automaton of
//! a few hundred states; run as one lazy DFA its subset states are
//! products of the members' states, so the memo thrashes. The members
//! themselves are small. The bank projects the *unfactored* NFA once
//! per accept identifier (`None` — a plain `Accept`/`AcceptPartial` —
//! counts as one): the identifier's arm states, every state that can
//! reach them, and the start state. Identifiers are first-fit packed
//! into bins whose factored size fits [`HostTiers::bit128_max`], and
//! each bin becomes an ordinary `BitEngine` with its own prefilter.
//!
//! A projection is closed under predecessors, so a bin's live set is
//! exactly the monolithic live set restricted to the bin's states (by
//! induction over input positions): every arm fires in its bin at the
//! position it would fire in the whole automaton. States that reach no
//! arm still keep a run alive; they go into bin 0 with their own
//! predecessors, so the union of the bins' live sets is the whole live
//! set and a run dies exactly when the last bin does.
//!
//! Packing costs one factoring per identifier (its size) plus one per
//! bin (the engine), so per-request lowering stays linear in the set.
//! A bin's size is estimated as the sum of its members' factored sizes
//! minus the start state they share, an upper bound on the factored
//! union; the built bin is checked against the threshold anyway.

use std::collections::BTreeSet;

use crate::nfa::{self, Nfa};
use crate::{HostProgram, HostTiers};

/// States of a projection, and the identifiers whose arms it keeps.
struct Bin {
    keys: Vec<Option<u16>>,
    states: Vec<bool>,
    estimate: usize,
}

/// Split the unfactored `nfa` into bit-parallel bins under `tiers`
/// (already clamped). `None` when the program has fewer than two accept
/// identifiers, or when one identifier (or the states reaching no arm)
/// alone factors to more than `tiers.bit128_max` states.
pub(crate) fn build(nfa: &Nfa, tiers: HostTiers) -> Option<Vec<HostProgram>> {
    let keys: BTreeSet<Option<u16>> = nfa.arms.iter().flatten().map(|arm| arm.id).collect();
    if keys.len() < 2 {
        return None;
    }
    let n = nfa.preds.len();
    let mut incoming: Vec<Vec<u32>> = vec![Vec::new(); n];
    for (source, follows) in nfa.follow.iter().enumerate() {
        for &target in follows {
            incoming[target as usize].push(source as u32);
        }
    }
    let max = tiers.bit128_max;

    let mut covered = vec![false; n];
    let mut projections = Vec::with_capacity(keys.len());
    for &key in &keys {
        let states =
            reach_back(&incoming, (0..n).filter(|&s| nfa.arms[s].iter().any(|a| a.id == key)));
        for (covered, &kept) in covered.iter_mut().zip(&states) {
            *covered |= kept;
        }
        projections.push((key, states));
    }

    let mut bins: Vec<Bin> = Vec::new();
    if covered.contains(&false) {
        let states = reach_back(&incoming, (0..n).filter(|&s| !covered[s]));
        let estimate = factored(nfa, &states, &[]).preds.len();
        if estimate > max {
            return None;
        }
        bins.push(Bin { keys: Vec::new(), states, estimate });
    }
    for (key, states) in projections {
        let size = factored(nfa, &states, &[key]).preds.len();
        if size > max {
            return None;
        }
        match bins.iter_mut().find(|bin| bin.estimate + size - 1 <= max) {
            Some(bin) => {
                bin.keys.push(key);
                for (kept, &state) in bin.states.iter_mut().zip(&states) {
                    *kept |= state;
                }
                bin.estimate += size - 1;
            }
            None => bins.push(Bin { keys: vec![key], states, estimate: size }),
        }
    }

    bins.iter()
        .map(|bin| HostProgram::bit_parallel(&factored(nfa, &bin.states, &bin.keys), tiers))
        .collect()
}

/// Every state that can reach one of `targets` (targets included); the
/// start state reaches every state, so it is always in the result.
fn reach_back(incoming: &[Vec<u32>], targets: impl Iterator<Item = usize>) -> Vec<bool> {
    let mut seen = vec![false; incoming.len()];
    let mut stack: Vec<usize> = targets.collect();
    while let Some(state) = stack.pop() {
        if !std::mem::replace(&mut seen[state], true) {
            stack.extend(incoming[state].iter().map(|&s| s as usize));
        }
    }
    seen[0] = true;
    seen
}

/// The sub-automaton on `states` that keeps only the arms of `keys`,
/// factored. Renumbering preserves order, so the start stays state 0.
fn factored(nfa: &Nfa, states: &[bool], keys: &[Option<u16>]) -> Nfa {
    let kept: Vec<usize> = (0..states.len()).filter(|&s| states[s]).collect();
    let mut renumber = vec![u32::MAX; states.len()];
    for (new, &state) in kept.iter().enumerate() {
        renumber[state] = new as u32;
    }
    let mut projection = Nfa { preds: Vec::new(), follow: Vec::new(), arms: Vec::new() };
    for &state in &kept {
        projection.preds.push(nfa.preds[state]);
        projection.follow.push(
            nfa.follow[state]
                .iter()
                .map(|&t| renumber[t as usize])
                .filter(|&t| t != u32::MAX)
                .collect(),
        );
        projection
            .arms
            .push(nfa.arms[state].iter().filter(|arm| keys.contains(&arm.id)).cloned().collect());
    }
    nfa::factor(&mut projection);
    projection
}
