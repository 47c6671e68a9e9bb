//! CNF encodings of cardinality and pseudo-Boolean constraints.
//!
//! Provides the building blocks the QMR encodings need:
//!
//! * *at-most-one* / *exactly-one* over a set of literals (pairwise for
//!   small sets, the sequential "ladder" encoding for larger ones) — the
//!   "standard only-one encoding \[13\]" the paper credits for shrinking
//!   Hard A and Hard C;
//! * the **(generalized) totalizer**, used by the linear SAT-UNSAT MaxSAT
//!   loop to bound the total weight of falsified soft clauses.

use sat::{Lit, ResourceBudget};

// The sink trait lives in `sat::backend` so every `SatBackend` (not just
// the bundled solver) can receive encodings; re-exported here because this
// module is where encoding consumers import it from.
pub use sat::backend::ClauseSink;

impl ClauseSink for crate::WcnfInstance {
    fn new_var(&mut self) -> sat::Var {
        crate::WcnfInstance::new_var(self)
    }

    fn emit(&mut self, lits: &[Lit]) {
        self.add_hard(lits.iter().copied());
    }
}

/// Threshold below which the pairwise at-most-one encoding is used.
const PAIRWISE_LIMIT: usize = 6;

/// Encodes *at most one* of `lits` is true.
///
/// Uses the quadratic pairwise encoding for up to six
/// literals and the sequential (ladder) encoding beyond, which needs
/// `n - 1` auxiliary variables and `3n - 4` clauses.
pub fn at_most_one<S: ClauseSink>(sink: &mut S, lits: &[Lit]) {
    if lits.len() <= 1 {
        return;
    }
    if lits.len() <= PAIRWISE_LIMIT {
        for i in 0..lits.len() {
            for j in (i + 1)..lits.len() {
                sink.emit(&[!lits[i], !lits[j]]);
            }
        }
        return;
    }
    // Sequential encoding: s_i == "one of lits[..=i] is true".
    let mut prev = {
        let s0 = sink.new_var().positive();
        sink.emit(&[!lits[0], s0]);
        s0
    };
    for (i, &l) in lits.iter().enumerate().skip(1) {
        // l → ¬prev (no earlier literal was true).
        sink.emit(&[!l, !prev]);
        if i + 1 < lits.len() {
            let s = sink.new_var().positive();
            sink.emit(&[!l, s]); // l → s
            sink.emit(&[!prev, s]); // prev → s
            prev = s;
        }
    }
}

/// Encodes *at least one* of `lits` is true (a single clause).
pub fn at_least_one<S: ClauseSink>(sink: &mut S, lits: &[Lit]) {
    sink.emit(lits);
}

/// Encodes *exactly one* of `lits` is true.
pub fn exactly_one<S: ClauseSink>(sink: &mut S, lits: &[Lit]) {
    at_least_one(sink, lits);
    at_most_one(sink, lits);
}

/// A generalized totalizer over weighted input literals.
///
/// After [`Totalizer::build`], [`Totalizer::outputs`] maps each attainable
/// weight `w` to an output literal that is *forced true* whenever the true
/// inputs weigh at least `w`. Asserting the negation of all outputs above a
/// bound `k` therefore enforces `Σ weight(true inputs) ≤ k` — the mechanism
/// behind the linear SAT-UNSAT MaxSAT search.
///
/// With all weights 1 this degenerates to the classic totalizer.
#[derive(Debug)]
pub struct Totalizer {
    /// Sorted `(weight, output literal)` pairs for every attainable sum.
    outputs: Vec<(u64, Lit)>,
}

impl Totalizer {
    /// Builds the totalizer circuit over `(lit, weight)` inputs, emitting
    /// clauses into `sink`.
    ///
    /// Returns `None` once `budget` expires, which the build checks once
    /// per row of every merge: over many distinct weights the number of
    /// attainable sums, and with it the circuit, grows exponentially. The
    /// clauses emitted until then stay in `sink`; they only define fresh
    /// variables, so they exclude no assignment of the inputs.
    ///
    /// # Panics
    ///
    /// Panics if any weight is zero.
    pub fn build<S: ClauseSink>(
        sink: &mut S,
        inputs: &[(Lit, u64)],
        budget: &ResourceBudget,
    ) -> Option<Self> {
        assert!(
            inputs.iter().all(|&(_, w)| w > 0),
            "totalizer weights must be positive"
        );
        if inputs.is_empty() {
            return Some(Totalizer {
                outputs: Vec::new(),
            });
        }
        let mut nodes: Vec<Vec<(u64, Lit)>> = inputs.iter().map(|&(l, w)| vec![(w, l)]).collect();
        // Balanced bottom-up merge.
        while nodes.len() > 1 {
            let mut next = Vec::with_capacity(nodes.len().div_ceil(2));
            let mut it = nodes.into_iter();
            while let Some(a) = it.next() {
                match it.next() {
                    Some(b) => next.push(Self::merge(sink, &a, &b, budget)?),
                    None => next.push(a),
                }
            }
            nodes = next;
        }
        let mut outputs = nodes.pop().expect("nonempty input");
        outputs.sort_unstable_by_key(|&(w, _)| w);
        // Ordering clauses: reaching a larger sum implies reaching smaller ones.
        for pair in outputs.windows(2) {
            let (_, lo) = pair[0];
            let (_, hi) = pair[1];
            sink.emit(&[!hi, lo]);
        }
        Some(Totalizer { outputs })
    }

    fn merge<S: ClauseSink>(
        sink: &mut S,
        a: &[(u64, Lit)],
        b: &[(u64, Lit)],
        budget: &ResourceBudget,
    ) -> Option<Vec<(u64, Lit)>> {
        use std::collections::BTreeMap;
        let mut sums: BTreeMap<u64, Lit> = BTreeMap::new();
        let fresh = |sink: &mut S, sums: &mut BTreeMap<u64, Lit>, w: u64| -> Lit {
            *sums.entry(w).or_insert_with(|| sink.new_var().positive())
        };
        // Individual propagation: child sum alone reaches w.
        for &(w, l) in a.iter().chain(b.iter()) {
            let o = fresh(sink, &mut sums, w);
            sink.emit(&[!l, o]);
        }
        // Combined propagation: wa from a plus wb from b.
        for &(wa, la) in a {
            if budget.expired() {
                return None;
            }
            for &(wb, lb) in b {
                let o = fresh(sink, &mut sums, wa + wb);
                sink.emit(&[!la, !lb, o]);
            }
        }
        Some(sums.into_iter().collect())
    }

    /// Sorted `(weight, output)` pairs of attainable sums.
    pub fn outputs(&self) -> &[(u64, Lit)] {
        &self.outputs
    }

    /// The output literal forced true whenever the true inputs weigh at
    /// least `weight`, if that sum is attainable — how the core-guided
    /// strategy walks a relaxation totalizer's bound upward one output at
    /// a time.
    pub fn output_for(&self, weight: u64) -> Option<Lit> {
        self.outputs
            .iter()
            .find(|&&(w, _)| w == weight)
            .map(|&(_, l)| l)
    }

    /// Returns clauses (as unit literals to assert) enforcing
    /// `Σ weight(true inputs) ≤ bound`.
    pub fn assert_at_most(&self, bound: u64) -> Vec<Lit> {
        self.outputs
            .iter()
            .filter(|&&(w, _)| w > bound)
            .map(|&(_, l)| !l)
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use sat::{DefaultBackend, SolveResult};

    fn new_lits(s: &mut DefaultBackend, n: usize) -> Vec<Lit> {
        (0..n).map(|_| ClauseSink::new_var(s).positive()).collect()
    }

    /// Exhaustively checks that the encoding admits exactly the assignments
    /// with `count` in `allowed`.
    fn check_counts(
        n: usize,
        encode: impl Fn(&mut DefaultBackend, &[Lit]),
        allowed: impl Fn(u32) -> bool,
    ) {
        for mask in 0u32..(1 << n) {
            let mut s = DefaultBackend::default();
            let lits = new_lits(&mut s, n);
            encode(&mut s, &lits);
            for (i, &l) in lits.iter().enumerate() {
                let want = mask >> i & 1 == 1;
                s.add_clause([if want { l } else { !l }]);
            }
            let expect = allowed(mask.count_ones());
            let got = s.solve_under_assumptions(&[], &sat::ResourceBudget::unlimited())
                == SolveResult::Sat;
            assert_eq!(got, expect, "n={n} mask={mask:b}");
        }
    }

    #[test]
    fn amo_pairwise_exhaustive() {
        for n in 0..=4 {
            check_counts(n, at_most_one, |c| c <= 1);
        }
    }

    #[test]
    fn amo_sequential_exhaustive() {
        // n = 8 exceeds the pairwise limit, exercising the ladder encoding.
        check_counts(8, at_most_one, |c| c <= 1);
    }

    #[test]
    fn exactly_one_exhaustive() {
        for n in 1..=7 {
            check_counts(n, exactly_one, |c| c == 1);
        }
    }

    #[test]
    fn totalizer_unweighted_bounds() {
        // For every bound k, exactly the assignments with ≤ k true inputs
        // remain satisfiable.
        let n = 5usize;
        for k in 0..=n as u64 {
            for mask in 0u32..(1 << n) {
                let mut s = DefaultBackend::default();
                let lits = new_lits(&mut s, n);
                let inputs: Vec<(Lit, u64)> = lits.iter().map(|&l| (l, 1)).collect();
                let tot = Totalizer::build(&mut s, &inputs, &ResourceBudget::unlimited())
                    .expect("unlimited budget");
                for u in tot.assert_at_most(k) {
                    s.add_clause([u]);
                }
                for (i, &l) in lits.iter().enumerate() {
                    let want = mask >> i & 1 == 1;
                    s.add_clause([if want { l } else { !l }]);
                }
                let expect = u64::from(mask.count_ones()) <= k;
                let sat_now = s.solve_under_assumptions(&[], &sat::ResourceBudget::unlimited())
                    == SolveResult::Sat;
                assert_eq!(sat_now, expect, "k={k} mask={mask:b}");
            }
        }
    }

    #[test]
    fn totalizer_weighted_bounds() {
        let weights = [3u64, 5, 7, 2];
        for k in [0u64, 2, 4, 7, 9, 11, 17] {
            for mask in 0u32..(1 << weights.len()) {
                let mut s = DefaultBackend::default();
                let lits = new_lits(&mut s, weights.len());
                let inputs: Vec<(Lit, u64)> =
                    lits.iter().zip(weights).map(|(&l, w)| (l, w)).collect();
                let tot = Totalizer::build(&mut s, &inputs, &ResourceBudget::unlimited())
                    .expect("unlimited budget");
                for u in tot.assert_at_most(k) {
                    s.add_clause([u]);
                }
                for (i, &l) in lits.iter().enumerate() {
                    let want = mask >> i & 1 == 1;
                    s.add_clause([if want { l } else { !l }]);
                }
                let total: u64 = weights
                    .iter()
                    .enumerate()
                    .filter(|&(i, _)| mask >> i & 1 == 1)
                    .map(|(_, &w)| w)
                    .sum();
                let sat_now = s.solve_under_assumptions(&[], &sat::ResourceBudget::unlimited())
                    == SolveResult::Sat;
                assert_eq!(sat_now, total <= k, "k={k} mask={mask:b}");
            }
        }
    }

    #[test]
    fn totalizer_empty() {
        let mut s = DefaultBackend::default();
        let tot = Totalizer::build(&mut s, &[], &ResourceBudget::unlimited()).expect("empty");
        assert!(tot.outputs().is_empty());
        assert!(tot.assert_at_most(0).is_empty());
    }

    #[test]
    fn totalizer_stops_on_an_expired_budget() {
        let mut s = DefaultBackend::default();
        let inputs: Vec<(Lit, u64)> = new_lits(&mut s, 4).into_iter().zip(1..).collect();
        let expired = ResourceBudget::with_time(std::time::Duration::ZERO).arm();
        assert!(Totalizer::build(&mut s, &inputs, &expired).is_none());
        // A single input needs no merge, so there is nothing to stop.
        assert!(Totalizer::build(&mut s, &inputs[..1], &expired).is_some());
    }
}
