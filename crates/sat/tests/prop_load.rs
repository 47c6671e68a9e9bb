//! Property tests for the bulk clause load: loading a [`ClauseList`]
//! through [`SatBackend::add_clauses`] must leave a backend in exactly the
//! state that one [`SatBackend::add_clause`] call per clause does. The
//! random formulas carry duplicate literals, tautologies, units in the
//! middle of the list and literals already falsified at the root, and the
//! comparison covers the clause count, the answer, the model and the full
//! search statistics, over a first load and a second load after solving.

use proptest::prelude::*;
use sat::{
    ChaosBackend, ClauseList, FaultPlan, Lit, ResourceBudget, SatBackend, SolveResult, Solver,
    Stats,
};

/// A literal over `1..=num_vars`.
fn lit_strategy(num_vars: i64) -> impl Strategy<Value = i64> {
    (1..=num_vars, prop::bool::ANY).prop_map(|(v, neg)| if neg { -v } else { v })
}

/// A clause of 2–4 literals; drawn over few variables, repeats and
/// tautologies are common.
fn clause_strategy(num_vars: i64) -> impl Strategy<Value = Vec<i64>> {
    prop::collection::vec(lit_strategy(num_vars), 2..=4)
}

fn clause_list(clauses: &[Vec<i64>]) -> ClauseList {
    let mut list = ClauseList::new();
    for c in clauses {
        list.push(c.iter().map(|&d| Lit::from_dimacs(d)));
    }
    list
}

/// Everything a load may influence that the caller can observe.
#[derive(Debug, PartialEq, Eq)]
struct Observed {
    loaded: Vec<bool>,
    num_clauses: Vec<usize>,
    results: Vec<SolveResult>,
    models: Vec<Vec<bool>>,
    stats: Vec<Stats>,
}

/// Loads each batch (bulk or clause by clause) into a fresh backend and
/// solves after each one.
fn run<B: SatBackend>(
    mut backend: B,
    num_vars: usize,
    batches: &[ClauseList],
    bulk: bool,
) -> Observed {
    backend.reserve_vars(num_vars);
    let mut seen = Observed {
        loaded: Vec::new(),
        num_clauses: Vec::new(),
        results: Vec::new(),
        models: Vec::new(),
        stats: Vec::new(),
    };
    for batch in batches {
        let ok = if bulk {
            backend.add_clauses(batch)
        } else {
            let mut ok = true;
            for c in batch {
                ok &= backend.add_clause(c);
            }
            ok
        };
        seen.loaded.push(ok);
        seen.num_clauses.push(backend.num_clauses());
        let result = backend.solve_under_assumptions(&[], &ResourceBudget::unlimited());
        seen.results.push(result);
        seen.models.push(if result == SolveResult::Sat {
            backend.model()
        } else {
            Vec::new()
        });
        seen.stats.push(*backend.stats());
    }
    seen
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    #[test]
    fn bulk_load_matches_clause_by_clause_load(
        num_vars in 4usize..=16,
        mut first in prop::collection::vec(clause_strategy(16), 0..60),
        units in prop::collection::vec((0usize..60, lit_strategy(16)), 0..4),
        second in prop::collection::vec(clause_strategy(16), 0..12),
    ) {
        // About three clauses per variable keeps a good share of the
        // formulas satisfiable and hard enough to need search. Units land
        // anywhere in the first list, so later clauses are simplified
        // against them.
        first.truncate(3 * num_vars);
        for (at, unit) in units {
            first.insert(at % (first.len() + 1), vec![unit]);
        }
        let clamp = |clauses: Vec<Vec<i64>>| -> Vec<Vec<i64>> {
            let m = num_vars as i64;
            clauses
                .into_iter()
                .map(|c| c.into_iter().map(|d| d.signum() * ((d.abs() - 1) % m + 1)).collect())
                .collect()
        };
        let batches = [clause_list(&clamp(first)), clause_list(&clamp(second))];

        let bulk = run(Solver::new(), num_vars, &batches, true);
        let each = run(Solver::new(), num_vars, &batches, false);
        prop_assert_eq!(&bulk, &each);

        let chaos = || ChaosBackend::<Solver>::with_plan(FaultPlan::default());
        prop_assert_eq!(
            run(chaos(), num_vars, &batches, true),
            run(chaos(), num_vars, &batches, false)
        );
        // A benign chaos wrapper searches exactly like a bare solver.
        prop_assert_eq!(&run(chaos(), num_vars, &batches, true), &bulk);
    }
}

#[test]
fn bulk_load_keeps_mid_list_units_and_root_simplification() {
    // x1 is a unit in the middle: the clause before it is stored whole,
    // the clause after it loses ¬x1, and (x1 ∨ x3) is satisfied and
    // dropped. (x2 ∨ ¬x2) is a tautology; (x3 ∨ x3 ∨ x2) has a repeat.
    let list = clause_list(&[
        vec![-1, 2, 3],
        vec![2, -2],
        vec![1],
        vec![-1, -2, 3],
        vec![1, 3],
        vec![3, 3, 2],
    ]);
    let mut s = Solver::new();
    s.reserve_vars(3);
    assert!(s.add_clauses(&list));
    assert_eq!(s.num_clauses(), 3);
    assert_eq!(s.solve(), SolveResult::Sat);
    assert_eq!(s.model_value(Lit::from_dimacs(1)), Some(true));

    let mut unsat = Solver::new();
    unsat.reserve_vars(1);
    assert!(!unsat.add_clauses(&clause_list(&[vec![1], vec![-1], vec![1]])));
}
