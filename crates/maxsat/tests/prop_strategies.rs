//! Strategy-equivalence properties: `LinearSatUnsat` and `CoreGuided`
//! must report identical optimal costs on random small weighted instances
//! (exact search, quantum = 1), plus
//! directed regressions on the pigeonhole placement family where the
//! core-guided strategy must reach the proof in fewer SAT calls.

use maxsat::{
    solve_with_options, MaxSatOutcome, MaxSatStatus, SolveOptions, Strategy, WcnfInstance,
};
use proptest::prelude::*;
use sat::{DefaultBackend, Lit, ResourceBudget};

/// Brute-force reference for small weighted instances: minimal falsified
/// soft weight over all assignments, `None` when the hards are UNSAT.
fn brute_force(inst: &WcnfInstance) -> Option<u64> {
    let n = inst.num_vars();
    assert!(n <= 16);
    let mut best: Option<u64> = None;
    for mask in 0u32..(1 << n) {
        let model: Vec<bool> = (0..n).map(|i| mask >> i & 1 == 1).collect();
        if let Some(c) = inst.cost_of(&model) {
            best = Some(best.map_or(c, |b: u64| b.min(c)));
        }
    }
    best
}

fn solve_strategy(inst: &WcnfInstance, strategy: Strategy) -> MaxSatOutcome {
    // A huge unit count keeps quantum = 1 (exact) on these tiny weights.
    let options = SolveOptions::default()
        .with_totalizer_units(u64::MAX)
        .with_strategy(strategy);
    solve_with_options::<DefaultBackend>(inst, &ResourceBudget::unlimited(), &options)
}

/// The pigeonhole placement family: hard per-hole exclusivity, a
/// `placed_p ↔ (x_p0 ∨ … ∨ x_p,h−1)` definition per pigeon, and a *unit*
/// soft on each `placed_p`. Optimum is `max(0, pigeons - holes)`.
///
/// The unit-soft shape matters: the solver's negative default phase makes
/// the first incumbent place nobody, and phase saving walks the linear
/// strategy's bound down one pigeon per SAT call — while the core-guided
/// strategy assumes everyone placed up front and needs only one core per
/// pigeon that genuinely cannot fit.
fn placement(pigeons: usize, holes: usize) -> WcnfInstance {
    let mut inst = WcnfInstance::new();
    let cell = |p: usize, h: usize| sat::Var::new(p * holes + h).positive();
    let placed = |p: usize| sat::Var::new(pigeons * holes + p).positive();
    inst.reserve_vars(pigeons * holes + pigeons);
    for h in 0..holes {
        for p1 in 0..pigeons {
            for p2 in (p1 + 1)..pigeons {
                inst.add_hard([!cell(p1, h), !cell(p2, h)]);
            }
        }
    }
    for p in 0..pigeons {
        // placed_p → some hole; any hole → placed_p.
        let mut row: Vec<sat::Lit> = vec![!placed(p)];
        row.extend((0..holes).map(|h| cell(p, h)));
        inst.add_hard(row);
        for h in 0..holes {
            inst.add_hard([!cell(p, h), placed(p)]);
        }
        inst.add_soft(1, [placed(p)]);
    }
    inst
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(96))]

    /// The weight-aware refinements (stratification, core exhaustion, soft
    /// hardening — all on by default) are conservative: on random weighted
    /// instances whose distinct unit-soft weights arm the diversity gate,
    /// the refined search reports the same cost as brute force and as a
    /// plain `CoreGuided` with every refinement disabled.
    #[test]
    fn weighted_refinements_match_brute_force_and_plain_core_guided(
        num_vars in 3usize..=7,
        hard in prop::collection::vec(
            prop::collection::vec((1i64..=7, prop::bool::ANY), 1..=3), 0..10),
    ) {
        let m = num_vars as i64;
        let clamp = |(v, neg): (i64, bool)| {
            let v = (v - 1) % m + 1;
            Lit::from_dimacs(if neg { -v } else { v })
        };
        let mut inst = WcnfInstance::new();
        inst.reserve_vars(num_vars);
        for c in hard {
            inst.add_hard(c.into_iter().map(clamp));
        }
        // One unit soft per variable with pairwise-distinct weights, so
        // distinct² > soft-count and the stratified path actually runs.
        for v in 0..num_vars {
            inst.add_soft(v as u64 + 2, [sat::Var::new(v).positive()]);
        }

        let expect = brute_force(&inst);
        let refined = solve_strategy(&inst, Strategy::CoreGuided);
        let plain_options = SolveOptions::default()
            .with_totalizer_units(u64::MAX)
            .with_strategy(Strategy::CoreGuided)
            .plain_core_guided();
        let plain = solve_with_options::<DefaultBackend>(
            &inst, &ResourceBudget::unlimited(), &plain_options);
        for (label, out) in [("refined", &refined), ("plain", &plain)] {
            match expect {
                None => prop_assert_eq!(out.status, MaxSatStatus::Unsat, "{}", label),
                Some(c) => {
                    prop_assert_eq!(out.status, MaxSatStatus::Optimal, "{}", label);
                    prop_assert_eq!(out.cost, Some(c), "{}", label);
                    let model = out.model.as_ref().expect("optimal implies model");
                    prop_assert_eq!(inst.cost_of(model), Some(c), "{}", label);
                }
            }
        }
    }

    /// Both strategies agree with each other — and with brute force —
    /// on random small weighted partial MaxSAT instances.
    #[test]
    fn strategies_report_identical_optimal_costs(
        num_vars in 2usize..=6,
        hard in prop::collection::vec(
            prop::collection::vec((1i64..=6, prop::bool::ANY), 1..=3), 0..8),
        soft in prop::collection::vec(
            (prop::collection::vec((1i64..=6, prop::bool::ANY), 1..=2), 1u64..5), 1..6),
    ) {
        let m = num_vars as i64;
        let clamp = |(v, neg): (i64, bool)| {
            let v = (v - 1) % m + 1;
            Lit::from_dimacs(if neg { -v } else { v })
        };
        let mut inst = WcnfInstance::new();
        inst.reserve_vars(num_vars);
        for c in hard {
            inst.add_hard(c.into_iter().map(clamp));
        }
        for (c, w) in soft {
            inst.add_soft(w, c.into_iter().map(clamp));
        }

        let expect = brute_force(&inst);
        let linear = solve_strategy(&inst, Strategy::LinearSatUnsat);
        let core = solve_strategy(&inst, Strategy::CoreGuided);
        for (label, out) in [("linear", &linear), ("core-guided", &core)] {
            match expect {
                None => prop_assert_eq!(out.status, MaxSatStatus::Unsat, "{}", label),
                Some(c) => {
                    prop_assert_eq!(out.status, MaxSatStatus::Optimal, "{}", label);
                    prop_assert_eq!(out.cost, Some(c), "{}", label);
                    let model = out.model.as_ref().expect("optimal implies model");
                    prop_assert_eq!(inst.cost_of(model), Some(c), "{}", label);
                }
            }
        }
    }
}

#[test]
fn core_guided_wins_satisfiable_pigeonhole_in_fewer_calls() {
    // Everybody fits (optimum 0), but the default negative phase starts
    // the linear search from a nobody-placed incumbent and walks the
    // bound down, while core-guided's all-placed assumptions are
    // satisfiable on the very first call.
    let inst = placement(6, 6);
    let linear = solve_strategy(&inst, Strategy::LinearSatUnsat);
    let core = solve_strategy(&inst, Strategy::CoreGuided);
    assert_eq!(linear.status, MaxSatStatus::Optimal);
    assert_eq!(core.status, MaxSatStatus::Optimal);
    assert_eq!(linear.cost, Some(0));
    assert_eq!(core.cost, Some(0));
    assert_eq!(core.iterations, 1, "assumptions are satisfiable outright");
    assert!(
        core.iterations < linear.iterations,
        "core-guided must prove the pigeonhole optimum in fewer SAT calls \
         ({} vs {})",
        core.iterations,
        linear.iterations
    );
}

#[test]
fn overfull_pigeonhole_pays_one_core_per_extra_pigeon() {
    // One pigeon too many: a single core raises the lower bound to the
    // optimum, so core-guided needs exactly one UNSAT and one SAT call.
    let inst = placement(5, 4);
    let core = solve_strategy(&inst, Strategy::CoreGuided);
    assert_eq!(core.status, MaxSatStatus::Optimal);
    assert_eq!(core.cost, Some(1));
    assert_eq!(core.iterations, 2, "one core, then the optimal model");
    let linear = solve_strategy(&inst, Strategy::LinearSatUnsat);
    assert_eq!(linear.cost, Some(1));
    assert!(core.iterations < linear.iterations);
}

/// Four clauses over `(gate, x, y)` whose conjunction forces `¬gate`,
/// but only through a case split on `x`/`y` — never by unit propagation
/// at assumption level (every clause still has two free literals once
/// `gate` is assumed).
fn add_search_refuted(inst: &mut WcnfInstance, gate: Lit) {
    let x = inst.new_var().positive();
    let y = inst.new_var().positive();
    inst.add_hard([!gate, x, y]);
    inst.add_hard([!gate, !x, y]);
    inst.add_hard([!gate, x, !y]);
    inst.add_hard([!gate, !x, !y]);
}

#[test]
fn exhaustion_pays_extra_weight_units_inside_one_relaxation() {
    // Exhaustion only ever pays on a *non-minimal* core (a minimal core
    // always admits a model violating exactly one member). Plant one: the
    // binary chain a→p, b→¬p makes {a, b} the first, propagation-found
    // core, while two search-only gadgets force ¬a and ¬b individually —
    // so every model violates BOTH core members and the probe at totalizer
    // bound 2 is UNSAT, paying a second min-weight unit inside the same
    // relaxation.
    let mut inst = WcnfInstance::new();
    let a = inst.new_var().positive();
    let b = inst.new_var().positive();
    let p = inst.new_var().positive();
    inst.add_hard([!a, p]);
    inst.add_hard([!b, !p]);
    add_search_refuted(&mut inst, a);
    add_search_refuted(&mut inst, b);
    inst.add_soft(5, [a]);
    inst.add_soft(6, [b]);

    let out = solve_strategy(&inst, Strategy::CoreGuided);
    assert_eq!(out.status, MaxSatStatus::Optimal);
    assert_eq!(out.cost, Some(11));
    assert_eq!(out.cost, brute_force(&inst));
    assert!(
        out.telemetry.exhaustion_steps > 0,
        "the bound-2 probe must pay a counted exhaustion step: {}",
        out.telemetry
    );
    // Cost-equal to the un-refined search, as always.
    let plain_options = SolveOptions::default()
        .with_totalizer_units(u64::MAX)
        .with_strategy(Strategy::CoreGuided)
        .plain_core_guided();
    let plain =
        solve_with_options::<DefaultBackend>(&inst, &ResourceBudget::unlimited(), &plain_options);
    assert_eq!(plain.cost, Some(11));
}

/// Appends `pairs` mutually exclusive weighted soft pairs — unit
/// propagation yields one tiny core per pair for the core-guided search,
/// while the linear search must build one global weighted totalizer over
/// all of them and refute its final bound through a joint counting proof.
fn add_weighted_pairs(inst: &mut WcnfInstance, pairs: usize) {
    let base = inst.num_vars();
    inst.reserve_vars(base + 2 * pairs);
    for i in 0..pairs {
        let a = sat::Var::new(base + 2 * i).positive();
        let b = sat::Var::new(base + 2 * i + 1).positive();
        inst.add_hard([!a, !b]);
        inst.add_soft(2 * i as u64 + 1, [a]);
        inst.add_soft(2 * i as u64 + 2, [b]);
    }
}

/// Appends one pigeonhole placement block over fresh variables, in the
/// raw soft-row shape (each pigeon's row is itself the soft clause).
fn add_placement_block(inst: &mut WcnfInstance, pigeons: usize, holes: usize) {
    let base = inst.num_vars();
    let cell = |p: usize, h: usize| sat::Var::new(base + p * holes + h).positive();
    inst.reserve_vars(base + pigeons * holes);
    for h in 0..holes {
        for p1 in 0..pigeons {
            for p2 in (p1 + 1)..pigeons {
                inst.add_hard([!cell(p1, h), !cell(p2, h)]);
            }
        }
    }
    for p in 0..pigeons {
        inst.add_soft(1, (0..holes).map(|h| cell(p, h)));
    }
}

/// A *hard* satisfiable permutation block (n pigeons, n holes, rows and
/// exclusivity all hard): every SAT call of every strategy must re-search
/// it.
fn add_hard_permutation(inst: &mut WcnfInstance, n: usize) {
    let base = inst.num_vars();
    let cell = |p: usize, h: usize| sat::Var::new(base + p * n + h).positive();
    inst.reserve_vars(base + n * n);
    for h in 0..n {
        for p1 in 0..n {
            for p2 in (p1 + 1)..n {
                inst.add_hard([!cell(p1, h), !cell(p2, h)]);
            }
        }
    }
    for p in 0..n {
        inst.add_hard((0..n).map(|h| cell(p, h)));
    }
}

/// A diverse weighted instance: weighted exclusive pairs, two
/// overfull placement blocks, a hard permutation block. 60 distinct soft
/// weights over 73 softs arm the diversity gate, so the stratified path
/// (and hardening against stratum-fold incumbents) genuinely runs.
fn diverse_weighted_instance() -> (WcnfInstance, u64) {
    let mut inst = WcnfInstance::new();
    add_weighted_pairs(&mut inst, 30);
    add_placement_block(&mut inst, 7, 6);
    add_placement_block(&mut inst, 6, 5);
    add_hard_permutation(&mut inst, 9);
    let expected: u64 = (0..30).map(|i| 2 * i as u64 + 1).sum::<u64>() + 2;
    (inst, expected)
}

#[test]
fn stratified_search_records_strata_and_hardened_softs() {
    let (inst, expected) = diverse_weighted_instance();
    let out = solve_strategy(&inst, Strategy::CoreGuided);
    assert_eq!(out.status, MaxSatStatus::Optimal);
    assert_eq!(out.cost, Some(expected));
    assert!(
        out.telemetry.strata > 1,
        "60 distinct weights must stratify: {}",
        out.telemetry
    );
    assert!(
        out.telemetry.hardened_softs > 0,
        "heavy softs must harden against the stratum-fold incumbents: {}",
        out.telemetry
    );
}

#[test]
fn warm_started_stratified_solve_resumes_mid_stratum() {
    // A conflict-starved first solve stops with the heaviest stratum still
    // in flight and the lighter strata pending; the session records both.
    // The unlimited resume must pick the search up from that state and
    // still land on the true optimum — the stashed bounds travel as
    // assumptions, so the carried clause DB stays a conservative
    // extension.
    let (inst, expected) = diverse_weighted_instance();
    let options = SolveOptions::default()
        .with_totalizer_units(u64::MAX)
        .with_strategy(Strategy::CoreGuided);
    let mut session = None;
    let starved = ResourceBudget::unlimited().conflicts_per_call(0);
    let first =
        maxsat::solve_with_session::<DefaultBackend>(&inst, &starved, &options, &mut session);
    assert_ne!(first.status, MaxSatStatus::Optimal);
    assert!(
        first.telemetry.strata > 1,
        "the interrupted solve already stratified: {}",
        first.telemetry
    );
    assert!(session.is_some(), "an interrupted solve leaves a session");

    let warm = maxsat::solve_with_session::<DefaultBackend>(
        &inst,
        &ResourceBudget::unlimited(),
        &options,
        &mut session,
    );
    assert_eq!(warm.status, MaxSatStatus::Optimal);
    assert_eq!(warm.cost, Some(expected));
    assert!(warm.telemetry.warm_start, "{}", warm.telemetry);
    let model = warm.model.as_ref().expect("optimal implies model");
    assert_eq!(inst.cost_of(model), Some(expected));
}
