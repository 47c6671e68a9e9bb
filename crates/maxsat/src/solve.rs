//! The anytime MaxSAT engine's entry points and option/outcome types.
//!
//! Mirrors the behaviour of Open-WBO-Inc-MCS as the paper uses it: an
//! engine that keeps the best model found so far and returns it when the
//! budget expires — the property SATMAP relies on for large circuits. The
//! search itself is pluggable (see [`crate::strategy`]): the classic
//! model-improving [`crate::LinearSatUnsat`] loop (default) or the
//! core-guided [`crate::CoreGuided`] lower-bounding search.
//!
//! The engine is generic over [`SatBackend`]; [`solve`] instantiates it
//! with the workspace default, and [`solve_with_backend`] lets callers
//! plug in alternatives. Budgets are deadline-based [`ResourceBudget`]s:
//! the engine arms the budget once and hands the *same deadline* to every
//! SAT call, so no call can overshoot the caller's allowance.

use sat::{ResourceBudget, SatBackend, SolverTelemetry};

use crate::session::MaxSatSession;
use crate::strategy::{CoreGuided, LinearSatUnsat, SearchContext, SearchStrategy, Strategy};
use crate::wcnf::WcnfInstance;

/// Status of a completed MaxSAT search.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum MaxSatStatus {
    /// The returned model has provably minimal cost.
    Optimal,
    /// A model was found but the budget expired before proving optimality.
    Feasible,
    /// The hard clauses are unsatisfiable.
    Unsat,
    /// The budget expired before any model was found.
    Unknown,
}

/// Tunables of the MaxSAT engine beyond the resource budget.
///
/// # Examples
///
/// ```
/// use maxsat::SolveOptions;
/// let opts = SolveOptions::default().with_totalizer_units(1000);
/// assert_eq!(opts.totalizer_units, 1000);
/// ```
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct SolveOptions {
    /// Number of quantization units the soft-weight range is divided into
    /// before building the generalized totalizer. The totalizer's size is
    /// bounded by the number of attainable weight sums, so heavy-weight
    /// instances are quantized down to roughly this many units; when every
    /// weight already fits (quantum 1) the search stays exact. Smaller
    /// values trade optimality precision for encoding size.
    pub totalizer_units: u64,
    /// Which search strategy drives the optimization (linear SAT-UNSAT by
    /// default; see [`Strategy`]).
    pub strategy: Strategy,
    /// Core-guided search only: partition the softs into weight strata
    /// (RC2-style, capped at [`SolveOptions::max_strata`]) and search
    /// highest-stratum-first, folding each stratum's proven bound into the
    /// next as assumptions. A no-op on uniform weights (one stratum).
    pub stratify: bool,
    /// Upper bound on the number of weight strata the partition may
    /// produce (the diversity cap); the tail merges into the last stratum.
    pub max_strata: usize,
    /// Core-guided search only: after relaxing a core, keep re-solving
    /// against the fresh totalizer's tightened bound while UNSAT persists,
    /// paying multiple weight units per core inside one search iteration.
    /// Only engages when the core's weight exceeds one quantum (unit-weight
    /// cores gain nothing per probe).
    pub core_exhaustion: bool,
    /// Core-guided search only: assert a soft hard once its remaining
    /// weight exceeds the incumbent-minus-lower-bound gap (no improving
    /// model can afford to falsify it).
    pub core_hardening: bool,
    /// Core-guided search only: SAT-call cap for the destructive
    /// core-trimming pass ([`sat::trim_core`]) run before each relaxation;
    /// 0 disables trimming.
    pub core_trim_probes: u32,
}

impl Default for SolveOptions {
    fn default() -> Self {
        SolveOptions {
            totalizer_units: 4000,
            strategy: Strategy::default(),
            stratify: true,
            max_strata: 8,
            core_exhaustion: true,
            core_hardening: true,
            core_trim_probes: 8,
        }
    }
}

impl SolveOptions {
    /// Returns a copy with the given totalizer quantization (clamped to at
    /// least 1 unit).
    pub fn with_totalizer_units(mut self, units: u64) -> Self {
        self.totalizer_units = units.max(1);
        self
    }

    /// Returns a copy selecting the given search strategy.
    pub fn with_strategy(mut self, strategy: Strategy) -> Self {
        self.strategy = strategy;
        self
    }

    /// Returns a copy with weight stratification switched on or off.
    pub fn with_stratify(mut self, on: bool) -> Self {
        self.stratify = on;
        self
    }

    /// Returns a copy with the given stratum diversity cap (clamped to at
    /// least 1).
    pub fn with_max_strata(mut self, cap: usize) -> Self {
        self.max_strata = cap.max(1);
        self
    }

    /// Returns a copy with core exhaustion switched on or off.
    pub fn with_core_exhaustion(mut self, on: bool) -> Self {
        self.core_exhaustion = on;
        self
    }

    /// Returns a copy with soft hardening switched on or off.
    pub fn with_core_hardening(mut self, on: bool) -> Self {
        self.core_hardening = on;
        self
    }

    /// Returns a copy with the given core-trimming probe cap (0 disables
    /// trimming).
    pub fn with_core_trim_probes(mut self, probes: u32) -> Self {
        self.core_trim_probes = probes;
        self
    }

    /// Returns a copy with every weight-aware core-guided refinement
    /// (stratification, exhaustion, hardening, trimming) switched off —
    /// the plain OLL search, kept reachable for A/B measurement.
    pub fn plain_core_guided(self) -> Self {
        self.with_stratify(false)
            .with_core_exhaustion(false)
            .with_core_hardening(false)
            .with_core_trim_probes(0)
    }
}

/// Result of [`solve`]: status plus the best model and its cost, if any.
#[derive(Clone, Debug)]
pub struct MaxSatOutcome {
    /// How the search ended.
    pub status: MaxSatStatus,
    /// Best model found (variable-indexed booleans), if any.
    pub model: Option<Vec<bool>>,
    /// Cost (total weight of falsified softs) of `model`.
    pub cost: Option<u64>,
    /// Number of SAT-solver invocations performed.
    pub iterations: u32,
    /// Weight quantum the totalizer was built with (`1` = exact weights;
    /// larger quanta can only claim [`MaxSatStatus::Feasible`]).
    pub quantum: u64,
    /// Name of the search strategy that produced this outcome.
    pub strategy: &'static str,
    /// True when the search stopped on its budget rather than on a proof,
    /// which tells an unfinished quantized search from a completed one.
    pub budget_exhausted: bool,
    /// Solver effort spent answering this call.
    pub telemetry: SolverTelemetry,
}

impl MaxSatOutcome {
    /// True if a model (optimal or not) is available.
    pub fn has_model(&self) -> bool {
        self.model.is_some()
    }
}

/// Solves a weighted partial MaxSAT instance with the default SAT backend.
///
/// Every soft clause gets an *indicator literal* that is true exactly when
/// the clause is falsified (unit softs reuse the negated literal; larger
/// softs get a fresh relaxer). A generalized totalizer over the indicators
/// then lets each iteration assert `cost ≤ best − 1` until UNSAT proves
/// optimality.
///
/// # Examples
///
/// ```
/// use maxsat::{WcnfInstance, solve, MaxSatStatus};
/// use sat::ResourceBudget;
///
/// let mut inst = WcnfInstance::new();
/// let a = inst.new_var().positive();
/// let b = inst.new_var().positive();
/// inst.add_hard([a, b]);      // a ∨ b
/// inst.add_soft(1, [!a]);     // prefer ¬a
/// inst.add_soft(1, [!b]);     // prefer ¬b
/// let out = solve(&inst, ResourceBudget::unlimited());
/// assert_eq!(out.status, MaxSatStatus::Optimal);
/// assert_eq!(out.cost, Some(1)); // exactly one soft must break
/// ```
pub fn solve(instance: &WcnfInstance, budget: ResourceBudget) -> MaxSatOutcome {
    solve_with_backend::<sat::DefaultBackend>(instance, budget)
}

/// [`solve`] with an explicit [`SatBackend`] implementation.
pub fn solve_with_backend<B: SatBackend + Default>(
    instance: &WcnfInstance,
    budget: ResourceBudget,
) -> MaxSatOutcome {
    solve_with_options::<B>(instance, &budget, &SolveOptions::default())
}

/// [`solve`] with an explicit backend and engine tunables: runs the
/// selected [`Strategy`] over a freshly encoded
/// [`SearchContext`](crate::SearchContext).
pub fn solve_with_options<B: SatBackend + Default>(
    instance: &WcnfInstance,
    budget: &ResourceBudget,
    options: &SolveOptions,
) -> MaxSatOutcome {
    let mut ctx = SearchContext::<B>::new(instance, budget, options);
    search(&mut ctx, options.strategy)
}

/// Runs `strategy` over a prepared context.
fn search<B: SatBackend + Default>(
    ctx: &mut SearchContext<'_, B>,
    strategy: Strategy,
) -> MaxSatOutcome {
    match strategy {
        Strategy::LinearSatUnsat => LinearSatUnsat.search(ctx),
        Strategy::CoreGuided => CoreGuided.search(ctx),
    }
}

/// [`solve_with_options`] with warm-start session reuse: a prior solve of
/// the *same* instance leaves its solver (clause arena, learned clauses,
/// saved phases), incumbent, and strategy progress in `session`, and this
/// call resumes from all of it instead of encoding and searching from
/// scratch. On return, `session` holds the updated state for the next call.
///
/// The caller must pass the same instance the session came from — that is
/// the soundness contract, exactly as for incremental SAT solving; the
/// routing layers key sessions by a canonical request fingerprint to
/// guarantee it, and [`MaxSatSession::compatible`] additionally rejects
/// obvious shape mismatches (falling back to a cold solve, never
/// corrupting).
///
/// Warm outcomes report `telemetry.warm_start = true` with
/// `telemetry.reused_clauses` counting the carried arena. See
/// [`MaxSatSession`] for the conservative-extension argument for why
/// clause reuse cannot change answers.
pub fn solve_with_session<B: SatBackend + Default>(
    instance: &WcnfInstance,
    budget: &ResourceBudget,
    options: &SolveOptions,
    session: &mut Option<MaxSatSession<B>>,
) -> MaxSatOutcome {
    let resumed = session.take().filter(|s| s.compatible(instance, options));
    let mut ctx = match resumed {
        Some(s) => SearchContext::resume(s, instance, budget, options),
        None => SearchContext::<B>::new(instance, budget, options),
    };
    let outcome = search(&mut ctx, options.strategy);
    *session = Some(ctx.into_session(options.strategy, options, &outcome));
    outcome
}

#[cfg(test)]
mod tests {
    use super::*;
    use sat::Lit;
    use std::time::Duration;

    fn lit(d: i64) -> Lit {
        Lit::from_dimacs(d)
    }

    #[test]
    fn pure_sat_no_softs() {
        let mut inst = WcnfInstance::new();
        inst.reserve_vars(2);
        inst.add_hard([lit(1), lit(2)]);
        let out = solve(&inst, ResourceBudget::unlimited());
        assert_eq!(out.status, MaxSatStatus::Optimal);
        assert_eq!(out.cost, Some(0));
    }

    #[test]
    fn hard_unsat() {
        let mut inst = WcnfInstance::new();
        inst.reserve_vars(1);
        inst.add_hard([lit(1)]);
        inst.add_hard([lit(-1)]);
        inst.add_soft(1, [lit(1)]);
        let out = solve(&inst, ResourceBudget::unlimited());
        assert_eq!(out.status, MaxSatStatus::Unsat);
        assert!(!out.has_model());
    }

    #[test]
    fn paper_example_4() {
        // Hard = {¬a ∨ b}, Soft = {b, a ∧ ¬b as two clauses is not the same;
        // the paper's soft "a∧¬b" is a single conjunctive formula. We encode
        // it via a fresh variable t with t ↔ a∧¬b and soft t.
        let mut inst = WcnfInstance::new();
        let a = inst.new_var().positive();
        let b = inst.new_var().positive();
        let t = inst.new_var().positive();
        inst.add_hard([!a, b]);
        // t ↔ (a ∧ ¬b)
        inst.add_hard([!t, a]);
        inst.add_hard([!t, !b]);
        inst.add_hard([t, !a, b]);
        inst.add_soft(1, [b]);
        inst.add_soft(1, [t]);
        let out = solve(&inst, ResourceBudget::unlimited());
        assert_eq!(out.status, MaxSatStatus::Optimal);
        // Exactly one of the two softs can hold (they are contradictory
        // under Hard), so minimal falsified weight is 1.
        assert_eq!(out.cost, Some(1));
    }

    #[test]
    fn weighted_example_12() {
        // Hard = {a ∨ b}, Soft = {(¬a, 5), (¬b, 1)} → keep ¬a, break ¬b.
        let mut inst = WcnfInstance::new();
        let a = inst.new_var().positive();
        let b = inst.new_var().positive();
        inst.add_hard([a, b]);
        inst.add_soft(5, [!a]);
        inst.add_soft(1, [!b]);
        let out = solve(&inst, ResourceBudget::unlimited());
        assert_eq!(out.status, MaxSatStatus::Optimal);
        assert_eq!(out.cost, Some(1));
        let m = out.model.expect("model");
        assert!(!m[a.var().index()]);
        assert!(m[b.var().index()]);
    }

    #[test]
    fn non_unit_softs() {
        // Softs are clauses, not just units.
        let mut inst = WcnfInstance::new();
        let a = inst.new_var().positive();
        let b = inst.new_var().positive();
        let c = inst.new_var().positive();
        inst.add_hard([!a, !b]); // a,b not both
        inst.add_soft(2, [a, c]);
        inst.add_soft(3, [b, c]);
        inst.add_soft(4, [!c]);
        // Setting c true satisfies the first two (weight 5) and breaks ¬c
        // (weight 4) → cost 4. Setting c false: must break one of the first
        // two (cost ≥ 2 with a=true,b=false → breaks (b∨c): cost 3; or
        // b=true: breaks (a∨c): cost 2). Optimal cost = 2.
        let out = solve(&inst, ResourceBudget::unlimited());
        assert_eq!(out.status, MaxSatStatus::Optimal);
        assert_eq!(out.cost, Some(2));
    }

    #[test]
    fn empty_soft_contributes_constant_cost() {
        let mut inst = WcnfInstance::new();
        let a = inst.new_var().positive();
        inst.add_hard([a]);
        inst.add_soft(7, []);
        inst.add_soft(1, [!a]);
        let out = solve(&inst, ResourceBudget::unlimited());
        assert_eq!(out.status, MaxSatStatus::Optimal);
        assert_eq!(out.cost, Some(8));
    }

    #[test]
    fn anytime_budget_returns_feasible_or_unknown() {
        // A larger instance with a tiny budget must not claim optimality
        // falsely and must not panic.
        let mut inst = WcnfInstance::new();
        let n = 30;
        let lits: Vec<Lit> = (0..n).map(|_| inst.new_var().positive()).collect();
        for w in lits.windows(2) {
            inst.add_hard([w[0], w[1]]);
        }
        for &l in &lits {
            inst.add_soft(1, [!l]);
        }
        let out = solve(&inst, ResourceBudget::with_time(Duration::from_millis(0)));
        assert!(matches!(
            out.status,
            MaxSatStatus::Feasible | MaxSatStatus::Unknown
        ));
    }

    #[test]
    fn linear_search_stops_building_a_runaway_totalizer_at_the_deadline() {
        // Every soft is falsified by a hard unit, so the first model costs
        // the total and linear search builds its totalizer. Over 40
        // distinct large weights at quantum 1 nearly every subset sum is
        // attainable: the build could never finish, so only its own budget
        // checks can stop it.
        let mut inst = WcnfInstance::new();
        for i in 0..40u64 {
            let x = inst.new_var().positive();
            inst.add_hard([x]);
            inst.add_soft(1_000_000_000 + i * i * i * 7_919 + i, [!x]);
        }
        let options = SolveOptions::default()
            .with_totalizer_units(u64::MAX)
            .with_strategy(Strategy::LinearSatUnsat);
        let started = std::time::Instant::now();
        let out = solve_with_options::<sat::DefaultBackend>(
            &inst,
            &ResourceBudget::with_time(Duration::from_millis(200)),
            &options,
        );
        let elapsed = started.elapsed();
        assert!(elapsed < Duration::from_secs(1), "ran {elapsed:?}");
        assert_eq!(out.quantum, 1);
        assert!(out.budget_exhausted);
        assert_eq!(out.status, MaxSatStatus::Feasible);
    }

    #[test]
    fn telemetry_reports_effort() {
        let mut inst = WcnfInstance::new();
        let a = inst.new_var().positive();
        let b = inst.new_var().positive();
        inst.add_hard([a, b]);
        inst.add_soft(1, [!a]);
        inst.add_soft(1, [!b]);
        let out = solve(&inst, ResourceBudget::unlimited());
        assert_eq!(out.status, MaxSatStatus::Optimal);
        assert_eq!(out.telemetry.sat_calls, u64::from(out.iterations));
        assert!(out.telemetry.sat_calls >= 1);
    }

    #[test]
    fn conflict_cap_still_terminates_with_answer_or_unknown() {
        let mut inst = WcnfInstance::new();
        let lits: Vec<Lit> = (0..12).map(|_| inst.new_var().positive()).collect();
        for w in lits.windows(2) {
            inst.add_hard([w[0], w[1]]);
        }
        for &l in &lits {
            inst.add_soft(1, [!l]);
        }
        let out = solve(&inst, ResourceBudget::unlimited().conflicts_per_call(1));
        // With a 1-conflict cap per call the engine may stop early but must
        // never misreport optimality of a worse-than-found model.
        if let (Some(model), Some(cost)) = (&out.model, out.cost) {
            assert_eq!(inst.cost_of(model), Some(cost));
        }
    }

    /// A small weighted instance with a nontrivial optimum, for the
    /// session tests.
    fn session_instance() -> WcnfInstance {
        let mut inst = WcnfInstance::new();
        let lits: Vec<Lit> = (0..8).map(|_| inst.new_var().positive()).collect();
        for w in lits.windows(2) {
            inst.add_hard([w[0], w[1]]);
        }
        for (i, &l) in lits.iter().enumerate() {
            inst.add_soft(1 + (i as u64 % 3), [!l]);
        }
        inst
    }

    #[test]
    fn warm_session_reaches_the_cold_optimum_faster() {
        for strategy in [Strategy::LinearSatUnsat, Strategy::CoreGuided] {
            let inst = session_instance();
            let options = SolveOptions::default().with_strategy(strategy);
            let mut session = None;
            let cold = solve_with_session::<sat::DefaultBackend>(
                &inst,
                &ResourceBudget::unlimited(),
                &options,
                &mut session,
            );
            assert_eq!(cold.status, MaxSatStatus::Optimal);
            assert!(!cold.telemetry.warm_start);
            assert_eq!(cold.telemetry.reused_clauses, 0);
            let s = session.as_ref().expect("cold solve leaves a session");
            assert_eq!(s.best_cost(), cold.cost);
            assert!(s.reusable_clauses() > 0);

            let warm = solve_with_session::<sat::DefaultBackend>(
                &inst,
                &ResourceBudget::unlimited(),
                &options,
                &mut session,
            );
            assert_eq!(warm.status, cold.status);
            assert_eq!(warm.cost, cold.cost, "strategy {strategy:?}");
            assert!(warm.telemetry.warm_start);
            assert!(warm.telemetry.reused_clauses > 0);
            // Resuming from the proved optimum needs at most one SAT call
            // (linear: one UNSAT under the seeded bound; OLL: one SAT
            // under the carried active set).
            assert!(warm.iterations <= 1, "strategy {strategy:?}");
            assert!(session.is_some(), "warm solve re-deposits the session");
        }
    }

    #[test]
    fn incompatible_session_degrades_to_a_cold_solve() {
        let inst = session_instance();
        let options = SolveOptions::default();
        let mut session = None;
        let _ = solve_with_session::<sat::DefaultBackend>(
            &inst,
            &ResourceBudget::unlimited(),
            &options,
            &mut session,
        );
        // A different instance shape must not resume from the session.
        let mut other = WcnfInstance::new();
        let a = other.new_var().positive();
        other.add_hard([a]);
        other.add_soft(1, [!a]);
        let out = solve_with_session::<sat::DefaultBackend>(
            &other,
            &ResourceBudget::unlimited(),
            &options,
            &mut session,
        );
        assert_eq!(out.status, MaxSatStatus::Optimal);
        assert_eq!(out.cost, Some(1));
        assert!(!out.telemetry.warm_start);
        // A strategy switch must not resume either (the carried totalizer
        // encoding is strategy-private).
        let core_opts = options.with_strategy(Strategy::CoreGuided);
        let out = solve_with_session::<sat::DefaultBackend>(
            &other,
            &ResourceBudget::unlimited(),
            &core_opts,
            &mut session,
        );
        assert_eq!(out.cost, Some(1));
        assert!(!out.telemetry.warm_start);
    }

    #[test]
    fn forked_sessions_warm_start_independently() {
        let inst = session_instance();
        let options = SolveOptions::default();
        let mut session = None;
        let cold = solve_with_session::<sat::DefaultBackend>(
            &inst,
            &ResourceBudget::unlimited(),
            &options,
            &mut session,
        );
        let base = session.take().expect("session recorded");
        for _ in 0..2 {
            let mut fork = Some(base.fork().expect("solver backend can snapshot"));
            let warm = solve_with_session::<sat::DefaultBackend>(
                &inst,
                &ResourceBudget::unlimited(),
                &options,
                &mut fork,
            );
            assert_eq!(warm.cost, cold.cost);
            assert!(warm.telemetry.warm_start);
        }
    }

    /// Brute-force reference for small weighted instances.
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

    #[test]
    fn matches_brute_force_on_small_instances() {
        use rand::{Rng, SeedableRng};
        let mut rng = rand::rngs::StdRng::seed_from_u64(42);
        for _ in 0..40 {
            let n = rng.gen_range(2..=6);
            let mut inst = WcnfInstance::new();
            inst.reserve_vars(n);
            for _ in 0..rng.gen_range(0..8) {
                let len = rng.gen_range(1..=3);
                let lits: Vec<Lit> = (0..len)
                    .map(|_| {
                        let v = rng.gen_range(1..=n as i64);
                        Lit::from_dimacs(if rng.gen_bool(0.5) { v } else { -v })
                    })
                    .collect();
                inst.add_hard(lits);
            }
            for _ in 0..rng.gen_range(1..6) {
                let len = rng.gen_range(1..=2);
                let lits: Vec<Lit> = (0..len)
                    .map(|_| {
                        let v = rng.gen_range(1..=n as i64);
                        Lit::from_dimacs(if rng.gen_bool(0.5) { v } else { -v })
                    })
                    .collect();
                inst.add_soft(rng.gen_range(1..5), lits);
            }
            let expect = brute_force(&inst);
            let out = solve(&inst, ResourceBudget::unlimited());
            match expect {
                None => assert_eq!(out.status, MaxSatStatus::Unsat),
                Some(c) => {
                    assert_eq!(out.status, MaxSatStatus::Optimal);
                    assert_eq!(out.cost, Some(c));
                }
            }
        }
    }
}
