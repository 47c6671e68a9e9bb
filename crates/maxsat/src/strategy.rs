//! Search strategies of the MaxSAT engine.
//!
//! The engine's optimality search is factored into a [`SearchStrategy`]
//! over a shared [`SearchContext`] (solver, soft-clause indicators, weight
//! quantum, budget, telemetry, incumbent model). Two strategies ship:
//!
//! * [`LinearSatUnsat`] — the classic model-improving search: find a
//!   model, assert `cost ≤ best − 1` through a generalized totalizer, and
//!   repeat until UNSAT proves optimality. Strong when models are easy to
//!   find and the optimum is near the first incumbent.
//! * [`CoreGuided`] — OLL-style lower-bounding search: solve under the
//!   assumption that *every* soft clause holds, extract an
//!   [`sat::SatBackend::unsat_core`], pay its minimum weight into the
//!   lower bound, and relax the core through a counting totalizer whose
//!   bound walks up one output at a time. The first SAT answer *is* the
//!   optimum. Strong when the optimum is small and cores are local.
//!
//! Every solve call runs exactly one of them, selected by [`Strategy`].
//! The SATMAP routers default to core-guided search on every objective:
//! on most routing instances it needs far fewer conflicts and SAT calls
//! than the linear search, which keeps a lead mainly on small circuits
//! whose optimum it proves in a few calls. Linear search stays the engine's
//! default and the test oracle, and is the anytime choice: it holds an
//! incumbent from its first model, while core-guided search on an
//! unweighted objective has none until it proves the optimum.
//!
//! Every bound in both strategies is passed as an **assumption**, never
//! asserted as a clause, so the clause database stays a conservative
//! extension of the instance — which keeps warm-start session reuse
//! sound. (Core-guided soft hardening is the one
//! deliberate, session-recorded exception.)

use std::collections::HashMap;
use std::time::Instant;

use sat::{Lit, ResourceBudget, SatBackend, SolveResult, SolverTelemetry, Stats};

use crate::encodings::Totalizer;
use crate::session::MaxSatSession;
use crate::solve::{MaxSatOutcome, MaxSatStatus, SolveOptions};
use crate::wcnf::WcnfInstance;

/// Conflict cap for core-trimming probes: probes refine a relaxation the
/// main loop already paid for, so one may never cost a main-loop call's
/// worth of search. A probe hitting the cap answers `Unknown` and the
/// trimming loop conservatively keeps the literal.
const TRIM_CONFLICT_CAP: u64 = 1_000;

/// Conflict cap for core-exhaustion probes, tighter than trimming's: a
/// profitable exhaustion step is refuted almost entirely by unit
/// propagation through the fresh totalizer (the core is already tight),
/// while a SAT answer means a model search the main loop would have to
/// redo anyway — probes that can't answer quickly aren't worth
/// finishing.
const EXHAUST_CONFLICT_CAP: u64 = 100;

/// Which search strategy drives [`crate::solve_with_options`].
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub enum Strategy {
    /// Model-improving linear SAT-UNSAT search (the engine's classic
    /// behaviour, and still the default).
    #[default]
    LinearSatUnsat,
    /// OLL-style core-guided lower-bounding search.
    CoreGuided,
}

impl Strategy {
    /// Short name for telemetry rows and experiment tables.
    pub fn name(self) -> &'static str {
        match self {
            Strategy::LinearSatUnsat => LinearSatUnsat.name(),
            Strategy::CoreGuided => CoreGuided.name(),
        }
    }
}

/// The state every strategy searches over: the loaded solver, the soft
/// indicators, the weight quantum, the armed budget, telemetry, and the
/// best model seen so far. Building the context performs the encoding
/// step every strategy shares (hard clauses + one indicator literal per
/// soft clause).
pub struct SearchContext<'a, B: SatBackend> {
    solver: B,
    instance: &'a WcnfInstance,
    /// `(indicator, weight)` per soft clause: the indicator is true
    /// exactly when the clause is falsified (at the optimum).
    indicators: Vec<(Lit, u64)>,
    /// Weight of always-falsified (empty) softs.
    constant_cost: u64,
    /// Weight quantum the totalizers are built with (1 = exact).
    quantum: u64,
    budget: ResourceBudget,
    telemetry: SolverTelemetry,
    stats_base: Stats,
    iterations: u32,
    best_model: Option<Vec<bool>>,
    best_cost: u64,
    /// Quantized cost of the incumbent (tracked alongside `best_cost` so a
    /// warm resume can seed the linear bound without re-evaluating).
    best_q_cost: u64,
    /// Strategy progress carried in by a warm resume, taken by the
    /// strategy on entry.
    resume_totalizer: Option<Totalizer>,
    resume_active: Option<Vec<(Lit, u64)>>,
    resume_pending: Vec<Vec<(Lit, u64)>>,
    /// Strategy progress deposited on exit, collected into the next
    /// [`MaxSatSession`] by [`crate::solve_with_session`].
    stashed_totalizer: Option<Totalizer>,
    stashed_active: Option<Vec<(Lit, u64)>>,
    stashed_pending: Vec<Vec<(Lit, u64)>>,
    /// Soft indicators asserted hard so far (carried across resumes so
    /// the session stays self-describing; new hardenings append).
    hardened: Vec<Lit>,
    /// Weight-aware core-guided knobs, copied from [`SolveOptions`].
    stratify: bool,
    max_strata: usize,
    core_exhaustion: bool,
    core_hardening: bool,
    core_trim_probes: u32,
}

impl<'a, B: SatBackend + Default> SearchContext<'a, B> {
    /// Encodes `instance` into a fresh backend: hard clauses, then one
    /// indicator per soft clause (unit softs reuse the negated literal;
    /// larger softs get a fresh relaxer, free to be false whenever the
    /// clause is satisfied). Arms the budget.
    ///
    /// The call's solver effort is counted from before the load, so root
    /// propagation of the hard clauses is part of it.
    pub fn new(
        instance: &'a WcnfInstance,
        budget: &ResourceBudget,
        options: &SolveOptions,
    ) -> Self {
        let budget = budget.arm();
        let mut telemetry = SolverTelemetry::new();
        let mut solver = B::default();
        let stats_base = *solver.stats();

        let encode_start = Instant::now();
        solver.reserve_vars(instance.num_vars());
        solver.add_clauses(instance.hard_clauses());
        let mut indicators: Vec<(Lit, u64)> = Vec::with_capacity(instance.soft_clauses().len());
        let mut clause: Vec<Lit> = Vec::new();
        for s in instance.soft_clauses() {
            match s.lits.as_slice() {
                [] => continue, // an empty soft is always falsified; constant cost
                [l] => indicators.push((!*l, s.weight)),
                lits => {
                    let r = solver.new_var().positive();
                    clause.clear();
                    clause.extend_from_slice(lits);
                    clause.push(r);
                    solver.add_clause(&clause);
                    // r is free to be false whenever the clause is satisfied,
                    // and the objective pushes it false, so r ⇔ falsified at
                    // the optimum.
                    indicators.push((r, s.weight));
                }
            }
        }
        telemetry.encode_time += encode_start.elapsed();

        let constant_cost: u64 = instance
            .soft_clauses()
            .iter()
            .filter(|s| s.lits.is_empty())
            .map(|s| s.weight)
            .sum();
        // Quantize weights so the totalizers' attainable-sum counts stay
        // small; quantum 1 keeps the search exact.
        let total_weight: u64 = indicators.iter().map(|&(_, w)| w).sum();
        let quantum = (total_weight / options.totalizer_units.max(1)).max(1);

        SearchContext {
            solver,
            instance,
            indicators,
            constant_cost,
            quantum,
            budget,
            telemetry,
            stats_base,
            iterations: 0,
            best_model: None,
            best_cost: u64::MAX,
            best_q_cost: u64::MAX,
            resume_totalizer: None,
            resume_active: None,
            resume_pending: Vec::new(),
            stashed_totalizer: None,
            stashed_active: None,
            stashed_pending: Vec::new(),
            hardened: Vec::new(),
            stratify: options.stratify,
            max_strata: options.max_strata.max(1),
            core_exhaustion: options.core_exhaustion,
            core_hardening: options.core_hardening,
            core_trim_probes: options.core_trim_probes,
        }
    }

    /// Rebuilds a context from a prior solve's [`MaxSatSession`] instead
    /// of encoding from scratch: the session's solver (clause arena,
    /// learned clauses, saved phases), indicators, incumbent, and strategy
    /// progress all carry over. The caller must pass the *same* instance
    /// the session was built from (checked cheaply by
    /// [`MaxSatSession::compatible`]; keyed exactly by the route-level
    /// fingerprint). Arms `budget`.
    ///
    /// The resumed telemetry reports `warm_start = true` and counts every
    /// clause already in the arena as `reused_clauses` — the encoding work
    /// this resume did *not* redo.
    pub fn resume(
        session: MaxSatSession<B>,
        instance: &'a WcnfInstance,
        budget: &ResourceBudget,
        options: &SolveOptions,
    ) -> Self {
        let budget = budget.arm();
        let solver = session.solver;
        let mut telemetry = SolverTelemetry::new();
        telemetry.warm_start = true;
        telemetry.reused_clauses = solver.num_clauses() as u64;
        let stats_base = *solver.stats();
        let (best_model, best_cost, best_q_cost) = match session.best_model {
            Some(model) => (Some(model), session.best_cost, session.best_q_cost),
            None => (None, u64::MAX, u64::MAX),
        };
        SearchContext {
            solver,
            instance,
            indicators: session.indicators,
            constant_cost: session.constant_cost,
            quantum: session.quantum,
            budget,
            telemetry,
            stats_base,
            iterations: 0,
            best_model,
            best_cost,
            best_q_cost,
            resume_totalizer: session.totalizer,
            resume_active: session.oll_active,
            resume_pending: session.oll_pending,
            stashed_totalizer: None,
            stashed_active: None,
            stashed_pending: Vec::new(),
            hardened: session.oll_hardened,
            stratify: options.stratify,
            max_strata: options.max_strata.max(1),
            core_exhaustion: options.core_exhaustion,
            core_hardening: options.core_hardening,
            core_trim_probes: options.core_trim_probes,
        }
    }

    /// Packs the post-search state into a session for the next solve of
    /// the same instance. `outcome` supplies the incumbent (the search
    /// took it out of the context when it finished).
    pub fn into_session(
        self,
        strategy: Strategy,
        options: &SolveOptions,
        outcome: &MaxSatOutcome,
    ) -> MaxSatSession<B> {
        MaxSatSession {
            solver: self.solver,
            indicators: self.indicators,
            constant_cost: self.constant_cost,
            quantum: self.quantum,
            strategy,
            totalizer: self.stashed_totalizer,
            oll_active: self.stashed_active,
            oll_pending: self.stashed_pending,
            oll_hardened: self.hardened,
            best_model: outcome.model.clone(),
            best_cost: outcome.cost.unwrap_or(u64::MAX),
            best_q_cost: self.best_q_cost,
            instance_vars: self.instance.num_vars(),
            hard_count: self.instance.hard_clauses().len(),
            soft_count: self.instance.soft_clauses().len(),
            totalizer_units: options.totalizer_units,
        }
    }

    /// The weight quantum the totalizers use (1 = exact search).
    pub fn quantum(&self) -> u64 {
        self.quantum
    }

    /// Weight of empty softs — the floor no model can beat.
    pub fn constant_cost(&self) -> u64 {
        self.constant_cost
    }

    /// Cost of the incumbent model (meaningless before the first model).
    pub fn best_cost(&self) -> u64 {
        self.best_cost
    }

    /// True once any model has been recorded.
    pub fn has_model(&self) -> bool {
        self.best_model.is_some()
    }

    /// True once the armed budget has expired (or was cancelled).
    pub fn budget_expired(&self) -> bool {
        self.budget.expired()
    }

    /// Quantized cost of the incumbent (only meaningful once
    /// [`SearchContext::has_model`] holds).
    pub fn best_q_cost(&self) -> u64 {
        self.best_q_cost
    }

    /// Takes the linear strengthening totalizer carried in by a warm
    /// resume, if any.
    pub fn take_resume_totalizer(&mut self) -> Option<Totalizer> {
        self.resume_totalizer.take()
    }

    /// Takes the core-guided active assumption set carried in by a warm
    /// resume, if any.
    pub fn take_resume_active(&mut self) -> Option<Vec<(Lit, u64)>> {
        self.resume_active.take()
    }

    /// Takes the not-yet-activated weight strata carried in by a warm
    /// resume (empty for cold starts and unstratified sessions).
    pub fn take_resume_pending(&mut self) -> Vec<Vec<(Lit, u64)>> {
        std::mem::take(&mut self.resume_pending)
    }

    /// Deposits the linear totalizer for collection into the next session.
    pub fn stash_totalizer(&mut self, totalizer: Option<Totalizer>) {
        self.stashed_totalizer = totalizer;
    }

    /// Deposits the core-guided active set for collection into the next
    /// session.
    pub fn stash_active(&mut self, active: Vec<(Lit, u64)>) {
        self.stashed_active = Some(active);
    }

    /// Deposits the unactivated strata for collection into the next
    /// session, so a resume picks the search up mid-stratum.
    pub fn stash_pending(&mut self, pending: Vec<Vec<(Lit, u64)>>) {
        self.stashed_pending = pending;
    }

    /// `(indicator, quantized weight)` pairs — the totalizer inputs.
    pub fn quantized_indicators(&self) -> Vec<(Lit, u64)> {
        self.indicators
            .iter()
            .map(|&(l, w)| (l, w.div_ceil(self.quantum)))
            .collect()
    }

    /// One SAT call under `assumptions` within the shared budget, with the
    /// solve time and iteration count charged to the context.
    pub fn solve(&mut self, assumptions: &[Lit]) -> SolveResult {
        self.iterations += 1;
        let solve_start = Instant::now();
        let result = self
            .solver
            .solve_under_assumptions(assumptions, &self.budget);
        self.telemetry.solve_time += solve_start.elapsed();
        result
    }

    /// Builds a totalizer over `inputs` into the solver within the shared
    /// budget, charging its wall time to the telemetry's encode bucket.
    /// `None` means the budget expired mid-build (see [`Totalizer::build`]).
    pub fn build_totalizer(&mut self, inputs: &[(Lit, u64)]) -> Option<Totalizer> {
        let encode_start = Instant::now();
        let tot = Totalizer::build(&mut self.solver, inputs, &self.budget);
        self.telemetry.encode_time += encode_start.elapsed();
        tot
    }

    /// The subset of assumptions behind the last UNSAT answer.
    pub fn core(&self) -> Vec<Lit> {
        self.solver.unsat_core().to_vec()
    }

    /// An auxiliary SAT call that does not advance the search iteration
    /// count: exhaustion probes and trimming probes are sub-steps of one
    /// core relaxation, so `iterations` (and the `sat_calls` telemetry
    /// derived from it) keeps counting main-loop decisions only. The
    /// solve time is still charged, and `conflict_cap` keeps any single
    /// probe from burning a main-loop call's worth of search — a capped
    /// probe answers `Unknown`, which every probing loop treats as "stop
    /// refining, the main loop still makes progress".
    pub fn probe(&mut self, assumptions: &[Lit], conflict_cap: u64) -> SolveResult {
        let budget = self.probe_budget(conflict_cap);
        let solve_start = Instant::now();
        let result = self.solver.solve_under_assumptions(assumptions, &budget);
        self.telemetry.solve_time += solve_start.elapsed();
        result
    }

    /// Runs the budget-capped destructive trimming pass ([`sat::trim_core`])
    /// over a fresh core; a no-op when trimming is disabled or the core is
    /// already minimal-sized. Probe time and conflict caps charge like
    /// [`SearchContext::probe`].
    pub fn trim(&mut self, core: Vec<Lit>) -> Vec<Lit> {
        if self.core_trim_probes == 0 || core.len() < 3 {
            return core;
        }
        let budget = self.probe_budget(TRIM_CONFLICT_CAP);
        let solve_start = Instant::now();
        let trimmed = sat::trim_core(&mut self.solver, core, &budget, self.core_trim_probes);
        self.telemetry.solve_time += solve_start.elapsed();
        trimmed
    }

    /// The search budget with a probe conflict cap applied (a caller's
    /// own, stricter cap still wins — a child can only tighten).
    fn probe_budget(&self, cap: u64) -> ResourceBudget {
        let cap = self.budget.conflict_cap().map_or(cap, |c| c.min(cap));
        self.budget.conflicts_per_call(cap)
    }

    /// True when core exhaustion may engage: the knob is on *and* the
    /// weights are diverse — the same gate as stratification, because
    /// both pay off through large per-core weights. On clustered weights
    /// the probes perturb the solver's saved phases (each probe searches
    /// under a single assumption, far from the main loop's trajectory)
    /// for bounds the main loop would prove in one cheap call anyway —
    /// measured ~2x extra conflicts on the quantized fidelity objective.
    /// (The search additionally skips cores worth a single quantum,
    /// where a probe cannot pay more than a main-loop call would.)
    pub fn exhaustion_enabled(&self) -> bool {
        self.core_exhaustion && self.weights_diverse()
    }

    /// RC2-style weight-diversity signal: more distinct quantized weights
    /// than the square root of the soft count. Derived from the original
    /// indicators (not residual weights), so it is stable across warm
    /// resumes.
    pub fn weights_diverse(&self) -> bool {
        let distinct = self
            .indicators
            .iter()
            .map(|&(_, w)| w.div_ceil(self.quantum))
            .collect::<std::collections::BTreeSet<_>>()
            .len();
        distinct * distinct > self.indicators.len()
    }

    /// Records one paid exhaustion step in the telemetry.
    pub fn count_exhaustion_step(&mut self) {
        self.telemetry.exhaustion_steps += 1;
    }

    /// Records the stratum count of this search in the telemetry (a
    /// gauge; `1` means stratification had nothing to split).
    pub fn record_strata(&mut self, strata: u64) {
        self.telemetry.strata = self.telemetry.strata.max(strata);
    }

    /// RC2-style soft hardening: any assumption whose remaining weight
    /// exceeds the incumbent-minus-lower-bound gap cannot be violated by a
    /// model better than the incumbent, so it is asserted hard (a unit
    /// clause) and dropped from the assumption lists for the rest of the
    /// search. `paid` is the lower bound proved so far; the upper bound is
    /// the incumbent's quantized cost (backed by an actual model, so the
    /// hardened formula stays satisfiable).
    ///
    /// Sound for the search's claim because hardening only excludes models
    /// whose quantized cost provably exceeds the incumbent's — every
    /// quantized-optimal model survives.
    pub fn harden(
        &mut self,
        paid: u64,
        active: &mut Vec<(Lit, u64)>,
        pending: &mut Vec<Vec<(Lit, u64)>>,
    ) -> u64 {
        if !self.core_hardening || self.best_model.is_none() {
            return 0;
        }
        let ub = self.best_q_cost;
        let mut count = 0u64;
        let mut harden_list =
            |solver: &mut B, hardened: &mut Vec<Lit>, list: &mut Vec<(Lit, u64)>| {
                list.retain(|&(l, w)| {
                    if paid.saturating_add(w) > ub {
                        solver.add_clause(&[l]);
                        hardened.push(l);
                        count += 1;
                        false
                    } else {
                        true
                    }
                });
            };
        harden_list(&mut self.solver, &mut self.hardened, active);
        for stratum in pending.iter_mut() {
            harden_list(&mut self.solver, &mut self.hardened, stratum);
        }
        pending.retain(|s| !s.is_empty());
        self.telemetry.hardened_softs += count;
        count
    }

    /// Number of softs hardened so far (across resumes).
    pub fn hardened_count(&self) -> usize {
        self.hardened.len()
    }

    /// Partitions merged `(assumption, weight)` pairs into weight strata,
    /// highest-first. Weights within 2x of a stratum's heaviest member
    /// share its stratum (log-scale buckets), and at most
    /// [`SolveOptions::max_strata`] strata survive — the tail merges into
    /// the last. With stratification off the whole set is one stratum,
    /// recovering plain OLL.
    ///
    /// Stratification only engages when the weight *diversity* is high
    /// (RC2-style): more distinct weights than the square root of the
    /// soft count. Below that, weights are too clustered for
    /// highest-first search to order cores usefully, and the extra
    /// model-finding SAT call per stratum boundary is pure overhead —
    /// measured ~1.7x slower on the quantized fidelity objective, whose
    /// 473 softs collapse onto ~20 distinct quantized weights.
    pub fn stratify(&self, mut merged: Vec<(Lit, u64)>) -> Vec<Vec<(Lit, u64)>> {
        // Stable sort: equal weights keep indicator order, so the
        // partition is deterministic.
        merged.sort_by_key(|&(_, w)| std::cmp::Reverse(w));
        let cap = if self.stratify && self.weights_diverse() {
            self.max_strata
        } else {
            1
        };
        let mut strata: Vec<Vec<(Lit, u64)>> = Vec::new();
        for (l, w) in merged {
            let at_cap = strata.len() == cap;
            match strata.last_mut() {
                Some(s) if at_cap || w.saturating_mul(2) > s[0].1 => s.push((l, w)),
                _ => strata.push(vec![(l, w)]),
            }
        }
        strata
    }

    /// Evaluates the solver's current model against the *original*
    /// instance (the model may set relaxers true spuriously), records it
    /// when it beats the incumbent, and returns `(true cost, quantized
    /// cost)` — the quantized cost of *this* model drives the linear
    /// strategy's strengthening.
    pub fn observe_model(&mut self) -> (u64, u64) {
        let model = self.solver.model();
        let cost = self
            .instance
            .cost_of(&model)
            .expect("SAT model must satisfy hard clauses");
        let q_cost: u64 = self
            .indicators
            .iter()
            .filter(|&&(l, _)| {
                model.get(l.var().index()).copied().unwrap_or(false) == l.is_positive()
            })
            .map(|&(_, w)| w.div_ceil(self.quantum))
            .sum();
        if cost < self.best_cost {
            self.best_cost = cost;
            self.best_q_cost = q_cost;
            self.best_model = Some(model);
        }
        (cost, q_cost)
    }

    /// The status a completed (exhausted) search may claim: exact-weight
    /// searches prove optimality, quantized ones only feasibility up to
    /// the quantization error. An incumbent that falsifies nothing but the
    /// empty softs sits on the floor no model can beat, so it is optimal
    /// whatever the quantum.
    pub fn proved_status(&self) -> MaxSatStatus {
        if self.quantum == 1 || (self.has_model() && self.best_cost == self.constant_cost) {
            MaxSatStatus::Optimal
        } else {
            MaxSatStatus::Feasible
        }
    }

    /// The single exit path of every strategy: snapshots the backend's
    /// statistics into the telemetry and assembles the outcome around the
    /// incumbent model.
    pub fn finish(&mut self, status: MaxSatStatus, strategy: &'static str) -> MaxSatOutcome {
        let stats = *self.solver.stats();
        let base = &self.stats_base;
        let t = &mut self.telemetry;
        t.sat_calls = u64::from(self.iterations);
        t.conflicts = stats.conflicts - base.conflicts;
        t.decisions = stats.decisions - base.decisions;
        t.propagations = stats.propagations - base.propagations;
        t.restarts = stats.restarts - base.restarts;
        t.db_reductions = stats.reductions - base.reductions;
        t.compactions = stats.compactions - base.compactions;
        // A gauge, not a counter: report the backend's current arena
        // footprint.
        t.arena_bytes = stats.arena_bytes;
        t.strategy = Some(strategy);
        let model = self.best_model.take();
        let cost = model.as_ref().map(|_| self.best_cost);
        MaxSatOutcome {
            status,
            model,
            cost,
            iterations: self.iterations,
            quantum: self.quantum,
            strategy,
            budget_exhausted: false,
            telemetry: *t,
        }
    }

    /// [`SearchContext::finish`] for searches that stop without a proof: a
    /// recorded model downgrades to `Feasible`, none at all is `Unknown`.
    pub fn finish_unproven(&mut self, strategy: &'static str) -> MaxSatOutcome {
        let status = if self.has_model() {
            MaxSatStatus::Feasible
        } else {
            MaxSatStatus::Unknown
        };
        self.finish(status, strategy)
    }

    /// [`SearchContext::finish_unproven`] for searches that ran out of
    /// budget, flagged as such on the outcome.
    pub fn finish_exhausted(&mut self, strategy: &'static str) -> MaxSatOutcome {
        let mut outcome = self.finish_unproven(strategy);
        outcome.budget_exhausted = true;
        outcome
    }
}

/// One search strategy of the MaxSAT engine, running over a prepared
/// [`SearchContext`] until it can prove a status or exhausts the budget.
pub trait SearchStrategy {
    /// Short name for telemetry rows and experiment tables.
    fn name(&self) -> &'static str;

    /// Runs the search to completion (or budget exhaustion).
    fn search<B: SatBackend + Default>(&self, ctx: &mut SearchContext<'_, B>) -> MaxSatOutcome;
}

/// The model-improving linear SAT-UNSAT search (Open-WBO-Inc-MCS style):
/// each model strengthens the bound `cost ≤ best − 1` until UNSAT proves
/// optimality. The bound is passed as a single *assumption* on the
/// totalizer's smallest violated output (the ordering chain propagates the
/// rest), never asserted as a clause — so the clause database stays a
/// conservative extension of the instance and lemmas remain shareable.
pub struct LinearSatUnsat;

impl SearchStrategy for LinearSatUnsat {
    fn name(&self) -> &'static str {
        "linear-sat-unsat"
    }

    fn search<B: SatBackend + Default>(&self, ctx: &mut SearchContext<'_, B>) -> MaxSatOutcome {
        let mut totalizer: Option<Totalizer> = ctx.take_resume_totalizer();
        // The current strengthening bound: ¬o for the smallest attainable
        // sum above the target (ordering clauses propagate ¬ upward).
        let mut bound: Option<Lit> = None;
        // Warm resume with an incumbent: skip the initial model hunt and
        // go straight to strengthening the prior bound — the carried
        // learned clauses make the closing UNSAT proof cheap. Incumbents
        // already sitting on a proved floor finish without solving at all.
        if ctx.has_model() {
            if ctx.best_cost() == ctx.constant_cost() || ctx.best_q_cost() == 0 {
                let status = ctx.proved_status();
                let outcome = ctx.finish(status, self.name());
                ctx.stash_totalizer(totalizer);
                return outcome;
            }
            if totalizer.is_none() {
                let inputs = ctx.quantized_indicators();
                totalizer = ctx.build_totalizer(&inputs);
            }
            let Some(tot) = &totalizer else {
                return ctx.finish_exhausted(self.name());
            };
            bound = tot.assert_at_most(ctx.best_q_cost() - 1).first().copied();
        }
        let outcome = loop {
            if ctx.budget_expired() {
                break ctx.finish_exhausted(self.name());
            }
            let assumptions: Vec<Lit> = bound.into_iter().collect();
            match ctx.solve(&assumptions) {
                SolveResult::Sat => {
                    let (_cost, q_cost) = ctx.observe_model();
                    if ctx.best_cost() == ctx.constant_cost() || q_cost == 0 {
                        // Nothing but empty softs falsified (the floor no
                        // model can beat), or the quantized optimum: the
                        // bound cannot be strengthened.
                        let status = ctx.proved_status();
                        break ctx.finish(status, self.name());
                    }
                    // Lazily build the totalizer on first strengthening;
                    // its size is bounded by the number of attainable
                    // (quantized) weight sums.
                    if totalizer.is_none() {
                        let inputs = ctx.quantized_indicators();
                        totalizer = ctx.build_totalizer(&inputs);
                    }
                    let Some(tot) = &totalizer else {
                        break ctx.finish_exhausted(self.name());
                    };
                    // q_cost is an attainable sum, so the list is nonempty
                    // and the next call's model must strengthen strictly.
                    bound = tot.assert_at_most(q_cost - 1).first().copied();
                }
                SolveResult::Unsat => {
                    // No model below the bound: the incumbent is the
                    // (quantized) optimum. Without an incumbent the hard
                    // clauses themselves are unsatisfiable.
                    let status = if ctx.has_model() {
                        ctx.proved_status()
                    } else {
                        MaxSatStatus::Unsat
                    };
                    break ctx.finish(status, self.name());
                }
                SolveResult::Unknown => break ctx.finish_exhausted(self.name()),
            }
        };
        ctx.stash_totalizer(totalizer);
        outcome
    }
}

/// Where a core-guided assumption came from, so a core containing it can
/// walk the owning totalizer's bound one output upward.
type RelaxSource = (usize, u64, u64); // (totalizer index, output sum, weight)

/// OLL-style core-guided search, weight-aware end to end:
///
/// * **Stratification** — softs are partitioned into weight strata
///   ([`SearchContext::stratify`]) and searched highest-stratum-first;
///   each SAT answer with strata still pending yields an incumbent and
///   folds the next stratum into the assumption set. Heavy softs shape
///   the search before light ones dilute the cores.
/// * **Core trimming** — every fresh core is shrunk by a budget-capped
///   destructive pass ([`sat::trim_core`]) before its relaxation
///   totalizer is built, keeping the relaxation encoding small.
/// * **Core exhaustion** — after relaxing a core, the totalizer's bound
///   is tightened while UNSAT persists (RC2-style), paying multiple
///   weight units per core instead of rediscovering the same conflict
///   one main-loop call at a time. Engages only for cores worth more
///   than one weight unit.
/// * **Soft hardening** — once an incumbent exists, assumptions whose
///   remaining weight exceeds the incumbent-minus-lower-bound gap are
///   asserted hard ([`SearchContext::harden`]).
///
/// Every bound still travels as an assumption (hardened units are the
/// deliberate, session-recorded exception), and the first SAT answer
/// with *every* stratum active is the (quantized) optimum.
pub struct CoreGuided;

impl SearchStrategy for CoreGuided {
    fn name(&self) -> &'static str {
        "core-guided"
    }

    fn search<B: SatBackend + Default>(&self, ctx: &mut SearchContext<'_, B>) -> MaxSatOutcome {
        // Active assumptions with their remaining (quantized) weights,
        // plus the weight strata not yet folded in (highest-first).
        // Duplicate indicator literals merge by summing weights so cores
        // map back to unique assumptions. A warm resume starts from the
        // prior search's active set and unactivated strata — the lower
        // bound it paid for is implicit in the reduced weights, so no
        // core is re-derived. (The successor map restarts empty: walking
        // a carried totalizer's bound upward is an optimization, and
        // without it a repeated core still pays weight and terminates —
        // the bound strictly rises.)
        let (mut active, mut pending) = match ctx.take_resume_active() {
            Some(active) => (active, ctx.take_resume_pending()),
            None => {
                let mut merged: Vec<(Lit, u64)> = Vec::new();
                for (l, w) in ctx.quantized_indicators() {
                    let assumption = !l;
                    match merged.iter_mut().find(|(a, _)| *a == assumption) {
                        Some((_, total)) => *total += w,
                        None => merged.push((assumption, w)),
                    }
                }
                let mut strata = ctx.stratify(merged);
                let first = if strata.is_empty() {
                    Vec::new()
                } else {
                    strata.remove(0)
                };
                (first, strata)
            }
        };
        ctx.record_strata(1 + pending.len() as u64);
        let mut relaxations: Vec<Totalizer> = Vec::new();
        let mut successors: HashMap<Lit, RelaxSource> = HashMap::new();
        // Lower bound proved *by this call* (core payments). Starts at 0
        // even on a warm resume — prior payments are implicit in the
        // reduced weights. Payments stay sound while strata are pending:
        // a core over the heavy strata lower-bounds the full objective
        // because the unfolded light softs can only add cost.
        let mut paid: u64 = 0;

        let outcome = loop {
            if ctx.budget_expired() {
                break ctx.finish_exhausted(self.name());
            }
            // An own incumbent (a stratum-fold model or an exhaustion
            // probe's) whose quantized cost meets the proved lower bound
            // *is* the quantized optimum — claim it without another call.
            if ctx.has_model() && ctx.best_q_cost() <= paid {
                let status = ctx.proved_status();
                break ctx.finish(status, self.name());
            }
            let assumptions: Vec<Lit> = active.iter().map(|&(l, _)| l).collect();
            match ctx.solve(&assumptions) {
                SolveResult::Sat => {
                    // OLL invariant: a model under the current assumptions
                    // meets the lower bound exactly. With every stratum
                    // active it is the optimum; otherwise it is the
                    // incumbent that unlocks the next stratum (and soft
                    // hardening against the fresh upper bound).
                    ctx.observe_model();
                    if pending.is_empty() {
                        let status = ctx.proved_status();
                        break ctx.finish(status, self.name());
                    }
                    active.extend(pending.remove(0));
                    ctx.harden(paid, &mut active, &mut pending);
                }
                SolveResult::Unsat => {
                    let core = ctx.core();
                    if core.is_empty() {
                        // The conflict is independent of every assumption.
                        // Without hardened clauses that means the hard
                        // clauses themselves are unsatisfiable; with them
                        // the conflict may rest on a unit that is only
                        // sound relative to the incumbent, so no Unsat
                        // claim — the incumbent stands as Feasible.
                        if ctx.hardened_count() > 0 {
                            break ctx.finish_unproven(self.name());
                        }
                        break ctx.finish(MaxSatStatus::Unsat, self.name());
                    }
                    let core = ctx.trim(core);
                    // The core's relaxation counts its violated members.
                    // Built before any weight is paid, so a build the
                    // budget cuts short leaves the active set consistent.
                    let relaxation = if core.len() > 1 {
                        let inputs: Vec<(Lit, u64)> = core.iter().map(|&c| (!c, 1)).collect();
                        match ctx.build_totalizer(&inputs) {
                            Some(tot) => Some(tot),
                            None => break ctx.finish_exhausted(self.name()),
                        }
                    } else {
                        None
                    };
                    let min_w = core
                        .iter()
                        .filter_map(|c| active.iter().find(|(l, _)| l == c).map(|&(_, w)| w))
                        .min()
                        .expect("core literals are active assumptions");
                    paid += min_w;
                    // Pay min_w into the lower bound: every core member's
                    // weight drops by it, and members reaching zero retire.
                    for c in &core {
                        let entry = active
                            .iter_mut()
                            .find(|(l, _)| l == c)
                            .expect("core ⊆ assumptions");
                        entry.1 -= min_w;
                        // First core appearance of a totalizer output:
                        // walk that totalizer's bound one output upward.
                        if let Some((t, sum, w)) = successors.remove(c) {
                            if let Some(next) = relaxations[t].output_for(sum + 1) {
                                active.push((!next, w));
                                successors.insert(!next, (t, sum + 1, w));
                            }
                        }
                    }
                    active.retain(|&(_, w)| w > 0);
                    // Relax the core: allow one violated member for free
                    // (the lower bound already paid for it).
                    if let Some(tot) = relaxation {
                        // Exhaustion: tighten the fresh totalizer's bound
                        // while UNSAT persists, paying min_w per step — a
                        // probe at bound b proves every model violates ≥ b
                        // core members, i.e. costs ≥ paid + min_w more.
                        // Worth the probes only when min_w > 1: a unit-
                        // weight core pays no faster here than the main
                        // loop would, and the probes aren't free.
                        let mut bound = 2;
                        if ctx.exhaustion_enabled() && min_w > 1 {
                            while let Some(o) = tot.output_for(bound) {
                                match ctx.probe(&[!o], EXHAUST_CONFLICT_CAP) {
                                    SolveResult::Unsat => {
                                        paid += min_w;
                                        ctx.count_exhaustion_step();
                                        bound += 1;
                                    }
                                    SolveResult::Sat => {
                                        // A probe model is a real model of
                                        // the hard clauses — a free
                                        // incumbent candidate.
                                        ctx.observe_model();
                                        break;
                                    }
                                    SolveResult::Unknown => break,
                                }
                            }
                        }
                        // The surviving bound joins the assumptions; ¬o
                        // walks upward as later cores include it.
                        if let Some(o) = tot.output_for(bound) {
                            active.push((!o, min_w));
                            successors.insert(!o, (relaxations.len(), bound, min_w));
                        }
                        relaxations.push(tot);
                    }
                    ctx.harden(paid, &mut active, &mut pending);
                }
                SolveResult::Unknown => break ctx.finish_exhausted(self.name()),
            }
        };
        ctx.stash_active(active);
        ctx.stash_pending(pending);
        outcome
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use sat::DefaultBackend;

    fn lit(d: i64) -> Lit {
        Lit::from_dimacs(d)
    }

    /// Weighted instance with a known optimum, solved by every strategy.
    fn weighted_instance() -> WcnfInstance {
        let mut inst = WcnfInstance::new();
        let a = inst.new_var().positive();
        let b = inst.new_var().positive();
        inst.add_hard([a, b]);
        inst.add_soft(5, [!a]);
        inst.add_soft(1, [!b]);
        inst
    }

    fn search_with<S: SearchStrategy>(strategy: &S, inst: &WcnfInstance) -> MaxSatOutcome {
        let mut ctx = SearchContext::<DefaultBackend>::new(
            inst,
            &ResourceBudget::unlimited(),
            &SolveOptions::default(),
        );
        strategy.search(&mut ctx)
    }

    #[test]
    fn strategies_agree_on_weighted_instance() {
        let inst = weighted_instance();
        let linear = search_with(&LinearSatUnsat, &inst);
        let core = search_with(&CoreGuided, &inst);
        assert_eq!(linear.status, MaxSatStatus::Optimal);
        assert_eq!(core.status, MaxSatStatus::Optimal);
        assert_eq!(linear.cost, Some(1));
        assert_eq!(core.cost, Some(1));
        assert_eq!(linear.strategy, "linear-sat-unsat");
        assert_eq!(core.strategy, "core-guided");
        assert_eq!(linear.telemetry.strategy, Some("linear-sat-unsat"));
        assert_eq!(core.telemetry.strategy, Some("core-guided"));
    }

    #[test]
    fn core_guided_handles_hard_unsat() {
        let mut inst = WcnfInstance::new();
        inst.reserve_vars(1);
        inst.add_hard([lit(1)]);
        inst.add_hard([lit(-1)]);
        inst.add_soft(1, [lit(1)]);
        let out = search_with(&CoreGuided, &inst);
        assert_eq!(out.status, MaxSatStatus::Unsat);
        assert!(out.model.is_none());
    }

    #[test]
    fn core_guided_relaxes_overlapping_cores() {
        // Three mutually exclusive unit softs: any two conflict, so the
        // optimum violates exactly two of them — the relaxation totalizer
        // must walk its bound upward across successive cores.
        let mut inst = WcnfInstance::new();
        let x: Vec<Lit> = (0..3).map(|_| inst.new_var().positive()).collect();
        for i in 0..3 {
            for j in (i + 1)..3 {
                inst.add_hard([!x[i], !x[j]]);
            }
        }
        for &l in &x {
            inst.add_soft(1, [l]);
        }
        let out = search_with(&CoreGuided, &inst);
        assert_eq!(out.status, MaxSatStatus::Optimal);
        assert_eq!(out.cost, Some(2));
    }

    #[test]
    fn core_guided_weighted_cores_split_weights() {
        // A core whose members have different weights pays the minimum and
        // keeps the residual active.
        let mut inst = WcnfInstance::new();
        let a = inst.new_var().positive();
        let b = inst.new_var().positive();
        inst.add_hard([!a, !b]); // a and b conflict
        inst.add_soft(3, [a]);
        inst.add_soft(5, [b]);
        inst.add_soft(2, [a, b]); // satisfied by either
        let out = search_with(&CoreGuided, &inst);
        assert_eq!(out.status, MaxSatStatus::Optimal);
        assert_eq!(out.cost, Some(3), "violate the weight-3 soft, keep b");
    }

    #[test]
    fn both_strategies_claim_the_floor_under_a_coarse_quantum() {
        // The optimum falsifies only the empty soft, so it is proven
        // whatever the quantum (here 8: one unit for all the weight).
        let mut inst = WcnfInstance::new();
        let a = inst.new_var().positive();
        let b = inst.new_var().positive();
        inst.add_soft(7, []);
        inst.add_soft(5, [!a]);
        inst.add_soft(3, [!b]);
        for strategy in [Strategy::LinearSatUnsat, Strategy::CoreGuided] {
            let options = SolveOptions::default()
                .with_totalizer_units(1)
                .with_strategy(strategy);
            let out = crate::solve_with_options::<DefaultBackend>(
                &inst,
                &ResourceBudget::unlimited(),
                &options,
            );
            assert_eq!(out.quantum, 8);
            assert_eq!(out.status, MaxSatStatus::Optimal, "{strategy:?}");
            assert_eq!(out.cost, Some(7), "{strategy:?}");
        }
    }

    #[test]
    fn strategy_names_are_stable() {
        assert_eq!(Strategy::LinearSatUnsat.name(), "linear-sat-unsat");
        assert_eq!(Strategy::CoreGuided.name(), "core-guided");
        assert_eq!(Strategy::default(), Strategy::LinearSatUnsat);
    }
}
