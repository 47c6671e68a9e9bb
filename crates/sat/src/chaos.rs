//! Deterministic seeded fault injection for resilience testing.
//!
//! [`ChaosBackend<B>`] wraps any [`SatBackend`] and perturbs it according
//! to a seeded [`FaultPlan`]: spurious cancellations (a solve call returns
//! `Unknown` without searching), artificial slowdowns and panics. Every
//! fault draw comes from a splitmix64 stream seeded by the plan, so a
//! failing scenario replays bit-for-bit from its seed.
//!
//! The **soundness contract** is that every injected fault maps to a
//! degradation the real system could exhibit anyway, never to a wrong
//! answer:
//!
//! * a spurious cancellation returns [`SolveResult::Unknown`] — exactly
//!   what a budget expiry produces, and always a sound answer;
//! * a slowdown only burns wall-clock, pushing the caller toward its own
//!   deadline handling;
//! * a panic unwinds the routing thread; the routing supervisor catches
//!   it and retries or degrades the request, as it would for a real bug.
//!
//! Consequently any outcome a chaos-wrapped stack *does* prove (`Sat`,
//! `Unsat`, a MaxSAT optimum) is as trustworthy as one from the plain
//! stack — the invariant the supervisor's chaos suite asserts.
//!
//! Generic consumers build backends via `B::default()`, often on worker
//! threads the test never sees, so the plan travels through a process-wide
//! slot: [`install_plan`] arms it, and every `ChaosBackend::default()`
//! constructed afterwards picks it up. Tests that install a plan must
//! serialize on their own lock (the slot is global) and should call
//! [`silence_panic_reports`] once so injected panics don't spray backtraces
//! over the harness output.
//!
//! # Examples
//!
//! ```
//! use sat::chaos::{ChaosBackend, FaultPlan};
//! use sat::{ClauseSink, DefaultBackend, ResourceBudget, SatBackend, SolveResult};
//!
//! // A plan that cancels every solve call: the wrapped solver degrades to
//! // `Unknown`, it never lies.
//! let plan = FaultPlan::seeded(7).cancel_prob(1.0);
//! let mut chaotic = ChaosBackend::<DefaultBackend>::with_plan(plan);
//! let a = chaotic.new_var().positive();
//! SatBackend::add_clause(&mut chaotic, &[a]);
//! let r = chaotic.solve_under_assumptions(&[], &ResourceBudget::unlimited());
//! assert_eq!(r, SolveResult::Unknown);
//! ```

use std::sync::Mutex;
use std::time::Duration;

use crate::backend::{ClauseSink, SatBackend};
use crate::budget::{unit_draw, ResourceBudget};
use crate::lit::{Lit, Var};
use crate::solver::SolveResult;
use crate::stats::Stats;

/// Panic payload prefix of every injected panic, so harnesses (and the
/// [`silence_panic_reports`] hook) can tell chaos apart from real bugs.
pub const CHAOS_PANIC: &str = "chaos: injected worker panic";

/// A seeded schedule of faults for one [`ChaosBackend`].
///
/// Probabilities are per *solve call*; draws come from a splitmix64 stream
/// rooted at `seed`, so a fault sequence is reproducible.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct FaultPlan {
    /// Root of the fault-draw stream.
    pub seed: u64,
    /// Probability a solve call panics instead of running.
    pub panic_prob: f64,
    /// Probability a solve call is spuriously cancelled (returns
    /// [`SolveResult::Unknown`] without searching).
    pub cancel_prob: f64,
    /// Probability a solve call sleeps for [`FaultPlan::delay`] first.
    pub delay_prob: f64,
    /// Length of an injected slowdown.
    pub delay: Duration,
}

impl Default for FaultPlan {
    /// The benign plan: no faults at all.
    fn default() -> Self {
        FaultPlan {
            seed: 0,
            panic_prob: 0.0,
            cancel_prob: 0.0,
            delay_prob: 0.0,
            delay: Duration::from_millis(1),
        }
    }
}

impl FaultPlan {
    /// A benign plan with the fault stream rooted at `seed`.
    pub fn seeded(seed: u64) -> Self {
        FaultPlan {
            seed,
            ..Self::default()
        }
    }

    /// Returns a copy with the per-call panic probability set.
    pub fn panic_prob(mut self, p: f64) -> Self {
        self.panic_prob = p;
        self
    }

    /// Returns a copy with the per-call spurious-cancellation probability
    /// set.
    pub fn cancel_prob(mut self, p: f64) -> Self {
        self.cancel_prob = p;
        self
    }

    /// Returns a copy injecting a `delay`-long sleep with probability `p`
    /// per solve call.
    pub fn delay_with(mut self, p: f64, delay: Duration) -> Self {
        self.delay_prob = p;
        self.delay = delay;
        self
    }

    /// True if the plan injects nothing.
    pub fn is_benign(&self) -> bool {
        self.panic_prob == 0.0 && self.cancel_prob == 0.0 && self.delay_prob == 0.0
    }
}

/// The process-wide plan slot behind [`install_plan`] /
/// [`ChaosBackend::default`].
static INSTALLED_PLAN: Mutex<Option<FaultPlan>> = Mutex::new(None);

/// Installs (or, with `None`, clears) the plan that subsequently
/// constructed `ChaosBackend::default()` instances adopt; returns the
/// previously installed plan.
///
/// This is how a fault plan reaches backends built deep inside generic
/// code (`B::default()` on a router's worker thread). The slot is
/// process-global: concurrent tests that install different plans must
/// serialize themselves.
pub fn install_plan(plan: Option<FaultPlan>) -> Option<FaultPlan> {
    let mut slot = INSTALLED_PLAN
        .lock()
        .unwrap_or_else(|poisoned| poisoned.into_inner());
    std::mem::replace(&mut *slot, plan)
}

/// Installs (once per process) a panic hook that swallows the report for
/// injected chaos panics — their payload starts with [`CHAOS_PANIC`] — and
/// delegates every other panic to the previous hook. The unwind itself
/// still happens; only the stderr noise is suppressed, so real bugs keep
/// their backtraces even while a chaos suite injects hundreds of panics.
pub fn silence_panic_reports() {
    static HOOK: std::sync::Once = std::sync::Once::new();
    HOOK.call_once(|| {
        let previous = std::panic::take_hook();
        std::panic::set_hook(Box::new(move |info| {
            let injected = info
                .payload()
                .downcast_ref::<String>()
                .map(|s| s.starts_with(CHAOS_PANIC))
                .or_else(|| {
                    info.payload()
                        .downcast_ref::<&str>()
                        .map(|s| s.starts_with(CHAOS_PANIC))
                })
                .unwrap_or(false);
            if !injected {
                previous(info);
            }
        }));
    });
}

/// A [`SatBackend`] decorator injecting seeded faults around an inner
/// backend (see the module docs for the soundness contract).
#[derive(Debug)]
pub struct ChaosBackend<B> {
    inner: B,
    plan: FaultPlan,
    /// Fault-draw stream state; advanced by one splitmix64 step per draw.
    rng: u64,
}

impl<B: Default> Default for ChaosBackend<B> {
    /// Adopts the process-wide plan from [`install_plan`] (benign when none
    /// is installed) around a default inner backend.
    fn default() -> Self {
        let plan = {
            let slot = INSTALLED_PLAN
                .lock()
                .unwrap_or_else(|poisoned| poisoned.into_inner());
            slot.unwrap_or_default()
        };
        Self::with_plan(plan)
    }
}

impl<B: Default> ChaosBackend<B> {
    /// A chaos wrapper with an explicit plan around a default inner
    /// backend.
    pub fn with_plan(plan: FaultPlan) -> Self {
        Self::wrap(B::default(), plan)
    }
}

impl<B> ChaosBackend<B> {
    /// Wraps an existing backend under `plan`.
    pub fn wrap(inner: B, plan: FaultPlan) -> Self {
        ChaosBackend {
            inner,
            plan,
            rng: plan.seed,
        }
    }

    /// The plan in force.
    pub fn plan(&self) -> &FaultPlan {
        &self.plan
    }

    /// The wrapped backend.
    pub fn inner(&self) -> &B {
        &self.inner
    }

    /// One uniform draw in `[0, 1)` from the fault stream.
    fn draw(&mut self) -> f64 {
        unit_draw(&mut self.rng)
    }
}

impl<B: ClauseSink> ClauseSink for ChaosBackend<B> {
    fn new_var(&mut self) -> Var {
        self.inner.new_var()
    }

    fn emit(&mut self, lits: &[Lit]) {
        self.inner.emit(lits);
    }
}

impl<B: SatBackend> SatBackend for ChaosBackend<B> {
    fn backend_name(&self) -> &'static str {
        "chaos"
    }

    fn num_vars(&self) -> usize {
        self.inner.num_vars()
    }

    fn num_clauses(&self) -> usize {
        self.inner.num_clauses()
    }

    fn reserve_vars(&mut self, n: usize) {
        self.inner.reserve_vars(n);
    }

    fn add_clause(&mut self, lits: &[Lit]) -> bool {
        self.inner.add_clause(lits)
    }

    fn solve_under_assumptions(
        &mut self,
        assumptions: &[Lit],
        budget: &ResourceBudget,
    ) -> SolveResult {
        if self.plan.panic_prob > 0.0 && self.draw() < self.plan.panic_prob {
            panic!("{CHAOS_PANIC} (seed {})", self.plan.seed);
        }
        if self.plan.delay_prob > 0.0 && self.draw() < self.plan.delay_prob {
            std::thread::sleep(self.plan.delay);
        }
        if self.plan.cancel_prob > 0.0 && self.draw() < self.plan.cancel_prob {
            // Indistinguishable from a budget expiry: the one answer that
            // is sound in every context.
            return SolveResult::Unknown;
        }
        self.inner.solve_under_assumptions(assumptions, budget)
    }

    fn model_value(&self, l: Lit) -> Option<bool> {
        self.inner.model_value(l)
    }

    fn model(&self) -> Vec<bool> {
        self.inner.model()
    }

    fn unsat_core(&self) -> &[Lit] {
        self.inner.unsat_core()
    }

    fn stats(&self) -> &Stats {
        self.inner.stats()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::backend::DefaultBackend;

    type Chaotic = ChaosBackend<DefaultBackend>;

    fn trivially_sat(backend: &mut Chaotic) -> Lit {
        let a = backend.new_var().positive();
        SatBackend::add_clause(backend, &[a]);
        a
    }

    #[test]
    fn benign_plan_is_transparent() {
        let mut c = Chaotic::with_plan(FaultPlan::default());
        assert!(c.plan().is_benign());
        let a = trivially_sat(&mut c);
        assert_eq!(
            c.solve_under_assumptions(&[], &ResourceBudget::unlimited()),
            SolveResult::Sat
        );
        assert_eq!(c.model_value(a), Some(true));
        assert_eq!(c.backend_name(), "chaos");
    }

    #[test]
    fn certain_cancellation_degrades_to_unknown() {
        let mut c = Chaotic::with_plan(FaultPlan::seeded(3).cancel_prob(1.0));
        trivially_sat(&mut c);
        for _ in 0..4 {
            assert_eq!(
                c.solve_under_assumptions(&[], &ResourceBudget::unlimited()),
                SolveResult::Unknown,
                "a spurious cancellation must look like a budget expiry"
            );
        }
    }

    #[test]
    fn injected_panic_unwinds_with_the_chaos_payload() {
        silence_panic_reports();
        let mut c = Chaotic::with_plan(FaultPlan::seeded(9).panic_prob(1.0));
        trivially_sat(&mut c);
        let err = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
            c.solve_under_assumptions(&[], &ResourceBudget::unlimited())
        }))
        .expect_err("panic_prob 1.0 must panic");
        let msg = err
            .downcast_ref::<String>()
            .cloned()
            .expect("formatted payload");
        assert!(msg.starts_with(CHAOS_PANIC), "payload was {msg:?}");
    }

    #[test]
    fn fault_draws_are_deterministic_per_seed() {
        // Same seed, same circuit of calls: identical outcomes.
        let outcomes = |seed: u64| {
            let mut c = Chaotic::with_plan(FaultPlan::seeded(seed).cancel_prob(0.5));
            trivially_sat(&mut c);
            (0..12)
                .map(|_| c.solve_under_assumptions(&[], &ResourceBudget::unlimited()))
                .collect::<Vec<_>>()
        };
        assert_eq!(outcomes(11), outcomes(11));
        // A 50% plan neither always fires nor never fires over 12 calls
        // for this seed (sanity that draws actually vary).
        let seq = outcomes(11);
        assert!(seq.contains(&SolveResult::Sat));
        assert!(seq.contains(&SolveResult::Unknown));
    }

    #[test]
    fn install_plan_reaches_default_constructed_backends() {
        let previous = install_plan(Some(FaultPlan::seeded(5).cancel_prob(1.0)));
        let mut c = Chaotic::default();
        trivially_sat(&mut c);
        let r = c.solve_under_assumptions(&[], &ResourceBudget::unlimited());
        install_plan(previous);
        assert_eq!(r, SolveResult::Unknown);
        // With the slot restored (empty in this test binary), defaults are
        // benign again.
        let mut clean = Chaotic::default();
        trivially_sat(&mut clean);
        assert_eq!(
            clean.solve_under_assumptions(&[], &ResourceBudget::unlimited()),
            SolveResult::Sat
        );
    }
}
