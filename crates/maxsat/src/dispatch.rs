//! Instance-feature dispatch: right-sizing the solver portfolio per call.
//!
//! The bench data that motivated this module is unambiguous: the parallel
//! machinery *loses* on easy instances (a width-4 portfolio is ~1.4x
//! slower than serial on fig3, and sharing trails no-sharing). Solver
//! effort should be spent where the instance is hard — so instead of
//! resolving `Parallelism::Auto` with a fixed rule, the engine computes
//! cheap [`InstanceFeatures`] and turns them into a [`DispatchPlan`]: how
//! many portfolio workers run the one selected search strategy.
//!
//! The tiers (measured in variables + hard clauses, or the O(1)
//! `encoding_estimate` before an encoding exists):
//!
//! * **small** (below [`SMALL_INSTANCE`], the same gate as the
//!   portfolio's default sharing gate [`sat::DEFAULT_MIN_INSTANCE_SIZE`])
//!   — one worker, solved inline: the per-call overhead of threads
//!   exceeds the whole solve time.
//! * **medium** (below [`MEDIUM_INSTANCE`]) — at most two workers.
//! * **hard** — the full [`sat::auto_width`] worker budget.
//!
//! An explicit width ([`WidthHint::Forced`], from `Parallelism::Serial`
//! or `Parallelism::Width`) is always honored. Whether the workers share
//! clauses is the portfolio's own decision
//! ([`sat::PortfolioBackend::set_sharing_min_instance_size`]), not the
//! plan's.

use crate::wcnf::WcnfInstance;

/// Hardness (variables + hard clauses) below which a request is *small*:
/// solved inline by one worker. Deliberately the
/// same constant as the portfolio's sharing gate
/// ([`sat::DEFAULT_MIN_INSTANCE_SIZE`]) so the two layers agree on what
/// "too small to parallelize" means.
pub const SMALL_INSTANCE: u64 = sat::DEFAULT_MIN_INSTANCE_SIZE as u64;

/// Hardness below which a request is *medium*: at most two workers.
pub const MEDIUM_INSTANCE: u64 = 4 * SMALL_INSTANCE;

/// Cheap, O(instance-header) features the dispatcher sizes a plan from.
///
/// Either side can be absent: before an encoding exists only the O(1)
/// encoding estimate is known; once the WCNF is built,
/// [`InstanceFeatures::of`] reads the exact counts.
///
/// # Examples
///
/// ```
/// use maxsat::{InstanceFeatures, WcnfInstance};
/// let mut inst = WcnfInstance::new();
/// let a = inst.new_var().positive();
/// inst.add_hard([a]);
/// inst.add_soft(3, [!a]);
/// let f = InstanceFeatures::of(&inst);
/// assert_eq!(f.vars, 1);
/// assert_eq!(f.hard_clauses, 1);
/// assert_eq!(f.weighted_softs, 1);
/// ```
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct InstanceFeatures {
    /// Number of variables in the instance.
    pub vars: usize,
    /// Number of hard clauses.
    pub hard_clauses: usize,
    /// Number of soft clauses.
    pub soft_clauses: usize,
    /// Soft clauses whose weight differs from 1 (a weighted objective —
    /// the families where core-guided search pays off most).
    pub weighted_softs: usize,
    /// O(1) upper-bound proxy for the encoding size
    /// (`satmap::encoding_estimate`), used as the hardness signal before
    /// any encoding is built.
    pub encoding_estimate: usize,
}

impl InstanceFeatures {
    /// Reads the exact counts from a built WCNF instance.
    pub fn of(instance: &WcnfInstance) -> Self {
        InstanceFeatures {
            vars: instance.num_vars(),
            hard_clauses: instance.hard_clauses().len(),
            soft_clauses: instance.soft_clauses().len(),
            weighted_softs: instance
                .soft_clauses()
                .iter()
                .filter(|s| s.weight != 1)
                .count(),
            encoding_estimate: 0,
        }
    }

    /// Returns a copy annotated with the O(1) encoding-size estimate.
    pub fn with_encoding_estimate(mut self, estimate: usize) -> Self {
        self.encoding_estimate = estimate;
        self
    }

    /// The scalar hardness signal the tiers cut on: variables + hard
    /// clauses when the instance is built (the portfolio's own
    /// instance-size measure), falling back to the encoding estimate when
    /// only pre-encode features are known.
    pub fn hardness(&self) -> u64 {
        let built = self.vars + self.hard_clauses;
        if built > 0 {
            built as u64
        } else {
            self.encoding_estimate as u64
        }
    }
}

/// How the caller constrained the worker count.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum WidthHint {
    /// No constraint: the dispatcher sizes the plan from the features
    /// (`Parallelism::Auto`).
    Auto,
    /// An explicit total worker count (`Parallelism::Serial` is
    /// `Forced(1)`, `Parallelism::Width(n)` is `Forced(n)`).
    Forced(usize),
}

/// A concrete worker plan: how many portfolio workers run the selected
/// search strategy. Produced by [`plan`]; callers apply the width with
/// [`crate::SolveOptions::with_portfolio_width`].
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct DispatchPlan {
    /// Portfolio workers racing on the call (at least 1).
    pub width: usize,
    /// The hardness signal the plan was sized from (recorded for
    /// telemetry rows, so per-family bias mining has data).
    pub hardness: u64,
}

/// True when the features say the weight-stratified core-guided search is
/// the better single-strategy bet: a *weighted* objective, with at least
/// as many weighted softs as unweighted ones. On such instances the
/// linear search must build (and repeatedly extend) a generalized
/// totalizer over every weighted soft — the dominant cost on the fidelity
/// objective (measured ~7x slower than stratified core-guided on
/// `q6_noise/fidelity`) — while core-guided relaxations stay
/// core-local. Unweighted objectives keep the linear default: models come
/// easily and the counting totalizer is cheap.
///
/// # Examples
///
/// ```
/// use maxsat::{dispatch, InstanceFeatures};
/// let weighted = InstanceFeatures { soft_clauses: 10, weighted_softs: 9, ..Default::default() };
/// assert!(dispatch::prefers_core(&weighted));
/// let unweighted = InstanceFeatures { soft_clauses: 10, weighted_softs: 0, ..Default::default() };
/// assert!(!dispatch::prefers_core(&unweighted));
/// ```
pub fn prefers_core(features: &InstanceFeatures) -> bool {
    features.weighted_softs > 0 && 2 * features.weighted_softs >= features.soft_clauses
}

/// Resolves features and the caller's width hint into a worker plan:
/// `Auto` widths scale with hardness — 1 below [`SMALL_INSTANCE`], at
/// most 2 below [`MEDIUM_INSTANCE`], the machine-sized
/// [`sat::auto_width`] beyond — and forced widths are honored as-is
/// (clamped to at least 1).
///
/// # Examples
///
/// ```
/// use maxsat::{dispatch, InstanceFeatures, WidthHint};
/// let small = InstanceFeatures { vars: 100, hard_clauses: 50, ..Default::default() };
/// assert_eq!(dispatch::plan(&small, WidthHint::Auto).width, 1);
/// assert_eq!(dispatch::plan(&small, WidthHint::Forced(4)).width, 4);
/// ```
pub fn plan(features: &InstanceFeatures, hint: WidthHint) -> DispatchPlan {
    let hardness = features.hardness();
    let width = match hint {
        WidthHint::Forced(n) => n.max(1),
        WidthHint::Auto if hardness < SMALL_INSTANCE => 1,
        WidthHint::Auto if hardness < MEDIUM_INSTANCE => sat::auto_width().min(2),
        WidthHint::Auto => sat::auto_width(),
    };
    DispatchPlan { width, hardness }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn features(hardness: u64) -> InstanceFeatures {
        InstanceFeatures {
            vars: hardness as usize,
            ..Default::default()
        }
    }

    #[test]
    fn small_auto_requests_resolve_to_one_linear_worker_without_sharing() {
        let small = InstanceFeatures {
            soft_clauses: 10,
            ..features(SMALL_INSTANCE - 1)
        };
        assert_eq!(plan(&small, WidthHint::Auto).width, 1);
        // Unweighted softs keep the linear search, and the small tier
        // sits below the portfolio's own sharing gate.
        assert!(!prefers_core(&small));
        assert!(small.hardness() < sat::DEFAULT_MIN_INSTANCE_SIZE as u64);
    }

    #[test]
    fn hardness_scales_auto_width_through_the_tiers() {
        let medium = plan(&features(SMALL_INSTANCE), WidthHint::Auto);
        assert!(medium.width <= 2);
        let hard = plan(&features(MEDIUM_INSTANCE), WidthHint::Auto);
        assert_eq!(hard.width, sat::auto_width());
        assert!(hard.width >= medium.width);
    }

    #[test]
    fn forced_widths_are_honored_and_split_across_the_race() {
        // An explicit width is never second-guessed: every forced worker
        // joins the portfolio race, whatever the instance size.
        assert_eq!(plan(&features(10), WidthHint::Forced(3)).width, 3);
        assert_eq!(
            plan(&features(MEDIUM_INSTANCE), WidthHint::Forced(1)).width,
            1
        );
        // Width 0 clamps to 1 like everywhere else in the stack.
        assert_eq!(plan(&features(10), WidthHint::Forced(0)).width, 1);
    }

    #[test]
    fn hardness_falls_back_to_the_encoding_estimate_before_encoding() {
        let pre_encode =
            InstanceFeatures::default().with_encoding_estimate(MEDIUM_INSTANCE as usize);
        assert_eq!(pre_encode.hardness(), MEDIUM_INSTANCE);
        let built = features(42).with_encoding_estimate(MEDIUM_INSTANCE as usize);
        assert_eq!(built.hardness(), 42, "exact counts win once built");
    }

    #[test]
    fn features_of_counts_weighted_softs() {
        let mut inst = WcnfInstance::new();
        let a = inst.new_var().positive();
        let b = inst.new_var().positive();
        inst.add_hard([a, b]);
        inst.add_soft(1, [!a]);
        inst.add_soft(5, [!b]);
        let f = InstanceFeatures::of(&inst);
        assert_eq!(f.vars, 2);
        assert_eq!(f.hard_clauses, 1);
        assert_eq!(f.soft_clauses, 2);
        assert_eq!(f.weighted_softs, 1);
        assert_eq!(f.hardness(), 3);
    }

    #[test]
    fn prefers_core_tracks_the_weighted_soft_share() {
        let unweighted = InstanceFeatures {
            soft_clauses: 10,
            weighted_softs: 0,
            ..Default::default()
        };
        assert!(!prefers_core(&unweighted));
        let mostly_weighted = InstanceFeatures {
            soft_clauses: 10,
            weighted_softs: 5,
            ..Default::default()
        };
        assert!(prefers_core(&mostly_weighted), "half weighted is enough");
        let barely_weighted = InstanceFeatures {
            soft_clauses: 10,
            weighted_softs: 4,
            ..Default::default()
        };
        assert!(!prefers_core(&barely_weighted));
        assert!(!prefers_core(&InstanceFeatures::default()), "no softs");
    }

    #[test]
    fn plan_is_deterministic_and_recorded() {
        let f = features(SMALL_INSTANCE + 7);
        let a = plan(&f, WidthHint::Auto);
        let b = plan(&f, WidthHint::Auto);
        assert_eq!(a, b);
        assert_eq!(a.hardness, SMALL_INSTANCE + 7);
    }
}
