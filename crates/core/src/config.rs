//! SATMAP configuration: the construction-time defaults a
//! [`crate::SatMap`] router is built with, and their resolution against a
//! [`circuit::RouteRequest`]'s per-request overrides.
//!
//! Budgets and objectives are *not* configuration: they belong to the
//! request ([`circuit::RouteSpec`]), so one router instance serves
//! different budgets/objectives call by call.

use circuit::{Objective, RouteRequest, SearchStrategy, Slicing};
use sat::ResourceBudget;

/// Maps the request-level strategy knob onto the MaxSAT engine's enum
/// (the `circuit` crate cannot name `maxsat` types). `Auto` — the request
/// default — is the stratified core-guided search for every objective.
/// On sliced swap-count routing it needs about a fifth of the linear
/// search's conflicts; it is slower on small circuits whose optimum the
/// linear search proves in a few calls (measurements in ROADMAP item 4).
pub(crate) fn engine_strategy(strategy: SearchStrategy) -> maxsat::Strategy {
    match strategy {
        SearchStrategy::Linear => maxsat::Strategy::LinearSatUnsat,
        SearchStrategy::CoreGuided | SearchStrategy::Auto => maxsat::Strategy::CoreGuided,
    }
}

/// Construction-time defaults of the SATMAP router.
///
/// Everything here can be overridden per request through
/// [`circuit::RouteSpec`]; the config only decides what an unadorned
/// request gets — in particular whether the router is **SATMAP** (sliced)
/// or **NL-SATMAP** (monolithic) by default.
///
/// # Examples
///
/// ```
/// use satmap::SatMapConfig;
/// let config = SatMapConfig {
///     slice_size: Some(25),
///     ..SatMapConfig::default()
/// };
/// assert_eq!(config.swaps_per_gap, 1);
/// ```
#[derive(Clone, Debug)]
pub struct SatMapConfig {
    /// Two-qubit gates per slice for the locally optimal relaxation
    /// (Section V). `None` disables slicing (NL-SATMAP). Overridable per
    /// request via [`Slicing`].
    pub slice_size: Option<usize>,
    /// Number of SWAP slots before each two-qubit gate (the paper's `n`).
    /// The paper sets 1 and observes it suffices for near-optimal results;
    /// optimality is guaranteed at the connectivity graph's diameter.
    pub swaps_per_gap: usize,
    /// Maximum number of backtracking steps across the whole local
    /// relaxation before switching to leading-slot deepening.
    pub backtrack_limit: usize,
    /// Totalizer weight quantization for the MaxSAT engine: the soft-weight
    /// range is divided into roughly this many units before the totalizer
    /// is built (see [`maxsat::SolveOptions::totalizer_units`]). Only
    /// weighted objectives (fidelity mode) ever quantize; plain swap
    /// counting has unit weights and stays exact.
    pub totalizer_units: u64,
}

impl Default for SatMapConfig {
    fn default() -> Self {
        SatMapConfig {
            slice_size: Some(25),
            swaps_per_gap: 1,
            backtrack_limit: 24,
            totalizer_units: 4000,
        }
    }
}

impl SatMapConfig {
    /// The paper's default: local relaxation with slice size 25.
    pub fn sliced(slice_size: usize) -> Self {
        SatMapConfig {
            slice_size: Some(slice_size),
            ..Self::default()
        }
    }

    /// NL-SATMAP: no local relaxation.
    pub fn monolithic() -> Self {
        SatMapConfig {
            slice_size: None,
            ..Self::default()
        }
    }

    /// Returns a copy with the given totalizer quantization (clamped to at
    /// least 1 unit).
    pub fn with_totalizer_units(mut self, units: u64) -> Self {
        self.totalizer_units = units.max(1);
        self
    }

    /// Merges these defaults with a request's overrides into the concrete
    /// parameters one routing call runs under.
    pub(crate) fn resolve(&self, request: &RouteRequest<'_>) -> Resolved {
        let slice_size = match request.slicing() {
            Slicing::RouterDefault => self.slice_size,
            Slicing::Monolithic => None,
            Slicing::Sliced(k) => Some(k.max(1)),
        };
        Resolved {
            slice_size,
            swaps_per_gap: request.swaps_per_gap().unwrap_or(self.swaps_per_gap).max(1),
            backtrack_limit: self.backtrack_limit,
            objective: request.objective().clone(),
            options: maxsat::SolveOptions::default()
                .with_totalizer_units(request.totalizer_units().unwrap_or(self.totalizer_units))
                .with_strategy(engine_strategy(request.strategy())),
            budget: request.budget().clone(),
        }
    }
}

/// The concrete parameters of one routing call: config defaults with the
/// request's overrides applied.
#[derive(Clone, Debug)]
pub(crate) struct Resolved {
    pub slice_size: Option<usize>,
    pub swaps_per_gap: usize,
    pub backtrack_limit: usize,
    pub objective: Objective,
    pub options: maxsat::SolveOptions,
    pub budget: ResourceBudget,
}

#[cfg(test)]
mod tests {
    use super::*;
    use circuit::Circuit;
    use std::time::Duration;

    #[test]
    fn defaults_match_paper() {
        let c = SatMapConfig::default();
        assert_eq!(c.swaps_per_gap, 1);
        assert_eq!(c.slice_size, Some(25));
        assert_eq!(c.totalizer_units, 4000);
    }

    #[test]
    fn builders() {
        assert_eq!(SatMapConfig::sliced(10).slice_size, Some(10));
        assert_eq!(SatMapConfig::monolithic().slice_size, None);
        assert_eq!(
            SatMapConfig::default()
                .with_totalizer_units(0)
                .totalizer_units,
            1
        );
    }

    #[test]
    fn request_overrides_win_over_config() {
        let c = Circuit::new(2);
        let g = arch::devices::linear(2);
        let config = SatMapConfig::sliced(25);

        let plain = config.resolve(&RouteRequest::new(&c, &g));
        assert_eq!(plain.slice_size, Some(25));
        assert_eq!(plain.swaps_per_gap, 1);
        assert_eq!(plain.options.totalizer_units, 4000);
        assert!(!plain.budget.is_limited());

        let req = RouteRequest::new(&c, &g)
            .with_budget(Duration::from_secs(3))
            .with_slicing(Slicing::Monolithic)
            .with_swaps_per_gap(2)
            .with_totalizer_units(7)
            .with_strategy(circuit::SearchStrategy::CoreGuided);
        let r = config.resolve(&req);
        assert_eq!(r.slice_size, None);
        assert_eq!(r.swaps_per_gap, 2);
        assert_eq!(r.options.totalizer_units, 7);
        assert_eq!(r.options.strategy, maxsat::Strategy::CoreGuided);
        assert_eq!(r.budget.remaining_time(), Some(Duration::from_secs(3)));
    }

    #[test]
    fn strategy_knob_maps_onto_engine_enum() {
        assert_eq!(
            engine_strategy(SearchStrategy::Linear),
            maxsat::Strategy::LinearSatUnsat
        );
        assert_eq!(
            engine_strategy(SearchStrategy::CoreGuided),
            maxsat::Strategy::CoreGuided
        );
        assert_eq!(SearchStrategy::default(), SearchStrategy::Auto);
    }

    #[test]
    fn auto_strategy_is_core_guided_for_every_objective() {
        let c = Circuit::new(2);
        let g = arch::devices::linear(2);
        let config = SatMapConfig::default();
        let fidelity = Objective::Fidelity(arch::NoiseModel::synthetic(&g, 7));
        for objective in [Objective::SwapCount, fidelity] {
            let req = RouteRequest::new(&c, &g).with_objective(objective.clone());
            assert_eq!(req.strategy(), SearchStrategy::Auto);
            assert_eq!(
                config.resolve(&req).options.strategy,
                maxsat::Strategy::CoreGuided,
                "{objective:?}"
            );
        }
    }
}
