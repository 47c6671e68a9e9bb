//! Warm-start sessions: reusable solver state across solves of one
//! instance. The routing supervisor keeps one for the attempts of a single
//! request's retry ladder, so a retry under a bigger budget resumes the
//! failed attempt's search; nothing keeps a session between requests.
//!
//! A [`MaxSatSession`] is what a finished search leaves behind: the
//! backend with its loaded clause arena (instance encoding, strategy
//! totalizers, *and* every learned clause), the incumbent model with its
//! cost, and the strategy's private progress (the linear search's
//! strengthening totalizer, or the core-guided search's active assumption
//! set with the lower bound it embodies). A follow-up
//! [`crate::solve_with_session`] call on the same instance resumes from
//! all of it instead of re-encoding and searching from scratch.
//!
//! **Why reuse is sound.** Every bound in both strategies travels as an
//! *assumption*, never an asserted clause, so the session's clause
//! database is a conservative extension of the instance: each learned
//! clause is a logical consequence of the instance plus strategy
//! definitions (relaxers, totalizers), independent of any bound assumed
//! while learning it. Re-solving under different assumptions — a tighter
//! bound, a bigger budget — therefore cannot change any answer; the
//! carried clauses only prune the new search.
//!
//! The one deliberate exception is *soft hardening* (see
//! [`crate::CoreGuided`]): a hardened soft's unit clause is sound only
//! relative to the incumbent it was hardened against — it prunes models
//! that provably cost more than that incumbent. The session records the
//! hardened set ([`MaxSatSession`]'s `oll_hardened`) alongside the
//! incumbent that justified it, so the session carries the exact search
//! state: a resume continues below the same incumbent, where every
//! hardened clause remains valid.
//!
//! The incumbent model needs no explicit re-seeding: the solver's saved
//! phases already point at it (the session carries the solver itself), so
//! a warm solve's first descent lands near the prior optimum for free.

use sat::SatBackend;

use crate::encodings::Totalizer;
use crate::solve::SolveOptions;
use crate::strategy::Strategy;
use crate::wcnf::WcnfInstance;

/// Reusable state from a prior MaxSAT solve of one instance: the solver
/// (clause arena included), the incumbent, and strategy progress. Created
/// and consumed by [`crate::solve_with_session`].
pub struct MaxSatSession<B: SatBackend> {
    pub(crate) solver: B,
    /// `(indicator, weight)` per soft clause, exactly as the original
    /// encoding produced them (fresh relaxer variables included).
    pub(crate) indicators: Vec<(sat::Lit, u64)>,
    pub(crate) constant_cost: u64,
    pub(crate) quantum: u64,
    /// The strategy whose private encoding (totalizers) the solver
    /// carries; a resume under a different strategy would mix encodings,
    /// so it falls back to a cold start.
    pub(crate) strategy: Strategy,
    /// Linear search: the strengthening totalizer, once built.
    pub(crate) totalizer: Option<Totalizer>,
    /// Core-guided search: the active assumptions with their remaining
    /// quantized weights (the paid-off lower bound is implicit in them).
    pub(crate) oll_active: Option<Vec<(sat::Lit, u64)>>,
    /// Stratified core-guided search: the weight strata not yet folded
    /// into the active set, highest-first (empty once every stratum is
    /// active — or for unstratified searches). A resume picks the search
    /// up mid-stratum: `oll_active` is the partial stratum in flight.
    pub(crate) oll_pending: Vec<Vec<(sat::Lit, u64)>>,
    /// Soft indicators the search asserted hard (their unit clauses live
    /// in the solver's arena, so a resume keeps them; the list records
    /// *which* softs those clauses pinned, keeping the session's state
    /// self-describing and its telemetry continuous across resumes).
    pub(crate) oll_hardened: Vec<sat::Lit>,
    pub(crate) best_model: Option<Vec<bool>>,
    pub(crate) best_cost: u64,
    /// Quantized cost of the incumbent — the linear resume's seed bound.
    pub(crate) best_q_cost: u64,
    /// Shape of the instance the session was built from, for the
    /// compatibility check (the caller keys sessions by fingerprint, but a
    /// mismatched resume must degrade to cold, not corrupt).
    pub(crate) instance_vars: usize,
    pub(crate) hard_count: usize,
    pub(crate) soft_count: usize,
    pub(crate) totalizer_units: u64,
}

impl<B: SatBackend> MaxSatSession<B> {
    /// True when this session may warm-start a solve of `instance` under
    /// `options`: same instance shape, same quantization, same strategy.
    pub fn compatible(&self, instance: &WcnfInstance, options: &SolveOptions) -> bool {
        options.strategy == self.strategy
            && instance.num_vars() == self.instance_vars
            && instance.hard_clauses().len() == self.hard_count
            && instance.soft_clauses().len() == self.soft_count
            && options.totalizer_units == self.totalizer_units
    }

    /// Cost of the incumbent model, if one was recorded.
    pub fn best_cost(&self) -> Option<u64> {
        self.best_model.as_ref().map(|_| self.best_cost)
    }

    /// The incumbent model, if one was recorded.
    pub fn best_model(&self) -> Option<&[bool]> {
        self.best_model.as_deref()
    }

    /// Number of clauses a resume will carry over instead of re-encoding
    /// (what the warm solve reports as `reused_clauses`).
    pub fn reusable_clauses(&self) -> usize {
        self.solver.num_clauses()
    }
}
