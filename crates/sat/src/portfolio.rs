//! Diversified portfolio solving with clause sharing: runtime-sized
//! worker races on arena clones of the formula.
//!
//! [`PortfolioBackend<B>`] wraps a runtime-chosen number of instances of
//! any [`SatBackend`] and implements [`SatBackend`] itself, so it drops
//! into every generic consumer (the MaxSAT engine, the SATMAP routers, the
//! OLSQ baselines) without touching their call sites. All clause and
//! variable traffic lands in a single *primary* worker; the diversified
//! peers are materialized lazily at solve time by **cloning** the primary
//! — with the flat clause arena that is a `memcpy` of one buffer, not a
//! re-emission of every clause per worker. Each
//! `solve_under_assumptions` call races the workers on OS threads
//! ([`std::thread::scope`], no extra dependencies), takes the **first
//! definitive** `Sat`/`Unsat` answer, and cancels the peers through a
//! [`crate::CancelToken`] child of the caller's budget — so cancelling the
//! caller's budget still tears down every worker, and a worker can never
//! outlive the budget it descended from.
//!
//! During a race the workers *cooperate*: each exports low-LBD learned
//! clauses into its bounded lock-free channel of a [`ClauseExchange`] and
//! imports its peers' clauses at restart boundaries (with dedup and
//! per-drain caps; the thresholds are constants of [`crate::exchange`]).
//! Shared clauses are logical consequences of the common formula, so
//! answers are unchanged — only the wall-clock route to them shortens.
//! The exchange lives for exactly one race: each sharing race builds a
//! fresh one, hands every worker a fresh [`ExchangePort`], and detaches
//! and drops them all when the race ends. Sharing is on by default;
//! [`PortfolioBackend::set_sharing`] disables it. Small formulas skip the
//! exchange entirely: below
//! [`PortfolioBackend::set_sharing_min_instance_size`] (variables +
//! clauses, default [`DEFAULT_MIN_INSTANCE_SIZE`]) the per-restart drain
//! overhead costs more than the pruning pays, so the workers race without
//! cooperating. Set the gate to 0 to share always.
//!
//! The worker count (*width*) is a runtime value, not a type parameter:
//! [`PortfolioBackend::with_width`] picks it explicitly (e.g.
//! `with_width(auto_width())` to size from the machine), and
//! [`SatBackend::set_portfolio_width`] resizes at any point — the peers
//! are rebuilt from the primary on the next race, so no clauses are lost
//! and a base [`SolverConfig`] installed by an earlier `configure` call
//! survives the resize. Width 1 solves inline on the calling thread — no
//! spawn, no race overhead.
//!
//! Workers are diversified deterministically via
//! [`SolverConfig::diversified`]: the primary (worker 0) always runs the
//! base configuration, so the portfolio's answers (and, for MaxSAT
//! consumers, its optimal costs) match the plain backend's — only the
//! wall-clock route to them differs.
//!
//! Nothing in the routing stack uses the portfolio: every route request
//! solves on one plain [`crate::Solver`], and cores go to whole requests
//! instead (the experiments runner's `--jobs`, the daemon's worker pool).
//! Measured on the routing workloads (2-vCPU host), width 2 ran
//! core-guided search 1.7-6.7x slower than width 1.
//!
//! # Examples
//!
//! ```
//! use sat::{ClauseSink, PortfolioBackend, DefaultBackend, ResourceBudget, SatBackend, SolveResult};
//!
//! let mut portfolio = PortfolioBackend::<DefaultBackend>::with_width(4);
//! let a = portfolio.new_var().positive();
//! SatBackend::add_clause(&mut portfolio, &[a]);
//! let r = portfolio.solve_under_assumptions(&[], &ResourceBudget::unlimited());
//! assert_eq!(r, SolveResult::Sat);
//! assert_eq!(portfolio.model_value(a), Some(true));
//! assert!(portfolio.stats().last_winner.is_some());
//! ```

use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::{Arc, Mutex, MutexGuard};

use crate::backend::{ClauseSink, DefaultBackend, SatBackend};
use crate::budget::ResourceBudget;
use crate::clause_list::ClauseList;
use crate::config::SolverConfig;
use crate::exchange::{ClauseExchange, ExchangePort, DEFAULT_MIN_INSTANCE_SIZE};
use crate::lit::{Lit, Var};
use crate::solver::SolveResult;
use crate::stats::Stats;

/// Upper bound on the automatically chosen portfolio width: the solver
/// ships four diversification presets, and widths past twice that only
/// cycle presets with fresh seeds for rapidly diminishing returns.
pub const MAX_AUTO_WIDTH: usize = 8;

/// Automatic portfolio width when `jobs` solver-bearing tasks run
/// concurrently in this process: the available cores split across the
/// jobs, clamped to `1..=`[`MAX_AUTO_WIDTH`].
pub fn auto_width_for_jobs(jobs: usize) -> usize {
    let cores = std::thread::available_parallelism()
        .map(|n| n.get())
        .unwrap_or(1);
    (cores / jobs.max(1)).clamp(1, MAX_AUTO_WIDTH)
}

/// Automatic portfolio width for this process:
/// [`std::thread::available_parallelism`] shrunk by the `SATMAP_JOBS`
/// worker count when an experiment sweep already saturates the cores
/// (closing the loop the suite runner opens with `--jobs`).
pub fn auto_width() -> usize {
    let jobs = std::env::var("SATMAP_JOBS")
        .ok()
        .and_then(|v| v.parse().ok())
        .filter(|&n: &usize| n >= 1)
        .unwrap_or(1);
    auto_width_for_jobs(jobs)
}

/// Locks `m`, recovering the data if a panicking worker poisoned the
/// mutex — the portfolio's race bookkeeping must survive worker crashes.
fn lock_or_recover<T>(m: &Mutex<T>) -> MutexGuard<'_, T> {
    m.lock().unwrap_or_else(|poisoned| poisoned.into_inner())
}

/// A portfolio of diversified [`SatBackend`] workers racing — and sharing
/// learned clauses — per call.
///
/// Formula loading targets one primary worker; peers are arena clones
/// taken at solve time, so the width can be changed at any point via
/// [`SatBackend::set_portfolio_width`] without losing loaded clauses or a
/// previously applied base configuration.
#[derive(Debug)]
pub struct PortfolioBackend<B: SatBackend = DefaultBackend> {
    /// The worker that receives all variable/clause traffic and runs the
    /// base (undiversified) configuration in races.
    primary: B,
    /// Diversified clones of the primary, rebuilt lazily when the formula
    /// or the width changed since they were materialized.
    peers: Vec<B>,
    /// Stats snapshot of each peer at clone time, so only the work peers
    /// did *themselves* is merged (not the history inherited from the
    /// primary).
    peer_base: Vec<Stats>,
    /// Effort of peers discarded by a rebuild, kept so merged totals stay
    /// monotone across resyncs.
    retired: Stats,
    /// Target worker count for the next race.
    width: usize,
    /// True while `peers` mirror the primary's current formula.
    peers_synced: bool,
    /// Base configuration applied to the primary; peers derive their
    /// diversified presets from its seed. Survives width changes.
    base_config: SolverConfig,
    /// Whether workers exchange learned clauses during races.
    sharing_enabled: bool,
    /// Instances smaller than this (variables + clauses) race without an
    /// exchange.
    sharing_min_instance_size: usize,
    /// Per-worker counters merged after every race, plus the last winner.
    merged: Stats,
    /// Index of the worker whose model/core answer the accessors serve.
    winner: usize,
    /// Count of races won per worker (diagnostic; survives across calls).
    wins: Vec<u64>,
    /// True once the primary panicked with no clean survivor to promote:
    /// its internal state can no longer be trusted, so solves answer
    /// `Unknown` (always sound) and snapshots are refused. Callers recover
    /// by rebuilding (the routing supervisor re-encodes on retry).
    poisoned: bool,
}

impl<B: SatBackend + Default> Default for PortfolioBackend<B> {
    /// A width-1 portfolio (serial, zero racing overhead). Generic
    /// consumers construct backends via `B::default()` and then apply the
    /// caller's width through [`SatBackend::set_portfolio_width`], so the
    /// default stays cheap instead of eagerly building [`auto_width`]
    /// workers that an explicit width would immediately discard.
    fn default() -> Self {
        Self::with_width(1)
    }
}

impl<B: SatBackend + Default> PortfolioBackend<B> {
    /// A portfolio of `width` diversified workers (clamped to at least 1).
    pub fn with_width(width: usize) -> Self {
        let width = width.max(1);
        PortfolioBackend {
            primary: B::default(),
            peers: Vec::new(),
            peer_base: Vec::new(),
            retired: Stats::default(),
            width,
            peers_synced: false,
            base_config: SolverConfig::default(),
            sharing_enabled: true,
            sharing_min_instance_size: DEFAULT_MIN_INSTANCE_SIZE,
            merged: Stats::default(),
            winner: 0,
            wins: vec![0; width],
            poisoned: false,
        }
    }
}

impl<B: SatBackend> PortfolioBackend<B> {
    /// Number of workers the next race will run.
    pub fn num_workers(&self) -> usize {
        self.width
    }

    /// How many races each worker has won so far.
    pub fn wins(&self) -> &[u64] {
        &self.wins
    }

    /// The base configuration peers are diversified from (what an earlier
    /// [`SatBackend::configure`] call installed; preserved across
    /// [`SatBackend::set_portfolio_width`] resizes).
    pub fn base_config(&self) -> &SolverConfig {
        &self.base_config
    }

    /// The worker all clause/variable traffic is loaded into.
    pub fn primary(&self) -> &B {
        &self.primary
    }

    /// Enables or disables learned-clause sharing between racing workers
    /// (enabled by default). Answers are identical either way; sharing
    /// only changes how fast the race converges.
    pub fn set_sharing(&mut self, enabled: bool) {
        self.sharing_enabled = enabled;
    }

    /// Whether racing workers exchange learned clauses.
    pub fn sharing(&self) -> bool {
        self.sharing_enabled
    }

    /// Sets the size gate of clause sharing: races on instances smaller
    /// than `size` (variables + clauses) skip the exchange. The default is
    /// [`DEFAULT_MIN_INSTANCE_SIZE`]; 0 shares on every race.
    pub fn set_sharing_min_instance_size(&mut self, size: usize) {
        self.sharing_min_instance_size = size;
    }

    /// The worker whose model/core the accessors currently serve.
    fn winner_worker(&self) -> &B {
        if self.winner == 0 {
            &self.primary
        } else {
            &self.peers[self.winner - 1]
        }
    }

    /// Recomputes the merged statistics: retired peers' effort, the
    /// primary's lifetime counters, and each live peer's counters since it
    /// was cloned (the inherited history would otherwise double-count).
    fn refresh_stats(&mut self, last_winner: Option<u32>) {
        let mut merged = self.retired;
        merged.arena_bytes = 0;
        merged.last_winner = None;
        merged.merge(self.primary.stats());
        for (peer, base) in self.peers.iter().zip(&self.peer_base) {
            let mut delta = peer.stats().delta_since(base);
            delta.last_winner = None;
            merged.merge(&delta);
        }
        merged.last_winner = last_winner.or(self.merged.last_winner);
        self.merged = merged;
    }

    /// Folds one worker's effort since `base` into `retired` (the
    /// arena-memory gauge and winner marker never travel with retirements).
    fn retire_delta(retired: &mut Stats, current: &Stats, base: &Stats) {
        let mut delta = current.delta_since(base);
        delta.arena_bytes = 0;
        delta.last_winner = None;
        retired.merge(&delta);
    }

    /// Retires the workers that panicked during a race, keeping merged
    /// statistics monotone and the process alive. Returns `decided` with
    /// its worker index remapped to the post-retirement layout.
    ///
    /// * Peers that crashed are dropped (their effort folds into
    ///   `retired`); the next race rebuilds the missing clones from the
    ///   primary.
    /// * If the *primary* crashed, a surviving peer — preferentially the
    ///   race winner, so its model stays readable — is promoted to primary
    ///   and reconfigured onto the base config. Its inherited history is
    ///   compensated by retiring the old primary's counters *since that
    ///   peer's clone base*, so totals neither drop nor double-count.
    /// * If every worker crashed, the portfolio is poisoned: no state can
    ///   be trusted, so later solves answer `Unknown` until the caller
    ///   rebuilds.
    fn retire_crashed(
        &mut self,
        crashed: &[usize],
        decided: Option<(usize, SolveResult)>,
    ) -> Option<(usize, SolveResult)> {
        self.retired.worker_panics += crashed.len() as u64;
        if crashed.contains(&0) {
            let keep = match decided {
                Some((i, _)) if i > 0 => Some(i),
                _ => (1..self.width).find(|i| !crashed.contains(i)),
            };
            let Some(k) = keep else {
                for (peer, base) in self.peers.iter().zip(&self.peer_base) {
                    Self::retire_delta(&mut self.retired, peer.stats(), base);
                }
                self.peers.clear();
                self.peer_base.clear();
                self.peers_synced = false;
                self.winner = 0;
                self.poisoned = true;
                return None;
            };
            // The promoted peer's lifetime counters include the history it
            // inherited when cloned (its base); retire the old primary's
            // counters beyond that base so the merged total is unchanged.
            Self::retire_delta(
                &mut self.retired,
                self.primary.stats(),
                &self.peer_base[k - 1],
            );
            for (j, (peer, base)) in self.peers.iter().zip(&self.peer_base).enumerate() {
                if j + 1 != k {
                    Self::retire_delta(&mut self.retired, peer.stats(), base);
                }
            }
            self.primary = self.peers.swap_remove(k - 1);
            self.primary.configure(&self.base_config);
            self.peers.clear();
            self.peer_base.clear();
            self.peers_synced = false;
            self.winner = 0;
            return decided.map(|(_, r)| (0, r));
        }
        // Only peers crashed: drop them in descending index order so the
        // earlier removals don't shift the later targets.
        let mut dead: Vec<usize> = crashed.to_vec();
        dead.sort_unstable();
        for &d in dead.iter().rev() {
            let peer = self.peers.remove(d - 1);
            let base = self.peer_base.remove(d - 1);
            Self::retire_delta(&mut self.retired, peer.stats(), &base);
        }
        self.peers_synced = false;
        decided.map(|(i, r)| (i - dead.iter().filter(|&&d| d < i).count(), r))
    }
}

impl<B: SatBackend + Default + Clone> PortfolioBackend<B> {
    /// Materializes the diversified peers from the primary if the formula
    /// or the width changed since the last race. For the bundled solver
    /// the clone is a flat-buffer `memcpy` per peer — the whole point of
    /// the arena — instead of re-emitting every clause `width - 1` times.
    fn sync_peers(&mut self) {
        let target = self.width - 1;
        if self.peers_synced && self.peers.len() == target {
            return;
        }
        // Retire outgoing peers' own effort so merged totals stay
        // monotone (their arena memory is gone, so the gauge resets).
        for (peer, base) in self.peers.iter().zip(&self.peer_base) {
            let mut delta = peer.stats().delta_since(base);
            delta.arena_bytes = 0;
            delta.last_winner = None;
            self.retired.merge(&delta);
        }
        self.peers.clear();
        self.peer_base.clear();
        // The worker that produced the last definitive answer is gone;
        // from here the primary (which shares its formula) is the only
        // worker whose accessors can be served.
        self.winner = 0;
        for i in 1..self.width {
            let mut peer = self.primary.clone();
            let mut config = SolverConfig::diversified(i);
            config.seed ^= self.base_config.seed;
            peer.configure(&config);
            self.peer_base.push(*peer.stats());
            self.peers.push(peer);
        }
        self.peers_synced = true;
    }
}

impl<B: SatBackend> ClauseSink for PortfolioBackend<B> {
    fn new_var(&mut self) -> Var {
        self.peers_synced = false;
        self.primary.new_var()
    }

    fn emit(&mut self, lits: &[Lit]) {
        self.peers_synced = false;
        self.primary.emit(lits);
    }
}

impl<B: SatBackend + Send + Default + Clone> SatBackend for PortfolioBackend<B> {
    fn backend_name(&self) -> &'static str {
        "portfolio"
    }

    fn configure(&mut self, config: &SolverConfig) {
        // The primary runs the base config itself; peers re-derive their
        // diversified presets (seeded off the base) at the next sync.
        self.base_config = *config;
        self.primary.configure(config);
        self.peers_synced = false;
    }

    fn set_portfolio_width(&mut self, width: usize) {
        let width = width.max(1);
        if width == self.width {
            return;
        }
        // Peers are clones of the primary, so resizing at any point —
        // before or after clauses were loaded, before or after a
        // `configure` call — loses neither; they are rebuilt on the next
        // race from the primary and the preserved base config.
        self.width = width;
        self.wins.resize(width.max(self.wins.len()), 0);
        self.peers_synced = false;
        // `winner` is deliberately left alone: the winning worker's
        // model/core stay readable until the peers are actually rebuilt
        // (`sync_peers` resets it when they are dropped).
    }

    fn num_vars(&self) -> usize {
        self.primary.num_vars()
    }

    fn num_clauses(&self) -> usize {
        self.primary.num_clauses()
    }

    fn snapshot(&self) -> Option<Self> {
        // A snapshot keeps only the primary (peers are rebuilt lazily from
        // it on the next race, exactly as after a resize). Outgoing peers'
        // own effort is folded into `retired` first so the snapshot's
        // merged totals stay monotone with the original's. A poisoned
        // portfolio refuses: its primary's state is untrusted, so warm
        // starts must fall back to a cold re-encode.
        if self.poisoned {
            return None;
        }
        let primary = self.primary.snapshot()?;
        let mut retired = self.retired;
        for (peer, base) in self.peers.iter().zip(&self.peer_base) {
            let mut delta = peer.stats().delta_since(base);
            delta.arena_bytes = 0;
            delta.last_winner = None;
            retired.merge(&delta);
        }
        let mut merged = retired;
        merged.arena_bytes = 0;
        merged.last_winner = None;
        merged.merge(primary.stats());
        Some(PortfolioBackend {
            primary,
            peers: Vec::new(),
            peer_base: Vec::new(),
            retired,
            width: self.width,
            peers_synced: false,
            base_config: self.base_config,
            sharing_enabled: self.sharing_enabled,
            sharing_min_instance_size: self.sharing_min_instance_size,
            merged,
            winner: 0,
            wins: vec![0; self.width],
            poisoned: false,
        })
    }

    fn reserve_vars(&mut self, n: usize) {
        self.peers_synced = false;
        self.primary.reserve_vars(n);
    }

    fn add_clause(&mut self, lits: &[Lit]) -> bool {
        self.peers_synced = false;
        self.primary.add_clause(lits)
    }

    fn add_clauses(&mut self, clauses: &ClauseList) -> bool {
        self.peers_synced = false;
        self.primary.add_clauses(clauses)
    }

    fn solve_under_assumptions(
        &mut self,
        assumptions: &[Lit],
        budget: &ResourceBudget,
    ) -> SolveResult {
        // A poisoned portfolio (primary panicked, nothing to promote) has
        // no trustworthy state left: `Unknown` is the only sound answer.
        if self.poisoned {
            self.refresh_stats(None);
            return SolveResult::Unknown;
        }

        // Width 1: no race to run — solve inline on the calling thread.
        // The panic guard degrades a crashing worker to `Unknown` and
        // poisons the portfolio (there is no peer to promote).
        if self.width == 1 {
            let primary = &mut self.primary;
            let outcome = catch_unwind(AssertUnwindSafe(|| {
                primary.solve_under_assumptions(assumptions, budget)
            }));
            let Ok(result) = outcome else {
                self.retired.worker_panics += 1;
                self.poisoned = true;
                self.refresh_stats(None);
                return SolveResult::Unknown;
            };
            if matches!(result, SolveResult::Sat | SolveResult::Unsat) {
                self.winner = 0;
                self.wins[0] += 1;
                self.refresh_stats(Some(0));
            } else {
                self.refresh_stats(None);
            }
            return result;
        }

        self.sync_peers();
        // A fresh exchange for this race only. Small instances skip it: on
        // them the drain overhead exceeds the pruning benefit, so the
        // workers race without cooperating.
        let instance_size = self.primary.num_vars() + self.primary.num_clauses();
        let share = self.sharing_enabled && instance_size >= self.sharing_min_instance_size;
        if share {
            let exchange = Arc::new(ClauseExchange::new(self.width));
            let workers = std::iter::once(&mut self.primary).chain(self.peers.iter_mut());
            for (i, worker) in workers.enumerate() {
                worker.set_clause_exchange(Some(ExchangePort::new(exchange.clone(), i)));
            }
        }

        // Arm once so every worker shares the same absolute deadline, then
        // derive the race token as a child of any inherited token: the
        // caller cancelling its budget still stops all workers.
        let armed = budget.arm();
        let (worker_budget, race) = armed.cancellable();

        // First definitive (Sat/Unsat) answer wins; losers are cancelled.
        // Every worker runs behind a panic guard: a crashing racer is
        // recorded for retirement and the race continues on the survivors
        // instead of unwinding through the scope and killing the process.
        let first: Mutex<Option<(usize, SolveResult)>> = Mutex::new(None);
        let crashed: Mutex<Vec<usize>> = Mutex::new(Vec::new());
        std::thread::scope(|scope| {
            let workers = std::iter::once(&mut self.primary).chain(self.peers.iter_mut());
            for (i, worker) in workers.enumerate() {
                let wb = worker_budget.clone();
                let race = &race;
                let first = &first;
                let crashed = &crashed;
                scope.spawn(move || {
                    let outcome = catch_unwind(AssertUnwindSafe(|| {
                        worker.solve_under_assumptions(assumptions, &wb)
                    }));
                    match outcome {
                        Ok(result) if matches!(result, SolveResult::Sat | SolveResult::Unsat) => {
                            let mut slot = lock_or_recover(first);
                            if slot.is_none() {
                                *slot = Some((i, result));
                                race.cancel();
                            }
                        }
                        Ok(_) => {}
                        Err(_) => lock_or_recover(crashed).push(i),
                    }
                });
            }
        });

        // The race is over: detach every port so the exchange is dropped.
        if share {
            let workers = std::iter::once(&mut self.primary).chain(self.peers.iter_mut());
            for worker in workers {
                worker.set_clause_exchange(None);
            }
        }

        let mut decided = first
            .into_inner()
            .unwrap_or_else(|poisoned| poisoned.into_inner());
        let crashed = crashed
            .into_inner()
            .unwrap_or_else(|poisoned| poisoned.into_inner());
        if !crashed.is_empty() {
            decided = self.retire_crashed(&crashed, decided);
        }
        match decided {
            Some((i, result)) => {
                self.winner = i;
                self.wins[i] += 1;
                self.refresh_stats(Some(i as u32));
                result
            }
            None => {
                // Budget expired (or the caller cancelled) before anyone
                // finished. Note the workers have still entered a new solve
                // (clearing any prior model), so — exactly like the plain
                // solver — model/core accessors reflect only the *last*
                // definitive answer's state, not earlier races.
                self.refresh_stats(None);
                SolveResult::Unknown
            }
        }
    }

    fn model_value(&self, l: Lit) -> Option<bool> {
        self.winner_worker().model_value(l)
    }

    fn model(&self) -> Vec<bool> {
        self.winner_worker().model()
    }

    fn unsat_core(&self) -> &[Lit] {
        self.winner_worker().unsat_core()
    }

    fn stats(&self) -> &Stats {
        &self.merged
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::PhaseInit;
    use std::time::Duration;

    type Portfolio = PortfolioBackend<DefaultBackend>;

    fn lit(d: i64) -> Lit {
        Lit::from_dimacs(d)
    }

    /// Drops the small-instance gate so the pigeonhole tests (all far
    /// below the default threshold) exercise the exchange machinery.
    fn share_always(p: &mut Portfolio) {
        p.set_sharing_min_instance_size(0);
    }

    /// Pigeonhole clauses: `pigeons` into `holes` (UNSAT iff pigeons > holes).
    fn pigeonhole<B: SatBackend>(backend: &mut B, pigeons: usize, holes: usize) {
        backend.reserve_vars(pigeons * holes);
        let var = |p: usize, h: usize| lit((p * holes + h + 1) as i64);
        for p in 0..pigeons {
            let row: Vec<Lit> = (0..holes).map(|h| var(p, h)).collect();
            backend.add_clause(&row);
        }
        for h in 0..holes {
            for p1 in 0..pigeons {
                for p2 in (p1 + 1)..pigeons {
                    backend.add_clause(&[!var(p1, h), !var(p2, h)]);
                }
            }
        }
    }

    #[test]
    fn sat_and_unsat_answers_match_default_backend() {
        // SAT case with incremental reuse.
        let mut p = Portfolio::with_width(4);
        let a = ClauseSink::new_var(&mut p).positive();
        let b = ClauseSink::new_var(&mut p).positive();
        SatBackend::add_clause(&mut p, &[a, b]);
        SatBackend::add_clause(&mut p, &[!a]);
        let unlimited = ResourceBudget::unlimited();
        assert_eq!(p.solve_under_assumptions(&[], &unlimited), SolveResult::Sat);
        assert_eq!(p.model_value(b), Some(true));
        assert!(p.model()[b.var().index()]);
        assert_eq!(
            p.stats().last_winner,
            Some(p.wins().iter().position(|&w| w > 0).expect("a winner") as u32)
        );

        // Incremental: adding the blocking clause flips to UNSAT.
        SatBackend::add_clause(&mut p, &[!b]);
        assert_eq!(
            p.solve_under_assumptions(&[], &unlimited),
            SolveResult::Unsat
        );
    }

    #[test]
    fn unsat_core_flows_from_winner() {
        let mut p = Portfolio::with_width(4);
        let a = ClauseSink::new_var(&mut p).positive();
        let b = ClauseSink::new_var(&mut p).positive();
        SatBackend::add_clause(&mut p, &[a, b]);
        SatBackend::add_clause(&mut p, &[!a, b]);
        let r = p.solve_under_assumptions(&[!b], &ResourceBudget::unlimited());
        assert_eq!(r, SolveResult::Unsat);
        assert!(p.unsat_core().contains(&!b));
    }

    #[test]
    fn hard_unsat_instance_agrees_across_widths() {
        let mut single = Portfolio::with_width(1);
        pigeonhole(&mut single, 4, 3);
        assert_eq!(
            single.solve_under_assumptions(&[], &ResourceBudget::unlimited()),
            SolveResult::Unsat
        );
        let mut p = Portfolio::with_width(4);
        pigeonhole(&mut p, 4, 3);
        assert_eq!(
            p.solve_under_assumptions(&[], &ResourceBudget::unlimited()),
            SolveResult::Unsat
        );
    }

    #[test]
    fn sharing_on_and_off_agree_on_pigeonhole_family() {
        // Clause sharing must never change an answer, only (possibly) the
        // route to it — shared clauses are consequences of the formula.
        for pigeons in 3..=5usize {
            let mut on = Portfolio::with_width(4);
            assert!(on.sharing());
            share_always(&mut on);
            pigeonhole(&mut on, pigeons, pigeons - 1);
            let mut off = Portfolio::with_width(4);
            off.set_sharing(false);
            pigeonhole(&mut off, pigeons, pigeons - 1);
            let unlimited = ResourceBudget::unlimited();
            assert_eq!(
                on.solve_under_assumptions(&[], &unlimited),
                SolveResult::Unsat,
                "PHP({pigeons},{}) with sharing",
                pigeons - 1
            );
            assert_eq!(
                off.solve_under_assumptions(&[], &unlimited),
                SolveResult::Unsat,
                "PHP({pigeons},{}) without sharing",
                pigeons - 1
            );
            assert_eq!(
                off.stats().clauses_imported,
                0,
                "sharing off must not import"
            );
        }
        // And a satisfiable instance: both sides say SAT.
        let build = |p: &mut Portfolio| {
            let a = ClauseSink::new_var(p).positive();
            let b = ClauseSink::new_var(p).positive();
            SatBackend::add_clause(p, &[a, b]);
            SatBackend::add_clause(p, &[!a, b]);
        };
        let mut on = Portfolio::with_width(3);
        build(&mut on);
        let mut off = Portfolio::with_width(3);
        off.set_sharing(false);
        build(&mut off);
        let unlimited = ResourceBudget::unlimited();
        assert_eq!(
            on.solve_under_assumptions(&[], &unlimited),
            SolveResult::Sat
        );
        assert_eq!(
            off.solve_under_assumptions(&[], &unlimited),
            SolveResult::Sat
        );
    }

    #[test]
    fn pigeonhole_race_imports_shared_clauses() {
        // The cooperation signal itself: on a conflict-heavy UNSAT race
        // the workers must actually move clauses through the exchange.
        let mut p = Portfolio::with_width(4);
        share_always(&mut p);
        pigeonhole(&mut p, 7, 6);
        assert_eq!(
            p.solve_under_assumptions(&[], &ResourceBudget::unlimited()),
            SolveResult::Unsat
        );
        let stats = *p.stats();
        assert!(
            stats.clauses_exported > 0,
            "workers must export low-LBD clauses: {stats}"
        );
        assert!(
            stats.clauses_imported > 0,
            "workers must import peers' clauses: {stats}"
        );
    }

    #[test]
    fn repeated_sharing_races_keep_importing_and_answering() {
        // PHP(7,6) behind a selector: each assumption solve is a fresh
        // conflict-heavy race on a fresh exchange. Imports are consequences
        // of the formula, so the satisfiable side still answers afterwards.
        let mut p = Portfolio::with_width(4);
        share_always(&mut p);
        let pigeons = 7usize;
        let holes = 6usize;
        p.reserve_vars(pigeons * holes + 1);
        let s = lit((pigeons * holes + 1) as i64);
        let var = |pp: usize, h: usize| lit((pp * holes + h + 1) as i64);
        for pp in 0..pigeons {
            let mut row: Vec<Lit> = (0..holes).map(|h| var(pp, h)).collect();
            row.push(s); // selector keeps the formula satisfiable at root
            SatBackend::add_clause(&mut p, &row);
        }
        for h in 0..holes {
            for p1 in 0..pigeons {
                for p2 in (p1 + 1)..pigeons {
                    SatBackend::add_clause(&mut p, &[!var(p1, h), !var(p2, h)]);
                }
            }
        }
        let unlimited = ResourceBudget::unlimited();
        for _ in 0..3 {
            assert_eq!(
                p.solve_under_assumptions(&[!s], &unlimited),
                SolveResult::Unsat
            );
        }
        let stats = *p.stats();
        assert!(stats.clauses_imported > 0, "{stats}");
        assert_eq!(
            p.solve_under_assumptions(&[s], &unlimited),
            SolveResult::Sat
        );
    }

    #[test]
    fn width_one_solves_inline_and_reports_winner() {
        let mut p = Portfolio::with_width(1);
        assert_eq!(p.num_workers(), 1);
        let a = ClauseSink::new_var(&mut p).positive();
        SatBackend::add_clause(&mut p, &[a]);
        assert_eq!(
            p.solve_under_assumptions(&[], &ResourceBudget::unlimited()),
            SolveResult::Sat
        );
        assert_eq!(p.stats().last_winner, Some(0));
        assert_eq!(p.wins(), &[1]);
    }

    #[test]
    fn resize_after_loading_keeps_clauses() {
        // Regression for the old "only a pristine portfolio resizes"
        // behavior: peers are clones of the primary, so a resize after
        // loading simply rebuilds them at the next race.
        let mut p = Portfolio::with_width(2);
        p.set_portfolio_width(5);
        assert_eq!(p.num_workers(), 5);
        p.set_portfolio_width(0);
        assert_eq!(p.num_workers(), 1, "width clamps to at least 1");
        let a = ClauseSink::new_var(&mut p).positive();
        let b = ClauseSink::new_var(&mut p).positive();
        SatBackend::add_clause(&mut p, &[a, b]);
        SatBackend::add_clause(&mut p, &[!a]);
        p.set_portfolio_width(4);
        assert_eq!(p.num_workers(), 4, "loaded portfolios resize too");
        assert_eq!(
            p.solve_under_assumptions(&[], &ResourceBudget::unlimited()),
            SolveResult::Sat
        );
        assert_eq!(p.model_value(b), Some(true), "clauses survive the resize");
    }

    #[test]
    fn configure_then_resize_preserves_base_config() {
        // Regression: `set_portfolio_width` used to rebuild the portfolio
        // from scratch, silently discarding a base `SolverConfig` applied
        // by an earlier `configure` call.
        let custom = SolverConfig {
            restart_multiplier: 3.0,
            random_polarity_freq: 0.25,
            phase_init: PhaseInit::Positive,
            seed: 77,
        };
        let mut p = Portfolio::with_width(2);
        SatBackend::configure(&mut p, &custom);
        p.set_portfolio_width(6);
        assert_eq!(
            *p.base_config(),
            custom,
            "resize must preserve the configured base"
        );
        assert_eq!(
            *p.primary().solver_config(),
            custom,
            "the primary keeps running the configured base"
        );
        // And the reverse order: configure after resize also sticks.
        let mut q = Portfolio::with_width(2);
        q.set_portfolio_width(3);
        SatBackend::configure(&mut q, &custom);
        assert_eq!(*q.base_config(), custom);
        let a = ClauseSink::new_var(&mut q).positive();
        SatBackend::add_clause(&mut q, &[a]);
        assert_eq!(
            q.solve_under_assumptions(&[], &ResourceBudget::unlimited()),
            SolveResult::Sat
        );
    }

    #[test]
    fn resize_after_win_keeps_serving_the_winning_model() {
        // Regression (review finding): shrinking the width right after a
        // race must not discard a still-live winning peer's model — the
        // winner stays readable until the peers are actually rebuilt.
        let mut p = Portfolio::with_width(5);
        let a = ClauseSink::new_var(&mut p).positive();
        let b = ClauseSink::new_var(&mut p).positive();
        SatBackend::add_clause(&mut p, &[a, b]);
        SatBackend::add_clause(&mut p, &[!a]);
        assert_eq!(
            p.solve_under_assumptions(&[], &ResourceBudget::unlimited()),
            SolveResult::Sat
        );
        p.set_portfolio_width(2);
        assert_eq!(
            p.model_value(b),
            Some(true),
            "the winning model must survive a post-race resize"
        );
        assert!(p.model()[b.var().index()]);
        // And the next race (which rebuilds the peers) still answers.
        assert_eq!(
            p.solve_under_assumptions(&[], &ResourceBudget::unlimited()),
            SolveResult::Sat
        );
        assert_eq!(p.model_value(b), Some(true));
    }

    #[test]
    fn default_is_serial_and_auto_width_is_machine_sized() {
        assert_eq!(Portfolio::default().num_workers(), 1);
        assert!((1..=MAX_AUTO_WIDTH).contains(&auto_width()));
        assert_eq!(auto_width_for_jobs(usize::MAX), 1);
        assert!(auto_width_for_jobs(1) >= auto_width_for_jobs(2));
    }

    #[test]
    fn expired_budget_returns_unknown_and_stays_usable() {
        let mut p = Portfolio::with_width(4);
        pigeonhole(&mut p, 9, 8);
        let r = p.solve_under_assumptions(&[], &ResourceBudget::with_time(Duration::ZERO).arm());
        assert_eq!(r, SolveResult::Unknown);
        // A subsequent unlimited call still answers definitively.
        let mut easy = Portfolio::with_width(4);
        let a = ClauseSink::new_var(&mut easy).positive();
        SatBackend::add_clause(&mut easy, &[a]);
        assert_eq!(
            easy.solve_under_assumptions(&[], &ResourceBudget::unlimited()),
            SolveResult::Sat
        );
    }

    #[test]
    fn parent_cancellation_stops_all_workers_promptly() {
        let mut p = Portfolio::with_width(4);
        pigeonhole(&mut p, 10, 9); // hard: would run far longer than the test
        let (budget, token) = ResourceBudget::unlimited().cancellable();
        let started = std::time::Instant::now();
        std::thread::scope(|s| {
            s.spawn(|| {
                std::thread::sleep(Duration::from_millis(50));
                token.cancel();
            });
            let r = p.solve_under_assumptions(&[], &budget);
            assert_eq!(r, SolveResult::Unknown, "cancel must cut the race");
        });
        assert!(
            started.elapsed() < Duration::from_secs(30),
            "workers outlived the cancelled parent budget"
        );
        // Effort spent before the kill is still charged.
        assert!(p.stats().decisions > 0 || p.stats().conflicts > 0);
    }

    #[test]
    fn merged_stats_cover_all_workers_and_stay_monotone() {
        let mut p = Portfolio::with_width(4);
        pigeonhole(&mut p, 4, 3);
        p.solve_under_assumptions(&[], &ResourceBudget::unlimited());
        let first = *p.stats();
        assert!(first.conflicts > 0);
        assert!(first.arena_bytes > 0, "arena gauge flows into the merge");
        assert_eq!(p.num_workers(), 4);
        assert_eq!(p.wins().iter().sum::<u64>(), 1);
        // Add clauses (forcing a peer resync) and solve again: counters
        // must never go backwards even though the peers were rebuilt.
        let extra = ClauseSink::new_var(&mut p).positive();
        SatBackend::add_clause(&mut p, &[extra]);
        p.solve_under_assumptions(&[], &ResourceBudget::unlimited());
        let second = *p.stats();
        assert!(
            second.conflicts >= first.conflicts,
            "retired peer effort must stay in the totals: {first} then {second}"
        );
        assert_eq!(p.wins().iter().sum::<u64>(), 2);
    }

    #[test]
    fn small_instances_skip_sharing_under_the_default_threshold() {
        // PHP(7,6) is ~175 vars+clauses — far below the default
        // `min_instance_size` — so a default-configured portfolio must
        // race it without moving a single clause through an exchange.
        let mut p = Portfolio::with_width(4);
        assert!(p.sharing(), "sharing stays enabled; the gate is size-based");
        pigeonhole(&mut p, 7, 6);
        assert!(SatBackend::num_vars(&p) + SatBackend::num_clauses(&p) < DEFAULT_MIN_INSTANCE_SIZE);
        assert_eq!(
            p.solve_under_assumptions(&[], &ResourceBudget::unlimited()),
            SolveResult::Unsat
        );
        let stats = *p.stats();
        assert_eq!(stats.clauses_imported, 0, "gated race must not import");
        assert_eq!(stats.clauses_exported, 0, "gated race must not export");
    }

    #[test]
    fn race_retires_a_panicking_peer_and_still_answers() {
        use crate::chaos::{install_plan, silence_panic_reports, ChaosBackend, FaultPlan};
        silence_panic_reports();
        // Target worker 1's diversified seed: with the default base config
        // the peer's effective seed is `diversified(1).seed ^ 0`.
        let tag = 0x9E37_79B9_7F4A_7C15u64;
        let previous = install_plan(Some(FaultPlan::seeded(13).panic_tag(tag)));
        let mut p = PortfolioBackend::<ChaosBackend<DefaultBackend>>::with_width(4);
        install_plan(previous);
        pigeonhole(&mut p, 5, 4);
        let before = *p.stats();
        assert_eq!(
            p.solve_under_assumptions(&[], &ResourceBudget::unlimited()),
            SolveResult::Unsat,
            "the race must complete on the surviving workers"
        );
        let stats = *p.stats();
        assert!(
            stats.worker_panics >= 1,
            "the retired racer must be counted: {stats:?}"
        );
        assert!(stats.conflicts >= before.conflicts, "totals stay monotone");
        // The next race rebuilds the missing peer and still answers.
        assert_eq!(
            p.solve_under_assumptions(&[], &ResourceBudget::unlimited()),
            SolveResult::Unsat
        );
    }

    #[test]
    fn primary_panic_promotes_a_survivor() {
        use crate::chaos::{install_plan, silence_panic_reports, ChaosBackend, FaultPlan};
        silence_panic_reports();
        // Tag 0 matches the unconfigured primary (peers run diversified
        // nonzero seeds), so exactly the primary dies each race.
        let previous = install_plan(Some(FaultPlan::seeded(29).panic_tag(0)));
        let mut p = PortfolioBackend::<ChaosBackend<DefaultBackend>>::with_width(3);
        install_plan(previous);
        pigeonhole(&mut p, 4, 3);
        assert_eq!(
            p.solve_under_assumptions(&[], &ResourceBudget::unlimited()),
            SolveResult::Unsat,
            "a surviving peer must be promoted and its answer served"
        );
        assert!(p.stats().worker_panics >= 1);
        assert!(
            p.stats().conflicts > 0,
            "the survivors' effort is still charged"
        );
    }

    #[test]
    fn all_workers_panicking_poisons_instead_of_crashing() {
        use crate::chaos::{install_plan, silence_panic_reports, ChaosBackend, FaultPlan};
        silence_panic_reports();
        let previous = install_plan(Some(FaultPlan::seeded(31).panic_prob(1.0)));
        let mut p = PortfolioBackend::<ChaosBackend<DefaultBackend>>::with_width(2);
        install_plan(previous);
        let a = ClauseSink::new_var(&mut p).positive();
        SatBackend::add_clause(&mut p, &[a]);
        assert_eq!(
            p.solve_under_assumptions(&[], &ResourceBudget::unlimited()),
            SolveResult::Unknown,
            "with no survivor the only sound answer is Unknown"
        );
        assert_eq!(p.stats().worker_panics, 2);
        // Poisoned: later solves keep degrading soundly, warm starts are
        // refused, and the panic counter does not re-fire.
        assert_eq!(
            p.solve_under_assumptions(&[], &ResourceBudget::unlimited()),
            SolveResult::Unknown
        );
        assert_eq!(p.stats().worker_panics, 2);
        assert!(SatBackend::snapshot(&p).is_none());
    }

    #[test]
    fn width_one_panic_degrades_to_unknown() {
        use crate::chaos::{install_plan, silence_panic_reports, ChaosBackend, FaultPlan};
        silence_panic_reports();
        let previous = install_plan(Some(FaultPlan::seeded(37).panic_tag(0)));
        let mut p = PortfolioBackend::<ChaosBackend<DefaultBackend>>::with_width(1);
        install_plan(previous);
        let a = ClauseSink::new_var(&mut p).positive();
        SatBackend::add_clause(&mut p, &[a]);
        assert_eq!(
            p.solve_under_assumptions(&[], &ResourceBudget::unlimited()),
            SolveResult::Unknown
        );
        assert_eq!(p.stats().worker_panics, 1);
    }

    #[test]
    fn snapshot_clones_the_formula_and_diverges_independently() {
        let mut p = Portfolio::with_width(2);
        let a = ClauseSink::new_var(&mut p).positive();
        let b = ClauseSink::new_var(&mut p).positive();
        SatBackend::add_clause(&mut p, &[a, b]);
        let unlimited = ResourceBudget::unlimited();
        assert_eq!(p.solve_under_assumptions(&[], &unlimited), SolveResult::Sat);
        let mut snap = SatBackend::snapshot(&p).expect("portfolio snapshots");
        assert_eq!(snap.num_workers(), p.num_workers());
        assert_eq!(SatBackend::num_vars(&snap), SatBackend::num_vars(&p));
        assert_eq!(SatBackend::num_clauses(&snap), SatBackend::num_clauses(&p));
        // The snapshot answers like the original and diverges cleanly.
        assert_eq!(
            snap.solve_under_assumptions(&[], &unlimited),
            SolveResult::Sat
        );
        SatBackend::add_clause(&mut snap, &[!a]);
        SatBackend::add_clause(&mut snap, &[!b]);
        assert_eq!(
            snap.solve_under_assumptions(&[], &unlimited),
            SolveResult::Unsat
        );
        assert_eq!(p.solve_under_assumptions(&[], &unlimited), SolveResult::Sat);
    }
}
