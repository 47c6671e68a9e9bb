//! Learned-clause exchange between portfolio workers.
//!
//! A [`ClauseExchange`] holds one bounded, lock-free, append-only export
//! queue per worker. During search each worker *exports* learned clauses
//! whose LBD is at or below [`SharingConfig::lbd_max`] into its own queue
//! (single producer, one atomic store per publish) and *imports* its
//! peers' queues at restart boundaries through its [`ExchangePort`], which
//! tracks a read cursor per peer and deduplicates by clause hash. Shared
//! clauses are logical consequences of the common formula, so importing
//! them never changes SAT/UNSAT answers — it only prunes peer searches.
//!
//! The queues are bounded ([`SharingConfig::capacity`]): a worker that has
//! already published `capacity` clauses simply stops exporting, which
//! keeps memory finite without ever blocking the search thread. Imports
//! are likewise capped per drain ([`SharingConfig::import_cap`]); cursors
//! persist, so clauses skipped by the cap are picked up at the next
//! restart.
//!
//! **Cross-call persistence.** Ports survive detach/re-attach with their
//! cursors and dedup state intact ([`crate::Solver::take_clause_exchange`]),
//! so one exchange can span *successive* solve calls: refutation lemmas
//! published during an earlier call are imported by later calls. A worker
//! marks a call boundary on entry ([`ExchangePort::mark_call_boundary`]);
//! drains then distinguish clauses published before the boundary
//! (cross-call reuse, surfaced as [`crate::Stats::cross_call_imports`])
//! from clauses published during the current call. Soundness is preserved
//! because the clause set only ever grows between calls: a lemma implied
//! by an earlier, smaller formula is implied by every later one.
//!
//! **Adaptive thresholds.** Each port carries its own effective copy of
//! the sharing tunables; [`SharingConfig::adapted`] tightens `lbd_max` and
//! `import_cap` when observed import *usefulness* (imported clauses that
//! later join a conflict, [`crate::Stats::useful_imports`]) is low and
//! loosens them when the yield is high — the way modern portfolio solvers
//! throttle clause traffic per instance.

use std::collections::HashSet;
use std::hash::{Hash, Hasher};
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::{Arc, OnceLock};

use crate::lit::Lit;

/// Tunables of the portfolio clause-sharing layer.
///
/// # Examples
///
/// ```
/// use sat::SharingConfig;
/// let cfg = SharingConfig::default();
/// assert!(cfg.lbd_max >= 2 && cfg.capacity > 0);
/// ```
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct SharingConfig {
    /// Only clauses with LBD at or below this glue threshold are exported
    /// (low-LBD clauses are the ones empirically worth sharing).
    pub lbd_max: u32,
    /// Clauses longer than this are never exported, whatever their LBD.
    pub max_len: usize,
    /// Per-worker export-queue capacity; further exports are dropped.
    pub capacity: usize,
    /// Maximum clauses imported per drain (one drain per restart).
    pub import_cap: usize,
    /// Instances smaller than this (variables + clauses) skip clause
    /// sharing entirely: on small formulas the exchange overhead exceeds
    /// any pruning benefit (`sharing/on` is ~1.4x slower than
    /// `sharing/off` at fig3 scale). Set to 0 to share unconditionally.
    pub min_instance_size: usize,
}

impl Default for SharingConfig {
    fn default() -> Self {
        SharingConfig {
            lbd_max: 4,
            max_len: 32,
            capacity: 4096,
            import_cap: 512,
            min_instance_size: DEFAULT_MIN_INSTANCE_SIZE,
        }
    }
}

/// Default [`SharingConfig::min_instance_size`]: comfortably above the
/// fig3-scale routing encodings where sharing measured as a net loss
/// (fig3 on Tokyo− encodes to ~3.9k variables + hard clauses), and below
/// the paper-scale device encodings where it pays off.
pub const DEFAULT_MIN_INSTANCE_SIZE: usize = 5000;

/// Bounds the adaptive walk of [`SharingConfig::adapted`].
const ADAPT_LBD_MIN: u32 = 2;
const ADAPT_LBD_MAX: u32 = 8;
const ADAPT_CAP_MIN: usize = 64;
const ADAPT_CAP_MAX: usize = 4096;

impl SharingConfig {
    /// Minimum observed imports before [`SharingConfig::adapted`] reacts
    /// (smaller samples are statistically meaningless).
    pub const ADAPT_SAMPLE: u64 = 64;

    /// Returns thresholds tuned by the observed import yield: of
    /// `imported` clauses taken in, `useful` later participated in a
    /// conflict. A low yield (< 5%) tightens `lbd_max`/`import_cap`
    /// (import less, only the best glue); a high yield (> 25%) loosens
    /// them. Below [`SharingConfig::ADAPT_SAMPLE`] imports the config is
    /// returned unchanged.
    #[must_use]
    pub fn adapted(mut self, imported: u64, useful: u64) -> SharingConfig {
        if imported < Self::ADAPT_SAMPLE {
            return self;
        }
        let yield_rate = useful as f64 / imported as f64;
        if yield_rate < 0.05 {
            self.lbd_max = self.lbd_max.saturating_sub(1).max(ADAPT_LBD_MIN);
            self.import_cap = (self.import_cap / 2).max(ADAPT_CAP_MIN);
        } else if yield_rate > 0.25 {
            self.lbd_max = (self.lbd_max + 1).min(ADAPT_LBD_MAX);
            self.import_cap = (self.import_cap * 2).min(ADAPT_CAP_MAX);
        }
        self
    }
}

/// A published clause: its LBD at learning time plus the literals.
type SharedClause = (u32, Box<[Lit]>);

/// One worker's bounded single-producer export queue.
///
/// The producer writes a slot, then publishes it with a release store of
/// `len`; consumers acquire-load `len` and may then read every slot below
/// it. Slots are write-once, so consumers never observe torn clauses.
#[derive(Debug)]
struct ExportQueue {
    slots: Box<[OnceLock<SharedClause>]>,
    len: AtomicUsize,
}

impl ExportQueue {
    fn new(capacity: usize) -> Self {
        ExportQueue {
            slots: (0..capacity).map(|_| OnceLock::new()).collect(),
            len: AtomicUsize::new(0),
        }
    }
}

/// Shared state of one portfolio race: a queue per worker plus the
/// sharing tunables.
#[derive(Debug)]
pub struct ClauseExchange {
    queues: Vec<ExportQueue>,
    config: SharingConfig,
}

impl ClauseExchange {
    /// An exchange for `workers` participants.
    pub fn new(workers: usize, config: SharingConfig) -> Self {
        ClauseExchange {
            queues: (0..workers)
                .map(|_| ExportQueue::new(config.capacity))
                .collect(),
            config,
        }
    }

    /// The sharing tunables this exchange was built with.
    pub fn config(&self) -> &SharingConfig {
        &self.config
    }

    /// Number of participating workers.
    pub fn num_workers(&self) -> usize {
        self.queues.len()
    }

    /// True once *any* export queue is full: queues are append-only
    /// lifetime buffers, so a worker whose queue hit capacity can never
    /// export again — the owner should rotate the exchange rather than
    /// let one prolific worker's sharing silently decay to zero while a
    /// quiet peer's queue stays open.
    pub fn is_saturated(&self) -> bool {
        self.queues
            .iter()
            .any(|q| q.len.load(Ordering::Relaxed) >= q.slots.len())
    }

    /// Publishes a clause into `worker`'s queue. Returns `false` when the
    /// queue is full (the clause is dropped — sharing is best-effort).
    fn publish(&self, worker: usize, lits: &[Lit], lbd: u32) -> bool {
        let q = &self.queues[worker];
        let idx = q.len.load(Ordering::Relaxed);
        if idx >= q.slots.len() {
            return false;
        }
        if q.slots[idx].set((lbd, lits.into())).is_err() {
            // A second producer raced this slot — contract violation, but
            // dropping the export is always safe.
            return false;
        }
        q.len.store(idx + 1, Ordering::Release);
        true
    }
}

/// A worker's handle onto a [`ClauseExchange`]: its identity, per-peer
/// read cursors, the dedup filter for imports, and its own (retunable)
/// copy of the sharing thresholds.
#[derive(Clone, Debug)]
pub struct ExchangePort {
    exchange: Arc<ClauseExchange>,
    worker: usize,
    cursors: Vec<usize>,
    /// Per-peer published length at the most recent call boundary; slots
    /// below it were exported during an earlier solve call.
    boundary: Vec<usize>,
    /// True when the boundary was pre-marked by the port's owner (e.g. a
    /// portfolio, before spawning a race) and the next
    /// [`ExchangePort::begin_call`] must not re-snapshot it.
    premarked: bool,
    seen: HashSet<u64>,
    scratch: Vec<u32>,
    /// Effective thresholds; starts as the exchange's config, adjustable
    /// per instance via [`ExchangePort::retune`] (queue capacity stays a
    /// property of the exchange).
    config: SharingConfig,
}

impl ExchangePort {
    /// A port for `worker` on `exchange`.
    pub fn new(exchange: Arc<ClauseExchange>, worker: usize) -> Self {
        let peers = exchange.num_workers();
        debug_assert!(worker < peers);
        let config = exchange.config;
        ExchangePort {
            exchange,
            worker,
            cursors: vec![0; peers],
            boundary: vec![0; peers],
            premarked: false,
            seen: HashSet::new(),
            scratch: Vec::new(),
            config,
        }
    }

    /// This port's worker index on the exchange.
    pub fn worker(&self) -> usize {
        self.worker
    }

    /// The effective sharing thresholds this port currently applies.
    pub fn config(&self) -> &SharingConfig {
        &self.config
    }

    /// Replaces the effective thresholds (LBD/length filters, import cap,
    /// variable limit). Queue capacity is fixed per exchange and ignored
    /// here.
    pub fn retune(&mut self, config: SharingConfig) {
        self.config = config;
    }

    /// A port for `worker` sharing this port's read position and dedup
    /// state. Used when a portfolio rebuilds a peer as a clone of its
    /// primary: the clone already contains everything the primary
    /// imported, so it must resume from the primary's cursors instead of
    /// re-importing history.
    #[must_use]
    pub fn for_worker(&self, worker: usize) -> ExchangePort {
        debug_assert!(worker < self.exchange.num_workers());
        let mut port = self.clone();
        port.worker = worker;
        port
    }

    /// A fresh port on `exchange` for `worker` that keeps this port's
    /// dedup knowledge (so clauses already imported are not taken again)
    /// but resets cursors for the new exchange's empty queues. Used when a
    /// saturated exchange is rotated out.
    #[must_use]
    pub fn rebind(&self, exchange: Arc<ClauseExchange>, worker: usize) -> ExchangePort {
        let peers = exchange.num_workers();
        debug_assert!(worker < peers);
        ExchangePort {
            exchange,
            worker,
            cursors: vec![0; peers],
            boundary: vec![0; peers],
            premarked: false,
            seen: self.seen.clone(),
            scratch: Vec::new(),
            config: self.config,
        }
    }

    /// Snapshots every peer queue's published length: clauses below the
    /// snapshot belong to earlier solve calls, and importing one later is
    /// *cross-call* reuse.
    ///
    /// Owners that hand ports to several workers (a portfolio race) call
    /// this once per port *before* spawning, so every worker measures the
    /// same boundary; the subsequent [`ExchangePort::begin_call`] then
    /// keeps the pre-marked snapshot instead of re-taking it mid-race
    /// (which would misclassify a faster peer's same-call exports).
    pub fn mark_call_boundary(&mut self) {
        for (peer, b) in self.boundary.iter_mut().enumerate() {
            let q = &self.exchange.queues[peer];
            *b = q.len.load(Ordering::Acquire).min(q.slots.len());
        }
        self.premarked = true;
    }

    /// Establishes the call boundary on entry to a solve call: consumes a
    /// pre-marked snapshot if the owner took one, otherwise snapshots now
    /// (the standalone-solver case, where the solve entry *is* the call
    /// boundary).
    pub fn begin_call(&mut self) {
        if self.premarked {
            self.premarked = false;
        } else {
            self.mark_call_boundary();
            self.premarked = false;
        }
    }

    /// Offers a learned clause for export. Returns `true` when the clause
    /// passed the LBD/length filters and was published.
    pub fn export(&mut self, lits: &[Lit], lbd: u32) -> bool {
        let cfg = &self.config;
        if lits.is_empty() || lits.len() > cfg.max_len || lbd > cfg.lbd_max {
            return false;
        }
        // Remember own exports so a peer re-deriving the same clause does
        // not bounce it back in.
        let hash = Self::clause_hash(&mut self.scratch, lits);
        self.seen.insert(hash);
        self.exchange.publish(self.worker, lits, lbd)
    }

    /// Drains unread, not-yet-seen clauses from every peer queue, calling
    /// `f(lits, lbd, cross_call)` for each, up to
    /// [`SharingConfig::import_cap`]. `cross_call` is `true` for clauses
    /// published before the most recent [`ExchangePort::mark_call_boundary`].
    pub fn drain(&mut self, f: &mut dyn FnMut(&[Lit], u32, bool)) {
        let Self {
            exchange,
            worker,
            cursors,
            boundary,
            seen,
            scratch,
            config,
            ..
        } = self;
        let cap = config.import_cap;
        let mut taken = 0usize;
        for (peer, cursor) in cursors.iter_mut().enumerate() {
            if peer == *worker {
                continue;
            }
            let q = &exchange.queues[peer];
            let published = q.len.load(Ordering::Acquire).min(q.slots.len());
            while *cursor < published && taken < cap {
                let slot = *cursor;
                let (lbd, lits) = q.slots[slot].get().expect("slots below len are published");
                *cursor += 1;
                if seen.insert(Self::clause_hash(scratch, lits)) {
                    f(lits, *lbd, slot < boundary[peer]);
                    taken += 1;
                }
            }
            if taken >= cap {
                break;
            }
        }
    }

    /// Order-insensitive hash of a clause's literal set.
    fn clause_hash(scratch: &mut Vec<u32>, lits: &[Lit]) -> u64 {
        scratch.clear();
        scratch.extend(lits.iter().map(|l| l.code()));
        scratch.sort_unstable();
        let mut h = std::collections::hash_map::DefaultHasher::new();
        scratch.hash(&mut h);
        h.finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn lits(v: &[i64]) -> Vec<Lit> {
        v.iter().map(|&d| Lit::from_dimacs(d)).collect()
    }

    #[test]
    fn export_respects_filters_and_import_sees_peers_only() {
        let ex = Arc::new(ClauseExchange::new(2, SharingConfig::default()));
        let mut a = ExchangePort::new(ex.clone(), 0);
        let mut b = ExchangePort::new(ex, 1);
        assert!(a.export(&lits(&[1, 2]), 2));
        assert!(!a.export(&lits(&[1, 2, 3]), 99), "high LBD filtered");
        let long: Vec<i64> = (1..=64).collect();
        assert!(!a.export(&lits(&long), 2), "long clause filtered");

        let mut got = Vec::new();
        b.drain(&mut |c, lbd, _| got.push((c.to_vec(), lbd)));
        assert_eq!(got, vec![(lits(&[1, 2]), 2)]);
        // Re-draining yields nothing new (cursor advanced).
        got.clear();
        b.drain(&mut |c, lbd, _| got.push((c.to_vec(), lbd)));
        assert!(got.is_empty());
        // The exporter never imports its own clause.
        got.clear();
        a.drain(&mut |c, lbd, _| got.push((c.to_vec(), lbd)));
        assert!(got.is_empty());
    }

    #[test]
    fn duplicate_clauses_are_imported_once() {
        let ex = Arc::new(ClauseExchange::new(3, SharingConfig::default()));
        let mut a = ExchangePort::new(ex.clone(), 0);
        let mut b = ExchangePort::new(ex.clone(), 1);
        let mut c = ExchangePort::new(ex, 2);
        assert!(a.export(&lits(&[1, -2]), 2));
        assert!(b.export(&lits(&[-2, 1]), 2), "same clause, permuted");
        let mut got = 0;
        c.drain(&mut |_, _, _| got += 1);
        assert_eq!(got, 1, "permutations of one clause dedup to one import");
    }

    #[test]
    fn own_export_is_not_bounced_back() {
        let ex = Arc::new(ClauseExchange::new(2, SharingConfig::default()));
        let mut a = ExchangePort::new(ex.clone(), 0);
        let mut b = ExchangePort::new(ex, 1);
        assert!(a.export(&lits(&[3, 4]), 1));
        // Peer re-derives and re-exports the identical clause.
        assert!(b.export(&lits(&[4, 3]), 1));
        let mut got = 0;
        a.drain(&mut |_, _, _| got += 1);
        assert_eq!(got, 0, "a clause this worker exported is never imported");
    }

    #[test]
    fn capacity_bounds_exports_and_cap_bounds_imports() {
        let cfg = SharingConfig {
            capacity: 3,
            import_cap: 2,
            ..SharingConfig::default()
        };
        let ex = Arc::new(ClauseExchange::new(2, cfg));
        let mut a = ExchangePort::new(ex.clone(), 0);
        for i in 0..5i64 {
            let accepted = a.export(&lits(&[i + 1, -(i + 2)]), 2);
            assert_eq!(accepted, i < 3, "queue accepts exactly `capacity`");
        }
        let mut b = ExchangePort::new(ex, 1);
        let mut got = 0;
        b.drain(&mut |_, _, _| got += 1);
        assert_eq!(got, 2, "import_cap bounds one drain");
        b.drain(&mut |_, _, _| got += 1);
        assert_eq!(got, 3, "the cursor resumes at the next drain");
    }

    #[test]
    fn call_boundary_distinguishes_cross_call_imports() {
        let ex = Arc::new(ClauseExchange::new(2, SharingConfig::default()));
        let mut a = ExchangePort::new(ex.clone(), 0);
        let mut b = ExchangePort::new(ex, 1);
        assert!(a.export(&lits(&[1, 2]), 2)); // "call 1" export
        b.mark_call_boundary(); // a new call begins: prior exports are carried
        assert!(a.export(&lits(&[2, 3]), 2)); // same-call export
        let mut carried = Vec::new();
        b.drain(&mut |c, _, cross| carried.push((c.to_vec(), cross)));
        assert_eq!(
            carried,
            vec![(lits(&[1, 2]), true), (lits(&[2, 3]), false)],
            "only the pre-boundary clause counts as cross-call"
        );
    }

    #[test]
    fn begin_call_keeps_a_premarked_boundary() {
        let ex = Arc::new(ClauseExchange::new(2, SharingConfig::default()));
        let mut a = ExchangePort::new(ex.clone(), 0);
        let mut b = ExchangePort::new(ex, 1);
        assert!(a.export(&lits(&[1, 2]), 2)); // previous call's export
        b.mark_call_boundary(); // owner cuts before spawning the race
        assert!(a.export(&lits(&[2, 3]), 2)); // same-call export by a peer
        b.begin_call(); // the worker's entry must keep the owner's cut
        let mut carried = Vec::new();
        b.drain(&mut |c, _, cross| carried.push((c.to_vec(), cross)));
        assert_eq!(
            carried,
            vec![(lits(&[1, 2]), true), (lits(&[2, 3]), false)],
            "a pre-marked boundary is not re-taken at call entry"
        );
        // Without a premark, begin_call snapshots (standalone solver).
        assert!(a.export(&lits(&[3, 4]), 2));
        b.begin_call();
        carried.clear();
        b.drain(&mut |c, _, cross| carried.push((c.to_vec(), cross)));
        assert_eq!(carried, vec![(lits(&[3, 4]), true)]);
    }

    #[test]
    fn for_worker_resumes_from_shared_cursors() {
        let ex = Arc::new(ClauseExchange::new(3, SharingConfig::default()));
        let mut a = ExchangePort::new(ex.clone(), 0);
        let mut b = ExchangePort::new(ex, 1);
        assert!(b.export(&lits(&[1, 2]), 2));
        let mut got = 0;
        a.drain(&mut |_, _, _| got += 1);
        assert_eq!(got, 1);
        // A rebuilt peer derived from `a` must not re-import what `a`
        // already took (its arena clone contains the clause).
        let mut peer = a.for_worker(2);
        assert_eq!(peer.worker(), 2);
        let mut again = 0;
        peer.drain(&mut |_, _, _| again += 1);
        assert_eq!(again, 0, "cursors carried over from the template port");
    }

    #[test]
    fn rebind_keeps_dedup_but_reads_the_new_exchange() {
        let cfg = SharingConfig {
            capacity: 1,
            ..SharingConfig::default()
        };
        let ex1 = Arc::new(ClauseExchange::new(2, cfg));
        let mut a = ExchangePort::new(ex1.clone(), 0);
        let mut b = ExchangePort::new(ex1.clone(), 1);
        assert!(!ex1.is_saturated(), "fresh queues are open");
        assert!(a.export(&lits(&[5, 6]), 2));
        assert!(
            ex1.is_saturated(),
            "any full queue saturates the exchange (that worker can never \
             export again)"
        );
        assert!(b.export(&lits(&[1, 2]), 2));
        let mut got = 0;
        a.drain(&mut |_, _, _| got += 1);
        assert_eq!(got, 1);

        // Rotate to a fresh exchange; the re-published duplicate is
        // filtered by the carried dedup state, new clauses flow.
        let ex2 = Arc::new(ClauseExchange::new(2, cfg));
        let mut a2 = a.rebind(ex2.clone(), 0);
        let mut b2 = b.rebind(ex2, 1);
        assert!(b2.export(&lits(&[2, 1]), 2), "export to the new queue");
        let mut seen = 0;
        a2.drain(&mut |_, _, _| seen += 1);
        assert_eq!(seen, 0, "duplicate of an already-imported clause");
    }

    #[test]
    fn adapted_tightens_on_low_yield_and_loosens_on_high() {
        let base = SharingConfig::default();
        let unchanged = base.adapted(SharingConfig::ADAPT_SAMPLE - 1, 0);
        assert_eq!(unchanged, base, "small samples are ignored");

        let tightened = base.adapted(1000, 10); // 1% useful
        assert!(tightened.lbd_max < base.lbd_max);
        assert!(tightened.import_cap < base.import_cap);
        // Repeated tightening bottoms out at the floor.
        let mut floor = base;
        for _ in 0..16 {
            floor = floor.adapted(1000, 0);
        }
        assert_eq!(floor.lbd_max, ADAPT_LBD_MIN);
        assert_eq!(floor.import_cap, ADAPT_CAP_MIN);

        let loosened = floor.adapted(1000, 900); // 90% useful
        assert!(loosened.lbd_max > floor.lbd_max);
        assert!(loosened.import_cap > floor.import_cap);
        // A middling yield holds steady.
        assert_eq!(loosened.adapted(1000, 150), loosened);
    }

    #[test]
    fn retune_overrides_port_thresholds() {
        let ex = Arc::new(ClauseExchange::new(2, SharingConfig::default()));
        let mut a = ExchangePort::new(ex, 0);
        assert!(a.export(&lits(&[1, 2, 3]), 4), "LBD 4 passes the default");
        a.retune(SharingConfig {
            lbd_max: 2,
            ..SharingConfig::default()
        });
        assert!(!a.export(&lits(&[3, 4, 5]), 4), "retuned filter rejects");
        assert_eq!(a.config().lbd_max, 2);
    }

    #[test]
    fn concurrent_export_import_is_race_free() {
        let ex = Arc::new(ClauseExchange::new(2, SharingConfig::default()));
        let producer = ExchangePort::new(ex.clone(), 0);
        let consumer = ExchangePort::new(ex, 1);
        std::thread::scope(|s| {
            s.spawn(move || {
                let mut p = producer;
                for i in 1..=200i64 {
                    p.export(&lits(&[i, -(i + 1)]), 2);
                }
            });
            s.spawn(move || {
                let mut c = consumer;
                let mut total = 0usize;
                for _ in 0..50 {
                    c.drain(&mut |clause, _, _| {
                        assert_eq!(clause.len(), 2, "imported clauses arrive intact");
                        total += 1;
                    });
                }
                assert!(total <= 200);
            });
        });
    }
}
