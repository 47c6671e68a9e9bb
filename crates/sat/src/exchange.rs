//! Learned-clause exchange between portfolio workers.
//!
//! A [`ClauseExchange`] holds one bounded, lock-free, append-only export
//! queue per worker and lives for exactly one portfolio race. During
//! search each worker *exports* learned clauses with LBD at most 4 and at
//! most 32 literals into its own queue (single producer, one atomic store
//! per publish) and *imports* its peers' queues at restart boundaries
//! through its [`ExchangePort`], which tracks a read cursor per peer and
//! deduplicates by clause hash. Shared clauses are logical consequences of
//! the common formula, so importing them never changes SAT/UNSAT answers —
//! it only prunes peer searches.
//!
//! The queues are bounded (4096 clauses per worker): a worker that has
//! already published that many clauses simply stops exporting, which keeps
//! memory finite without ever blocking the search thread. Imports are
//! likewise capped per drain (512 clauses); cursors persist for the race,
//! so clauses skipped by the cap are picked up at the next restart. The
//! thresholds are constants: no caller tunes them.

use std::collections::HashSet;
use std::hash::{Hash, Hasher};
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::{Arc, OnceLock};

use crate::lit::Lit;

/// Only learned clauses with LBD at or below this glue threshold are
/// exported (low-LBD clauses are the ones empirically worth sharing).
const LBD_MAX: u32 = 4;

/// Clauses longer than this are never exported, whatever their LBD.
const MAX_LEN: usize = 32;

/// Per-worker export-queue capacity; further exports are dropped.
const CAPACITY: usize = 4096;

/// Maximum clauses imported per drain (one drain per restart).
const IMPORT_CAP: usize = 512;

/// Default size gate of the portfolio's clause sharing: instances smaller
/// than this (variables + clauses) race without an exchange. It sits
/// comfortably above the fig3-scale routing encodings where sharing
/// measured as a net loss (fig3 on Tokyo− encodes to ~3.9k variables +
/// hard clauses; `sharing/on` was ~1.4x slower than `sharing/off` at that
/// scale), and below the paper-scale device encodings where it pays off.
pub const DEFAULT_MIN_INSTANCE_SIZE: usize = 5000;

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

/// Shared state of one portfolio race: a queue per worker.
///
/// # Examples
///
/// ```
/// use std::sync::Arc;
/// use sat::{ClauseExchange, ExchangePort, Lit};
///
/// let exchange = Arc::new(ClauseExchange::new(2));
/// let mut a = ExchangePort::new(exchange.clone(), 0);
/// let mut b = ExchangePort::new(exchange, 1);
/// let clause = [Lit::from_dimacs(1), Lit::from_dimacs(-2)];
/// assert!(a.export(&clause, 2), "a low-LBD clause is published");
/// let mut imported = Vec::new();
/// b.drain(&mut |lits, _lbd| imported.push(lits.to_vec()));
/// assert_eq!(imported, vec![clause.to_vec()]);
/// ```
#[derive(Debug)]
pub struct ClauseExchange {
    queues: Vec<ExportQueue>,
}

impl ClauseExchange {
    /// An exchange for `workers` participants.
    pub fn new(workers: usize) -> Self {
        Self::with_capacity(workers, CAPACITY)
    }

    /// An exchange whose queues hold `capacity` clauses each.
    fn with_capacity(workers: usize, capacity: usize) -> Self {
        ClauseExchange {
            queues: (0..workers).map(|_| ExportQueue::new(capacity)).collect(),
        }
    }

    /// Number of participating workers.
    pub fn num_workers(&self) -> usize {
        self.queues.len()
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
/// read cursors and the dedup filter for imports.
#[derive(Clone, Debug)]
pub struct ExchangePort {
    exchange: Arc<ClauseExchange>,
    worker: usize,
    cursors: Vec<usize>,
    seen: HashSet<u64>,
    scratch: Vec<u32>,
}

impl ExchangePort {
    /// A port for `worker` on `exchange`.
    pub fn new(exchange: Arc<ClauseExchange>, worker: usize) -> Self {
        let peers = exchange.num_workers();
        debug_assert!(worker < peers);
        ExchangePort {
            exchange,
            worker,
            cursors: vec![0; peers],
            seen: HashSet::new(),
            scratch: Vec::new(),
        }
    }

    /// Offers a learned clause for export. Returns `true` when the clause
    /// passed the LBD/length filters and was published.
    pub fn export(&mut self, lits: &[Lit], lbd: u32) -> bool {
        if lits.is_empty() || lits.len() > MAX_LEN || lbd > LBD_MAX {
            return false;
        }
        // Remember own exports so a peer re-deriving the same clause does
        // not bounce it back in.
        let hash = Self::clause_hash(&mut self.scratch, lits);
        self.seen.insert(hash);
        self.exchange.publish(self.worker, lits, lbd)
    }

    /// Drains unread, not-yet-seen clauses from every peer queue, calling
    /// `f(lits, lbd)` for each, up to the per-drain import cap.
    pub fn drain(&mut self, f: &mut dyn FnMut(&[Lit], u32)) {
        let Self {
            exchange,
            worker,
            cursors,
            seen,
            scratch,
        } = self;
        let mut taken = 0usize;
        for (peer, cursor) in cursors.iter_mut().enumerate() {
            if peer == *worker {
                continue;
            }
            let q = &exchange.queues[peer];
            let published = q.len.load(Ordering::Acquire).min(q.slots.len());
            while *cursor < published && taken < IMPORT_CAP {
                let (lbd, lits) = q.slots[*cursor]
                    .get()
                    .expect("slots below len are published");
                *cursor += 1;
                if seen.insert(Self::clause_hash(scratch, lits)) {
                    f(lits, *lbd);
                    taken += 1;
                }
            }
            if taken >= IMPORT_CAP {
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
        let ex = Arc::new(ClauseExchange::new(2));
        let mut a = ExchangePort::new(ex.clone(), 0);
        let mut b = ExchangePort::new(ex, 1);
        assert!(a.export(&lits(&[1, 2]), 2));
        assert!(
            a.export(&lits(&[1, 2, 3]), LBD_MAX),
            "LBD at the cap passes"
        );
        assert!(
            !a.export(&lits(&[1, 2, 4]), LBD_MAX + 1),
            "high LBD filtered"
        );
        let long: Vec<i64> = (1..=MAX_LEN as i64 + 1).collect();
        assert!(!a.export(&lits(&long), 2), "long clause filtered");

        let mut got = Vec::new();
        b.drain(&mut |c, lbd| got.push((c.to_vec(), lbd)));
        assert_eq!(got, vec![(lits(&[1, 2]), 2), (lits(&[1, 2, 3]), LBD_MAX)]);
        // Re-draining yields nothing new (cursor advanced).
        got.clear();
        b.drain(&mut |c, lbd| got.push((c.to_vec(), lbd)));
        assert!(got.is_empty());
        // The exporter never imports its own clause.
        got.clear();
        a.drain(&mut |c, lbd| got.push((c.to_vec(), lbd)));
        assert!(got.is_empty());
    }

    #[test]
    fn duplicate_clauses_are_imported_once() {
        let ex = Arc::new(ClauseExchange::new(3));
        let mut a = ExchangePort::new(ex.clone(), 0);
        let mut b = ExchangePort::new(ex.clone(), 1);
        let mut c = ExchangePort::new(ex, 2);
        assert!(a.export(&lits(&[1, -2]), 2));
        assert!(b.export(&lits(&[-2, 1]), 2), "same clause, permuted");
        let mut got = 0;
        c.drain(&mut |_, _| got += 1);
        assert_eq!(got, 1, "permutations of one clause dedup to one import");
        // A clause imported by an earlier drain is not taken again when
        // another peer publishes it later.
        assert!(b.export(&lits(&[5, 6]), 2));
        c.drain(&mut |_, _| got += 1);
        assert!(a.export(&lits(&[6, 5]), 2));
        c.drain(&mut |_, _| got += 1);
        assert_eq!(got, 2, "a later republished duplicate is filtered");
    }

    #[test]
    fn own_export_is_not_bounced_back() {
        let ex = Arc::new(ClauseExchange::new(2));
        let mut a = ExchangePort::new(ex.clone(), 0);
        let mut b = ExchangePort::new(ex, 1);
        assert!(a.export(&lits(&[3, 4]), 1));
        // Peer re-derives and re-exports the identical clause.
        assert!(b.export(&lits(&[4, 3]), 1));
        let mut got = 0;
        a.drain(&mut |_, _| got += 1);
        assert_eq!(got, 0, "a clause this worker exported is never imported");
    }

    #[test]
    fn capacity_bounds_exports_and_cap_bounds_imports() {
        let ex = Arc::new(ClauseExchange::with_capacity(2, 3));
        let mut a = ExchangePort::new(ex.clone(), 0);
        for i in 0..5i64 {
            let accepted = a.export(&lits(&[i + 1, -(i + 2)]), 2);
            assert_eq!(accepted, i < 3, "queue accepts exactly its capacity");
        }
        let mut b = ExchangePort::new(ex, 1);
        let mut got = 0;
        b.drain(&mut |_, _| got += 1);
        assert_eq!(got, 3);

        // A full-size queue holding more than one drain's worth.
        let ex = Arc::new(ClauseExchange::new(2));
        let mut a = ExchangePort::new(ex.clone(), 0);
        let extra = 10;
        for i in 0..(IMPORT_CAP + extra) as i64 {
            assert!(a.export(&lits(&[i + 1, -(i + 2)]), 2));
        }
        let mut b = ExchangePort::new(ex, 1);
        let mut got = 0;
        b.drain(&mut |_, _| got += 1);
        assert_eq!(got, IMPORT_CAP, "the import cap bounds one drain");
        b.drain(&mut |_, _| got += 1);
        assert_eq!(
            got,
            IMPORT_CAP + extra,
            "the cursor resumes at the next drain"
        );
    }

    #[test]
    fn concurrent_export_import_is_race_free() {
        let ex = Arc::new(ClauseExchange::new(2));
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
                    c.drain(&mut |clause, _| {
                        assert_eq!(clause.len(), 2, "imported clauses arrive intact");
                        total += 1;
                    });
                }
                assert!(total <= 200);
            });
        });
    }
}
