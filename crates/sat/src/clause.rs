//! Clause storage: a flat arena.
//!
//! All clauses live in one contiguous word buffer ([`ClauseDb`]) and are
//! addressed by [`ClauseRef`]s that are plain *word offsets* into it. Each
//! clause occupies `HEADER_WORDS + len` consecutive words:
//!
//! ```text
//! word 0   header: bit 0 = deleted, bit 1 = learnt, bit 2 = unused
//!          (always 0, left free so the fields above it keep their
//!          offsets), bits 3..12 = LBD (saturating at 511),
//!          bits 12..32 = length
//! word 1   activity (f32 bits) — bump-based score for reduction
//! word 2+  the literals, one packed `Lit` code per word
//! ```
//!
//! Compared to one heap `Vec<Lit>` per clause this cuts allocator traffic
//! on the learn path to a buffer append and gives unit propagation
//! cache-contiguous literal reads. Freeing a clause only flags
//! its header; the dead words are reclaimed by [`ClauseDb::compact`], a
//! garbage-collecting pass the solver triggers when the dead fraction
//! crosses [`ClauseDb::should_compact`]'s threshold. Compaction returns a
//! [`ClauseRemap`] the solver uses to rewrite watch lists and reason
//! references.
//!
//! The buffer is a `Vec<Lit>` rather than `Vec<u32>` so literal slices can
//! be handed out in place without `unsafe`; header words round-trip
//! through [`Lit::from_code`]/[`Lit::code`], which is a zero-cost newtype
//! cast.

use crate::lit::Lit;

/// Words of metadata preceding each clause's literals.
const HEADER_WORDS: usize = 2;

/// Maximum representable clause length (20 header bits).
const MAX_LEN: usize = (1 << 20) - 1;

/// Maximum representable LBD (9 header bits); larger values saturate.
const MAX_LBD: u32 = (1 << 9) - 1;

/// Handle to a clause inside the solver's flat clause arena: the word
/// offset of its header.
#[derive(Clone, Copy, PartialEq, Eq, Hash, Debug)]
pub struct ClauseRef(pub(crate) u32);

impl ClauseRef {
    /// Returns the raw arena word offset (useful for debugging/statistics).
    pub fn index(self) -> usize {
        self.0 as usize
    }
}

/// Flat arena of clauses addressed by [`ClauseRef`].
#[derive(Clone, Debug, Default)]
pub(crate) struct ClauseDb {
    /// The word buffer; headers are stored through the `Lit` code
    /// round-trip (see module docs).
    words: Vec<Lit>,
    /// Words occupied by freed clauses, reclaimable by [`Self::compact`].
    wasted: usize,
    /// Offsets of learned clauses (pruned lazily; may contain deleted
    /// entries until [`Self::prune_learnts`] runs).
    learnts: Vec<ClauseRef>,
    /// Number of live (non-deleted) learned clauses.
    pub num_learnt: usize,
    /// Number of live problem (original) clauses.
    pub num_problem: usize,
}

impl ClauseDb {
    pub fn new() -> Self {
        Self::default()
    }

    #[inline]
    fn header(&self, cref: ClauseRef) -> u32 {
        self.words[cref.0 as usize].code()
    }

    #[inline]
    fn set_header(&mut self, cref: ClauseRef, header: u32) {
        self.words[cref.0 as usize] = Lit::from_code(header);
    }

    #[inline]
    fn pack_header(len: usize, lbd: u32, learnt: bool, deleted: bool) -> u32 {
        // A hard check, not a debug_assert: a truncated length would
        // silently misalign the compaction walk and corrupt the arena.
        assert!(len <= MAX_LEN, "clause length overflows the header");
        (len as u32) << 12 | lbd.min(MAX_LBD) << 3 | u32::from(learnt) << 1 | u32::from(deleted)
    }

    /// Appends a clause to the arena and returns its reference.
    pub fn alloc(&mut self, lits: &[Lit], learnt: bool, lbd: u32) -> ClauseRef {
        debug_assert!(lits.len() >= 2, "unit/empty clauses are not stored");
        let cref = ClauseRef(self.words.len() as u32);
        self.words.push(Lit::from_code(Self::pack_header(
            lits.len(),
            lbd,
            learnt,
            false,
        )));
        self.words.push(Lit::from_code(0f32.to_bits()));
        self.words.extend_from_slice(lits);
        if learnt {
            self.num_learnt += 1;
            self.learnts.push(cref);
        } else {
            self.num_problem += 1;
        }
        cref
    }

    /// Makes room for `clauses` more clauses holding `lits` literals in
    /// total, so appending them does not regrow the arena.
    pub fn reserve(&mut self, clauses: usize, lits: usize) {
        self.words.reserve(clauses * HEADER_WORDS + lits);
    }

    /// Number of literals in the clause.
    #[inline]
    pub fn len(&self, cref: ClauseRef) -> usize {
        (self.header(cref) >> 12) as usize
    }

    /// The clause's literals, read in place from the arena.
    #[inline]
    pub fn lits(&self, cref: ClauseRef) -> &[Lit] {
        let start = cref.0 as usize + HEADER_WORDS;
        &self.words[start..start + self.len(cref)]
    }

    /// Mutable access to the clause's literals (watch reordering).
    #[inline]
    pub fn lits_mut(&mut self, cref: ClauseRef) -> &mut [Lit] {
        let start = cref.0 as usize + HEADER_WORDS;
        let len = self.len(cref);
        &mut self.words[start..start + len]
    }

    /// Literal block distance recorded at learning time (glue level).
    #[inline]
    pub fn lbd(&self, cref: ClauseRef) -> u32 {
        self.header(cref) >> 3 & MAX_LBD
    }

    /// Bump-based activity score used by the reduction policy.
    #[inline]
    pub fn activity(&self, cref: ClauseRef) -> f32 {
        f32::from_bits(self.words[cref.0 as usize + 1].code())
    }

    #[inline]
    pub fn set_activity(&mut self, cref: ClauseRef, activity: f32) {
        self.words[cref.0 as usize + 1] = Lit::from_code(activity.to_bits());
    }

    #[cfg(test)]
    pub fn is_learnt(&self, cref: ClauseRef) -> bool {
        self.header(cref) & 0b10 != 0
    }

    #[inline]
    pub fn is_deleted(&self, cref: ClauseRef) -> bool {
        self.header(cref) & 0b01 != 0
    }

    /// Marks a clause deleted; its words become reclaimable dead space.
    pub fn free(&mut self, cref: ClauseRef) {
        let header = self.header(cref);
        debug_assert_eq!(header & 1, 0, "double free");
        self.set_header(cref, header | 1);
        if header & 0b10 != 0 {
            self.num_learnt -= 1;
        } else {
            self.num_problem -= 1;
        }
        self.wasted += HEADER_WORDS + self.len(cref);
    }

    /// Iterates over references of live learned clauses without scanning
    /// the arena (deleted entries linger in the list until
    /// [`Self::prune_learnts`], so they are filtered here).
    pub fn learnt_refs(&self) -> impl Iterator<Item = ClauseRef> + '_ {
        self.learnts
            .iter()
            .copied()
            .filter(|&c| !self.is_deleted(c))
    }

    /// Drops deleted entries from the learned-clause list.
    pub fn prune_learnts(&mut self) {
        let words = &self.words;
        self.learnts
            .retain(|&c| words[c.0 as usize].code() & 1 == 0);
    }

    /// Current arena footprint in bytes.
    #[inline]
    pub fn arena_bytes(&self) -> usize {
        self.words.len() * std::mem::size_of::<Lit>()
    }

    /// Words occupied by freed clauses.
    #[cfg(test)]
    pub fn wasted_words(&self) -> usize {
        self.wasted
    }

    /// True when dead space justifies a compaction pass: at least a
    /// quarter of the arena (and enough absolute waste to amortize the
    /// remap work).
    pub fn should_compact(&self) -> bool {
        self.wasted >= 1024 && self.wasted * 4 >= self.words.len()
    }

    /// Garbage-collects the arena: live clauses slide down over dead
    /// space, preserving their relative order. Returns the old-to-new
    /// reference mapping the caller must apply to watch lists and reason
    /// references. All previously handed-out `ClauseRef`s are invalid
    /// afterwards.
    pub fn compact(&mut self) -> ClauseRemap {
        // Deleted entries must leave the learnt list *before* the walk
        // overwrites their headers (a deleted ref has no new location).
        self.prune_learnts();
        let mut pairs: Vec<(u32, u32)> = Vec::with_capacity(self.num_learnt + self.num_problem);
        let mut read = 0usize;
        let mut write = 0usize;
        let total = self.words.len();
        while read < total {
            let header = self.words[read].code();
            let footprint = HEADER_WORDS + (header >> 12) as usize;
            if header & 1 == 0 {
                if read != write {
                    self.words.copy_within(read..read + footprint, write);
                }
                pairs.push((read as u32, write as u32));
                write += footprint;
            }
            read += footprint;
        }
        self.words.truncate(write);
        self.wasted = 0;
        let remap = ClauseRemap { pairs };
        for c in &mut self.learnts {
            *c = remap.map(*c);
        }
        // Everything left in the learnt list is live by construction.
        debug_assert_eq!(self.learnts.len(), self.num_learnt);
        remap
    }
}

/// Old-to-new [`ClauseRef`] mapping produced by [`ClauseDb::compact`].
#[derive(Debug)]
pub(crate) struct ClauseRemap {
    /// `(old, new)` offsets of every surviving clause, sorted by `old`.
    pairs: Vec<(u32, u32)>,
}

impl ClauseRemap {
    /// Maps a pre-compaction reference to its new location.
    ///
    /// Must only be called with references to clauses that survived the
    /// compaction (the solver sweeps deleted watchers first and never
    /// keeps reasons for deleted clauses).
    #[inline]
    pub fn map(&self, cref: ClauseRef) -> ClauseRef {
        let i = self
            .pairs
            .binary_search_by_key(&cref.0, |&(old, _)| old)
            .expect("remapped reference must address a live clause");
        ClauseRef(self.pairs[i].1)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::lit::Var;

    fn lits(v: &[i64]) -> Vec<Lit> {
        v.iter().map(|&d| Lit::from_dimacs(d)).collect()
    }

    #[test]
    fn alloc_get_free() {
        let mut db = ClauseDb::new();
        let c1 = db.alloc(&lits(&[1, 2]), false, 0);
        let c2 = db.alloc(&lits(&[-1, 3, 4]), true, 2);
        assert_eq!(db.len(c1), 2);
        assert_eq!(db.lits(c2), lits(&[-1, 3, 4]).as_slice());
        assert!(db.is_learnt(c2));
        assert!(!db.is_learnt(c1));
        assert_eq!(db.lbd(c2), 2);
        assert_eq!(db.num_problem, 1);
        assert_eq!(db.num_learnt, 1);
        db.free(c2);
        assert_eq!(db.num_learnt, 0);
        assert!(db.is_deleted(c2));
        assert_eq!(db.learnt_refs().count(), 0);
        assert_eq!(db.wasted_words(), HEADER_WORDS + 3);
    }

    #[test]
    fn clause_ref_offsets_are_stable_without_compaction() {
        let mut db = ClauseDb::new();
        let c1 = db.alloc(&lits(&[1, 2]), false, 0);
        let c2 = db.alloc(&lits(&[3, 4]), false, 0);
        assert_eq!(db.lits(c1)[0], Var::new(0).positive());
        assert_eq!(c1.index(), 0);
        assert_eq!(c2.index(), HEADER_WORDS + 2);
    }

    #[test]
    fn activity_round_trips_through_the_header() {
        let mut db = ClauseDb::new();
        let c = db.alloc(&lits(&[1, 2, 3]), true, 3);
        assert_eq!(db.activity(c), 0.0);
        db.set_activity(c, 1.5e10);
        assert_eq!(db.activity(c), 1.5e10);
        // Activity storage must not clobber neighbours.
        assert_eq!(db.lits(c), lits(&[1, 2, 3]).as_slice());
        assert_eq!(db.lbd(c), 3);
    }

    #[test]
    fn lbd_saturates_at_header_capacity() {
        let mut db = ClauseDb::new();
        let c = db.alloc(&lits(&[1, 2]), true, 5000);
        assert_eq!(db.lbd(c), MAX_LBD);
        assert_eq!(db.len(c), 2);
    }

    #[test]
    fn compaction_moves_live_clauses_and_remaps() {
        let mut db = ClauseDb::new();
        let a = db.alloc(&lits(&[1, 2]), false, 0);
        let b = db.alloc(&lits(&[-1, 3, 4]), true, 2);
        let c = db.alloc(&lits(&[2, -3]), true, 1);
        db.set_activity(c, 7.0);
        db.free(b);
        assert!(db.wasted_words() > 0);
        let remap = db.compact();
        let a2 = remap.map(a);
        let c2 = remap.map(c);
        assert_eq!(a2, a, "clauses before the hole stay put");
        assert_eq!(db.lits(a2), lits(&[1, 2]).as_slice());
        assert_eq!(db.lits(c2), lits(&[2, -3]).as_slice());
        assert_eq!(db.activity(c2), 7.0);
        assert_eq!(db.lbd(c2), 1);
        assert!(db.is_learnt(c2));
        assert_eq!(db.wasted_words(), 0);
        assert_eq!(db.learnt_refs().collect::<Vec<_>>(), vec![c2]);
        assert_eq!(
            db.arena_bytes(),
            (2 * HEADER_WORDS + 2 + 2) * std::mem::size_of::<Lit>()
        );
    }

    #[test]
    fn should_compact_needs_both_ratio_and_floor() {
        let mut db = ClauseDb::new();
        let c = db.alloc(&lits(&[1, 2]), true, 1);
        db.free(c);
        // 100% dead but far below the absolute floor.
        assert!(!db.should_compact());
        let mut big = ClauseDb::new();
        let clause = lits(&(1..=100).collect::<Vec<i64>>());
        let mut refs = Vec::new();
        for _ in 0..40 {
            refs.push(big.alloc(&clause, true, 9));
        }
        for &r in &refs[..20] {
            big.free(r);
        }
        assert!(big.should_compact());
    }
}
