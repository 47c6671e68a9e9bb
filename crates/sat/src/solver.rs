//! The CDCL solver engine.
//!
//! A conflict-driven clause-learning SAT solver in the MiniSat lineage:
//! two-watched-literal propagation, VSIDS decision heuristic with phase
//! saving, first-UIP conflict analysis with clause minimization, Luby
//! restarts, and activity/LBD-based learned-clause database reduction.
//! Clauses live in a flat arena ([`crate::clause`]) that is periodically
//! garbage-collected; watch lists and reason references are remapped in
//! one pass per compaction. Supports incremental solving under
//! assumptions and cooperative [`ResourceBudget`]s (conflicts or
//! wall-clock deadlines), which the MaxSAT layer uses for anytime
//! behaviour.

use crate::budget::ResourceBudget;
use crate::clause::{ClauseDb, ClauseRef};
use crate::clause_list::ClauseList;
use crate::lit::{LBool, Lit, Var};
use crate::order::VarOrder;
use crate::stats::Stats;

/// Outcome of a [`Solver::solve`] call.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum SolveResult {
    /// A satisfying assignment was found; read it via [`Solver::model_value`].
    Sat,
    /// The formula (under the given assumptions) is unsatisfiable.
    Unsat,
    /// The budget expired before a definitive answer.
    Unknown,
}

#[derive(Clone, Copy, Debug)]
struct Watcher {
    cref: ClauseRef,
    /// A literal of the clause other than the watched one; if it is already
    /// true the clause is satisfied and the watch list walk can skip it.
    blocker: Lit,
}

/// A CDCL SAT solver.
///
/// Cloning a solver duplicates its entire state — for the clause store
/// that is one `memcpy` of the flat arena.
///
/// # Examples
///
/// ```
/// use sat::{Solver, SolveResult};
/// let mut s = Solver::new();
/// let a = s.new_var().positive();
/// let b = s.new_var().positive();
/// s.add_clause([a, b]);
/// s.add_clause([!a]);
/// assert_eq!(s.solve(), SolveResult::Sat);
/// assert_eq!(s.model_value(b), Some(true));
/// ```
#[derive(Clone, Debug)]
pub struct Solver {
    db: ClauseDb,
    /// Watch lists indexed by literal code. `watches[l]` holds clauses that
    /// watch `¬l` (i.e. must be inspected when `l` becomes true).
    watches: Vec<Vec<Watcher>>,
    assigns: Vec<LBool>,
    /// Saved phase per variable for phase-saving.
    polarity: Vec<bool>,
    reason: Vec<Option<ClauseRef>>,
    level: Vec<u32>,
    trail: Vec<Lit>,
    trail_lim: Vec<usize>,
    qhead: usize,
    activity: Vec<f64>,
    var_inc: f64,
    var_decay: f64,
    cla_inc: f32,
    order: VarOrder,
    /// False once an unconditional conflict has been derived.
    ok: bool,
    seen: Vec<bool>,
    analyze_clear: Vec<Lit>,
    /// Reusable DFS stack for recursive conflict-clause minimization.
    minimize_stack: Vec<Lit>,
    model: Vec<LBool>,
    conflict_core: Vec<Lit>,
    stats: Stats,
    max_learnt: f64,
    /// Reusable scratch for LBD computation: one stamp slot per decision
    /// level, validated against `lbd_gen` (no per-clause allocation).
    lbd_stamp: Vec<u32>,
    lbd_gen: u32,
    /// Reusable scratch in which added clauses are simplified.
    add_buf: Vec<Lit>,
}

impl Default for Solver {
    fn default() -> Self {
        Self::new()
    }
}

/// Bumps `v`'s VSIDS activity, rescaling on overflow — free function so
/// conflict analysis can call it under a split borrow while clause
/// literals are read in place from the arena.
fn bump_var_in(activity: &mut [f64], var_inc: &mut f64, order: &mut VarOrder, v: Var) {
    activity[v.index()] += *var_inc;
    if activity[v.index()] > 1e100 {
        for a in activity.iter_mut() {
            *a *= 1e-100;
        }
        *var_inc *= 1e-100;
    }
    order.bumped(v, activity);
}

/// The value of `l` under `assigns` (split-borrow form of
/// [`Solver::value_lit`]).
#[inline]
fn lit_value(assigns: &[LBool], l: Lit) -> LBool {
    assigns[l.var().index()].under_sign(l.is_positive())
}

impl Solver {
    /// Creates an empty solver with no variables or clauses.
    pub fn new() -> Self {
        Solver {
            db: ClauseDb::new(),
            watches: Vec::new(),
            assigns: Vec::new(),
            polarity: Vec::new(),
            reason: Vec::new(),
            level: Vec::new(),
            trail: Vec::new(),
            trail_lim: Vec::new(),
            qhead: 0,
            activity: Vec::new(),
            var_inc: 1.0,
            var_decay: 0.95,
            cla_inc: 1.0,
            order: VarOrder::new(),
            ok: true,
            seen: Vec::new(),
            analyze_clear: Vec::new(),
            minimize_stack: Vec::new(),
            model: Vec::new(),
            conflict_core: Vec::new(),
            stats: Stats::default(),
            max_learnt: 2000.0,
            lbd_stamp: Vec::new(),
            lbd_gen: 0,
            add_buf: Vec::new(),
        }
    }

    /// Number of variables created so far.
    pub fn num_vars(&self) -> usize {
        self.assigns.len()
    }

    /// Number of live problem clauses (excluding units absorbed into the
    /// top-level trail).
    pub fn num_clauses(&self) -> usize {
        self.db.num_problem
    }

    /// Solver statistics accumulated across all `solve` calls.
    pub fn stats(&self) -> &Stats {
        &self.stats
    }

    /// Creates a fresh variable and returns it.
    pub fn new_var(&mut self) -> Var {
        let v = Var::new(self.assigns.len());
        // New variables branch negative first (MiniSat's default phase).
        self.assigns.push(LBool::Undef);
        self.polarity.push(false);
        self.reason.push(None);
        self.level.push(0);
        self.activity.push(0.0);
        self.seen.push(false);
        self.watches.push(Vec::new());
        self.watches.push(Vec::new());
        self.order.grow_to(self.assigns.len());
        self.order.insert(v, &self.activity);
        v
    }

    /// Ensures at least `n` variables exist.
    pub fn reserve_vars(&mut self, n: usize) {
        while self.num_vars() < n {
            self.new_var();
        }
    }

    #[inline]
    fn value_lit(&self, l: Lit) -> LBool {
        lit_value(&self.assigns, l)
    }

    /// Adds a clause. Returns `false` if the solver is now known
    /// unsatisfiable at the top level (the clause may still have been
    /// recorded).
    ///
    /// Duplicated literals are removed and tautologies are dropped. Must not
    /// be called between `solve` calls' partial states — the solver
    /// backtracks to the root level automatically. The literals are
    /// simplified in a scratch buffer the solver keeps, so admitting a
    /// clause needs no allocation of its own.
    pub fn add_clause<I: IntoIterator<Item = Lit>>(&mut self, lits: I) -> bool {
        self.cancel_until(0);
        if !self.ok {
            return false;
        }
        let mut ps = std::mem::take(&mut self.add_buf);
        ps.clear();
        ps.extend(lits);
        if self.simplify_at_root(&mut ps) {
            match ps.len() {
                0 => self.ok = false,
                1 => {
                    self.unchecked_enqueue(ps[0], None);
                    self.ok = self.propagate().is_none();
                }
                _ => {
                    let cref = self.db.alloc(&ps, false, 0);
                    self.attach(cref);
                    self.stats.arena_bytes = self.db.arena_bytes() as u64;
                }
            }
        }
        self.add_buf = ps;
        self.ok
    }

    /// Adds every clause of `clauses` in order: the same
    /// [`Solver::add_clause`] calls a loop would make, so units met
    /// mid-list still propagate and later clauses are simplified against
    /// them. Before the loop, the clause arena and the watch lists are
    /// sized for the whole list. Returns `false` if any of those calls
    /// does.
    pub fn add_clauses(&mut self, clauses: &ClauseList) -> bool {
        self.reserve_for(clauses);
        let mut ok = true;
        for c in clauses {
            ok &= self.add_clause(c.iter().copied());
        }
        ok
    }

    /// Sizes the arena and the watch lists for loading `clauses`. A clause
    /// with two distinct literals takes its words in the arena and one
    /// watcher on the negation of each of its two smallest literals, which
    /// are the ones [`Solver::add_clause`] watches after sorting. The sizes
    /// are exact unless root assignments simplify clauses of the list;
    /// lists that then run short grow as usual.
    fn reserve_for(&mut self, clauses: &ClauseList) {
        let mut watch_counts = vec![0u32; self.watches.len()];
        let (mut stored, mut stored_lits) = (0, 0);
        for c in clauses {
            if let Some((a, b)) = two_smallest(c) {
                stored += 1;
                stored_lits += c.len();
                watch_counts[(!a).code() as usize] += 1;
                watch_counts[(!b).code() as usize] += 1;
            }
        }
        self.db.reserve(stored, stored_lits);
        for (ws, &n) in self.watches.iter_mut().zip(&watch_counts) {
            ws.reserve_exact(n as usize);
        }
    }

    /// Sorts `ps` and drops duplicate and root-falsified literals in place.
    /// Returns `false` when the clause needs no storing: it is a tautology
    /// or already satisfied at the root.
    fn simplify_at_root(&self, ps: &mut Vec<Lit>) -> bool {
        ps.sort_unstable();
        ps.dedup();
        let mut kept = 0;
        for i in 0..ps.len() {
            let l = ps[i];
            if i + 1 < ps.len() && ps[i + 1] == !l {
                return false; // tautology: contains l and ¬l
            }
            match self.value_lit(l) {
                LBool::True => return false, // already satisfied at root
                LBool::False => {}           // drop falsified literal
                LBool::Undef => {
                    ps[kept] = l;
                    kept += 1;
                }
            }
        }
        ps.truncate(kept);
        true
    }

    fn attach(&mut self, cref: ClauseRef) {
        let lits = self.db.lits(cref);
        let (l0, l1) = (lits[0], lits[1]);
        self.watches[(!l0).code() as usize].push(Watcher { cref, blocker: l1 });
        self.watches[(!l1).code() as usize].push(Watcher { cref, blocker: l0 });
    }

    #[inline]
    fn decision_level(&self) -> u32 {
        self.trail_lim.len() as u32
    }

    fn unchecked_enqueue(&mut self, l: Lit, from: Option<ClauseRef>) {
        debug_assert_eq!(self.value_lit(l), LBool::Undef);
        let v = l.var().index();
        self.assigns[v] = LBool::from_bool(l.is_positive());
        self.reason[v] = from;
        self.level[v] = self.decision_level();
        self.trail.push(l);
    }

    /// Unit propagation. Returns the conflicting clause, if any.
    fn propagate(&mut self) -> Option<ClauseRef> {
        let mut conflict = None;
        while self.qhead < self.trail.len() {
            let p = self.trail[self.qhead];
            self.qhead += 1;
            self.stats.propagations += 1;
            let mut ws = std::mem::take(&mut self.watches[p.code() as usize]);
            let mut i = 0;
            let mut j = 0;
            'watchers: while i < ws.len() {
                let w = ws[i];
                i += 1;
                if self.value_lit(w.blocker) == LBool::True {
                    ws[j] = w;
                    j += 1;
                    continue;
                }
                let cref = w.cref;
                let false_lit = !p;
                // Split borrows: the clause is reordered in place in the
                // arena while values are read and the new watch is pushed.
                let first = {
                    let Solver {
                        db,
                        assigns,
                        watches,
                        ..
                    } = self;
                    let lits = db.lits_mut(cref);
                    // Make sure ¬p is lits[1].
                    if lits[0] == false_lit {
                        lits.swap(0, 1);
                    }
                    debug_assert_eq!(lits[1], false_lit);
                    let first = lits[0];
                    if first != w.blocker && lit_value(assigns, first) == LBool::True {
                        ws[j] = Watcher {
                            cref,
                            blocker: first,
                        };
                        j += 1;
                        continue 'watchers;
                    }
                    // Look for a new literal to watch.
                    let mut new_watch = None;
                    for (k, &lk) in lits.iter().enumerate().skip(2) {
                        if lit_value(assigns, lk) != LBool::False {
                            new_watch = Some(k);
                            break;
                        }
                    }
                    if let Some(k) = new_watch {
                        let lk = lits[k];
                        lits.swap(1, k);
                        watches[(!lk).code() as usize].push(Watcher {
                            cref,
                            blocker: first,
                        });
                        continue 'watchers;
                    }
                    first
                };
                // Clause is unit or conflicting under the current assignment.
                ws[j] = Watcher {
                    cref,
                    blocker: first,
                };
                j += 1;
                if self.value_lit(first) == LBool::False {
                    conflict = Some(cref);
                    self.qhead = self.trail.len();
                    // Copy remaining watchers back.
                    while i < ws.len() {
                        ws[j] = ws[i];
                        j += 1;
                        i += 1;
                    }
                } else {
                    self.unchecked_enqueue(first, Some(cref));
                }
            }
            ws.truncate(j);
            debug_assert!(self.watches[p.code() as usize].is_empty());
            self.watches[p.code() as usize] = ws;
            if conflict.is_some() {
                break;
            }
        }
        conflict
    }

    fn cancel_until(&mut self, target: u32) {
        if self.decision_level() <= target {
            return;
        }
        let bound = self.trail_lim[target as usize];
        for idx in (bound..self.trail.len()).rev() {
            let l = self.trail[idx];
            let v = l.var();
            self.assigns[v.index()] = LBool::Undef;
            self.polarity[v.index()] = l.is_positive();
            self.reason[v.index()] = None;
            if !self.order.contains(v) {
                self.order.insert(v, &self.activity);
            }
        }
        self.trail.truncate(bound);
        self.trail_lim.truncate(target as usize);
        self.qhead = self.trail.len();
    }

    fn decay_activities(&mut self) {
        self.var_inc /= self.var_decay;
        self.cla_inc /= 0.999;
    }

    fn bump_clause(&mut self, cref: ClauseRef) {
        let bumped = self.db.activity(cref) + self.cla_inc;
        self.db.set_activity(cref, bumped);
        if bumped > 1e20 {
            let refs: Vec<ClauseRef> = self.db.learnt_refs().collect();
            for r in refs {
                let scaled = self.db.activity(r) * 1e-20;
                self.db.set_activity(r, scaled);
            }
            self.cla_inc *= 1e-20;
        }
    }

    /// First-UIP conflict analysis. Returns the learned clause (asserting
    /// literal first) and the backtrack level.
    fn analyze(&mut self, conflict: ClauseRef) -> (Vec<Lit>, u32) {
        let mut learnt: Vec<Lit> = vec![Lit::from_code(0)]; // placeholder for UIP
        let mut counter = 0usize;
        let mut p: Option<Lit> = None;
        let mut cref = conflict;
        let mut index = self.trail.len();
        let current_level = self.decision_level();

        loop {
            self.bump_clause(cref);
            // Split borrows: the resolved clause's literals are read in
            // place from the arena — the hottest loop in the solver runs
            // allocation-free — while the VSIDS state mutates disjoint
            // fields.
            let Solver {
                db,
                seen,
                level,
                activity,
                var_inc,
                order,
                ..
            } = self;
            let lits = db.lits(cref);
            let skip = usize::from(p.is_some());
            for &q in &lits[skip..] {
                let v = q.var();
                if !seen[v.index()] && level[v.index()] > 0 {
                    seen[v.index()] = true;
                    bump_var_in(activity, var_inc, order, v);
                    if level[v.index()] >= current_level {
                        counter += 1;
                    } else {
                        learnt.push(q);
                    }
                }
            }
            // Select next literal to resolve on.
            loop {
                index -= 1;
                let l = self.trail[index];
                if self.seen[l.var().index()] {
                    p = Some(l);
                    break;
                }
            }
            let pv = p.expect("found UIP candidate").var();
            self.seen[pv.index()] = false;
            counter -= 1;
            if counter == 0 {
                break;
            }
            cref = self.reason[pv.index()].expect("non-decision has a reason");
        }
        learnt[0] = !p.expect("UIP literal");

        // Mark remaining seen lits for minimization bookkeeping; the clear
        // list is a reused scratch buffer, not a fresh allocation.
        let mut clear = std::mem::take(&mut self.analyze_clear);
        clear.clear();
        clear.extend(learnt.iter().copied());
        for &l in &learnt[1..] {
            self.seen[l.var().index()] = true;
        }
        // Full recursive (MiniSat-style) conflict-clause minimization, in
        // place: drop every literal whose reason cone bottoms out in
        // already-seen literals. The level-set bitmask prunes whole cones
        // whose levels cannot appear in the clause.
        self.stats.premin_literals += learnt.len() as u64;
        let abstract_levels = learnt[1..].iter().fold(0u32, |mask, l| {
            mask | 1u32 << (self.level[l.var().index()] & 31)
        });
        let mut kept = 1;
        for i in 1..learnt.len() {
            if !self.lit_redundant(learnt[i], abstract_levels, &mut clear) {
                learnt[kept] = learnt[i];
                kept += 1;
            }
        }
        learnt.truncate(kept);

        for &l in &clear {
            self.seen[l.var().index()] = false;
        }
        self.analyze_clear = clear;

        // Compute backtrack level: max level among learnt[1..].
        let bt = if learnt.len() == 1 {
            0
        } else {
            let mut max_i = 1;
            for i in 2..learnt.len() {
                if self.level[learnt[i].var().index()] > self.level[learnt[max_i].var().index()] {
                    max_i = i;
                }
            }
            learnt.swap(1, max_i);
            self.level[learnt[1].var().index()]
        };
        (learnt, bt)
    }

    /// Checks whether `l` is redundant in the learned clause: walks `l`'s
    /// entire reason cone (iteratively, via the reusable DFS stack) and
    /// reports `true` when every path bottoms out in already-seen literals
    /// or root-level assignments — the full MiniSat recursive test, reading
    /// clause literals in place from the flat arena.
    ///
    /// Literals proven redundant along the way stay marked in `seen` (and
    /// are pushed onto `clear`), so later redundancy checks within the same
    /// conflict reuse the work. On failure, marks added by this walk are
    /// rolled back so the outcome is order-independent.
    fn lit_redundant(&mut self, l: Lit, abstract_levels: u32, clear: &mut Vec<Lit>) -> bool {
        if self.reason[l.var().index()].is_none() {
            return false;
        }
        let mut stack = std::mem::take(&mut self.minimize_stack);
        stack.clear();
        stack.push(l);
        let rollback_from = clear.len();
        let mut redundant = true;
        'walk: while let Some(p) = stack.pop() {
            let r = self.reason[p.var().index()].expect("stacked literals have reasons");
            let Solver {
                db,
                seen,
                level,
                reason,
                ..
            } = self;
            // lits[0] is the implied literal (== ¬p on the trail); the
            // antecedents to explain are lits[1..].
            for &q in &db.lits(r)[1..] {
                let v = q.var().index();
                if seen[v] || level[v] == 0 {
                    continue;
                }
                if reason[v].is_some() && (1u32 << (level[v] & 31)) & abstract_levels != 0 {
                    // Plausibly redundant: mark and explain it too.
                    seen[v] = true;
                    stack.push(q);
                    clear.push(q);
                } else {
                    // A decision (or a level outside the clause): the cone
                    // escapes the learned clause, so `l` must stay.
                    redundant = false;
                    break 'walk;
                }
            }
        }
        if !redundant {
            for &x in &clear[rollback_from..] {
                self.seen[x.var().index()] = false;
            }
            clear.truncate(rollback_from);
        }
        stack.clear();
        self.minimize_stack = stack;
        redundant
    }

    fn record_learnt(&mut self, learnt: Vec<Lit>) {
        self.stats.learned_literals += learnt.len() as u64;
        if learnt.len() == 1 {
            self.unchecked_enqueue(learnt[0], None);
        } else {
            let lbd = self.compute_lbd(&learnt);
            let asserting = learnt[0];
            let cref = self.db.alloc(&learnt, true, lbd);
            self.attach(cref);
            self.bump_clause(cref);
            self.unchecked_enqueue(asserting, Some(cref));
            self.stats.arena_bytes = self.db.arena_bytes() as u64;
        }
    }

    /// Literal block distance of `lits` via the reusable level-stamp
    /// scratch buffer (no allocation, sort, or dedup per learned clause).
    fn compute_lbd(&mut self, lits: &[Lit]) -> u32 {
        self.lbd_gen = self.lbd_gen.wrapping_add(1);
        if self.lbd_gen == 0 {
            // Generation counter wrapped: invalidate every stale stamp.
            self.lbd_stamp.iter_mut().for_each(|s| *s = 0);
            self.lbd_gen = 1;
        }
        let mut distinct = 0u32;
        for l in lits {
            // The asserting literal's level entry may be stale (deeper than
            // the post-backtrack level), so size by what we actually see.
            let lev = self.level[l.var().index()] as usize;
            if lev >= self.lbd_stamp.len() {
                self.lbd_stamp.resize(lev + 1, 0);
            }
            if self.lbd_stamp[lev] != self.lbd_gen {
                self.lbd_stamp[lev] = self.lbd_gen;
                distinct += 1;
            }
        }
        distinct
    }

    /// Removes roughly half of the learned clauses, keeping binary/glue and
    /// high-activity clauses.
    ///
    /// Freed clauses are swept from the watch lists in one batch pass, and
    /// when the freed space crosses the arena's dead-fraction threshold a
    /// garbage-collecting compaction slides live clauses down and remaps
    /// watch lists and reason references (see [`crate::clause`]).
    fn reduce_db(&mut self) {
        self.db.prune_learnts();
        let mut refs: Vec<ClauseRef> = self.db.learnt_refs().collect();
        refs.sort_by(|&a, &b| {
            self.db
                .activity(a)
                .partial_cmp(&self.db.activity(b))
                .unwrap_or(std::cmp::Ordering::Equal)
        });
        let locked: Vec<bool> = refs
            .iter()
            .map(|&r| {
                let first = self.db.lits(r)[0];
                self.reason[first.var().index()] == Some(r) && self.value_lit(first) == LBool::True
            })
            .collect();
        let target = refs.len() / 2;
        let mut removed = 0;
        for (i, &r) in refs.iter().enumerate() {
            if removed >= target {
                break;
            }
            if locked[i] || self.db.len(r) <= 2 || self.db.lbd(r) <= 2 {
                continue;
            }
            self.db.free(r);
            removed += 1;
        }
        if removed > 0 {
            // References are stable until compaction (clauses are only
            // flagged), so `is_deleted` is a safe liveness test here.
            let db = &self.db;
            for ws in &mut self.watches {
                ws.retain(|w| !db.is_deleted(w.cref));
            }
            self.db.prune_learnts();
        }
        self.stats.reductions += 1;
        self.maybe_compact();
    }

    /// Runs the arena garbage collector when enough dead space accrued.
    fn maybe_compact(&mut self) {
        if self.db.should_compact() {
            self.compact_now();
        }
    }

    /// Compacts the arena unconditionally, remapping watch lists and
    /// reason references to the moved clauses.
    fn compact_now(&mut self) {
        let remap = self.db.compact();
        for ws in &mut self.watches {
            for w in ws {
                w.cref = remap.map(w.cref);
            }
        }
        for r in self.reason.iter_mut().flatten() {
            *r = remap.map(*r);
        }
        self.stats.compactions += 1;
        self.stats.arena_bytes = self.db.arena_bytes() as u64;
    }

    /// Forces a learned-clause reduction (and, if the dead-space threshold
    /// is crossed, an arena compaction) immediately. Test hook for
    /// exercising the garbage collector at chosen points; production
    /// reductions are triggered by the `max_learnt` budget during search.
    #[doc(hidden)]
    pub fn force_reduce_db(&mut self) {
        self.reduce_db();
    }

    /// Forces an arena compaction immediately, regardless of the
    /// dead-space threshold. Test hook: lets the compaction-correctness
    /// property tests churn the garbage collector on instances far too
    /// small to cross the production trigger.
    #[doc(hidden)]
    pub fn force_compact(&mut self) {
        self.compact_now();
    }

    fn pick_branch(&mut self) -> Option<Lit> {
        while let Some(v) = self.order.pop_max(&self.activity) {
            if self.assigns[v.index()] == LBool::Undef {
                return Some(Lit::new(v, self.polarity[v.index()]));
            }
        }
        None
    }

    /// Solves the current formula with no assumptions and no budget.
    pub fn solve(&mut self) -> SolveResult {
        self.solve_under_assumptions(&[], &ResourceBudget::unlimited())
    }

    /// Solves under `assumptions` within `budget`.
    ///
    /// The budget is armed on entry ([`ResourceBudget::arm`]): a relative
    /// time limit starts counting now, while a deadline inherited from a
    /// parent call is honored as-is — a nested call can therefore never
    /// overshoot its parent's allowance. The solver checks the deadline at
    /// coarse-grained intervals, so overshoot is bounded but nonzero.
    ///
    /// On [`SolveResult::Unsat`] with nonempty assumptions, the subset of
    /// assumptions involved in the conflict is available from
    /// [`Solver::unsat_core`].
    pub fn solve_under_assumptions(
        &mut self,
        assumptions: &[Lit],
        budget: &ResourceBudget,
    ) -> SolveResult {
        let budget = budget.arm();
        self.model.clear();
        self.conflict_core.clear();
        self.cancel_until(0);
        if !self.ok {
            return SolveResult::Unsat;
        }
        if self.propagate().is_some() {
            self.ok = false;
            return SolveResult::Unsat;
        }

        let conflict_start = self.stats.conflicts;
        let mut restart_idx = 0u64;
        loop {
            let restart_budget = restart_interval(restart_idx);
            restart_idx += 1;
            match self.search(assumptions, restart_budget, &budget, conflict_start) {
                SearchOutcome::Sat => {
                    self.model = self.assigns.clone();
                    self.cancel_until(0);
                    return SolveResult::Sat;
                }
                SearchOutcome::Unsat => {
                    self.cancel_until(0);
                    return SolveResult::Unsat;
                }
                SearchOutcome::Restart => {
                    self.cancel_until(0);
                    self.stats.restarts += 1;
                }
                SearchOutcome::BudgetExhausted => {
                    self.cancel_until(0);
                    return SolveResult::Unknown;
                }
            }
        }
    }

    fn search(
        &mut self,
        assumptions: &[Lit],
        restart_conflicts: u64,
        budget: &ResourceBudget,
        conflict_start: u64,
    ) -> SearchOutcome {
        let mut conflicts_here = 0u64;
        loop {
            if let Some(conflict) = self.propagate() {
                self.stats.conflicts += 1;
                conflicts_here += 1;
                if self.decision_level() == 0 {
                    self.ok = false;
                    return SearchOutcome::Unsat;
                }
                // Conflict within the assumption prefix: extract a core.
                if (self.decision_level() as usize) <= assumptions.len() {
                    self.extract_core(conflict, assumptions);
                    return SearchOutcome::Unsat;
                }
                let (learnt, bt) = self.analyze(conflict);
                self.cancel_until(bt);
                self.record_learnt(learnt);
                self.decay_activities();
                if self.db.num_learnt as f64 > self.max_learnt {
                    self.reduce_db();
                    self.max_learnt *= 1.5;
                }
            } else {
                if conflicts_here >= restart_conflicts
                    && self.decision_level() as usize > assumptions.len()
                {
                    return SearchOutcome::Restart;
                }
                if let Some(cap) = budget.conflict_cap() {
                    if self.stats.conflicts - conflict_start >= cap {
                        return SearchOutcome::BudgetExhausted;
                    }
                }
                if (self.stats.decisions + self.stats.conflicts).is_multiple_of(64)
                    && budget.expired()
                {
                    return SearchOutcome::BudgetExhausted;
                }
                // Establish assumptions as pseudo-decisions first.
                let dl = self.decision_level() as usize;
                if dl < assumptions.len() {
                    let a = assumptions[dl];
                    match self.value_lit(a) {
                        LBool::True => {
                            // Already implied: introduce an empty decision level
                            // so the prefix depth still matches.
                            self.trail_lim.push(self.trail.len());
                        }
                        LBool::False => {
                            self.extract_core_from_assumption(a, assumptions);
                            return SearchOutcome::Unsat;
                        }
                        LBool::Undef => {
                            self.trail_lim.push(self.trail.len());
                            self.unchecked_enqueue(a, None);
                        }
                    }
                    continue;
                }
                match self.pick_branch() {
                    None => return SearchOutcome::Sat,
                    Some(l) => {
                        self.stats.decisions += 1;
                        self.trail_lim.push(self.trail.len());
                        self.unchecked_enqueue(l, None);
                    }
                }
            }
        }
    }

    /// Computes the set of assumption literals entailed in `conflict`.
    fn extract_core(&mut self, conflict: ClauseRef, assumptions: &[Lit]) {
        let (assumption_set, mut queue, mut core) = self.begin_core_walk(assumptions);
        queue.extend_from_slice(self.db.lits(conflict));
        while let Some(l) = queue.pop() {
            let v = l.var().index();
            if self.seen[v] || self.level[v] == 0 {
                continue;
            }
            self.seen[v] = true;
            if assumption_set.binary_search(&!l).is_ok() {
                core.push(!l);
            } else if let Some(r) = self.reason[v] {
                queue.extend_from_slice(self.db.lits(r));
            }
        }
        self.end_core_walk(assumption_set, queue, core);
    }

    fn extract_core_from_assumption(&mut self, failed: Lit, assumptions: &[Lit]) {
        let (assumption_set, mut queue, mut core) = self.begin_core_walk(assumptions);
        core.push(failed);
        // `queue` holds literals that are FALSE under the current trail and
        // whose (true) complements still need explaining.
        queue.push(failed);
        while let Some(l) = queue.pop() {
            let v = l.var().index();
            if self.seen[v] || self.level[v] == 0 {
                continue;
            }
            self.seen[v] = true;
            let t = !l; // the literal that is true on the trail
            let assumed = assumption_set.binary_search(&t).is_ok();
            if t != !failed && assumed {
                core.push(t);
            } else if let Some(r) = self.reason[v] {
                queue.extend(self.db.lits(r).iter().copied().filter(|&q| q != t));
            } else if assumed {
                // Contradictory assumption pair {failed, ¬failed}.
                core.push(t);
            }
        }
        core.sort_unstable();
        core.dedup();
        self.end_core_walk(assumption_set, queue, core);
    }

    /// The reused scratch of a core walk: the assumptions sorted for
    /// binary-search membership (in the `analyze_clear` buffer), an empty
    /// DFS queue (the `minimize_stack` buffer) and the emptied core.
    fn begin_core_walk(&mut self, assumptions: &[Lit]) -> (Vec<Lit>, Vec<Lit>, Vec<Lit>) {
        let mut sorted = std::mem::take(&mut self.analyze_clear);
        sorted.clear();
        sorted.extend_from_slice(assumptions);
        sorted.sort_unstable();
        let mut queue = std::mem::take(&mut self.minimize_stack);
        queue.clear();
        let mut core = std::mem::take(&mut self.conflict_core);
        core.clear();
        (sorted, queue, core)
    }

    /// Returns a core walk's scratch and clears its `seen` marks: the walk
    /// marks only variables assigned above the root, which all sit on the
    /// trail past the first decision level.
    fn end_core_walk(&mut self, sorted: Vec<Lit>, queue: Vec<Lit>, core: Vec<Lit>) {
        let above_root = self.trail_lim.first().map_or(self.trail.len(), |&i| i);
        for &l in &self.trail[above_root..] {
            self.seen[l.var().index()] = false;
        }
        self.analyze_clear = sorted;
        self.minimize_stack = queue;
        self.conflict_core = core;
    }

    /// The value of `l` in the last satisfying model, or `None` if the last
    /// call did not produce a model or `l`'s variable did not exist then.
    pub fn model_value(&self, l: Lit) -> Option<bool> {
        match self.model.get(l.var().index()) {
            Some(LBool::True) => Some(l.is_positive()),
            Some(LBool::False) => Some(l.is_negative()),
            _ => None,
        }
    }

    /// The full model of the last SAT answer as booleans per variable.
    ///
    /// Variables untouched by the search default to `false`.
    pub fn model(&self) -> Vec<bool> {
        self.model
            .iter()
            .map(|v| matches!(v, LBool::True))
            .collect()
    }

    /// Subset of assumptions responsible for the last UNSAT answer.
    pub fn unsat_core(&self) -> &[Lit] {
        &self.conflict_core
    }
}

enum SearchOutcome {
    Sat,
    Unsat,
    Restart,
    BudgetExhausted,
}

/// The two smallest distinct literals of `c`, if it has two.
fn two_smallest(c: &[Lit]) -> Option<(Lit, Lit)> {
    let (mut first, mut second): (Option<Lit>, Option<Lit>) = (None, None);
    for &l in c {
        if first.is_none_or(|f| l < f) {
            second = first;
            first = Some(l);
        } else if first != Some(l) && second.is_none_or(|s| l < s) {
            second = Some(l);
        }
    }
    Some((first?, second?))
}

/// The conflict allowance of restart `i`: 100 conflicts times the `i`-th
/// term of the Luby sequence.
fn restart_interval(i: u64) -> u64 {
    100 * luby(i)
}

/// The Luby restart sequence (1,1,2,1,1,2,4,...).
fn luby(mut i: u64) -> u64 {
    // Find the finite subsequence that contains index i.
    let mut k = 1u32;
    loop {
        if i + 1 == (1u64 << k) - 1 {
            return 1u64 << (k - 1);
        }
        if i + 1 < (1u64 << k) - 1 {
            i -= (1u64 << (k - 1)) - 1;
            k = 1;
            continue;
        }
        k += 1;
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn lit(s: &mut Solver, d: i64) -> Lit {
        while s.num_vars() < d.unsigned_abs() as usize {
            s.new_var();
        }
        Lit::from_dimacs(d)
    }

    #[test]
    fn two_smallest_skips_repeats() {
        let l = |v: &[i64]| v.iter().map(|&d| Lit::from_dimacs(d)).collect::<Vec<_>>();
        let pair = |a, b| Some((Lit::from_dimacs(a), Lit::from_dimacs(b)));
        assert_eq!(two_smallest(&l(&[3, 1, 1, 2])), pair(1, 2));
        assert_eq!(two_smallest(&l(&[2, 2, -1])), pair(-1, 2));
        assert_eq!(two_smallest(&l(&[4, 4])), None);
        assert_eq!(two_smallest(&[]), None);
    }

    #[test]
    fn luby_sequence() {
        let expect = [1, 1, 2, 1, 1, 2, 4, 1, 1, 2, 1, 1, 2, 4, 8];
        let got: Vec<u64> = (0..expect.len() as u64).map(luby).collect();
        assert_eq!(got, expect);
    }

    #[test]
    fn restart_interval_is_100_times_luby() {
        assert_eq!(restart_interval(0), 100);
        assert_eq!(restart_interval(2), 200);
        assert_eq!(restart_interval(6), 400);
        assert_eq!(restart_interval(14), 800);
    }

    #[test]
    fn unconstrained_variable_is_false_in_the_model() {
        // A fresh variable's saved phase is negative, so a variable no
        // clause mentions is decided false.
        let mut s = Solver::new();
        let (a, free) = (lit(&mut s, 1), lit(&mut s, 2));
        s.add_clause([a]);
        assert_eq!(s.solve(), SolveResult::Sat);
        assert_eq!(s.model_value(a), Some(true));
        assert_eq!(s.model_value(free), Some(false));
    }

    #[test]
    fn trivially_sat() {
        let mut s = Solver::new();
        let a = lit(&mut s, 1);
        s.add_clause([a]);
        assert_eq!(s.solve(), SolveResult::Sat);
        assert_eq!(s.model_value(a), Some(true));
    }

    #[test]
    fn trivially_unsat() {
        let mut s = Solver::new();
        let a = lit(&mut s, 1);
        assert!(s.add_clause([a]));
        assert!(!s.add_clause([!a]));
        assert_eq!(s.solve(), SolveResult::Unsat);
    }

    #[test]
    fn requires_propagation_chain() {
        let mut s = Solver::new();
        let (a, b, c) = (lit(&mut s, 1), lit(&mut s, 2), lit(&mut s, 3));
        s.add_clause([a]);
        s.add_clause([!a, b]);
        s.add_clause([!b, c]);
        assert_eq!(s.solve(), SolveResult::Sat);
        assert_eq!(s.model_value(c), Some(true));
    }

    #[test]
    fn pigeonhole_two_in_one() {
        // Two pigeons, one hole: unsat.
        let mut s = Solver::new();
        let p1 = lit(&mut s, 1); // pigeon 1 in hole 1
        let p2 = lit(&mut s, 2); // pigeon 2 in hole 1
        s.add_clause([p1]);
        s.add_clause([p2]);
        s.add_clause([!p1, !p2]);
        assert_eq!(s.solve(), SolveResult::Unsat);
    }

    #[test]
    fn pigeonhole_3_pigeons_2_holes() {
        // Classic PHP(3,2): unsat, requires real search.
        let mut s = Solver::new();
        let mut x = [[Lit::from_code(0); 2]; 3];
        for (p, row) in x.iter_mut().enumerate() {
            for (h, cell) in row.iter_mut().enumerate() {
                *cell = lit(&mut s, (p * 2 + h + 1) as i64);
            }
        }
        for row in &x {
            s.add_clause(row.to_vec());
        }
        for p1 in 0..3 {
            for p2 in (p1 + 1)..3 {
                for (h, &cell) in x[p1].iter().enumerate() {
                    s.add_clause([!cell, !x[p2][h]]);
                }
            }
        }
        assert_eq!(s.solve(), SolveResult::Unsat);
    }

    #[test]
    fn assumptions_flip_result() {
        let mut s = Solver::new();
        let (a, b) = (lit(&mut s, 1), lit(&mut s, 2));
        s.add_clause([a, b]);
        s.add_clause([!a, b]);
        let unlimited = ResourceBudget::unlimited();
        assert_eq!(
            s.solve_under_assumptions(&[!b], &unlimited),
            SolveResult::Unsat
        );
        assert!(s.unsat_core().contains(&!b));
        assert_eq!(
            s.solve_under_assumptions(&[b], &unlimited),
            SolveResult::Sat
        );
        // Solver stays usable incrementally.
        assert_eq!(s.solve(), SolveResult::Sat);
        assert_eq!(s.model_value(b), Some(true));
    }

    #[test]
    fn incremental_add_after_solve() {
        let mut s = Solver::new();
        let (a, b) = (lit(&mut s, 1), lit(&mut s, 2));
        s.add_clause([a, b]);
        assert_eq!(s.solve(), SolveResult::Sat);
        s.add_clause([!a]);
        s.add_clause([!b]);
        assert_eq!(s.solve(), SolveResult::Unsat);
    }

    #[test]
    fn conflict_budget_returns_unknown_or_answer() {
        // A hard instance (PHP 6/5) with a 1-conflict budget should give
        // Unknown rather than hanging or mis-answering.
        let mut s = Solver::new();
        let n = 6usize;
        let m = 5usize;
        let var = |p: usize, h: usize| (p * m + h + 1) as i64;
        for p in 0..n {
            let row: Vec<Lit> = (0..m).map(|h| lit(&mut s, var(p, h))).collect();
            s.add_clause(row);
        }
        for h in 0..m {
            for p1 in 0..n {
                for p2 in (p1 + 1)..n {
                    let (l1, l2) = (lit(&mut s, var(p1, h)), lit(&mut s, var(p2, h)));
                    s.add_clause([!l1, !l2]);
                }
            }
        }
        let r = s.solve_under_assumptions(&[], &ResourceBudget::unlimited().conflicts_per_call(1));
        assert_ne!(r, SolveResult::Sat);
        // And with no budget it is definitively unsat.
        assert_eq!(s.solve(), SolveResult::Unsat);
    }

    #[test]
    fn inherited_deadline_bounds_child_call() {
        // A child call asking for an hour still stops at the parent's
        // (already expired) deadline.
        let mut s = Solver::new();
        let n = 9usize;
        let m = 8usize;
        let var = |p: usize, h: usize| (p * m + h + 1) as i64;
        for p in 0..n {
            let row: Vec<Lit> = (0..m).map(|h| lit(&mut s, var(p, h))).collect();
            s.add_clause(row);
        }
        for h in 0..m {
            for p1 in 0..n {
                for p2 in (p1 + 1)..n {
                    let (l1, l2) = (lit(&mut s, var(p1, h)), lit(&mut s, var(p2, h)));
                    s.add_clause([!l1, !l2]);
                }
            }
        }
        let parent = ResourceBudget::with_time(std::time::Duration::ZERO).arm();
        let child = parent.limit_time(std::time::Duration::from_secs(3600));
        let started = std::time::Instant::now();
        let r = s.solve_under_assumptions(&[], &child);
        assert_eq!(r, SolveResult::Unknown);
        assert!(
            started.elapsed() < std::time::Duration::from_secs(30),
            "child call must respect the parent's deadline"
        );
    }

    #[test]
    fn cloned_solver_is_independent_and_equivalent() {
        // A clone answers like the original and diverges cleanly on
        // later additions.
        let mut s = Solver::new();
        let (a, b) = (lit(&mut s, 1), lit(&mut s, 2));
        s.add_clause([a, b]);
        assert_eq!(s.solve(), SolveResult::Sat);
        let mut c = s.clone();
        assert_eq!(c.num_vars(), s.num_vars());
        assert_eq!(c.solve(), SolveResult::Sat);
        c.add_clause([!a]);
        c.add_clause([!b]);
        assert_eq!(c.solve(), SolveResult::Unsat);
        // The original is unaffected by the clone's extra clauses.
        assert_eq!(s.solve(), SolveResult::Sat);
    }

    #[test]
    fn forced_reduction_and_compaction_keep_answers() {
        // Learn a pile of clauses on a hard instance, then force
        // reductions until the arena compacts; the solver must stay
        // consistent and reusable.
        let mut s = Solver::new();
        let n = 7usize;
        let m = 6usize;
        let var = |p: usize, h: usize| (p * m + h + 1) as i64;
        for p in 0..n {
            let row: Vec<Lit> = (0..m).map(|h| lit(&mut s, var(p, h))).collect();
            s.add_clause(row);
        }
        for h in 0..m {
            for p1 in 0..n {
                for p2 in (p1 + 1)..n {
                    let (l1, l2) = (lit(&mut s, var(p1, h)), lit(&mut s, var(p2, h)));
                    s.add_clause([!l1, !l2]);
                }
            }
        }
        assert_eq!(s.solve(), SolveResult::Unsat);
        assert!(s.stats().arena_bytes > 0);
    }
}
