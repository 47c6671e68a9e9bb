//! Weighted partial MaxSAT instances and the WCNF text format.
//!
//! The paper's SATMAP tool emits WCNF and calls Open-WBO-Inc; this module
//! provides the same interchange format (classic `p wcnf <vars> <clauses>
//! <top>` header) so instances can be inspected or exported to external
//! solvers.

use std::fmt::Write as _;

use sat::{ClauseList, Lit};

/// A soft clause: a disjunction of literals with a positive weight.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct SoftClause {
    /// Weight gained when the clause is satisfied.
    pub weight: u64,
    /// The literals of the clause.
    pub lits: Vec<Lit>,
}

/// A weighted partial MaxSAT instance: hard clauses that must hold and soft
/// clauses whose total satisfied weight is maximized.
///
/// Hard clauses are stored flat in one [`ClauseList`], so adding one
/// allocates nothing per clause, cloning an instance copies two buffers,
/// and a solver loads them all in one
/// [`SatBackend::add_clauses`](sat::SatBackend::add_clauses) call.
///
/// # Examples
///
/// ```
/// use maxsat::WcnfInstance;
/// use sat::{Lit, Var};
///
/// let mut inst = WcnfInstance::new();
/// let a = inst.new_var().positive();
/// let b = inst.new_var().positive();
/// inst.add_hard([a, b]);
/// inst.add_soft(1, [!a]);
/// inst.add_soft(1, [!b]);
/// assert_eq!(inst.num_vars(), 2);
/// ```
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct WcnfInstance {
    num_vars: usize,
    hard: ClauseList,
    soft: Vec<SoftClause>,
}

impl WcnfInstance {
    /// Creates an empty instance.
    pub fn new() -> Self {
        Self::default()
    }

    /// Allocates a fresh variable.
    pub fn new_var(&mut self) -> sat::Var {
        let v = sat::Var::new(self.num_vars);
        self.num_vars += 1;
        v
    }

    /// Ensures at least `n` variables exist.
    pub fn reserve_vars(&mut self, n: usize) {
        self.num_vars = self.num_vars.max(n);
    }

    /// Number of variables.
    pub fn num_vars(&self) -> usize {
        self.num_vars
    }

    /// Adds a hard clause.
    pub fn add_hard<I: IntoIterator<Item = Lit>>(&mut self, lits: I) {
        let mut num_vars = self.num_vars;
        self.hard.push(
            lits.into_iter()
                .inspect(|l| num_vars = num_vars.max(l.var().index() + 1)),
        );
        self.num_vars = num_vars;
    }

    /// Adds a soft clause with the given `weight`.
    ///
    /// # Panics
    ///
    /// Panics if `weight == 0`.
    pub fn add_soft<I: IntoIterator<Item = Lit>>(&mut self, weight: u64, lits: I) {
        assert!(weight > 0, "soft clause weight must be positive");
        let lits: Vec<Lit> = lits.into_iter().collect();
        for l in &lits {
            self.num_vars = self.num_vars.max(l.var().index() + 1);
        }
        self.soft.push(SoftClause { weight, lits });
    }

    /// The hard clauses, in the order they were added.
    pub fn hard_clauses(&self) -> &ClauseList {
        &self.hard
    }

    /// The soft clauses.
    pub fn soft_clauses(&self) -> &[SoftClause] {
        &self.soft
    }

    /// Sum of all soft weights (the worst possible cost plus one is used as
    /// the WCNF "top" weight).
    pub fn total_soft_weight(&self) -> u64 {
        self.soft.iter().map(|s| s.weight).sum()
    }

    /// Cost of `model` (indexed by variable): total weight of *falsified*
    /// soft clauses, or `None` if a hard clause is violated.
    pub fn cost_of(&self, model: &[bool]) -> Option<u64> {
        let sat_lit =
            |l: &Lit| model.get(l.var().index()).copied().unwrap_or(false) == l.is_positive();
        for h in &self.hard {
            if !h.iter().any(&sat_lit) {
                return None;
            }
        }
        Some(
            self.soft
                .iter()
                .filter(|s| !s.lits.iter().any(&sat_lit))
                .map(|s| s.weight)
                .sum(),
        )
    }

    /// Renders the instance in classic WCNF format.
    pub fn to_wcnf(&self) -> String {
        let top = self.total_soft_weight() + 1;
        let mut out = String::new();
        let _ = writeln!(
            out,
            "p wcnf {} {} {}",
            self.num_vars,
            self.hard.len() + self.soft.len(),
            top
        );
        for h in &self.hard {
            let _ = write!(out, "{top} ");
            for l in h {
                let _ = write!(out, "{} ", l.to_dimacs());
            }
            let _ = writeln!(out, "0");
        }
        for s in &self.soft {
            let _ = write!(out, "{} ", s.weight);
            for l in &s.lits {
                let _ = write!(out, "{} ", l.to_dimacs());
            }
            let _ = writeln!(out, "0");
        }
        out
    }

    /// Parses a classic-format WCNF document.
    ///
    /// # Errors
    ///
    /// Returns a message describing the first malformed line.
    pub fn parse_wcnf(text: &str) -> Result<Self, String> {
        let mut inst = WcnfInstance::new();
        let mut top: Option<u64> = None;
        let mut lits = Vec::new();
        for (lineno, line) in text.lines().enumerate() {
            let line = line.trim();
            if line.is_empty() || line.starts_with('c') {
                continue;
            }
            if let Some(rest) = line.strip_prefix('p') {
                let parts: Vec<&str> = rest.split_whitespace().collect();
                if parts.first() != Some(&"wcnf") || parts.len() < 4 {
                    return Err(format!("line {}: bad wcnf header", lineno + 1));
                }
                let vars: usize = parts[1]
                    .parse()
                    .map_err(|_| format!("line {}: bad var count", lineno + 1))?;
                inst.reserve_vars(vars);
                top = Some(
                    parts[3]
                        .parse()
                        .map_err(|_| format!("line {}: bad top weight", lineno + 1))?,
                );
                continue;
            }
            let mut toks = line.split_whitespace();
            let weight: u64 = toks
                .next()
                .and_then(|t| t.parse().ok())
                .ok_or_else(|| format!("line {}: missing weight", lineno + 1))?;
            lits.clear();
            for t in toks {
                let v: i64 = t
                    .parse()
                    .map_err(|_| format!("line {}: bad literal '{t}'", lineno + 1))?;
                if v == 0 {
                    break;
                }
                lits.push(Lit::from_dimacs(v));
            }
            match top {
                Some(t) if weight >= t => inst.add_hard(lits.iter().copied()),
                _ => inst.add_soft(weight, lits.iter().copied()),
            }
        }
        Ok(inst)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn lit(d: i64) -> Lit {
        Lit::from_dimacs(d)
    }

    #[test]
    fn wcnf_round_trip() {
        let mut inst = WcnfInstance::new();
        inst.reserve_vars(3);
        inst.add_hard([lit(1), lit(-2)]);
        inst.add_hard([]);
        inst.add_hard([lit(3), lit(-1), lit(3)]);
        inst.add_soft(5, [lit(3)]);
        inst.add_soft(2, [lit(-1), lit(2)]);
        let text = inst.to_wcnf();
        let parsed = WcnfInstance::parse_wcnf(&text).expect("parses");
        let hard: Vec<&[Lit]> = parsed.hard_clauses().iter().collect();
        assert_eq!(
            hard,
            [&[lit(1), lit(-2)][..], &[], &[lit(3), lit(-1), lit(3)]],
            "every hard clause comes back in order, repeats included"
        );
        assert_eq!(parsed.soft_clauses(), inst.soft_clauses());
        assert_eq!(parsed.total_soft_weight(), 7);
        assert_eq!(parsed, inst);
    }

    #[test]
    fn empty_hard_clause_is_unsatisfiable() {
        let mut inst = WcnfInstance::new();
        inst.add_hard([lit(1)]);
        assert_eq!(inst.cost_of(&[true]), Some(0));
        inst.add_hard([]);
        assert_eq!(inst.hard_clauses().len(), 2);
        assert_eq!(inst.cost_of(&[true]), None);
    }

    #[test]
    fn add_hard_tracks_the_largest_variable() {
        let mut inst = WcnfInstance::new();
        inst.add_hard([lit(-4), lit(2), lit(-4)]);
        assert_eq!(inst.num_vars(), 4);
        assert_eq!(inst.new_var().index(), 4);
    }

    #[test]
    fn cost_of_model() {
        let mut inst = WcnfInstance::new();
        inst.reserve_vars(2);
        inst.add_hard([lit(1)]);
        inst.add_soft(3, [lit(2)]);
        // x1=true, x2=false: hard ok, soft falsified.
        assert_eq!(inst.cost_of(&[true, false]), Some(3));
        // x1=false violates the hard clause.
        assert_eq!(inst.cost_of(&[false, true]), None);
        assert_eq!(inst.cost_of(&[true, true]), Some(0));
    }

    #[test]
    #[should_panic(expected = "positive")]
    fn zero_weight_rejected() {
        let mut inst = WcnfInstance::new();
        inst.add_soft(0, [lit(1)]);
    }

    #[test]
    fn parse_rejects_garbage() {
        assert!(WcnfInstance::parse_wcnf("p cnf 1 1\n").is_err());
        assert!(WcnfInstance::parse_wcnf("p wcnf a b c\n").is_err());
        assert!(WcnfInstance::parse_wcnf("nonsense\n").is_err());
    }
}
