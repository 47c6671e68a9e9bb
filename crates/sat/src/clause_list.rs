//! Flat clause lists: many clauses in two buffers.
//!
//! A [`ClauseList`] stores every literal of every clause back to back in
//! one `Vec<Lit>` and records where each clause ends in a second
//! `Vec<u32>`. Appending a clause is a buffer extend, not a heap
//! allocation, and cloning a list is two `memcpy`s. Encoders build their
//! hard clauses into one (`maxsat::WcnfInstance` does), and
//! [`crate::SatBackend::add_clauses`] loads one into a solver in a single
//! call that can size its storage up front.

use crate::lit::Lit;

/// An ordered list of clauses stored flat (see the module docs).
///
/// # Examples
///
/// ```
/// use sat::{ClauseList, Lit};
///
/// let (a, b) = (Lit::from_dimacs(1), Lit::from_dimacs(-2));
/// let mut list = ClauseList::new();
/// list.push([a, b]);
/// list.push([]);
/// assert_eq!(list.len(), 2);
/// let clauses: Vec<&[Lit]> = list.iter().collect();
/// assert_eq!(clauses, [&[a, b][..], &[][..]]);
/// ```
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct ClauseList {
    lits: Vec<Lit>,
    /// `ends[i]` is the offset one past clause `i`'s last literal.
    ends: Vec<u32>,
}

impl ClauseList {
    /// Creates an empty list.
    pub fn new() -> Self {
        Self::default()
    }

    /// Appends one clause.
    ///
    /// # Panics
    ///
    /// Panics if the list would hold more than `u32::MAX` literals.
    pub fn push<I: IntoIterator<Item = Lit>>(&mut self, lits: I) {
        self.lits.extend(lits);
        let end = u32::try_from(self.lits.len()).expect("clause list exceeds u32 literal offsets");
        self.ends.push(end);
    }

    /// Number of clauses.
    pub fn len(&self) -> usize {
        self.ends.len()
    }

    /// Whether the list holds no clauses.
    pub fn is_empty(&self) -> bool {
        self.ends.is_empty()
    }

    /// The clauses in insertion order.
    pub fn iter(&self) -> Clauses<'_> {
        Clauses {
            lits: &self.lits,
            ends: self.ends.iter(),
            start: 0,
        }
    }
}

impl<'a> IntoIterator for &'a ClauseList {
    type Item = &'a [Lit];
    type IntoIter = Clauses<'a>;

    fn into_iter(self) -> Clauses<'a> {
        self.iter()
    }
}

/// Iterator over the clauses of a [`ClauseList`], as literal slices.
#[derive(Clone, Debug)]
pub struct Clauses<'a> {
    lits: &'a [Lit],
    ends: std::slice::Iter<'a, u32>,
    start: usize,
}

impl<'a> Iterator for Clauses<'a> {
    type Item = &'a [Lit];

    fn next(&mut self) -> Option<&'a [Lit]> {
        let end = *self.ends.next()? as usize;
        let clause = &self.lits[self.start..end];
        self.start = end;
        Some(clause)
    }

    fn size_hint(&self) -> (usize, Option<usize>) {
        self.ends.size_hint()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn lits(v: &[i64]) -> Vec<Lit> {
        v.iter().map(|&d| Lit::from_dimacs(d)).collect()
    }

    #[test]
    fn clauses_come_back_in_order_with_their_literals() {
        let input = [vec![1, -2, 3], vec![], vec![4], vec![-1, -1, 2]];
        let mut list = ClauseList::new();
        for c in &input {
            list.push(lits(c));
        }
        assert_eq!(list.len(), input.len());
        let got: Vec<Vec<Lit>> = list.iter().map(<[Lit]>::to_vec).collect();
        let want: Vec<Vec<Lit>> = input.iter().map(|c| lits(c)).collect();
        assert_eq!(got, want);
    }

    #[test]
    fn empty_list() {
        let list = ClauseList::new();
        assert!(list.is_empty());
        assert_eq!(list.iter().next(), None);
    }
}
