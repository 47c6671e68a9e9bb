//! A dependency view of a circuit used by the routing heuristics: gates
//! become executable once every earlier gate sharing a qubit has executed.

use std::cmp::Reverse;
use std::collections::BinaryHeap;

use circuit::{Circuit, Gate, Qubit};

/// Tracks which gates are ready ("front layer") as execution progresses.
#[derive(Clone, Debug)]
pub struct DagFrontier {
    /// For each qubit, indices of its gates in program order not yet done.
    pending: Vec<std::collections::VecDeque<usize>>,
    executed: Vec<bool>,
    num_done: usize,
}

impl DagFrontier {
    /// Builds the frontier for `circuit`.
    pub fn new(circuit: &Circuit) -> Self {
        let mut pending = vec![std::collections::VecDeque::new(); circuit.num_qubits()];
        for (k, g) in circuit.gates().iter().enumerate() {
            for q in g.qubits() {
                pending[q.0].push_back(k);
            }
        }
        DagFrontier {
            pending,
            executed: vec![false; circuit.len()],
            num_done: 0,
        }
    }

    /// True when every gate has executed.
    pub fn is_done(&self) -> bool {
        self.num_done == self.executed.len()
    }

    /// Number of gates executed so far.
    pub fn num_done(&self) -> usize {
        self.num_done
    }

    /// True if gate `k` is ready: it heads the pending queue of each of its
    /// qubits.
    pub fn is_ready(&self, circuit: &Circuit, k: usize) -> bool {
        !self.executed[k]
            && circuit.gates()[k]
                .qubits()
                .iter()
                .all(|q| self.pending[q.0].front() == Some(&k))
    }

    /// The current front layer: ready gate indices in program order.
    pub fn front(&self, circuit: &Circuit) -> Vec<usize> {
        let mut out = Vec::new();
        for q in 0..circuit.num_qubits() {
            if let Some(&k) = self.pending[q].front() {
                if self.is_ready(circuit, k) && !out.contains(&k) {
                    out.push(k);
                }
            }
        }
        out.sort_unstable();
        out
    }

    /// Marks gate `k` executed.
    ///
    /// # Panics
    ///
    /// Panics if `k` is not ready.
    pub fn execute(&mut self, circuit: &Circuit, k: usize) {
        assert!(self.is_ready(circuit, k), "gate {k} is not ready");
        for q in circuit.gates()[k].qubits() {
            self.pending[q.0].pop_front();
        }
        self.executed[k] = true;
        self.num_done += 1;
    }

    /// The next up-to-`limit` *two-qubit* gates beyond the front (SABRE's
    /// "extended set"), as `(a, b)` logical pairs.
    ///
    /// These are the first `limit` two-qubit gates, in index order, among
    /// the pending gates that are not ready. Each qubit's queue is already
    /// in index order, so a k-way merge over the queues yields them
    /// without looking at the rest of the circuit.
    pub fn extended_set(&self, circuit: &Circuit, limit: usize) -> Vec<(Qubit, Qubit)> {
        let mut out = Vec::new();
        if limit == 0 {
            return out;
        }
        // Min-heap of (next gate index, qubit, position in its queue). A
        // ready gate heads every queue it sits in, so skipping ready heads
        // drops it entirely.
        let mut heap = BinaryHeap::with_capacity(self.pending.len());
        for (q, queue) in self.pending.iter().enumerate() {
            let skip = usize::from(queue.front().is_some_and(|&k| self.is_ready(circuit, k)));
            if let Some(&k) = queue.get(skip) {
                heap.push(Reverse((k, q, skip)));
            }
        }
        let mut last = None;
        while let Some(Reverse((k, q, i))) = heap.pop() {
            if let Some(&next) = self.pending[q].get(i + 1) {
                heap.push(Reverse((next, q, i + 1)));
            }
            // A two-qubit gate comes out of both of its queues in a row.
            if last == Some(k) {
                continue;
            }
            last = Some(k);
            if let Gate::Two { a, b, .. } = &circuit.gates()[k] {
                out.push((*a, *b));
                if out.len() == limit {
                    break;
                }
            }
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    /// The extended set as first written: every pending gate that is not
    /// ready, collected into a `BTreeSet`, then the first `limit`
    /// two-qubit gates. The reference the k-way merge must reproduce.
    fn extended_set_reference(
        f: &DagFrontier,
        circuit: &Circuit,
        limit: usize,
    ) -> Vec<(Qubit, Qubit)> {
        let mut seen = std::collections::BTreeSet::new();
        for q in 0..circuit.num_qubits() {
            for &k in f.pending[q].iter().skip(1) {
                seen.insert(k);
            }
            if let Some(&k) = f.pending[q].front() {
                if !f.is_ready(circuit, k) {
                    seen.insert(k);
                }
            }
        }
        seen.into_iter()
            .filter_map(|k| match &circuit.gates()[k] {
                Gate::Two { a, b, .. } => Some((*a, *b)),
                Gate::One { .. } => None,
            })
            .take(limit)
            .collect()
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(200))]

        /// Random circuits with one-qubit gates, checked after every step
        /// of a random execution order.
        #[test]
        fn extended_set_matches_btreeset_walk(
            n in 2usize..9,
            gates in prop::collection::vec((0usize..9, 0usize..9, prop::bool::ANY), 0..80),
            picks in prop::collection::vec(0usize..16, 0..80),
        ) {
            let mut c = Circuit::new(n);
            for &(a, b, two) in &gates {
                let (a, b) = (a % n, b % n);
                if two && a != b {
                    c.cx(a, b);
                } else {
                    c.h(a);
                }
            }
            let mut f = DagFrontier::new(&c);
            for &pick in picks.iter().chain([&0]) {
                prop_assert!(f.extended_set(&c, 0).is_empty());
                for limit in [1, 20] {
                    prop_assert_eq!(
                        f.extended_set(&c, limit),
                        extended_set_reference(&f, &c, limit)
                    );
                }
                let front = f.front(&c);
                if front.is_empty() {
                    break;
                }
                f.execute(&c, front[pick % front.len()]);
            }
        }
    }

    #[test]
    fn front_and_execution_order() {
        let mut c = Circuit::new(4);
        c.cx(0, 1); // 0
        c.cx(2, 3); // 1 (parallel with 0)
        c.cx(1, 2); // 2 (depends on both)
        let mut f = DagFrontier::new(&c);
        assert_eq!(f.front(&c), vec![0, 1]);
        assert!(!f.is_ready(&c, 2));
        f.execute(&c, 1);
        assert_eq!(f.front(&c), vec![0]);
        f.execute(&c, 0);
        assert_eq!(f.front(&c), vec![2]);
        f.execute(&c, 2);
        assert!(f.is_done());
    }

    #[test]
    #[should_panic(expected = "not ready")]
    fn cannot_execute_blocked_gate() {
        let mut c = Circuit::new(3);
        c.cx(0, 1);
        c.cx(1, 2);
        let mut f = DagFrontier::new(&c);
        f.execute(&c, 1);
    }

    #[test]
    fn extended_set_sees_beyond_front() {
        let mut c = Circuit::new(3);
        c.cx(0, 1); // front
        c.cx(1, 2); // extended
        c.cx(0, 2); // extended
        let f = DagFrontier::new(&c);
        let ext = f.extended_set(&c, 10);
        assert_eq!(ext.len(), 2);
        let ext1 = f.extended_set(&c, 1);
        assert_eq!(ext1.len(), 1);
    }

    #[test]
    fn one_qubit_gates_excluded_from_extended_set() {
        let mut c = Circuit::new(2);
        c.cx(0, 1);
        c.h(0);
        c.cx(0, 1);
        let f = DagFrontier::new(&c);
        assert_eq!(f.extended_set(&c, 10).len(), 1);
    }
}
