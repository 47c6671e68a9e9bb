//! What each workload sends. `NOTES.md` records why each workload and
//! instance was chosen and which were measured and excluded.

use std::time::Duration;

use arch::{ConnectivityGraph, NoiseModel};
use circuit::suite::Benchmark;
use circuit::{Circuit, Gate, Objective, Qubit, RouteRequest};

/// The benchmark's workloads.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Kind {
    /// `satmap` on instances where encoding does most of the work.
    EncodeHeavy,
    /// `satmap` on instances where sliced CDCL search does most of the work.
    SearchHeavy,
    /// `nl-satmap` with the fidelity objective: stratified core-guided search.
    WeightedCore,
    /// Heuristic routers behind the `routed` daemon over loopback.
    ServiceMix,
}

impl Kind {
    pub const ALL: [Kind; 4] = [
        Kind::EncodeHeavy,
        Kind::SearchHeavy,
        Kind::WeightedCore,
        Kind::ServiceMix,
    ];

    pub fn name(self) -> &'static str {
        match self {
            Kind::EncodeHeavy => "encode_heavy",
            Kind::SearchHeavy => "search_heavy",
            Kind::WeightedCore => "weighted_core",
            Kind::ServiceMix => "service_mix",
        }
    }

    pub fn parse(name: &str) -> Option<Kind> {
        Kind::ALL.into_iter().find(|k| k.name() == name)
    }
}

/// Named suite entries excluded from `encode_heavy`: they need more than
/// three SAT calls (search, not encoding, dominates), are `search_heavy`
/// instances, or repeat another entry's circuit (`xor5_254` is
/// `graycode6_47`).
const ENCODE_HEAVY_EXCLUDED: &[&str] = &[
    "4mod5-bdd_287",
    "alu-bdd_288",
    "qe_qft_5",
    "ising_model_10",
    "ising_model_13",
    "ising_model_16",
    "xor5_254",
];

/// Tier-1 suite entries in `encode_heavy`: the `rev_5q_*`/`adder_6q_*`
/// ones that prove in at most three SAT calls, one per distinct circuit
/// (`adder_6q_48g_t1` and `adder_6q_59g_t1` are `adder_6q_38g_t1`).
const ENCODE_HEAVY_TIER1: &[&str] = &[
    "rev_5q_30g_t1",
    "rev_5q_37g_t1",
    "rev_5q_46g_t1",
    "rev_5q_57g_t1",
    "rev_5q_70g_t1",
    "adder_6q_31g_t1",
    "adder_6q_38g_t1",
];

/// Named entries of the small RevLib block of the suite (the first 40).
const NAMED_SMALL_ENTRIES: usize = 40;

const SEARCH_HEAVY: &[&str] = &[
    "qe_qft_5",
    "ising_model_10",
    "ising_model_13",
    "ising_model_16",
    "modc_7q_32g_t1",
    "modc_7q_40g_t1",
    "modc_7q_49g_t1",
    "ising_10q_36g_t1",
    "ising_10q_55g_t1",
];

const WEIGHTED_CORE: &[&str] = &["ham3_102", "ex-1_166", "ex1_226", "4gt11_84"];

/// Seed of the synthetic noise model behind the fidelity objective.
const NOISE_SEED: u64 = 2022;

/// One named circuit of a solver workload.
#[derive(Clone, Debug)]
pub struct Instance {
    pub name: String,
    pub circuit: Circuit,
}

/// A solver workload: one router over a fixed instance list on `tokyo`,
/// every request under the default `Parallelism::Serial`.
pub struct SolverWorkload {
    pub kind: Kind,
    pub router: &'static str,
    pub graph: ConnectivityGraph,
    pub objective: Objective,
    pub budget: Duration,
    /// The request sequence of one pass.
    pub instances: Vec<Instance>,
}

impl SolverWorkload {
    /// Builds the workload. The seed does not enter: these are fixed,
    /// named time-to-proof instances in a fixed order. (A seeded order was
    /// tried; through the allocator's history it moved peak RSS by up to
    /// 40% between seeds and changed nothing else.)
    ///
    /// # Panics
    ///
    /// When `kind` is [`Kind::ServiceMix`] or a named instance is missing
    /// from the suite.
    pub fn build(kind: Kind) -> Self {
        let graph = arch::devices::tokyo();
        let suite = circuit::suite::suite();
        let (router, objective, budget, instances) = match kind {
            Kind::EncodeHeavy => (
                "satmap",
                Objective::SwapCount,
                Duration::from_secs(5),
                encode_heavy_instances(&suite),
            ),
            Kind::SearchHeavy => (
                "satmap",
                Objective::SwapCount,
                Duration::from_secs(10),
                SEARCH_HEAVY.iter().map(|n| named(&suite, n)).collect(),
            ),
            Kind::WeightedCore => {
                let mut list: Vec<Instance> =
                    WEIGHTED_CORE.iter().map(|n| named(&suite, n)).collect();
                list.push(Instance {
                    name: "q6_noise".into(),
                    circuit: circuit::generators::random_local(4, 6, 3, 0.0, 5),
                });
                let noise = NoiseModel::synthetic(&graph, NOISE_SEED);
                (
                    "nl-satmap",
                    Objective::Fidelity(noise),
                    Duration::from_secs(10),
                    list,
                )
            }
            Kind::ServiceMix => panic!("service_mix is not a solver workload"),
        };
        SolverWorkload {
            kind,
            router,
            graph,
            objective,
            budget,
            instances,
        }
    }

    /// The request for instance `i` of the sequence.
    pub fn request(&self, i: usize) -> RouteRequest<'_> {
        RouteRequest::new(&self.instances[i].circuit, &self.graph)
            .with_budget(self.budget)
            .with_objective(self.objective.clone())
    }

    /// Instance `i` as a `route` wire line. The wire has no objective key,
    /// so `weighted_core` lines carry the circuit and budget only.
    pub fn line(&self, i: usize) -> String {
        service::wire::route_line(
            self.router,
            "tokyo",
            &self.instances[i].circuit,
            &[("budget_ms", self.budget.as_millis().to_string())],
        )
    }
}

fn named(suite: &[Benchmark], name: &str) -> Instance {
    let b = suite
        .iter()
        .find(|b| b.name == name)
        .unwrap_or_else(|| panic!("suite entry {name} is missing"));
    Instance {
        name: b.name.clone(),
        circuit: b.circuit.clone(),
    }
}

fn encode_heavy_instances(suite: &[Benchmark]) -> Vec<Instance> {
    suite[..NAMED_SMALL_ENTRIES]
        .iter()
        .filter(|b| !ENCODE_HEAVY_EXCLUDED.contains(&b.name.as_str()))
        .map(|b| named(suite, &b.name))
        .chain(ENCODE_HEAVY_TIER1.iter().map(|n| named(suite, n)))
        .collect()
}

/// SplitMix64: a tiny, fixed generator, so inputs depend on the seed alone.
fn splitmix(state: &mut u64) -> u64 {
    *state = state.wrapping_add(0x9E37_79B9_7F4A_7C15);
    let mut z = *state;
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// Seeded Fisher-Yates shuffle.
fn shuffle<T>(items: &mut [T], seed: u64) {
    let mut state = seed;
    for i in (1..items.len()).rev() {
        let j = (splitmix(&mut state) % (i as u64 + 1)) as usize;
        items.swap(i, j);
    }
}

// ---------------------------------------------------------------- service_mix

/// Suite tiers 2–4 (120–3000 two-qubit gates) start after the named block
/// and the 40 tier-1 entries.
const TIER2_START: usize = 80;
/// Every `TEMPLATE_STRIDE`-th tier 2–4 entry becomes a template.
const TEMPLATE_STRIDE: usize = 4;
/// `sabre` takes seconds on the largest circuits; it only gets these.
const SABRE_MAX_GATES: usize = 450;
/// Of every `MIX_PERIOD` timed positions, those in `REPEAT_SLOTS` replay a
/// warm line (cache hit) and the rest send a fresh circuit (cache miss).
const MIX_PERIOD: usize = 5;
const REPEAT_SLOTS: &[usize] = &[1, 3];
pub const SERVICE_BUDGET_MS: u64 = 5000;
pub const SERVICE_DEVICE: &str = "tokyo";

/// One line the `service_mix` client sends.
#[derive(Clone, Debug)]
pub struct MixLine {
    pub label: String,
    pub router: &'static str,
    pub two_qubit_gates: usize,
    pub line: String,
}

/// A warm line's suite entry and router; fresh lines relabel its circuit.
#[derive(Clone, Debug)]
struct Template {
    name: String,
    router: &'static str,
    circuit: Circuit,
}

/// The `service_mix` request list: the warm set (sent once during set-up,
/// which fills the cache) and the seeded timed positions after it: of every
/// five, two replay a warm line and three send a fresh relabelling of a
/// warm line's circuit to the same router.
pub struct ServiceMix {
    pub seed: u64,
    pub warm: Vec<MixLine>,
    templates: Vec<Template>,
    repeat_order: Vec<usize>,
    fresh_order: Vec<usize>,
}

impl ServiceMix {
    pub fn build(seed: u64) -> Self {
        let suite = circuit::suite::suite();
        let mut warm = Vec::new();
        let mut templates = Vec::new();
        for b in suite[TIER2_START..].iter().step_by(TEMPLATE_STRIDE) {
            let gates = b.circuit.num_two_qubit_gates();
            let routers: &[&'static str] = if gates <= SABRE_MAX_GATES {
                &["tket", "astar", "sabre"]
            } else {
                &["tket", "astar"]
            };
            for &router in routers {
                warm.push(MixLine {
                    label: format!("{}/{router}", b.name),
                    router,
                    two_qubit_gates: gates,
                    line: mix_line(router, &b.circuit),
                });
                templates.push(Template {
                    name: b.name.clone(),
                    router,
                    circuit: b.circuit.clone(),
                });
            }
        }
        let mut state = seed;
        shuffle(&mut warm, splitmix(&mut state));
        // Templates stay in suite order: `warm` is shuffled, so index the
        // two orders separately.
        let mut repeat_order: Vec<usize> = (0..warm.len()).collect();
        shuffle(&mut repeat_order, splitmix(&mut state));
        let mut fresh_order: Vec<usize> = (0..templates.len()).collect();
        shuffle(&mut fresh_order, splitmix(&mut state));
        ServiceMix {
            seed,
            warm,
            templates,
            repeat_order,
            fresh_order,
        }
    }

    /// Whether timed position `k` replays a warm line.
    pub fn is_repeat(k: usize) -> bool {
        REPEAT_SLOTS.contains(&(k % MIX_PERIOD))
    }

    /// The line sent at timed position `k` (0-based, after the warm set).
    pub fn position(&self, k: usize) -> MixLine {
        let cycle = k / MIX_PERIOD;
        if Self::is_repeat(k) {
            let slot = REPEAT_SLOTS
                .iter()
                .position(|&s| s == k % MIX_PERIOD)
                .expect("repeat slot");
            let r = cycle * REPEAT_SLOTS.len() + slot;
            return self.warm[self.repeat_order[r % self.warm.len()]].clone();
        }
        let before = REPEAT_SLOTS.iter().filter(|&&s| s < k % MIX_PERIOD).count();
        let f = k - cycle * REPEAT_SLOTS.len() - before;
        let t = self.fresh_order[f % self.templates.len()];
        let template = &self.templates[t];
        // The j-th fresh use of a template relabels its qubits with the
        // permutation of Lehmer rank 1 + (offset + j) mod (n! - 1): never
        // the identity, and a different one on every use, so each fresh
        // line misses the cache while doing the template's work.
        let n = template.circuit.num_qubits();
        let ranks = factorial(n) - 1;
        let mut state = self.seed ^ (t as u64).wrapping_mul(0xA076_1D64_78BD_642F);
        let offset = splitmix(&mut state) % ranks;
        let j = (f / self.templates.len()) as u64;
        let perm = lehmer_permutation(n, 1 + (offset + j) % ranks);
        MixLine {
            label: format!("{}/{}~{j}", template.name, template.router),
            router: template.router,
            two_qubit_gates: template.circuit.num_two_qubit_gates(),
            line: mix_line(template.router, &relabel(&template.circuit, &perm)),
        }
    }
}

fn factorial(n: usize) -> u64 {
    (1..=n as u64).product()
}

/// The permutation of `0..n` with lexicographic rank `rank` (< n!).
fn lehmer_permutation(n: usize, mut rank: u64) -> Vec<usize> {
    let mut pool: Vec<usize> = (0..n).collect();
    let mut perm = Vec::with_capacity(n);
    for i in (0..n).rev() {
        let f = factorial(i);
        perm.push(pool.remove((rank / f) as usize));
        rank %= f;
    }
    perm
}

fn relabel(circuit: &Circuit, perm: &[usize]) -> Circuit {
    let mut out = Circuit::new(circuit.num_qubits());
    for gate in circuit.gates() {
        out.push(match gate.clone() {
            Gate::One { kind, qubit, param } => Gate::One {
                kind,
                qubit: Qubit(perm[qubit.0]),
                param,
            },
            Gate::Two { kind, a, b, param } => Gate::Two {
                kind,
                a: Qubit(perm[a.0]),
                b: Qubit(perm[b.0]),
                param,
            },
        });
    }
    out
}

fn mix_line(router: &str, circuit: &Circuit) -> String {
    service::wire::route_line(
        router,
        SERVICE_DEVICE,
        circuit,
        &[("budget_ms", SERVICE_BUDGET_MS.to_string())],
    )
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn lehmer_ranks_enumerate_distinct_permutations() {
        let all: std::collections::HashSet<Vec<usize>> =
            (0..24).map(|r| lehmer_permutation(4, r)).collect();
        assert_eq!(all.len(), 24);
        assert_eq!(lehmer_permutation(4, 0), vec![0, 1, 2, 3]);
        assert_eq!(lehmer_permutation(4, 23), vec![3, 2, 1, 0]);
    }

    #[test]
    fn same_seed_gives_byte_identical_lines() {
        let (a, b) = (ServiceMix::build(7), ServiceMix::build(7));
        let lines = |m: &ServiceMix| -> Vec<String> {
            m.warm
                .iter()
                .cloned()
                .chain((0..40).map(|k| m.position(k)))
                .map(|l| l.line)
                .collect()
        };
        assert_eq!(lines(&a), lines(&b));
        let c = ServiceMix::build(8);
        assert_ne!(lines(&a), lines(&c), "the seed must change the lines");
    }

    #[test]
    fn fresh_positions_never_repeat_and_repeats_come_from_the_warm_set() {
        let mix = ServiceMix::build(3);
        let warm: std::collections::HashSet<&str> =
            mix.warm.iter().map(|l| l.line.as_str()).collect();
        let mut fresh = std::collections::HashSet::new();
        for k in 0..2000 {
            let line = mix.position(k);
            if ServiceMix::is_repeat(k) {
                assert!(warm.contains(line.line.as_str()), "position {k}");
            } else {
                assert!(!warm.contains(line.line.as_str()), "position {k}");
                assert!(fresh.insert(line.line), "fresh position {k} repeats");
            }
        }
    }

    #[test]
    fn solver_workload_instances_are_distinct_circuits() {
        for kind in [Kind::EncodeHeavy, Kind::SearchHeavy, Kind::WeightedCore] {
            let wl = SolverWorkload::build(kind);
            let mut seen = std::collections::HashSet::new();
            for i in 0..wl.instances.len() {
                assert!(
                    seen.insert(wl.request(i).fingerprint()),
                    "{}: {} repeats an earlier circuit",
                    kind.name(),
                    wl.instances[i].name
                );
            }
        }
    }
}
