//! Architecture study: how the gap between SATMAP and a heuristic router
//! changes with device connectivity (the paper's Q4 / Fig. 14), on the
//! Tokyo− / Tokyo / Tokyo+ family.
//!
//! Run with: `cargo run --release --example architecture_sweep`

use std::time::Duration;

use circuit::{verify::verify, RouteRequest};
use routers::RouterRegistry;

fn main() -> Result<(), Box<dyn std::error::Error>> {
    let budget = Duration::from_secs(5);
    let circuits: Vec<circuit::Circuit> = (0..4)
        .map(|seed| circuit::generators::random_local(8, 30, 7, 0.2, seed))
        .collect();

    let registry = RouterRegistry::standard();
    let satmap = registry.create("satmap")?;
    let tket = registry.create("tket")?;

    println!(
        "{:<10} {:>10} {:>14} {:>12} {:>8}",
        "device", "avg.deg", "SATMAP gates", "TKET gates", "ratio"
    );
    for graph in [
        arch::devices::tokyo_minus(),
        arch::devices::tokyo(),
        arch::devices::tokyo_plus(),
    ] {
        let mut sm_total = 0usize;
        let mut tk_total = 0usize;
        let mut solved = 0usize;
        for c in &circuits {
            let request = RouteRequest::new(c, &graph).with_budget(budget);
            // Skip circuits SATMAP cannot finish within the budget (can
            // happen on loaded machines); the comparison uses the rest.
            let Ok(sm) = satmap.route_request(&request).into_result() else {
                continue;
            };
            verify(c, &graph, &sm).expect("verifies");
            let tk = tket
                .route_request(&RouteRequest::new(c, &graph).with_budget(budget))
                .into_result()?;
            verify(c, &graph, &tk).expect("verifies");
            sm_total += sm.added_gates();
            tk_total += tk.added_gates();
            solved += 1;
        }
        let ratio = if sm_total == 0 {
            f64::INFINITY
        } else {
            tk_total as f64 / sm_total as f64
        };
        println!(
            "{:<10} {:>10.1} {:>14} {:>12} {:>8.2}   ({solved}/{} circuits)",
            graph.name(),
            graph.average_degree(),
            sm_total,
            tk_total,
            ratio,
            circuits.len()
        );
    }
    println!("\nExpected shape (paper Fig. 14): the ratio grows with connectivity —");
    println!("heuristics stay close on sparse Tokyo− and diverge on dense Tokyo+.");
    Ok(())
}
