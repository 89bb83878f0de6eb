//! Full-size equivalence of extraction on the Table 2 stand-ins.
//!
//! The unit tests in `extract.rs` check small netlists exhaustively; the
//! stand-ins have up to a few hundred inputs, so here every one is
//! extracted and the network is compared with the netlist on seeded
//! random input vectors.

use std::sync::Arc;
use tm_netlist::extract::{extract, ExtractOptions};
use tm_netlist::library::lsi10k_like;
use tm_netlist::suites::table2_suite;
use tm_testkit::rng::{fnv1a64, Rng};

/// Random input vectors per circuit.
const VECTORS: usize = 256;

#[test]
fn every_table2_stand_in_extracts_to_an_equivalent_network() {
    let lib = Arc::new(lsi10k_like());
    let options = ExtractOptions::default();
    for entry in table2_suite() {
        let nl = entry.build(lib.clone());
        let net = extract(&nl, options);
        for sig in net.node_sigs() {
            let support = net.node_of(sig).map_or(0, |node| node.inputs().len());
            assert!(
                support <= options.max_support,
                "{}: node {sig:?} has {support} inputs",
                entry.name
            );
        }
        let mut rng = Rng::seed_from_u64(fnv1a64(entry.name.as_bytes()));
        for v in 0..VECTORS {
            let assignment: Vec<bool> = (0..nl.inputs().len()).map(|_| rng.next_bool()).collect();
            assert_eq!(net.eval(&assignment), nl.eval(&assignment), "{}: vector {v}", entry.name);
        }
    }
}
