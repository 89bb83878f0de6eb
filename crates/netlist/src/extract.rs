//! Extraction of a technology-independent network from a mapped netlist.
//!
//! The paper's synthesis starts from "the technology-independent
//! representation of the original circuit" with complex nodes of 10–15
//! inputs (§4.1). [`extract`] produces that representation by *partial
//! collapse*: every gate becomes an SOP node, then single-fanout nodes
//! are greedily inlined into their reader while the combined support
//! stays within the requested bound.
//!
//! A merge composes truth tables by variable embedding. The merged
//! boundary is the reader's boundary without the absorbed pin, followed
//! by the absorbed node's nets it does not already hold. The reader's
//! two cofactors on the pin, `O₀` and `O₁`, are projected off the pin
//! and embedded into that boundary; the absorbed node's table `I` is
//! embedded by its nets' places. The merged table is the mux on the
//! absorbed function, `I·O₁ + ¬I·O₀`, computed a word at a time. No
//! intermediate table is wider than the merged boundary, so the bound
//! may be [`tm_logic::tt::MAX_TT_VARS`] itself. A node's unused inputs
//! are then dropped by projecting its table onto its support.

use crate::netlist::{Driver, Netlist};
use crate::sop_network::{SigId, SopNetwork};
use crate::types::NetId;
use std::collections::HashMap;
use tm_logic::{qm, TruthTable};

/// Options controlling partial collapse.
#[derive(Clone, Copy, Debug)]
pub struct ExtractOptions {
    /// Maximum node support (fanin count) after collapsing. The paper
    /// works with 10–15-input nodes; the default is 12.
    pub max_support: usize,
}

impl Default for ExtractOptions {
    fn default() -> Self {
        ExtractOptions { max_support: 12 }
    }
}

/// A gate cluster during collapse: a truth table over boundary nets.
#[derive(Clone)]
struct Cluster {
    boundary: Vec<NetId>,
    tt: TruthTable,
}

/// Extracts a technology-independent [`SopNetwork`] from a mapped
/// [`Netlist`] by partial collapse.
///
/// The result computes the same function (input/output order preserved).
/// Node supports never exceed `options.max_support`, except that a single
/// gate whose own fanin count exceeds the bound is kept as-is.
///
/// # Panics
///
/// Panics if `options.max_support` exceeds
/// [`tm_logic::tt::MAX_TT_VARS`] or is zero.
///
/// # Examples
///
/// ```
/// use std::sync::Arc;
/// use tm_netlist::{extract::{extract, ExtractOptions}, library::lsi10k_like, netlist::Netlist};
///
/// let lib = Arc::new(lsi10k_like());
/// let mut nl = Netlist::new("chain", lib.clone());
/// let a = nl.add_input("a");
/// let b = nl.add_input("b");
/// let c = nl.add_input("c");
/// let t = nl.add_gate(lib.expect("AND2"), &[a, b], "t");
/// let y = nl.add_gate(lib.expect("OR2"), &[t, c], "y");
/// nl.mark_output(y);
///
/// let net = extract(&nl, ExtractOptions::default());
/// // The chain collapses into one 3-input node.
/// assert_eq!(net.num_nodes(), 1);
/// assert_eq!(net.eval(&[true, true, false]), vec![true]);
/// ```
pub fn extract(netlist: &Netlist, options: ExtractOptions) -> SopNetwork {
    assert!(options.max_support > 0, "max_support must be positive");
    assert!(
        options.max_support <= tm_logic::tt::MAX_TT_VARS,
        "max_support exceeds dense truth-table limit"
    );
    let k = options.max_support;
    let lib = netlist.library();

    // Fanout counts per net (reads by gates + primary-output uses).
    let mut fanout = vec![0usize; netlist.num_nets()];
    for (_, g) in netlist.gates() {
        for &i in g.inputs() {
            fanout[i.index()] += 1;
        }
    }
    let mut is_output = vec![false; netlist.num_nets()];
    for &o in netlist.outputs() {
        is_output[o.index()] = true;
    }

    // Build clusters in topological order.
    let mut clusters: HashMap<NetId, Cluster> = HashMap::new();
    for (_, gate) in netlist.gates() {
        let cell = lib.cell(gate.cell());
        // Deduplicate fanins (a gate may in principle read a net twice).
        let mut boundary: Vec<NetId> = Vec::new();
        let mut pin_to_pos: Vec<usize> = Vec::with_capacity(gate.inputs().len());
        for &inp in gate.inputs() {
            match boundary.iter().position(|&b| b == inp) {
                Some(p) => pin_to_pos.push(p),
                None => {
                    boundary.push(inp);
                    pin_to_pos.push(boundary.len() - 1);
                }
            }
        }
        let tt = TruthTable::from_fn(boundary.len(), |m| {
            let mut pins = 0u64;
            for (pin, &pos) in pin_to_pos.iter().enumerate() {
                if (m >> pos) & 1 == 1 {
                    pins |= 1 << pin;
                }
            }
            cell.function().eval(pins)
        });
        let mut cluster = Cluster { boundary, tt };

        // Greedy inlining: repeatedly absorb an eligible boundary net.
        loop {
            let mut absorbed = false;
            for pos in 0..cluster.boundary.len() {
                let net = cluster.boundary[pos];
                let eligible = matches!(netlist.driver(net), Driver::Gate(_))
                    && fanout[net.index()] == 1
                    && !is_output[net.index()]
                    && clusters.contains_key(&net);
                if !eligible {
                    continue;
                }
                let inner = &clusters[&net];
                // Merged boundary size check.
                let mut merged = cluster.boundary.clone();
                merged.remove(pos);
                let mut inner_pos_map = Vec::with_capacity(inner.boundary.len());
                for &ib in &inner.boundary {
                    match merged.iter().position(|&b| b == ib) {
                        Some(p) => inner_pos_map.push(p),
                        None => {
                            merged.push(ib);
                            inner_pos_map.push(merged.len() - 1);
                        }
                    }
                }
                if merged.len() > k {
                    continue;
                }
                // The outer boundary without the pin is the prefix of
                // `merged`, so the cofactors embed by the identity.
                let rest: Vec<usize> = (0..cluster.boundary.len()).filter(|&i| i != pos).collect();
                let identity: Vec<usize> = (0..rest.len()).collect();
                let [o0, o1] = [false, true].map(|value| {
                    cluster.tt.cofactor(pos, value).project(&rest).embed(merged.len(), &identity)
                });
                let i = inner.tt.embed(merged.len(), &inner_pos_map);
                let new_tt = &(&i & &o1) | &(&!&i & &o0);
                cluster = Cluster { boundary: merged, tt: new_tt };
                absorbed = true;
                break;
            }
            if !absorbed {
                break;
            }
        }

        // Drop boundary entries the function does not depend on.
        let support = cluster.tt.support();
        if support.len() != cluster.boundary.len() {
            let kept: Vec<NetId> = support.iter().map(|&p| cluster.boundary[p]).collect();
            cluster = Cluster { boundary: kept, tt: cluster.tt.project(&support) };
        }

        clusters.insert(gate.output(), cluster);
    }

    // Materialize: outputs plus every net referenced by a materialized
    // cluster's boundary.
    let mut materialize = vec![false; netlist.num_nets()];
    let mut stack: Vec<NetId> = netlist.outputs().to_vec();
    while let Some(net) = stack.pop() {
        if materialize[net.index()] {
            continue;
        }
        materialize[net.index()] = true;
        if let Some(cluster) = clusters.get(&net) {
            stack.extend(cluster.boundary.iter().copied());
        }
    }

    // Emit the new network in topological order of the original nets.
    let mut out = SopNetwork::new(netlist.name().to_string());
    let mut sig_of: HashMap<NetId, SigId> = HashMap::new();
    for &pi in netlist.inputs() {
        let sig = out.add_input(netlist.net_name(pi).to_string());
        sig_of.insert(pi, sig);
    }
    for (net_idx, &mat) in materialize.iter().enumerate() {
        let net = NetId::from_index(net_idx);
        if !mat || sig_of.contains_key(&net) {
            continue;
        }
        let cluster = match clusters.get(&net) {
            Some(c) => c,
            None => continue, // an input, already added
        };
        let inputs: Vec<SigId> = cluster.boundary.iter().map(|b| sig_of[b]).collect();
        let cover = qm::minimize(&cluster.tt, &TruthTable::zero(cluster.boundary.len()));
        let sig = out.add_node(netlist.net_name(net).to_string(), inputs, cover);
        sig_of.insert(net, sig);
    }
    for &o in netlist.outputs() {
        out.mark_output(sig_of[&o]);
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::library::lsi10k_like;
    use std::sync::Arc;

    fn lib() -> Arc<crate::library::Library> {
        Arc::new(lsi10k_like())
    }

    /// Two-level tree: y = (a&b) | (c&d), all intermediate single-fanout.
    fn tree() -> Netlist {
        let lib = lib();
        let mut nl = Netlist::new("tree", lib.clone());
        let a = nl.add_input("a");
        let b = nl.add_input("b");
        let c = nl.add_input("c");
        let d = nl.add_input("d");
        let ab = nl.add_gate(lib.expect("AND2"), &[a, b], "ab");
        let cd = nl.add_gate(lib.expect("AND2"), &[c, d], "cd");
        let y = nl.add_gate(lib.expect("OR2"), &[ab, cd], "y");
        nl.mark_output(y);
        nl
    }

    fn equivalent(nl: &Netlist, net: &SopNetwork) {
        let n = nl.inputs().len();
        assert!(n <= 16, "exhaustive check limited");
        for m in 0..(1u64 << n) {
            let a: Vec<bool> = (0..n).map(|i| (m >> i) & 1 == 1).collect();
            assert_eq!(nl.eval(&a), net.eval(&a), "mismatch at {m:#b}");
        }
    }

    #[test]
    fn collapses_single_fanout_tree() {
        let nl = tree();
        let net = extract(&nl, ExtractOptions::default());
        assert_eq!(net.num_nodes(), 1);
        let y = net.outputs()[0];
        assert_eq!(net.node_of(y).unwrap().inputs().len(), 4);
        equivalent(&nl, &net);
    }

    #[test]
    fn support_cap_limits_collapse() {
        let nl = tree();
        let net = extract(&nl, ExtractOptions { max_support: 3 });
        // Merging both ANDs would need 4 inputs; only one can inline.
        assert!(net.num_nodes() >= 2);
        equivalent(&nl, &net);
    }

    #[test]
    fn multifanout_nodes_survive() {
        let lib = lib();
        let mut nl = Netlist::new("mf", lib.clone());
        let a = nl.add_input("a");
        let b = nl.add_input("b");
        let c = nl.add_input("c");
        let t = nl.add_gate(lib.expect("AND2"), &[a, b], "t");
        let y = nl.add_gate(lib.expect("OR2"), &[t, c], "y");
        let z = nl.add_gate(lib.expect("NAND2"), &[t, c], "z");
        nl.mark_output(y);
        nl.mark_output(z);
        let net = extract(&nl, ExtractOptions::default());
        // t feeds two readers: stays a node.
        assert_eq!(net.num_nodes(), 3);
        equivalent(&nl, &net);
    }

    #[test]
    fn output_gates_not_inlined() {
        let lib = lib();
        let mut nl = Netlist::new("o", lib.clone());
        let a = nl.add_input("a");
        let b = nl.add_input("b");
        let t = nl.add_gate(lib.expect("AND2"), &[a, b], "t");
        let y = nl.add_gate(lib.expect("INV"), &[t], "y");
        nl.mark_output(t); // t is itself an output
        nl.mark_output(y);
        let net = extract(&nl, ExtractOptions::default());
        assert_eq!(net.num_nodes(), 2);
        equivalent(&nl, &net);
    }

    #[test]
    fn redundant_support_dropped() {
        let lib = lib();
        let mut nl = Netlist::new("r", lib.clone());
        let a = nl.add_input("a");
        let na = nl.add_gate(lib.expect("INV"), &[a], "na");
        // a | !a = 1: function independent of everything.
        let y = nl.add_gate(lib.expect("OR2"), &[a, na], "y");
        nl.mark_output(y);
        let net = extract(&nl, ExtractOptions::default());
        equivalent(&nl, &net);
        let y_sig = net.outputs()[0];
        assert!(net.node_of(y_sig).unwrap().inputs().is_empty());
    }

    #[test]
    fn deep_chain_respects_bound() {
        let lib = lib();
        let mut nl = Netlist::new("chain", lib.clone());
        let inputs: Vec<_> = (0..10).map(|i| nl.add_input(format!("x{i}"))).collect();
        let mut acc = inputs[0];
        for (i, &x) in inputs.iter().enumerate().skip(1) {
            acc = nl.add_gate(lib.expect("AND2"), &[acc, x], format!("t{i}"));
        }
        nl.mark_output(acc);
        let net = extract(&nl, ExtractOptions { max_support: 4 });
        equivalent(&nl, &net);
        for sig in net.node_sigs() {
            assert!(net.node_of(sig).unwrap().inputs().len() <= 4);
        }
    }

    /// A single-fanout chain over 31 inputs at the widest bound: each
    /// step ANDs the chain with an OR of two fresh inputs, so merges
    /// reach exactly `MAX_TT_VARS` inputs before the bound stops them.
    /// Nothing may panic, and the function must survive. It is checked on
    /// seeded random vectors, as 2^31 assignments are too many; inputs
    /// are 1 with probability 7/8, so the output takes both values. (A
    /// product of sums keeps the 20-input node's on-set sparse, and its
    /// minimization quick in a debug build.)
    #[test]
    fn widest_bound_collapses_a_wide_chain_without_changing_it() {
        let lib = lib();
        let mut nl = Netlist::new("wide", lib.clone());
        let inputs: Vec<_> = (0..31).map(|i| nl.add_input(format!("x{i}"))).collect();
        let mut acc = inputs[0];
        for (i, pair) in inputs[1..].chunks(2).enumerate() {
            let sum = nl.add_gate(lib.expect("OR2"), pair, format!("l{i}"));
            acc = nl.add_gate(lib.expect("AND2"), &[acc, sum], format!("s{i}"));
        }
        nl.mark_output(acc);
        let k = tm_logic::tt::MAX_TT_VARS;
        let net = extract(&nl, ExtractOptions { max_support: k });
        let widest = net.node_sigs().into_iter().map(|s| net.node_of(s).unwrap().inputs().len()).max();
        assert_eq!(widest, Some(k));
        let (mut state, mut ones) = (0x5eed_u64, 0);
        for _ in 0..256 {
            let mut draw = || {
                state = state.wrapping_mul(6364136223846793005).wrapping_add(1442695040888963407);
                state >> 33
            };
            let (b0, b1, b2) = (draw(), draw(), draw());
            let a: Vec<bool> = (0..31).map(|i| (b0 | b1 | b2) >> i & 1 == 1).collect();
            let out = nl.eval(&a);
            ones += usize::from(out[0]);
            assert_eq!(out, net.eval(&a));
        }
        assert!((32..224).contains(&ones), "unbalanced output: {ones} ones");
    }
}
