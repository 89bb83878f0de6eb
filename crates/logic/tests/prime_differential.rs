//! Differential tests of `qm::prime_implicants` against a
//! Quine–McCluskey oracle.
//!
//! The oracle is the classical level-by-level merge: start from the
//! minterms of `on ∪ dc`, merge every pair of same-mask cubes that differ
//! in one bound variable, and keep the cubes that merged with nothing. It
//! builds every implicant, not only the primes, so it is slow but plainly
//! exact. The library's generator must return its list element for
//! element: a function has exactly one prime set, and both sides sort it
//! by `(literal_count, mask, value)`.
//!
//! The stand-in differentials extract every Table 2 circuit and check the
//! on-set and off-set of each node table. The ≤ 10-input subset runs in
//! the default suite; the full set is `#[ignore]`d and runs in release:
//! `cargo test --release -p tm-logic -- --ignored`.

use std::collections::{HashMap, HashSet};
use std::sync::Arc;
use tm_logic::{qm, Cube, TruthTable};
use tm_netlist::extract::{extract, ExtractOptions};
use tm_netlist::library::lsi10k_like;
use tm_netlist::suites::table2_suite;
use tm_testkit::prop::{check, Config, Gen};
use tm_testkit::prop_assert_eq;

/// Quine–McCluskey prime implicants of `on ∪ dc`, sorted like the
/// library's.
fn qm_oracle(on: &TruthTable, dc: &TruthTable) -> Vec<Cube> {
    let n = on.num_vars();
    let care_or_dc = on | dc;
    if care_or_dc.is_zero() {
        return Vec::new();
    }
    if care_or_dc.is_one() {
        return vec![Cube::universe()];
    }

    // Level 0: all minterms of on ∪ dc.
    let mut current: HashSet<Cube> = care_or_dc.minterms().map(|m| Cube::minterm(n, m)).collect();
    let mut primes: Vec<Cube> = Vec::new();
    while !current.is_empty() {
        let mut merged_away: HashSet<Cube> = HashSet::new();
        let mut next: HashSet<Cube> = HashSet::new();
        // Only same-mask cubes can merge, and a merge partner differs in
        // exactly one value bit.
        let mut by_mask: HashMap<u64, HashSet<u64>> = HashMap::new();
        for c in &current {
            by_mask.entry(c.mask()).or_default().insert(c.value());
        }
        for c in &current {
            let values = &by_mask[&c.mask()];
            let mut bit_iter = c.mask();
            while bit_iter != 0 {
                let bit = bit_iter & bit_iter.wrapping_neg();
                bit_iter &= bit_iter - 1;
                let partner = c.value() ^ bit;
                if values.contains(&partner) {
                    merged_away.insert(*c);
                    merged_away.insert(Cube::from_masks(c.mask(), partner));
                    next.insert(Cube::from_masks(c.mask() & !bit, c.value() & !bit));
                }
            }
        }
        primes.extend(current.iter().filter(|c| !merged_away.contains(c)));
        current = next;
    }
    primes.sort_by_key(|c| (c.literal_count(), c.mask(), c.value()));
    primes.dedup();
    primes
}

/// A random table over `n` inputs: each minterm is set with probability
/// `density` / 8.
fn random_tt(g: &mut Gen, n: usize, density: u64) -> TruthTable {
    let words: Vec<u64> =
        (0..1usize << n.saturating_sub(6)).map(|_| random_word(g, density)).collect();
    TruthTable::from_fn(n, |m| (words[(m >> 6) as usize] >> (m & 63)) & 1 == 1)
}

/// A word whose bits are set with probability `density` / 8.
fn random_word(g: &mut Gen, density: u64) -> u64 {
    (0..64).fold(0, |w, b| w | u64::from(g.gen_range(0u64..8) < density) << b)
}

/// A sparse table over `n` inputs: the union of a few random cubes
/// binding between `n - 5` and `n - 2` variables.
fn sparse_tt(g: &mut Gen, n: usize) -> TruthTable {
    let mut t = TruthTable::zero(n);
    for _ in 0..g.gen_range(1usize..7) {
        let free = g.gen_range(2usize..6);
        let mut lits: Vec<(usize, bool)> = Vec::new();
        for v in 0..n {
            lits.push((v, g.next_bool()));
        }
        for _ in 0..free {
            let drop = g.gen_range(0..lits.len());
            lits.swap_remove(drop);
        }
        t.or_cube(&Cube::from_literals(n, &lits));
    }
    t
}

fn assert_matches_oracle(on: &TruthTable, dc: &TruthTable) -> Result<(), String> {
    prop_assert_eq!(qm::prime_implicants(on, dc), qm_oracle(on, dc));
    Ok(())
}

#[test]
fn random_tables_match_the_oracle() {
    let gen = |g: &mut Gen| {
        let n = g.gen_range(0usize..11);
        let density = g.gen_range(1u64..8);
        random_tt(g, n, density)
    };
    check("random_tables_match_the_oracle", &Config::with_cases(64), gen, |on| {
        assert_matches_oracle(on, &TruthTable::zero(on.num_vars()))
    });
}

#[test]
fn random_tables_with_dont_cares_match_the_oracle() {
    let gen = |g: &mut Gen| {
        let n = g.gen_range(0usize..11);
        let (on_density, dc_density) = (g.gen_range(1u64..6), g.gen_range(1u64..4));
        let on = random_tt(g, n, on_density);
        let dc = random_tt(g, n, dc_density);
        (on, dc)
    };
    let name = "random_tables_with_dont_cares_match_the_oracle";
    check(name, &Config::with_cases(64), gen, |(on, dc)| assert_matches_oracle(on, dc));
}

/// Tables wider than the free-set walk's 12-input leaf go through the
/// Shannon split.
#[test]
fn sparse_wide_tables_match_the_oracle() {
    let gen = |g: &mut Gen| {
        let n = g.gen_range(13usize..15);
        let on = sparse_tt(g, n);
        let dc = if g.next_bool() { sparse_tt(g, n) } else { TruthTable::zero(n) };
        (on, dc)
    };
    check("sparse_wide_tables_match_the_oracle", &Config::with_cases(24), gen, |(on, dc)| {
        assert_matches_oracle(on, dc)
    });
}

/// Checks the on-set and off-set primes of every node table of at most
/// `max_inputs` inputs over the extracted Table 2 stand-ins, returning the
/// number of tables checked.
fn stand_in_tables_match_the_oracle(max_inputs: usize) -> usize {
    let lib = Arc::new(lsi10k_like());
    let mut tables = 0;
    for entry in table2_suite() {
        let net = extract(&entry.build(lib.clone()), ExtractOptions::default());
        for sig in net.node_sigs() {
            let node = net.node_of(sig).expect("node sig");
            let tt = node.truth_table();
            if tt.num_vars() > max_inputs {
                continue;
            }
            let dc = TruthTable::zero(tt.num_vars());
            for f in [tt.clone(), !&tt] {
                assert_eq!(
                    qm::prime_implicants(&f, &dc),
                    qm_oracle(&f, &dc),
                    "{}: node {sig:?} ({} inputs)",
                    entry.name,
                    tt.num_vars()
                );
                tables += 1;
            }
        }
    }
    tables
}

#[test]
fn table2_stand_in_node_tables_up_to_10_inputs_match_the_oracle() {
    let tables = stand_in_tables_match_the_oracle(10);
    assert!(tables > 0);
}

#[test]
#[ignore = "every node table of the 20 stand-ins; run in release"]
fn table2_stand_in_node_tables_all_match_the_oracle() {
    let tables = stand_in_tables_match_the_oracle(usize::MAX);
    println!("checked {tables} on-set and off-set node tables");
}
