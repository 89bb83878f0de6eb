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
//! Cover selection is checked the same way. `select_cover_oracle` is the
//! eager selection `qm::select_cover` replaced: a primes × minterms
//! coverage matrix, gains rebuilt in a `HashMap` each greedy step, and a
//! list-scanning irredundancy pass. The bitset selection must return its
//! `Sop` cube for cube, in order.
//!
//! The stand-in differentials extract every Table 2 circuit and check the
//! primes and the cover of the on-set and off-set of each node table. The
//! ≤ 10-input subset runs in the default suite; the full set is
//! `#[ignore]`d and runs in release:
//! `cargo test --release -p tm-logic -- --ignored`.

use std::collections::{HashMap, HashSet};
use std::sync::Arc;
use tm_logic::{qm, Cube, Sop, TruthTable};
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

/// The eager cover selection, kept verbatim as the oracle of
/// `qm::select_cover`: essential primes, then greedy set covering with
/// gains rebuilt each step, then an irredundancy pass.
fn select_cover_oracle(on: &TruthTable, primes: &[Cube]) -> Sop {
    let n = on.num_vars();
    let minterms: Vec<u64> = on.minterms().collect();
    if minterms.is_empty() {
        return Sop::zero(n);
    }

    // Coverage matrix: for each on-set minterm, which primes cover it.
    let mut covering: Vec<Vec<usize>> = vec![Vec::new(); minterms.len()];
    for (pi, p) in primes.iter().enumerate() {
        for (mi, &m) in minterms.iter().enumerate() {
            if p.eval(m) {
                covering[mi].push(pi);
            }
        }
    }
    for (mi, cov) in covering.iter().enumerate() {
        assert!(
            !cov.is_empty(),
            "prime set does not cover on-set minterm {}",
            minterms[mi]
        );
    }

    let mut selected: HashSet<usize> = HashSet::new();
    let mut uncovered: HashSet<usize> = (0..minterms.len()).collect();

    // Essential primes first: minterms covered by exactly one prime.
    for cov in &covering {
        if cov.len() == 1 {
            selected.insert(cov[0]);
        }
    }
    uncovered.retain(|&mi| !covering[mi].iter().any(|pi| selected.contains(pi)));

    // Greedy set cover for the rest.
    while !uncovered.is_empty() {
        let mut best = usize::MAX;
        let mut best_gain = 0usize;
        let mut gains: HashMap<usize, usize> = HashMap::new();
        for &mi in &uncovered {
            for &pi in &covering[mi] {
                *gains.entry(pi).or_insert(0) += 1;
            }
        }
        for (&pi, &gain) in &gains {
            // Tie-break toward fewer literals, then stable by index.
            if gain > best_gain
                || (gain == best_gain
                    && best != usize::MAX
                    && (primes[pi].literal_count(), pi)
                        < (primes[best].literal_count(), best))
            {
                best = pi;
                best_gain = gain;
            }
        }
        selected.insert(best);
        uncovered.retain(|&mi| !covering[mi].contains(&best));
    }

    // Irredundancy pass: drop any selected prime whose on-set minterms are
    // all covered by the others.
    let mut chosen: Vec<usize> = selected.into_iter().collect();
    chosen.sort_unstable();
    let mut i = 0;
    while i < chosen.len() {
        let pi = chosen[i];
        let redundant = minterms.iter().enumerate().all(|(mi, _)| {
            !covering[mi].contains(&pi)
                || covering[mi].iter().any(|&qj| qj != pi && chosen.contains(&qj))
        });
        if redundant {
            chosen.remove(i);
        } else {
            i += 1;
        }
    }

    let mut sop = Sop::from_cubes(n, chosen.into_iter().map(|pi| primes[pi]).collect());
    sop.sort_by_literal_count();
    sop
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

/// The bitset cover selection returns the oracle's `Sop`, cube for cube.
fn assert_cover_matches_oracle(on: &TruthTable, primes: &[Cube]) -> Result<(), String> {
    let (got, want) = (qm::select_cover(on, primes), select_cover_oracle(on, primes));
    prop_assert_eq!(got.cubes(), want.cubes());
    prop_assert_eq!(got.num_vars(), want.num_vars());
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

/// Checks the on-set and off-set primes and covers of every node table of at most
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
                let primes = qm::prime_implicants(&f, &dc);
                let context = format!("{}: node {sig:?} ({} inputs)", entry.name, tt.num_vars());
                assert_eq!(primes, qm_oracle(&f, &dc), "{context}");
                if let Err(e) = assert_cover_matches_oracle(&f, &primes) {
                    panic!("{context}: cover: {e}");
                }
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

/// Cover selection on random functions with don't-cares: the primes of
/// `on ∪ dc` cover more than the on-set, so the selection must handle
/// primes whose rows are partly don't-care.
#[test]
fn random_covers_with_dont_cares_match_the_eager_selection() {
    let gen = |g: &mut Gen| {
        let n = g.gen_range(0usize..11);
        let (on_density, dc_density) = (g.gen_range(1u64..7), g.gen_range(0u64..4));
        let on = random_tt(g, n, on_density);
        let dc = &random_tt(g, n, dc_density) & &!&on;
        (on, dc)
    };
    let name = "random_covers_with_dont_cares_match_the_eager_selection";
    check(name, &Config::with_cases(96), gen, |(on, dc)| {
        assert_cover_matches_oracle(on, &qm::prime_implicants(on, dc))
    });
}

/// The adversarial off-set block: the 10-input function true where 3 to
/// 7 inputs are 1, the complement of a BLIF block listing the other
/// minterms. Its C(10, 3) · C(7, 3) = 4,200 primes each bind three
/// positive and three negative literals, and the eager selection's cost
/// grew with all of them.
#[test]
fn ten_input_complement_with_4200_primes_matches_the_eager_selection() {
    let on = TruthTable::from_fn(10, |m| (3..=7).contains(&m.count_ones()));
    let primes = qm::prime_implicants(&on, &TruthTable::zero(10));
    assert_eq!(primes.len(), 4200);
    let cover = qm::select_cover(&on, &primes);
    assert_eq!(cover, select_cover_oracle(&on, &primes));
    assert_eq!(TruthTable::from_sop(10, &cover), on);
}
