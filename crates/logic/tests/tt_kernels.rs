//! Differential tests of the word-parallel `TruthTable` kernels against
//! bit-serial references written with `from_fn` and `eval`.
//!
//! Tables have 0–14 variables, so both single-word tables (fewer than six
//! variables, where the padding bits past `2^n` must stay zero) and
//! multi-word ones are drawn. A failing case prints its seed (reproduce
//! with `TM_PROP_SEED=<seed>`).

use tm_logic::{Cube, TruthTable};
use tm_testkit::prop::{check, Config, Gen};
use tm_testkit::{prop_assert, prop_assert_eq};

/// Widest table drawn.
const MAX_VARS: usize = 14;

/// A random table over `n` variables. Every other table is thinned or
/// thickened by a second random draw, so both sparse and dense on-sets
/// occur.
fn random_tt(g: &mut Gen, n: usize) -> TruthTable {
    let len = 1usize << n.saturating_sub(6);
    let bits = (1u32 << n).min(64);
    let mut words = g.bitvec(len, bits);
    match g.gen_range(0u64..3) {
        0 => words.iter_mut().for_each(|w| *w &= g.bits(bits)),
        1 => words.iter_mut().for_each(|w| *w |= g.bits(bits)),
        _ => {}
    }
    TruthTable::from_fn(n, |m| (words[(m >> 6) as usize] >> (m & 63)) & 1 == 1)
}

/// A random table of 0..=`MAX_VARS` variables.
fn any_tt(g: &mut Gen) -> TruthTable {
    let n = g.gen_range(0usize..MAX_VARS + 1);
    random_tt(g, n)
}

/// A random permutation of `0..n` (Fisher–Yates).
fn permutation(g: &mut Gen, n: usize) -> Vec<usize> {
    let mut p: Vec<usize> = (0..n).collect();
    for i in (1..n).rev() {
        let j = g.gen_range(0..i + 1);
        p.swap(i, j);
    }
    p
}

/// A random cube over the first 20 variables: each is bound with
/// probability 1/3, in a random polarity. Bindings past a table's width
/// exercise the "ignored" rule of `or_cube` and `covers_cube`.
fn random_cube(g: &mut Gen) -> Cube {
    let (mut mask, mut value) = (0u64, 0u64);
    for v in 0..20 {
        if g.gen_range(0u64..3) == 0 {
            mask |= 1 << v;
            value |= u64::from(g.next_bool()) << v;
        }
    }
    Cube::from_masks(mask, value)
}

/// `cube` with its literals on variables at or past `n` dropped.
fn restrict(cube: &Cube, n: usize) -> Cube {
    Cube::from_masks(cube.mask() & ((1u64 << n) - 1), cube.value())
}

/// `m` with bits `i` and `j` exchanged.
fn swap_bits(m: u64, i: usize, j: usize) -> u64 {
    let (bi, bj) = ((m >> i) & 1, (m >> j) & 1);
    (m & !(1 << i) & !(1 << j)) | bj << i | bi << j
}

#[test]
fn cofactor_depends_on_and_support_match_bit_serial() {
    check("cofactor_depends_on_and_support", &Config::with_cases(64), any_tt, |f| {
        let n = f.num_vars();
        let mut support = Vec::new();
        for var in 0..n {
            let bit = 1u64 << var;
            let c0 = TruthTable::from_fn(n, |m| f.eval(m & !bit));
            let c1 = TruthTable::from_fn(n, |m| f.eval(m | bit));
            prop_assert_eq!(f.cofactor(var, false), c0);
            prop_assert_eq!(f.cofactor(var, true), c1);
            let depends = c0 != c1;
            prop_assert_eq!(f.depends_on(var), depends, "var {}", var);
            if depends {
                support.push(var);
            }
        }
        prop_assert_eq!(f.support(), support);
        // A variable past the table is not an input.
        prop_assert!(!f.depends_on(n));
        prop_assert_eq!(&f.cofactor(n, true), f);
        Ok(())
    });
}

/// One random pair of each class the table is wide enough for: both
/// below 6 (in-word delta swap), one below and one from 6 (word-pair
/// trade), both from 6 (whole-word swap).
#[test]
fn swap_vars_matches_bit_serial_in_all_three_classes() {
    let gen = |g: &mut Gen| {
        let f = any_tt(g);
        let n = f.num_vars();
        let mut pairs = Vec::new();
        if n >= 2 {
            let hi = n.min(6);
            pairs.push((g.gen_range(0..hi), g.gen_range(0..hi)));
        }
        if n >= 7 {
            pairs.push((g.gen_range(0usize..6), g.gen_range(6..n)));
            pairs.push((g.gen_range(6..n), g.gen_range(0usize..6)));
        }
        if n >= 8 {
            pairs.push((g.gen_range(6..n), g.gen_range(6..n)));
        }
        (f, pairs)
    };
    check("swap_vars_three_classes", &Config::with_cases(96), gen, |(f, pairs)| {
        let n = f.num_vars();
        for &(i, j) in pairs {
            let mut swapped = f.clone();
            swapped.swap_vars(i, j);
            let reference = TruthTable::from_fn(n, |m| f.eval(swap_bits(m, i, j)));
            prop_assert_eq!(swapped, reference, "swap ({}, {}) of {} vars", i, j, n);
        }
        Ok(())
    });
}

/// Every pair of a 9-variable table, so each class and each in-word
/// distance is covered at least once.
#[test]
fn swap_vars_every_pair_of_a_nine_variable_table() {
    let f = TruthTable::from_fn(9, |m| (m.wrapping_mul(0x9e37_79b9) >> 7) & 1 == 1 || m % 11 == 3);
    for i in 0..9 {
        for j in 0..9 {
            let mut swapped = f.clone();
            swapped.swap_vars(i, j);
            assert_eq!(swapped, TruthTable::from_fn(9, |m| f.eval(swap_bits(m, i, j))), "({i}, {j})");
            swapped.swap_vars(j, i);
            assert_eq!(swapped, f, "({i}, {j}) twice");
        }
    }
}

#[test]
fn embed_matches_bit_serial_for_random_injective_maps() {
    let gen = |g: &mut Gen| {
        let n = g.gen_range(0usize..MAX_VARS + 1);
        let r = g.gen_range(0..n + 1);
        let f = random_tt(g, r);
        let map: Vec<usize> = permutation(g, n).into_iter().take(r).collect();
        (f, n, map)
    };
    check("embed_random_maps", &Config::with_cases(96), gen, |(f, n, map)| {
        let reference = TruthTable::from_fn(*n, |y| {
            let x = map.iter().enumerate().fold(0u64, |x, (v, &p)| x | ((y >> p) & 1) << v);
            f.eval(x)
        });
        prop_assert_eq!(f.embed(*n, map), reference, "map {:?}", map);
        Ok(())
    });
}

#[test]
fn project_matches_bit_serial_on_supersets_of_the_support() {
    let gen = |g: &mut Gen| {
        let h = any_tt(g);
        let n = h.num_vars();
        // `keep`: a random subset in a random order.
        let keep: Vec<usize> = permutation(g, n).into_iter().filter(|_| g.next_bool()).collect();
        (h, keep)
    };
    check("project_supersets", &Config::with_cases(96), gen, |(h, keep)| {
        let n = h.num_vars();
        let lift = |y: u64| keep.iter().enumerate().fold(0u64, |x, (k, &v)| x | ((y >> k) & 1) << v);
        // A function whose support lies inside `keep`.
        let keep_mask = keep.iter().fold(0u64, |m, &v| m | 1 << v);
        let f = TruthTable::from_fn(n, |m| h.eval(m & keep_mask));
        prop_assert!(f.support().iter().all(|v| keep.contains(v)));
        let reference = TruthTable::from_fn(keep.len(), |y| f.eval(lift(y)));
        prop_assert_eq!(f.project(keep), reference, "keep {:?}", keep);
        // Outside that contract, the dropped variables read as 0.
        let fixed = TruthTable::from_fn(keep.len(), |y| h.eval(lift(y)));
        prop_assert_eq!(h.project(keep), fixed, "keep {:?} (unrestricted)", keep);
        // Projecting onto the exact support round-trips through embed.
        let support = f.support();
        prop_assert_eq!(f.project(&support).embed(n, &support), f);
        Ok(())
    });
}

#[test]
fn or_cube_and_covers_cube_match_bit_serial() {
    let gen = |g: &mut Gen| {
        let f = any_tt(g);
        let cubes: Vec<Cube> = (0..4).map(|_| random_cube(g)).collect();
        (f, cubes)
    };
    check("or_cube_covers_cube", &Config::with_cases(96), gen, |(f, cubes)| {
        let n = f.num_vars();
        for cube in cubes {
            let c = restrict(cube, n);
            let mut or = f.clone();
            or.or_cube(cube);
            prop_assert_eq!(&or, &TruthTable::from_fn(n, |m| f.eval(m) || c.eval(m)), "{:?}", cube);
            let covers = (0..f.num_minterms()).all(|m| !c.eval(m) || f.eval(m));
            prop_assert_eq!(f.covers_cube(cube), covers, "{:?}", cube);
            prop_assert!(or.covers_cube(cube));
            // One minterm short of the cube is not a cover.
            let first = (0..or.num_minterms()).find(|&m| c.eval(m));
            if let Some(m) = first {
                let mut holed = or.clone();
                holed.set(m, false);
                prop_assert!(!holed.covers_cube(cube));
            }
        }
        Ok(())
    });
}

#[test]
fn minterms_walk_the_on_set_in_ascending_order() {
    check("minterms_ascending", &Config::with_cases(64), any_tt, |f| {
        let reference: Vec<u64> = (0..f.num_minterms()).filter(|&m| f.eval(m)).collect();
        prop_assert_eq!(f.minterms().collect::<Vec<_>>(), reference);
        Ok(())
    });
}
