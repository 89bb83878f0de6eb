//! Seeded input circuits: the paper's Table 1 / Table 2 interface
//! profiles, each generated with a structure seed derived from the
//! benchmark seed, so a seed changes the circuits but not their sizes.

use std::sync::Arc;
use tm_netlist::generate::{generate, GeneratorSpec};
use tm_netlist::library::Library;
use tm_netlist::suites::SuiteEntry;
use tm_netlist::Netlist;
use tm_testkit::rng::fnv1a64;

/// The generator seed of variant `variant` of `entry` under `seed`.
fn structure_seed(entry: &SuiteEntry, seed: u64, variant: u64) -> u64 {
    fnv1a64(entry.name.as_bytes())
        ^ seed.wrapping_mul(0x9E37_79B9_7F4A_7C15)
        ^ variant.wrapping_mul(0xC2B2_AE3D_27D4_EB4F)
}

/// Builds variant `variant` of `entry` under `seed`.
pub fn build(entry: &SuiteEntry, seed: u64, variant: u64, library: Arc<Library>) -> Netlist {
    let name = format!("{}_s{seed}v{variant}", entry.name);
    let mut spec = GeneratorSpec::sized(name, entry.inputs, entry.outputs, entry.paper_gates);
    spec.seed = structure_seed(entry, seed, variant);
    // As in the suite stand-ins: engineered speed chains keep
    // near-critical paths on every circuit.
    spec.speed_chains = spec.speed_chains.max(2);
    generate(&spec, library)
}

/// Picks the profiles of `suite` named in `names`, in that order.
pub fn profiles(suite: Vec<SuiteEntry>, names: &[&str]) -> Vec<SuiteEntry> {
    names
        .iter()
        .map(|n| {
            suite
                .iter()
                .find(|e| e.name == *n)
                .cloned()
                .unwrap_or_else(|| panic!("no profile {n}"))
        })
        .collect()
}
