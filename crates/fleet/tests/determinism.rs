//! The fleet determinism suite: same seed ⇒ bit-identical aggregates
//! regardless of worker count, chunking, or kernel, plus the merge
//! algebra properties the sharding design leans on.

use std::sync::Arc;
use tm_fleet::{run_fleet, FleetConfig, FleetKernel, ShardAggregate};
use tm_masking::{synthesize, MaskedDesign, MaskingOptions};
use tm_netlist::circuits::comparator2;
use tm_netlist::library::lsi10k_like;
use tm_telemetry::Digest;
use tm_testkit::rng::Rng;

fn masked_comparator() -> MaskedDesign {
    let nl = comparator2(Arc::new(lsi10k_like()));
    synthesize(&nl, MaskingOptions::default()).design
}

fn base_config() -> FleetConfig {
    FleetConfig { chips: 96, epochs: 5, cycles_per_epoch: 10, ..Default::default() }
}

#[test]
fn bit_identical_across_jobs_counts() {
    let design = masked_comparator();
    let mut config = base_config();
    config.jobs = 1;
    let one = run_fleet(&design, &config).unwrap();
    for jobs in [4, 8] {
        config.jobs = jobs;
        let many = run_fleet(&design, &config).unwrap();
        assert_eq!(one, many, "jobs={jobs} diverged from jobs=1");
    }
    // Sanity: the run is not trivially empty.
    assert!(one.epochs.last().unwrap().detected > 0);
    assert!(one.flagged_chips > 0);
}

#[test]
fn chunked_runs_merge_to_the_whole_fleet() {
    let design = masked_comparator();
    let whole = run_fleet(&design, &base_config()).unwrap();

    let mut lo = base_config();
    lo.chips = 40;
    let mut hi = base_config();
    hi.chips = 56;
    hi.chip_base = 40;
    let a = run_fleet(&design, &lo).unwrap();
    let b = run_fleet(&design, &hi).unwrap();

    for (w, (x, y)) in whole.epochs.iter().zip(a.epochs.iter().zip(&b.epochs)) {
        let mut merged = x.clone();
        merged.merge(y);
        assert_eq!(*w, merged, "epoch {} chunking changed the aggregate", w.epoch);
    }
    assert_eq!(
        whole.flagged_chips,
        a.flagged_chips + b.flagged_chips,
        "chip-local flagging cannot depend on fleet chunking"
    );
}

#[test]
fn packed_and_scalar_kernels_agree_across_jobs() {
    let design = masked_comparator();
    let mut config = base_config();
    config.chips = 48;
    config.epochs = 4;
    config.jobs = 4;
    let packed = run_fleet(&design, &config).unwrap();
    config.kernel = FleetKernel::Scalar;
    config.jobs = 3;
    let scalar = run_fleet(&design, &config).unwrap();
    assert_eq!(packed, scalar, "kernel differential failed");

    // Full 64-lane blocks: at epoch 0 every chip sits in class 0,
    // unflagged, so one shard of 130 chips packs two full blocks and a
    // 2-lane tail (lane 63 of the transpose, the multi-block path).
    config.chips = 130;
    config.kernel = FleetKernel::Packed;
    config.jobs = 1;
    let packed = run_fleet(&design, &config).unwrap();
    config.kernel = FleetKernel::Scalar;
    config.jobs = 3;
    let scalar = run_fleet(&design, &config).unwrap();
    assert_eq!(packed, scalar, "kernel differential failed on full blocks");
}

/// A pseudo-random aggregate with integer-ppm digest samples (the only
/// kind the fleet ever records).
fn random_agg(rng: &mut Rng, epoch: usize, classes: usize) -> ShardAggregate {
    let mut a = ShardAggregate::empty(epoch, classes);
    a.chips = rng.gen_range(0..100u64);
    a.cycles = a.chips * rng.gen_range(1..50u64);
    a.activations = rng.gen_range(0..1000u64);
    a.detected = rng.gen_range(0..1000u64);
    a.escapes = rng.gen_range(0..10u64);
    a.flagged_new = rng.gen_range(0..20u64);
    a.flagged_total = a.flagged_new + rng.gen_range(0..20u64);
    a.escapes_before_flag = rng.gen_range(0..5u64);
    for _ in 0..rng.gen_range(0..40usize) {
        a.rate_ppm.record(rng.gen_range(0..=1_000_000u64));
    }
    for k in 0..classes {
        a.class_chips[k] = rng.gen_range(0..30u64);
        a.class_cycles[k] = a.class_chips[k] * 7;
        a.class_detected[k] = rng.gen_range(0..200u64);
    }
    a
}

#[test]
fn merge_is_associative_and_commutative_on_fleet_aggregates() {
    let mut rng = Rng::seed_from_u64(0x5EED);
    for round in 0..50 {
        let epoch = round % 7;
        let x = random_agg(&mut rng, epoch, 4);
        let y = random_agg(&mut rng, epoch, 4);
        let z = random_agg(&mut rng, epoch, 4);

        // (x + y) + z
        let mut left = x.clone();
        left.merge(&y);
        left.merge(&z);
        // x + (y + z)
        let mut yz = y.clone();
        yz.merge(&z);
        let mut right = x.clone();
        right.merge(&yz);
        assert_eq!(left, right, "associativity failed on round {round}");

        // z + y + x (reversed order)
        let mut rev = z.clone();
        rev.merge(&y);
        rev.merge(&x);
        assert_eq!(left, rev, "order-insensitivity failed on round {round}");
    }
}

#[test]
fn digest_sums_are_order_sensitive_in_general() {
    // Why the driver merges in shard order: `Digest::sum` is an f64, and
    // float addition is not associative once values outgrow 2^53. The
    // fleet's own samples are integer ppm (≤ 10^6), where sums stay
    // exact — but the merge *policy* must not rely on luck.
    let mut big = Digest::default();
    big.record(10_000_000_000_000_000); // 10^16 > 2^53
    let mut one_a = Digest::default();
    one_a.record(1);
    let mut one_b = Digest::default();
    one_b.record(1);

    // (big + 1) + 1: each 1 is absorbed into the rounding gap.
    let mut left = big.clone();
    left.merge(&one_a);
    left.merge(&one_b);
    // big + (1 + 1): the 2 survives.
    let mut ones = one_a.clone();
    ones.merge(&one_b);
    let mut right = big.clone();
    right.merge(&ones);

    assert_ne!(left.sum, right.sum, "f64 sums must differ to justify ordered merges");
    // Everything else about the digest is order-insensitive.
    assert_eq!(left.buckets, right.buckets);
    assert_eq!(left.count, right.count);
    assert_eq!(left.min, right.min);
    assert_eq!(left.max, right.max);
}

#[test]
#[should_panic(expected = "cross-epoch merge")]
fn cross_epoch_merge_is_rejected() {
    let mut a = ShardAggregate::empty(0, 2);
    let b = ShardAggregate::empty(1, 2);
    a.merge(&b);
}
