//! The paper's worked example (§4.2 and Fig. 2): a 2-bit comparator.
//!
//! Reproduces every quantity of the paper's walkthrough: the critical
//! path delay Δ = 7, the target Δ_y = 6.3, the SPCF
//! `Σ_y = ā1 + ā0·b1`, the selected covers, the prediction
//! `ỹ = (a0 + b̄0)(a1 + b̄1)` and the simplified indicator, and finally
//! the MUX-based masking of Fig. 2(b).
//!
//! Run with: `cargo run --release --example comparator`

use std::sync::Arc;
use timemask::logic::Bdd;
use timemask::masking::{synthesize, verify, MaskingOptions};
use timemask::netlist::{circuits::comparator2, library::lsi10k_like};
use timemask::spcf::{spcf_with, Algorithm};
use timemask::sta::Sta;

fn main() {
    let circuit = comparator2(Arc::new(lsi10k_like()));
    println!("Fig. 2(a): 2-bit comparator, y = (a1a0 >= b1b0)");
    println!("gates: {}, inputs: a0 a1 b0 b1", circuit.num_gates());

    // Timing: inverter = 1 unit, 2-input gates = 2 units → Δ = 7.
    let sta = Sta::new(&circuit);
    let delta = sta.critical_path_delay();
    let target = delta * 0.9;
    println!("\ncritical path delay Δ   = {delta} (paper: 7)");
    println!("target arrival time Δ_y = {target} (paper: 6.3)");

    // The two speed-paths highlighted in Fig. 2(a).
    let paths = sta.enumerate_paths(circuit.outputs()[0], target, 16);
    println!("\nspeed-paths within 10% of Δ:");
    for p in &paths.paths {
        let names: Vec<&str> = p.nets.iter().map(|&n| circuit.net_name(n)).collect();
        println!("  {} (delay {})", names.join(" → "), p.delay);
    }

    // The SPCF: Σ_y(Δ_y) = ā1 + ā0·b1 — 10 of the 16 input patterns.
    let mut bdd = Bdd::new(4);
    let spcf = spcf_with(Algorithm::ShortPath, &circuit, &sta, &mut bdd, target);
    let sigma = spcf.outputs[0].spcf;
    println!("\nSPCF patterns (paper: Σ_y = ā1 + ā0·b1):");
    let mut count = 0;
    for m in 0..16u64 {
        let a: Vec<bool> = (0..4).map(|i| (m >> i) & 1 == 1).collect();
        if bdd.eval(sigma, &a) {
            count += 1;
            println!(
                "  a1a0={}{} b1b0={}{}",
                a[1] as u8, a[0] as u8, a[3] as u8, a[2] as u8
            );
        }
    }
    println!("  total: {count} of 16 (paper: ā1 + ā0·b1 = 10 patterns)");
    assert_eq!(count, 10);

    // Synthesize the masking circuit of Fig. 2(b). Synthesis runs the
    // SPCF on the degradation ladder; under the default unlimited
    // budget it stays on the exact rung computed above.
    let mut result = synthesize(&circuit, MaskingOptions::default());
    assert_eq!(result.spcf.algorithm, Algorithm::ShortPath);
    println!("\nerror-masking circuit (Fig. 2b):");
    println!("  SPCF rung     : {}", result.report.degradation);
    println!("  masking gates : {}", result.design.masking.num_gates());
    println!("  slack         : {:.1}%", result.report.slack_percent);
    println!("  area overhead : {:.1}%", result.report.area_overhead_percent);

    // Show ỹ and e as truth tables; the paper derives
    // ỹ = (a0 + b̄0)(a1 + b̄1) and e = ā1 + b1.
    let p = &result.design.protected[0];
    println!("\n  pattern  y  ỹ  e   (ỹ must equal y wherever e = 1)");
    for m in 0..16u64 {
        let a: Vec<bool> = (0..4).map(|i| (m >> i) & 1 == 1).collect();
        let y = circuit.eval(&a)[0];
        let vals = result.design.masking.eval_all_nets(&a);
        let yt = vals[p.ytilde.index()];
        let e = vals[p.e.index()];
        println!(
            "  a={}{} b={}{}  {}  {}  {}",
            a[1] as u8, a[0] as u8, a[3] as u8, a[2] as u8, y as u8, yt as u8, e as u8
        );
        if e {
            assert_eq!(y, yt);
        }
    }

    let verdict = verify(&mut result);
    assert!(verdict.all_ok());
    println!("\n100% masking coverage verified exactly ✓");
}
