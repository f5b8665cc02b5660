//! AMPI with automatic load balancing (paper §4.5 in miniature): a BT-MZ
//! class-S run, first without load balancing, then with GreedyLB moving
//! rank threads at `migrate()` points. The checksum proves migration
//! changed nothing but the placement.
//!
//! ```text
//! cargo run --release --example ampi_loadbalance
//! ```

use flows::lb::GreedyLb;
use flows::npb::{run, MzBench, MzClass, MzConfig};
use std::sync::Arc;

fn main() {
    let mut cfg = MzConfig::new(MzBench::BtMz, MzClass::W, 8, 2);
    cfg.iterations = 6;
    cfg.sweeps = 4;

    println!("BT-MZ {} — uneven zones on purpose (≈20x area spread)\n", cfg.label());

    let without = run(&cfg);
    println!("without LB:");
    println!("  modeled parallel time : {:.4} s", without.modeled_time_s);
    println!("  per-PE busy times     : {:?}", round3(&without.pe_busy_s));
    println!("  per-PE cells swept    : {:?}", without.pe_cells);
    println!("  checksum              : {:.9}", without.checksum);

    let with = run(&cfg.clone().with_lb(Arc::new(GreedyLb)));
    println!("\nwith GreedyLB (thread migration at migrate() points):");
    println!("  modeled parallel time : {:.4} s", with.modeled_time_s);
    println!("  per-PE busy times     : {:?}", round3(&with.pe_busy_s));
    println!("  per-PE cells swept    : {:?}", with.pe_cells);
    println!("  rank migrations       : {}", with.migrations);
    println!("  checksum              : {:.9}", with.checksum);

    assert_eq!(
        without.checksum, with.checksum,
        "migration must not change the numerics"
    );
    println!(
        "\nspeedup from load balancing: {:.2}x (checksums identical)",
        without.modeled_time_s / with.modeled_time_s.max(1e-12)
    );
}

fn round3(v: &[f64]) -> Vec<f64> {
    v.iter().map(|x| (x * 1000.0).round() / 1000.0).collect()
}
