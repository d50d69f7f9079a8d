//! Quickstart: optimize one pattern with both CFAOPC methods and print
//! the paper's four metrics for each.
//!
//! ```sh
//! cargo run --release --example quickstart
//! ```

use cfaopc::prelude::*;

fn main() -> Result<(), Box<dyn std::error::Error>> {
    // A 256² grid over the 2048 nm tile → 8 nm pixels. Benchmarks use
    // 512²; this keeps the quickstart under a minute on a laptop.
    let config = LithoConfig {
        size: 256,
        kernel_count: 8,
        ..LithoConfig::default()
    };
    let pixel_nm = config.pixel_nm();
    let sim = LithoSimulator::new(config)?;

    // Benchmark case 4: an isolated wire plus a stub.
    let target = benchmark_case(4)?.rasterize(sim.size());
    let epe_cfg = EpeConfig::default();

    println!(
        "=== CFAOPC quickstart: case4 @ {0}x{0} px ===\n",
        sim.size()
    );

    // --- Method 1: CircleRule on a pixel-ILT mask (paper §3) -----------
    let pixel = run_engine(&sim, &target, IltEngine::MultiIltLike, 20)?;
    let rule_cfg = CircleRuleConfig::default();
    let circles = circle_rule(&pixel.mask_binary, &rule_cfg, pixel_nm);
    let raster = circles.rasterize(sim.size(), sim.size());
    let mut m1 = evaluate_mask(&sim, &raster, &target, &epe_cfg)?;
    m1.shots = circles.shot_count();

    // For reference: the same pixel mask written on a VSB machine.
    let vsb_shots = rect_shot_count(&pixel.mask_binary);

    // --- Method 2: CircleOpt (paper §4) ---------------------------------
    let opt_cfg = CircleOptConfig {
        init_iterations: 10,
        circle_iterations: 30,
        ..CircleOptConfig::default()
    };
    let opt = run_circleopt(&sim, &target, &opt_cfg, RunOptions::default())?;
    let mut m2 = evaluate_mask(&sim, &opt.mask_raster, &target, &epe_cfg)?;
    m2.shots = opt.shot_count();

    let mut table = MetricTable::new("quickstart (case4)");
    table.push(MetricRow::new("MultiILT+CircleRule", m1));
    table.push(MetricRow::new("CircleOpt", m2));
    print!("{table}");
    println!("\nMultiILT mask on a VSB writer would need {vsb_shots} rectangle shots.");

    // Every CircleOpt shot obeys the writer's radius rules by construction.
    let (r_min, r_max) = opt_cfg.rule.radius_range_px(pixel_nm);
    let report = check_mrc(
        &opt.mask,
        &MrcRules {
            r_min,
            r_max,
            min_spacing: 0.0,
        },
    );
    println!(
        "CircleOpt MRC radius check: {}",
        if report.is_clean() {
            "clean"
        } else {
            "VIOLATIONS"
        }
    );
    Ok(())
}
