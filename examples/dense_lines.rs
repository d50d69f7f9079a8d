//! Dense line array (benchmark case 3 — the paper's hardest case):
//! sweep the CircleRule sample distance and watch the shot count /
//! quality trade-off that motivates CircleOpt (paper Figure 7).
//!
//! ```sh
//! cargo run --release --example dense_lines
//! ```

use cfaopc::prelude::*;

fn main() -> Result<(), Box<dyn std::error::Error>> {
    let config = LithoConfig {
        size: 256,
        kernel_count: 8,
        ..LithoConfig::default()
    };
    let pixel_nm = config.pixel_nm();
    let sim = LithoSimulator::new(config)?;
    let target = benchmark_case(3)?.rasterize(sim.size());
    let epe_cfg = EpeConfig::default();

    println!("=== dense line array (case3): sample-distance sweep ===\n");
    let pixel = run_engine(&sim, &target, IltEngine::MultiIltLike, 20)?;
    println!(
        "pixel-ILT reference: {} VSB rectangle shots\n",
        rect_shot_count(&pixel.mask_binary)
    );

    println!(
        "{:>12} {:>18} {:>12} {:>12} {:>6}",
        "m (nm)", "method", "L2+PVB (nm^2)", "#Shot", "EPE"
    );
    for m_nm in [24.0, 32.0, 40.0] {
        let rule_cfg = CircleRuleConfig {
            sample_distance_nm: m_nm,
            ..CircleRuleConfig::default()
        };
        // CircleRule on the fixed pixel mask.
        let circles = circle_rule(&pixel.mask_binary, &rule_cfg, pixel_nm);
        let raster = circles.rasterize(sim.size(), sim.size());
        let mr = evaluate_mask(&sim, &raster, &target, &epe_cfg)?;
        println!(
            "{:>12} {:>18} {:>12.0} {:>12} {:>6}",
            m_nm,
            "CircleRule",
            mr.l2 + mr.pvb,
            circles.shot_count(),
            mr.epe
        );

        // CircleOpt with the same reparameterization density.
        let opt = run_circleopt(
            &sim,
            &target,
            &CircleOptConfig {
                init_iterations: 10,
                circle_iterations: 25,
                rule: rule_cfg,
                ..CircleOptConfig::default()
            },
            RunOptions::default(),
        )?;
        let mo = evaluate_mask(&sim, &opt.mask_raster, &target, &epe_cfg)?;
        println!(
            "{:>12} {:>18} {:>12.0} {:>12} {:>6}",
            m_nm,
            "CircleOpt",
            mo.l2 + mo.pvb,
            opt.shot_count(),
            mo.epe
        );
    }
    println!("\nExpected shape (paper Fig. 7): shot count falls as m grows;");
    println!("CircleOpt is flatter in both quality and shot count.");
    Ok(())
}
