//! Cross-crate integration tests: the full CFAOPC pipelines on real
//! benchmark tiles at reduced resolution.

use cfaopc::prelude::*;

fn test_sim(size: usize) -> LithoSimulator {
    LithoSimulator::new(LithoConfig {
        size,
        kernel_count: 6,
        ..LithoConfig::default()
    })
    .expect("valid test configuration")
}

#[test]
fn circle_rule_pipeline_on_case4() {
    let sim = test_sim(256);
    let pixel_nm = sim.config().pixel_nm();
    let n = sim.size();
    let target = benchmark_case(4).unwrap().rasterize(n);

    let pixel = run_engine(&sim, &target, IltEngine::MultiIltLike, 12).unwrap();
    assert!(pixel.mask_binary.count_ones() > 0);

    let circles = circle_rule(&pixel.mask_binary, &CircleRuleConfig::default(), pixel_nm);
    assert!(circles.shot_count() > 0);

    // The fractured mask still prints: L2 finite, EPE bounded by the
    // total sample count.
    let raster = circles.rasterize(n, n);
    let metrics = evaluate_mask(&sim, &raster, &target, &EpeConfig::default()).unwrap();
    assert!(metrics.l2 > 0.0 && metrics.l2.is_finite());
    assert!(metrics.pvb >= 0.0);
}

#[test]
fn circles_beat_rectangles_at_mask_writer_resolution() {
    // The Figure 1 claim lives at the writer's native 1 nm/px scale,
    // where every curved boundary row costs a fresh VSB rectangle.
    // Build a genuinely curvilinear mask (disks + a rounded bar) at
    // 1 nm/px and fracture it both ways.
    let n = 512;
    let mut mask = BitGrid::new(n, n);
    fill_circle(&mut mask, Point::new(120, 120), 60);
    fill_circle(&mut mask, Point::new(300, 140), 45);
    // Rounded-end bar: a rectangle capped with disks.
    fill_rect(&mut mask, Rect::new(100, 320, 400, 380));
    fill_circle(&mut mask, Point::new(100, 350), 30);
    fill_circle(&mut mask, Point::new(400, 350), 30);

    let rects = rect_shot_count(&mask);
    let circles = circle_rule(&mask, &CircleRuleConfig::default(), 1.0);
    assert!(
        circles.shot_count() * 3 < rects,
        "circles {} should be well under a third of rectangles {}",
        circles.shot_count(),
        rects
    );
}

#[test]
fn circleopt_pipeline_on_case4() {
    let sim = test_sim(256);
    let n = sim.size();
    let pixel_nm = sim.config().pixel_nm();
    let target = benchmark_case(4).unwrap().rasterize(n);

    let cfg = CircleOptConfig {
        init_iterations: 8,
        circle_iterations: 12,
        ..CircleOptConfig::default()
    };
    let result = run_circleopt(&sim, &target, &cfg, RunOptions::default()).unwrap();
    assert!(result.shot_count() > 0);

    // The mask is a pure union of in-range circles (CFAOPC constraint).
    let (r_min, r_max) = cfg.rule.radius_range_px(pixel_nm);
    let report = check_mrc(
        &result.mask,
        &MrcRules {
            r_min,
            r_max,
            min_spacing: 0.0,
        },
    );
    assert!(report.is_clean(), "{:?}", report.violations);
    assert_eq!(result.mask_raster, result.mask.rasterize(n, n));

    // It prints something sensible.
    let metrics = evaluate_mask(&sim, &result.mask_raster, &target, &EpeConfig::default()).unwrap();
    assert!(metrics.l2.is_finite());
    let printed = sim
        .print(&result.mask_raster, ProcessCorner::Nominal)
        .unwrap();
    assert!(printed.count_ones() > 0, "CircleOpt mask prints nothing");
}

#[test]
fn layout_glp_roundtrip_feeds_the_pipeline() {
    let layout = benchmark_case(8).unwrap();
    let text = layout.to_glp();
    let parsed = Layout::from_glp(&text).unwrap();
    assert_eq!(parsed.area_nm2(), PAPER_AREAS_NM2[7]);
    let a = layout.rasterize(256);
    let b = parsed.rasterize(256);
    assert_eq!(a, b);
}

#[test]
fn all_cases_rasterize_and_fracture() {
    for layout in all_cases() {
        let mask = layout.rasterize(256);
        assert!(mask.count_ones() > 0, "{} rasterized empty", layout.name);
        let circles = circle_rule(&mask, &CircleRuleConfig::default(), 8.0);
        assert!(
            circles.shot_count() > 0,
            "{} fractured to zero shots",
            layout.name
        );
        // Every raster pixel of the circle union lies close to the
        // original mask (cover-rate guarantee keeps circles mostly
        // inside).
        let raster = circles.rasterize(256, 256);
        let inside = raster.intersection_count(&mask);
        assert!(
            inside as f64 >= 0.5 * raster.count_ones() as f64,
            "{}: circles wander far outside the mask",
            layout.name
        );
    }
}

#[test]
fn metric_table_aggregates_pipeline_rows() {
    let sim = test_sim(128);
    let n = sim.size();
    let mut table = MetricTable::new("integration");
    for case in [4usize, 10] {
        let target = benchmark_case(case).unwrap().rasterize(n);
        let metrics = evaluate_mask(&sim, &target, &target, &EpeConfig::default()).unwrap();
        table.push(MetricRow::new(format!("case{case}"), metrics));
    }
    assert_eq!(table.rows.len(), 2);
    let csv = table.to_csv();
    assert!(csv.lines().count() == 4);
    assert!(table.to_string().contains("average"));
}
