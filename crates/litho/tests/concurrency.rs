//! Thread-count invariance of the litho forward model.
//!
//! The kernel loop in `aerial_from_spectrum` merges per-kernel partial
//! intensities through an ordered turnstile, so the floating-point
//! summation order — and therefore every output bit — must not depend
//! on how many workers execute it. A single umbrella test pins
//! `CFAOPC_THREADS=4` before the pool exists, then compares the pooled
//! run against a forced fully-serial run of the same process.

use cfaopc_fft::parallel::{with_worker_limit, worker_count};
use cfaopc_grid::{fill_rect, BitGrid, Grid2D, Point, Rect};
use cfaopc_litho::{
    bossung_surface, loss_and_gradient, CdAxis, CdProbe, LithoConfig, LithoSimulator, LossWeights,
    ProcessCorner,
};

fn test_mask(n: usize) -> Grid2D<f64> {
    let values = (0..n * n)
        .map(|i| {
            let (x, y) = (i % n, i / n);
            // A few rectangles plus a smooth ramp: nontrivial spectrum.
            let solid = (x > n / 4 && x < n / 2 && y > n / 8 && y < n - n / 4) as u8 as f64;
            solid.max(0.3 * ((x * y) as f64 / (n * n) as f64))
        })
        .collect();
    Grid2D::from_vec(n, n, values)
}

#[test]
fn aerial_images_are_bit_identical_serial_vs_parallel() {
    std::env::set_var("CFAOPC_THREADS", "4");
    assert_eq!(worker_count(), 4, "CFAOPC_THREADS must win at pool setup");

    for sim in sims() {
        aerial_images_match(&sim);
    }
}

/// The 64² test grid (band grid = full grid) and a 256² one, where the
/// fields run on the 128² band grid and every intensity and dL/dI moves
/// between the grids.
fn sims() -> [LithoSimulator; 2] {
    let at = |size| {
        LithoSimulator::new(LithoConfig {
            size,
            ..LithoConfig::fast_test()
        })
        .unwrap()
    };
    let sims = [at(64), at(256)];
    assert_eq!((sims[0].band(), sims[1].band()), (64, 128));
    sims
}

fn aerial_images_match(sim: &LithoSimulator) {
    let mask = test_mask(sim.size());

    for corner in ProcessCorner::ALL {
        let parallel = sim.aerial_image(&mask, corner).unwrap();
        let serial = with_worker_limit(1, || sim.aerial_image(&mask, corner).unwrap());
        let pbits: Vec<u64> = parallel.as_slice().iter().map(|v| v.to_bits()).collect();
        let sbits: Vec<u64> = serial.as_slice().iter().map(|v| v.to_bits()).collect();
        assert_eq!(
            pbits, sbits,
            "aerial image at {corner:?} depends on thread count"
        );
    }

    // The corner bundle goes through the same accumulator; check it too.
    let parallel = sim.aerial_corners(&mask).unwrap();
    let serial = with_worker_limit(1, || sim.aerial_corners(&mask).unwrap());
    for corner in ProcessCorner::ALL {
        let pbits: Vec<u64> = parallel
            .get(corner)
            .as_slice()
            .iter()
            .map(|v| v.to_bits())
            .collect();
        let sbits: Vec<u64> = serial
            .get(corner)
            .as_slice()
            .iter()
            .map(|v| v.to_bits())
            .collect();
        assert_eq!(
            pbits, sbits,
            "corner bundle at {corner:?} depends on thread count"
        );
    }
}

#[test]
fn loss_and_gradient_is_bit_identical_serial_vs_parallel() {
    // The batched multi-corner forward/adjoint regions merge through an
    // ordered turnstile (intensity) and a task-ordered serial reduction
    // (spectral gradient): no output bit may depend on worker count.
    std::env::set_var("CFAOPC_THREADS", "4");
    assert_eq!(worker_count(), 4, "CFAOPC_THREADS must win at pool setup");

    for sim in sims() {
        loss_and_gradient_match(&sim);
    }
}

fn loss_and_gradient_match(sim: &LithoSimulator) {
    let n = sim.size();
    let mask = test_mask(n);
    let mut target = BitGrid::new(n, n);
    fill_rect(
        &mut target,
        Rect::new(
            n as i32 / 4,
            n as i32 / 4,
            3 * n as i32 / 4,
            3 * n as i32 / 4,
        ),
    );
    let target = target.to_real();

    for weights in [
        LossWeights::default(),
        LossWeights { l2: 1.0, pvb: 0.0 },
        LossWeights { l2: 0.0, pvb: 2.0 },
    ] {
        let (pv, pg) = loss_and_gradient(sim, &mask, &target, weights).unwrap();
        let (sv, sg) = with_worker_limit(1, || {
            loss_and_gradient(sim, &mask, &target, weights).unwrap()
        });
        assert_eq!(pv.total.to_bits(), sv.total.to_bits());
        assert_eq!(pv.l2.to_bits(), sv.l2.to_bits());
        assert_eq!(pv.pvb.to_bits(), sv.pvb.to_bits());
        let pbits: Vec<u64> = pg.as_slice().iter().map(|v| v.to_bits()).collect();
        let sbits: Vec<u64> = sg.as_slice().iter().map(|v| v.to_bits()).collect();
        assert_eq!(
            pbits, sbits,
            "gradient with weights {weights:?} depends on thread count"
        );
    }
}

#[test]
fn bossung_surface_is_bit_identical_serial_vs_parallel() {
    std::env::set_var("CFAOPC_THREADS", "4");
    assert_eq!(worker_count(), 4, "CFAOPC_THREADS must win at pool setup");

    let sim = LithoSimulator::new(LithoConfig::fast_test()).unwrap();
    let n = sim.size();
    let mut mask = BitGrid::new(n, n);
    fill_rect(
        &mut mask,
        Rect::new(n as i32 / 4, 3, 3 * n as i32 / 4, n as i32 - 3),
    );
    let probe = CdProbe {
        at: Point::new(n as i32 / 2, n as i32 / 2),
        axis: CdAxis::Horizontal,
    };
    let defocus = [0.0, 50.0, 100.0];
    let doses = [0.96, 1.0, 1.04];

    let parallel = bossung_surface(&sim, &mask, &probe, &defocus, &doses).unwrap();
    let serial = with_worker_limit(1, || {
        bossung_surface(&sim, &mask, &probe, &defocus, &doses).unwrap()
    });
    assert_eq!(parallel.points.len(), serial.points.len());
    for (p, s) in parallel.points.iter().zip(&serial.points) {
        assert_eq!(
            p.cd_nm.map(f64::to_bits),
            s.cd_nm.map(f64::to_bits),
            "CD at defocus {} dose {} depends on thread count",
            p.defocus_nm,
            p.dose
        );
    }

    // The condensed metric must agree exactly as well.
    let cd_target = (n as f64 / 2.0) * sim.config().pixel_nm();
    let pw = parallel.window_fraction(cd_target, 0.25);
    let sw = serial.window_fraction(cd_target, 0.25);
    assert_eq!(pw.to_bits(), sw.to_bits());
}
