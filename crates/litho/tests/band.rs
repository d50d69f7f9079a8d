//! The band-grid SOCS path against a naive dense oracle.
//!
//! The simulator runs every per-kernel field and adjoint transform on the
//! optics' band grid and moves only the per-corner intensity and dL/dI
//! between grids. The oracle below does none of that: it evaluates
//! paper Eq. 1 and the hand-derived adjoint with one full-grid complex
//! transform per kernel and direction, no sparsity and no pools. The two
//! must agree to 1e-10 relative wherever the band grid is smaller than
//! the simulator grid, and at 128² (band = grid) as well.

use cfaopc_fft::{signed_freq, Complex, Fft2d};
use cfaopc_grid::{fill_rect, BitGrid, Grid2D, Rect};
use cfaopc_litho::{
    loss_and_gradient, sigmoid, LithoConfig, LithoSimulator, LossWeights, ProcessCorner,
};

const CORNERS: [(ProcessCorner, bool); 3] = [
    (ProcessCorner::Nominal, true),
    (ProcessCorner::Max, false),
    (ProcessCorner::Min, false),
];

fn sim_at(size: usize) -> LithoSimulator {
    LithoSimulator::new(LithoConfig {
        size,
        kernel_count: 4,
        ..LithoConfig::default()
    })
    .unwrap()
}

/// Binary rectangles (full-band spectrum, so the crop has work to do)
/// on a smooth background.
fn test_mask(n: usize) -> Grid2D<f64> {
    let mut m = BitGrid::new(n, n);
    let s = |v: usize| (v * n / 64) as i32;
    fill_rect(&mut m, Rect::new(s(10), s(8), s(30), s(20)));
    fill_rect(&mut m, Rect::new(s(36), s(12), s(40), s(50)));
    fill_rect(&mut m, Rect::new(s(14), s(34), s(28), s(37)));
    let values = m
        .to_real()
        .as_slice()
        .iter()
        .enumerate()
        .map(|(i, &v)| v.max(0.2 * ((i % n) as f64 / n as f64)))
        .collect();
    Grid2D::from_vec(n, n, values)
}

fn test_target(n: usize) -> Grid2D<f64> {
    let mut t = BitGrid::new(n, n);
    let s = |v: usize| (v * n / 64) as i32;
    fill_rect(&mut t, Rect::new(s(12), s(10), s(28), s(18)));
    fill_rect(&mut t, Rect::new(s(36), s(14), s(40), s(48)));
    t.to_real()
}

/// Full-grid index of a kernel's band-grid spectrum entry.
fn grid_index(idx: u32, band: usize, n: usize) -> usize {
    let (ky, kx) = (idx as usize / band, idx as usize % band);
    let fy = signed_freq(ky, band).rem_euclid(n as i64) as usize;
    let fx = signed_freq(kx, band).rem_euclid(n as i64) as usize;
    fy * n + fx
}

/// Dense fields `IFFT_n(H_k ⊙ FFT_n(M))` of every kernel of one corner.
fn dense_fields(
    sim: &LithoSimulator,
    mask: &Grid2D<f64>,
    corner: ProcessCorner,
) -> Vec<Vec<Complex>> {
    let n = sim.size();
    let plan = Fft2d::square(n).unwrap();
    let mut spectrum: Vec<Complex> = mask
        .as_slice()
        .iter()
        .map(|&v| Complex::from_re(v))
        .collect();
    plan.forward(&mut spectrum).unwrap();
    let set = sim.kernel_set(corner);
    set.kernels()
        .iter()
        .map(|kernel| {
            let mut field = vec![Complex::ZERO; n * n];
            for &(idx, h) in &kernel.spectrum {
                let i = grid_index(idx, set.band(), n);
                field[i] = h * spectrum[i];
            }
            plan.inverse(&mut field).unwrap();
            field
        })
        .collect()
}

fn dense_intensity(
    sim: &LithoSimulator,
    fields: &[Vec<Complex>],
    corner: ProcessCorner,
) -> Vec<f64> {
    let dose = sim.config().dose(corner);
    let mut intensity = vec![0.0; sim.size() * sim.size()];
    for (kernel, field) in sim.kernel_set(corner).kernels().iter().zip(fields) {
        for (i, z) in field.iter().enumerate() {
            intensity[i] += dose * kernel.weight * z.norm_sqr();
        }
    }
    intensity
}

/// Dense loss `(l2, pvb)` and gradient, term for term the derivation in
/// the gradient module's docs.
fn dense_loss_and_gradient(
    sim: &LithoSimulator,
    mask: &Grid2D<f64>,
    target: &Grid2D<f64>,
) -> ((f64, f64), Vec<f64>) {
    let n = sim.size();
    let cfg = sim.config();
    let plan = Fft2d::square(n).unwrap();
    let (mut l2, mut pvb) = (0.0, 0.0);
    let mut acc = vec![Complex::ZERO; n * n];
    for (corner, nominal) in CORNERS {
        let fields = dense_fields(sim, mask, corner);
        let intensity = dense_intensity(sim, &fields, corner);
        let mut g = vec![0.0; n * n];
        let mut loss = 0.0;
        for (i, &v) in intensity.iter().enumerate() {
            let z = sigmoid(cfg.resist_steepness * (v - cfg.threshold));
            let diff = z - target.as_slice()[i];
            loss += diff * diff;
            g[i] = 2.0 * diff * cfg.resist_steepness * z * (1.0 - z);
        }
        if nominal {
            l2 = loss;
        } else {
            pvb += loss;
        }
        let set = sim.kernel_set(corner);
        for (kernel, field) in set.kernels().iter().zip(&fields) {
            let mut prod: Vec<Complex> =
                field.iter().zip(&g).map(|(z, &gi)| z.conj() * gi).collect();
            plan.inverse(&mut prod).unwrap();
            let scale = 2.0 * kernel.weight * cfg.dose(corner);
            for &(idx, h) in &kernel.spectrum {
                let i = grid_index(idx, set.band(), n);
                acc[i] += h * prod[i] * scale;
            }
        }
    }
    plan.forward(&mut acc).unwrap();
    ((l2, pvb), acc.iter().map(|z| z.re).collect())
}

/// `max |a − b| / max |b|`.
fn rel_err(a: &[f64], b: &[f64]) -> f64 {
    assert_eq!(a.len(), b.len());
    let peak = b.iter().fold(0.0f64, |m, v| m.max(v.abs()));
    let diff = a
        .iter()
        .zip(b)
        .fold(0.0f64, |m, (x, y)| m.max((x - y).abs()));
    diff / peak
}

fn check_against_oracle(size: usize, band: usize) {
    let sim = sim_at(size);
    assert_eq!(sim.band(), band);
    let mask = test_mask(size);
    let target = test_target(size);

    let images = sim.aerial_corners(&mask).unwrap();
    for (corner, _) in CORNERS {
        let fields = dense_fields(&sim, &mask, corner);
        let dense = dense_intensity(&sim, &fields, corner);
        let err = rel_err(images.get(corner).as_slice(), &dense);
        assert!(err <= 1e-10, "{size}²: {corner:?} aerial off by {err:e}");
    }

    let (values, grad) = loss_and_gradient(&sim, &mask, &target, LossWeights::default()).unwrap();
    let ((l2, pvb), dense_grad) = dense_loss_and_gradient(&sim, &mask, &target);
    assert!(
        (values.l2 - l2).abs() <= 1e-10 * l2,
        "{size}²: l2 {} vs {l2}",
        values.l2
    );
    assert!(
        (values.pvb - pvb).abs() <= 1e-10 * pvb,
        "{size}²: pvb {} vs {pvb}",
        values.pvb
    );
    let err = rel_err(grad.as_slice(), &dense_grad);
    assert!(err <= 1e-10, "{size}²: gradient off by {err:e}");
}

#[test]
fn band_equals_grid_at_128_and_matches_the_oracle() {
    check_against_oracle(128, 128);
}

#[test]
fn band_path_matches_the_dense_oracle_at_256() {
    check_against_oracle(256, 128);
}

#[test]
fn band_path_matches_the_dense_oracle_at_512() {
    check_against_oracle(512, 128);
}
