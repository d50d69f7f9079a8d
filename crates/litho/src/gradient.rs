//! Manual adjoint of the lithography forward model.
//!
//! There is no autodiff here: this module implements, by hand, the exact
//! gradient of the relaxed ILT loss (paper Eq. 6)
//!
//! ```text
//! L = w_l2 · ‖Z_nom − T‖² + w_pvb · (‖Z_max − T‖² + ‖Z_min − T‖²)
//! Z_c = σ(θ_z (I_c − I_th)),   I_c = dose_c · Σ_k μ_k |IFFT(H_k ⊙ FFT(M))|²
//! ```
//!
//! with respect to every pixel of the continuous mask `M`. Derivation
//! (per corner, per kernel, with `A_k = IFFT(H_k ⊙ F)`, `F = FFT(M)`):
//!
//! ```text
//! ∂L/∂I        = 2 w_c (Z − T) · θ_z Z (1 − Z)
//! ∂I/∂|A_k|²   = dose_c μ_k
//! ∂L/∂M        = Σ_k 2 dose_c μ_k · Re[ FFT( H_k ⊙ IFFT( G ⊙ conj(A_k) ) ) ]
//! ```
//!
//! where `G = ∂L/∂I` and the outer `FFT` is shared across kernels and
//! corners (the spectral contributions are accumulated sparsely on the
//! pupil support first, then transformed once).

use crate::config::{LithoError, NonFiniteTerm, ProcessCorner};
use crate::simulator::{sigmoid_sat, LithoSimulator};
use cfaopc_fft::parallel::par_map;
use cfaopc_fft::simd::{accumulate_norm_sqr, conj_mul_real};
use cfaopc_fft::Complex;
use cfaopc_grid::Grid2D;

/// Weights of the two loss terms (paper Eq. 6 uses `L = L2 + L_pvb`,
/// i.e. both 1).
#[derive(Debug, Clone, Copy, PartialEq, serde::Serialize, serde::Deserialize)]
pub struct LossWeights {
    /// Weight of the nominal-corner squared-L2 term.
    pub l2: f64,
    /// Weight of the process-variation term (outer + inner corners).
    pub pvb: f64,
}

impl Default for LossWeights {
    fn default() -> Self {
        LossWeights { l2: 1.0, pvb: 1.0 }
    }
}

/// Relaxed loss values from one forward evaluation.
#[derive(Debug, Clone, Copy, PartialEq, Default, serde::Serialize, serde::Deserialize)]
pub struct LossValues {
    /// `‖Z_nom − T‖²` with the sigmoid resist.
    pub l2: f64,
    /// `‖Z_max − T‖² + ‖Z_min − T‖²` with the sigmoid resist.
    pub pvb: f64,
    /// Weighted total.
    pub total: f64,
}

impl LossValues {
    /// The first non-finite loss term, if any — the loss half of the
    /// numerical-health guard (`l2`, then `pvb`, then `total`).
    pub fn non_finite_term(&self) -> Option<NonFiniteTerm> {
        if !self.l2.is_finite() {
            Some(NonFiniteTerm::LossL2)
        } else if !self.pvb.is_finite() {
            Some(NonFiniteTerm::LossPvb)
        } else if !self.total.is_finite() {
            Some(NonFiniteTerm::LossTotal)
        } else {
            None
        }
    }
}

fn corner_plan(weights: LossWeights) -> [(ProcessCorner, f64); 3] {
    [
        (ProcessCorner::Nominal, weights.l2),
        (ProcessCorner::Max, weights.pvb),
        (ProcessCorner::Min, weights.pvb),
    ]
}

/// Evaluates the relaxed loss **and** its exact gradient with respect to
/// the continuous mask.
///
/// The returned gradient has the same shape as `mask`; descending it is
/// the pixel-level ILT step (paper §4.1), and chaining it through the
/// circle-to-pixel transformation is the circle-level step (paper §4.2,
/// Eq. 16).
///
/// # Errors
///
/// Returns [`LithoError::ShapeMismatch`] when `mask` or `target` do not
/// match the simulator grid.
pub fn loss_and_gradient(
    sim: &LithoSimulator,
    mask: &Grid2D<f64>,
    target: &Grid2D<f64>,
    weights: LossWeights,
) -> Result<(LossValues, Grid2D<f64>), LithoError> {
    let mut grad = Grid2D::new(sim.size(), sim.size(), 0.0);
    let values = loss_and_gradient_into(sim, mask, target, weights, &mut grad)?;
    Ok((values, grad))
}

/// [`loss_and_gradient`] into a caller-owned gradient grid.
///
/// All scratch (mask spectrum, band fields, spectral accumulator,
/// per-corner intensity and dL/dI) comes from the simulator's buffer
/// pools, and `grad` is fully overwritten (reallocated only on a
/// grid-size change) — so a caller looping over iterations with a
/// persistent `grad` performs **zero steady-state heap allocations**
/// here. [`loss_and_gradient`] is the convenience wrapper that allocates
/// a fresh grid per call.
///
/// The mask spectrum, the per-kernel fields and their adjoint transforms
/// run on the band grid ([`LithoSimulator::band`]); per corner, one
/// transform pair carries the intensity onto the full grid for the resist
/// and one carries dL/dI back onto the band grid. Every full-grid
/// transform is band-pruned, so no full-grid spectrum is ever built.
///
/// # Errors
///
/// Returns [`LithoError::ShapeMismatch`] when `mask` or `target` do not
/// match the simulator grid.
pub fn loss_and_gradient_into(
    sim: &LithoSimulator,
    mask: &Grid2D<f64>,
    target: &Grid2D<f64>,
    weights: LossWeights,
    grad: &mut Grid2D<f64>,
) -> Result<LossValues, LithoError> {
    let _span = cfaopc_trace::span("litho.loss_and_gradient");
    let n = sim.size();
    if target.width() != n || target.height() != n {
        return Err(LithoError::ShapeMismatch {
            expected: (n, n),
            actual: (target.width(), target.height()),
        });
    }
    let b = sim.band();
    let mut spectrum = sim.band_fields().take(b * b);
    let fields = sim
        .mask_spectrum_into(mask, &mut spectrum)
        .and_then(|()| forward_fields(sim, weights, &spectrum));
    sim.band_fields().put(spectrum);
    let fields = fields?;
    if grad.width() != n || grad.height() != n {
        *grad = Grid2D::new(n, n, 0.0);
    }
    let values = resist_and_adjoint(sim, target, weights, &fields, grad.as_mut_slice());
    for field in fields {
        sim.band_fields().put(field);
    }
    values
}

/// Global forward task offsets: stack-major (corner order), kernel-
/// ascending within a stack; `offsets[c]` is corner `c`'s first task.
/// Stacks are weight-sorted, so `active_count` truncates their tails when
/// `kernel_energy_floor < 1.0`.
fn task_offsets(sim: &LithoSimulator, weights: LossWeights) -> [usize; 4] {
    let floor = sim.config().kernel_energy_floor;
    let mut offsets = [0usize; 4];
    for (c, &(corner, _)) in corner_plan(weights).iter().enumerate() {
        offsets[c + 1] = offsets[c] + sim.kernel_set(corner).active_count(floor);
    }
    offsets
}

/// Coherent band-grid fields for **all corners** in one flat parallel
/// region (kept alive for the adjoint), so workers stay busy across
/// corner boundaries. Each task's IFFT runs serially on its claimed
/// thread in a pooled buffer; kernel spectra are band-limited, so the
/// sparse inverse skips the all-zero rows. Plan errors are unreachable
/// (plan and buffers share one config) but propagate as
/// `LithoError::Fft`; pooled buffers from completed kernels are dropped
/// rather than repooled on that cold path.
fn forward_fields(
    sim: &LithoSimulator,
    weights: LossWeights,
    band_spectrum: &[Complex],
) -> Result<Vec<Vec<Complex>>, LithoError> {
    let corners = corner_plan(weights);
    let offsets = task_offsets(sim, weights);
    let b2 = band_spectrum.len();
    let fields = par_map(offsets[3], |t| -> Result<Vec<Complex>, LithoError> {
        let c = offsets[1..4].iter().position(|&o| t < o).unwrap_or(2);
        let mut field = sim.band_fields().take(b2);
        sim.kernel_set(corners[c].0)
            .apply(t - offsets[c], band_spectrum, &mut field);
        sim.band_plan().inverse_serial_sparse(&mut field)?;
        Ok(field)
    })
    .into_iter()
    .collect::<Result<_, _>>()?;
    Ok(fields)
}

/// Per-corner resist, loss value and dL/dI from the band fields, then
/// the adjoint into `grad`.
fn resist_and_adjoint(
    sim: &LithoSimulator,
    target: &Grid2D<f64>,
    weights: LossWeights,
    fields: &[Vec<Complex>],
    grad: &mut [f64],
) -> Result<LossValues, LithoError> {
    let cfg = sim.config();
    let (n, b) = (sim.size(), sim.band());
    let (n2, b2) = (n * n, b * b);
    let theta = cfg.resist_steepness;
    let th = cfg.threshold;
    let corners = corner_plan(weights);
    let fwd_offsets = task_offsets(sim, weights);

    let mut values = LossValues::default();
    // Every nonzero-weight corner's band-grid dL/dI survives to feed the
    // single batched adjoint region below.
    let mut g_all: [Option<Vec<f64>>; 3] = [None, None, None];
    for (c, &(corner, w_c)) in corners.iter().enumerate() {
        let set = sim.kernel_set(corner);
        let dose = cfg.dose(corner);
        let active = fwd_offsets[c + 1] - fwd_offsets[c];

        let mut band_intensity = sim.band_reals().take_zeroed(b2);
        for k in 0..active {
            let w = set.kernels()[k].weight * dose;
            accumulate_norm_sqr(&mut band_intensity, &fields[fwd_offsets[c] + k], w);
        }
        let intensity = if b == n {
            band_intensity
        } else {
            let mut full = sim.grid_reals().take(n2);
            let expanded = sim.expand_from_band(&band_intensity, &mut full);
            sim.band_reals().put(band_intensity);
            expanded?;
            full
        };

        // g_i is fully overwritten, so unspecified pool contents are
        // fine.
        let mut corner_loss = 0.0;
        let mut g_i = sim.grid_reals().take(n2);
        for i in 0..n2 {
            let z = sigmoid_sat(theta * (intensity[i] - th));
            let diff = z - target.as_slice()[i];
            corner_loss += diff * diff;
            g_i[i] = w_c * 2.0 * diff * theta * z * (1.0 - z);
        }
        sim.grid_reals().put(intensity);
        match corner {
            ProcessCorner::Nominal => values.l2 = corner_loss,
            _ => values.pvb += corner_loss,
        }
        if w_c == 0.0 {
            sim.grid_reals().put(g_i);
        } else if b == n {
            g_all[c] = Some(g_i);
        } else {
            let mut band_g = sim.band_reals().take(b2);
            let cropped = sim.crop_to_band(&g_i, &mut band_g);
            sim.grid_reals().put(g_i);
            cropped?;
            g_all[c] = Some(band_g);
        }
    }
    values.total = weights.l2 * values.l2 + weights.pvb * values.pvb;

    // Adjoint task index over the corners that carry weight, in the same
    // stack-major order as the forward pass.
    let mut adj_offsets = [0usize; 4];
    let mut adj_corner = [0usize; 3];
    let mut adj_stacks = 0usize;
    for (c, g) in g_all.iter().enumerate() {
        if g.is_some() {
            adj_corner[adj_stacks] = c;
            adj_offsets[adj_stacks + 1] =
                adj_offsets[adj_stacks] + (fwd_offsets[c + 1] - fwd_offsets[c]);
            adj_stacks += 1;
        }
    }
    let adj_total = adj_offsets[adj_stacks];

    // Band-grid spectral gradient accumulator (pupil support only is ever
    // nonzero).
    let mut acc = sim.band_fields().take_zeroed(b2);
    if adj_total > 0 {
        // Adjoint: per kernel, B = G ⊙ conj(A); contribute
        // 2·μ·dose·H ⊙ IFFT(B) on the (sparse) pupil support. Again one
        // flat region spanning every weighted corner.
        let contributions: Vec<Vec<(u32, Complex)>> =
            par_map(adj_total, |t| -> Result<Vec<(u32, Complex)>, LithoError> {
                let s = adj_offsets[1..=adj_stacks]
                    .iter()
                    .position(|&o| t < o)
                    .unwrap_or(adj_stacks - 1);
                let c = adj_corner[s];
                let set = sim.kernel_set(corners[c].0);
                let dose = cfg.dose(corners[c].0);
                let k = t - adj_offsets[s];
                let g_i = g_all[c].as_deref().unwrap_or(&[]);
                let mut prod = sim.band_fields().take(b2);
                conj_mul_real(&mut prod, &fields[fwd_offsets[c] + k], g_i);
                // The transform's output is only sampled on the pupil
                // support below, so the column pass can skip every
                // column outside the kernel set's union support —
                // sampled columns are bit-identical to the dense path.
                sim.band_plan()
                    .inverse_serial_cols(&mut prod, set.support_cols())?;
                let scale = 2.0 * set.kernels()[k].weight * dose;
                let contribution = set.kernels()[k]
                    .spectrum
                    .iter()
                    .map(|&(idx, h)| (idx, h * prod[idx as usize] * scale))
                    .collect();
                sim.band_fields().put(prod);
                Ok(contribution)
            })
            .into_iter()
            .collect::<Result<_, _>>()?;
        // Serial, task-ordered accumulation — the same (corner, kernel)
        // order as the old per-corner loop — keeps the gradient
        // bit-identical across thread counts.
        for contribution in contributions {
            for (idx, v) in contribution {
                acc[idx as usize] += v;
            }
        }
    }
    for g in g_all.into_iter().flatten() {
        sim.band_reals().put(g);
    }

    // One shared half-spectrum transform turns the spectral accumulator
    // into the pixel-space gradient `Re[FFT(acc)]` directly, without
    // materialising the imaginary half.
    let done = sim.grid_from_band_spectrum(&acc, grad);
    sim.band_fields().put(acc);
    done?;
    Ok(values)
}

/// Evaluates the relaxed loss only (no gradient) — cheaper when a line
/// search or a metric snapshot is all that is needed.
///
/// # Errors
///
/// Returns [`LithoError::ShapeMismatch`] on shape mismatch.
pub fn loss_only(
    sim: &LithoSimulator,
    mask: &Grid2D<f64>,
    target: &Grid2D<f64>,
    weights: LossWeights,
) -> Result<LossValues, LithoError> {
    let _span = cfaopc_trace::span("litho.loss_only");
    let n = sim.size();
    if target.width() != n || target.height() != n {
        return Err(LithoError::ShapeMismatch {
            expected: (n, n),
            actual: (target.width(), target.height()),
        });
    }
    let images = sim.aerial_corners(mask)?;
    let theta = sim.config().resist_steepness;
    let th = sim.config().threshold;
    let mut values = LossValues::default();
    for (corner, _) in corner_plan(weights) {
        let img = images.get(corner);
        let mut corner_loss = 0.0;
        for (i, &v) in img.as_slice().iter().enumerate() {
            let z = sigmoid_sat(theta * (v - th));
            let diff = z - target.as_slice()[i];
            corner_loss += diff * diff;
        }
        match corner {
            ProcessCorner::Nominal => values.l2 = corner_loss,
            _ => values.pvb += corner_loss,
        }
    }
    values.total = weights.l2 * values.l2 + weights.pvb * values.pvb;
    Ok(values)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::LithoConfig;
    use cfaopc_grid::{fill_rect, BitGrid, Rect};

    fn small_sim() -> LithoSimulator {
        LithoSimulator::new(LithoConfig {
            size: 32,
            kernel_count: 4,
            ..LithoConfig::default()
        })
        .unwrap()
    }

    fn smooth_mask(n: usize) -> Grid2D<f64> {
        let mut g = Grid2D::new(n, n, 0.0);
        for y in 0..n {
            for x in 0..n {
                let fx = x as f64 / n as f64;
                let fy = y as f64 / n as f64;
                g[(x, y)] = 0.5
                    + 0.35
                        * (2.0 * std::f64::consts::PI * fx).sin()
                        * (2.0 * std::f64::consts::PI * fy).cos();
            }
        }
        g
    }

    fn target_square(n: usize) -> Grid2D<f64> {
        let mut t = BitGrid::new(n, n);
        let c = n as i32 / 2;
        fill_rect(&mut t, Rect::new(c - 6, c - 4, c + 6, c + 4));
        t.to_real()
    }

    #[test]
    fn gradient_matches_finite_differences() {
        let sim = small_sim();
        assert_eq!(sim.band(), sim.size(), "32² runs with band = grid");
        let points = [(16usize, 16usize), (10, 20), (3, 3), (25, 12), (16, 10)];
        check_finite_differences(&sim, &target_square(sim.size()), &points);
    }

    #[test]
    fn gradient_matches_finite_differences_on_the_band_grid() {
        // At 256² the fields live on the 128² band grid and dL/dI is
        // cropped onto it, so this checks the band adjoint end to end.
        let sim = LithoSimulator::new(LithoConfig {
            size: 256,
            kernel_count: 4,
            ..LithoConfig::default()
        })
        .unwrap();
        assert_eq!(sim.band(), 128);
        let n = sim.size();
        let mut target = BitGrid::new(n, n);
        fill_rect(&mut target, Rect::new(100, 96, 156, 150));
        // Edge, corner, interior and far-field pixels of the target.
        let points = [
            (100usize, 120usize),
            (156, 150),
            (128, 128),
            (97, 96),
            (30, 200),
        ];
        check_finite_differences(&sim, &target.to_real(), &points);
    }

    fn check_finite_differences(
        sim: &LithoSimulator,
        target: &Grid2D<f64>,
        points: &[(usize, usize)],
    ) {
        let n = sim.size();
        let mask = smooth_mask(n);
        let weights = LossWeights::default();
        let (_, grad) = loss_and_gradient(sim, &mask, target, weights).unwrap();

        let eps = 1e-5;
        for &(x, y) in points {
            let mut plus = mask.clone();
            plus[(x, y)] += eps;
            let mut minus = mask.clone();
            minus[(x, y)] -= eps;
            let lp = loss_only(sim, &plus, target, weights).unwrap().total;
            let lm = loss_only(sim, &minus, target, weights).unwrap().total;
            let fd = (lp - lm) / (2.0 * eps);
            let an = grad[(x, y)];
            let denom = fd.abs().max(an.abs()).max(1e-6);
            assert!(
                (fd - an).abs() / denom < 1e-3,
                "gradient mismatch at ({x},{y}): fd={fd}, analytic={an}"
            );
        }
    }

    #[test]
    fn loss_and_gradient_agree_with_loss_only() {
        let sim = small_sim();
        let n = sim.size();
        let mask = smooth_mask(n);
        let target = target_square(n);
        let weights = LossWeights { l2: 1.0, pvb: 0.5 };
        let (v1, _) = loss_and_gradient(&sim, &mask, &target, weights).unwrap();
        let v2 = loss_only(&sim, &mask, &target, weights).unwrap();
        assert!((v1.l2 - v2.l2).abs() < 1e-9);
        assert!((v1.pvb - v2.pvb).abs() < 1e-9);
        assert!((v1.total - v2.total).abs() < 1e-9);
    }

    #[test]
    fn perfect_target_match_has_small_gradient_at_plateau() {
        // A mask equal to an easily-printable target yields a much smaller
        // loss than an empty mask.
        let sim = small_sim();
        let n = sim.size();
        let target = target_square(n);
        let weights = LossWeights::default();
        let good = loss_only(&sim, &target, &target, weights).unwrap().total;
        let empty = loss_only(&sim, &Grid2D::new(n, n, 0.0), &target, weights)
            .unwrap()
            .total;
        assert!(good < empty, "printing the target beats printing nothing");
    }

    #[test]
    fn descending_the_gradient_reduces_the_loss() {
        let sim = small_sim();
        let n = sim.size();
        let target = target_square(n);
        let mut mask = target.clone();
        let weights = LossWeights::default();
        let (before, grad) = loss_and_gradient(&sim, &mask, &target, weights).unwrap();
        let norm: f64 = grad.as_slice().iter().map(|g| g * g).sum::<f64>().sqrt();
        let step = 0.05 / norm.max(1e-12);
        for (m, g) in mask.as_mut_slice().iter_mut().zip(grad.as_slice()) {
            *m = (*m - step * g).clamp(0.0, 1.0);
        }
        let after = loss_only(&sim, &mask, &target, weights).unwrap();
        assert!(
            after.total <= before.total,
            "descent step increased loss: {} -> {}",
            before.total,
            after.total
        );
    }

    #[test]
    fn zero_weights_zero_gradient() {
        let sim = small_sim();
        let n = sim.size();
        let mask = smooth_mask(n);
        let target = target_square(n);
        let (v, grad) =
            loss_and_gradient(&sim, &mask, &target, LossWeights { l2: 0.0, pvb: 0.0 }).unwrap();
        assert_eq!(v.total, 0.0);
        assert!(grad.as_slice().iter().all(|&g| g == 0.0));
    }

    #[test]
    fn rejects_mismatched_target() {
        let sim = small_sim();
        let n = sim.size();
        let mask = Grid2D::new(n, n, 0.0);
        let target = Grid2D::new(8, 8, 0.0);
        assert!(loss_and_gradient(&sim, &mask, &target, LossWeights::default()).is_err());
        assert!(loss_only(&sim, &mask, &target, LossWeights::default()).is_err());
    }
}
