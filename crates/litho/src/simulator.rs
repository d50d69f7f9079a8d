//! The forward lithography model: Hopkins aerial image (Eq. 1) and the
//! threshold / sigmoid resist (Eq. 2).

use crate::config::{LithoConfig, LithoError, ProcessCorner};
use crate::kernels::KernelSet;
use cfaopc_fft::parallel::par_for;
use cfaopc_fft::simd::accumulate_norm_sqr;
use cfaopc_fft::{BufferPool, Complex, Fft2d, Rfft2d};
use cfaopc_grid::{BitGrid, Grid2D};
use std::panic::{catch_unwind, resume_unwind, AssertUnwindSafe};
use std::sync::{Condvar, Mutex};

/// Aerial images at the three process corners.
#[derive(Debug, Clone)]
pub struct CornerImages {
    /// Nominal dose / best focus.
    pub nominal: Grid2D<f64>,
    /// Over-dose corner (prints fat).
    pub max: Grid2D<f64>,
    /// Under-dose, defocused corner (prints thin).
    pub min: Grid2D<f64>,
}

impl CornerImages {
    /// Borrow the image for `corner`.
    pub fn get(&self, corner: ProcessCorner) -> &Grid2D<f64> {
        match corner {
            ProcessCorner::Nominal => &self.nominal,
            ProcessCorner::Max => &self.max,
            ProcessCorner::Min => &self.min,
        }
    }
}

/// A reusable lithography simulator: FFT plans plus per-corner SOCS
/// kernel stacks for a fixed grid size.
///
/// The kernels, the mask spectrum and every per-kernel field live on the
/// optics' **band grid** of [`LithoSimulator::band`] pixels (see
/// [`KernelSet::band`]); only the real mask, the per-corner intensities
/// and dL/dI, and the final gradient touch the full grid, through
/// band-pruned real transforms that never build a full-grid spectrum.
///
/// # Examples
///
/// Printing an open frame gives unit intensity:
///
/// ```
/// use cfaopc_litho::{LithoConfig, LithoSimulator};
/// use cfaopc_grid::Grid2D;
///
/// # fn main() -> Result<(), cfaopc_litho::LithoError> {
/// let cfg = LithoConfig::fast_test();
/// let sim = LithoSimulator::new(cfg.clone())?;
/// let open = Grid2D::new(cfg.size, cfg.size, 1.0);
/// let aerial = sim.aerial_image(&open, cfaopc_litho::ProcessCorner::Nominal)?;
/// let center = aerial[(cfg.size / 2, cfg.size / 2)];
/// assert!((center - 1.0).abs() < 1e-9);
/// # Ok(())
/// # }
/// ```
#[derive(Debug)]
pub struct LithoSimulator {
    config: LithoConfig,
    /// Real-input plan on the full grid: the mask spectrum, the band
    /// moves of the intensity and dL/dI, and the gradient's final
    /// `Re[FFT(·)]` — all real on the grid side and band-limited on the
    /// other, so they run as band-pruned transforms.
    rplan: Rfft2d,
    /// Complex plan on the band grid: the per-kernel field transforms.
    band_plan: Fft2d,
    /// Real-input plan on the band grid (a clone of `rplan` when the band
    /// grid is the full grid).
    band_rplan: Rfft2d,
    nominal: KernelSet,
    max: KernelSet,
    min: KernelSet,
    /// Recycled band-grid complex buffers: per-kernel fields (shared with
    /// the adjoint pass), the mask and band spectra and the spectral
    /// gradient, so the steady-state model performs no per-call field
    /// allocations.
    band_fields: BufferPool<Complex>,
    /// Recycled band-grid real buffers: band intensities and dL/dI.
    band_reals: BufferPool<f64>,
    /// Recycled full-grid real buffers: per-corner intensity and dL/dI.
    grid_reals: BufferPool<f64>,
}

impl LithoSimulator {
    /// Builds the simulator (validates the configuration and generates all
    /// three kernel stacks).
    ///
    /// # Errors
    ///
    /// Returns [`LithoError`] for invalid configurations.
    pub fn new(config: LithoConfig) -> Result<Self, LithoError> {
        config.validate()?;
        let n = config.size;
        let rplan = Rfft2d::square(n).map_err(|_| LithoError::BadGridSize(n))?;
        let nominal = KernelSet::generate(&config, ProcessCorner::Nominal)?;
        let b = nominal.band();
        let band_plan = Fft2d::square(b).map_err(|_| LithoError::BadGridSize(b))?;
        let grid_reals = BufferPool::new();
        // One grid means one buffer shape: share the pool and the plan.
        let (band_rplan, band_reals) = if b == n {
            (rplan.clone(), grid_reals.clone())
        } else {
            let band_rplan = Rfft2d::square(b).map_err(|_| LithoError::BadGridSize(b))?;
            (band_rplan, BufferPool::new())
        };
        Ok(LithoSimulator {
            max: KernelSet::generate(&config, ProcessCorner::Max)?,
            min: KernelSet::generate(&config, ProcessCorner::Min)?,
            nominal,
            rplan,
            band_plan,
            band_rplan,
            config,
            band_fields: BufferPool::new(),
            band_reals,
            grid_reals,
        })
    }

    /// The configuration this simulator was built from.
    #[inline]
    pub fn config(&self) -> &LithoConfig {
        &self.config
    }

    /// Grid edge in pixels.
    #[inline]
    pub fn size(&self) -> usize {
        self.config.size
    }

    /// Edge of the band grid the kernels and fields live on: the smallest
    /// power of two above four times the pupil's reach in bins, capped at
    /// [`LithoSimulator::size`].
    #[inline]
    pub fn band(&self) -> usize {
        self.nominal.band()
    }

    /// The kernel stack for `corner`.
    pub fn kernel_set(&self, corner: ProcessCorner) -> &KernelSet {
        match corner {
            ProcessCorner::Nominal => &self.nominal,
            ProcessCorner::Max => &self.max,
            ProcessCorner::Min => &self.min,
        }
    }

    /// The band-grid complex plan (per-kernel field transforms, shared
    /// with the adjoint pass).
    #[inline]
    pub(crate) fn band_plan(&self) -> &Fft2d {
        &self.band_plan
    }

    /// The band-grid complex buffer pool (fields, band spectra).
    #[inline]
    pub(crate) fn band_fields(&self) -> &BufferPool<Complex> {
        &self.band_fields
    }

    /// The band-grid real buffer pool (band intensities and dL/dI).
    #[inline]
    pub(crate) fn band_reals(&self) -> &BufferPool<f64> {
        &self.band_reals
    }

    /// The full-grid real buffer pool (per-corner intensity and dL/dI).
    #[inline]
    pub(crate) fn grid_reals(&self) -> &BufferPool<f64> {
        &self.grid_reals
    }

    fn check_mask(&self, mask: &Grid2D<f64>) -> Result<(), LithoError> {
        if mask.width() != self.config.size || mask.height() != self.config.size {
            return Err(LithoError::ShapeMismatch {
                expected: (self.config.size, self.config.size),
                actual: (mask.width(), mask.height()),
            });
        }
        Ok(())
    }

    /// The mask spectrum on the band grid: the `[-b/2, b/2)` band of the
    /// mask's full-grid FFT, scaled by `(b/n)²` so that band-grid inverse
    /// transforms *sample* the full-grid ones (`IFFT` normalises by the
    /// grid's pixel count). It has [`LithoSimulator::band`]`²` entries,
    /// in the band grid's FFT order, and is computed by a band-pruned
    /// real-input transform without the full-grid spectrum.
    ///
    /// # Errors
    ///
    /// Returns [`LithoError::ShapeMismatch`] when the mask shape differs
    /// from the simulator grid.
    pub fn mask_spectrum(&self, mask: &Grid2D<f64>) -> Result<Vec<Complex>, LithoError> {
        let b = self.band();
        let mut spectrum = vec![Complex::ZERO; b * b];
        self.mask_spectrum_into(mask, &mut spectrum)?;
        Ok(spectrum)
    }

    /// [`LithoSimulator::mask_spectrum`] into a caller-owned `band²`
    /// buffer.
    pub(crate) fn mask_spectrum_into(
        &self,
        mask: &Grid2D<f64>,
        spectrum: &mut [Complex],
    ) -> Result<(), LithoError> {
        self.check_mask(mask)?;
        let (n, b) = (self.size(), self.band());
        let scale = ((b * b) as f64) / ((n * n) as f64);
        self.rplan
            .forward_band_into(mask.as_slice(), b, spectrum, |z| z * scale)?;
        Ok(())
    }

    /// Band-limited interpolation of a band-grid image onto the full grid
    /// (`b < n`): `I_n = IFFT_n(pad((n/b)²·FFT_b(I_b)))`, evaluated as
    /// `Re[FFT_n(conj(pad(FFT_b(I_b))))]/b²` on the real-input plans.
    ///
    /// Exact when the image's spectrum lies strictly inside `±b/2`, as
    /// every SOCS intensity (support `±2·max_bin`) does.
    pub(crate) fn expand_from_band(&self, band: &[f64], out: &mut [f64]) -> Result<(), LithoError> {
        let b = self.band();
        let scale = 1.0 / (b * b) as f64;
        let mut band_spectrum = self.band_fields.take(b * b);
        let done = self
            .band_rplan
            .forward_into(band, &mut band_spectrum)
            .and_then(|()| {
                self.rplan
                    .forward_re_from_band(&band_spectrum, b, out, |z| z.conj() * scale)
            });
        self.band_fields.put(band_spectrum);
        Ok(done?)
    }

    /// The `±b/2` band of a full-grid real signal, sampled on the band
    /// grid (`b < n`): `Re[FFT_b(conj(crop(FFT_n(g))))]/n²`.
    ///
    /// The adjoint multiplies this with `conj(E_k)` and reads the result
    /// only on the pupil bins (`±max_bin`), which see dL/dI frequencies up
    /// to `±2·max_bin` — all inside the band — while the wrap-around of
    /// the product lands at least `b/2 − max_bin > max_bin` bins away.
    pub(crate) fn crop_to_band(&self, grid: &[f64], out: &mut [f64]) -> Result<(), LithoError> {
        let (n, b) = (self.size(), self.band());
        let scale = 1.0 / (n * n) as f64;
        let mut band_spectrum = self.band_fields.take(b * b);
        let done = self
            .rplan
            .forward_band_into(grid, b, &mut band_spectrum, |z| z.conj() * scale)
            .and_then(|()| self.band_rplan.forward_re_into(&band_spectrum, out));
        self.band_fields.put(band_spectrum);
        Ok(done?)
    }

    /// `out = Re[FFT_n(pad(acc))]` for a band-grid spectral accumulator.
    pub(crate) fn grid_from_band_spectrum(
        &self,
        acc: &[Complex],
        out: &mut [f64],
    ) -> Result<(), LithoError> {
        Ok(self
            .rplan
            .forward_re_from_band(acc, self.band(), out, |z| z)?)
    }

    /// Aerial image from a precomputed band-grid mask spectrum (see
    /// [`LithoSimulator::mask_spectrum`]).
    ///
    /// `I(x) = dose(corner) · Σ_k μ_k |IFFT(H_k ⊙ F)(x)|²` — paper Eq. 1
    /// with the corner's dose folded in. Kernels are evaluated in a single
    /// flat parallel region on the persistent pool.
    ///
    /// # Errors
    ///
    /// Returns [`LithoError::BadParameter`] when `spectrum` does not have
    /// [`LithoSimulator::band`]`²` entries (e.g. a spectrum computed on a
    /// different grid).
    pub fn aerial_from_spectrum(
        &self,
        spectrum: &[Complex],
        corner: ProcessCorner,
    ) -> Result<Grid2D<f64>, LithoError> {
        let n = self.config.size;
        let set = self.kernel_set(corner);
        let dose = self.config.dose(corner);
        let intensity = self.accumulate_intensity(set, spectrum, dose)?;
        Ok(Grid2D::from_vec(n, n, intensity))
    }

    /// Shared SOCS intensity accumulation:
    /// `scale · Σ_k μ_k |IFFT(H_k ⊙ spectrum)|²` on the full grid, from a
    /// band-grid mask spectrum.
    pub(crate) fn accumulate_intensity(
        &self,
        set: &KernelSet,
        spectrum: &[Complex],
        scale: f64,
    ) -> Result<Vec<f64>, LithoError> {
        let mut images = self.accumulate_intensity_multi(&[(set, scale)], spectrum)?;
        Ok(images.pop().unwrap_or_default())
    }

    /// Batched variant of [`LithoSimulator::accumulate_intensity`]: all
    /// corners' kernel applications share **one** flat parallel region
    /// on the band grid (see [`LithoSimulator::band_intensities`]); each
    /// stack's band image is then interpolated onto the full grid. At
    /// `band = size` the band images are the outputs themselves.
    ///
    /// When `kernel_energy_floor < 1.0` the tail of each (weight-sorted)
    /// stack is skipped per [`KernelSet::active_count`].
    pub(crate) fn accumulate_intensity_multi(
        &self,
        stacks: &[(&KernelSet, f64)],
        spectrum: &[Complex],
    ) -> Result<Vec<Vec<f64>>, LithoError> {
        let (n, b) = (self.config.size, self.band());
        let (n2, b2) = (n * n, b * b);
        if spectrum.len() != b2 {
            return Err(LithoError::BadParameter(format!(
                "spectrum has {} entries but the {b}x{b} band grid needs {b2}",
                spectrum.len(),
            )));
        }
        assert!(stacks.len() <= 3, "at most one stack per process corner");
        let images: Vec<Vec<f64>> = stacks.iter().map(|_| vec![0.0f64; n2]).collect();
        if b == n {
            return Ok(self.band_intensities(stacks, spectrum, images));
        }
        let mut band_images: [Vec<f64>; 3] = Default::default();
        for image in &mut band_images[..stacks.len()] {
            *image = self.band_reals.take_zeroed(b2);
        }
        let band_images = self.band_intensities(stacks, spectrum, band_images);
        let expanded = self.expand_images(&band_images[..stacks.len()], images);
        for image in band_images.into_iter().take(stacks.len()) {
            self.band_reals.put(image);
        }
        expanded
    }

    /// [`LithoSimulator::expand_from_band`] of each band image into its
    /// full-grid output.
    fn expand_images(
        &self,
        band_images: &[Vec<f64>],
        mut images: Vec<Vec<f64>>,
    ) -> Result<Vec<Vec<f64>>, LithoError> {
        for (band, image) in band_images.iter().zip(&mut images) {
            self.expand_from_band(band, image)?;
        }
        Ok(images)
    }

    /// Adds `scale_s · Σ_k μ_k |IFFT_b(H_k ⊙ band_spectrum)|²` into
    /// `images[s]` for every stack `s`, on the band grid.
    ///
    /// One **flat** parallel region spans every stack's kernels — each
    /// task runs its IFFT serially on its claimed thread (no nested
    /// regions to thrash the pool) in a pooled field buffer (no
    /// per-kernel allocations). Task `t` maps to (stack `s`, kernel `k`)
    /// in stack-major, kernel-ascending order, and partials merge through
    /// an ordered turnstile by the global task index, so each accumulator
    /// sees its kernels strictly in ascending `k`: the floating-point sum
    /// is **bit-identical** between serial (`CFAOPC_THREADS=1`) and
    /// parallel runs, and batching corners changes no bit. Claims are
    /// handed out in increasing `t`, so turnstile waits are short.
    fn band_intensities<A: AsMut<[Vec<f64>]> + Send>(
        &self,
        stacks: &[(&KernelSet, f64)],
        band_spectrum: &[Complex],
        images: A,
    ) -> A {
        let b2 = self.band() * self.band();
        let floor = self.config.kernel_energy_floor;
        // offsets[s] is the first global task of stack s (prefix sums).
        let mut offsets = [0usize; 4];
        for (s, (set, _)) in stacks.iter().enumerate() {
            debug_assert_eq!(set.band(), self.band(), "kernel set built for another band");
            offsets[s + 1] = offsets[s] + set.active_count(floor);
        }
        let total = offsets[stacks.len()];
        // (next task allowed to merge, per-stack accumulators) under one
        // lock.
        let merge = Mutex::new((0usize, images));
        let turnstile = Condvar::new();
        par_for(total, |t| {
            let s = offsets[1..=stacks.len()]
                .iter()
                .position(|&o| t < o)
                .unwrap_or(stacks.len() - 1);
            let (set, scale) = stacks[s];
            let k = t - offsets[s];
            // Catching here keeps a panicking kernel from wedging the
            // turnstile: the turn advances no matter how compute ends.
            let computed = catch_unwind(AssertUnwindSafe(|| {
                let mut field = self.band_fields.take(b2);
                set.apply(k, band_spectrum, &mut field);
                // Kernel spectra are band-limited to the pupil, so most
                // rows of the product are all-zero: the sparse inverse
                // skips them.
                self.band_plan
                    .inverse_serial_sparse(&mut field)
                    .expect("plan matches grid by construction");
                field
            }));
            let w = set.kernels()[k].weight * scale;
            let mut guard = merge.lock().unwrap_or_else(|e| e.into_inner());
            while guard.0 != t {
                guard = turnstile.wait(guard).unwrap_or_else(|e| e.into_inner());
            }
            if let Ok(field) = &computed {
                accumulate_norm_sqr(&mut guard.1.as_mut()[s], field, w);
            }
            guard.0 += 1;
            turnstile.notify_all();
            drop(guard);
            match computed {
                Ok(field) => self.band_fields.put(field),
                Err(payload) => resume_unwind(payload),
            }
        });
        let (_, images) = merge.into_inner().unwrap_or_else(|e| e.into_inner());
        images
    }

    /// Aerial image of a continuous mask at one corner.
    ///
    /// # Errors
    ///
    /// Returns [`LithoError::ShapeMismatch`] on shape mismatch.
    pub fn aerial_image(
        &self,
        mask: &Grid2D<f64>,
        corner: ProcessCorner,
    ) -> Result<Grid2D<f64>, LithoError> {
        let spectrum = self.mask_spectrum(mask)?;
        self.aerial_from_spectrum(&spectrum, corner)
    }

    /// Aerial images at all three corners, sharing one mask FFT and one
    /// batched parallel region across every corner's kernels.
    ///
    /// # Errors
    ///
    /// Returns [`LithoError::ShapeMismatch`] on shape mismatch.
    pub fn aerial_corners(&self, mask: &Grid2D<f64>) -> Result<CornerImages, LithoError> {
        let n = self.config.size;
        let b = self.band();
        let stacks = [
            (&self.nominal, self.config.dose(ProcessCorner::Nominal)),
            (&self.max, self.config.dose(ProcessCorner::Max)),
            (&self.min, self.config.dose(ProcessCorner::Min)),
        ];
        let mut spectrum = self.band_fields.take(b * b);
        let images = self
            .mask_spectrum_into(mask, &mut spectrum)
            .and_then(|()| self.accumulate_intensity_multi(&stacks, &spectrum));
        self.band_fields.put(spectrum);
        let mut images = images?;
        let min = Grid2D::from_vec(n, n, images.pop().unwrap_or_default());
        let max = Grid2D::from_vec(n, n, images.pop().unwrap_or_default());
        let nominal = Grid2D::from_vec(n, n, images.pop().unwrap_or_default());
        Ok(CornerImages { nominal, max, min })
    }

    /// Hard-threshold resist (paper Eq. 2): `Z = 1` where `I > I_th`.
    pub fn resist_binary(&self, aerial: &Grid2D<f64>) -> BitGrid {
        BitGrid::from_threshold(aerial, self.config.threshold)
    }

    /// Relaxed sigmoid resist used inside losses:
    /// `Z = 1 / (1 + e^{-θ_z (I - I_th)})`.
    pub fn resist_sigmoid(&self, aerial: &Grid2D<f64>) -> Grid2D<f64> {
        let th = self.config.threshold;
        let steep = self.config.resist_steepness;
        aerial.map(|&i| sigmoid_sat(steep * (i - th)))
    }

    /// Prints a binary mask at one corner: aerial image + hard resist.
    ///
    /// # Errors
    ///
    /// Returns [`LithoError::ShapeMismatch`] on shape mismatch.
    pub fn print(&self, mask: &BitGrid, corner: ProcessCorner) -> Result<BitGrid, LithoError> {
        let aerial = self.aerial_image(&mask.to_real(), corner)?;
        Ok(self.resist_binary(&aerial))
    }

    /// Prints a binary mask at all corners (one FFT of the mask).
    ///
    /// # Errors
    ///
    /// Returns [`LithoError::ShapeMismatch`] on shape mismatch.
    pub fn print_corners(&self, mask: &BitGrid) -> Result<[BitGrid; 3], LithoError> {
        let images = self.aerial_corners(&mask.to_real())?;
        Ok([
            self.resist_binary(&images.nominal),
            self.resist_binary(&images.max),
            self.resist_binary(&images.min),
        ])
    }
}

/// Numerically stable logistic function.
#[inline]
pub fn sigmoid(x: f64) -> f64 {
    if x >= 0.0 {
        1.0 / (1.0 + (-x).exp())
    } else {
        let e = x.exp();
        e / (1.0 + e)
    }
}

/// Saturation threshold for [`sigmoid_sat`].
///
/// For `x ≥ 37`, `e^{-x} < 2^{-53} = ulp(1.0)/2`, so `1.0 + e^{-x}`
/// rounds to exactly `1.0` and `sigmoid(x) == 1.0` bit-for-bit. 40 keeps
/// a safety margin over that bound while still short-circuiting the vast
/// majority of saturated resist pixels.
pub const SIGMOID_SAT: f64 = 40.0;

/// [`sigmoid`] with an exact saturation shortcut: for `x ≥`
/// [`SIGMOID_SAT`] the `exp` call is skipped and `1.0` returned directly,
/// which is bit-identical to evaluating the full expression (see the
/// constant's docs for the rounding argument). Steep resist models push
/// most in-feature pixels deep into saturation, so this removes the bulk
/// of the `exp` calls from the loss path.
#[inline]
pub fn sigmoid_sat(x: f64) -> f64 {
    if x >= SIGMOID_SAT {
        1.0
    } else {
        sigmoid(x)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use cfaopc_grid::{fill_rect, Rect};

    fn sim() -> LithoSimulator {
        LithoSimulator::new(LithoConfig::fast_test()).unwrap()
    }

    fn square_mask(n: usize, half: i32) -> BitGrid {
        let c = n as i32 / 2;
        let mut m = BitGrid::new(n, n);
        fill_rect(&mut m, Rect::new(c - half, c - half, c + half, c + half));
        m
    }

    #[test]
    fn wrong_length_spectrum_is_a_typed_error() {
        // Regression for the typed error path that replaced the old
        // `assert_eq!(spectrum.len(), n2)`: a spectrum computed on a
        // different grid must surface as `LithoError::BadParameter`, not
        // a panic.
        let s = sim();
        let short = vec![Complex::from_re(0.0); 7];
        let err = s
            .aerial_from_spectrum(&short, ProcessCorner::Nominal)
            .unwrap_err();
        assert!(matches!(err, LithoError::BadParameter(_)), "got {err:?}");
        let msg = err.to_string();
        assert!(
            msg.contains('7'),
            "message should name the bad length: {msg}"
        );
    }

    #[test]
    fn empty_mask_prints_nothing() {
        let s = sim();
        let n = s.size();
        let printed = s
            .print(&BitGrid::new(n, n), ProcessCorner::Nominal)
            .unwrap();
        assert!(printed.is_clear());
    }

    #[test]
    fn open_frame_prints_everywhere() {
        let s = sim();
        let n = s.size();
        let mut open = BitGrid::new(n, n);
        fill_rect(&mut open, Rect::new(0, 0, n as i32, n as i32));
        let aerial = s
            .aerial_image(&open.to_real(), ProcessCorner::Nominal)
            .unwrap();
        for &v in aerial.as_slice() {
            assert!((v - 1.0).abs() < 1e-9, "open frame intensity {v}");
        }
        assert_eq!(s.resist_binary(&aerial).count_ones(), n * n);
    }

    #[test]
    fn large_square_prints_smaller_blurred() {
        let s = sim();
        let n = s.size();
        // 64px grid @32nm/px (fast_test tile 2048): 24px square = 768nm.
        let mask = square_mask(n, 12);
        let printed = s.print(&mask, ProcessCorner::Nominal).unwrap();
        assert!(printed.count_ones() > 0, "large feature must print");
        // The aerial image is band-limited: intensity at center is high,
        // far corner is dark.
        let aerial = s
            .aerial_image(&mask.to_real(), ProcessCorner::Nominal)
            .unwrap();
        assert!(aerial[(n / 2, n / 2)] > 0.5);
        assert!(aerial[(2, 2)] < 0.1);
    }

    #[test]
    fn dose_corners_are_monotonic() {
        let s = sim();
        let mask = square_mask(s.size(), 12);
        let [nom, max, min] = s.print_corners(&mask).unwrap();
        // Same focus for Max; higher dose ⇒ superset of nominal print.
        for p in nom.ones() {
            assert!(max.at(p), "max-dose print must cover nominal at {p}");
        }
        assert!(max.count_ones() >= nom.count_ones());
        assert!(min.count_ones() <= nom.count_ones());
    }

    #[test]
    fn defocus_softens_the_image() {
        // Isolate defocus: set both doses to 1.0 and compare corner images.
        let cfg = LithoConfig {
            dose_max: 1.0,
            dose_min: 1.0,
            defocus_nm: 80.0,
            ..LithoConfig::fast_test()
        };
        let s = LithoSimulator::new(cfg).unwrap();
        let n = s.size();
        let mask = square_mask(n, 4);
        let images = s.aerial_corners(&mask.to_real()).unwrap();
        let peak_nom = images
            .nominal
            .as_slice()
            .iter()
            .cloned()
            .fold(0.0f64, f64::max);
        let peak_min = images.min.as_slice().iter().cloned().fold(0.0f64, f64::max);
        assert!(
            peak_min < peak_nom,
            "defocus must lower the peak: {peak_min} vs {peak_nom}"
        );
    }

    #[test]
    fn aerial_is_nonnegative_and_finite() {
        let s = sim();
        let mask = square_mask(s.size(), 6);
        let aerial = s.aerial_image(&mask.to_real(), ProcessCorner::Min).unwrap();
        for &v in aerial.as_slice() {
            assert!(v >= 0.0 && v.is_finite());
        }
    }

    #[test]
    fn shape_mismatch_is_reported() {
        let s = sim();
        let wrong = Grid2D::new(16, 16, 0.0);
        assert!(matches!(
            s.aerial_image(&wrong, ProcessCorner::Nominal),
            Err(LithoError::ShapeMismatch { .. })
        ));
    }

    #[test]
    fn sigmoid_resist_brackets_binary() {
        let s = sim();
        let mask = square_mask(s.size(), 10);
        let aerial = s
            .aerial_image(&mask.to_real(), ProcessCorner::Nominal)
            .unwrap();
        let soft = s.resist_sigmoid(&aerial);
        let hard = s.resist_binary(&aerial);
        for (p, &z) in soft.iter() {
            assert!((0.0..=1.0).contains(&z));
            if hard.at(p) {
                assert!(z > 0.5);
            } else {
                assert!(z <= 0.5 + 1e-12);
            }
        }
    }

    #[test]
    fn sigmoid_function_properties() {
        assert_eq!(sigmoid(0.0), 0.5);
        assert!(sigmoid(30.0) > 0.999);
        assert!(sigmoid(-30.0) < 0.001);
        assert!((sigmoid(-700.0)).is_finite());
        assert!((sigmoid(700.0) - 1.0).abs() < 1e-12);
    }

    #[test]
    fn sigmoid_sat_is_bit_identical_to_sigmoid() {
        // Sweep across the saturation boundary (including well past it):
        // the shortcut must never change a single bit.
        for i in 0..4000 {
            let x = f64::from(i).mul_add(0.05, -50.0);
            assert_eq!(sigmoid_sat(x).to_bits(), sigmoid(x).to_bits(), "x = {x}");
        }
        assert_eq!(sigmoid_sat(f64::INFINITY).to_bits(), 1.0f64.to_bits());
        assert_eq!(sigmoid_sat(SIGMOID_SAT).to_bits(), 1.0f64.to_bits());
    }

    #[test]
    fn batched_corners_match_per_corner_accumulation() {
        // aerial_corners routes through the batched multi-stack region;
        // aerial_from_spectrum through the single-stack path. They must
        // agree bit-for-bit.
        check_batched_against_per_corner(&sim());
    }

    #[test]
    fn batched_corners_match_per_corner_accumulation_on_the_band_grid() {
        // At 256² the mask spectrum is the 128² band one and every image
        // is interpolated back onto the full grid.
        let s = LithoSimulator::new(LithoConfig {
            size: 256,
            kernel_count: 4,
            ..LithoConfig::default()
        })
        .unwrap();
        assert!(s.band() < s.size(), "the band path must be active");
        let b = s.band();
        assert_eq!(
            s.mask_spectrum(&Grid2D::new(256, 256, 0.0)).unwrap().len(),
            b * b
        );
        check_batched_against_per_corner(&s);
    }

    fn check_batched_against_per_corner(s: &LithoSimulator) {
        let mask = square_mask(s.size(), 9).to_real();
        let batched = s.aerial_corners(&mask).unwrap();
        let spectrum = s.mask_spectrum(&mask).unwrap();
        for corner in [
            ProcessCorner::Nominal,
            ProcessCorner::Max,
            ProcessCorner::Min,
        ] {
            let single = s.aerial_from_spectrum(&spectrum, corner).unwrap();
            let both = single.as_slice().iter().zip(batched.get(corner).as_slice());
            for (a, b) in both {
                assert_eq!(a.to_bits(), b.to_bits());
            }
        }
    }

    #[test]
    fn translation_equivariance() {
        // Shifting the mask shifts the print (cyclically) — a property of
        // the FFT-based convolution model.
        let s = sim();
        let n = s.size();
        let mask = square_mask(n, 6);
        let printed = s.print(&mask, ProcessCorner::Nominal).unwrap();
        let mut shifted = BitGrid::new(n, n);
        for p in mask.ones() {
            shifted.set(((p.x as usize) + 8) % n, p.y as usize, true);
        }
        let printed_shifted = s.print(&shifted, ProcessCorner::Nominal).unwrap();
        assert_eq!(printed.count_ones(), printed_shifted.count_ones());
        for p in printed.ones() {
            assert!(printed_shifted.get(((p.x as usize) + 8) % n, p.y as usize));
        }
    }
}
