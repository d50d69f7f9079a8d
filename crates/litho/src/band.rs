//! Moving spectra between the simulator grid and the optics' band grid.
//!
//! A `b × b` band grid holds the frequencies `[-b/2, b/2)` per axis of an
//! `n × n` grid (`b ≤ n`, both powers of two). Band bin `k` is signed
//! frequency `k` for `k < b/2` and `k − b` otherwise, which lives at grid
//! bin `k` or `k + n − b` respectively.

use cfaopc_fft::Complex;

/// Grid bin of band bin `k` along one axis.
#[inline]
fn grid_bin(k: usize, b: usize, n: usize) -> usize {
    if k < b / 2 {
        k
    } else {
        k + n - b
    }
}

/// Writes `f(src[·])` of the `[-b/2, b/2)` band of the `n × n` spectrum
/// `src` into the `b × b` spectrum `dst`.
pub(crate) fn crop(
    src: &[Complex],
    n: usize,
    dst: &mut [Complex],
    b: usize,
    f: impl Fn(Complex) -> Complex,
) {
    debug_assert!(b <= n && src.len() == n * n && dst.len() == b * b);
    let h = b / 2;
    for (ky, row) in dst.chunks_exact_mut(b).enumerate() {
        let from = &src[grid_bin(ky, b, n) * n..][..n];
        for (slot, &z) in row[..h].iter_mut().zip(&from[..h]) {
            *slot = f(z);
        }
        for (slot, &z) in row[h..].iter_mut().zip(&from[n - h..]) {
            *slot = f(z);
        }
    }
}

/// Writes `f(src[·])` of the `b × b` spectrum `src` into the `[-b/2, b/2)`
/// band of the `n × n` spectrum `dst` and zeroes every other bin.
pub(crate) fn pad(
    src: &[Complex],
    b: usize,
    dst: &mut [Complex],
    n: usize,
    f: impl Fn(Complex) -> Complex,
) {
    debug_assert!(b <= n && src.len() == b * b && dst.len() == n * n);
    dst.fill(Complex::ZERO);
    let h = b / 2;
    for (ky, row) in src.chunks_exact(b).enumerate() {
        let to = &mut dst[grid_bin(ky, b, n) * n..][..n];
        for (slot, &z) in to[..h].iter_mut().zip(&row[..h]) {
            *slot = f(z);
        }
        for (slot, &z) in to[n - h..].iter_mut().zip(&row[h..]) {
            *slot = f(z);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use cfaopc_fft::signed_freq;

    #[test]
    fn crop_keeps_the_signed_band_and_pad_inverts_it() {
        let (n, b) = (16usize, 4usize);
        // Tag every grid bin with its signed frequency pair.
        let tag = |ky: usize, kx: usize, m: usize| {
            Complex::new(signed_freq(ky, m) as f64, signed_freq(kx, m) as f64)
        };
        let src: Vec<Complex> = (0..n * n).map(|i| tag(i / n, i % n, n)).collect();
        let mut band = vec![Complex::ZERO; b * b];
        crop(&src, n, &mut band, b, |z| z);
        for (i, &z) in band.iter().enumerate() {
            assert_eq!(z, tag(i / b, i % b, b), "band bin {i}");
        }
        let mut back = vec![Complex::new(7.0, 7.0); n * n];
        pad(&band, b, &mut back, n, |z| z);
        for (i, &z) in back.iter().enumerate() {
            let (fy, fx) = (signed_freq(i / n, n), signed_freq(i % n, n));
            let inside = (-2..2).contains(&fy) && (-2..2).contains(&fx);
            assert_eq!(
                z,
                if inside { src[i] } else { Complex::ZERO },
                "grid bin {i}"
            );
        }
    }

    #[test]
    fn equal_grids_are_identities() {
        let n = 8;
        let src: Vec<Complex> = (0..n * n)
            .map(|i| Complex::new(i as f64, -(i as f64)))
            .collect();
        let mut out = vec![Complex::ZERO; n * n];
        crop(&src, n, &mut out, n, |z| z);
        assert_eq!(out, src);
        pad(&src, n, &mut out, n, |z| z);
        assert_eq!(out, src);
    }
}
