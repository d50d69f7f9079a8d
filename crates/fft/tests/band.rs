//! The band-pruned transforms against the full-grid ones.
//!
//! `forward_band_into` must equal cropping `forward_into`'s spectrum, and
//! `forward_re_from_band` must equal `forward_re_into` of the zero-padded
//! band, compared with `==`: the pruned transforms skip only work whose
//! result is discarded or zero. `crop` and `pad` below are the explicit
//! full-spectrum moves the pruned transforms replace.

use cfaopc_fft::{signed_freq, Complex, FftError, Rfft2d};

const SHAPES: [(usize, usize); 6] = [(8, 4), (16, 4), (64, 16), (256, 128), (512, 128), (64, 64)];

/// Grid bin of band bin `k` along one axis.
fn grid_bin(k: usize, b: usize, n: usize) -> usize {
    if k < b / 2 {
        k
    } else {
        k + n - b
    }
}

/// Writes `f(src[·])` of the `[-b/2, b/2)` band of the `n × n` spectrum
/// `src` into the `b × b` spectrum `dst`.
fn crop(src: &[Complex], n: usize, dst: &mut [Complex], b: usize, f: impl Fn(Complex) -> Complex) {
    assert!(b <= n && src.len() == n * n && dst.len() == b * b);
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
fn pad(src: &[Complex], b: usize, dst: &mut [Complex], n: usize, f: impl Fn(Complex) -> Complex) {
    assert!(b <= n && src.len() == b * b && dst.len() == n * n);
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

fn real_field(n: usize) -> Vec<f64> {
    (0..n * n)
        .map(|i| (i as f64 * 0.13).sin() * 0.8 + (i as f64 * 0.029).cos() * 0.3 - 0.1)
        .collect()
}

fn band_spectrum(b: usize) -> Vec<Complex> {
    (0..b * b)
        .map(|i| Complex::new((i as f64 * 0.17).sin(), (i as f64 * 0.07).cos() - 0.2))
        .collect()
}

/// The scaled conjugate the simulator applies on its way between grids.
fn conj_scaled(z: Complex) -> Complex {
    z.conj() * 0.375
}

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
fn forward_band_equals_the_cropped_full_spectrum() {
    for (n, b) in SHAPES {
        let src = real_field(n);
        let rplan = Rfft2d::square(n).unwrap();
        let mut full = vec![Complex::ZERO; n * n];
        rplan.forward_into(&src, &mut full).unwrap();
        let mut want = vec![Complex::ZERO; b * b];
        crop(&full, n, &mut want, b, conj_scaled);
        let mut got = vec![Complex::new(9.0, 9.0); b * b];
        rplan
            .forward_band_into(&src, b, &mut got, conj_scaled)
            .unwrap();
        assert!(
            got == want,
            "({n}, {b}): band spectrum differs from the crop"
        );
    }
}

#[test]
fn forward_re_from_band_equals_the_padded_transform() {
    for (n, b) in SHAPES {
        let band = band_spectrum(b);
        let rplan = Rfft2d::square(n).unwrap();
        let mut padded = vec![Complex::ZERO; n * n];
        pad(&band, b, &mut padded, n, conj_scaled);
        let mut want = vec![0.0f64; n * n];
        rplan.forward_re_into(&padded, &mut want).unwrap();
        let mut got = vec![9.0f64; n * n];
        rplan
            .forward_re_from_band(&band, b, &mut got, conj_scaled)
            .unwrap();
        assert!(
            got == want,
            "({n}, {b}): Re[FFT] differs from the padded one"
        );
    }
}

#[test]
fn bad_bands_and_lengths_are_typed_errors() {
    let rplan = Rfft2d::square(16).unwrap();
    let src = real_field(16);
    let mut out = vec![Complex::ZERO; 64];
    let mut re = vec![0.0f64; 256];
    let id = |z: Complex| z;

    let too_large = FftError::BandTooLarge {
        band: 32,
        height: 16,
        width: 16,
    };
    let mut big = vec![Complex::ZERO; 32 * 32];
    assert_eq!(
        rplan.forward_band_into(&src, 32, &mut big, id),
        Err(too_large.clone())
    );
    assert_eq!(
        rplan.forward_re_from_band(&big, 32, &mut re, id),
        Err(too_large)
    );

    for b in [0, 6, 12] {
        let mut band = vec![Complex::ZERO; b * b];
        assert_eq!(
            rplan.forward_band_into(&src, b, &mut band, id),
            Err(FftError::LengthNotPowerOfTwo(b))
        );
        assert_eq!(
            rplan.forward_re_from_band(&band, b, &mut re, id),
            Err(FftError::LengthNotPowerOfTwo(b))
        );
    }

    let mismatch = |expected, actual| Err(FftError::LengthMismatch { expected, actual });
    assert_eq!(
        rplan.forward_band_into(&src[..255], 8, &mut out, id),
        mismatch(256, 255)
    );
    assert_eq!(
        rplan.forward_band_into(&src, 8, &mut out[..63], id),
        mismatch(64, 63)
    );
    assert_eq!(
        rplan.forward_re_from_band(&out[..63], 8, &mut re, id),
        mismatch(64, 63)
    );
    assert_eq!(
        rplan.forward_re_from_band(&out, 8, &mut re[..255], id),
        mismatch(256, 255)
    );
}

#[test]
fn one_bin_band_is_the_dc_term() {
    let n = 8;
    let src = real_field(n);
    let rplan = Rfft2d::square(n).unwrap();
    let mut full = vec![Complex::ZERO; n * n];
    rplan.forward_into(&src, &mut full).unwrap();
    let mut dc = [Complex::ZERO];
    rplan.forward_band_into(&src, 1, &mut dc, |z| z).unwrap();
    assert_eq!(dc[0], full[0]);

    let mut re = vec![0.0f64; n * n];
    rplan
        .forward_re_from_band(&[Complex::new(2.0, 5.0)], 1, &mut re, |z| z)
        .unwrap();
    assert!(
        re.iter().all(|&v| v == 2.0),
        "a DC band is a constant field"
    );
}
