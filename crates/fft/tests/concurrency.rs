//! Worker-pool concurrency guarantees.
//!
//! A single umbrella test pins `CFAOPC_THREADS=4` before the pool
//! configuration is first consulted, so a real 4-worker pool is
//! exercised even on single-core CI machines, then checks every
//! guarantee sequentially in that known configuration. (Separate
//! `#[test]`s would race on the process-wide pool setup.)

use cfaopc_fft::parallel::{par_for, pool_thread_count, with_worker_limit, worker_count};
use cfaopc_fft::{Complex, Fft2d, Rfft2d};
use std::sync::atomic::{AtomicUsize, Ordering};

const N: usize = 64;

fn test_signal() -> Vec<Complex> {
    (0..N * N)
        .map(|i| {
            let x = i as f64;
            Complex::new(
                (x * 0.37).sin() + 0.25 * (x * 0.011).cos(),
                (x * 0.73).cos(),
            )
        })
        .collect()
}

fn bits(v: &[Complex]) -> Vec<(u64, u64)> {
    v.iter().map(|z| (z.re.to_bits(), z.im.to_bits())).collect()
}

#[test]
fn pool_guarantees_with_forced_four_workers() {
    // Must run before anything touches the pool in this process.
    std::env::set_var("CFAOPC_THREADS", "4");
    assert_eq!(worker_count(), 4, "CFAOPC_THREADS must win at pool setup");

    serial_and_parallel_transforms_are_bit_identical();
    rfft_transforms_are_worker_count_invariant();
    band_transforms_are_worker_count_invariant();
    steady_state_spawns_no_new_threads();
    panics_cross_the_pool_boundary();
}

fn rfft_transforms_are_worker_count_invariant() {
    // Every parallel region in `Rfft2d` writes disjoint chunks whose
    // contents do not depend on scheduling, so any worker limit must
    // reproduce the full pool's bits — including the serial limit of 1.
    let rplan = Rfft2d::square(N).unwrap();
    let plan = Fft2d::square(N).unwrap();
    let reals: Vec<f64> = (0..N * N)
        .map(|i| {
            let x = i as f64;
            (x * 0.29).sin() + 0.4 * (x * 0.017).cos()
        })
        .collect();

    let mut full = vec![Complex::ZERO; N * N];
    rplan.forward_into(&reals, &mut full).unwrap();
    for limit in 1..=4usize {
        let mut limited = vec![Complex::ZERO; N * N];
        with_worker_limit(limit, || rplan.forward_into(&reals, &mut limited).unwrap());
        assert_eq!(
            bits(&full),
            bits(&limited),
            "Rfft2d::forward_into depends on worker limit {limit}"
        );
    }

    let mut re_full = vec![0.0f64; N * N];
    rplan.forward_re_into(&full, &mut re_full).unwrap();
    for limit in 1..=4usize {
        let mut re_limited = vec![0.0f64; N * N];
        with_worker_limit(limit, || {
            rplan.forward_re_into(&full, &mut re_limited).unwrap()
        });
        let a: Vec<u64> = re_full.iter().map(|v| v.to_bits()).collect();
        let b: Vec<u64> = re_limited.iter().map(|v| v.to_bits()).collect();
        assert_eq!(
            a, b,
            "Rfft2d::forward_re_into depends on worker limit {limit}"
        );
    }

    // And the half plan agrees with the full complex plan up to a few
    // ulps of per-stage reassociation.
    let mut want: Vec<Complex> = reals.iter().map(|&r| Complex::from_re(r)).collect();
    plan.forward(&mut want).unwrap();
    let peak = want.iter().map(|z| z.abs()).fold(1.0f64, f64::max);
    let tol = peak * f64::EPSILON * 8.0 * ((N * N) as f64).log2();
    for (a, b) in full.iter().zip(&want) {
        assert!((*a - *b).abs() <= tol, "{a:?} vs {b:?} (tol {tol})");
    }
}

fn band_transforms_are_worker_count_invariant() {
    // The band-pruned pair partitions its passes the same way, so the
    // bits may not depend on the worker limit either.
    const B: usize = 16;
    let rplan = Rfft2d::square(N).unwrap();
    let reals: Vec<f64> = (0..N * N).map(|i| (i as f64 * 0.23).cos()).collect();
    let scale = |z: Complex| z.conj() * 0.5;
    let mut bands = Vec::new();
    let mut images = Vec::new();
    for limit in [1usize, 2, 4] {
        let mut band = vec![Complex::ZERO; B * B];
        let mut image = vec![0.0f64; N * N];
        with_worker_limit(limit, || {
            rplan
                .forward_band_into(&reals, B, &mut band, scale)
                .unwrap();
            rplan
                .forward_re_from_band(&band, B, &mut image, scale)
                .unwrap();
        });
        bands.push(bits(&band));
        images.push(image.iter().map(|v| v.to_bits()).collect::<Vec<u64>>());
    }
    for i in 1..3 {
        assert_eq!(
            bands[0], bands[i],
            "forward_band_into depends on the worker limit"
        );
        assert_eq!(
            images[0], images[i],
            "forward_re_from_band depends on the worker limit"
        );
    }
}

fn serial_and_parallel_transforms_are_bit_identical() {
    let plan = Fft2d::square(N).unwrap();
    let signal = test_signal();

    let mut parallel_fwd = signal.clone();
    plan.forward(&mut parallel_fwd).unwrap();
    let mut serial_fwd = signal.clone();
    plan.forward_serial(&mut serial_fwd).unwrap();
    assert_eq!(
        bits(&parallel_fwd),
        bits(&serial_fwd),
        "forward: pool vs forward_serial"
    );

    // A worker limit of 1 must reproduce the same bits through the
    // public parallel entry points.
    let mut limited_fwd = signal.clone();
    with_worker_limit(1, || plan.forward(&mut limited_fwd).unwrap());
    assert_eq!(
        bits(&parallel_fwd),
        bits(&limited_fwd),
        "forward: pool vs worker_limit(1)"
    );

    let mut parallel_inv = parallel_fwd.clone();
    plan.inverse(&mut parallel_inv).unwrap();
    let mut serial_inv = parallel_fwd.clone();
    plan.inverse_serial(&mut serial_inv).unwrap();
    assert_eq!(
        bits(&parallel_inv),
        bits(&serial_inv),
        "inverse: pool vs inverse_serial"
    );
    let mut limited_inv = parallel_fwd.clone();
    with_worker_limit(1, || plan.inverse(&mut limited_inv).unwrap());
    assert_eq!(
        bits(&parallel_inv),
        bits(&limited_inv),
        "inverse: pool vs worker_limit(1)"
    );
}

/// Current thread count of this process, from `/proc/self/status`.
#[cfg(target_os = "linux")]
fn process_thread_count() -> usize {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|s| {
            s.lines()
                .find_map(|l| l.strip_prefix("Threads:"))
                .and_then(|v| v.trim().parse().ok())
        })
        .expect("parsing /proc/self/status")
}

fn steady_state_spawns_no_new_threads() {
    let plan = Fft2d::square(N).unwrap();
    let mut buf = test_signal();
    // First parallel region: the pool is created here (lazily).
    plan.forward(&mut buf).unwrap();
    assert_eq!(
        pool_thread_count(),
        worker_count() - 1,
        "pool spawns workers minus the participating caller"
    );

    #[cfg(target_os = "linux")]
    let os_threads_before = process_thread_count();
    for _ in 0..20 {
        plan.forward(&mut buf).unwrap();
        plan.inverse(&mut buf).unwrap();
    }
    assert_eq!(
        pool_thread_count(),
        worker_count() - 1,
        "steady-state transforms must reuse the pool"
    );
    #[cfg(target_os = "linux")]
    assert_eq!(
        process_thread_count(),
        os_threads_before,
        "steady-state transforms must not change the process thread count"
    );
}

fn panics_cross_the_pool_boundary() {
    let result = std::panic::catch_unwind(|| {
        par_for(256, |i| {
            if i == 200 {
                panic!("worker panic escapes");
            }
        });
    });
    assert!(
        result.is_err(),
        "a panic on a pool worker must reach the caller"
    );

    // Every index of a fresh region still runs: the pool fully recovered.
    let hits = AtomicUsize::new(0);
    par_for(256, |_| {
        hits.fetch_add(1, Ordering::Relaxed);
    });
    assert_eq!(hits.load(Ordering::Relaxed), 256);
}
