//! CircleOpt inner-loop benchmarks: the tiled parallel composition
//! engine against its retained serial reference, plus a full CircleOpt
//! iteration (compose → litho gradient → backward → Adam step) in both
//! the pooled steady-state form and the allocating serial form. Run with
//! `cargo bench -p cfaopc-bench --bench circleopt`.
//!
//! Grid/shot sizes follow the tentpole acceptance matrix: 512² and 1024²
//! with 100 and 1000 circles. The fused compose+backward path is timed
//! as its own case pair (`fused_serial_*` / `fused_engine_*`) — a single
//! closure running forward then backward — rather than summing the
//! medians of separately timed phases, which fabricates a ratio no run
//! ever achieved. Results are written as a JSON snapshot (default
//! `BENCH_circleopt.json`, override with `CFAOPC_BENCH_CIRCLEOPT_OUT`)
//! including serial-vs-engine speedup ratios computed from both medians
//! (`speedup`) and minima (`speedup_min`, the statistic the CI gate
//! compares), and the measured heap behaviour of a steady-state
//! iteration (net bytes — expected 0 — and transient allocation count),
//! via a counting global allocator local to this binary. Cases whose
//! first-pass median lands under 20 ms are re-sampled up to 15
//! iterations so the median and min stop disagreeing by scheduler noise.
//!
//! The full-iteration cases need a lithography simulator; 512² runs by
//! default, the 1024² variant is opt-in via `CFAOPC_BENCH_FULL=1` to
//! keep CI smoke runs fast. Because the serial/pooled iteration pair
//! differs by only a few percent of a multi-hundred-ms run, its samples
//! are interleaved (A, B, A, B, …) instead of block-sequential so that
//! machine-state drift cannot masquerade as a speedup or regression.
//!
//! After timing, a short tracing-enabled CircleOpt run emits a JSONL
//! telemetry artifact (per-iteration records, counters, span tree) next
//! to the perf snapshot: default `BENCH_circleopt_telemetry.jsonl`,
//! override with `CFAOPC_BENCH_CIRCLEOPT_TRACE_OUT`. The timed cases run
//! with tracing disabled, so the medians measure the untraced hot path.

use cfaopc_core::{
    compose_serial, run_circleopt, CircleOptConfig, CircleParams, ComposeConfig, ComposeWorkspace,
    RunOptions, SparseCircles,
};
use cfaopc_fft::parallel::{pool_thread_count, worker_count};
use cfaopc_grid::{fill_rect, BitGrid, Grid2D, Rect};
use cfaopc_ilt::{Optimizer, OptimizerKind};
use cfaopc_litho::{
    loss_and_gradient, loss_and_gradient_into, LithoConfig, LithoSimulator, LossWeights,
};
use std::alloc::{GlobalAlloc, Layout, System};
use std::hint::black_box;
use std::sync::atomic::{AtomicIsize, AtomicUsize, Ordering};
use std::time::Instant;

const WARMUP_ITERS: usize = 2;
const TIMED_ITERS: usize = 7;
/// Extra samples for fast cases: anything whose first-pass median is
/// under [`FAST_CASE_NS`] is noisy at 5 samples, so the harness tops the
/// sample set up to this many iterations before computing statistics.
const TIMED_ITERS_FAST: usize = 15;
const FAST_CASE_NS: u128 = 20_000_000; // 20 ms

// --- allocation accounting -------------------------------------------------

struct CountingAlloc;

static NET_BYTES: AtomicIsize = AtomicIsize::new(0);
static ALLOC_CALLS: AtomicUsize = AtomicUsize::new(0);

// SAFETY: pure pass-through to `System` plus relaxed counters; the
// counters have no effect on the allocator contract.
unsafe impl GlobalAlloc for CountingAlloc {
    // SAFETY: forwards `layout` unchanged to `System.alloc`.
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        NET_BYTES.fetch_add(layout.size() as isize, Ordering::SeqCst);
        ALLOC_CALLS.fetch_add(1, Ordering::SeqCst);
        System.alloc(layout)
    }

    // SAFETY: forwards `layout` unchanged to `System.alloc_zeroed`.
    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        NET_BYTES.fetch_add(layout.size() as isize, Ordering::SeqCst);
        ALLOC_CALLS.fetch_add(1, Ordering::SeqCst);
        System.alloc_zeroed(layout)
    }

    // SAFETY: forwards the pointer/layout pair it was handed to
    // `System.dealloc` without modification.
    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        NET_BYTES.fetch_sub(layout.size() as isize, Ordering::SeqCst);
        System.dealloc(ptr, layout)
    }

    // SAFETY: forwards all arguments unchanged to `System.realloc`.
    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        NET_BYTES.fetch_add(new_size as isize - layout.size() as isize, Ordering::SeqCst);
        ALLOC_CALLS.fetch_add(1, Ordering::SeqCst);
        System.realloc(ptr, layout, new_size)
    }
}

#[global_allocator]
static ALLOC: CountingAlloc = CountingAlloc;

// --- harness ---------------------------------------------------------------

struct CaseResult {
    name: String,
    iters: usize,
    min_ns: u128,
    median_ns: u128,
    mean_ns: u128,
}

fn run_case<F: FnMut()>(name: String, mut f: F) -> CaseResult {
    for _ in 0..WARMUP_ITERS {
        f();
    }
    let mut samples: Vec<u128> = Vec::with_capacity(TIMED_ITERS_FAST);
    for _ in 0..TIMED_ITERS {
        let t0 = Instant::now();
        f();
        samples.push(t0.elapsed().as_nanos());
    }
    samples.sort_unstable();
    // Sub-20 ms cases are noisy at 5 samples — and the CI gate compares
    // `min_ns` while the table is median-based, so noise can make the
    // two disagree. Top fast cases up with extra samples.
    if samples[samples.len() / 2] < FAST_CASE_NS {
        for _ in TIMED_ITERS..TIMED_ITERS_FAST {
            let t0 = Instant::now();
            f();
            samples.push(t0.elapsed().as_nanos());
        }
    }
    finish_case(name, samples)
}

fn finish_case(name: String, mut samples: Vec<u128>) -> CaseResult {
    samples.sort_unstable();
    let min_ns = samples[0];
    let median_ns = samples[samples.len() / 2];
    let mean_ns = samples.iter().sum::<u128>() / samples.len() as u128;
    println!(
        "{:<40} min {:>12.3} ms   median {:>12.3} ms   mean {:>12.3} ms   ({} iters)",
        name,
        min_ns as f64 / 1e6,
        median_ns as f64 / 1e6,
        mean_ns as f64 / 1e6,
        samples.len(),
    );
    CaseResult {
        name,
        iters: samples.len(),
        min_ns,
        median_ns,
        mean_ns,
    }
}

/// Times two closures with **interleaved** samples (A, B, A, B, …) so
/// slow machine-state drift — frequency scaling, a noisy co-tenant —
/// lands on both sides of the comparison instead of biasing whichever
/// case happened to run during the bad window. Used for the long
/// full-iteration pairs, where the compared difference is a few percent
/// of a multi-hundred-ms run and block-sequential timing lets drift
/// masquerade as a speedup or a regression.
fn run_interleaved_pair<FA: FnMut(), FB: FnMut()>(
    name_a: String,
    mut fa: FA,
    name_b: String,
    mut fb: FB,
) -> (CaseResult, CaseResult) {
    for _ in 0..WARMUP_ITERS {
        fa();
        fb();
    }
    let mut sa: Vec<u128> = Vec::with_capacity(TIMED_ITERS_FAST);
    let mut sb: Vec<u128> = Vec::with_capacity(TIMED_ITERS_FAST);
    for _ in 0..TIMED_ITERS_FAST {
        let t0 = Instant::now();
        fa();
        sa.push(t0.elapsed().as_nanos());
        let t0 = Instant::now();
        fb();
        sb.push(t0.elapsed().as_nanos());
    }
    (finish_case(name_a, sa), finish_case(name_b, sb))
}

struct Speedup {
    case: String,
    serial_ns: u128,
    tiled_ns: u128,
    serial_min_ns: u128,
    tiled_min_ns: u128,
}

/// A speedup row derived from two *measured* cases — medians for the
/// human-facing table, minimums for the CI gate's noise-resistant view.
fn speedup_of(case: String, serial: &CaseResult, tiled: &CaseResult) -> Speedup {
    Speedup {
        case,
        serial_ns: serial.median_ns,
        tiled_ns: tiled.median_ns,
        serial_min_ns: serial.min_ns,
        tiled_min_ns: tiled.min_ns,
    }
}

fn json_escape(s: &str) -> String {
    s.replace('\\', "\\\\").replace('"', "\\\"")
}

// --- deterministic workloads ----------------------------------------------

/// Low-discrepancy circle placement over the grid: fractional parts of
/// multiples of irrational constants, radii cycling 4..16 px, with a few
/// activations below the q-floor so pruning is part of the workload.
fn make_circles(n: usize, count: usize) -> SparseCircles {
    const PHI: f64 = 0.618_033_988_749_894_9;
    const PSI: f64 = 0.754_877_666_246_692_7;
    let span = n as f64 - 16.0;
    SparseCircles {
        circles: (0..count)
            .map(|i| {
                let x = 8.0 + ((i as f64 * PHI) % 1.0) * span;
                let y = 8.0 + ((i as f64 * PSI) % 1.0) * span;
                let r = 4.0 + ((i * 7) % 13) as f64;
                let q = match i % 7 {
                    0 => -0.3,
                    1 => 0.4,
                    _ => 1.0,
                };
                CircleParams { x, y, r, q }
            })
            .collect(),
    }
}

fn compose_cfg(n: usize) -> ComposeConfig {
    ComposeConfig::new(n, 2, 20)
}

fn main() {
    let mut results: Vec<CaseResult> = Vec::new();
    let mut speedups: Vec<Speedup> = Vec::new();
    println!(
        "cfaopc circleopt benchmarks: {} workers ({} pool threads)\n",
        worker_count(),
        pool_thread_count(),
    );

    // Compose + backward: serial reference vs tiled parallel engine.
    for &(n, count) in &[(512usize, 100usize), (512, 1000), (1024, 100), (1024, 1000)] {
        let sparse = make_circles(n, count);
        let cfg = compose_cfg(n);
        let grad = Grid2D::new(n, n, 0.01);

        let serial_compose = run_case(format!("compose_serial_{n}_{count}c"), || {
            black_box(compose_serial(&sparse, &cfg));
        });
        let mut ws = ComposeWorkspace::new();
        let tiled_compose = run_case(format!("compose_tiled_{n}_{count}c"), || {
            ws.compose(&sparse, &cfg);
            black_box(ws.mask());
        });
        speedups.push(speedup_of(
            format!("compose_{n}_{count}c"),
            &serial_compose,
            &tiled_compose,
        ));

        let composite = compose_serial(&sparse, &cfg);
        let serial_backward = run_case(format!("backward_serial_{n}_{count}c"), || {
            black_box(composite.backward_serial(&grad));
        });
        let mut grads = Vec::new();
        let tiled_backward = run_case(format!("backward_fused_{n}_{count}c"), || {
            ws.backward_into(&grad, &mut grads);
            black_box(grads.len());
        });
        speedups.push(speedup_of(
            format!("backward_{n}_{count}c"),
            &serial_backward,
            &tiled_backward,
        ));

        // The acceptance metric: compose + backward as one *timed* run
        // each — summing the medians of the two separately timed phases
        // misstates the pipeline cost (cache-warm effects), so the fused
        // cases below are measured end to end.
        let fused_serial = run_case(format!("fused_serial_{n}_{count}c"), || {
            let composite = compose_serial(&sparse, &cfg);
            black_box(composite.backward_serial(&grad));
        });
        let fused_engine = run_case(format!("fused_engine_{n}_{count}c"), || {
            ws.compose(&sparse, &cfg);
            ws.backward_into(&grad, &mut grads);
            black_box(grads.len());
        });
        speedups.push(speedup_of(
            format!("compose+backward_{n}_{count}c"),
            &fused_serial,
            &fused_engine,
        ));
        results.extend([
            serial_compose,
            tiled_compose,
            serial_backward,
            tiled_backward,
            fused_serial,
            fused_engine,
        ]);
    }

    // Full CircleOpt iterations: allocating serial form vs pooled
    // steady-state form, plus the steady-state allocation profile.
    let full_sizes: &[usize] = if std::env::var("CFAOPC_BENCH_FULL").is_ok_and(|v| v == "1") {
        &[512, 1024]
    } else {
        &[512]
    };
    let mut steady_net_bytes: Option<isize> = None;
    let mut steady_allocs: Option<usize> = None;
    for &n in full_sizes {
        // 1000 circles at 512² (scaled with grid edge): the tentpole's
        // acceptance workload, where composition is a meaningful slice
        // of the iteration rather than measurement noise.
        let count = 1000 * n / 512;
        let sim = LithoSimulator::new(LithoConfig {
            size: n,
            kernel_count: 4,
            ..LithoConfig::default()
        })
        .unwrap();
        let mut target = BitGrid::new(n, n);
        let c = n as i32 / 2;
        fill_rect(&mut target, Rect::new(c - 40, c - 120, c + 40, c + 120));
        let target_real = target.to_real();
        let weights = LossWeights::default();
        let cfg = compose_cfg(n);
        let sparse = make_circles(n, count);
        let gamma = 3.0;

        // Serial/allocating: fresh compose, allocating gradient call,
        // allocating backward.
        let mut flat_s = sparse.to_flat();
        let mut optimizer_s = Optimizer::new(OptimizerKind::adam(0.1), flat_s.len());
        let mut circles_s = sparse.clone();

        // Pooled steady state: reused workspace and buffers throughout —
        // the exact shape of `run_circleopt`'s stage-2 loop.
        let mut flat = sparse.to_flat();
        let mut optimizer = Optimizer::new(OptimizerKind::adam(0.1), flat.len());
        let mut circles = sparse.clone();
        let mut ws = ComposeWorkspace::new();
        let mut grad_mask = Grid2D::new(n, n, 0.0);
        let mut grads: Vec<f64> = Vec::new();
        let mut pooled_iteration =
            |flat: &mut Vec<f64>, circles: &mut SparseCircles, optimizer: &mut Optimizer| {
                circles.set_from_flat(flat);
                ws.compose(circles, &cfg);
                let _loss =
                    loss_and_gradient_into(&sim, ws.mask(), &target_real, weights, &mut grad_mask)
                        .unwrap();
                ws.backward_into(&grad_mask, &mut grads);
                for (i, p) in circles.circles.iter().enumerate() {
                    grads[4 * i + 3] += gamma * p.q.signum() * if p.q == 0.0 { 0.0 } else { 1.0 };
                }
                optimizer.step(flat, &grads);
            };

        // The two variants differ by a few percent of a multi-hundred-ms
        // iteration, so they are sampled interleaved (see
        // `run_interleaved_pair`) rather than block-sequentially.
        let (serial, pooled) = run_interleaved_pair(
            format!("iteration_serial_{n}_{count}c"),
            || {
                circles_s.set_from_flat(&flat_s);
                let composite = compose_serial(&circles_s, &cfg);
                let (_loss, grad_mask) =
                    loss_and_gradient(&sim, &composite.mask, &target_real, weights).unwrap();
                let mut grads = composite.backward_serial(&grad_mask);
                for (i, p) in circles_s.circles.iter().enumerate() {
                    grads[4 * i + 3] += gamma * p.q.signum() * if p.q == 0.0 { 0.0 } else { 1.0 };
                }
                optimizer_s.step(&mut flat_s, &grads);
                black_box(&flat_s);
            },
            format!("iteration_pooled_{n}_{count}c"),
            || {
                pooled_iteration(&mut flat, &mut circles, &mut optimizer);
                black_box(&flat);
            },
        );

        // Allocation profile of one steady-state iteration (the harness
        // above already warmed everything up).
        if n == 512 {
            let bytes0 = NET_BYTES.load(Ordering::SeqCst);
            let calls0 = ALLOC_CALLS.load(Ordering::SeqCst);
            pooled_iteration(&mut flat, &mut circles, &mut optimizer);
            steady_net_bytes = Some(NET_BYTES.load(Ordering::SeqCst) - bytes0);
            steady_allocs = Some(ALLOC_CALLS.load(Ordering::SeqCst) - calls0);
            println!(
                "steady-state iteration allocations: net {} bytes, {} transient alloc calls",
                steady_net_bytes.unwrap(),
                steady_allocs.unwrap()
            );
        }

        speedups.push(speedup_of(
            format!("iteration_{n}_{count}c"),
            &serial,
            &pooled,
        ));
        results.extend([serial, pooled]);
    }

    // Snapshot.
    let path = std::env::var("CFAOPC_BENCH_CIRCLEOPT_OUT")
        .unwrap_or_else(|_| "BENCH_circleopt.json".to_string());
    let mut out = String::from("{\n");
    out.push_str(&format!("  \"worker_count\": {},\n", worker_count()));
    out.push_str(&format!("  \"pool_threads\": {},\n", pool_thread_count()));
    out.push_str(&format!(
        "  \"steady_state_net_bytes_per_iteration\": {},\n",
        steady_net_bytes.map_or("null".to_string(), |v| v.to_string())
    ));
    out.push_str(&format!(
        "  \"steady_state_transient_allocs_per_iteration\": {},\n",
        steady_allocs.map_or("null".to_string(), |v| v.to_string())
    ));
    out.push_str("  \"cases\": [\n");
    for (i, r) in results.iter().enumerate() {
        out.push_str(&format!(
            "    {{\"name\": \"{}\", \"iters\": {}, \"min_ns\": {}, \"median_ns\": {}, \"mean_ns\": {}}}{}\n",
            json_escape(&r.name),
            r.iters,
            r.min_ns,
            r.median_ns,
            r.mean_ns,
            if i + 1 == results.len() { "" } else { "," },
        ));
    }
    out.push_str("  ],\n  \"speedups\": [\n");
    for (i, s) in speedups.iter().enumerate() {
        let ratio = s.serial_ns as f64 / s.tiled_ns.max(1) as f64;
        let ratio_min = s.serial_min_ns as f64 / s.tiled_min_ns.max(1) as f64;
        out.push_str(&format!(
            "    {{\"case\": \"{}\", \"serial_median_ns\": {}, \"tiled_median_ns\": {}, \"speedup\": {ratio:.3}, \"serial_min_ns\": {}, \"tiled_min_ns\": {}, \"speedup_min\": {ratio_min:.3}}}{}\n",
            json_escape(&s.case),
            s.serial_ns,
            s.tiled_ns,
            s.serial_min_ns,
            s.tiled_min_ns,
            if i + 1 == speedups.len() { "" } else { "," },
        ));
    }
    out.push_str("  ]\n}\n");
    match std::fs::write(&path, out) {
        Ok(()) => println!("\nperf snapshot written to {path}"),
        Err(e) => eprintln!("\nfailed to write perf snapshot: {e}"),
    }

    write_telemetry_artifact();
}

/// A short tracing-enabled CircleOpt run, recorded as a JSONL telemetry
/// artifact alongside the perf snapshot. Runs *after* every timed case so
/// enabling the trace layer cannot perturb the medians.
fn write_telemetry_artifact() {
    let path = std::env::var("CFAOPC_BENCH_CIRCLEOPT_TRACE_OUT")
        .unwrap_or_else(|_| "BENCH_circleopt_telemetry.jsonl".to_string());
    let n = 256;
    let sim = LithoSimulator::new(LithoConfig {
        size: n,
        kernel_count: 4,
        ..LithoConfig::default()
    })
    .unwrap();
    let mut target = BitGrid::new(n, n);
    let c = n as i32 / 2;
    fill_rect(&mut target, Rect::new(c - 20, c - 60, c + 20, c + 60));
    let config = CircleOptConfig {
        init_iterations: 6,
        circle_iterations: 12,
        ..CircleOptConfig::default()
    };

    cfaopc_trace::reset();
    cfaopc_trace::set_enabled(true);
    let file = match std::fs::File::create(&path) {
        Ok(f) => std::io::BufWriter::new(f),
        Err(e) => {
            eprintln!("failed to create telemetry artifact {path}: {e}");
            return;
        }
    };
    let mut sink = cfaopc_trace::JsonlSink::new(file);
    let options = RunOptions {
        sink: Some(&mut sink),
        ..RunOptions::default()
    };
    let run = run_circleopt(&sim, &target, &config, options);
    let summary = sink.write_summary().and_then(|()| sink.flush());
    cfaopc_trace::set_enabled(false);
    match (run, summary) {
        (Ok(result), Ok(())) => println!(
            "telemetry artifact written to {path} ({} shots traced)",
            result.shot_count()
        ),
        (Err(e), _) => eprintln!("telemetry run failed: {e}"),
        (_, Err(e)) => eprintln!("failed to write telemetry artifact {path}: {e}"),
    }
}
