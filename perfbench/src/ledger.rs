//! The per-layer ledger of a traced pass.
//!
//! Two sources feed it. The `cfaopc-trace` spans and counters recorded
//! while the traced pass ran (`core.circleopt`, `ilt.pixel`,
//! `litho.loss_and_gradient`, `litho.loss_only`, `fft_2d`,
//! `pool_regions`, the compose and backward ns counters). And layer
//! calls the program makes outside any span (simulator builds,
//! CircleRule, metrics, process-window sweeps, stitching), which the
//! benchmark replays on the workload's own inputs with tracing off and
//! times itself. Layer times are thread-seconds; the ledger divides
//! them by the pass's busy thread-seconds, and what no layer explains
//! is `unattributed_share`.

use crate::stats::{nested, span_self_times};
use crate::Pass;
use cfaopc_trace::SpanStat;
use std::time::Instant;

/// The per-layer metrics every workload measures, in `BENCHMARK.json`
/// order, with their units.
pub const PER_LAYER: [(&str, &str); 17] = [
    ("fft.transforms", "count"),
    ("fft.bytes_computed", "MB"),
    ("pool.regions", "count"),
    ("litho.setup_ms", "ms"),
    ("litho.lg_calls", "count"),
    ("litho.lg_ms", "ms"),
    ("litho.lg_share", "fraction"),
    ("ilt.pixel_s", "s"),
    ("ilt.pixel_self_s", "s"),
    ("ilt.iters", "count"),
    ("core.circleopt_self_s", "s"),
    ("core.iter_ms", "ms"),
    ("core.compose_ms", "ms"),
    ("core.backward_ms", "ms"),
    ("core.tiles_rendered_share", "fraction"),
    ("trace.overhead_share", "fraction"),
    ("unattributed_share", "fraction"),
];

/// Metrics of layers only some workloads run. They are printed as
/// `layer` lines by the workloads that run them, and are not in
/// `BENCHMARK.json`, which lists only what every workload measures.
pub const WORKLOAD_LAYER: [(&str, &str); 17] = [
    ("litho.aerial_ms", "ms"),
    ("litho.window_ms", "ms"),
    ("grid.dilate_ms", "ms"),
    ("grid.dilate_share", "fraction"),
    ("fracture.circle_rule_ms", "ms"),
    ("metrics.evaluate_ms", "ms"),
    ("eval.shard_efficiency", "fraction"),
    ("eval.case_s_max", "s"),
    ("chip.stitch_ms", "ms"),
    ("chip.merge_ms", "ms"),
    ("chip.empty_tile_share", "fraction"),
    ("chip.shard_efficiency", "fraction"),
    ("serve.ack_ms_p50", "ms"),
    ("serve.queue_wait_ms_p50", "ms"),
    ("serve.queue_wait_ms_p90", "ms"),
    ("serve.cache_hit_ratio", "fraction"),
    ("serve.stream_lines_per_job", "count"),
];

const LG: &str = "litho.loss_and_gradient";
const LOSS_ONLY: &str = "litho.loss_only";
const PIXEL: &str = "ilt.pixel";
const CIRCLEOPT: &str = "core.circleopt";

/// Spans and counters captured right after the traced pass.
pub struct Trace {
    spans: Vec<SpanStat>,
    counters: Vec<(&'static str, u64)>,
}

impl Trace {
    /// Snapshots the process-wide trace state.
    pub fn snapshot() -> Trace {
        Trace {
            spans: cfaopc_trace::span_snapshot(),
            counters: cfaopc_trace::counter_snapshot(),
        }
    }

    /// Total seconds of the top-level `name` spans (summed over threads).
    pub fn root_total_s(&self, name: &str) -> f64 {
        self.spans
            .iter()
            .filter(|s| s.depth == 0 && s.name == name)
            .map(|s| s.total_ns as f64 * 1e-9)
            .sum()
    }

    fn counter(&self, name: &str) -> f64 {
        self.counters
            .iter()
            .find(|(n, _)| *n == name)
            .map_or(0.0, |(_, v)| *v as f64)
    }
}

/// The ledger of one traced pass.
pub struct Ledger {
    values: Vec<(&'static str, f64)>,
    /// Layer thread-seconds, in ledger order (`of …` rows are parts of
    /// the row above and excluded from the sum).
    layers: Vec<(String, f64)>,
    busy_s: f64,
    units: f64,
    /// The [`PER_LAYER`] metrics, filled by [`Ledger::finish`].
    pub rows: Vec<(String, f64, &'static str)>,
    /// The [`WORKLOAD_LAYER`] metrics this workload set, filled by
    /// [`Ledger::finish`].
    pub workload_rows: Vec<(String, f64, &'static str)>,
    /// Human-readable ledger lines, filled by [`Ledger::finish`].
    pub notes: Vec<String>,
}

impl Ledger {
    /// Fills every span- and counter-derived metric of `pass`. `busy_s`
    /// is the thread-seconds the pass kept busy; `transform_px` the
    /// pixels of the workload's nominal transform, for the FFT byte
    /// volume computed as if every transform ran at that size.
    pub fn new(trace: &Trace, pass: &Pass, busy_s: f64, transform_px: f64) -> Ledger {
        let units = pass.units.len().max(1) as f64;
        let spans = span_self_times(&trace.spans);
        let span = |name: &str| {
            spans
                .iter()
                .find(|r| r.0 == name)
                .map_or((0.0, 0.0, 0.0), |r| {
                    (r.1 as f64, r.2 as f64 * 1e-9, r.3 as f64 * 1e-9)
                })
        };
        let (lg_calls, lg_s, _) = span(LG);
        let (_, loss_only_s, _) = span(LOSS_ONLY);
        let (_, pixel_s, pixel_self_s) = span(PIXEL);
        let (_, circleopt_s, circleopt_self_s) = span(CIRCLEOPT);
        let compose_s = trace.counter("compose_render_ns") * 1e-9;
        let backward_s =
            (trace.counter("backward_scan_ns") + trace.counter("backward_merge_ns")) * 1e-9;
        let (pixel_iters, _) = nested(&trace.spans, PIXEL, LG, true);
        let (stage2_iters, _) = nested(&trace.spans, CIRCLEOPT, LG, true);
        let (_, stage1_ns) = nested(&trace.spans, CIRCLEOPT, PIXEL, true);
        let stage2_s = circleopt_s - stage1_ns as f64 * 1e-9;
        let rendered = trace.counter("tiles_rendered");
        let skipped = trace.counter("tiles_skipped");
        let transforms = trace.counter("fft_2d");

        let mut ledger = Ledger {
            values: Vec::new(),
            layers: Vec::new(),
            busy_s,
            units,
            rows: Vec::new(),
            workload_rows: Vec::new(),
            notes: Vec::new(),
        };
        ledger.set("fft.transforms", transforms / units);
        ledger.set(
            "fft.bytes_computed",
            transforms * transform_px * 16.0 / 1e6 / units,
        );
        ledger.set("pool.regions", trace.counter("pool_regions") / units);
        ledger.set("litho.lg_calls", lg_calls / units);
        ledger.set("litho.lg_ms", ratio(lg_s * 1e3, lg_calls));
        ledger.set("litho.lg_share", ratio(lg_s, busy_s));
        ledger.set("ilt.pixel_s", pixel_s / units);
        ledger.set("ilt.pixel_self_s", pixel_self_s / units);
        ledger.set("ilt.iters", pixel_iters as f64 / units);
        let circleopt_rest = circleopt_self_s - compose_s - backward_s;
        ledger.set("core.circleopt_self_s", circleopt_rest / units);
        ledger.set("core.iter_ms", ratio(stage2_s * 1e3, stage2_iters as f64));
        ledger.set("core.compose_ms", compose_s * 1e3 / units);
        ledger.set("core.backward_ms", backward_s * 1e3 / units);
        ledger.set(
            "core.tiles_rendered_share",
            ratio(rendered, rendered + skipped),
        );

        ledger.layer(LG, lg_s);
        ledger.layer(LOSS_ONLY, loss_only_s);
        ledger.layer("ilt.pixel (self)", pixel_self_s);
        ledger.layer("core.circleopt (self)", circleopt_rest);
        ledger.layer("core.compose", compose_s);
        ledger.layer("core.backward", backward_s);
        ledger
    }

    /// Sets one metric.
    pub fn set(&mut self, name: &'static str, value: f64) {
        debug_assert!(
            PER_LAYER
                .iter()
                .chain(&WORKLOAD_LAYER)
                .any(|(n, _)| *n == name),
            "{name}"
        );
        match self.values.iter_mut().find(|(n, _)| *n == name) {
            Some(slot) => slot.1 = value,
            None => self.values.push((name, value)),
        }
    }

    /// Adds a layer's thread-seconds to the attribution.
    pub fn layer(&mut self, name: &str, seconds: f64) {
        if seconds != 0.0 {
            self.layers.push((name.to_string(), seconds));
        }
    }

    /// Adds a replayed layer: `ms` per call, `calls` in the traced pass.
    pub fn replayed(&mut self, name: &str, ms: f64, calls: f64) {
        self.layer(
            &format!("{name} (replayed, {calls} calls)"),
            ms * calls * 1e-3,
        );
    }

    /// A part of the layer added just before, shown but not summed.
    pub fn part(&mut self, name: &str, seconds: f64) {
        self.layers.push((format!("  of which {name}"), seconds));
    }

    /// Adds the whole-pass metrics and renders rows and notes.
    pub fn finish(&mut self, traced: &Pass, untraced: &Pass, setup_s: f64) {
        let attributed: f64 = self
            .layers
            .iter()
            .filter(|(n, _)| !n.starts_with("  of which"))
            .map(|(_, s)| s)
            .sum();
        self.set(
            "trace.overhead_share",
            traced.wall_s / untraced.wall_s - 1.0,
        );
        self.set("unattributed_share", 1.0 - ratio(attributed, self.busy_s));
        let value = |name: &str| {
            self.values
                .iter()
                .find(|(n, _)| *n == name)
                .map(|(_, v)| *v)
        };
        self.rows = PER_LAYER
            .iter()
            .map(|(name, unit)| (name.to_string(), value(name).unwrap_or(0.0), *unit))
            .collect();
        self.workload_rows = WORKLOAD_LAYER
            .iter()
            .filter_map(|(name, unit)| Some((name.to_string(), value(name)?, *unit)))
            .collect();
        self.notes.push(format!(
            "traced pass {:.3} s wall, untraced {:.3} s, set-up {:.4} s, {} units, busy {:.3} thread-s",
            traced.wall_s, untraced.wall_s, setup_s, self.units, self.busy_s
        ));
        for (name, s) in &self.layers {
            self.notes.push(format!(
                "{name:<52} {s:>10.3} s {:>7.1} %",
                100.0 * ratio(*s, self.busy_s)
            ));
        }
        self.notes.push(format!(
            "{:<52} {:>10.3} s {:>7.1} %",
            "unattributed",
            self.busy_s - attributed,
            100.0 * (1.0 - ratio(attributed, self.busy_s))
        ));
    }
}

/// `a / b`, or 0 when `b` is 0.
pub fn ratio(a: f64, b: f64) -> f64 {
    if b == 0.0 {
        0.0
    } else {
        a / b
    }
}

/// Median wall milliseconds of `repeats` calls of `f`.
pub fn time_ms<R>(repeats: usize, mut f: impl FnMut() -> R) -> f64 {
    let samples: Vec<f64> = (0..repeats.max(1))
        .map(|_| {
            let t = Instant::now();
            std::hint::black_box(f());
            t.elapsed().as_secs_f64() * 1e3
        })
        .collect();
    crate::stats::median(&samples).unwrap_or(0.0)
}
